import numpy as np
import pytest

from zakfiber import ZakTransform, membership, project, range_from_generators
from zakfiber.oracle import brute_membership
from zakfiber.ranges import membership_fibers

from helpers import delta, random_complex, s1_action, s2_action, \
    s3_scenario


def test_dims_known_cases():
    zk = ZakTransform(s1_action())
    J = range_from_generators(zk, [delta(8, 0), delta(8, 1)])
    assert list(J.dims) == [2, 2, 2, 2]
    assert J.length() == 2
    J = range_from_generators(zk, [delta(8, 0), delta(8, 0) + delta(8, 2)])
    # same coordinate twice: one dimension per fiber despite two generators
    assert list(J.dims) == [1, 1, 1, 1]
    assert J.length() == 1


def test_empty_generators_span_zero():
    zk = ZakTransform(s1_action())
    J = range_from_generators(zk, [])
    assert list(J.dims) == [0, 0, 0, 0]
    assert J.length() == 0
    member, res = membership(zk, np.zeros(8), J)
    assert member and res == 0.0
    member, res = membership(zk, delta(8, 0), J)
    assert not member
    assert res == pytest.approx(1.0, abs=1e-12)


def test_empty_generators_span_zero_on_translation():
    ts = s3_scenario()
    J = range_from_generators(ts, [])
    assert list(J.dims) == [0] * ts.n_dual
    assert J.basis.shape == (ts.n_dual, ts.n_cosets, 0)
    assert np.array_equal(J.fiber_weights, np.ones(ts.n_cosets))
    member, res = membership(ts, delta(ts.G.order, 0), J)
    assert not member
    assert res == pytest.approx(1.0, abs=1e-12)


def test_star_generator_dims():
    from helpers import star_generator
    zk = ZakTransform(s1_action())
    J = range_from_generators(zk, [star_generator()])
    # supported on the zero character only
    assert list(J.dims) == [1, 0, 0, 0]
    assert J.length() == 1


def test_bases_weighted_orthonormal():
    rng = np.random.default_rng(53)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        gens = [random_complex(rng, a.space.size) for _ in range(2)]
        J = range_from_generators(zk, gens)
        for Q, d in zip(J.basis, J.dims):
            Q = Q[:, :d]
            gram = Q.conj().T @ (J.fiber_weights[:, None] * Q)
            assert np.max(np.abs(gram - np.eye(d))) < 1e-10


def test_membership_truths():
    a = s1_action()
    zk = ZakTransform(a)
    J = range_from_generators(zk, [delta(8, 0)])
    # every orbit translate of the generator belongs
    for g in a.group.elements():
        member, res = membership(zk, a.apply(g, delta(8, 0)), J)
        assert member and res < 1e-12
    # delta_1 is carried by the other transversal coordinate
    member, res = membership(zk, delta(8, 1), J)
    assert not member
    assert res == pytest.approx(1.0, abs=1e-12)


def test_membership_of_random_orbit_combination():
    rng = np.random.default_rng(59)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        gens = [random_complex(rng, a.space.size)]
        J = range_from_generators(zk, gens)
        psi = np.zeros(a.space.size, dtype=complex)
        for g in a.group.elements():
            c = rng.standard_normal() + 1j * rng.standard_normal()
            psi += c * a.apply(g, gens[0])
        member, res = membership(zk, psi, J)
        assert member and res < 1e-9


def test_membership_matches_oracle():
    rng = np.random.default_rng(61)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(10):
            gens = [random_complex(rng, a.space.size)
                    for _ in range(rng.integers(1, 3))]
            J = range_from_generators(zk, gens)
            cand = random_complex(rng, a.space.size)
            got, _ = membership(zk, cand, J)
            want, _ = brute_membership(a, cand, gens)
            assert got == want
            inside = project(zk, cand, J)
            got, _ = membership(zk, inside, J)
            want, _ = brute_membership(a, inside, gens)
            assert got and want


def test_project_idempotent_and_orthogonal():
    rng = np.random.default_rng(67)
    a = s2_action()
    zk = ZakTransform(a)
    gens = [random_complex(rng, 4)]
    J = range_from_generators(zk, gens)
    psi = random_complex(rng, 4)
    p = project(zk, psi, J)
    again = project(zk, p, J)
    assert np.max(np.abs(again - p)) < 1e-12
    # the residual is orthogonal to the space, checked against the generator
    # orbit in the weighted inner product
    for g in a.group.elements():
        t = a.apply(g, gens[0])
        assert abs(a.space.inner(psi - p, t)) < 1e-10


def test_membership_fibers_variant():
    rng = np.random.default_rng(71)
    a = s1_action()
    zk = ZakTransform(a)
    gens = [random_complex(rng, 8)]
    J = range_from_generators(zk, gens)
    psi = random_complex(rng, 8)
    m1, r1 = membership(zk, psi, J)
    m2, r2 = membership_fibers(zk.forward(psi), J)
    assert m1 == m2
    assert r1 == pytest.approx(r2, abs=1e-13)


def test_fiber_shape_mismatch():
    zk = ZakTransform(s1_action())
    J = range_from_generators(zk, [delta(8, 0)])
    from zakfiber import FiberedVector
    bad = FiberedVector(np.zeros((3, 2)), zk.fiber_weights)
    with pytest.raises(ValueError):
        membership_fibers(bad, J)


def test_fiber_weight_mismatch():
    # J's weights would measure a vector of another geometry wrongly
    zk = ZakTransform(s1_action())
    J = range_from_generators(zk, [delta(8, 0)])
    from zakfiber import FiberedVector
    other = FiberedVector(zk.forward(delta(8, 1)).fibers,
                          2.0 * zk.fiber_weights)
    with pytest.raises(ValueError):
        membership_fibers(other, J)


def test_range_function_length():
    zk = ZakTransform(s1_action())
    J = range_from_generators(zk, [delta(8, 0), delta(8, 1)])
    assert J.length() == 2
