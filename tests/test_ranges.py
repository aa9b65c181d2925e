import numpy as np
import pytest

from zakfiber import ZakTransform, membership, range_from_generators
from zakfiber.ranges import RangeFunction, generator_system, \
    membership_fibers

from helpers import delta, dense_membership, naive_apply, project, \
    random_complex, s1_action, s2_action, s3_scenario, weighted_inner


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
    assert list(J.dims) == [0] * ts.n_fibers
    assert J.basis.shape == (ts.n_fibers, ts.n_points, 0)
    assert np.array_equal(J.fiber_weights, np.ones(ts.n_points))
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
        member, res = membership(zk, naive_apply(a, g, delta(8, 0)), J)
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
            psi += c * naive_apply(a, g, gens[0])
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
            want, _ = dense_membership(a, cand, gens)
            assert got == want
            inside = project(zk, cand, J)
            got, _ = membership(zk, inside, J)
            want, _ = dense_membership(a, inside, gens)
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
        t = naive_apply(a, g, gens[0])
        assert abs(weighted_inner(a.space.weights, psi - p, t)) < 1e-10


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
    with pytest.raises(ValueError):
        membership_fibers(np.zeros((3, 2)), J)


def test_membership_measures_fibers_by_the_range_weights():
    # fibers carry no weights: the same span, orthonormal under doubled
    # weights, measures every distance sqrt(2) times longer
    zk = ZakTransform(s1_action())
    J = range_from_generators(zk, [delta(8, 0)])
    J2 = RangeFunction(J.basis / np.sqrt(2.0), J.dims, 2.0 * J.fiber_weights,
                       J.s2)
    F = zk.forward(delta(8, 0) + delta(8, 1))
    member, residual = membership_fibers(F, J)
    member2, residual2 = membership_fibers(F, J2)
    assert not member and not member2
    assert residual == pytest.approx(1.0, rel=1e-12)
    assert residual2 == pytest.approx(np.sqrt(2.0) * residual, rel=1e-12)


def test_fiber_weights_of_a_forward_are_read_only():
    # a generator system shares the transform's weights, which every later
    # result of the transform reads, so a write to them must fail
    rng = np.random.default_rng(61)
    zk = ZakTransform(s2_action())
    gens = [random_complex(rng, 4)]
    c = random_complex(rng, 4)
    before = membership(zk, c, range_from_generators(zk, gens))
    assert not before[0] and before[1] > 0.1
    with pytest.raises(ValueError):
        generator_system(zk, gens).weights[:] = 7
    with pytest.raises(ValueError):
        zk.fiber_weights[0] = 7
    assert membership(zk, c, range_from_generators(zk, gens)) == before


def test_memo_factors_are_the_read_only_range_function():
    # the generator system's one SVD yields J; range_from_generators hands
    # out its basis bit for bit, in arrays of its own
    rng = np.random.default_rng(67)
    for fib, n in ((ZakTransform(s1_action()), 8), (s3_scenario(), 12)):
        gens = [random_complex(rng, n) for _ in range(2)]
        J_out = range_from_generators(fib, gens)
        J, coords = generator_system(fib, gens).factors()
        assert isinstance(J, RangeFunction)
        for a in (*vars(J).values(), coords):
            assert not a.flags.writeable
        assert np.array_equal(J.basis.view(np.int64),
                              J_out.basis.view(np.int64))
        for a, b in zip(vars(J).values(), vars(J_out).values()):
            assert np.array_equal(a, b) and not np.shares_memory(a, b)


def test_translation_results_share_its_read_only_weights():
    ts = s3_scenario()
    system = generator_system(ts, [random_complex(
        np.random.default_rng(71), 12)])
    assert system.weights is ts.fiber_weights
    assert np.array_equal(ts.fiber_weights, np.ones(ts.n_points))
    assert np.array_equal(ts.ambient_weights, np.ones(ts.G.order))
    assert (ts.n_fibers, ts.n_points) == (4, 3)
    for w in (ts.fiber_weights, ts.ambient_weights):
        with pytest.raises(ValueError):
            w[0] = 7


@pytest.mark.parametrize("fib", [ZakTransform(s1_action()), s3_scenario()],
                         ids=["action", "translation"])
def test_both_fibrations_check_vectors_alike(fib):
    n = fib.ambient_weights.size
    calls = [fib.forward, lambda f: fib.forward_many([f]),
             lambda f: range_from_generators(fib, [f])]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call(np.ones(n + 1))
        assert str(info.value) == f"expected {n} values, got shape ({n + 1},)"


def test_range_function_length():
    zk = ZakTransform(s1_action())
    J = range_from_generators(zk, [delta(8, 0), delta(8, 1)])
    assert J.length() == 2
