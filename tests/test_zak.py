import numpy as np
import pytest

from zakfiber import ZakTransform, character, membership_fibers, \
    range_from_generators

from helpers import delta, fiber_norms_sq, naive_apply, naive_zak, norm_sq, \
    random_complex, s1_action, s2_action, s3_scenario, weighted_inner


def test_s1_known_fibers():
    zk = ZakTransform(s1_action())
    Z0 = zk.forward(delta(8, 0))
    assert np.allclose(Z0, np.tile([1.0, 0.0], (4, 1)), atol=1e-12)
    Z1 = zk.forward(delta(8, 1))
    assert np.allclose(Z1, np.tile([0.0, 1.0], (4, 1)), atol=1e-12)
    # the shifted generator picks up the character i^alpha
    Z2 = zk.forward(delta(8, 2))
    expected = np.array([[1, 0], [1j, 0], [-1, 0], [-1j, 0]], dtype=complex)
    assert np.allclose(Z2, expected, atol=1e-12)


def test_s2_known_fibers():
    zk = ZakTransform(s2_action())
    Z = zk.forward(delta(4, 3))
    expected = np.array([[2.0, 0.0], [-2.0, 0.0]], dtype=complex)
    assert np.allclose(Z, expected, atol=1e-12)
    # weighted fiber norms match the squared norm of the delta, mass 4
    assert fiber_norms_sq(zk.fiber_weights, Z) == pytest.approx([4.0, 4.0])
    assert norm_sq(zk.fiber_weights, Z) == pytest.approx(4.0)


def test_matches_naive_reference():
    rng = np.random.default_rng(21)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(5):
            psi = random_complex(rng, a.space.size)
            assert np.max(np.abs(zk.forward(psi)
                                 - naive_zak(a, zk, psi))) < 1e-12


def test_zero_maps_to_zero():
    zk = ZakTransform(s1_action())
    assert np.all(zk.forward(np.zeros(8)) == 0)
    assert np.max(np.abs(zk.inverse(np.zeros((4, 2))))) == 0.0


def test_isometry():
    rng = np.random.default_rng(23)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(100):
            psi = random_complex(rng, a.space.size)
            n = weighted_inner(a.space.weights, psi, psi).real
            assert abs(norm_sq(zk.fiber_weights, zk.forward(psi)) - n) \
                <= 1e-12 * n


def test_linearity():
    rng = np.random.default_rng(29)
    a = s2_action()
    zk = ZakTransform(a)
    f = random_complex(rng, 4)
    g = random_complex(rng, 4)
    c = 0.7 - 1.3j
    lhs = zk.forward(c * f + g)
    rhs = c * zk.forward(f) + zk.forward(g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_intertwining():
    rng = np.random.default_rng(31)
    for a in (s1_action(), s2_action()):
        G = a.group
        zk = ZakTransform(a)
        for _ in range(20):
            psi = random_complex(rng, a.space.size)
            base = zk.forward(psi)
            for g in G.elements():
                lhs = zk.forward(naive_apply(a, g, psi))
                chars = np.array([character(G, g, al) for al in G.elements()])
                assert np.max(np.abs(lhs - chars[:, None] * base)) < 1e-12


def test_inverse_known_value():
    zk = ZakTransform(s1_action())
    F = np.tile([1.0, 0.0], (4, 1)).astype(complex)
    assert np.allclose(zk.inverse(F), delta(8, 0), atol=1e-12)


def test_roundtrips():
    rng = np.random.default_rng(37)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(100):
            psi = random_complex(rng, a.space.size)
            assert np.max(np.abs(zk.inverse(zk.forward(psi)) - psi)) < 1e-12
            F = random_complex(rng, zk.n_fibers * zk.n_points) \
                .reshape(zk.n_fibers, zk.n_points)
            back = zk.forward(zk.inverse(F))
            assert np.max(np.abs(back - F)) < 1e-12


def test_orbit_norm_identity():
    # ||psi||^2 = sum over representatives of the orbit-sequence norms
    rng = np.random.default_rng(41)
    a = s2_action()
    zk = ZakTransform(a)
    psi = random_complex(rng, 4)
    total = 0.0
    for ci, c in enumerate(zk.transversal):
        for g in a.group.elements():
            total += abs(naive_apply(a, g, psi)[c]) ** 2 * a.space.weights[c]
    assert total == pytest.approx(
        weighted_inner(a.space.weights, psi, psi).real)


def test_shape_mismatch_errors():
    zk = ZakTransform(s1_action())
    with pytest.raises(ValueError):
        zk.forward(np.ones(7))
    with pytest.raises(ValueError):
        zk.inverse(np.zeros((3, 2)))


def test_forward_inverse_of_delta():
    a = s1_action()
    psi = delta(8, 3)
    fv = ZakTransform(a).forward(psi)
    assert np.max(np.abs(ZakTransform(a).inverse(fv) - psi)) < 1e-12


FIBRATIONS = {"s1": lambda: ZakTransform(s1_action()),
              "s2": lambda: ZakTransform(s2_action()),
              "s3": s3_scenario}


@pytest.mark.parametrize("name", FIBRATIONS)
def test_inverse_checks_the_fiber_shape(name):
    fib = FIBRATIONS[name]()
    shape = (fib.n_fibers, fib.n_points)
    for bad in (np.zeros(fib.n_points), np.zeros((shape[0] + 1, shape[1]))):
        want = rf"^fiber shape \({bad.shape[0]},.* does not match " \
            rf"\({shape[0]}, {shape[1]}\)$"
        with pytest.raises(ValueError, match=want):
            fib.inverse(bad)


@pytest.mark.parametrize("name", FIBRATIONS)
def test_inverse_takes_nested_lists(name):
    fib = FIBRATIONS[name]()
    rng = np.random.default_rng(43)
    F = random_complex(rng, fib.n_fibers * fib.n_points) \
        .reshape(fib.n_fibers, fib.n_points)
    assert fib.inverse(F.tolist()).tobytes() == fib.inverse(F).tobytes()


@pytest.mark.parametrize("name", FIBRATIONS)
def test_membership_checks_the_fiber_shape(name):
    fib = FIBRATIONS[name]()
    n = fib.ambient_weights.size
    J = range_from_generators(fib, [delta(n, 0)])
    with pytest.raises(ValueError, match="^fiber shape .* does not match"):
        membership_fibers(np.zeros((fib.n_fibers, fib.n_points + 1)), J)
