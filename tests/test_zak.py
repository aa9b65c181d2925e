import numpy as np
import pytest

from zakfiber import FiberedVector, ZakTransform, character

from helpers import delta, naive_zak, random_complex, s1_action, s2_action


def test_fibered_vector_shapes():
    with pytest.raises(ValueError):
        FiberedVector(np.zeros((2, 3)), np.ones(2))
    fv = FiberedVector(np.ones((4, 2)), np.array([1.0, 3.0]))
    assert fv.n_fibers == 4
    assert fv.n_points == 2
    assert fv.fiber_norms_sq() == pytest.approx([4.0] * 4)
    assert fv.norm_sq() == pytest.approx(4.0)


def test_fibered_vector_needs_2d_fibers():
    with pytest.raises(ValueError, match="^fibers must be a 2-d array$"):
        FiberedVector(np.zeros(3), np.ones(3))


def test_fiber_inner_rejects_other_shapes():
    a = FiberedVector(np.ones((2, 3)), np.ones(3))
    b = FiberedVector(np.ones((3, 3)), np.ones(3))
    with pytest.raises(ValueError, match="^fiber shapes do not match$"):
        a.fiber_inner(b)


def test_fiber_inner_rejects_other_weights():
    # with the first vector's weights alone, a.b = 6 but b.a = 15
    a = FiberedVector(np.ones((1, 3)), np.array([1.0, 2.0, 3.0]))
    b = FiberedVector(np.ones((1, 3)), np.full(3, 5.0))
    for u, v in ((a, b), (b, a)):
        with pytest.raises(ValueError, match="weights"):
            u.fiber_inner(v)
        with pytest.raises(ValueError, match="weights"):
            u.inner(v)
    assert a.inner(a) == 6.0 and b.inner(b) == 15.0


def test_s1_known_fibers():
    zk = ZakTransform(s1_action())
    Z0 = zk.forward(delta(8, 0))
    assert np.allclose(Z0.fibers, np.tile([1.0, 0.0], (4, 1)), atol=1e-12)
    Z1 = zk.forward(delta(8, 1))
    assert np.allclose(Z1.fibers, np.tile([0.0, 1.0], (4, 1)), atol=1e-12)
    # the shifted generator picks up the character i^alpha
    Z2 = zk.forward(delta(8, 2))
    expected = np.array([[1, 0], [1j, 0], [-1, 0], [-1j, 0]], dtype=complex)
    assert np.allclose(Z2.fibers, expected, atol=1e-12)


def test_s2_known_fibers():
    zk = ZakTransform(s2_action())
    Z = zk.forward(delta(4, 3))
    expected = np.array([[2.0, 0.0], [-2.0, 0.0]], dtype=complex)
    assert np.allclose(Z.fibers, expected, atol=1e-12)
    # weighted fiber norms match the squared norm of the delta, mass 4
    assert Z.fiber_norms_sq() == pytest.approx([4.0, 4.0])
    assert Z.norm_sq() == pytest.approx(4.0)


def test_matches_naive_reference():
    rng = np.random.default_rng(21)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(5):
            psi = random_complex(rng, a.space.size)
            assert np.max(np.abs(zk.forward(psi).fibers
                                 - naive_zak(a, zk, psi))) < 1e-12


def test_zero_maps_to_zero():
    zk = ZakTransform(s1_action())
    assert np.all(zk.forward(np.zeros(8)).fibers == 0)
    fv = FiberedVector(np.zeros((4, 2)), zk.fiber_weights)
    assert np.max(np.abs(zk.inverse(fv))) == 0.0


def test_isometry():
    rng = np.random.default_rng(23)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(100):
            psi = random_complex(rng, a.space.size)
            n = a.space.norm_sq(psi)
            assert abs(zk.forward(psi).norm_sq() - n) <= 1e-12 * n


def test_linearity():
    rng = np.random.default_rng(29)
    a = s2_action()
    zk = ZakTransform(a)
    f = random_complex(rng, 4)
    g = random_complex(rng, 4)
    c = 0.7 - 1.3j
    lhs = zk.forward(c * f + g).fibers
    rhs = c * zk.forward(f).fibers + zk.forward(g).fibers
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_intertwining():
    rng = np.random.default_rng(31)
    for a in (s1_action(), s2_action()):
        G = a.group
        zk = ZakTransform(a)
        for _ in range(20):
            psi = random_complex(rng, a.space.size)
            base = zk.forward(psi).fibers
            for g in G.elements():
                lhs = zk.forward(a.apply(g, psi)).fibers
                chars = np.array([character(G, g, al) for al in G.elements()])
                assert np.max(np.abs(lhs - chars[:, None] * base)) < 1e-12


def test_inverse_known_value():
    zk = ZakTransform(s1_action())
    Phi = FiberedVector(np.tile([1.0, 0.0], (4, 1)).astype(complex),
                        zk.fiber_weights)
    assert np.allclose(zk.inverse(Phi), delta(8, 0), atol=1e-12)


def test_roundtrips():
    rng = np.random.default_rng(37)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(100):
            psi = random_complex(rng, a.space.size)
            assert np.max(np.abs(zk.inverse(zk.forward(psi)) - psi)) < 1e-12
            Phi = FiberedVector(
                random_complex(rng, zk.n_fibers * zk.n_points)
                .reshape(zk.n_fibers, zk.n_points),
                zk.fiber_weights)
            back = zk.forward(zk.inverse(Phi)).fibers
            assert np.max(np.abs(back - Phi.fibers)) < 1e-12


def test_orbit_norm_identity():
    # ||psi||^2 = sum over representatives of the orbit-sequence norms
    rng = np.random.default_rng(41)
    a = s2_action()
    zk = ZakTransform(a)
    psi = random_complex(rng, 4)
    total = 0.0
    for ci, c in enumerate(zk.transversal):
        for g in a.group.elements():
            total += abs(a.apply(g, psi)[c]) ** 2 * a.space.weights[c]
    assert total == pytest.approx(a.space.norm_sq(psi))


def test_shape_mismatch_errors():
    zk = ZakTransform(s1_action())
    with pytest.raises(ValueError):
        zk.forward(np.ones(7))
    with pytest.raises(ValueError):
        zk.inverse(FiberedVector(np.zeros((3, 2)), zk.fiber_weights))


def test_forward_inverse_of_delta():
    a = s1_action()
    psi = delta(8, 3)
    fv = ZakTransform(a).forward(psi)
    assert np.max(np.abs(ZakTransform(a).inverse(fv) - psi)) < 1e-12
