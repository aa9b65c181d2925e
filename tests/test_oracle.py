import numpy as np
import pytest

from zakfiber.oracle import brute_membership, dense_frame_bounds, \
    dense_riesz_bounds, factor, frame_bounds_of_matrix, \
    membership_of_matrix, riesz_bounds_of_matrix, synthesis_matrix

from helpers import delta, random_complex, s1_action, s2_action


def test_synthesis_matrix_shape_and_norms():
    a = s2_action()
    M = synthesis_matrix(a, [delta(4, 0), delta(4, 3)])
    assert M.shape == (4, 4)
    # columns carry the weighted norm of the translates, and the
    # representation is unitary, so every block has constant column norms
    norms = np.linalg.norm(M, axis=0) ** 2
    assert norms[:2] == pytest.approx([a.space.norm_sq(delta(4, 0))] * 2)
    assert norms[2:] == pytest.approx([a.space.norm_sq(delta(4, 3))] * 2)


def test_frame_bounds_known_values():
    a1 = s1_action()
    A, B = dense_frame_bounds(a1, [delta(8, 0), delta(8, 1)])
    assert A == pytest.approx(1.0, abs=1e-12)
    assert B == pytest.approx(1.0, abs=1e-12)
    A, B = dense_frame_bounds(a1, [delta(8, 0), delta(8, 0) + delta(8, 2)])
    assert A == pytest.approx(1.0, abs=1e-12)
    assert B == pytest.approx(5.0, abs=1e-12)


def test_frame_bounds_weighted_space():
    A, B = dense_frame_bounds(s2_action(), [delta(4, 0) + delta(4, 3)])
    assert A == pytest.approx(1.0, abs=1e-12)
    assert B == pytest.approx(9.0, abs=1e-12)


def test_riesz_bounds_known_values():
    a1 = s1_action()
    A, B, ok = dense_riesz_bounds(a1, [delta(8, 0), delta(8, 1)])
    assert ok
    assert A == pytest.approx(1.0, abs=1e-12)
    assert B == pytest.approx(1.0, abs=1e-12)
    # two generators supported on the same orbit coordinate are dependent
    A, B, ok = dense_riesz_bounds(a1, [delta(8, 0), delta(8, 0) + delta(8, 2)])
    assert not ok
    assert A == pytest.approx(0.0, abs=1e-12)
    assert B == pytest.approx(5.0, abs=1e-12)


def test_riesz_bounds_weighted_space():
    A, B, ok = dense_riesz_bounds(s2_action(), [delta(4, 0) + delta(4, 3)])
    assert ok
    assert A == pytest.approx(1.0, abs=1e-12)
    assert B == pytest.approx(9.0, abs=1e-12)


def test_zero_generator_degenerate():
    a = s1_action()
    A, B = dense_frame_bounds(a, [np.zeros(8)])
    assert A is None and B is None
    A, B, ok = dense_riesz_bounds(a, [np.zeros(8)])
    assert not ok
    assert A == pytest.approx(0.0, abs=1e-15)


def test_membership_known_cases():
    a = s1_action()
    gens = [delta(8, 0)]
    member, res = brute_membership(a, delta(8, 4), gens)
    assert member
    assert res < 1e-12
    member, res = brute_membership(a, delta(8, 1), gens)
    assert not member
    # the candidate is orthogonal to the span, so the residual is its norm
    assert res == pytest.approx(1.0, abs=1e-12)


def test_membership_random_combination():
    rng = np.random.default_rng(43)
    a = s2_action()
    gens = [random_complex(rng, 4)]
    psi = np.zeros(4, dtype=complex)
    for g in a.group.elements():
        psi += (rng.standard_normal() + 1j * rng.standard_normal()) \
            * a.apply(g, gens[0])
    member, res = brute_membership(a, psi, gens)
    assert member
    assert res < 1e-9


def test_matrix_helpers_consistent():
    rng = np.random.default_rng(47)
    M = random_complex(rng, 12).reshape(3, 4)
    A, B = frame_bounds_of_matrix(factor(M))
    eig = np.linalg.eigvalsh(M @ M.conj().T)
    assert B == pytest.approx(eig[-1])
    assert A >= 0
    Ar, Br, ok = riesz_bounds_of_matrix(factor(M))
    assert Br == pytest.approx(eig[-1])
    # a random 3x4 matrix has dependent columns
    assert not ok
    member, res = membership_of_matrix(factor(M), M[:, 0])
    assert member and res < 1e-12


def test_membership_batched_matches_one_column_at_a_time():
    rng = np.random.default_rng(53)
    M = synthesis_matrix(s1_action(), [delta(8, 0), delta(8, 0) + delta(8, 2)])
    inside = M @ random_complex(rng, M.shape[1])
    b = np.stack([inside, random_complex(rng, 8), delta(8, 4), delta(8, 1),
                  np.zeros(8), 1e-3 * inside], axis=1)
    F = factor(M)
    member, residual = membership_of_matrix(F, b)
    assert member.shape == residual.shape == (6,)
    assert list(member) == [True, False, True, False, True, True]
    for j in range(b.shape[1]):
        one_member, one_residual = membership_of_matrix(F, b[:, j])
        assert member[j] == one_member
        scale = max(1.0, np.linalg.norm(b[:, j]))
        assert abs(residual[j] - one_residual) <= 1e-12 * scale
