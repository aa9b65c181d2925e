"""Dense linear-algebra reference route for orbit systems.

Everything here works on the synthesis matrix M of the full orbit system
{Pi(gamma) phi : gamma in Gamma, phi generator} assembled column by column
in the weighted geometry (rows scaled by sqrt(mu)), with no fiberization.
Every check reads one SVD of M: frame and Riesz bounds are extremes of
sigma^2, and membership projects onto the left singular vectors whose
sigma exceeds RANK_REL * sigma_max.  These are deliberately independent
of the transform modules so the two routes can be played against each other.
"""

from __future__ import annotations

import numpy as np

from .action import QuasiInvariantAction

__all__ = [
    "synthesis_matrix",
    "translation_synthesis_matrix",
    "dense_frame_bounds",
    "dense_riesz_bounds",
    "brute_membership",
    "frame_bounds_of_matrix",
    "riesz_bounds_of_matrix",
    "membership_of_matrix",
]

# singular values at or below RANK_REL * (largest) count as zero
RANK_REL = 1e-10
# independent columns: smallest Gram eigenvalue > INDEPENDENT_REL * largest
INDEPENDENT_REL = 1e-9
MEMBER_TOL = 1e-9


def synthesis_matrix(a: QuasiInvariantAction, gens) -> np.ndarray:
    """Columns sqrt(mu) * Pi(gamma) phi, generator-major, gamma lexicographic."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise ValueError("at least one generator is required")
    N = a.space.size
    for g in gens:
        if g.shape != (N,):
            raise ValueError(f"generator shape {g.shape} does not match space "
                             f"size {N}")
    mu = a.space.weights
    # (N, |Gamma|) in C order: the spectra of M depend on its layout in
    # the last bits
    src = a.table[a.group.neg_index_table()].T.copy()
    amp = np.sqrt(mu[src] / mu[:, None])
    sqrtw = np.sqrt(mu)[:, None]
    return np.concatenate([sqrtw * (amp * phi[src]) for phi in gens], axis=1)


def translation_synthesis_matrix(s, gens) -> np.ndarray:
    """Columns T_gamma phi of a translation system on G, generator-major.

    ``s`` is a TranslationScenario; the ambient measure is counting, so no
    weight scaling is applied.  gamma runs over the subgroup members in
    sorted order.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise ValueError("at least one generator is required")
    G = s.G
    for g in gens:
        if g.shape != (G.order,):
            raise ValueError(f"generator shape {g.shape} does not match "
                             f"group order {G.order}")
    # index map for translation: (T_gamma phi)(x) = phi(x - gamma)
    src = G.flat(G.coordinates[:, None] - s.gamma.members)
    return np.concatenate([phi[src] for phi in gens], axis=1)


def frame_bounds_of_matrix(M: np.ndarray):
    """(A, B) = (sigma_r^2, sigma_1^2) over the singular values of M above
    RANK_REL * sigma_1; (None, None) when the system is zero."""
    s = np.linalg.svd(M, compute_uv=False)
    s = s[s > RANK_REL * s[0]]
    if not s.size:
        return None, None
    return float(s[-1] ** 2), float(s[0] ** 2)


def riesz_bounds_of_matrix(M: np.ndarray):
    """(A, B, independent) from the Gram spectrum of M: sigma^2,
    zero-padded to the column count, where sigma at or below
    RANK_REL * sigma_1 counts as 0, so a dependent system has A = 0."""
    s = np.linalg.svd(M, compute_uv=False)
    s[s <= RANK_REL * s[0]] = 0.0
    s2 = s ** 2
    A = float(s2[-1]) if s2.size == M.shape[1] else 0.0
    B = float(s2[0])
    independent = bool(B > 0.0 and A > INDEPENDENT_REL * B)
    return A, B, independent


def membership_of_matrix(M: np.ndarray, b: np.ndarray):
    """Residual ||b - U_r U_r^H b|| of b, one vector or a matrix of
    right-hand-side columns, against the span of the retained U_r of M.

    Returns (member, residual), per column for a matrix, with residual in
    the ambient (already weighted) Euclidean norm; the verdict compares
    against MEMBER_TOL * max(1, ||b||).
    """
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    U = U[:, s > RANK_REL * s[0]]
    residual = np.linalg.norm(b - U @ (U.conj().T @ b), axis=0)
    norm = np.maximum(1.0, np.linalg.norm(b, axis=0))
    return residual <= MEMBER_TOL * norm, residual


def dense_frame_bounds(a: QuasiInvariantAction, gens):
    """Frame bounds of the orbit system on its span, computed densely."""
    return frame_bounds_of_matrix(synthesis_matrix(a, gens))


def dense_riesz_bounds(a: QuasiInvariantAction, gens):
    """Riesz bounds and linear independence of the orbit system."""
    return riesz_bounds_of_matrix(synthesis_matrix(a, gens))


def brute_membership(a: QuasiInvariantAction, f, gens):
    """Membership of f in the span of the orbit system, by least squares."""
    v = np.asarray(f, dtype=complex)
    if v.shape != (a.space.size,):
        raise ValueError(f"expected {a.space.size} values, got shape {v.shape}")
    M = synthesis_matrix(a, gens)
    b = np.sqrt(a.space.weights) * v
    return membership_of_matrix(M, b)
