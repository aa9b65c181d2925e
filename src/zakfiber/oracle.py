"""Dense linear-algebra reference route for orbit systems.

Everything here works on the synthesis matrix of the full orbit system
{Pi(gamma) phi : gamma in Gamma, phi generator} assembled column by column
in the weighted geometry (rows scaled by sqrt(mu)), with no fiberization.
Frame bounds come from the frame operator M M^H, Riesz bounds from the
Gram matrix M^H M, and membership from a least-squares solve.  These are
deliberately independent of the transform modules so the two routes can
be played against each other.
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

# eigenvalues below RANK_REL * (largest) are treated as zero when locating
# the lower frame bound; the same ratio decides linear independence
RANK_REL = 1e-9
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
    members = np.asarray(s.gamma.members, dtype=np.intp)
    src = G.flat(G.coordinates[:, None, :] - members[None, :, :])
    return np.concatenate([phi[src] for phi in gens], axis=1)


def frame_bounds_of_matrix(M: np.ndarray):
    """(A, B) from the spectrum of M M^H, ignoring eigenvalues below
    RANK_REL * max; (None, None) when the system is zero."""
    S = M @ M.conj().T
    eig = np.linalg.eigvalsh(S)
    emax = float(eig[-1])
    if emax <= 0.0:
        return None, None
    kept = eig[eig > RANK_REL * emax]
    return float(kept[0]), emax


def riesz_bounds_of_matrix(M: np.ndarray):
    """(A, B, independent) from the full spectrum of the Gram M^H M."""
    G = M.conj().T @ M
    eig = np.linalg.eigvalsh(G)
    A = max(float(eig[0]), 0.0)  # clip spurious negatives from rounding
    B = float(eig[-1])
    independent = bool(B > 0.0 and A > RANK_REL * B)
    return A, B, independent


def membership_of_matrix(M: np.ndarray, b: np.ndarray):
    """Least-squares residual of b against the column span of M.

    Returns (member, residual) with residual in the ambient (already
    weighted) Euclidean norm; the verdict compares against
    MEMBER_TOL * max(1, ||b||).
    """
    x, *_ = np.linalg.lstsq(M, b, rcond=None)
    residual = float(np.linalg.norm(b - M @ x))
    member = residual <= MEMBER_TOL * max(1.0, float(np.linalg.norm(b)))
    return member, residual


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
