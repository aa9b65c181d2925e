"""Dense linear-algebra reference route for orbit systems.

Everything here works on the synthesis matrix M of the full orbit system
{Pi(gamma) phi : gamma in Gamma, phi generator} assembled column by column
in the weighted geometry (rows scaled by sqrt(mu)), with no fiberization,
by one body for an action and for a translation, whose weights are 1.
:func:`factor` takes the one SVD of M and keeps sigma > RANK_REL * sigma_1,
and every check reads that one factorization: frame and Riesz bounds are
extremes of sigma^2, the rank is dim V, and membership projects onto the
retained left singular vectors U_r.  These are deliberately independent
of the transform modules so the two routes can be played against each other.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .action import QuasiInvariantAction

__all__ = [
    "synthesis_matrix",
    "translation_synthesis_matrix",
    "Factorization",
    "factor",
    "frame_bounds_of_matrix",
    "riesz_bounds_of_matrix",
    "membership_of_matrix",
]

RANK_REL = 1e-10
# independent columns: smallest Gram eigenvalue > INDEPENDENT_REL * largest
INDEPENDENT_REL = 1e-9
MEMBER_TOL = 1e-9


def _orbit_matrix(gens, src: np.ndarray, mu: np.ndarray,
                  what: str) -> np.ndarray:
    """Columns sqrt(mu) * sqrt(mu[src] / mu) * phi[src], generator-major,
    one per column gi of the index map src; unit weights multiply by
    exactly 1.0, which keeps every value of phi[src]."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if not gens:
        raise ValueError("at least one generator is required")
    for g in gens:
        if g.shape != mu.shape:
            raise ValueError(f"generator shape {g.shape} does not match "
                             f"{what} {mu.size}")
    amp = np.sqrt(mu[src] / mu[:, None])
    sqrtw = np.sqrt(mu)[:, None]
    return np.concatenate([sqrtw * (amp * phi[src]) for phi in gens], axis=1)


def synthesis_matrix(a: QuasiInvariantAction, gens) -> np.ndarray:
    """Columns sqrt(mu) * Pi(gamma) phi, generator-major, gamma lexicographic."""
    # (N, |Gamma|) in C order: the spectra of M depend on its layout in
    # the last bits
    src = a.table[a.group.neg_index_table()].T.copy()
    return _orbit_matrix(gens, src, a.space.weights, "space size")


def translation_synthesis_matrix(s, gens) -> np.ndarray:
    """Columns T_gamma phi of the TranslationScenario ``s``, generator-major,
    gamma over the sorted subgroup members, with (T_gamma phi)(x) =
    phi(x - gamma); the ambient measure is counting: unit weights."""
    src = s.G.flat(s.G.coordinates[:, None] - s.gamma.members)
    return _orbit_matrix(gens, src, np.ones(s.G.order), "group order")


class Factorization(NamedTuple):
    """Thin SVD of M (sigma descending), its rank and its column count."""
    U: np.ndarray
    s: np.ndarray
    rank: int
    n_cols: int


def factor(M: np.ndarray) -> Factorization:
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return Factorization(U, s, int(np.sum(s > RANK_REL * s[0])), M.shape[1])


def frame_bounds_of_matrix(F: Factorization):
    """(A, B) = (sigma_r^2, sigma_1^2) over the retained singular values;
    (None, None) when the system is zero."""
    if not F.rank:
        return None, None
    return float(F.s[F.rank - 1] ** 2), float(F.s[0] ** 2)


def riesz_bounds_of_matrix(F: Factorization):
    """(A, B, independent) from the Gram spectrum of M: A = sigma_n^2 when
    all n columns are retained, else 0, and B = sigma_1^2."""
    A = float(F.s[F.n_cols - 1] ** 2) if F.rank == F.n_cols else 0.0
    B = float(F.s[0] ** 2)
    return A, B, bool(B > 0.0 and A > INDEPENDENT_REL * B)


def membership_of_matrix(F: Factorization, b: np.ndarray):
    """(member, residual) of b, one vector or a matrix of columns, with
    residual ||b - U_r U_r^H b|| in the ambient (already weighted) norm,
    per column; member compares it with MEMBER_TOL * max(1, ||b||)."""
    U = F.U[:, : F.rank]
    residual = np.linalg.norm(b - U @ (U.conj().T @ b), axis=0)
    norm = np.maximum(1.0, np.linalg.norm(b, axis=0))
    return residual <= MEMBER_TOL * norm, residual


def dense_frame_bounds(a: QuasiInvariantAction, gens):
    """Not API: bench/spans.py binds it until ROADMAP items 1 and 3."""
    return frame_bounds_of_matrix(factor(synthesis_matrix(a, gens)))


def dense_riesz_bounds(a: QuasiInvariantAction, gens):
    """Not API: bench/spans.py binds it until ROADMAP items 1 and 3."""
    return riesz_bounds_of_matrix(factor(synthesis_matrix(a, gens)))


def brute_membership(a: QuasiInvariantAction, f, gens):
    """Not API: bench/spans.py binds it until ROADMAP items 1 and 3."""
    v = np.asarray(f, dtype=complex)
    if v.shape != (a.space.size,):
        raise ValueError(f"expected {a.space.size} values, got shape {v.shape}")
    b = np.sqrt(a.space.weights) * v
    return membership_of_matrix(factor(synthesis_matrix(a, gens)), b)
