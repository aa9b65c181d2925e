"""Range functions: per-fiber subspaces spanned by generator fibers.

The invariant subspace generated by a family A of functions is described
completely by the map alpha -> J(alpha) = span{Z[phi](alpha) : phi in A}
inside l2(C, mu).  Each J(alpha) is stored as a basis that is orthonormal
in the weighted inner product, obtained from a rank-revealing SVD of the
weight-scaled fiber matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import stack_generator_fibers
from .zak import FiberedVector, ZakTransform

__all__ = [
    "RangeFunction",
    "range_from_generators",
    "range_from_fibers",
    "membership",
    "membership_fibers",
    "project",
    "length",
]

RANK_TOL = 1e-10
MEMBER_TOL = 1e-9


@dataclass
class RangeFunction:
    """Weighted-orthonormal basis of J(alpha) for every fiber alpha.

    ``bases[i]`` has shape (n_points, dims[i]) and satisfies
    Q^H diag(mu) Q = I up to 1e-10.
    """

    bases: list[np.ndarray]
    dims: np.ndarray
    fiber_weights: np.ndarray
    rank_tolerance: float = RANK_TOL

    @property
    def n_fibers(self) -> int:
        return len(self.bases)

    def length(self) -> int:
        """Largest fiber dimension; the minimal number of generators."""
        return int(self.dims.max()) if self.dims.size else 0


def range_from_fibers(fibered: Sequence[FiberedVector],
                      rank_tolerance: float = RANK_TOL) -> RangeFunction:
    """Rank-revealing orthonormalization of the generator fibers.

    The fiber stack (n_fibers, n_points, n_gens) is scaled by sqrt(mu)
    and decomposed by one batched thin SVD.  Per fiber, singular values
    below rank_tolerance * (largest singular value of that fiber) are
    discarded; the retained left singular vectors are pulled back to a
    basis that is orthonormal for the weighted inner product.
    """
    stack, weights = stack_generator_fibers(fibered)
    stack *= np.sqrt(weights)[:, None]
    U, s, _ = np.linalg.svd(stack, full_matrices=False)
    del stack  # release the scaled copy before the bases are built
    dims = np.sum(s > rank_tolerance * s[:, :1], axis=1)
    inv_sqrtw = 1.0 / np.sqrt(weights)
    bases = [inv_sqrtw[:, None] * U[i, :, :r] for i, r in enumerate(dims)]
    return RangeFunction(bases=bases, dims=dims, fiber_weights=weights,
                         rank_tolerance=rank_tolerance)


def range_from_generators(zak: ZakTransform, gens,
                          rank_tolerance: float = RANK_TOL) -> RangeFunction:
    if len(gens) == 0:
        # no generators span the zero space on every fiber
        dims = np.zeros(zak.n_fibers, dtype=int)
        bases = [np.zeros((zak.n_points, 0), dtype=complex)
                 for _ in range(zak.n_fibers)]
        return RangeFunction(bases=bases, dims=dims,
                             fiber_weights=zak.fiber_weights,
                             rank_tolerance=rank_tolerance)
    fibered = [zak.forward(g) for g in gens]
    return range_from_fibers(fibered, rank_tolerance)


def _project_fibers(Phi: FiberedVector, J: RangeFunction) -> np.ndarray:
    """Fiberwise weighted-orthogonal projection onto J."""
    if Phi.fibers.shape[0] != J.n_fibers or \
            Phi.fibers.shape[1] != J.fiber_weights.size:
        raise ValueError("fibered vector does not match the range function")
    w = J.fiber_weights
    out = np.zeros_like(Phi.fibers)
    for i, Q in enumerate(J.bases):
        if Q.shape[1] == 0:
            continue
        v = Phi.fibers[i]
        out[i] = Q @ (Q.conj().T @ (w * v))
    return out


def membership_fibers(Phi: FiberedVector, J: RangeFunction,
                      norm: float | None = None,
                      threshold: float = MEMBER_TOL):
    """Membership of an already fibered vector; see :func:`membership`."""
    proj = _project_fibers(Phi, J)
    diff = Phi.fibers - proj
    res_sq = float(np.sum(np.abs(diff) ** 2 * J.fiber_weights) / J.n_fibers)
    residual = float(np.sqrt(max(res_sq, 0.0)))
    if norm is None:
        norm = float(np.sqrt(Phi.norm_sq()))
    member = residual <= threshold * max(1.0, norm)
    return member, residual


def membership(zak, psi, J: RangeFunction, threshold: float = MEMBER_TOL):
    """Does psi lie in the invariant space with range function J?  ``zak``
    is either fibration (see :mod:`zakfiber.zak`).

    Returns (member, residual) where residual^2 averages the weighted
    square distances of the fibers of psi from J(alpha); the verdict
    compares against threshold * max(1, ||psi||), in the ambient norm.
    """
    Phi = zak.forward(psi)
    v = np.asarray(psi, dtype=complex)
    norm = float(np.sqrt(np.sum(np.abs(v) ** 2 * zak.ambient_weights)))
    return membership_fibers(Phi, J, norm=norm, threshold=threshold)


def project(zak: ZakTransform, psi, J: RangeFunction) -> np.ndarray:
    """Orthogonal projection of psi onto the invariant space of J."""
    Phi = zak.forward(psi)
    proj = _project_fibers(Phi, J)
    return zak.inverse(FiberedVector(proj, J.fiber_weights))


def length(J: RangeFunction) -> int:
    return J.length()
