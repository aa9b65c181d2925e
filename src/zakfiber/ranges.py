"""Range functions: per-fiber subspaces spanned by generator fibers.

The invariant subspace generated by a family A of functions is described
completely by the map alpha -> J(alpha) = span{Z[phi](alpha) : phi in A}
inside l2(C, mu).  All J(alpha) are stored as one padded stack of bases,
orthonormal in the weighted inner product, from one batched SVD of the
weight-scaled fiber matrices, kept with its squared spectrum ``s2``.

Every cut of the fiber route is one of the constants below; ``frames``
and ``decomp`` import them.  Only ``tolerance`` can be set per call: it
is the support cut of the reports and the audit's orthogonality cut (the
CLI's ``--tolerance`` sets both).  sigma are the singular values of the
weight-scaled fiber matrix diag(sqrt(mu)) [Z[phi](alpha)]_phi.

  cut          value  passes when                             used by
  RANK_TOL     1e-10  sigma > RANK_TOL * sigma_max of all     rank_cut: range,
               fibers (relative, sigma); decomp: residual     frame and riesz;
               > RANK_TOL * largest column norm, all fibers   parseval_decompose
  SUPPORT_TOL  1e-10  sigma_max^2 > tol, counted only in      frame and riesz,
               support_size; Parseval: |A - 1| and            ti_analyze
               |B - 1| <= tol (absolute, sigma^2)
  RIESZ_REL    1e-9   min sigma^2 > RIESZ_REL * max sigma^2   frame and riesz
               over all fibers (relative, sigma^2)            (is_riesz)
  MEMBER_TOL   1e-9   residual <= MEMBER_TOL * max(1, norm)   membership,
               (absolute below norm 1, then relative)         decomp audit
  ORTHO_TOL    1e-10  |<part_m, part_n>| and |norm^2 - 1|     decomp audit
               <= tol per fiber (absolute, sigma^2)           (its default)

:mod:`zakfiber.oracle` keeps its own constants, so that the dense route
stays independent of this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .zak import FiberedVector, Fibration, stack_generator_fibers

__all__ = [
    "RangeFunction",
    "fiber_spectra",
    "GeneratorSystem",
    "generator_system",
    "range_from_generators",
    "range_from_fibers",
    "membership",
    "membership_fibers",
    "project",
]

RANK_TOL = 1e-10
SUPPORT_TOL = 1e-10
RIESZ_REL = 1e-9
MEMBER_TOL = 1e-9
ORTHO_TOL = 1e-10


def rank_cut(s: np.ndarray) -> np.ndarray:
    """Per-fiber rank: how many singular values in each row of ``s`` exceed
    RANK_TOL times the largest of all fibers, as in the dense spectrum."""
    return np.sum(s > RANK_TOL * s.max(), axis=1)


def _factor(stack: np.ndarray, weights: np.ndarray, compute_uv: bool):
    """(U or None, s2, dims) from one batched SVD of the generator stack
    (n_fibers, n_points, n_gens) scaled by sqrt(mu) along the points axis,
    into a new array.  s2 is the fiber Gram spectrum, descending and padded
    with zeros to n_gens; dims counts the values retained by
    :func:`rank_cut`."""
    scaled = stack * np.sqrt(weights)[:, None]
    svd = np.linalg.svd(scaled, full_matrices=False, compute_uv=compute_uv)
    U, s = svd[:2] if compute_uv else (None, svd)
    s2 = np.zeros((stack.shape[0], stack.shape[2]))
    s2[:, : s.shape[1]] = s ** 2
    return U, s2, rank_cut(s)


def fiber_spectra(fibered: Sequence[FiberedVector]):
    """Padded squared spectra s2 and ranks dims of the weight-scaled fiber
    matrices, from one batched spectrum-only SVD (see :func:`_factor`)."""
    return _factor(*stack_generator_fibers(fibered), compute_uv=False)[1:]


class GeneratorSystem:
    """The memo entry of a fibration: one generator system, fiberized once.

    ``stack`` holds the fibers (n_fibers, n_points, k) and ``weights`` the
    fibration's fiber weights.  The stack is read-only, and ``weights`` is
    the fibration's own array: a result that keeps either holds a copy.
    """

    def __init__(self, zak: Fibration, vectors: list[np.ndarray]):
        self.stack, self.weights = zak.forward_many(vectors)
        self.stack.flags.writeable = False
        # the key, stacked once the forward's own temporaries are freed
        self._rows = np.stack(vectors)
        self._rows.flags.writeable = False
        self._spectra = None

    def holds(self, vectors: list[np.ndarray]) -> bool:
        """Are these the generators of the entry, bit for bit?"""
        # row by row, with no stack of the vectors; as bits, since as
        # values -0.0 == 0.0 and NaN != NaN
        return len(vectors) == len(self._rows) and all(
            v.shape == row.shape and np.array_equal(
                row.view(np.int64), np.ascontiguousarray(v).view(np.int64))
            for row, v in zip(self._rows, vectors))

    def spectra(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`fiber_spectra` of the stack: computed on first use, and
        handed out as copies."""
        if self._spectra is None:
            self._spectra = _factor(self.stack, self.weights,
                                    compute_uv=False)[1:]
        return tuple(a.copy() for a in self._spectra)


def generator_system(zak: Fibration, gens) -> GeneratorSystem:
    """The memo entry of ``gens`` on either fibration (see
    :mod:`zakfiber.zak`): its last one when the generators are the same
    bits, else a new one that replaces it."""
    vectors = [np.asarray(g, dtype=complex) for g in gens]
    if zak.memo is None or not zak.memo.holds(vectors):
        zak.memo = GeneratorSystem(zak, vectors)
    return zak.memo


@dataclass
class RangeFunction:
    """Weighted-orthonormal basis of J(alpha) for every fiber alpha.

    ``basis`` has shape (n_fibers, n_points, length): in fiber i the first
    ``dims[i]`` columns Q satisfy Q^H diag(mu) Q = I up to 1e-10, and the
    columns past ``dims[i]`` are exactly zero.  ``s2`` is the padded
    squared spectrum they were cut from, as :func:`fiber_spectra` gives it.
    Every array is its own.
    """

    basis: np.ndarray
    dims: np.ndarray
    fiber_weights: np.ndarray
    s2: np.ndarray

    def __post_init__(self):
        # the weights passed in are a fibration's own array
        self.fiber_weights = self.fiber_weights.copy()

    @property
    def n_fibers(self) -> int:
        return int(self.basis.shape[0])

    def length(self) -> int:
        """Largest fiber dimension; the minimal number of generators."""
        return int(self.basis.shape[2])


def _range(stack: np.ndarray, weights: np.ndarray) -> RangeFunction:
    """Rank-revealing orthonormalization of a generator stack.

    The weight-scaled fiber stack is decomposed by one batched thin SVD
    (:func:`_factor`).  U, cut to the largest rank that
    :func:`rank_cut` retains, is pulled back in place to weighted-
    orthonormal bases, zero past each fiber's own rank.
    """
    U, s2, dims = _factor(stack, weights, compute_uv=True)
    basis = U[:, :, : dims.max()]
    basis *= (1.0 / np.sqrt(weights))[:, None]
    np.copyto(basis, 0, where=np.arange(dims.max()) >= dims[:, None, None])
    return RangeFunction(basis, dims, weights, s2)


def range_from_fibers(fibered: Sequence[FiberedVector]) -> RangeFunction:
    """Range function of generator fibers (see :func:`_range`)."""
    return _range(*stack_generator_fibers(fibered))


def range_from_generators(zak: Fibration, gens) -> RangeFunction:
    """Range function of ``gens`` on either fibration (see
    :mod:`zakfiber.zak`); no generators span the zero space, whose fibers
    all have dimension 0."""
    gens = list(gens) or [np.zeros(zak.ambient_weights.size)]
    system = generator_system(zak, gens)
    return _range(system.stack, system.weights)


def _project_fibers(Phi: FiberedVector, J: RangeFunction) -> np.ndarray:
    """Fiberwise weighted-orthogonal projection Q Q^H diag(mu) v onto J,
    with Q^H diag(mu) v taken as conj((diag(mu) v)^H Q) to leave Q as is."""
    if Phi.fibers.shape[0] != J.n_fibers or \
            not np.array_equal(Phi.fiber_weights, J.fiber_weights):
        raise ValueError("fibered vector does not match the range function")
    coef = np.conj(np.conj(Phi.fibers * J.fiber_weights)[:, None, :]
                   @ J.basis)
    return (J.basis @ coef.swapaxes(1, 2))[:, :, 0]


def membership_fibers(Phi: FiberedVector, J: RangeFunction,
                      norm: float | None = None):
    """Membership of an already fibered vector; see :func:`membership`."""
    diff = Phi.fibers - _project_fibers(Phi, J)
    residual = float(np.sqrt(np.sum(np.abs(diff) ** 2 * J.fiber_weights)
                             / J.n_fibers))
    if norm is None:
        norm = float(np.sqrt(Phi.norm_sq()))
    member = residual <= MEMBER_TOL * max(1.0, norm)
    return member, residual


def membership(zak: Fibration, psi, J: RangeFunction):
    """Does psi lie in the invariant space with range function J?  ``zak``
    is either fibration (see :mod:`zakfiber.zak`).

    Returns (member, residual) where residual^2 averages the weighted
    square distances of the fibers of psi from J(alpha); the verdict
    compares against MEMBER_TOL * max(1, ||psi||), in the ambient norm.
    """
    Phi = zak.forward(psi)
    v = np.asarray(psi, dtype=complex)
    norm = float(np.sqrt(np.sum(np.abs(v) ** 2 * zak.ambient_weights)))
    return membership_fibers(Phi, J, norm=norm)


def project(zak: Fibration, psi, J: RangeFunction) -> np.ndarray:
    """Orthogonal projection of psi onto the invariant space of J; ``zak``
    is either fibration (see :mod:`zakfiber.zak`)."""
    proj = _project_fibers(zak.forward(psi), J)
    return zak.inverse(FiberedVector(proj, J.fiber_weights))
