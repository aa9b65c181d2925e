"""Range functions: per-fiber subspaces spanned by generator fibers.

The invariant subspace generated by a family A of functions is described
completely by the map alpha -> J(alpha) = span{Z[phi](alpha) : phi in A}
inside l2(C, mu).  All J(alpha) are stored as one padded stack of bases,
orthonormal in the weighted inner product, with the squared spectrum
``s2``: a :class:`RangeFunction`, which :func:`_factor`, the only fiber
factorization, yields from one batched thin SVD of the weight-scaled
fiber matrices, and which every reader takes whole.  Fibers are plain
arrays; their weights mu are the fibration's ``fiber_weights``, which a
generator system and its range function share.

Every cut of the fiber route is one of the constants below; ``frames``
and ``decomp`` import them.  Only ``tolerance`` can be set per call: it
is the support cut of the reports and the audit's orthogonality cut (the
CLI's ``--tolerance`` sets both).  sigma are the singular values of the
weight-scaled fiber matrix diag(sqrt(mu)) [Z[phi](alpha)]_phi.

  cut          value  passes when                             used by
  RANK_TOL     1e-10  sigma > RANK_TOL * sigma_max of all     rank_cut: range,
               fibers (relative, sigma); decomp: coordinate   frame and riesz;
               residual > RANK_TOL * largest coordinate       parseval_
               norm, all fibers, / sqrt(k): rank_cut's dims   decompose
  SUPPORT_TOL  1e-10  sigma_max^2 > tol, counted only in      frame and riesz
               support_size; Parseval: |A - 1| and
               |B - 1| <= tol (absolute, sigma^2)
  RIESZ_REL    1e-9   min sigma^2 > RIESZ_REL * max sigma^2   frame and riesz
               over all fibers (relative, sigma^2)            (is_riesz)
  MEMBER_TOL   1e-9   res <= MEMBER_TOL * max(1, fiber norm)  membership,
               (absolute below norm 1, then relative)         decomp audit
  ORTHO_TOL    1e-10  |<part_m, part_n>| and |norm^2 - 1|     decomp audit
               <= tol per fiber; norm^2 > tol counts one      (its default)
               dimension (absolute, sigma^2)

:mod:`zakfiber.oracle` keeps its own constants, so that the dense route
stays independent of this one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .zak import Fibration

__all__ = [
    "RangeFunction",
    "GeneratorSystem",
    "generator_system",
    "range_from_generators",
    "membership",
    "membership_fibers",
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


def _factor(stack: np.ndarray, weights: np.ndarray):
    """(J, coords) from one batched thin SVD of the generator stack
    (n_fibers, n_points, k) scaled by sqrt(mu) along the points axis,
    diag(sqrt(mu)) stack = U S V^H.  J is the range function: basis
    U / sqrt(mu) cut to r = dims.max() columns, dims retained by
    :func:`rank_cut`, weights ``weights``, and s2 the fiber Gram spectrum,
    descending and padded with zeros to k.  coords = S V^H keeps its first
    r rows, (n_fibers, r, k): the generators in the columns of the basis.
    Both are exactly zero past each fiber's own rank."""
    U, s, Vh = np.linalg.svd(stack * np.sqrt(weights)[:, None],
                             full_matrices=False)
    s2 = np.zeros((stack.shape[0], stack.shape[2]))
    s2[:, : s.shape[1]] = s ** 2
    dims = rank_cut(s)
    r = dims.max()
    past = np.arange(r) >= dims[:, None, None]
    basis = np.ascontiguousarray(U[:, :, :r]) \
        * (1.0 / np.sqrt(weights))[:, None]
    np.copyto(basis, 0, where=past)
    coords = s[:, :r, None] * Vh[:, :r]
    np.copyto(coords, 0, where=past.swapaxes(1, 2))
    return RangeFunction(basis, dims, weights, s2), coords


class GeneratorSystem:
    """One generator system, fiberized once, and its range function.

    ``stack`` holds the fibers (n_fibers, n_points, k) and ``weights`` the
    fiber weights; :meth:`factors` takes the one SVD on first need.  The
    factors, and a memo entry's stack and key ``rows``, are read-only;
    ``weights`` is the fibration's own: a result that keeps one holds a copy.
    """

    def __init__(self, stack: np.ndarray, weights: np.ndarray, rows=None):
        self.stack, self.weights, self._rows = stack, weights, rows
        self._factors = None

    def holds(self, vectors: list[np.ndarray]) -> bool:
        """Are these the generators of the entry, bit for bit?"""
        # row by row, with no stack of the vectors; as bits, since as
        # values -0.0 == 0.0 and NaN != NaN
        return len(vectors) == len(self._rows) and all(
            v.shape == row.shape and np.array_equal(
                row.view(np.int64), np.ascontiguousarray(v).view(np.int64))
            for row, v in zip(self._rows, vectors))

    def factors(self) -> tuple["RangeFunction", np.ndarray]:
        """(J, coords) of :func:`_factor`, on first use, read-only; J's
        weights are a read-only view of ``weights``."""
        if self._factors is None:
            J, coords = _factor(self.stack, self.weights.view())
            for a in (*vars(J).values(), coords):
                a.flags.writeable = False
            self._factors = J, coords
        return self._factors

    def membership(self, J: "RangeFunction", weighted: np.ndarray):
        """(members, residuals) of the k generators against J, judged as by
        :func:`membership_fibers`, given ``weighted`` = conj(J.basis) * mu."""
        if J.n_fibers != self.stack.shape[0] or \
                not np.array_equal(J.fiber_weights, self.weights):
            raise ValueError("generators do not match the range function")

        def weighted_sq(g):  # per column, the sum of |g|^2 mu over the fibers
            return (self.weights @ np.square(g.view(float))).reshape(
                -1, g.shape[2], 2).sum(axis=(0, 2))

        sq = np.empty((2, self.stack.shape[2]))  # norms^2, residuals^2
        for j in range(0, sq.shape[1], 8):  # no temporary spans all k
            g = self.stack[:, :, j: j + 8].copy()
            sq[0, j: j + 8] = weighted_sq(g)
            g -= J.basis @ (weighted.swapaxes(1, 2) @ g)
            sq[1, j: j + 8] = weighted_sq(g)
        norms, residuals = np.sqrt(sq / J.n_fibers)
        return residuals <= MEMBER_TOL * np.maximum(1.0, norms), residuals

    def range_function(self) -> "RangeFunction":
        """The range function J of :meth:`factors`, in arrays of its own."""
        J = self.factors()[0]
        return RangeFunction(*(a.copy() for a in vars(J).values()))


def generator_system(zak: Fibration, gens) -> GeneratorSystem:
    """The memo entry of ``gens`` on either fibration (see
    :mod:`zakfiber.zak`): its last one when the generators are the same
    bits, else a new one that replaces it."""
    vectors = [np.asarray(g, dtype=complex) for g in gens]
    if zak.memo is None or not zak.memo.holds(vectors):
        stack = zak.forward_many(vectors)
        stack.flags.writeable = False
        # the key, stacked once the forward's own temporaries are freed
        rows = np.stack(vectors)
        rows.flags.writeable = False
        zak.memo = GeneratorSystem(stack, zak.fiber_weights, rows)
    return zak.memo


@dataclass
class RangeFunction:
    """Weighted-orthonormal basis of J(alpha) for every fiber alpha.

    ``basis`` has shape (n_fibers, n_points, length): in fiber i the first
    ``dims[i]`` columns Q satisfy Q^H diag(mu) Q = I up to 1e-10, and the
    columns past ``dims[i]`` are exactly zero.  ``s2`` is the padded
    squared spectrum they were cut from, as :func:`_factor` gives it.
    The one :meth:`GeneratorSystem.factors` keeps is read-only, its
    weights a view of the system's; every other holds arrays of its own.
    """

    basis: np.ndarray
    dims: np.ndarray
    fiber_weights: np.ndarray
    s2: np.ndarray

    @property
    def n_fibers(self) -> int:
        return int(self.basis.shape[0])

    def length(self) -> int:
        """Largest fiber dimension; the minimal number of generators."""
        return int(self.basis.shape[2])


def range_from_fibers(*args, **kwargs):
    """Retired: a bare name that bench/spans.py binds (ROADMAP item 3)."""
    raise NotImplementedError("retired: use ranges.range_from_generators")


def range_from_generators(zak: Fibration, gens) -> RangeFunction:
    """Range function of ``gens`` on either fibration (see
    :mod:`zakfiber.zak`); no generators span the zero space, whose fibers
    all have dimension 0."""
    gens = list(gens) or [np.zeros(zak.ambient_weights.size)]
    return generator_system(zak, gens).range_function()


def _project_fibers(F: np.ndarray, J: RangeFunction) -> np.ndarray:
    """Fiberwise weighted-orthogonal projection Q Q^H diag(mu) v onto J,
    with Q^H diag(mu) v taken as conj((diag(mu) v)^H Q) to leave Q as is."""
    if F.shape != J.basis.shape[:2]:
        raise ValueError(f"fiber shape {F.shape} does not match the range "
                         f"function's {J.basis.shape[:2]}")
    coef = np.conj(np.conj(F * J.fiber_weights)[:, None, :] @ J.basis)
    return (J.basis @ coef.swapaxes(1, 2))[:, :, 0]


def membership_fibers(F: np.ndarray, J: RangeFunction):
    """(member, residual) of the fibers F in the invariant space with range
    function J: residual^2 averages the weighted square distances of its
    fibers from J(alpha), and member compares residual with MEMBER_TOL *
    max(1, ||F||), in the fiber norm."""
    w, n = J.fiber_weights, J.n_fibers
    diff = F - _project_fibers(F, J)
    residual = float(np.sqrt(np.sum(np.abs(diff) ** 2 * w) / n))
    norm = float(np.sqrt(np.sum(np.sum(np.abs(F) ** 2 * w, axis=1)) / n))
    return residual <= MEMBER_TOL * max(1.0, norm), residual


def membership(zak: Fibration, psi, J: RangeFunction):
    """:func:`membership_fibers` of psi on either fibration (see
    :mod:`zakfiber.zak`); the transform is an isometry, so the fiber norm
    of psi is its ambient norm."""
    return membership_fibers(zak.forward(psi), J)
