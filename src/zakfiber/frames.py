"""Fiberwise frame and Riesz analysis of orbit systems.

The orbit system E(A) = {Pi(gamma) phi} is a frame for the invariant
space it spans exactly when the generator fibers {Z[phi](alpha)} form
frames of J(alpha) with uniform bounds, and a Riesz system exactly when
the fiber Gram matrices are uniformly invertible over the whole dual
group.  Both criteria reduce to per-fiber singular values of the
weight-scaled fiber matrix B(alpha) = diag(sqrt(mu)) [Z[phi](alpha)]_phi:

  frame bounds  A = min over fibers of nonzero rank of the smallest
                    retained squared singular value,  B = max of the largest;
  Riesz bounds  A = min over ALL fibers of the smallest Gram eigenvalue,
                    taken as 0 on every fiber whose rank is below the
                    number of generators (which covers more generators
                    than points),  B = max of the largest.

A fiber belongs to the support when its largest squared singular value
exceeds the tolerance; for a single generator that is the set
Omega_psi = {alpha : ||Z[psi](alpha)||^2 > tolerance}; it sets only the
support size and degeneracy of a report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import stack_generator_fibers
from .ranges import RANK_TOL, RIESZ_REL, SUPPORT_TOL, rank_cut  # noqa: F401
from .zak import FiberedVector, ZakTransform

__all__ = [
    "BracketFunction",
    "FrameReport",
    "bracket",
    "frame_check",
    "frame_check_fibers",
    "riesz_check",
    "riesz_check_fibers",
    "single_generator_report",
]


@dataclass
class BracketFunction:
    """[psi, phi](alpha) = <Z[psi](alpha), Z[phi](alpha)> per fiber."""

    values: np.ndarray

    @property
    def n_fibers(self) -> int:
        return int(self.values.size)

    def mean(self) -> complex:
        """Equals <psi, phi> by the isometry."""
        return complex(np.mean(self.values))


def bracket(zak: ZakTransform, psi, phi) -> BracketFunction:
    Zpsi = zak.forward(psi)
    Zphi = zak.forward(phi)
    return BracketFunction(values=Zpsi.fiber_inner(Zphi))


@dataclass
class FrameReport:
    """Per-fiber spectra plus global bounds and verdicts.

    ``lower``/``upper`` are None exactly when the report is degenerate
    (every generator fiber vanishes).  ``smin2`` holds the smallest
    retained squared singular value per fiber (0 where the fiber is
    empty), ``smax2`` the largest, and ``gram_min`` the smallest
    eigenvalue of the fiber Gram matrix, 0 where the fiber's rank is
    below the number of generators.
    """

    dims: np.ndarray
    smin2: np.ndarray
    smax2: np.ndarray
    gram_min: np.ndarray
    support: np.ndarray
    lower: float | None
    upper: float | None
    is_bessel: bool
    is_frame: bool
    is_parseval: bool
    is_riesz: bool
    tolerance: float
    degenerate: bool

    @property
    def n_fibers(self) -> int:
        return int(self.dims.size)


def _fiber_spectra(fibered: Sequence[FiberedVector]):
    """Squared singular values of the weight-scaled fiber matrices.

    The fiber stack (n_fibers, n_points, n_gens) is scaled by sqrt(mu)
    along the points axis and decomposed by one batched SVD.  Returns
    (s2, dims) where s2 has one row per fiber, padded with zeros to the
    number of generators (the fiber Gram spectrum), in descending order;
    dims counts the values retained by :func:`ranges.rank_cut`.
    """
    stack, weights = stack_generator_fibers(fibered)
    stack *= np.sqrt(weights)[:, None]
    s = np.linalg.svd(stack, compute_uv=False)
    s2 = np.zeros((stack.shape[0], stack.shape[2]))
    s2[:, : s.shape[1]] = s ** 2
    return s2, rank_cut(s)


def _assemble(s2: np.ndarray, dims: np.ndarray, tolerance: float,
              riesz_style: bool) -> FrameReport:
    n_fibers, n_gens = s2.shape
    smax2 = s2[:, 0].copy()
    gram_min = np.where(dims < n_gens, 0.0, s2[:, -1])
    idx = np.arange(n_fibers)
    smin2 = np.where(dims > 0, s2[idx, np.maximum(dims, 1) - 1], 0.0)
    support = smax2 > tolerance

    degenerate = not bool(support.any())
    if degenerate:
        lower = upper = None
        is_frame = is_parseval = is_riesz = False
    else:
        frame_lower = float(np.min(smin2[dims > 0]))
        riesz_lower = float(np.min(gram_min))
        upper = float(np.max(smax2))  # the same for frame and Riesz bounds
        lower = riesz_lower if riesz_style else frame_lower
        is_frame = True
        is_riesz = riesz_lower > RIESZ_REL * upper
        is_parseval = abs(frame_lower - 1.0) <= tolerance \
            and abs(upper - 1.0) <= tolerance
    return FrameReport(
        dims=dims,
        smin2=smin2,
        smax2=smax2,
        gram_min=gram_min,
        support=support,
        lower=lower,
        upper=upper,
        is_bessel=True,
        is_frame=is_frame,
        is_parseval=is_parseval,
        is_riesz=is_riesz,
        tolerance=tolerance,
        degenerate=degenerate,
    )


def frame_check_fibers(fibered: Sequence[FiberedVector],
                       tolerance: float = SUPPORT_TOL) -> FrameReport:
    s2, dims = _fiber_spectra(fibered)
    return _assemble(s2, dims, tolerance, riesz_style=False)


def frame_check(zak: ZakTransform, gens,
                tolerance: float = SUPPORT_TOL) -> FrameReport:
    """Frame bounds of the orbit system of ``gens`` on the space it spans."""
    return frame_check_fibers([zak.forward(g) for g in gens], tolerance)


def riesz_check_fibers(fibered: Sequence[FiberedVector],
                       tolerance: float = SUPPORT_TOL) -> FrameReport:
    s2, dims = _fiber_spectra(fibered)
    return _assemble(s2, dims, tolerance, riesz_style=True)


def riesz_check(zak: ZakTransform, gens,
                tolerance: float = SUPPORT_TOL) -> FrameReport:
    """Riesz bounds of the orbit system: extremes of the fiber Gram spectra."""
    return riesz_check_fibers([zak.forward(g) for g in gens], tolerance)


def single_generator_report(zak: ZakTransform, psi,
                            tolerance: float = SUPPORT_TOL):
    """The frame report of the orbit of psi, plus its bracket.  The fiber
    spectra are the square norms ||Z[psi](alpha)||^2, so the bounds are
    their minimum over Omega_psi and their maximum."""
    Zpsi = zak.forward(psi)
    brk = BracketFunction(values=Zpsi.fiber_inner(Zpsi))
    return frame_check_fibers([Zpsi], tolerance), brk
