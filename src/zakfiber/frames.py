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

A report is degenerate when every fiber has rank 0.  A fiber belongs to
the support when its largest squared singular value exceeds the
tolerance; for a single generator that is the set
Omega_psi = {alpha : ||Z[psi](alpha)||^2 > tolerance}; it sets only the
support size of a report.

A single generator needs no special case: its fiber spectra are the
brackets [psi, psi](alpha) = ||Z[psi](alpha)||^2 (bracket values are
``FiberedVector.fiber_inner``), so ``frame_check(zak, [psi])`` bounds are
their minimum over fibers of nonzero rank and their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ranges import RIESZ_REL, SUPPORT_TOL, RangeFunction, fiber_system, \
    generator_system
from .zak import FiberedVector, Fibration

__all__ = [
    "FrameReport",
    "frame_check",
    "frame_check_fibers",
    "report_from_spectra",
    "riesz_check",
    "riesz_check_fibers",
]


@dataclass
class FrameReport:
    """Per-fiber spectra plus global bounds and verdicts.

    ``lower``/``upper`` are None exactly when the report is degenerate
    (every fiber has rank 0).  ``smin2`` holds the smallest retained
    squared singular value per fiber (0 where the fiber is empty),
    ``smax2`` the largest, and ``gram_min`` the smallest eigenvalue of
    the fiber Gram matrix, 0 where the fiber's rank is below the number
    of generators.
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
    degenerate: bool

    @property
    def n_fibers(self) -> int:
        return int(self.dims.size)


def report_from_spectra(J: RangeFunction, tolerance: float,
                        riesz_style: bool) -> FrameReport:
    """Report from the spectra of the range function J; Riesz lower bound
    if riesz_style."""
    s2, dims = J.s2, J.dims
    n_fibers, n_gens = s2.shape
    smax2 = s2[:, 0].copy()
    gram_min = np.where(dims < n_gens, 0.0, s2[:, -1])
    idx = np.arange(n_fibers)
    smin2 = np.where(dims > 0, s2[idx, np.maximum(dims, 1) - 1], 0.0)
    support = smax2 > tolerance

    degenerate = not bool(dims.any())
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
        dims=dims.copy(),
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
        degenerate=degenerate,
    )


def frame_check_fibers(fibered: Sequence[FiberedVector],
                       tolerance: float = SUPPORT_TOL) -> FrameReport:
    return report_from_spectra(fiber_system(fibered).factors()[0], tolerance,
                               riesz_style=False)


def frame_check(zak: Fibration, gens,
                tolerance: float = SUPPORT_TOL) -> FrameReport:
    """Frame bounds of the orbit system of ``gens`` on the space it spans;
    ``zak`` is either fibration (see :mod:`zakfiber.zak`)."""
    return report_from_spectra(generator_system(zak, gens).factors()[0],
                               tolerance, riesz_style=False)


def riesz_check_fibers(fibered: Sequence[FiberedVector],
                       tolerance: float = SUPPORT_TOL) -> FrameReport:
    return report_from_spectra(fiber_system(fibered).factors()[0], tolerance,
                               riesz_style=True)


def riesz_check(zak: Fibration, gens,
                tolerance: float = SUPPORT_TOL) -> FrameReport:
    """Riesz bounds of the orbit system: extremes of the fiber Gram spectra;
    ``zak`` is either fibration (see :mod:`zakfiber.zak`)."""
    return report_from_spectra(generator_system(zak, gens).factors()[0],
                               tolerance, riesz_style=True)
