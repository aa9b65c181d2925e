"""Decomposition of an invariant space into orthogonal Parseval orbits.

Fiberwise Gram-Schmidt over the generator fibers, in generator order with
a drop tolerance, yields functions Phi_n whose fibers have norm 0 or 1.
Pulling each Phi_n back through the inverse transform produces generators
psi_n whose orbit systems are Parseval frames of mutually orthogonal
invariant subspaces summing to the original space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import stack_generator_fibers
from .ranges import MEMBER_TOL, ORTHO_TOL, RANK_TOL, membership_fibers, \
    range_from_fibers
from .zak import FiberedVector, ZakTransform

__all__ = [
    "parseval_decompose",
    "parseval_decompose_fibers",
    "DecompositionCheck",
    "verify_decomposition",
    "verify_decomposition_fibers",
]

def parseval_decompose_fibers(fibered: Sequence[FiberedVector]
                              ) -> list[FiberedVector]:
    """Fiberwise orthonormalization of generator fibers, kept in order.

    Per fiber the generators are orthonormalized by modified Gram-Schmidt
    (with one re-orthogonalization sweep); a vector is dropped when its
    residual weighted norm falls below RANK_TOL times the largest
    original column norm over all fibers.  The n-th output holds the n-th
    surviving vector of every fiber, zero where fewer survive.

    All fibers are processed at once: slot n of ``slots`` holds the n-th
    accepted vector of every fiber that has one and stays exactly zero on
    the others, where the projection onto it is +0 and subtracts nothing.
    """
    stack, weights = stack_generator_fibers(fibered)
    n_fibers, n_points, n_gens = stack.shape
    cols = np.moveaxis(stack, 2, 0)

    def wnorm(v: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(v) ** 2 * weights, axis=-1))

    ref = np.max([wnorm(col) for col in cols])
    slots = np.zeros((n_gens, n_fibers, n_points), dtype=complex)
    count = np.zeros(n_fibers, dtype=int)
    for col in cols:
        r = col.copy()
        for _ in range(2):  # the second sweep firms up orthogonality
            for n in range(count.max()):
                q = slots[n]
                c = np.sum(r * np.conj(q) * weights, axis=-1)
                r -= c[:, None] * q
        nr = wnorm(r)
        keep = np.flatnonzero(nr > RANK_TOL * ref)
        slots[count[keep], keep] = r[keep] / nr[keep, None]
        count[keep] += 1
    return [FiberedVector(slots[n], weights) for n in range(count.max())]


def parseval_decompose(zak: ZakTransform, gens) -> list[np.ndarray]:
    """Generators psi_1..psi_L of orthogonal Parseval orbit systems."""
    parts = parseval_decompose_fibers([zak.forward(g) for g in gens])
    return [zak.inverse(p) for p in parts]


@dataclass
class DecompositionCheck:
    """Result of auditing a claimed decomposition against its generators."""

    orthogonality_max: float
    orthogonality_ok: bool
    parts_parseval: list[bool]
    parseval_ok: bool
    dims_match: bool
    dim_rows: list[tuple[int, int]]  # (sum of part dims, original dim) per fiber
    membership_residuals: list[float]
    membership_ok: bool
    ok: bool


def verify_decomposition_fibers(gen_fibers: Sequence[FiberedVector],
                                part_fibers: Sequence[FiberedVector],
                                tolerance: float = ORTHO_TOL
                                ) -> DecompositionCheck:
    """Audit: pairwise fiber orthogonality of the parts, Parseval fiber
    norms per part, exact per-fiber dimension bookkeeping, and membership
    of every original generator in the union of the part orbits."""
    # (a) fiberwise orthogonality between distinct parts
    ortho_max = 0.0
    for m in range(len(part_fibers)):
        for n in range(m + 1, len(part_fibers)):
            vals = part_fibers[m].fiber_inner(part_fibers[n])
            ortho_max = max(ortho_max, float(np.max(np.abs(vals)))
                            if vals.size else 0.0)
    orthogonality_ok = ortho_max <= tolerance

    # (b) every part has fiber norms in {0, 1}
    parts_parseval = []
    for p in part_fibers:
        norms = p.fiber_norms_sq()
        on = norms > tolerance
        ok = bool(on.any()) and \
            bool(np.all(np.abs(norms[on] - 1.0) <= tolerance)) and \
            bool(np.all(norms[~on] <= tolerance))
        parts_parseval.append(ok)
    parseval_ok = all(parts_parseval)

    # (c) dimensions add up fiber by fiber, as integers; a single part
    # spans dimension 1 exactly on the fibers where it is nonzero
    J_orig = range_from_fibers(gen_fibers)
    summed = np.zeros(J_orig.n_fibers, dtype=int)
    for p in part_fibers:
        summed += np.any(p.fibers != 0, axis=1)
    dim_rows = [(int(s), int(d)) for s, d in zip(summed, J_orig.dims)]
    dims_match = bool(np.array_equal(summed, J_orig.dims))

    # (d) the original generators live in the union of the part orbits
    membership_residuals = []
    membership_ok = True
    if part_fibers:
        J_parts = range_from_fibers(part_fibers)
        for fv in gen_fibers:
            member, residual = membership_fibers(fv, J_parts)
            membership_residuals.append(residual)
            membership_ok = membership_ok and member
    else:
        for fv in gen_fibers:
            residual = float(np.sqrt(fv.norm_sq()))
            membership_residuals.append(residual)
            membership_ok = membership_ok and residual <= MEMBER_TOL

    return DecompositionCheck(
        orthogonality_max=ortho_max,
        orthogonality_ok=orthogonality_ok,
        parts_parseval=parts_parseval,
        parseval_ok=parseval_ok,
        dims_match=dims_match,
        dim_rows=dim_rows,
        membership_residuals=membership_residuals,
        membership_ok=membership_ok,
        ok=orthogonality_ok and parseval_ok and dims_match and membership_ok,
    )


def verify_decomposition(zak: ZakTransform, gens, parts,
                         tolerance: float = ORTHO_TOL
                         ) -> DecompositionCheck:
    gen_fibers = [zak.forward(g) for g in gens]
    part_fibers = [zak.forward(p) for p in parts]
    return verify_decomposition_fibers(gen_fibers, part_fibers, tolerance)
