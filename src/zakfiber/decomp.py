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

from .ranges import ORTHO_TOL, RANK_TOL, RangeFunction, fiber_spectra, \
    membership_fibers, range_from_fibers
from .zak import FiberedVector, ZakTransform, stack_generator_fibers

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
    # squared entries of a tiny stack underflow; a power of two is exact
    peak = np.max(np.abs(stack))
    if peak > 0:
        stack *= 2.0 ** -np.frexp(peak)[1]
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
    parts_range: RangeFunction  # of the parts, from step (d)


def verify_decomposition_fibers(gen_fibers: Sequence[FiberedVector],
                                part_fibers: Sequence[FiberedVector],
                                tolerance: float = ORTHO_TOL
                                ) -> DecompositionCheck:
    """Audit: fiber orthogonality of the parts, Parseval fiber norms per
    part, exact per-fiber dimension bookkeeping, and membership of every
    original generator in the union of the part orbits.

    Steps (a) and (b) read one batched Gram matrix of the part stack,
    gram[i, m, n] = <part_m, part_n> on fiber i.
    """
    dims = fiber_spectra(gen_fibers)[1]
    gram = np.zeros((dims.size, 0, 0), dtype=complex)
    nonzero = np.zeros((dims.size, 0), dtype=bool)
    if part_fibers:
        stack, weights = stack_generator_fibers(part_fibers)
        nonzero = np.any(stack != 0, axis=1)
        weighted = np.conj(stack)
        weighted *= weights[:, None]
        gram = stack.swapaxes(1, 2) @ weighted
        del stack, weighted

    # (a) fiberwise orthogonality between distinct parts
    off = np.abs(gram[:, ~np.eye(gram.shape[1], dtype=bool)])
    ortho_max = float(off.max()) if off.size else 0.0
    orthogonality_ok = ortho_max <= tolerance

    # (b) every part has fiber norms in {0, 1}
    norms = gram.diagonal(axis1=1, axis2=2).real
    on = norms > tolerance
    dev = np.where(on, np.abs(norms - 1.0), norms)
    parts_parseval = (on.any(axis=0)
                      & np.all(dev <= tolerance, axis=0)).tolist()
    parseval_ok = all(parts_parseval)

    # (c) dimensions add up fiber by fiber, as integers; a single part
    # spans dimension 1 exactly on the fibers where it is nonzero
    summed = nonzero.sum(axis=1)
    dim_rows = [(int(s), int(d)) for s, d in zip(summed, dims)]
    dims_match = bool(np.array_equal(summed, dims))

    # (d) the original generators live in the union of the part orbits;
    # no parts span the zero space
    J_parts = range_from_fibers(part_fibers or [FiberedVector(
        np.zeros_like(gen_fibers[0].fibers), gen_fibers[0].fiber_weights)])
    checks = [membership_fibers(fv, J_parts) for fv in gen_fibers]
    membership_residuals = [residual for _, residual in checks]
    membership_ok = all(member for member, _ in checks)

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
        parts_range=J_parts,
    )


def verify_decomposition(zak: ZakTransform, gens, parts,
                         tolerance: float = ORTHO_TOL
                         ) -> DecompositionCheck:
    gen_fibers = [zak.forward(g) for g in gens]
    part_fibers = [zak.forward(p) for p in parts]
    return verify_decomposition_fibers(gen_fibers, part_fibers, tolerance)
