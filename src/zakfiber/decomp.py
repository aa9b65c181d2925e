"""Decomposition of an invariant space into orthogonal Parseval orbits.

Fiberwise Gram-Schmidt (classical, with a second pass) over the generator
fibers, in generator order with a drop tolerance, yields functions Phi_n
whose fibers have norm 0 or 1.  Pulling each Phi_n back through the
inverse transform gives generators psi_n whose orbit systems are Parseval
frames of mutually orthogonal invariant subspaces summing to the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# range_from_fibers: unused, but bench/spans.py requires the binding
from .ranges import ORTHO_TOL, RANK_TOL, RangeFunction, fiber_spectra, \
    generator_system, membership_fibers, range_from_fibers
from .zak import FiberedVector, Fibration, stack_generator_fibers

__all__ = [
    "parseval_decompose",
    "parseval_decompose_fibers",
    "DecompositionCheck",
    "verify_decomposition",
    "verify_decomposition_fibers",
]

def _orthonormalize(stack: np.ndarray, weights: np.ndarray):
    """(slots, count): slots[:, n] holds the n-th surviving vector of every
    fiber of the generator stack, zero where fewer survive, for n below
    count.  The stack is only read."""
    n_fibers, n_points, n_gens = stack.shape
    # squared entries of a tiny stack underflow; a power of two is exact
    peak = np.max(np.abs(stack))
    scale = 2.0 ** -np.frexp(peak)[1] if peak > 0 else 1.0

    def column(j: int) -> np.ndarray:
        # a scaled C-ordered copy: the last bits of the sums below depend
        # on the layout
        r = stack[:, :, j].copy()
        r *= scale
        return r

    def wnorm(v: np.ndarray) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(v) ** 2 * weights, axis=-1))

    ref = np.max([wnorm(column(j)) for j in range(n_gens)])
    slots = np.zeros((n_fibers, n_gens, n_points), dtype=complex)
    count = np.zeros(n_fibers, dtype=int)
    for j in range(n_gens):
        r = column(j)
        S = slots[:, : count.max()]
        for _ in range(2):  # the second pass firms up orthogonality
            c = np.conj(S @ np.conj(r * weights)[:, :, None])
            r -= (c.swapaxes(1, 2) @ S)[:, 0]
        nr = wnorm(r)
        keep = np.flatnonzero(nr > RANK_TOL * ref)
        slots[keep, count[keep]] = r[keep] / nr[keep, None]
        count[keep] += 1
    return slots, int(count.max())


def parseval_decompose_fibers(fibered: Sequence[FiberedVector]
                              ) -> list[FiberedVector]:
    """Fiberwise orthonormalization of generator fibers, kept in order.

    Per fiber each generator is projected out of the vectors accepted
    before it by classical Gram-Schmidt with a second pass; it is dropped
    when its residual weighted norm falls below RANK_TOL times the largest
    original column norm over all fibers.  The n-th output holds the n-th
    surviving vector of every fiber, zero where fewer survive.

    All fibers are processed at once: slot n of ``slots`` holds the n-th
    accepted vector of every fiber that has one and stays exactly zero on
    the others, where the projection onto it is +0 and subtracts nothing.
    """
    stack, weights = stack_generator_fibers(fibered)
    slots, count = _orthonormalize(stack, weights)
    return [FiberedVector(slots[:, n], weights) for n in range(count)]


def parseval_decompose(zak: Fibration, gens) -> list[np.ndarray]:
    """Generators psi_1..psi_L of orthogonal Parseval orbit systems;
    ``zak`` is either fibration (see :mod:`zakfiber.zak`)."""
    system = generator_system(zak, gens)
    slots, count = _orthonormalize(system.stack, system.weights)
    return [zak.inverse(FiberedVector(slots[:, n], system.weights))
            for n in range(count)]


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
    parts_range: RangeFunction  # the parts and their Gram spectrum


def verify_decomposition_fibers(gen_fibers: Sequence[FiberedVector],
                                part_fibers: Sequence[FiberedVector],
                                tolerance: float = ORTHO_TOL
                                ) -> DecompositionCheck:
    """Audit: fiber orthogonality of the parts, Parseval fiber norms per
    part, exact per-fiber dimension bookkeeping, and membership of every
    original generator in the union of the part orbits.

    Steps (a) and (b) read the batched Gram matrix of the part stack,
    gram[i, m, n] = <part_m, part_n> on fiber i; (d) projects onto the stack.
    """
    dims = fiber_spectra(gen_fibers)[1]
    # no parts: an empty stack on the generators' fibers and weights
    stack, weights = stack_generator_fibers(part_fibers or gen_fibers[:1])
    return _audit(gen_fibers, dims, stack[:, :, : len(part_fibers)], weights,
                  tolerance)


def _audit(gen_fibers: Sequence[FiberedVector], dims: np.ndarray,
           stack: np.ndarray, weights: np.ndarray, tolerance: float
           ) -> DecompositionCheck:
    """:func:`verify_decomposition_fibers` given the generators' fiber
    ranks ``dims`` and the parts' stack."""
    nonzero = np.any(stack != 0, axis=1)
    weighted = np.conj(stack)
    weighted *= weights[:, None]
    gram = stack.swapaxes(1, 2) @ weighted

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

    # (d) the generators lie in the union of the part orbits; the parts
    # are its basis once (a) and (b) pass, else the residuals overstate
    s2 = np.zeros((dims.size, max(1, gram.shape[1])))
    s2[:, : gram.shape[1]] = np.linalg.eigvalsh(gram)[:, ::-1]
    parts_range = RangeFunction(stack, summed, weights, s2)
    checks = [membership_fibers(fv, parts_range) for fv in gen_fibers]
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
        parts_range=parts_range,
    )


def verify_decomposition(zak: Fibration, gens, parts,
                         tolerance: float = ORTHO_TOL
                         ) -> DecompositionCheck:
    """:func:`verify_decomposition_fibers` on either fibration (see
    :mod:`zakfiber.zak`): the generators come from its memo entry, whose
    rank it reads, and the parts are fiberized at once without replacing
    that entry."""
    system = generator_system(zak, gens)
    parts = list(parts)
    if parts:
        # C-ordered, as stack_generator_fibers lays it out: the last bits
        # of the membership residuals depend on the layout
        stack = np.ascontiguousarray(zak.forward_many(parts)[0])
    else:
        stack = np.zeros(system.stack.shape[:2] + (0,), dtype=complex)
    gen_fibers = [FiberedVector(system.stack[:, :, j], system.weights)
                  for j in range(system.stack.shape[2])]
    return _audit(gen_fibers, system.spectra()[1], stack,
                  system.weights, tolerance)
