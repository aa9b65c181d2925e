"""Decomposition of an invariant space into orthogonal Parseval orbits.

The thin SVD of the weight-scaled generator fibers, diag(sqrt(mu)) [Z[phi]]
= U S V^H, gives the range function, whose basis U / sqrt(mu) is
weighted-orthonormal in every fiber J(alpha), and the generators'
coordinates S V^H in it, k columns of length r <= k (see
:func:`zakfiber.ranges._factor`).  Gram-Schmidt (classical,
with a second pass) on those coordinates, in generator order with a drop
tolerance, yields functions Phi_n = basis @ Q whose fibers have norm 0 or
1, as many per fiber as the range function's dimension.  Pulling each
Phi_n back through the inverse transform gives generators psi_n whose
orbit systems are Parseval frames of mutually orthogonal invariant
subspaces summing to the space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranges import ORTHO_TOL, RANK_TOL, GeneratorSystem, RangeFunction, \
    generator_system
# unused here: bench/spans.py REQUIRED_BINDINGS traces these bindings
from .ranges import membership_fibers, range_from_fibers
from .zak import FiberedVector, Fibration

__all__ = [
    "parseval_decompose",
    "DecompositionCheck",
    "verify_decomposition",
]


def _parts(system: GeneratorSystem) -> np.ndarray:
    """The part fibers (n_fibers, n_points, count) of a generator system.

    Per fiber each generator's coordinates are projected out of the
    vectors accepted before it, all fibers at once; a generator is dropped
    when its residual falls to RANK_TOL times the largest coordinate norm
    over all fibers, divided by sqrt(k).  A fiber of rank d then keeps
    exactly d: were fewer kept, the dropped residuals would bound its d-th
    singular value by RANK_TOL * sigma_max, which rank_cut does not allow.
    Column n of Q holds the n-th accepted vector of every fiber, and stays
    exactly zero on the fibers that accept fewer.
    """
    J, coords = system.factors()
    n_fibers, r, k = coords.shape
    # squared coordinates of a tiny stack underflow; a power of two is exact
    cols = coords * 2.0 ** -np.frexp(np.max(np.abs(coords), initial=0.0))[1]
    cut = RANK_TOL * np.max(np.linalg.norm(cols, axis=1), initial=0.0) \
        / np.sqrt(k)
    Q = np.zeros((n_fibers, r, k), dtype=complex)
    count = np.zeros(n_fibers, dtype=int)
    for j in range(k):
        v = cols[:, :, j, None]
        S = Q[:, :, : count.max()]
        for _ in range(2):  # the second pass firms up orthogonality
            v = v - S @ (S.conj().swapaxes(1, 2) @ v)
        nv = np.linalg.norm(v[:, :, 0], axis=1)
        keep = np.flatnonzero(nv > cut)
        Q[keep, :, count[keep]] = v[keep, :, 0] / nv[keep, None]
        count[keep] += 1
    return J.basis @ Q[:, :, : count.max()]


def parseval_decompose_fibers(*args, **kwargs):
    """Retired: a bare name that bench/spans.py binds (ROADMAP item 3)."""
    raise NotImplementedError("retired: use decomp.parseval_decompose")


def parseval_decompose(zak: Fibration, gens) -> list[np.ndarray]:
    """Generators psi_1..psi_L of orthogonal Parseval orbit systems;
    ``zak`` is either fibration (see :mod:`zakfiber.zak`)."""
    system = generator_system(zak, gens)
    parts = _parts(system)
    return [zak.inverse(FiberedVector(parts[:, :, n], system.weights))
            for n in range(parts.shape[2])]


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


def verify_decomposition_fibers(*args, **kwargs):
    """Retired: a bare name that bench/spans.py binds (ROADMAP item 3)."""
    raise NotImplementedError("retired: use decomp.verify_decomposition")


def _audit(system: GeneratorSystem, stack: np.ndarray, weights: np.ndarray,
           tolerance: float) -> DecompositionCheck:
    """:func:`verify_decomposition` given the generator system and the
    parts' stack (n_fibers, n_points, count) with their fiber weights."""
    dims = system.factors()[0].dims
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
    # spans dimension 1 exactly on the fibers where (b) counts it
    summed = on.sum(axis=1)
    dim_rows = list(zip(summed.tolist(), dims.tolist()))
    dims_match = bool(np.array_equal(summed, dims))

    # (d) the generators lie in the union of the part orbits; the parts
    # are its basis once (a) and (b) pass, else the residuals overstate
    s2 = np.zeros((dims.size, max(1, gram.shape[1])))
    s2[:, : gram.shape[1]] = np.linalg.eigvalsh(gram)[:, ::-1]
    parts_range = RangeFunction(stack, summed, weights.copy(), s2)
    members, residuals = system.membership(parts_range, weighted)
    membership_ok = bool(members.all())

    return DecompositionCheck(
        orthogonality_max=ortho_max,
        orthogonality_ok=orthogonality_ok,
        parts_parseval=parts_parseval,
        parseval_ok=parseval_ok,
        dims_match=dims_match,
        dim_rows=dim_rows,
        membership_residuals=residuals.tolist(),
        membership_ok=membership_ok,
        ok=orthogonality_ok and parseval_ok and dims_match and membership_ok,
        parts_range=parts_range,
    )


def verify_decomposition(zak: Fibration, gens, parts,
                         tolerance: float = ORTHO_TOL
                         ) -> DecompositionCheck:
    """Audit the claimed ``parts`` of ``gens`` on either fibration (see
    :mod:`zakfiber.zak`): fiber orthogonality of the parts, Parseval fiber
    norms per part, exact per-fiber dimension bookkeeping, and membership
    of every original generator in the union of the part orbits.

    The generators come from the memo entry, whose rank (c) reads, and the
    parts are fiberized at once without replacing that entry.  Steps (a)
    and (b) read the batched Gram matrix of the part stack, gram[i, m, n]
    = <part_m, part_n> on fiber i; (d) projects the generators onto the
    stack in blocks (:meth:`GeneratorSystem.membership`).
    """
    system = generator_system(zak, gens)
    parts = list(parts)
    if parts:
        # C-ordered: the last bits of the membership residuals depend on
        # the layout
        stack = np.ascontiguousarray(zak.forward_many(parts)[0])
    else:
        stack = np.zeros(system.stack.shape[:2] + (0,), dtype=complex)
    return _audit(system, stack, system.weights, tolerance)
