"""Weighted point sets and quasi-invariant group actions on them.

An action of a finite abelian group on a finite weighted set is a table
with one permutation row per group element.  The affine shorthand
sigma_gamma(x) = x + s_gamma mod N stays symbolic until its table is
read.  The weights play the role of a measure with point masses, and the
Jacobian of the action is the ratio

    J(gamma, x) = mu(sigma_gamma(x)) / mu(x),

which satisfies the cocycle identity whenever the table is a genuine
action: the weight ratios telescope once composition holds exactly, so
validation checks the table laws alone.  The associated unitary
representation on the weighted space is

    (Pi(gamma) psi)(x) = J(-gamma, x)^(1/2) * psi(sigma_{-gamma}(x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .group import FiniteAbelianGroup

__all__ = [
    "WeightedSpace",
    "QuasiInvariantAction",
    "ActionReport",
    "NotFreeError",
    "affine_action",
    "validate_action",
    "tiling_transversal",
]

class NotFreeError(RuntimeError):
    """Raised when an orbit has a nontrivial stabilizer; carries a witness."""

    def __init__(self, point: int):
        self.point = int(point)
        super().__init__(f"action is not free: point {point} has a "
                         "nontrivial stabilizer")


class WeightedSpace:
    """Finite point set {0, ..., N-1} with strictly positive atom weights."""

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a non-empty 1-d sequence")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
        if bad.size:
            need = "> 0" if np.isfinite(w[bad[0]]) else "finite"
            raise ValueError(f"weights[{bad[0]}] must be {need}, got "
                             f"{w[bad[0]]}")
        self.weights = w
        self.size = int(w.size)

    def __repr__(self) -> str:
        return f"WeightedSpace(size={self.size})"


class QuasiInvariantAction:
    """Permutation table of a group on a weighted space.

    ``table[i]`` is the permutation sigma_gamma for the i-th group element
    in lexicographic order: ``table[i][x] = sigma_gamma(x)``.  The
    constructor checks structure only (shape, rows are permutations);
    whether the table is an action is decided by :func:`validate_action`.
    """

    def __init__(
        self,
        group: FiniteAbelianGroup,
        space: WeightedSpace,
        table: Sequence[Sequence[int]],
    ):
        t = np.asarray(table)
        if t.dtype.kind not in "iuf":
            raise ValueError(f"table dtype {t.dtype} is not integer or real")
        if t.shape != (group.order, space.size):
            raise ValueError(
                f"table shape {t.shape} does not match "
                f"(group order, space size) = ({group.order}, {space.size})"
            )
        # checked before the cast, so a non-integer or wrapping entry fails
        # its row too; in range, the narrowest unsigned copy sorts fastest,
        # and a sorted row minus 0..N-1 is all zero only on a permutation
        if t.dtype.kind in "iu" and t.min() >= 0 and t.max() < space.size:
            rows = t.astype(np.min_scalar_type(space.size - 1))
            rows.sort(axis=1)
            rows -= np.arange(space.size, dtype=rows.dtype)
        else:
            rows = np.sort(t, axis=1) != np.arange(space.size)
        bad = np.flatnonzero(np.any(rows, axis=1))
        if bad.size:
            raise ValueError(
                f"table row {bad[0]} is not a permutation of "
                f"0..{space.size - 1}"
            )
        self.group = group
        self.space = space
        self.table = t.astype(np.intp, copy=False)

    def __repr__(self) -> str:
        return (f"QuasiInvariantAction(group={self.group!r}, "
                f"space={self.space!r})")


class AffineAction(QuasiInvariantAction):
    """x + s_gamma mod N, s_gamma = sum_j m_j*gamma_j, kept as m_j mod N."""

    def __init__(self, group: FiniteAbelianGroup, space: WeightedSpace,
                 multipliers: np.ndarray):
        self.group = group
        self.space = space
        self.multipliers = multipliers

    @cached_property
    def shifts(self) -> np.ndarray:
        return self.group.coordinates @ self.multipliers % self.space.size

    @cached_property
    def table(self) -> np.ndarray:
        N = self.space.size
        # row r of the windows over 0..N-1, 0..N-1 is (r + x) mod N
        return sliding_window_view(np.arange(2 * N) % N, N)[self.shifts]


def affine_action(
    group: FiniteAbelianGroup,
    space: WeightedSpace,
    multipliers: Sequence[int],
) -> AffineAction:
    """The symbolic shorthand sigma_gamma(x) = x + sum_j m_j*gamma_j mod N.

    Well-definedness on residues requires m_j * n_j to vanish mod N for
    every invariant factor n_j.  Only m_j mod N matters and is kept; the
    table is expanded on first read.
    """
    ms = [int(m) for m in multipliers]
    if len(ms) != group.rank:
        raise ValueError(
            f"expected {group.rank} multipliers, got {len(ms)}"
        )
    N = space.size
    for m, n in zip(ms, group.invariant_factors):
        if (m * n) % N != 0:
            raise ValueError(
                f"multiplier {m} is incompatible: {m}*{n} is not 0 mod {N}"
            )
    return AffineAction(group, space, np.array([m % N for m in ms], np.intp))


@dataclass
class ActionReport:
    """Outcome of validating an action table against the group laws."""

    ok: bool
    violations: list[str]


def validate_action(a: QuasiInvariantAction) -> ActionReport:
    """Check the identity law (iii) and the composition law (ii).

    (ii) is checked as sigma_{gamma+e_j} = sigma_{e_j} o sigma_gamma for
    every invariant-factor generator e_j and every gamma at once.  With
    sigma_0 = id this gives sigma_{alpha+beta} = sigma_alpha o sigma_beta
    for all pairs, by induction on a word for alpha in the e_j.  The
    Jacobian cocycle needs no check of its own: its weight ratios
    telescope once composition holds exactly.

    Structural defects (non-permutation rows, wrong shape) raise at
    construction time; this reports law violations with witnesses, in
    the order of (g1, g2) pairs, g1 and g2 lexicographic.
    """
    if isinstance(a, AffineAction):  # the laws hold by construction
        return ActionReport(ok=True, violations=[])
    G = a.group
    t = a.table
    els = G.elements()
    violations: list[str] = []

    ident = np.arange(a.space.size)
    zero_row = t[G.index(G.zero)]
    if not np.array_equal(zero_row, ident):
        x = int(np.flatnonzero(zero_row != ident)[0])
        violations.append(f"(iii) sigma_0 is not the identity: witness x={x}")

    coords = G.coordinates
    # the distinct e_j (e_j = 0 when n_j = 1), in the order of the pair scan
    for e in np.unique(G.flat(np.eye(G.rank, dtype=np.intp))).tolist():
        step = G.flat(coords + coords[e])
        mismatch = t[e][t] != t[step]
        bad = np.flatnonzero(np.any(mismatch, axis=1))
        witness = np.argmax(mismatch[bad], axis=1)
        violations += [
            f"(ii) sigma_{els[e]} o sigma_{els[g]} != sigma_{els[s]}: "
            f"witness x={x}"
            for g, s, x in zip(bad.tolist(), step[bad].tolist(),
                               witness.tolist())
        ]

    return ActionReport(ok=not violations, violations=violations)


def tiling_transversal(a: QuasiInvariantAction) -> np.ndarray:
    """Orbit representatives of a validated action; raises NotFreeError.

    Returns the increasing array of representatives, one per orbit: the
    smallest point of the orbit, found by doubling windows of steps along
    each e_j.  The action is free when every orbit has |group| points;
    otherwise the witness is the smallest point that some sigma_gamma
    with gamma != 0 fixes.
    """
    # affine: the orbits are the residues mod d, all with one stabilizer
    if isinstance(a, AffineAction):
        d = int(np.gcd.reduce(a.multipliers, initial=a.space.size))
        if a.space.size // d != a.group.order:
            raise NotFreeError(point=0)
        return np.arange(d)
    G = a.group
    t = a.table
    N = a.space.size
    points = np.arange(N)
    first = points
    for e, n in zip(np.eye(G.rank, dtype=np.intp), G.invariant_factors):
        m = 1
        while m < n:
            first = np.minimum(first, first[t[G.flat(m * e)]])
            m *= 2
    reps = np.flatnonzero(first == points)
    if reps.size * G.order != N:
        fixed = t == points
        fixed[G.index(G.zero)] = False
        raise NotFreeError(point=int(np.flatnonzero(np.any(fixed, axis=0))[0]))
    return reps
