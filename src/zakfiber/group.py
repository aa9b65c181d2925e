"""Finite abelian groups, characters, and the discrete Fourier transform.

A group is presented by its invariant factors ``(n_1, ..., n_k)``; an
element is a k-tuple of residues added componentwise.  The dual group is
identified with the group itself through the pairing

    (gamma, alpha) = exp(2*pi*i * sum_j gamma_j*alpha_j / n_j),

so dual points use the same tuple representation.  Enumeration order is
lexicographic everywhere, which makes every derived object (transversals,
fiber indexing, reports) reproducible.

A single element is a tuple at the public API; a set of elements is a
read-only intp array of coordinate rows, shape (n, rank), in lexicographic
order.  ``flat`` maps coordinate rows, reduced mod the factors, to their
positions; no other module knows this mixed-radix encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FiniteAbelianGroup",
    "Subgroup",
    "character",
    "character_table",
    "dft",
    "idft",
    "subgroup_from_generators",
    "annihilator",
    "coset_transversal",
]

Element = tuple[int, ...]


class FiniteAbelianGroup:
    """Direct sum Z_{n_1} x ... x Z_{n_k} given by its invariant factors."""

    def __init__(self, invariant_factors: Sequence[int]):
        factors = tuple(int(n) for n in invariant_factors)
        if not factors:
            raise ValueError("invariant factor list must be non-empty")
        for j, n in enumerate(factors):
            if n < 1:
                raise ValueError(f"invariant_factors[{j}] must be >= 1, got {n}")
        self.invariant_factors: Element = factors
        self.rank = len(factors)
        self.order = math.prod(factors)
        # mixed-radix place values for index(); lexicographic == C order
        self._places = tuple(math.prod(factors[j + 1 :])
                             for j in range(len(factors)))
        self._elements: list[Element] | None = None

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.invariant_factors)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteAbelianGroup)
            and other.invariant_factors == self.invariant_factors
        )

    def __hash__(self) -> int:
        return hash(self.invariant_factors)

    @property
    def zero(self) -> Element:
        return (0,) * self.rank

    def check(self, el: Iterable[int]) -> Element:
        """Validate arity and residue ranges; return the canonical tuple."""
        t = tuple(int(v) for v in el)
        if len(t) != self.rank:
            raise ValueError(
                f"element {t} has arity {len(t)}, expected {self.rank}"
            )
        for v, n in zip(t, self.invariant_factors):
            if not (0 <= v < n):
                raise ValueError(f"element {t} out of range for factors "
                                 f"{self.invariant_factors}")
        return t

    def add(self, a: Iterable[int], b: Iterable[int]) -> Element:
        a = self.check(a)
        b = self.check(b)
        return tuple((x + y) % n for x, y, n in zip(a, b, self.invariant_factors))

    def sub(self, a: Iterable[int], b: Iterable[int]) -> Element:
        a = self.check(a)
        b = self.check(b)
        return tuple((x - y) % n for x, y, n in zip(a, b, self.invariant_factors))

    def neg(self, a: Iterable[int]) -> Element:
        a = self.check(a)
        return tuple((-x) % n for x, n in zip(a, self.invariant_factors))

    @cached_property
    def coordinates(self) -> np.ndarray:
        """All elements as rows of an (order, rank) array, lexicographic."""
        grid = np.indices(self.invariant_factors, dtype=np.intp)
        coords = grid.reshape(self.rank, self.order).T.copy()
        coords.flags.writeable = False
        return coords

    def flat(self, coords) -> np.ndarray:
        """Flat indices of coordinate rows (..., rank), each coordinate
        reduced mod its factor first; the inverse of ``coordinates``."""
        c = np.asarray(coords, dtype=np.intp)
        return (c % self.invariant_factors) @ np.asarray(self._places,
                                                          dtype=np.intp)

    def elements(self) -> list[Element]:
        """All elements in lexicographic order (cached)."""
        if self._elements is None:
            self._elements = [tuple(r) for r in self.coordinates.tolist()]
        return self._elements

    def index(self, el: Iterable[int]) -> int:
        """Position of ``el`` in the lexicographic enumeration."""
        t = self.check(el)
        return sum(v * p for v, p in zip(t, self._places))

    def neg_index_table(self) -> np.ndarray:
        """Flat-index permutation sending index(gamma) to index(-gamma)."""
        return self.flat(-self.coordinates)


def character(G: FiniteAbelianGroup, gamma, alpha):
    """Pairing (gamma, alpha) = exp(2*pi*i * sum_j gamma_j*alpha_j / n_j).

    ``gamma`` and ``alpha`` are elements, giving a complex number, or
    coordinate arrays of shape (..., rank) in canonical residues, which
    broadcast against each other and give an array of pairings.
    """
    g, a = (np.asarray(v, dtype=np.intp) for v in (gamma, alpha))
    for v in (g, a):
        if (v.shape[-1:] != (G.rank,) or np.any(v < 0)
                or np.any(v >= G.invariant_factors)):
            raise ValueError(f"element {v.tolist()} is not in canonical "
                             f"residues of factors {G.invariant_factors}")
    phase = 0
    for j, n in enumerate(G.invariant_factors):
        phase = phase + g[..., j] * a[..., j] / n
    z = np.exp(2j * np.pi * phase)
    return complex(z) if np.ndim(z) == 0 else z


def character_table(G: FiniteAbelianGroup) -> np.ndarray:
    """Matrix (gamma, alpha) indexed [index(gamma), index(alpha)]."""
    mats = []
    for n in G.invariant_factors:
        w = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        mats.append(w)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dft(G: FiniteAbelianGroup, values: Sequence[complex]) -> np.ndarray:
    """Forward transform F(alpha) = sum_gamma c_gamma * conj((gamma, alpha)).

    Computed with the FFT over the factor axes; enumeration is
    lexicographic on both sides.
    """
    c = np.asarray(values, dtype=complex)
    if c.shape != (G.order,):
        raise ValueError(f"expected {G.order} coefficients, got shape {c.shape}")
    return np.fft.fftn(c.reshape(G.invariant_factors)).ravel()


def idft(G: FiniteAbelianGroup, values: Sequence[complex]) -> np.ndarray:
    """Inverse transform c_gamma = (1/|G|) sum_alpha F(alpha) * (gamma, alpha)."""
    F = np.asarray(values, dtype=complex)
    if F.shape != (G.order,):
        raise ValueError(f"expected {G.order} values, got shape {F.shape}")
    return np.fft.ifftn(F.reshape(G.invariant_factors)).ravel()


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup stored by its members, as coordinate rows.

    ``generators`` is a generating set (possibly redundant); derived
    subgroups such as annihilators use their full member array.
    """

    parent: FiniteAbelianGroup
    members: np.ndarray
    generators: np.ndarray

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, el: Iterable[int]) -> bool:
        t = tuple(int(v) for v in el)
        return (len(t) == self.parent.rank
                and bool(np.any(np.all(self.members == t, axis=1))))


def _rows(G: FiniteAbelianGroup, flat: np.ndarray) -> np.ndarray:
    """Read-only coordinate rows of the elements at the given flat indices."""
    rows = G.coordinates[flat]
    rows.flags.writeable = False
    return rows


def subgroup_from_generators(
    G: FiniteAbelianGroup, generators: Iterable[Iterable[int]]
) -> Subgroup:
    """Closure of the generators under addition.

    Adding generator g to a subgroup S gives the disjoint cosets
    S + m*g for 0 <= m < r, where r is the least m > 0 with m*g in S, so
    each generator costs time linear in the size it produces.
    """
    gens = _rows(G, np.sort(np.array([G.index(g) for g in generators],
                                     dtype=np.intp)))
    coords = G.coordinates
    inside = np.zeros(G.order, dtype=bool)
    inside[0] = True
    members = np.zeros(1, dtype=np.intp)  # flat index of the identity
    exponent = math.lcm(*G.invariant_factors)
    for g in gens:
        steps = np.arange(exponent + 1, dtype=np.intp)[:, None] * g
        r = 1 + int(np.argmax(inside[G.flat(steps[1:])]))
        members = G.flat(coords[members][None, :, :]
                         + steps[:r, None, :]).ravel()
        inside[members] = True
    # flat order is lexicographic
    return Subgroup(parent=G, members=_rows(G, np.flatnonzero(inside)),
                    generators=gens)


def annihilator(G: FiniteAbelianGroup, sub: Subgroup) -> Subgroup:
    """Dual points that pair trivially with every generator of ``sub``.

    (g, delta) = 1 exactly when sum_j g_j delta_j (L/n_j) = 0 mod L, with
    L the lcm of the factors; that integer test decides membership.  The
    result lives in the dual group, represented by the same factor list.
    """
    if sub.parent != G:
        raise ValueError("subgroup does not belong to this group")
    L = math.lcm(*G.invariant_factors)
    scale = np.asarray([L // n for n in G.invariant_factors], dtype=np.intp)
    pairing = (G.coordinates * scale) @ sub.generators.T % L
    members = _rows(G, np.flatnonzero(np.all(pairing == 0, axis=1)))
    return Subgroup(parent=G, members=members, generators=members)


def coset_transversal(G: FiniteAbelianGroup, sub: Subgroup) -> np.ndarray:
    """Lexicographically smallest representative of each coset of ``sub``.

    An element is a representative when no member of its coset comes
    before it; the output is sorted and canonical.
    """
    if sub.parent != G:
        raise ValueError("subgroup does not belong to this group")
    first = G.flat(G.coordinates[:, None] + sub.members).min(axis=1)
    return _rows(G, np.flatnonzero(first == np.arange(G.order)))
