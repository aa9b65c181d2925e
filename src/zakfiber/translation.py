"""Subgroup translations on a finite group: Weil formula, Zak transform,
fiberization, and the duality between them.

For a subgroup Gamma of a finite abelian group G, with annihilator
Gamma* in the dual and transversals C of G/Gamma and Omega of
G^/Gamma*, the translation system {T_gamma phi} is analyzed through

    Z[f](omega)(x) = sum_{gamma in Gamma} f(x - gamma) conj((gamma, omega)),

with the normalizations: counting measure on G, Gamma, and C; mass 1/|G|
on the dual; mass 1/|Gamma| per point of Omega; mass 1/|Gamma*| per point
of Gamma*.  Under these choices the fiberization T f(omega) =
{fhat(omega + delta)}_{delta in Gamma*} satisfies

    F_{Gamma*}(T f(omega))(x) = (x, omega) Z[f](-omega)(-x),

where F_{Gamma*}(a)(x) = (|Gamma|/|G|) sum_delta a_delta conj((x, delta)),
and the Gramians of the two fiberizations coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import oracle
from .group import FiniteAbelianGroup, Subgroup, annihilator, character, \
    coset_transversal, dft, subgroup_from_generators
from .zak import Fibration
# unused here: bench/spans.py REQUIRED_BINDINGS traces these bindings
from .frames import frame_check_fibers
from .ranges import range_from_fibers

__all__ = [
    "TranslationScenario",
    "build_scenario",
    "weil_check",
    "fiberize",
    "DualityReport",
    "duality_check",
]


@dataclass(eq=False)
class TranslationScenario(Fibration):
    """A subgroup Gamma of G with its annihilator and both transversals;
    the fibration (see :mod:`zakfiber.zak`) of translation by Gamma."""

    G: FiniteAbelianGroup
    gamma: Subgroup
    gamma_star: Subgroup
    coset_reps: np.ndarray   # C, transversal of G / Gamma
    dual_reps: np.ndarray    # Omega, transversal of G^ / Gamma*
    normalization: dict[str, float]

    def __post_init__(self):
        # unit weights, built once and read-only: range functions share them
        self.ambient_weights = np.ones(self.G.order)
        self.fiber_weights = np.ones(self.n_points)
        for w in (self.ambient_weights, self.fiber_weights):
            w.flags.writeable = False

    @property
    def n_fibers(self) -> int:
        return len(self.dual_reps)

    @property
    def n_points(self) -> int:
        return len(self.coset_reps)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(_char_matrix, _shift_index), built on first use."""
        return _char_matrix(self), _shift_index(self)

    def forward(self, f) -> np.ndarray:
        return zakG_forward(self, f)

    def _forward_vectors(self, vectors: list[np.ndarray]):
        # one batched K @ v[S], a matrix product per generator, viewed in
        # stack shape: each generator's fibers stay C-contiguous
        K, S = self._tables
        orbits = np.array([v[S] for v in vectors])
        return (K @ orbits).transpose(1, 2, 0)

    def inverse(self, F) -> np.ndarray:
        return zakG_inverse(self, F)

    def synthesis_matrix(self, gens) -> np.ndarray:
        return oracle.translation_synthesis_matrix(self, gens)


def build_scenario(G: FiniteAbelianGroup,
                   subgroup_generators: Iterable[Iterable[int]]
                   ) -> TranslationScenario:
    """Assemble Gamma, Gamma*, C, Omega, and the normalization ledger."""
    gamma = subgroup_from_generators(G, subgroup_generators)
    gamma_star = annihilator(G, gamma)
    C = coset_transversal(G, gamma)
    Omega = coset_transversal(G, gamma_star)
    if gamma.order * gamma_star.order != G.order:
        raise ValueError(
            "annihilator size violates |Gamma| * |Gamma*| = |G|"
        )
    if len(Omega) != gamma.order:
        raise ValueError("|Omega| must equal |Gamma|")
    normalization = {
        "m_G": 1.0,
        "m_G_dual": 1.0 / G.order,
        "m_Gamma": 1.0,
        "m_Gamma_star": 1.0 / gamma_star.order,
        "mu_C": 1.0,
        "nu_Omega": 1.0 / gamma.order,
    }
    return TranslationScenario(G=G, gamma=gamma, gamma_star=gamma_star,
                               coset_reps=C, dual_reps=Omega,
                               normalization=normalization)


def weil_check(s: TranslationScenario, f):
    """Total sum over G versus the iterated coset sum over C x Gamma."""
    v = s._vector(f)
    lhs = complex(np.sum(v))
    rhs = complex(np.sum(v[s.G.flat(s.coset_reps[:, None] + s.gamma.members)]))
    return lhs, rhs, abs(lhs - rhs)


def _zak_sums(s: TranslationScenario, v: np.ndarray, omega: np.ndarray,
              x: np.ndarray) -> np.ndarray:
    """Defining sums Z[f](omega)(x), one term per member of Gamma and no
    Fourier transform, broadcast over the leading axes of the coordinate
    arrays ``omega`` and ``x``."""
    G = s.G
    gamma = s.gamma.members
    terms = v[G.flat(x[..., None, :] - gamma)] \
        * np.conj(character(G, gamma, omega[..., None, :]))
    return np.sum(terms, axis=-1)


def _char_matrix(s: TranslationScenario) -> np.ndarray:
    """K[wi, gi] = conj((gamma_gi, omega_wi))."""
    return np.conj(character(s.G, s.gamma.members, s.dual_reps[:, None]))


def _shift_index(s: TranslationScenario) -> np.ndarray:
    """S[gi, ci] = index of C[ci] - gamma_gi in G."""
    return s.G.flat(s.coset_reps - s.gamma.members[:, None])


def zakG_forward(s: TranslationScenario, f) -> np.ndarray:
    """Not API: bench/spans.py binds it until ROADMAP items 1 and 3."""
    return Fibration.forward(s, f)


def zakG_inverse(s: TranslationScenario, F) -> np.ndarray:
    """Not API: bench/spans.py binds it until ROADMAP items 1 and 3."""
    # per representative x the orbit data gamma -> f(x - gamma) is
    # recovered by Fourier inversion on Gamma
    K, S = s._tables
    orbit = (K.conj().T @ s._fibers(F)) / s.gamma.order  # (|Gamma|, |C|)
    f = np.empty(s.G.order, dtype=complex)
    f[S] = orbit
    return f


def fiberize(s: TranslationScenario, f) -> np.ndarray:
    """T f[omega_i, delta_j] = fhat(omega_i + delta_j), fhat over G^."""
    v = s._vector(f)
    fhat = dft(s.G, v)
    return fhat[s.G.flat(s.dual_reps[:, None] + s.gamma_star.members)]


@dataclass
class DualityReport:
    """Largest deviations of :func:`duality_check`: of each function's
    transform, shape (k,), and of each pair's Gramian, shape (k, k)."""

    transform_deviation: np.ndarray
    gramian_deviation: np.ndarray


def duality_check(s: TranslationScenario, gens) -> DualityReport:
    """Compare the two fiberization routes of every function and pair.

    The left side runs through the Fourier transform on G and the
    Gamma*-Fourier synthesis F_{Gamma*}(a)(x) = (|Gamma|/|G|) sum_delta
    a_delta conj((x, delta)); the right side evaluates the defining Zak
    sums directly.  For every pair (f, g), the diagonal included, the
    Gramians <T f(omega), T g(omega)> (with mass 1/|Gamma*| per point) and
    <Z[f](-omega), Z[g](-omega)> on C are compared as well.  Each function
    is fiberized and summed once; every pair is read off the two stacks.
    """
    vs = [s._vector(f) for f in gens]
    if not vs:
        raise ValueError("at least one function is required")
    G, C, omega = s.G, s.coset_reps, s.dual_reps
    coords = G.coordinates
    neg_omega = coords[G.flat(-omega)][:, None, :]   # (|Omega|, 1, rank)
    synth = np.conj(character(G, C[:, None], s.gamma_star.members))
    phase, minus_C = character(G, C, omega[:, None, :]), coords[G.flat(-C)]
    T = np.array([fiberize(s, v) for v in vs])   # (k, Omega, Gamma*)
    transform = np.array([np.max(np.abs(
        np.sum(t[:, None, :] * synth, axis=-1) * s.gamma.order / G.order
        - phase * _zak_sums(s, v, neg_omega, minus_C)))
        for t, v in zip(T, vs)])
    Z = np.array([_zak_sums(s, v, neg_omega, C) for v in vs])  # (k, Omega, C)
    gram = np.empty((len(vs), len(vs)))
    for i in range(len(vs)):
        # the pairs (i, j >= i), each summed over the contiguous last axis
        lhs = np.sum(T[i] * np.conj(T[i:]), axis=-1) / s.gamma_star.order
        rhs = np.sum(Z[i] * np.conj(Z[i:]), axis=-1)
        gram[i, i:] = gram[i:, i] = np.max(np.abs(lhs - rhs), axis=-1)
    return DualityReport(transform, gram)


def ti_analyze(*args, **kwargs):
    """Retired: a bare name that bench/spans.py binds (ROADMAP item 3)."""
    raise NotImplementedError("retired: use ranges.range_from_generators "
                              "and frames.frame_check")
