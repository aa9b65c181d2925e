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
from .frames import SUPPORT_TOL, FrameReport, frame_check_fibers
from .group import Element, FiniteAbelianGroup, Subgroup, annihilator, \
    character, coset_transversal, dft, subgroup_from_generators
from .ranges import RANK_TOL, RangeFunction, range_from_fibers
from .zak import FiberedVector

__all__ = [
    "TranslationScenario",
    "build_scenario",
    "weil_check",
    "zak_point",
    "zakG_forward",
    "zakG_inverse",
    "fiberize",
    "DualityReport",
    "duality_check",
    "ti_analyze",
]


@dataclass
class TranslationScenario:
    """A subgroup Gamma of G with its annihilator and both transversals;
    the fibration (see :mod:`zakfiber.zak`) of translation by Gamma."""

    G: FiniteAbelianGroup
    gamma: Subgroup
    gamma_star: Subgroup
    coset_reps: list[Element]   # C, transversal of G / Gamma
    dual_reps: list[Element]    # Omega, transversal of G^ / Gamma*
    normalization: dict[str, float]

    @property
    def n_cosets(self) -> int:
        return len(self.coset_reps)

    @property
    def n_dual(self) -> int:
        return len(self.dual_reps)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(_char_matrix, _shift_index), built on first use."""
        return _char_matrix(self), _shift_index(self)

    @property
    def ambient_weights(self) -> np.ndarray:
        return np.ones(self.G.order)

    def forward(self, f) -> FiberedVector:
        return zakG_forward(self, f)

    def inverse(self, Phi: FiberedVector) -> np.ndarray:
        return zakG_inverse(self, Phi)

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
        raise AssertionError(
            "annihilator size violates |Gamma| * |Gamma*| = |G|"
        )
    if len(Omega) != gamma.order:
        raise AssertionError("|Omega| must equal |Gamma|")
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


def _check_function(s: TranslationScenario, f) -> np.ndarray:
    v = np.asarray(f, dtype=complex)
    if v.shape != (s.G.order,):
        raise ValueError(f"expected {s.G.order} values on G, got shape "
                         f"{v.shape}")
    return v


def weil_check(s: TranslationScenario, f):
    """Total sum over G versus the iterated coset sum over C x Gamma."""
    v = _check_function(s, f)
    lhs = complex(np.sum(v))
    rhs = 0.0 + 0.0j
    for x in s.coset_reps:
        for g in s.gamma.members:
            rhs += v[s.G.index(s.G.add(x, g))]
    return lhs, complex(rhs), abs(lhs - complex(rhs))


def zak_point(s: TranslationScenario, f, omega: Iterable[int],
              x: Iterable[int]) -> complex:
    """Defining sum of Z[f](omega)(x) at arbitrary x in G, omega in G^."""
    v = _check_function(s, f)
    G = s.G
    om = G.check(omega)
    xx = G.check(x)
    total = 0.0 + 0.0j
    for g in s.gamma.members:
        total += v[G.index(G.sub(xx, g))] * np.conj(character(G, g, om))
    return complex(total)


def _char_matrix(s: TranslationScenario) -> np.ndarray:
    """K[wi, gi] = conj((gamma_gi, omega_wi))."""
    G = s.G
    K = np.empty((s.n_dual, s.gamma.order), dtype=complex)
    for wi, om in enumerate(s.dual_reps):
        for gi, g in enumerate(s.gamma.members):
            K[wi, gi] = np.conj(character(G, g, om))
    return K


def _shift_index(s: TranslationScenario) -> np.ndarray:
    """S[gi, ci] = index of C[ci] - gamma_gi in G."""
    G = s.G
    S = np.empty((s.gamma.order, s.n_cosets), dtype=np.intp)
    for gi, g in enumerate(s.gamma.members):
        for ci, x in enumerate(s.coset_reps):
            S[gi, ci] = G.index(G.sub(x, g))
    return S


def zakG_forward(s: TranslationScenario, f) -> FiberedVector:
    """Fibers Z[f](omega)(x) over omega in Omega, x in C (unit weights)."""
    v = _check_function(s, f)
    K, S = s._tables
    fibers = K @ v[S]
    return FiberedVector(fibers, np.ones(s.n_cosets))


def zakG_inverse(s: TranslationScenario, Phi: FiberedVector) -> np.ndarray:
    """Reconstruct f from its fibers: per representative x the orbit data
    gamma -> f(x - gamma) is recovered by Fourier inversion on Gamma."""
    if Phi.fibers.shape != (s.n_dual, s.n_cosets):
        raise ValueError(
            f"fiber shape {Phi.fibers.shape} does not match "
            f"({s.n_dual}, {s.n_cosets})"
        )
    K, S = s._tables
    orbit = (K.conj().T @ Phi.fibers) / s.gamma.order  # (|Gamma|, |C|)
    f = np.empty(s.G.order, dtype=complex)
    f[S] = orbit
    return f


def fiberize(s: TranslationScenario, f) -> np.ndarray:
    """T f[omega_i, delta_j] = fhat(omega_i + delta_j), fhat over G^."""
    v = _check_function(s, f)
    fhat = dft(s.G, v)
    G = s.G
    out = np.empty((s.n_dual, s.gamma_star.order), dtype=complex)
    for wi, om in enumerate(s.dual_reps):
        for di, d in enumerate(s.gamma_star.members):
            out[wi, di] = fhat[G.index(G.add(om, d))]
    return out


def _gamma_star_fourier(s: TranslationScenario, a: np.ndarray,
                        x: Element) -> complex:
    """F_{Gamma*}(a)(x) = (|Gamma|/|G|) sum_delta a_delta conj((x, delta))."""
    G = s.G
    total = 0.0 + 0.0j
    for di, d in enumerate(s.gamma_star.members):
        total += a[di] * np.conj(character(G, x, d))
    return complex(total * s.gamma.order / G.order)


@dataclass
class DualityReport:
    transform_deviation: float
    gramian_deviation: float | None


def duality_check(s: TranslationScenario, f, g=None) -> DualityReport:
    """Compare the two fiberization routes point by point.

    The left side runs through the Fourier transform on G and the
    Gamma*-Fourier synthesis; the right side evaluates the defining Zak
    sums directly.  When a second function is given, the Gramians
    <T f(omega), T g(omega)> (with mass 1/|Gamma*| per point) and
    <Z[f](-omega), Z[g](-omega)> on C are compared as well.
    """
    v = _check_function(s, f)
    G = s.G
    Tf = fiberize(s, v)
    dev = 0.0
    for wi, om in enumerate(s.dual_reps):
        for x in s.coset_reps:
            lhs = _gamma_star_fourier(s, Tf[wi], x)
            rhs = character(G, x, om) * zak_point(s, v, G.neg(om), G.neg(x))
            dev = max(dev, abs(lhs - rhs))

    gram_dev = None
    if g is not None:
        w = _check_function(s, g)
        Tg = fiberize(s, w)
        gram_dev = 0.0
        for wi, om in enumerate(s.dual_reps):
            lhs = np.sum(Tf[wi] * np.conj(Tg[wi])) / s.gamma_star.order
            neg = G.neg(om)
            rhs = sum(
                zak_point(s, v, neg, x) * np.conj(zak_point(s, w, neg, x))
                for x in s.coset_reps
            )
            gram_dev = max(gram_dev, abs(complex(lhs) - complex(rhs)))
    return DualityReport(transform_deviation=dev, gramian_deviation=gram_dev)


def ti_analyze(s: TranslationScenario, gens,
               tolerance: float = SUPPORT_TOL,
               rank_tolerance: float = RANK_TOL
               ) -> tuple[RangeFunction, FrameReport]:
    """Range function and frame report of a translation system over Omega.

    The fibers of the generators over Omega feed the same rank-revealing
    and spectral machinery as the action pipeline; bounds and verdicts
    mean the same thing.
    """
    gens = list(gens)
    if len(gens) == 0:
        raise ValueError("at least one generator is required")
    fibered = [zakG_forward(s, g) for g in gens]
    J = range_from_fibers(fibered, rank_tolerance)
    report = frame_check_fibers(fibered, tolerance, rank_tolerance)
    return J, report
