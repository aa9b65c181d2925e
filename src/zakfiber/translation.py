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
from .frames import SUPPORT_TOL, FrameReport, frame_check_fibers, \
    report_from_spectra  # frame_check_fibers: unused, bench/spans.py binds it
from .group import FiniteAbelianGroup, Subgroup, annihilator, character, \
    coset_transversal, dft, subgroup_from_generators
from .ranges import RangeFunction, range_from_fibers
from .zak import FiberedVector, Fibration

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

    def _vector(self, f) -> np.ndarray:
        return _check_function(self, f)

    def _forward_vectors(self, vectors: list[np.ndarray]):
        # one batched K @ v[S], a matrix product per generator, viewed in
        # stack shape: each generator's fibers stay C-contiguous
        K, S = self._tables
        orbits = np.array([v[S] for v in vectors])
        return (K @ orbits).transpose(1, 2, 0), np.ones(self.n_cosets)

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


def zak_point(s: TranslationScenario, f, omega: Iterable[int],
              x: Iterable[int]) -> complex:
    """Defining sum of Z[f](omega)(x) at arbitrary x in G, omega in G^."""
    v = _check_function(s, f)
    om, xx = (np.asarray(s.G.check(el), dtype=np.intp) for el in (omega, x))
    return complex(_zak_sums(s, v, om, xx))


def _char_matrix(s: TranslationScenario) -> np.ndarray:
    """K[wi, gi] = conj((gamma_gi, omega_wi))."""
    return np.conj(character(s.G, s.gamma.members, s.dual_reps[:, None]))


def _shift_index(s: TranslationScenario) -> np.ndarray:
    """S[gi, ci] = index of C[ci] - gamma_gi in G."""
    return s.G.flat(s.coset_reps - s.gamma.members[:, None])


def zakG_forward(s: TranslationScenario, f) -> FiberedVector:
    """Fibers Z[f](omega)(x) over omega in Omega, x in C (unit weights):
    ``forward_many`` of the one function f."""
    return Fibration.forward(s, f)


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
    return fhat[s.G.flat(s.dual_reps[:, None] + s.gamma_star.members)]


@dataclass
class DualityReport:
    transform_deviation: float
    gramian_deviation: float | None


def duality_check(s: TranslationScenario, f, g=None) -> DualityReport:
    """Compare the two fiberization routes point by point.

    The left side runs through the Fourier transform on G and the
    Gamma*-Fourier synthesis F_{Gamma*}(a)(x) = (|Gamma|/|G|) sum_delta
    a_delta conj((x, delta)); the right side evaluates the defining Zak
    sums directly.  When a second function is given, the Gramians
    <T f(omega), T g(omega)> (with mass 1/|Gamma*| per point) and
    <Z[f](-omega), Z[g](-omega)> on C are compared as well.
    """
    v = _check_function(s, f)
    G, C, omega = s.G, s.coset_reps, s.dual_reps
    coords = G.coordinates
    neg_omega = coords[G.flat(-omega)][:, None, :]   # (|Omega|, 1, rank)
    Tf = fiberize(s, v)
    synth = np.conj(character(G, C[:, None], s.gamma_star.members))
    lhs = np.sum(Tf[:, None, :] * synth, axis=-1) * s.gamma.order / G.order
    rhs = character(G, C, omega[:, None, :]) \
        * _zak_sums(s, v, neg_omega, coords[G.flat(-C)])
    dev = float(np.max(np.abs(lhs - rhs)))

    gram_dev = None
    if g is not None:
        w = _check_function(s, g)
        Tg = fiberize(s, w)
        lhs = np.sum(Tf * np.conj(Tg), axis=1) / s.gamma_star.order
        rhs = np.sum(_zak_sums(s, v, neg_omega, C)
                     * np.conj(_zak_sums(s, w, neg_omega, C)), axis=1)
        gram_dev = float(np.max(np.abs(lhs - rhs)))
    return DualityReport(transform_deviation=dev, gramian_deviation=gram_dev)


def ti_analyze(s: TranslationScenario, gens,
               tolerance: float = SUPPORT_TOL
               ) -> tuple[RangeFunction, FrameReport]:
    """Range function and frame report of a translation system over Omega.

    The fibers of the generators over Omega feed the same rank-revealing
    and spectral machinery as the action pipeline; bounds and verdicts
    mean the same thing.
    """
    gens = list(gens)
    if len(gens) == 0:
        raise ValueError("at least one generator is required")
    J = range_from_fibers([zakG_forward(s, g) for g in gens])
    return J, report_from_spectra(J.s2, J.dims, tolerance, riesz_style=False)
