"""Fiberization of weighted-space functions over a free group action.

For a free action of Gamma with tiling transversal C, the transform

    Z[psi](alpha)(x) = sum_gamma (Pi(gamma) psi)(x) * conj((gamma, alpha)),
    x in C, alpha in the dual group,

is an isometric isomorphism onto the space of fibers {alpha -> l2(C, mu)}
carrying the normalized counting measure on the dual group:

    ||psi||^2 = (1/|Gamma|) sum_alpha ||Z[psi](alpha)||^2_mu.

Per representative x, the orbit sequence gamma -> (Pi(gamma) psi)(x) is
transformed with the FFT over the factor axes, so fibers are enumerated in
lexicographic dual order.

A fibration has ``forward``, ``inverse``, ``ambient_weights`` and
``synthesis_matrix(gens)`` (the oracle's matrix of the orbit system); the
two are :class:`ZakTransform` and ``translation.TranslationScenario``.
Both are a :class:`Fibration`, so both also have ``forward_many(gens)``,
the stack (n_fibers, n_points, k) of all k generators' fibers at once;
``forward`` is its case k = 1.  Each fibration also keeps one memo entry
in ``memo``, a ``ranges.GeneratorSystem``: the last generator system, a
read-only copy of the generators, their read-only fiber stack and, once
first needed, its spectrum.  ``frame_check``, ``riesz_check``,
``range_from_generators``, ``parseval_decompose`` and
``verify_decomposition`` read the entry through
``ranges.generator_system``, which replaces it when called with
generators of other bits.  It costs one generator stack and one fiber
stack of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .action import AffineAction, QuasiInvariantAction, tiling_transversal

__all__ = ["FiberedVector", "Fibration", "ZakTransform"]


@dataclass
class FiberedVector:
    """Stack of fibers, one row per dual point, plus the atom weights on C.

    The fiber inner product is <u, v> = sum_x u(x) conj(v(x)) mu(x); the
    global square norm averages fiber square norms over the dual group.
    """

    fibers: np.ndarray        # (n_fibers, n_points) complex
    fiber_weights: np.ndarray  # (n_points,) positive

    def __post_init__(self):
        self.fibers = np.asarray(self.fibers, dtype=complex)
        self.fiber_weights = np.asarray(self.fiber_weights, dtype=float)
        if self.fibers.ndim != 2:
            raise ValueError("fibers must be a 2-d array")
        if self.fiber_weights.shape != (self.fibers.shape[1],):
            raise ValueError("fiber_weights length does not match fibers")

    @property
    def n_fibers(self) -> int:
        return int(self.fibers.shape[0])

    @property
    def n_points(self) -> int:
        return int(self.fibers.shape[1])

    def fiber_inner(self, other: "FiberedVector") -> np.ndarray:
        """Per-fiber weighted inner products <self(alpha), other(alpha)>."""
        if other.fibers.shape != self.fibers.shape:
            raise ValueError("fiber shapes do not match")
        return np.sum(self.fibers * np.conj(other.fibers) * self.fiber_weights,
                      axis=1)

    def fiber_norms_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.fibers) ** 2 * self.fiber_weights, axis=1)

    def norm_sq(self) -> float:
        return float(np.sum(self.fiber_norms_sq()) / self.n_fibers)

    def inner(self, other: "FiberedVector") -> complex:
        return complex(np.sum(self.fiber_inner(other)) / self.n_fibers)


def stack_generator_fibers(fibered) -> tuple[np.ndarray, np.ndarray]:
    """Validate a non-empty list of FiberedVectors on one fibration.

    Returns (stack, weights) with stack shape (n_fibers, n_points, n_gens);
    the stack is a fresh array that callers may scale in place.
    """
    if not fibered:
        raise ValueError("at least one fibered generator is required")
    first = fibered[0]
    for fv in fibered[1:]:
        if fv.fibers.shape != first.fibers.shape:
            raise ValueError("generator fiber shapes do not match")
        if not np.array_equal(fv.fiber_weights, first.fiber_weights):
            raise ValueError("generator fiber weights do not match")
    stack = np.stack([fv.fibers for fv in fibered], axis=2)
    return stack, first.fiber_weights


class Fibration:
    """What both fibrations share: ``forward`` and ``forward_many``.

    A subclass has ``ambient_weights``, ``_vector(f)`` (f as a checked
    complex vector) and ``_forward_vectors(vs)`` (the fiber stack and
    weights of a list of such vectors).
    """

    # the last generator system, kept by ranges.generator_system
    memo = None

    def forward(self, psi) -> FiberedVector:
        stack, weights = self._forward_vectors([self._vector(psi)])
        return FiberedVector(stack[:, :, 0], weights)

    def forward_many(self, gens) -> tuple[np.ndarray, np.ndarray]:
        """(stack, weights): the fibers of all k generators at once, shaped
        (n_fibers, n_points, k); ``forward`` of the j-th generator is
        column j, so both have the same bits and memory layout."""
        vectors = [self._vector(g) for g in gens]
        if not vectors:
            raise ValueError("at least one fibered generator is required")
        return self._forward_vectors(vectors)


class ZakTransform(Fibration):
    """Forward/inverse fiberization for one validated free action.

    Precomputes, per group element gamma and representative x, the point
    sigma_{-gamma}(x) with amplitude J(-gamma, x)^(1/2) for analysis and
    its inverse J(-gamma, x)^(-1/2) for synthesis: the inverse writes the
    value at gamma back to the point the forward read it from.
    """

    def __init__(self, action: QuasiInvariantAction):
        self.action = action
        self.group = action.group
        C = self.transversal = tiling_transversal(action)
        mu = action.space.weights
        # src[gi, ci] = sigma_{-gamma_gi}(C[ci]); in Fortran order, the
        # layout of the forward's stack
        if isinstance(action, AffineAction):  # s_{-gamma} = -s_gamma mod N
            src = ((C[:, None] - action.shifts) % action.space.size).T
        else:
            src = action.table[:, C][self.group.neg_index_table()]
        self._src = np.asfortranarray(src)
        self._amp_fwd = np.sqrt(mu[self._src] / mu[C])
        self._amp_inv = np.sqrt(mu[C] / mu[self._src])
        self.fiber_weights = mu[C].copy()
        self.ambient_weights = mu

    @property
    def n_fibers(self) -> int:
        return self.group.order

    @property
    def n_points(self) -> int:
        return int(self.transversal.size)

    def synthesis_matrix(self, gens) -> np.ndarray:
        return oracle.synthesis_matrix(self.action, gens)

    def _vector(self, psi) -> np.ndarray:
        v = np.asarray(psi, dtype=complex)
        if v.shape != (self.action.space.size,):
            raise ValueError(
                f"expected {self.action.space.size} values, got shape {v.shape}"
            )
        return v

    def _forward_vectors(self, vectors: list[np.ndarray]):
        # all forwards at once: the weighted orbits (k, |C|, |Gamma|),
        # gathered vector by vector, with no stack of the vectors; their
        # transpose is the stack in Fortran order, the layout of a single
        # generator's fibers, on which the last bits of the fiber sums
        # depend; then one FFT over the group axes
        index, amp = self._src.T, self._amp_fwd.T
        orbits = np.empty((len(vectors),) + index.shape, dtype=complex)
        for v, orbit in zip(vectors, orbits):
            np.multiply(v[index], amp, out=orbit)
        stack = orbits.T
        shaped = stack.reshape(*self.group.invariant_factors, self.n_points,
                               len(vectors))
        fibers = np.fft.fftn(shaped, axes=tuple(range(self.group.rank)))
        return np.asfortranarray(fibers.reshape(stack.shape)), \
            self.fiber_weights

    def inverse(self, Phi: FiberedVector) -> np.ndarray:
        if Phi.fibers.shape != (self.n_fibers, self.n_points):
            raise ValueError(
                f"fiber shape {Phi.fibers.shape} does not match "
                f"({self.n_fibers}, {self.n_points})"
            )
        shaped = Phi.fibers.reshape(*self.group.invariant_factors,
                                    self.n_points)
        u = np.fft.ifftn(shaped, axes=tuple(range(self.group.rank)))
        u = u.reshape(self.group.order, self.n_points)
        # u[gi] = (1/|Gamma|) sum_alpha Phi(alpha) (gamma, alpha) is the
        # orbit value the forward transform read at src[gi]
        psi = np.empty(self.action.space.size, dtype=complex)
        psi[self._src] = self._amp_inv * u
        return psi
