"""Fiberization of weighted-space functions over a free group action.

For a free action of Gamma with tiling transversal C, the transform

    Z[psi](alpha)(x) = sum_gamma (Pi(gamma) psi)(x) * conj((gamma, alpha)),
    x in C, alpha in the dual group,

is an isometric isomorphism onto the space of fibers {alpha -> l2(C, mu)}
carrying the normalized counting measure on the dual group:

    ||psi||^2 = (1/|Gamma|) sum_alpha ||Z[psi](alpha)||^2_mu.

Per representative x, the orbit sequence gamma -> (Pi(gamma) psi)(x) is
transformed with the FFT over the factor axes, of a C-ordered copy on a
group of rank > 1, so fibers are enumerated in lexicographic dual order.

A fibration has ``forward``, ``inverse``, ``n_fibers``, ``n_points``,
``ambient_weights``, read-only ``fiber_weights`` that results share, and
``synthesis_matrix(gens)`` (the oracle's matrix of the orbit system); the
two are :class:`ZakTransform` and ``translation.TranslationScenario``.
Both are a :class:`Fibration`, which checks their vectors and fibers and
gives both ``forward_many(gens)``, the stack (n_fibers, n_points, k) of all
k generators' fibers at once, in Fortran order for an action; ``forward``
is its case k = 1.  Each fibration also keeps one memo entry in ``memo``, a
``ranges.GeneratorSystem``: the last generator system, a read-only copy of
the generators, their read-only fiber stack and, once first needed, the
range function and coordinates of its thin SVD.  ``frame_check``,
``riesz_check``, ``range_from_generators``, ``parseval_decompose``,
``verify_decomposition`` and every CLI command that fiberizes generators
read the entry through ``ranges.generator_system``, which replaces it
when called with generators of other bits.  It costs one generator
stack, one fiber stack of the same size and a range basis of at most that
size.
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


class Fibration:
    """What both fibrations share: ``forward``, ``forward_many`` and the
    checks of vectors and fibers.

    A subclass has ``n_fibers``, ``n_points``, ``ambient_weights``,
    ``fiber_weights`` and ``_forward_vectors(vs)`` (the fiber stack and
    weights of a list of checked vectors).
    """

    # the last generator system, kept by ranges.generator_system
    memo = None

    def _vector(self, f) -> np.ndarray:
        """f as a complex vector on the points of the ambient space."""
        v = np.asarray(f, dtype=complex)
        if v.shape != self.ambient_weights.shape:
            raise ValueError(f"expected {self.ambient_weights.size} values, "
                             f"got shape {v.shape}")
        return v

    def _fibers(self, Phi: FiberedVector) -> np.ndarray:
        """The fibers of Phi, checked against this fibration's shape."""
        shape = (self.n_fibers, self.n_points)
        if Phi.fibers.shape != shape:
            raise ValueError(f"fiber shape {Phi.fibers.shape} does not match "
                             f"{shape}")
        return Phi.fibers

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
        self.fiber_weights = mu[C]  # read-only: results share it
        self.fiber_weights.flags.writeable = False
        self.ambient_weights = mu

    @property
    def n_fibers(self) -> int:
        return self.group.order

    @property
    def n_points(self) -> int:
        return int(self.transversal.size)

    def synthesis_matrix(self, gens) -> np.ndarray:
        return oracle.synthesis_matrix(self.action, gens)

    def _on_group_axes(self, a: np.ndarray) -> np.ndarray:
        """a with its first axis split into the group's factor axes; on rank
        > 1 a C-ordered copy, whose FFT lines are fast and keep their bits."""
        a = a.reshape(*self.group.invariant_factors, *a.shape[1:])
        return np.ascontiguousarray(a) if self.group.rank > 1 else a

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
        fibers = np.fft.fftn(self._on_group_axes(stack),
                             axes=tuple(range(self.group.rank)))
        return np.asfortranarray(fibers.reshape(stack.shape)), \
            self.fiber_weights

    def inverse(self, Phi: FiberedVector) -> np.ndarray:
        u = np.fft.ifftn(self._on_group_axes(self._fibers(Phi)),
                         axes=tuple(range(self.group.rank)))
        u = u.reshape(self.group.order, self.n_points)
        # u[gi] = (1/|Gamma|) sum_alpha Phi(alpha) (gamma, alpha) is the
        # orbit value the forward transform read at src[gi]
        psi = np.empty(self.action.space.size, dtype=complex)
        psi[self._src] = self._amp_inv * u
        return psi
