"""Shared builders and naive reference implementations for the tests.

The naive routines evaluate defining sums term by term, with no FFT and
no shared code with the package internals, so they can serve as an
independent check of the transform pipeline.
"""

from __future__ import annotations

import numpy as np

from zakfiber import (
    FiniteAbelianGroup,
    NotFreeError,
    QuasiInvariantAction,
    TranslationScenario,
    WeightedSpace,
    ZakTransform,
    affine_action,
    build_scenario,
    character,
)
from zakfiber.decomp import _audit, _parts
from zakfiber.oracle import Factorization, factor, membership_of_matrix, \
    synthesis_matrix
from zakfiber.ranges import ORTHO_TOL, GeneratorSystem, RangeFunction, \
    _project_fibers


def s1_action() -> QuasiInvariantAction:
    """Z_4 on 8 unweighted points, sigma_gamma(x) = x + 2*gamma mod 8."""
    G = FiniteAbelianGroup([4])
    space = WeightedSpace(np.ones(8))
    return affine_action(G, space, [2])


def s2_action() -> QuasiInvariantAction:
    """Z_2 on 4 points with masses 1, 2, 3, 4 and the flip x -> 3 - x."""
    G = FiniteAbelianGroup([2])
    space = WeightedSpace([1.0, 2.0, 3.0, 4.0])
    return QuasiInvariantAction(G, space, [[0, 1, 2, 3], [3, 2, 1, 0]])


def s3_scenario() -> TranslationScenario:
    """The subgroup generated by 3 inside Z_12."""
    return build_scenario(FiniteAbelianGroup([12]), [[3]])


def assert_coordinate_rows(G: FiniteAbelianGroup, rows) -> None:
    """``rows`` is a read-only intp array of distinct coordinate rows of G
    in lexicographic order."""
    assert isinstance(rows, np.ndarray) and rows.dtype == np.intp
    assert rows.ndim == 2 and rows.shape[1] == G.rank
    assert not rows.flags.writeable
    assert np.all((rows >= 0) & (rows < G.invariant_factors))
    assert np.all(np.diff(G.flat(rows)) > 0)


def star_generator() -> np.ndarray:
    """Single generator on the s1 space whose fibers are the indicator of
    the zero fiber: 1/4 on the even points, 0 on the odd ones."""
    psi = np.zeros(8, dtype=complex)
    psi[[0, 2, 4, 6]] = 0.25
    return psi


def delta(n: int, i: int) -> np.ndarray:
    v = np.zeros(n, dtype=complex)
    v[i] = 1.0
    return v


def random_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def elem_add(G: FiniteAbelianGroup, a, b) -> tuple:
    """a + b, residue by residue: a tuple of G."""
    return tuple((int(x) + int(y)) % n
                 for x, y, n in zip(a, b, G.invariant_factors))


def elem_neg(G: FiniteAbelianGroup, a) -> tuple:
    return tuple(-int(x) % n for x, n in zip(a, G.invariant_factors))


def elem_sub(G: FiniteAbelianGroup, a, b) -> tuple:
    return elem_add(G, a, elem_neg(G, b))


def weighted_inner(mu, f, g) -> complex:
    """<f, g> = sum_x f(x) conj(g(x)) mu(x) on a weighted space."""
    return complex(np.sum(np.asarray(f) * np.conj(g) * mu))


def fiber_inner(w, F, G) -> np.ndarray:
    """Per-fiber weighted inner products <F(alpha), G(alpha)> of two fiber
    arrays (n_fibers, n_points) under the fiber weights w."""
    return np.sum(F * np.conj(G) * w, axis=1)


def fiber_norms_sq(w, F) -> np.ndarray:
    """Per-fiber weighted square norms of the fibers F."""
    return np.sum(np.abs(F) ** 2 * w, axis=1)


def norm_sq(w, F) -> float:
    """Global square norm of the fibers F: their square norms averaged over
    the dual group."""
    return float(np.sum(fiber_norms_sq(w, F)) / len(F))


def project(zak, psi, J: RangeFunction) -> np.ndarray:
    """Weighted-orthogonal projection of psi onto the invariant space of J,
    fiber by fiber through ``ranges._project_fibers``."""
    return zak.inverse(_project_fibers(zak.forward(psi), J))


def naive_apply(a: QuasiInvariantAction, gamma, psi) -> np.ndarray:
    """(Pi(gamma) psi)(x) term by term."""
    G = a.group
    mu = a.space.weights
    perm = a.table[G.index(elem_neg(G, gamma))]
    out = np.zeros(a.space.size, dtype=complex)
    for x in range(a.space.size):
        out[x] = np.sqrt(mu[perm[x]] / mu[x]) * psi[perm[x]]
    return out


def naive_zak(a: QuasiInvariantAction, zk: ZakTransform, psi) -> np.ndarray:
    """Defining triple sum of the fiberization, one term at a time."""
    G = a.group
    C = zk.transversal
    out = np.zeros((G.order, C.size), dtype=complex)
    for ai, alpha in enumerate(G.elements()):
        for ci, c in enumerate(C):
            total = 0.0 + 0.0j
            for gamma in G.elements():
                total += naive_apply(a, gamma, psi)[c] * \
                    np.conj(character(G, gamma, alpha))
            out[ai, ci] = total
    return out


def strided_forward_many(zk: ZakTransform, gens) -> np.ndarray:
    """The fiber stack of ``zk.forward_many(gens)`` from ``np.fft.fftn`` on
    the Fortran-ordered layout of the weighted orbits, whose FFT lines
    along the group axes are strided on a group of rank > 1."""
    index, amp = zk._src.T, zk._amp_fwd.T
    stack = np.stack([np.asarray(g, dtype=complex)[index] * amp
                      for g in gens]).T
    shaped = stack.reshape(*zk.group.invariant_factors, zk.n_points,
                           len(gens))
    fibers = np.fft.fftn(shaped, axes=tuple(range(zk.group.rank)))
    return fibers.reshape(stack.shape)


def strided_inverse(zk: ZakTransform, fibers: np.ndarray) -> np.ndarray:
    """``zk.inverse`` of a fiber array from ``np.fft.ifftn`` on the fibers'
    own layout, reshaped to the group axes as a view."""
    shaped = fibers.reshape(*zk.group.invariant_factors, zk.n_points)
    u = np.fft.ifftn(shaped, axes=tuple(range(zk.group.rank)))
    psi = np.empty(zk.action.space.size, dtype=complex)
    psi[zk._src] = zk._amp_inv * u.reshape(zk.group.order, zk.n_points)
    return psi


def naive_zak_point(s: TranslationScenario, f, omega, x) -> complex:
    """Defining sum of Z[f](omega)(x) at any x in G and omega in G^, one
    term per member of Gamma."""
    G = s.G
    return sum(f[G.index(elem_sub(G, x, g))]
               * np.conj(character(G, g, omega)) for g in s.gamma.members)


def naive_zakG(s: TranslationScenario, f) -> np.ndarray:
    """Defining sum of the subgroup-translation Zak transform."""
    return np.array([[naive_zak_point(s, f, om, x) for x in s.coset_reps]
                     for om in s.dual_reps], dtype=complex)


def dense(a: QuasiInvariantAction, gens) -> Factorization:
    """The oracle's one factorization of the orbit system of ``gens``."""
    return factor(synthesis_matrix(a, gens))


def dense_membership(a: QuasiInvariantAction, f, gens):
    """(member, residual) of f by the oracle: sqrt(mu) f against the
    retained left singular vectors of ``dense(a, gens)``."""
    b = np.sqrt(a.space.weights) * np.asarray(f, dtype=complex)
    return membership_of_matrix(dense(a, gens), b)


# ---------------------------------------------------------------------------
# fiber arrays given as lists under one set of fiber weights, through the
# generator system of their stack


def stacked(fibers, w) -> GeneratorSystem:
    """The generator system of fiber arrays of one shape under the fiber
    weights w, stacked C-ordered along a last axis."""
    return GeneratorSystem(np.stack(fibers, axis=2), w)


def parts_of(fibers, w) -> list[np.ndarray]:
    """``decomp._parts`` of the stacked generators, one fiber array per
    part."""
    parts = _parts(stacked(fibers, w))
    return [parts[:, :, n] for n in range(parts.shape[2])]


def audit_of(fibers, claim, w, tolerance: float = ORTHO_TOL):
    """``decomp._audit`` of the claimed part fibers against the stacked
    generators, both under the fiber weights w; no claim is an empty stack
    on the generators' fibers."""
    parts = stacked(claim or fibers[:1], w)
    return _audit(stacked(fibers, w), parts.stack[:, :, : len(claim)], w,
                  tolerance)


# ---------------------------------------------------------------------------
# element-by-element references for the array code in group, action and
# translation: the tuple loops these modules used before they worked on
# coordinate arrays


def reference_validate(a: QuasiInvariantAction) -> list[str]:
    """Violations found by trying every pair (g1, g2), then the Jacobian
    cocycle in floating point; [] for a valid action."""
    G = a.group
    violations = []
    ident = np.arange(a.space.size)
    zero_row = a.table[G.index(G.zero)]
    if not np.array_equal(zero_row, ident):
        x = int(np.flatnonzero(zero_row != ident)[0])
        violations.append(f"(iii) sigma_0 is not the identity: witness x={x}")
    elements = G.elements()
    for i, g1 in enumerate(elements):
        for j, g2 in enumerate(elements):
            g12 = elem_add(G, g1, g2)
            composed = a.table[i][a.table[j]]
            direct = a.table[G.index(g12)]
            if not np.array_equal(composed, direct):
                x = int(np.flatnonzero(composed != direct)[0])
                violations.append(
                    f"(ii) sigma_{g1} o sigma_{g2} != sigma_{g12}: "
                    f"witness x={x}"
                )
    mu = a.space.weights
    for i, g1 in enumerate(elements):
        j1 = mu[a.table[i]] / mu
        for j, g2 in enumerate(elements):
            g12 = elem_add(G, g1, g2)
            j2 = mu[a.table[j]] / mu
            lhs = mu[a.table[G.index(g12)]] / mu
            rhs = j1[a.table[j]] * j2
            dev = np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300)
            if np.any(dev > 1e-12):
                x = int(np.argmax(dev))
                violations.append(
                    f"cocycle J({g12}, x) != "
                    f"J({g1}, sigma_{g2}(x)) * J({g2}, x): witness x={x}"
                )
    return violations


def reference_tiling(a: QuasiInvariantAction) -> np.ndarray:
    """Orbit representatives by a scan over the points; raises
    NotFreeError at the first representative whose orbit collides."""
    seen = np.zeros(a.space.size, dtype=bool)
    reps = []
    for x in range(a.space.size):
        if seen[x]:
            continue
        reps.append(x)
        for gi in range(a.group.order):
            y = int(a.table[gi, x])
            if seen[y]:
                raise NotFreeError(point=x)
            seen[y] = True
    return np.asarray(reps, dtype=np.intp)


def reference_closure(G: FiniteAbelianGroup, gens) -> tuple:
    """Sorted members of the subgroup generated by ``gens``, by BFS."""
    members = {G.zero}
    frontier = [G.zero]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                s = elem_add(G, m, g)
                if s not in members:
                    members.add(s)
                    nxt.append(s)
        frontier = nxt
    return tuple(sorted(members))


def reference_annihilator(G: FiniteAbelianGroup, gens) -> tuple:
    """Dual points whose character is 1 to 1e-9 on every generator."""
    return tuple(d for d in G.elements()
                 if all(abs(character(G, g, d) - 1.0) <= 1e-9 for g in gens))


def reference_cosets(G: FiniteAbelianGroup, members) -> list:
    """Greedy lexicographic scan: the first unseen element of each coset."""
    seen, reps = set(), []
    for el in G.elements():
        if el not in seen:
            reps.append(el)
            seen.update(elem_add(G, el, m) for m in members)
    return reps


def reference_duality(s: TranslationScenario, f, g):
    """(transform, Gramian) deviations of the duality identity, one point
    and one term at a time."""
    G = s.G
    fhat = np.fft.fftn(np.reshape(f, G.invariant_factors)).ravel()
    ghat = np.fft.fftn(np.reshape(g, G.invariant_factors)).ravel()
    dev = gram = 0.0
    for om in s.dual_reps:
        neg_om = elem_neg(G, om)
        shifted = [G.index(elem_add(G, om, d)) for d in s.gamma_star.members]
        Tf, Tg = fhat[shifted], ghat[shifted]
        for x in s.coset_reps:
            lhs = sum(a * np.conj(character(G, x, d)) for a, d
                      in zip(Tf, s.gamma_star.members))
            lhs = lhs * s.gamma.order / G.order
            rhs = character(G, x, om) * naive_zak_point(s, f, neg_om,
                                                        elem_neg(G, x))
            dev = max(dev, abs(lhs - rhs))
        lhs = sum(a * np.conj(b) for a, b in zip(Tf, Tg)) / s.gamma_star.order
        rhs = sum(naive_zak_point(s, f, neg_om, x)
                  * np.conj(naive_zak_point(s, g, neg_om, x))
                  for x in s.coset_reps)
        gram = max(gram, abs(lhs - rhs))
    return dev, gram
