"""Batched fiber kernels against plain per-fiber loops.

The kernels in frames, ranges and decomp treat the whole fiber stack at
once.  Here each fiber keeps its own subset of generators (some repeated,
some dropped, some fibers entirely zero), so fiber ranks differ, and
every result must equal, bit for bit, a loop that handles one fiber at a
time with a single-matrix SVD or a one-dimensional Gram-Schmidt.
"""

import numpy as np
import pytest

from zakfiber.decomp import parseval_decompose_fibers
from zakfiber.frames import RANK_TOL, SUPPORT_TOL, frame_check_fibers, \
    riesz_check_fibers
from zakfiber.ranges import range_from_fibers
from zakfiber.zak import FiberedVector

SHAPES = [(9, 5, 3), (7, 3, 5), (6, 4, 4), (1, 6, 2), (5, 2, 1)]


def mixed_rank_stack(rng, n_fibers, n_points, n_gens):
    """Generator fibers whose span has a different dimension per fiber."""
    w = rng.uniform(0.5, 2.0, n_points)
    fibers = np.zeros((n_gens, n_fibers, n_points), dtype=complex)
    for i in range(n_fibers):
        kind = i % 4
        if kind == 0:
            continue  # every generator vanishes on this fiber
        for j in range(n_gens):
            if kind == 1 and j % 2:
                continue  # odd generators vanish here
            fibers[j, i] = rng.normal(size=n_points) \
                + 1j * rng.normal(size=n_points)
        if kind == 3 and n_gens > 1:
            # the last generator repeats a combination of the first two
            fibers[-1, i] = 2.0 * fibers[0, i] - 1j * fibers[1, i]
    return [FiberedVector(f, w) for f in fibers], w


def per_fiber_matrices(fibered, w):
    stack = np.stack([fv.fibers for fv in fibered], axis=2)
    return [np.sqrt(w)[:, None] * m for m in stack]


def reference_spectra(fibered, w):
    n_gens = len(fibered)
    s2_rows, dims = [], []
    for B in per_fiber_matrices(fibered, w):
        s = np.linalg.svd(B, compute_uv=False)
        s2 = np.zeros(n_gens)
        s2[: s.size] = s ** 2
        smax = np.sqrt(s2[0])
        dims.append(0 if smax <= 0.0 else
                    int(np.sum(np.sqrt(s2) > RANK_TOL * smax)))
        s2_rows.append(s2)
    return np.array(s2_rows), np.array(dims)


def reference_mgs(fibered, w):
    def wnorm(v):
        return np.sqrt(np.sum(np.abs(v) ** 2 * w))

    n_fibers, n_points = fibered[0].fibers.shape
    survivors = []
    for i in range(n_fibers):
        cols = [fv.fibers[i] for fv in fibered]
        ref = max(wnorm(c) for c in cols)
        accepted = []
        for v in cols:
            r = v.copy()
            for _ in range(2):
                for q in accepted:
                    r -= np.sum(r * np.conj(q) * w) * q
            nr = wnorm(r)
            if nr > RANK_TOL * ref:
                accepted.append(r / nr)
        survivors.append(accepted)
    parts = np.zeros((max(map(len, survivors)), n_fibers, n_points),
                     dtype=complex)
    for i, acc in enumerate(survivors):
        for n, q in enumerate(acc):
            parts[n, i] = q
    return parts


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_spectra_match_per_fiber_svd(shape, seed):
    fibered, w = mixed_rank_stack(np.random.default_rng(seed), *shape)
    s2, dims = reference_spectra(fibered, w)
    assert len(set(dims)) > 1 or shape[0] == 1
    smin2 = np.array([s2[i, d - 1] if d else 0.0 for i, d in enumerate(dims)])
    frame = frame_check_fibers(fibered)
    riesz = riesz_check_fibers(fibered)
    for rep in (frame, riesz):
        assert np.array_equal(rep.dims, dims)
        assert np.array_equal(rep.smax2, s2[:, 0])
        assert np.array_equal(rep.gram_min, s2[:, -1])
        assert np.array_equal(rep.smin2, smin2)
    support = s2[:, 0] > SUPPORT_TOL
    if support.any():
        assert frame.lower == np.min(smin2[support])
        assert frame.upper == riesz.upper == np.max(s2[:, 0])
        assert riesz.lower == np.min(s2[:, -1])
    else:
        assert frame.degenerate and riesz.degenerate


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_range_matches_per_fiber_svd(shape, seed):
    fibered, w = mixed_rank_stack(np.random.default_rng(seed), *shape)
    J = range_from_fibers(fibered)
    inv_sqrtw = 1.0 / np.sqrt(w)
    dims = []
    for i, B in enumerate(per_fiber_matrices(fibered, w)):
        U, s, _ = np.linalg.svd(B, full_matrices=False)
        r = 0 if s[0] <= 0.0 else int(np.sum(s > RANK_TOL * s[0]))
        dims.append(r)
        assert np.array_equal(J.bases[i], inv_sqrtw[:, None] * U[:, :r])
    assert np.array_equal(J.dims, dims)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_decompose_matches_per_fiber_gram_schmidt(shape, seed):
    fibered, w = mixed_rank_stack(np.random.default_rng(seed), *shape)
    parts = parseval_decompose_fibers(fibered)
    expected = reference_mgs(fibered, w)
    assert len(parts) == len(expected)
    for p, e in zip(parts, expected):
        assert np.array_equal(p.fibers, e)
