"""Batched fiber kernels against plain per-fiber loops.

The kernels in frames, ranges and decomp treat the whole fiber stack at
once.  Here each fiber keeps its own subset of generators (some repeated,
some dropped, some fibers entirely zero), so fiber ranks differ, and
every SVD must equal, bit for bit, a loop that handles one fiber at a
time with a single-matrix thin SVD.  The loops apply the rank rule of the
package: a singular value counts when it exceeds RANK_TOL times the
largest over all fibers, and a Gram-Schmidt residual of the generators'
coordinates when it exceeds RANK_TOL times the largest coordinate norm
over all fibers, divided by sqrt(k).  The batched products (projection
onto a range function, the audit's fiber Gram matrix) sum in another
order than a loop, so they match it to 1e-12 relative.  Gram-Schmidt
sums in another order too: the batched kernel projects onto all accepted
vectors at once (classical, with a second pass), the reference loop onto
one at a time (modified), so the two agree on the part count and the
exact zeros, and on the values to 1e-13 absolute.
"""

import itertools

import numpy as np
import pytest

from zakfiber.decomp import parseval_decompose_fibers, \
    verify_decomposition_fibers
from zakfiber.frames import frame_check_fibers, riesz_check_fibers
from zakfiber.ranges import MEMBER_TOL, ORTHO_TOL, RANK_TOL, \
    _project_fibers, membership_fibers, range_from_fibers
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


def tiny_fiber_stack(rng):
    """A mixed-rank stack whose fiber 1 sits 1e-12 below the largest
    singular value of the others: full rank on its own, zero against the
    whole stack."""
    fibered, w = mixed_rank_stack(rng, 6, 4, 3)
    for fv in fibered:
        fv.fibers[1] *= 1e-12
    return fibered, w


def per_fiber_matrices(fibered, w):
    stack = np.stack([fv.fibers for fv in fibered], axis=2)
    return [np.sqrt(w)[:, None] * m for m in stack]


def reference_spectra(fibered, w, per_fiber_cut=False):
    """(s2, dims) one fiber at a time; ``per_fiber_cut`` measures each
    fiber against its own largest singular value instead."""
    n_gens = len(fibered)
    s2_rows = []
    for B in per_fiber_matrices(fibered, w):
        s = np.linalg.svd(B, full_matrices=False)[1]
        s2 = np.zeros(n_gens)
        s2[: s.size] = s ** 2
        s2_rows.append(s2)
    s2 = np.array(s2_rows)
    smax = np.sqrt(s2.max())
    dims = []
    for s in np.sqrt(s2):
        dims.append(int(np.sum(s > RANK_TOL * (s[0] if per_fiber_cut
                                               else smax))))
    return s2, np.array(dims)


def reference_mgs(fibered, w):
    """Parts one fiber at a time: modified Gram-Schmidt, in generator
    order, on the coordinates S V^H of the generators in the thin SVD's
    retained U, lifted back by U / sqrt(w)."""
    svds = [np.linalg.svd(B, full_matrices=False)
            for B in per_fiber_matrices(fibered, w)]
    dims = reference_spectra(fibered, w)[1]
    coords = [(s[:, None] * Vh)[:d] for (_, s, Vh), d in zip(svds, dims)]
    k = len(fibered)
    ref = max(np.linalg.norm(c[:, j]) for c in coords for j in range(k))
    survivors = []
    for (U, _, _), c, d in zip(svds, coords, dims):
        accepted = []
        for v in c.T:
            r = v.copy()
            for _ in range(2):
                for q in accepted:
                    r -= np.vdot(q, r) * q
            nr = np.linalg.norm(r)
            if nr > RANK_TOL * ref / np.sqrt(k):
                accepted.append(r / nr)
        survivors.append([U[:, :d] @ q / np.sqrt(w) for q in accepted])
    n_fibers, n_points = fibered[0].fibers.shape
    parts = np.zeros((max(map(len, survivors)), n_fibers, n_points),
                     dtype=complex)
    for i, acc in enumerate(survivors):
        for n, q in enumerate(acc):
            parts[n, i] = q
    return parts


def check_spectra(fibered, w):
    s2, dims = reference_spectra(fibered, w)
    smin2 = np.array([s2[i, d - 1] if d else 0.0 for i, d in enumerate(dims)])
    # a fiber of rank below the generator count has Gram eigenvalue 0
    gram_min = np.array([s2[i, -1] if d == len(fibered) else 0.0
                         for i, d in enumerate(dims)])
    frame = frame_check_fibers(fibered)
    riesz = riesz_check_fibers(fibered)
    for rep in (frame, riesz):
        assert np.array_equal(rep.dims, dims)
        assert np.array_equal(rep.smax2, s2[:, 0])
        assert np.array_equal(rep.gram_min, gram_min)
        assert np.array_equal(rep.smin2, smin2)
    if np.any(dims > 0):
        assert frame.lower == np.min(smin2[dims > 0])
        assert frame.upper == riesz.upper == np.max(s2[:, 0])
        assert riesz.lower == np.min(gram_min)
    else:
        assert frame.degenerate and riesz.degenerate
    return dims


def check_range(fibered, w):
    J = range_from_fibers(fibered)
    inv_sqrtw = 1.0 / np.sqrt(w)
    svds = [np.linalg.svd(B, full_matrices=False)
            for B in per_fiber_matrices(fibered, w)]
    smax = max(s[0] for _, s, _ in svds)
    dims = []
    for i, (U, s, _) in enumerate(svds):
        r = int(np.sum(s > RANK_TOL * smax))
        dims.append(r)
        assert np.array_equal(J.basis[i, :, :r],
                              inv_sqrtw[:, None] * U[:, :r])
        assert not np.any(J.basis[i, :, r:])
    assert np.array_equal(J.dims, dims)
    assert J.basis.shape == (len(svds), w.size, max(dims))
    assert J.length() == max(dims)


def check_project(fibered, w):
    """Projection and membership against one projection per fiber onto
    the first dims[i] basis columns, for a vector inside the span and a
    random one."""
    J = range_from_fibers(fibered)
    rng = np.random.default_rng(len(w))
    inside = fibered[0].fibers - 2j * fibered[-1].fibers
    noise = rng.normal(size=inside.shape) + 1j * rng.normal(size=inside.shape)
    for v in (inside, noise):
        Phi = FiberedVector(v, w)
        want = np.zeros_like(v)
        for i, d in enumerate(J.dims):
            Q = J.basis[i, :, :d]
            want[i] = Q @ (Q.conj().T @ (w * v[i]))
        scale = max(1.0, np.max(np.abs(v)))
        assert np.max(np.abs(_project_fibers(Phi, J) - want)) \
            <= 1e-12 * scale
        norm = np.sqrt(Phi.norm_sq())
        residual = np.sqrt(np.sum(np.abs(v - want) ** 2 * w) / len(v))
        member, got = membership_fibers(Phi, J)
        assert got == pytest.approx(residual, rel=1e-12,
                                    abs=1e-12 * max(1.0, norm))
        assert member == (residual <= MEMBER_TOL * max(1.0, norm))
    return membership_fibers(FiberedVector(inside, w), J)[0]


def reference_audit(parts):
    """(orthogonality_max, parts_parseval) from one fiber_inner per pair
    of parts and one norm vector per part."""
    ortho = max((float(np.max(np.abs(p.fiber_inner(q))))
                 for p, q in itertools.combinations(parts, 2)), default=0.0)
    parseval = []
    for p in parts:
        norms = p.fiber_norms_sq()
        on = norms > ORTHO_TOL
        parseval.append(bool(on.any())
                        and bool(np.all(np.abs(norms[on] - 1.0) <= ORTHO_TOL)))
    return ortho, parseval


def check_audit(fibered, w):
    """The audit's batched Gram matrix against the pairwise reference, on
    the Gram-Schmidt parts, a rescaled part, a repeated part and the raw
    generators."""
    parts = parseval_decompose_fibers(fibered)
    doubled = [FiberedVector(2.0 * p.fibers, w) for p in parts[:1]] \
        + parts[1:]
    for claim in (parts, doubled, parts + parts[:1], list(fibered), []):
        check = verify_decomposition_fibers(fibered, claim)
        ortho, parseval = reference_audit(claim)
        assert check.orthogonality_max == pytest.approx(ortho, rel=1e-12,
                                                        abs=1e-14)
        assert check.parts_parseval == parseval
    return verify_decomposition_fibers(fibered, parts).ok


def check_decompose(fibered, w):
    parts = parseval_decompose_fibers(fibered)
    expected = reference_mgs(fibered, w)
    assert len(parts) == len(expected)
    for p, e in zip(parts, expected):
        assert np.array_equal(p.fibers == 0, e == 0)
        assert np.max(np.abs(p.fibers - e)) <= 1e-13


def lstsq_distance(claim, fv, w):
    """Root mean over the fibers of the weighted distance of fv from the
    span of the claimed parts, one least-squares solve per fiber."""
    d2 = 0.0
    for B, v in zip(per_fiber_matrices(claim, w), fv.fibers):
        b = np.sqrt(w) * v
        x = np.linalg.lstsq(B, b, rcond=None)[0]
        d2 += np.sum(np.abs(b - B @ x) ** 2)
    return np.sqrt(d2 / len(fv.fibers))


def check_parts_range(fibered, w):
    """The audit's reads of the part stack: its Gram spectrum against one
    SVD per fiber of the weight-scaled parts, and, on claims that are not
    orthonormal, each membership residual against the distance from the
    span of the claim, which projecting onto the claim never understates."""
    parts = parseval_decompose_fibers(fibered)
    J = verify_decomposition_fibers(fibered, parts).parts_range
    n_fibers = fibered[0].n_fibers
    s2 = np.zeros((n_fibers, max(1, len(parts))))
    dims = np.zeros(n_fibers, dtype=int)
    if parts:
        mats = per_fiber_matrices(parts, w)
        s2[:, : len(parts)] = [np.linalg.svd(B, compute_uv=False) ** 2
                               for B in mats]
        dims = [np.linalg.matrix_rank(B) for B in mats]
    assert np.max(np.abs(J.s2 - s2)) <= 1e-14
    assert np.array_equal(J.dims, dims)
    doubled = [FiberedVector(2.0 * p.fibers, w) for p in parts[:1]] \
        + parts[1:]
    for claim in (doubled, parts + parts[:1], list(fibered)):
        if not claim:
            continue
        check = verify_decomposition_fibers(fibered, claim)
        for fv, residual in zip(fibered, check.membership_residuals):
            distance = lstsq_distance(claim, fv, w)
            member, got = membership_fibers(fv, check.parts_range)
            assert got == residual >= distance
            if member:
                assert distance <= MEMBER_TOL * max(1.0, np.sqrt(fv.norm_sq()))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_spectra_match_per_fiber_svd(shape, seed):
    fibered, w = mixed_rank_stack(np.random.default_rng(seed), *shape)
    dims = check_spectra(fibered, w)
    assert len(set(dims)) > 1 or shape[0] == 1


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_range_matches_per_fiber_svd(shape, seed):
    check_range(*mixed_rank_stack(np.random.default_rng(seed), *shape))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_decompose_matches_per_fiber_gram_schmidt(shape, seed):
    check_decompose(*mixed_rank_stack(np.random.default_rng(seed), *shape))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_audit_reads_the_part_stack(shape, seed):
    check_parts_range(*mixed_rank_stack(np.random.default_rng(seed), *shape))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_projection_matches_per_fiber_loop(shape, seed):
    assert check_project(*mixed_rank_stack(np.random.default_rng(seed),
                                           *shape))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("shape", SHAPES)
def test_audit_matches_pairwise_fiber_inner(shape, seed):
    assert check_audit(*mixed_rank_stack(np.random.default_rng(seed),
                                         *shape))


@pytest.mark.parametrize("seed", range(4))
def test_tiny_fiber_falls_under_the_global_cut(seed):
    # the dense spectrum is the union of the fiber spectra, so a fiber
    # whose own rank is full can still lie below the cut of the whole
    fibered, w = tiny_fiber_stack(np.random.default_rng(seed))
    _, dims = reference_spectra(fibered, w)
    _, per_fiber = reference_spectra(fibered, w, per_fiber_cut=True)
    assert dims[1] == 0 < per_fiber[1]
    check_spectra(fibered, w)
    check_range(fibered, w)
    check_decompose(fibered, w)
    assert check_project(fibered, w)
    check_audit(fibered, w)
    check_parts_range(fibered, w)
