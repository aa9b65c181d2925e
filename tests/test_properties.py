"""Property tests: the array code in group, action and translation against
the element-by-element references in helpers, the action table's row
check against an int64 sort, ``forward_many`` against
one ``forward`` per generator, ``verify`` on random free actions and
``verify`` and ``decompose`` on random translation scenarios, and the
Parseval decomposition against the range function near the rank cut.

Hypothesis runs derandomized, so every run checks the same examples.
Groups have one to three invariant factors, factors of 1 included.
"""

import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zakfiber import (
    FiberedVector,
    FiniteAbelianGroup,
    NotFreeError,
    QuasiInvariantAction,
    WeightedSpace,
    ZakTransform,
    affine_action,
    annihilator,
    build_scenario,
    coset_transversal,
    duality_check,
    frame_check,
    parseval_decompose,
    range_from_generators,
    riesz_check,
    subgroup_from_generators,
    tiling_transversal,
    validate_action,
    verify_decomposition,
    weil_check,
)

from zakfiber.cli import run

from helpers import random_complex, reference_annihilator, \
    reference_closure, reference_cosets, reference_duality, \
    reference_tiling, reference_validate, strided_forward_many, \
    strided_inverse

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)


@st.composite
def groups(draw, max_order, min_rank=1):
    factors = []
    for _ in range(draw(st.integers(min_rank, 3))):
        budget = max_order // math.prod(factors)
        factors.append(draw(st.integers(1, max(1, min(budget, 12)))))
    return FiniteAbelianGroup(factors)


def elements(G):
    return st.tuples(*(st.integers(0, n - 1) for n in G.invariant_factors))


@st.composite
def tables(draw):
    """(group, table): an affine or a free action, possibly relabelled,
    possibly corrupted by a swap in one row or in sigma_0."""
    G = draw(groups(max_order=16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    els = G.elements()
    if draw(st.booleans()):
        N = draw(st.integers(1, 16))
        ms = [draw(st.integers(0, 3)) * (N // math.gcd(N, n))
              for n in G.invariant_factors]
        table = np.array([[(x + sum(m * g for m, g in zip(ms, el))) % N
                           for x in range(N)] for el in els])
    else:
        c = draw(st.integers(1, 3))   # translation on G x {0..c-1}
        table = np.array([[G.index(G.add(g, x)) * c + k
                           for x in els for k in range(c)] for g in els])
    N = table.shape[1]
    if draw(st.booleans()):
        perm = rng.permutation(N)
        table = perm[table[:, np.argsort(perm)]]
    corruption = draw(st.sampled_from(["none", "none", "swap", "sigma0"]))
    if corruption != "none" and N >= 2:
        row = 0 if corruption == "sigma0" else int(rng.integers(G.order))
        i, j = rng.choice(N, size=2, replace=False)
        table[row, [i, j]] = table[row, [j, i]]
    return G, table


def _action(G, table):
    weights = 10.0 ** np.random.default_rng(0).uniform(-3, 3, table.shape[1])
    return QuasiInvariantAction(G, WeightedSpace(weights), table)


def _is_subsequence(short, long):
    it = iter(long)
    return all(line in it for line in short)


@PROPERTY
@given(tables())
def test_validate_agrees_with_pairwise_reference(case):
    a = _action(*case)
    report = validate_action(a)
    reference = reference_validate(a)
    assert report.ok == (not reference)
    if not report.ok:
        laws = [v for v in reference if v.startswith(("(ii)", "(iii)"))]
        assert report.violations and _is_subsequence(report.violations, laws)


@PROPERTY
@given(tables())
def test_tiling_transversal_agrees_with_scan(case):
    a = _action(*case)
    if not validate_action(a).ok:
        return
    try:
        expected = reference_tiling(a)
    except NotFreeError as e:
        with pytest.raises(NotFreeError) as got:
            tiling_transversal(a)
        assert got.value.point == e.point
        return
    points = tiling_transversal(a)
    assert np.array_equal(points, expected)
    assert sorted(a.table[:, points].ravel()) == list(range(a.space.size))


@st.composite
def permutation_tables(draw):
    """(group, table): random permutation rows of N points, N small or at
    the 8- and 16-bit boundaries, in a random integer dtype, with at most
    one entry corrupted to a duplicate, N, -1, N + 2**8 or N + 2**16."""
    G = FiniteAbelianGroup([draw(st.integers(1, 4))])
    N = draw(st.one_of(st.integers(1, 40),
                       st.sampled_from([255, 256, 257, 65536, 65537])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.permuted(np.tile(np.arange(N), (G.order, 1)), axis=1)
    corruption = draw(st.sampled_from(
        ["none", "duplicate", N, -1, N + 2**8, N + 2**16]))
    if corruption != "none" and (corruption != "duplicate" or N >= 2):
        row, col = int(rng.integers(G.order)), int(rng.integers(N))
        table[row, col] = (table[row, col - 1] if corruption == "duplicate"
                           else corruption)
    signed = [np.int64, np.int32]
    dtype = draw(st.sampled_from(
        signed + [np.uint64, np.uint32] if table.min() >= 0 else signed))
    return G, table.astype(dtype)


@PROPERTY
@given(permutation_tables())
def test_table_check_agrees_with_an_int64_sort(case):
    G, table = case
    N = table.shape[1]
    flagged = np.flatnonzero(np.any(
        np.sort(table.astype(np.int64), axis=1) != np.arange(N), axis=1))
    space = WeightedSpace(np.ones(N))
    if flagged.size:
        with pytest.raises(ValueError, match=f"^table row {flagged[0]} is "
                           f"not a permutation of 0..{N - 1}$"):
            QuasiInvariantAction(G, space, table)
    else:
        action = QuasiInvariantAction(G, space, table)
        assert action.table.dtype == np.intp
        assert np.array_equal(action.table, table)


@PROPERTY
@given(groups(max_order=16), st.data())
def test_affine_action_reduces_multipliers(G, data):
    N = data.draw(st.integers(1, 16))
    ms = [data.draw(st.integers(0, 3)) * (N // math.gcd(N, n))
          for n in G.invariant_factors]
    huge = [m + N * 2**70 for m in ms]
    space = WeightedSpace(np.ones(N))
    table = affine_action(G, space, ms).table
    assert np.array_equal(affine_action(G, space, huge).table, table)
    shift = G.coordinates @ np.asarray(ms, dtype=np.intp)
    assert np.array_equal(table, (np.arange(N) + shift[:, None]) % N)


@st.composite
def affine_cases(draw):
    """(group, N, multipliers) of a well-defined affine action: N is a
    multiple of |G|, of lcm(n_j) or neither, and multipliers may be
    negative or at least N."""
    factors = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    G = FiniteAbelianGroup(factors)
    kind = draw(st.sampled_from(["order", "lcm", "any"]))
    if kind == "any":
        N = draw(st.integers(1, 24))
    else:
        N = (G.order if kind == "order" else math.lcm(*factors)) \
            * draw(st.integers(1, 3))
    ms = [draw(st.integers(-8, 8)) * (N // math.gcd(N, n))
          + draw(st.integers(-2, 2)) * N for n in factors]
    return G, N, ms


@PROPERTY
@given(affine_cases())
def test_symbolic_affine_action_matches_its_table(case):
    G, N, ms = case
    weights = 10.0 ** np.random.default_rng(N).uniform(-3, 3, N)
    a = affine_action(G, WeightedSpace(weights), ms)
    expanded = QuasiInvariantAction(G, a.space, a.table)
    # the symbolic validation skips the laws that the table obeys
    assert validate_action(a).ok and validate_action(expanded).ok
    try:
        expected = tiling_transversal(expanded)
    except NotFreeError as e:
        with pytest.raises(NotFreeError) as got:
            tiling_transversal(a)
        assert got.value.point == e.point
        return
    points = tiling_transversal(a)
    assert points.dtype == expected.dtype
    assert np.array_equal(points, expected)
    src, ref = ZakTransform(a)._src, ZakTransform(expanded)._src
    assert src.dtype == ref.dtype and src.flags.f_contiguous
    assert np.array_equal(src, ref)


@PROPERTY
@given(groups(max_order=36), st.data())
def test_subgroup_structure_agrees_with_references(G, data):
    def rows(a):
        return [tuple(r) for r in a.tolist()]

    gens = data.draw(st.lists(elements(G), max_size=3))
    sub = subgroup_from_generators(G, gens)
    assert tuple(rows(sub.members)) == reference_closure(G, gens)
    ann = annihilator(G, sub)
    assert tuple(rows(ann.members)) == reference_annihilator(G,
                                                             gens or [G.zero])
    assert rows(coset_transversal(G, sub)) == reference_cosets(G, sub.members)
    assert rows(coset_transversal(G, ann)) == reference_cosets(G, ann.members)


@PROPERTY
@given(groups(max_order=24), st.data())
def test_duality_agrees_with_scalar_reference(G, data):
    gens = data.draw(st.lists(elements(G), max_size=2))
    s = build_scenario(G, gens)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    fs = [random_complex(rng, G.order)
          for _ in range(data.draw(st.integers(1, 4)))]
    rep = duality_check(s, fs)
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            dev, gram = reference_duality(s, f, g)
            scale = float(np.sum(np.abs(f)) * max(1.0, np.sum(np.abs(g))))
            assert abs(rep.transform_deviation[i] - dev) <= 1e-12 * scale
            assert abs(rep.gramian_deviation[i, j] - gram) <= 1e-12 * scale
    f = fs[0]
    scale = float(np.sum(np.abs(f)) * max(1.0, np.sum(np.abs(f))))
    coset_sum = sum(f[G.index(G.add(x, c))]
                    for x in s.coset_reps for c in s.gamma.members)
    assert abs(weil_check(s, f)[1] - coset_sum) <= 1e-12 * scale


def _free_table(G, c, rng):
    """Translation on G x {0..c-1}, the points relabelled at random."""
    els = G.elements()
    table = np.array([[G.index(G.add(g, x)) * c + k
                       for x in els for k in range(c)] for g in els])
    perm = rng.permutation(table.shape[1])
    return perm[table[:, np.argsort(perm)]]


@st.composite
def free_actions(draw):
    """A free action: an affine one of a cyclic group given by coprime
    factors, or an explicit table of any group, with random weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(1, 3))
    if draw(st.booleans()):
        factors = draw(st.sampled_from([(1,), (6,), (7,), (8,), (12,),
                                        (2, 3), (4, 3), (5, 2), (9, 2),
                                        (3, 1, 4), (2, 3, 5)]))
        G = FiniteAbelianGroup(factors)
        N = G.order * c
        # gamma -> sum_j (|G|/n_j) u_j gamma_j is injective on coprime
        # factors when each u_j is a unit mod n_j
        units = [draw(st.sampled_from([u for u in range(1, n + 1)
                                       if math.gcd(u, n) == 1]))
                 for n in factors]
        ms = [c * (G.order // n) * u + draw(st.integers(-1, 1)) * N
              for n, u in zip(factors, units)]
        weights = 10.0 ** rng.uniform(-3, 3, N)
        return affine_action(G, WeightedSpace(weights), ms), rng
    G = draw(groups(max_order=16))
    table = _free_table(G, c, rng)
    weights = 10.0 ** rng.uniform(-3, 3, table.shape[1])
    return QuasiInvariantAction(G, WeightedSpace(weights), table), rng


def _assert_forward_many(fib, gens):
    stack, weights = fib.forward_many(gens)
    fibered = [fib.forward(g) for g in gens]
    assert stack.shape[2] == len(gens)
    for j, fv in enumerate(fibered):
        # the same bits in the same layout, on which later sums depend
        assert stack[:, :, j].tobytes() == fv.fibers.tobytes()
        layout = [(a.flags.c_contiguous, a.flags.f_contiguous)
                  for a in (stack[:, :, j], fv.fibers)]
        assert layout[0] == layout[1]
    assert np.array_equal(weights, fibered[0].fiber_weights)


@PROPERTY
@given(free_actions(), st.integers(1, 6))
def test_forward_many_is_the_stack_of_forwards(case, k):
    action, rng = case
    gens = [random_complex(rng, action.space.size) for _ in range(k)]
    _assert_forward_many(ZakTransform(action), gens)


@PROPERTY
@given(groups(max_order=36, min_rank=2), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_forward_and_inverse_keep_the_bits_of_strided_fft_lines(G, c, seed,
                                                                k):
    # on a group of rank >= 2 both FFTs run on a C-ordered copy; each FFT
    # line keeps the bits it has in the Fortran-ordered layout
    rng = np.random.default_rng(seed)
    table = _free_table(G, c, rng)
    weights = 10.0 ** rng.uniform(-3, 3, table.shape[1])
    zk = ZakTransform(QuasiInvariantAction(G, WeightedSpace(weights), table))
    gens = [random_complex(rng, table.shape[1]) for _ in range(k)]
    stack = zk.forward_many(gens)[0]
    assert stack.tobytes() == strided_forward_many(zk, gens).tobytes()
    for fibers in (stack[:, :, 0], np.ascontiguousarray(stack[:, :, -1])):
        psi = zk.inverse(FiberedVector(fibers, zk.fiber_weights))
        assert psi.tobytes() == strided_inverse(zk, fibers).tobytes()


@PROPERTY
@given(groups(max_order=16), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.integers(1, 4), st.booleans())
def test_relabelling_keeps_each_fibers_dims_and_spectrum(G, c, seed, k,
                                                         dependent):
    # relabelling the points by pi may pick other orbit representatives,
    # which moves each fiber by a unitary map: its Gram spectrum stays
    rng = np.random.default_rng(seed)
    table = _free_table(G, c, rng)
    N = table.shape[1]
    weights = 10.0 ** rng.uniform(-3, 3, N)
    gens = [random_complex(rng, N) for _ in range(k)]
    if dependent:
        gens.append(sum(complex(*rng.normal(size=2)) * g for g in gens))
    pi = rng.permutation(N)
    moved_weights, moved = np.empty(N), [np.empty(N, complex) for _ in gens]
    moved_weights[pi] = weights
    for h, g in zip(moved, gens):
        h[pi] = g
    J, K = (range_from_generators(ZakTransform(QuasiInvariantAction(
        G, WeightedSpace(w), t)), gs)
        for w, t, gs in ((weights, table, gens),
                         (moved_weights, pi[table[:, np.argsort(pi)]], moved)))
    assert np.array_equal(J.dims, K.dims)
    assert np.all(np.abs(J.s2 - K.s2) <= 1e-13 * J.s2[:, :1])


@PROPERTY
@given(groups(max_order=24), st.data(), st.integers(1, 6))
def test_translation_forward_many_is_the_stack_of_forwards(G, data, k):
    s = build_scenario(G, data.draw(st.lists(elements(G), max_size=3)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    _assert_forward_many(s, [random_complex(rng, G.order) for _ in range(k)])


@PROPERTY
@given(groups(max_order=24), st.data(), st.integers(1, 3))
def test_translation_is_the_action_of_the_subgroup(G, data, k):
    # translation by <d_i e_i> on prod Z_{n_i} is the action of
    # H = prod Z_{n_i / gcd(d_i, n_i)} by x -> x + sum k_i d_i e_i, and
    # both routes give it the same bounds and fiber dimensions
    ds = [data.draw(st.integers(0, n - 1)) for n in G.invariant_factors]
    s = build_scenario(G, np.diag(ds))
    H = FiniteAbelianGroup([n // math.gcd(d, n)
                            for d, n in zip(ds, G.invariant_factors)])
    table = G.flat(G.coordinates + (H.coordinates * ds)[:, None, :])
    action = QuasiInvariantAction(H, WeightedSpace(np.ones(G.order)), table)
    assert validate_action(action).ok
    assert np.array_equal(tiling_transversal(action), G.flat(s.coset_reps))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    gens = [random_complex(rng, G.order) for _ in range(k)]
    zk = ZakTransform(action)
    for check in (frame_check, riesz_check):
        ours, theirs = check(zk, gens), check(s, gens)
        assert sorted(ours.dims) == sorted(theirs.dims)
        for a, b in ((ours.lower, theirs.lower), (ours.upper, theirs.upper)):
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@st.composite
def verify_scenarios(draw):
    """(scenario document, action, generators): a free action of a random
    group on G x {0..c-1}, relabelled, with weights over six decades and
    dense, sparse, zero, dependent and near-dependent generators, plus a
    random candidate and one in the span."""
    G = draw(groups(max_order=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = _free_table(G, draw(st.integers(1, 3)), rng)
    N = table.shape[1]
    weights = 10.0 ** rng.uniform(-3, 3, N)
    gens = []
    for kind in draw(st.lists(st.sampled_from(["near", "dense", "sparse",
                                               "zero", "dependent"]),
                              min_size=2, max_size=3)):
        if kind == "dense" or (not gens and kind != "zero"):
            g = random_complex(rng, N)
        elif kind == "sparse":
            g = np.zeros(N, dtype=complex)
            g[rng.integers(N)] = complex(*rng.normal(size=2))
        elif kind == "zero":
            g = np.zeros(N, dtype=complex)
        elif kind == "dependent":
            g = sum(complex(*rng.normal(size=2)) * h for h in gens)
        else:
            eps = draw(st.sampled_from([1e-5, 1e-6, 1e-3, 1e-9, 1e-15]))
            h = random_complex(rng, N)
            g = gens[-1] + eps * np.linalg.norm(gens[-1]) \
                / np.linalg.norm(h) * h
        gens.append(g)
    cands = [random_complex(rng, N),
             sum(complex(*rng.normal(size=2)) * g for g in gens)]
    doc = {
        "schema_version": 1,
        "name": "property",
        "group": {"invariant_factors": list(G.invariant_factors)},
        "space": {"size": N, "weights": weights.tolist()},
        "action": {"table": table.tolist()},
        "generators": [[[z.real, z.imag] for z in g] for g in gens],
        "candidates": [[[z.real, z.imag] for z in v] for v in cands],
    }
    action = QuasiInvariantAction(G, WeightedSpace(weights), table)
    return doc, action, gens


@PROPERTY
@given(verify_scenarios())
def test_verify_agrees_off_the_rank_cut(case):
    # the routes cut sigma at RANK_TOL * sigma_max; a spectrum with no
    # value between 1e-13 and 1e-7 of the largest is far from that cut on
    # both sides, and there the routes must agree
    doc, action, gens = case
    zk = ZakTransform(action)
    stack = np.stack([zk.forward(g).fibers for g in gens], axis=2)
    s = np.linalg.svd(np.sqrt(zk.fiber_weights)[:, None] * stack,
                      compute_uv=False)
    smax = s.max()
    if np.any((s < 1e-7 * smax) & (s > 1e-13 * smax)):
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        code = run(["verify", "--scenario", str(path)], out=out, err=err)
    assert code == 0, out.getvalue() + err.getvalue()


@st.composite
def translation_scenarios(draw):
    """(scenario document, generator count): translation by a subgroup of
    a random group of order <= 96, given by a list of elements that may be
    empty, zero, repeated, dependent or off the diagonal, with dense,
    sparse, zero and dependent generators, plus a random candidate and one
    in the span."""
    G = draw(groups(max_order=96))
    sub = draw(st.lists(elements(G), max_size=2))
    for kind in draw(st.lists(st.sampled_from(["zero", "repeated",
                                               "dependent"]), max_size=2)):
        if kind == "zero" or not sub:
            sub.append(G.zero)
        elif kind == "repeated":
            sub.append(draw(st.sampled_from(sub)))
        else:
            sub.append(G.add(draw(st.sampled_from(sub)),
                             draw(st.sampled_from(sub))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = G.order
    gens = []
    for kind in draw(st.lists(st.sampled_from(["dense", "sparse", "zero",
                                               "dependent"]),
                              min_size=1, max_size=3)):
        if kind == "dense" or (not gens and kind == "dependent"):
            g = random_complex(rng, N)
        elif kind == "sparse":
            g = np.zeros(N, dtype=complex)
            g[rng.integers(N)] = complex(*rng.normal(size=2))
        elif kind == "zero":
            g = np.zeros(N, dtype=complex)
        else:
            g = sum(complex(*rng.normal(size=2)) * h for h in gens)
        gens.append(g)
    cands = [random_complex(rng, N),
             sum(complex(*rng.normal(size=2)) * g for g in gens)]
    doc = {
        "schema_version": 1,
        "name": "property",
        "translation": {
            "group_factors": list(G.invariant_factors),
            "subgroup_generators": [list(x) for x in sub],
            "generators": [[[z.real, z.imag] for z in g] for g in gens],
            "candidates": [[[z.real, z.imag] for z in v] for v in cands],
        },
    }
    return doc, len(gens)


@PROPERTY
@given(translation_scenarios())
def test_verify_and_decompose_pass_on_translation_scenarios(case):
    # the two routes agree on every check, and verify judges each
    # generator's own membership on translations as on actions
    doc, k = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        outputs = {}
        for command in ("verify", "decompose"):
            out, err = io.StringIO(), io.StringIO()
            code = run([command, "--scenario", str(path)], out=out, err=err)
            assert code == 0, (command, out.getvalue() + err.getvalue())
            outputs[command] = json.loads(out.getvalue())
    checks = outputs["verify"]["checks"]
    assert all(c["ok"] for c in checks)
    names = [c["name"] for c in checks]
    for i in range(k):
        assert names.count(f"membership_vs_dense_gen{i}") == 1


@PROPERTY
@given(free_actions(), st.lists(st.sampled_from(
    [1e-11, 9e-11, 1.2e-10, 1.5e-10, 2e-10, 3e-10, 1e-9, 1e-6, 0.0]),
    min_size=1, max_size=3))
def test_decomposition_has_the_range_dims_near_the_rank_cut(case, eps):
    # each generator moves the one before it by a relative eps, so the
    # fiber spectra fall near RANK_TOL * sigma_max; on every fiber the
    # decomposition keeps exactly as many parts as J(alpha) has dimensions
    action, rng = case
    N = action.space.size
    gens = [random_complex(rng, N)]
    for e in eps:
        h = random_complex(rng, N)
        gens.append(gens[-1] + e * np.linalg.norm(gens[-1])
                    / np.linalg.norm(h) * h)
    zk = ZakTransform(action)
    dims = range_from_generators(zk, gens).dims
    parts = parseval_decompose(zk, gens)
    # a part's fiber norms are 0 or 1, up to rounding
    counts = sum((zk.forward(p).fiber_norms_sq() > 0.5).astype(int)
                 for p in parts)
    assert np.array_equal(counts, dims)


@PROPERTY
@given(free_actions(), st.integers(1, 4))
def test_audit_passes_where_generators_vanish_on_fibers(case, k):
    # generators whose transform is zero on a random subset of fibers: the
    # parts carry rounding dust there after the round trip, which the
    # audit's dimension count must cut as its Parseval check does
    action, rng = case
    zk = ZakTransform(action)
    gens = []
    for _ in range(k):
        fv = zk.forward(random_complex(rng, action.space.size))
        fv.fibers[rng.random(zk.n_fibers) < 0.5] = 0.0
        gens.append(zk.inverse(fv))
    dims = range_from_generators(zk, gens).dims
    check = verify_decomposition(zk, gens, parseval_decompose(zk, gens))
    assert check.ok
    assert check.dim_rows == [(int(d), int(d)) for d in dims]
    assert all(type(v) is int for row in check.dim_rows for v in row)
