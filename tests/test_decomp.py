import tracemalloc

import numpy as np
import pytest

from zakfiber import FiniteAbelianGroup, QuasiInvariantAction, \
    WeightedSpace, ZakTransform, fixture_path, frame_check, \
    parse_scenario, parseval_decompose, range_from_generators, riesz_check, \
    verify_decomposition
from zakfiber.ranges import generator_system
from zakfiber.zak import FiberedVector

from helpers import audit_of, delta, parts_of, random_complex, s1_action, \
    s2_action, star_generator


def test_orthonormal_deltas_pass_through():
    a = s1_action()
    zk = ZakTransform(a)
    gens = [delta(8, 0), delta(8, 1)]
    parts = parseval_decompose(zk, gens)
    assert len(parts) == 2
    # the fibers were already orthonormal, so the parts reproduce the
    # generators up to the transform roundtrip
    assert np.max(np.abs(parts[0] - delta(8, 0))) < 1e-12
    assert np.max(np.abs(parts[1] - delta(8, 1))) < 1e-12


def test_dependent_pair_collapses_to_one_part():
    zk = ZakTransform(s1_action())
    gens = [delta(8, 0), delta(8, 0) + delta(8, 2)]
    parts = parseval_decompose(zk, gens)
    assert len(parts) == 1
    check = verify_decomposition(zk, gens, parts)
    assert check.ok
    rep = frame_check(zk, parts)
    assert rep.is_parseval


def test_star_generator_is_fixed_point():
    zk = ZakTransform(s1_action())
    psi = star_generator()
    parts = parseval_decompose(zk, [psi])
    assert len(parts) == 1
    # already a Parseval generator: the algorithm only rescales fibers,
    # and all nonzero fibers of psi have norm one
    assert np.max(np.abs(parts[0] - psi)) < 1e-12


def test_zero_generator_yields_no_parts():
    zk = ZakTransform(s1_action())
    parts = parseval_decompose(zk, [np.zeros(8)])
    assert parts == []
    check = verify_decomposition(zk, [np.zeros(8)], parts)
    assert check.ok
    assert check.dim_rows == [(0, 0)] * 4


def test_audit_random_generators():
    rng = np.random.default_rng(97)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(10):
            n_gens = int(rng.integers(1, 4))
            gens = [random_complex(rng, a.space.size) for _ in range(n_gens)]
            parts = parseval_decompose(zk, gens)
            check = verify_decomposition(zk, gens, parts)
            assert check.orthogonality_ok, check.orthogonality_max
            assert check.parseval_ok
            assert check.dims_match, check.dim_rows
            assert check.membership_ok, check.membership_residuals
            assert check.ok
            # the union of the parts is a Parseval frame of the whole space
            rep = frame_check(zk, parts)
            assert rep.is_parseval
            assert abs(rep.lower - 1.0) <= 1e-10
            assert abs(rep.upper - 1.0) <= 1e-10


def test_part_count_equals_length():
    rng = np.random.default_rng(101)
    zk = ZakTransform(s1_action())
    from zakfiber import range_from_generators
    for _ in range(10):
        gens = [random_complex(rng, 8) for _ in range(int(rng.integers(1, 4)))]
        parts = parseval_decompose(zk, gens)
        assert len(parts) == range_from_generators(zk, gens).length()


def test_audit_flags_wrong_claims():
    zk = ZakTransform(s1_action())
    gens = [delta(8, 0), delta(8, 1)]
    good = parseval_decompose(zk, gens)

    # dropping a part breaks the dimension count and membership
    check = verify_decomposition(zk, gens, good[:1])
    assert not check.dims_match
    assert not check.membership_ok
    assert not check.ok

    # scaling a part breaks the Parseval fiber norms
    check = verify_decomposition(zk, gens, [2.0 * good[0], good[1]])
    assert not check.parseval_ok
    assert not check.ok

    # duplicating a part breaks orthogonality
    check = verify_decomposition(zk, gens, [good[0], good[0]])
    assert not check.orthogonality_ok
    assert not check.ok


def test_fiber_level_entry_points():
    rng = np.random.default_rng(103)
    zk = ZakTransform(s2_action())
    gens = [random_complex(rng, 4) for _ in range(2)]
    gen_fibers = [zk.forward(g) for g in gens]
    parts = parts_of(gen_fibers)
    for p in parts:
        assert isinstance(p, FiberedVector)
        norms = p.fiber_norms_sq()
        on = norms > 1e-10
        assert np.all(np.abs(norms[on] - 1.0) < 1e-10)
    check = audit_of(gen_fibers, parts)
    assert check.ok


def test_audit_rejects_parts_of_another_geometry():
    # parts orthonormal under other fiber weights span the generator
    # fibers, but their fiber norms under the generators' weights are not 1
    rng = np.random.default_rng(107)
    w, other = np.array([1.0, 4.0, 0.5]), np.array([2.0, 1.0, 1.0])
    fibers = [rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
              for _ in range(2)]
    gens = [FiberedVector(f, w) for f in fibers]
    parts = parts_of([FiberedVector(f, other) for f in fibers])
    with pytest.raises(ValueError):
        audit_of(gens, parts)


def test_audit_membership_takes_less_memory_than_the_generator_stack():
    # Z_2 x Z_2 translates 1024 points per orbit, with 24 generators: the
    # generators are projected onto the parts in blocks of columns, so no
    # temporary spans all 24
    G = FiniteAbelianGroup([2, 2])
    c = 1024
    add = G.flat(G.coordinates[:, None, :] + G.coordinates[None, :, :])
    table = (add[:, :, None] * c + np.arange(c)).reshape(G.order, -1)
    rng = np.random.default_rng(24)
    weights = rng.uniform(0.5, 2.0, table.shape[1])
    zk = ZakTransform(QuasiInvariantAction(G, WeightedSpace(weights), table))
    gens = [random_complex(rng, table.shape[1]) for _ in range(24)]
    parts = parseval_decompose(zk, gens)
    check = verify_decomposition(zk, gens, parts)
    system = generator_system(zk, gens)
    J = check.parts_range
    weighted = np.conj(J.basis) * J.fiber_weights[:, None]
    tracemalloc.start()
    try:
        members, residuals = system.membership(J, weighted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert members.all() and residuals.tolist() == check.membership_residuals
    assert peak < system.stack.nbytes


def test_audit_takes_one_fiber_svd(monkeypatch):
    # the generators' ranks come from the SVD the decomposition took; the
    # parts are read off their own Gram, so the audit takes none
    sc = parse_scenario(fixture_path("s1"))
    zk = ZakTransform(sc.action)
    parts = parseval_decompose(zk, sc.generators)
    svd = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.ndim(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    assert verify_decomposition(zk, sc.generators, parts).ok
    assert calls == []


def test_one_generator_system_is_fiberized_and_factored_once(monkeypatch):
    # the thin SVD that frame_check takes first; riesz_check, the range,
    # the decomposition and the audit read it off the memo entry, and the
    # audit fiberizes the parts without replacing the entry
    sc = parse_scenario(fixture_path("s1"))
    zk = ZakTransform(sc.action)
    svd, forward = np.linalg.svd, ZakTransform.forward
    svds, forwards = [], []

    def counting_svd(a, *args, **kwargs):
        svds.append(np.ndim(a))
        return svd(a, *args, **kwargs)

    def counting_forward(self, psi):
        forwards.append(psi)
        return forward(self, psi)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(ZakTransform, "forward", counting_forward)
    frame_check(zk, sc.generators)
    riesz_check(zk, sc.generators)
    range_from_generators(zk, sc.generators)
    parts = parseval_decompose(zk, sc.generators)
    assert verify_decomposition(zk, sc.generators, parts).ok
    frame_check(zk, sc.generators)
    assert svds == [3]
    assert forwards == []


@pytest.mark.parametrize("fixture", ["s1", "s3"])
def test_no_generators_are_refused_with_the_stack_message(fixture):
    sc = parse_scenario(fixture_path(fixture))
    fib = sc.translation or ZakTransform(sc.action)
    parts = parseval_decompose(fib, sc.generators)
    calls = [lambda: frame_check(fib, []), lambda: riesz_check(fib, []),
             lambda: parseval_decompose(fib, []),
             lambda: verify_decomposition(fib, [], parts),
             lambda: fib.forward_many([])]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "at least one fibered generator is required"


def _arrays(result):
    """Every array a library result hands out, parts included."""
    if isinstance(result, list):
        return result
    return [v for v in vars(result).values() if isinstance(v, np.ndarray)]


def _same(a, b):
    xs, ys = _arrays(a), _arrays(b)
    return len(xs) == len(ys) and all(map(np.array_equal, xs, ys))


def test_the_memo_entry_never_leaks_into_results():
    sc = parse_scenario(fixture_path("s1"))
    gens = [g.copy() for g in sc.generators]
    zk = ZakTransform(sc.action)
    calls = [lambda z, g: frame_check(z, g),
             lambda z, g: riesz_check(z, g),
             lambda z, g: range_from_generators(z, g),
             lambda z, g: parseval_decompose(z, g)]
    for call in calls + calls:
        result = call(zk, gens)
        expected = call(ZakTransform(sc.action), gens)
        assert _same(result, expected)
        for a in _arrays(result):
            assert a.flags.writeable
            a[...] = 7
    parts = parseval_decompose(ZakTransform(sc.action), gens)
    check = verify_decomposition(zk, gens, parts)
    expected = verify_decomposition(ZakTransform(sc.action), gens, parts)
    assert check.membership_residuals == expected.membership_residuals
    assert _same(check.parts_range, expected.parts_range)
    assert all(a.flags.writeable for a in _arrays(check.parts_range))
    # a generator changed in place is a new generator system
    before = frame_check(zk, gens)
    gens[0][:] = sc.generators[1]
    after = frame_check(zk, gens)
    assert _same(after, frame_check(ZakTransform(sc.action), gens))
    assert not _same(after, before)


def test_generator_order_is_respected():
    # the first generator survives unscaled in direction: part 0 spans the
    # same fiber lines as generator 0 wherever it is nonzero
    zk = ZakTransform(s1_action())
    g0 = delta(8, 0)
    g1 = delta(8, 0) + delta(8, 1)
    parts = parseval_decompose(zk, [g0, g1])
    assert len(parts) == 2
    Z0 = zk.forward(g0).fibers
    P0 = zk.forward(parts[0]).fibers
    for i in range(4):
        # colinear fibers: cross product of the two 2-vectors vanishes
        assert abs(Z0[i, 0] * P0[i, 1] - Z0[i, 1] * P0[i, 0]) < 1e-12


@pytest.mark.parametrize("e", [-900, -600, -520, 0, 300])
def test_scaled_generators_give_the_same_parts(e):
    # squares of 2**-520-scale fibers are subnormal and of 2**-600-scale
    # ones zero; the factor 1/3 keeps the subnormal squares inexact
    sc = parse_scenario(fixture_path("s1"))
    zk = ZakTransform(sc.action)
    base = [g / 3 for g in sc.generators]
    reference = parseval_decompose(zk, base)
    gens = [2.0 ** e * g for g in base]
    parts = parseval_decompose(zk, gens)
    assert len(parts) == len(reference)
    assert verify_decomposition(zk, gens, parts).ok
    for p, q in zip(parts, reference):
        assert np.array_equal(p, q)
