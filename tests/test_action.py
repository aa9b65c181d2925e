import warnings

import numpy as np
import pytest

from zakfiber import (
    FiniteAbelianGroup,
    NotFreeError,
    QuasiInvariantAction,
    WeightedSpace,
    affine_action,
    tiling_transversal,
    validate_action,
)

from helpers import delta, naive_apply, random_complex, s1_action, s2_action


def test_weighted_space_positivity():
    with pytest.raises(ValueError):
        WeightedSpace([1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        WeightedSpace([1.0, -3.0])
    with pytest.raises(ValueError):
        WeightedSpace([])
    # a non-finite weight is named, not passed on to fail an SVD later
    with pytest.raises(ValueError, match=r"weights\[2\] must be finite, "
                       r"got inf"):
        WeightedSpace([1, 1, np.inf, 1])
    with pytest.raises(ValueError, match=r"weights\[1\] must be finite, "
                       r"got nan"):
        WeightedSpace([1, np.nan])


def test_weighted_norm_and_inner():
    sp = WeightedSpace([1, 2, 3, 4])
    v = np.array([1, 1j, 0, -1], dtype=complex)
    assert sp.norm_sq(v) == pytest.approx(1 + 2 + 4)
    w = np.array([1, 0, 0, 1], dtype=complex)
    assert sp.inner(v, w) == pytest.approx(1 - 4)


def test_weighted_norm_and_inner_check_lengths():
    sp = WeightedSpace([1, 2, 3])
    with pytest.raises(ValueError, match=r"^expected 3 values, got shape "
                       r"\(2,\)$"):
        sp.norm_sq(np.ones(2))
    for f, g in ((np.ones(2), np.ones(3)), (np.ones(3), np.ones(4))):
        with pytest.raises(ValueError, match="^function length does not "
                           "match the space$"):
            sp.inner(f, g)


def test_apply_checks_the_length():
    with pytest.raises(ValueError, match=r"^expected 4 values, got shape "
                       r"\(5,\)$"):
        s2_action().apply([1], np.ones(5))


def test_table_structure_errors():
    G = FiniteAbelianGroup([2])
    sp = WeightedSpace([1, 1, 1])
    with pytest.raises(ValueError):
        # row repeats a point, so it is not a permutation
        QuasiInvariantAction(G, sp, [[0, 1, 2], [0, 0, 2]])
    with pytest.raises(ValueError):
        # wrong number of rows
        QuasiInvariantAction(G, sp, [[0, 1, 2]])
    with pytest.raises(ValueError, match="table row 1 "):
        # truncated, row 1 would be the swap
        QuasiInvariantAction(G, WeightedSpace([1, 1]),
                             [[0.0, 1.0], [1.9, 0.2]])
    # bool and complex entries are no point indices, even when their
    # values are; integral floats are
    for table, dtype in (([[False, True], [True, False]], "bool"),
                         ([[0j, 1], [1, 0]], "complex128")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"table dtype {dtype} "):
                QuasiInvariantAction(G, WeightedSpace([1, 1]), table)
    swap = QuasiInvariantAction(G, WeightedSpace([1, 1]), [[0.0, 1], [1, 0]])
    assert swap.table.dtype == np.intp and validate_action(swap).ok


@pytest.mark.parametrize(
    "entry, dtype",
    [(2 ** bits + 3, dtype) for bits in (8, 16, 32)
     for dtype in (np.int64, np.uint64)]
    + [(3 - 2 ** bits, np.int64) for bits in (8, 16, 32)]
    + [(2 ** 64 + 3 - 2 ** bits, np.uint64) for bits in (8, 16)])
def test_table_entry_that_wraps_in_32_bits_is_rejected(entry, dtype):
    # the entry is 3 mod 2**8, so row 1 would read as the double swap
    # [1, 0, 3, 2] in 8 bits, the narrowest width that holds 0..3
    table = np.array([[0, 1, 2, 3], [1, 0, entry, 2]], dtype=dtype)
    assert np.array_equal(table.astype(np.uint8)[1], [1, 0, 3, 2])
    with pytest.raises(ValueError, match="table row 1 is not a permutation"):
        QuasiInvariantAction(FiniteAbelianGroup([2]),
                             WeightedSpace(np.ones(4)), table)


@pytest.mark.parametrize("n", [255, 256, 257, 65536, 65537])
def test_tables_at_the_narrow_width_boundaries(n):
    G, space = FiniteAbelianGroup([2]), WeightedSpace(np.ones(n))
    table = np.array([np.arange(n), np.roll(np.arange(n), 1)])
    action = QuasiInvariantAction(G, space, table)
    assert action.table.dtype == np.intp
    assert np.array_equal(action.table, table)
    # in row 1, which reads [n - 1, 0, 1, ...]: a duplicate, N in place of
    # 0, and entries that wrap onto n - 1 in 8, 16 or 32 bits
    cases = [(0, n - 2), (1, n)] + [(0, n - 1 + s * 2 ** bits)
                                    for bits in (8, 16, 32) for s in (1, -1)]
    for col, entry in cases:
        bad = table.copy()
        bad[1, col] = entry
        with pytest.raises(ValueError,
                           match="table row 1 is not a permutation"):
            QuasiInvariantAction(G, space, bad)


def test_validate_ok_on_fixtures():
    assert validate_action(s1_action()).ok
    assert validate_action(s2_action()).ok


def test_validate_flags_bad_identity():
    G = FiniteAbelianGroup([2])
    sp = WeightedSpace([1, 1])
    a = QuasiInvariantAction(G, sp, [[1, 0], [0, 1]])
    report = validate_action(a)
    assert not report.ok
    assert any("(iii)" in v for v in report.violations)


def test_validate_flags_bad_composition():
    G = FiniteAbelianGroup([4])
    sp = WeightedSpace(np.ones(4))
    # sigma_1 is a transposition, so sigma_1 o sigma_1 = id != sigma_2
    table = [[0, 1, 2, 3], [1, 0, 2, 3], [1, 2, 3, 0], [3, 0, 1, 2]]
    report = validate_action(QuasiInvariantAction(G, sp, table))
    assert not report.ok
    assert any("(ii)" in v for v in report.violations)


def test_jacobian_values():
    a1 = s1_action()
    for g in a1.group.elements():
        assert np.allclose(a1.jacobian_row(g), 1.0)
    a2 = s2_action()
    assert a2.jacobian((1,), 0) == pytest.approx(4.0)
    assert a2.jacobian((1,), 3) == pytest.approx(0.25)
    assert a2.jacobian((0,), 2) == pytest.approx(1.0)


def test_jacobian_cocycle():
    for a in (s1_action(), s2_action()):
        G = a.group
        for g1 in G.elements():
            for g2 in G.elements():
                lhs = a.jacobian_row(G.add(g1, g2))
                rhs = a.jacobian_row(g1)[a.sigma(g2)] * a.jacobian_row(g2)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_transversal_fixtures():
    for a in (s1_action(), s2_action()):
        points = tiling_transversal(a)
        assert list(points) == [0, 1]
        # the orbits of the representatives tile the space
        assert sorted(a.table[:, points].ravel()) == list(range(a.space.size))


def test_transversal_not_free():
    G = FiniteAbelianGroup([2])
    sp = WeightedSpace([1.0])
    a = QuasiInvariantAction(G, sp, [[0], [0]])
    assert validate_action(a).ok  # a legal action, just not free
    with pytest.raises(NotFreeError) as exc:
        tiling_transversal(a)
    assert exc.value.point == 0


def test_apply_known_values():
    a = s1_action()
    out = a.apply((1,), delta(8, 0))
    assert np.allclose(out, delta(8, 2), atol=1e-12)
    assert np.allclose(a.apply((0,), delta(8, 5)), delta(8, 5))
    a2 = s2_action()
    out2 = a2.apply((1,), delta(4, 0))
    expected = 0.5 * delta(4, 3)
    assert np.allclose(out2, expected, atol=1e-12)


def test_apply_matches_naive():
    rng = np.random.default_rng(5)
    for a in (s1_action(), s2_action()):
        for _ in range(10):
            psi = random_complex(rng, a.space.size)
            for g in a.group.elements():
                assert np.max(np.abs(a.apply(g, psi)
                                     - naive_apply(a, g, psi))) < 1e-12


def test_representation_is_unitary():
    rng = np.random.default_rng(9)
    for a in (s1_action(), s2_action()):
        for _ in range(100):
            psi = random_complex(rng, a.space.size)
            n0 = a.space.norm_sq(psi)
            for g in a.group.elements():
                n1 = a.space.norm_sq(a.apply(g, psi))
                assert abs(n1 - n0) <= 1e-12 * max(1.0, n0)


def test_representation_is_homomorphism():
    rng = np.random.default_rng(13)
    for a in (s1_action(), s2_action()):
        G = a.group
        psi = random_complex(rng, a.space.size)
        for g1 in G.elements():
            for g2 in G.elements():
                lhs = a.apply(g1, a.apply(g2, psi))
                rhs = a.apply(G.add(g1, g2), psi)
                assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_affine_expansion_matches_table():
    G = FiniteAbelianGroup([4])
    sp = WeightedSpace(np.ones(8))
    a = affine_action(G, sp, [2])
    xs = np.arange(8)
    for gi, g in enumerate(G.elements()):
        assert np.array_equal(a.table[gi], (xs + 2 * g[0]) % 8)
    assert validate_action(a).ok


def test_affine_rejects_incompatible_multiplier():
    G = FiniteAbelianGroup([4])
    sp = WeightedSpace(np.ones(8))
    with pytest.raises(ValueError):
        affine_action(G, sp, [3])  # 3*4 = 12 is not 0 mod 8
    with pytest.raises(ValueError):
        affine_action(G, sp, [2, 1])  # wrong arity


def test_validate_spread_weights_is_ok():
    # a valid action; weight ratios near the float range used to raise
    # false alarms in a floating-point cocycle pass
    a = affine_action(FiniteAbelianGroup([3]),
                      WeightedSpace([1e-170, 1e-10, 1e170]), [1])
    report = validate_action(a)
    assert report.ok and report.violations == []
