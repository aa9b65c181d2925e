import numpy as np
import pytest

from zakfiber import FiniteAbelianGroup, WeightedSpace, ZakTransform, \
    affine_action, build_scenario, character, duality_check, fiberize, \
    frame_check, range_from_generators, riesz_check, weil_check, zak_point
from zakfiber.frames import report_from_spectra
from zakfiber.oracle import factor, riesz_bounds_of_matrix, \
    translation_synthesis_matrix
from zakfiber.ranges import SUPPORT_TOL
from zakfiber.zak import FiberedVector

from helpers import assert_coordinate_rows, delta, naive_zakG, \
    random_complex, s3_scenario


def test_s3_structure():
    s = s3_scenario()
    assert s.gamma.members.tolist() == [[0], [3], [6], [9]]
    assert s.gamma_star.members.tolist() == [[0], [4], [8]]
    assert s.coset_reps.tolist() == [[0], [1], [2]]
    assert s.dual_reps.tolist() == [[0], [1], [2], [3]]
    assert s.n_points == 3 and s.n_fibers == 4
    assert s.normalization == {
        "m_G": 1.0,
        "m_G_dual": 1.0 / 12.0,
        "m_Gamma": 1.0,
        "m_Gamma_star": 1.0 / 3.0,
        "mu_C": 1.0,
        "nu_Omega": 1.0 / 4.0,
    }


def test_scenario_sets_are_coordinate_rows():
    G = FiniteAbelianGroup([2, 6])
    s = build_scenario(G, [(1, 3)])
    for rows in (s.gamma.members, s.gamma_star.members, s.coset_reps,
                 s.dual_reps):
        assert_coordinate_rows(G, rows)
    assert s.coset_reps.shape == (s.n_points, 2)
    assert s.dual_reps.shape == (s.n_fibers, 2) == (s.gamma.order, 2)


def test_extreme_subgroups():
    G = FiniteAbelianGroup([12])
    full = build_scenario(G, [[1]])
    assert full.gamma.order == 12 and full.gamma_star.order == 1
    assert full.n_points == 1 and full.n_fibers == 12
    trivial = build_scenario(G, [])
    assert trivial.gamma.members.tolist() == [[0]]
    assert trivial.gamma_star.order == 12
    assert trivial.n_points == 12 and trivial.n_fibers == 1


def test_weil_formula():
    rng = np.random.default_rng(107)
    G = FiniteAbelianGroup([12])
    for s in (s3_scenario(), build_scenario(G, [[1]]), build_scenario(G, [])):
        for _ in range(100):
            f = random_complex(rng, 12)
            lhs, rhs, dev = weil_check(s, f)
            assert dev <= 1e-12 * max(1.0, abs(lhs))


def test_zak_known_fiber():
    s = s3_scenario()
    Z = s.forward(delta(12, 3))
    # delta_3 sits on the gamma = 3 translate of the origin coset
    expected = np.array([
        [1, 0, 0],
        [1j, 0, 0],
        [-1, 0, 0],
        [-1j, 0, 0],
    ], dtype=complex)
    assert np.allclose(Z.fibers, expected, atol=1e-12)


def test_zak_matches_naive_and_point_sums():
    rng = np.random.default_rng(109)
    s = s3_scenario()
    for _ in range(5):
        f = random_complex(rng, 12)
        Z = s.forward(f)
        assert np.max(np.abs(Z.fibers - naive_zakG(s, f))) < 1e-12
        for wi, om in enumerate(s.dual_reps):
            for ci, x in enumerate(s.coset_reps):
                assert Z.fibers[wi, ci] == pytest.approx(
                    zak_point(s, f, om, x), abs=1e-12)


def test_zak_quasi_periodicity():
    # shifting omega by an annihilator element leaves the fiber unchanged;
    # shifting x by gamma multiplies by the conjugate character
    rng = np.random.default_rng(113)
    s = s3_scenario()
    G = s.G
    f = random_complex(rng, 12)
    om = (1,)
    x = (2,)
    base = zak_point(s, f, om, x)
    for d in s.gamma_star.members:
        assert zak_point(s, f, G.add(om, d), x) == pytest.approx(base,
                                                                 abs=1e-12)
    for g in s.gamma.members:
        got = zak_point(s, f, om, G.add(x, g))
        want = np.conj(character(G, g, om)) * base
        assert got == pytest.approx(want, abs=1e-12)


def test_zak_roundtrip():
    rng = np.random.default_rng(127)
    s = s3_scenario()
    for _ in range(100):
        f = random_complex(rng, 12)
        Z = s.forward(f)
        assert np.max(np.abs(s.inverse(Z) - f)) < 1e-12
    Phi = FiberedVector(random_complex(rng, 12).reshape(4, 3), np.ones(3))
    back = s.forward(s.inverse(Phi))
    assert np.max(np.abs(back.fibers - Phi.fibers)) < 1e-12


def test_zak_intertwines_translation():
    rng = np.random.default_rng(131)
    s = s3_scenario()
    G = s.G
    f = random_complex(rng, 12)
    base = s.forward(f).fibers
    for g in s.gamma.members:
        shifted = np.empty(12, dtype=complex)
        for xi, x in enumerate(G.elements()):
            shifted[xi] = f[G.index(G.sub(x, g))]
        lhs = s.forward(shifted).fibers
        chars = np.array([character(G, g, om) for om in s.dual_reps])
        assert np.max(np.abs(lhs - chars[:, None] * base)) < 1e-12


def test_zak_isometry_with_nu():
    # sum over Omega with mass 1/|Gamma| of the fiber norms recovers ||f||^2
    rng = np.random.default_rng(137)
    s = s3_scenario()
    for _ in range(20):
        f = random_complex(rng, 12)
        Z = s.forward(f)
        total = float(np.sum(np.abs(Z.fibers) ** 2)) / s.gamma.order
        assert total == pytest.approx(float(np.sum(np.abs(f) ** 2)),
                                      rel=1e-12)


def test_fiberize_values():
    s = s3_scenario()
    T = fiberize(s, delta(12, 0))
    # the Fourier transform of delta_0 is identically one
    assert np.allclose(T, np.ones((4, 3)), atol=1e-12)
    T = fiberize(s, delta(12, 3))
    G = s.G
    for wi, om in enumerate(s.dual_reps):
        for di, d in enumerate(s.gamma_star.members):
            want = np.conj(character(G, (3,), G.add(om, d)))
            assert T[wi, di] == pytest.approx(want, abs=1e-12)


def test_duality_identity():
    rng = np.random.default_rng(139)
    s = s3_scenario()
    for _ in range(100):
        f = random_complex(rng, 12)
        rep = duality_check(s, [f])
        assert rep.transform_deviation.shape == (1,)
        assert rep.gramian_deviation.shape == (1, 1)
        assert rep.transform_deviation[0] <= 1e-12


def test_duality_gramians():
    rng = np.random.default_rng(149)
    s = s3_scenario()
    for _ in range(50):
        f = random_complex(rng, 12)
        g = random_complex(rng, 12)
        rep = duality_check(s, [f, g])
        assert np.all(rep.transform_deviation <= 1e-12)
        assert np.all(rep.gramian_deviation <= 1e-12)
        assert rep.gramian_deviation[0, 1] == rep.gramian_deviation[1, 0]


def test_duality_pairs_match_the_pair_by_pair_check():
    # each entry (i, j >= i) of one call on k functions is the call on that
    # pair alone, bit for bit, and (j, i) mirrors it
    rng = np.random.default_rng(151)
    s = s3_scenario()
    fs = [random_complex(rng, 12) for _ in range(5)]
    rep = duality_check(s, fs)
    dev = rep.gramian_deviation
    assert np.array_equal(dev, dev.T)
    for i in range(5):
        for j in range(i, 5):
            pair = duality_check(s, [fs[i], fs[j]])
            assert rep.transform_deviation[i] == pair.transform_deviation[0]
            assert dev[i, j] == pair.gramian_deviation[0, 1]


def test_duality_needs_a_function():
    with pytest.raises(ValueError, match="at least one function"):
        duality_check(s3_scenario(), [])


def test_ti_analyze_single_delta():
    s = s3_scenario()
    J, rep = range_from_generators(s, [delta(12, 0)]), \
        frame_check(s, [delta(12, 0)])
    assert list(J.dims) == [1, 1, 1, 1]
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(1.0, abs=1e-12)
    assert rep.is_parseval and rep.is_riesz


def test_ti_analyze_takes_one_fiber_svd(monkeypatch):
    # the frame report is read off the range's own spectrum
    rng = np.random.default_rng(167)
    gens = [random_complex(rng, 12) for _ in range(2)]
    svd = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.ndim(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    s = s3_scenario()
    range_from_generators(s, gens)
    frame_check(s, gens)
    assert calls == [3]


def test_ti_analyze_rejects_empty():
    with pytest.raises(ValueError):
        frame_check(s3_scenario(), [])


def test_ti_analyze_matches_dense_gram():
    rng = np.random.default_rng(151)
    s = s3_scenario()
    for _ in range(10):
        gens = [random_complex(rng, 12)
                for _ in range(int(rng.integers(1, 3)))]
        rep = frame_check(s, gens)
        M = translation_synthesis_matrix(s, gens)
        A, B, ok = riesz_bounds_of_matrix(factor(M))
        assert rep.upper == pytest.approx(B, rel=1e-8)
        # dense Gram spectrum equals the union of fiber Gram spectra
        rg = riesz_check(s, gens)
        assert rg.lower == pytest.approx(A, rel=1e-8, abs=1e-10)
        assert rg.is_riesz == ok


def test_translation_agrees_with_action_pipeline():
    # Gamma = Z_4 acting on the 12 points of G by x -> x + 3 gamma is the
    # same structure as the subgroup <3> inside Z_12; the dual transversal
    # Omega = {0,1,2,3} matches the dual group of Z_4 index by index.
    s = s3_scenario()
    act = affine_action(FiniteAbelianGroup([4]), WeightedSpace(np.ones(12)),
                        [3])
    zk = ZakTransform(act)
    assert list(zk.transversal) == [0, 1, 2]
    for gens12 in ([delta(12, 0)], [delta(12, 0) + delta(12, 1)]):
        J_t, rep_t = range_from_generators(s, gens12), frame_check(s, gens12)
        J_a = range_from_generators(zk, gens12)
        rep_a = frame_check(zk, gens12)
        assert list(J_t.dims) == list(J_a.dims)
        assert rep_t.lower == pytest.approx(rep_a.lower, abs=1e-10)
        assert rep_t.upper == pytest.approx(rep_a.upper, abs=1e-10)
        assert rep_t.is_frame == rep_a.is_frame
        assert rep_t.is_riesz == rep_a.is_riesz


def test_full_group_translation_recovers_fourier():
    # Gamma = G: one coset, and the fiber at omega is the Fourier
    # coefficient at -omega (the sum runs over f(-gamma))
    G = FiniteAbelianGroup([12])
    s = build_scenario(G, [[1]])
    rng = np.random.default_rng(157)
    f = random_complex(rng, 12)
    Z = s.forward(f)
    assert Z.fibers.shape == (12, 1)
    from zakfiber import dft
    fhat = dft(G, f)
    neg = G.neg_index_table()
    assert np.max(np.abs(Z.fibers[:, 0] - fhat[neg])) < 1e-12


def test_translation_scenario_is_a_fibration(monkeypatch):
    import zakfiber.translation as translation
    from zakfiber import membership, membership_fibers

    built = []
    char_matrix = translation._char_matrix
    monkeypatch.setattr(translation, "_char_matrix",
                        lambda s: built.append(s) or char_matrix(s))
    s = s3_scenario()
    rng = np.random.default_rng(163)
    gens = [random_complex(rng, 12) for _ in range(2)]
    for g in gens:
        fv = s.forward(g)
        ref = s.forward_many([g])
        assert np.array_equal(fv.fibers, ref[0][:, :, 0])
        assert np.array_equal(fv.fiber_weights, ref[1])
        assert np.max(np.abs(s.inverse(fv) - g)) < 1e-12
    assert built == [s]  # the tables are built once per scenario
    assert np.array_equal(s.ambient_weights, np.ones(12))
    assert np.array_equal(s.synthesis_matrix(gens),
                          translation_synthesis_matrix(s, gens))

    # frame_check reads its report off the memo entry's range function,
    # of which range_from_generators returns a copy
    J = range_from_generators(s, gens)
    rep_ti = frame_check(s, gens)
    rep_j = report_from_spectra(J, SUPPORT_TOL, riesz_style=False)
    rep = frame_check(s, gens)
    for key, value in vars(rep_j).items():
        assert np.array_equal(value, getattr(rep_ti, key)), key
    for key in ("dims", "support", "is_bessel", "is_frame", "is_parseval",
                "is_riesz", "degenerate"):
        assert np.array_equal(getattr(rep_ti, key), getattr(rep, key)), key
    for key in ("smin2", "smax2", "gram_min", "lower", "upper"):
        np.testing.assert_allclose(getattr(rep_ti, key), getattr(rep, key),
                                   rtol=1e-13, atol=0, err_msg=key)

    outside = random_complex(rng, 12)
    for f, expected in ((gens[0] - 2j * gens[1], True), (outside, False)):
        member, residual = membership(s, f, J)
        assert (member, residual) == membership_fibers(s.forward(f), J)
        assert bool(member) == expected
