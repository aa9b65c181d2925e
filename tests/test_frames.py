import numpy as np
import pytest

from zakfiber import ZakTransform, fixture_path, frame_check, \
    parse_scenario, riesz_check
from zakfiber.oracle import dense_frame_bounds, dense_riesz_bounds

from helpers import delta, random_complex, s1_action, s2_action, \
    star_generator


def test_bracket_known_values():
    a = s1_action()
    zk = ZakTransform(a)
    Z0, Z2 = zk.forward(delta(8, 0)), zk.forward(delta(8, 2))
    # [delta_0, delta_2](alpha) = conj(i^alpha)
    expected = np.array([1, -1j, -1, 1j], dtype=complex)
    assert np.allclose(Z0.fiber_inner(Z2), expected, atol=1e-12)
    assert Z0.inner(Z2) == pytest.approx(a.space.inner(delta(8, 0), delta(8, 2)),
                                         abs=1e-12)


def test_bracket_mean_is_inner_product():
    rng = np.random.default_rng(73)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        f = random_complex(rng, a.space.size)
        g = random_complex(rng, a.space.size)
        assert zk.forward(f).inner(zk.forward(g)) == pytest.approx(
            a.space.inner(f, g), abs=1e-12)


def test_frame_report_orthonormal_pair():
    zk = ZakTransform(s1_action())
    rep = frame_check(zk, [delta(8, 0), delta(8, 1)])
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(1.0, abs=1e-12)
    assert rep.is_frame and rep.is_parseval and rep.is_riesz
    assert list(rep.dims) == [2, 2, 2, 2]
    assert rep.support.all()


def test_frame_report_dependent_pair():
    zk = ZakTransform(s1_action())
    gens = [delta(8, 0), delta(8, 0) + delta(8, 2)]
    rep = frame_check(zk, gens)
    # fiber spectra {5,3,1,3} as alpha runs over the dual group
    assert sorted(rep.smax2.tolist()) == pytest.approx([1.0, 3.0, 3.0, 5.0])
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(5.0, abs=1e-12)
    assert rep.is_frame and not rep.is_parseval
    assert not rep.is_riesz
    assert list(rep.dims) == [1, 1, 1, 1]


def test_riesz_report_dependent_pair():
    zk = ZakTransform(s1_action())
    gens = [delta(8, 0), delta(8, 0) + delta(8, 2)]
    rep = riesz_check(zk, gens)
    assert rep.lower == pytest.approx(0.0, abs=1e-12)
    assert rep.upper == pytest.approx(5.0, abs=1e-12)
    assert not rep.is_riesz
    # the system still frames its span
    assert rep.is_frame


def test_weighted_space_reports():
    zk = ZakTransform(s2_action())
    rep = frame_check(zk, [delta(4, 0) + delta(4, 3)])
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(9.0, abs=1e-12)
    rep = riesz_check(zk, [delta(4, 0) + delta(4, 3)])
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(9.0, abs=1e-12)
    assert rep.is_riesz


def test_star_generator_parseval_but_not_riesz():
    zk = ZakTransform(s1_action())
    psi = star_generator()
    rep = frame_check(zk, [psi])
    assert list(rep.support.astype(int)) == [1, 0, 0, 0]
    assert rep.lower == pytest.approx(1.0, abs=1e-12)
    assert rep.upper == pytest.approx(1.0, abs=1e-12)
    assert rep.is_frame and rep.is_parseval
    assert not rep.is_riesz
    # bracket values are the fiber square norms here
    Zpsi = zk.forward(psi)
    assert np.allclose(Zpsi.fiber_inner(Zpsi), [1.0, 0.0, 0.0, 0.0],
                       atol=1e-12)


def test_single_generator_riesz_agrees_with_dense():
    # fiber norms^2 [1e4, 1e-8, 1e-8, 1e-8]: every fiber clears the support
    # tolerance, but the smallest is 1e-12 of the largest
    a = s1_action()
    psi = 100 * star_generator() + 1e-4 * delta(8, 1)
    rep = frame_check(ZakTransform(a), [psi])
    _, _, independent = dense_riesz_bounds(a, [psi])
    assert not independent
    assert rep.is_riesz == independent
    assert rep.is_frame and rep.support.all()


@pytest.mark.parametrize("name", ["s1", "s1-parseval", "s2", "star"])
def test_single_generator_bounds_are_bracket_extremes(name):
    sc = parse_scenario(fixture_path(name))
    zk = ZakTransform(sc.action)
    for psi in sc.generators + sc.candidates:
        rep = frame_check(zk, [psi])
        Zpsi = zk.forward(psi)
        norms = Zpsi.fiber_inner(Zpsi).real
        assert np.allclose(rep.smax2, norms, rtol=1e-12, atol=1e-300)
        nonzero = norms[rep.dims > 0]
        assert rep.lower == pytest.approx(nonzero.min(), rel=1e-12)
        assert rep.upper == pytest.approx(nonzero.max(), rel=1e-12)


def test_bounds_match_dense_oracle():
    rng = np.random.default_rng(83)
    for a in (s1_action(), s2_action()):
        zk = ZakTransform(a)
        for _ in range(10):
            n_gens = int(rng.integers(1, 4))
            gens = [random_complex(rng, a.space.size) for _ in range(n_gens)]
            rep = frame_check(zk, gens)
            A, B = dense_frame_bounds(a, gens)
            assert rep.lower == pytest.approx(A, rel=1e-8)
            assert rep.upper == pytest.approx(B, rel=1e-8)
            rep = riesz_check(zk, gens)
            Ar, Br, ok = dense_riesz_bounds(a, gens)
            assert rep.lower == pytest.approx(Ar, rel=1e-8, abs=1e-10)
            assert rep.upper == pytest.approx(Br, rel=1e-8)
            assert rep.is_riesz == ok


def test_degenerate_report():
    zk = ZakTransform(s1_action())
    rep = frame_check(zk, [np.zeros(8)])
    assert rep.degenerate
    assert rep.lower is None and rep.upper is None
    assert not rep.is_frame and not rep.is_riesz and not rep.is_parseval
    assert rep.is_bessel
    rep = riesz_check(zk, [np.zeros(8)])
    assert rep.degenerate
    assert rep.lower is None


def test_tolerance_controls_support():
    zk = ZakTransform(s1_action())
    psi = delta(8, 0) + 1e-6 * delta(8, 2)
    rep = frame_check(zk, [psi], tolerance=1e-10)
    assert rep.support.all()
    rep = frame_check(zk, [psi], tolerance=1e-3)
    # the perturbation only reaches 1e-12-scale square norms off alpha=0;
    # all four fibers keep mass ~1 from delta_0 though, so support is full
    assert rep.support.all()

