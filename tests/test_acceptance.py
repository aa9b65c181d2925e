"""Acceptance suite: one test per numbered criterion.

Each test prints a single ``criterion NN [label]: PASS`` (or FAIL) line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.  The
tolerances in here are fixed contracts, not tuning knobs.
"""

import io
import json
from contextlib import contextmanager

import numpy as np

from zakfiber import FiniteAbelianGroup, WeightedSpace, ZakTransform, \
    affine_action, build_scenario, character, duality_check, frame_check, \
    parseval_decompose, range_from_generators, riesz_check, \
    verify_decomposition, weil_check
from zakfiber.cli import run
from zakfiber.oracle import frame_bounds_of_matrix, riesz_bounds_of_matrix

from helpers import delta, dense, naive_zak, random_complex, s1_action, \
    s2_action, s3_scenario, star_generator


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [{label}]: FAIL")
        raise
    print(f"criterion {num:02d} [{label}]: PASS")


def both_actions():
    return (s1_action(), s2_action())


def test_criterion_01_isometry():
    with criterion(1, "zak isometry"):
        rng = np.random.default_rng(2024_01)
        for a in both_actions():
            zk = ZakTransform(a)
            for _ in range(100):
                psi = random_complex(rng, a.space.size)
                n = a.space.norm_sq(psi)
                assert abs(zk.forward(psi).norm_sq() - n) <= 1e-12 * n


def test_criterion_02_intertwining():
    with criterion(2, "zak intertwines the representation"):
        rng = np.random.default_rng(2024_02)
        for a in both_actions():
            G = a.group
            zk = ZakTransform(a)
            chars = np.array([[character(G, g, al) for al in G.elements()]
                              for g in G.elements()])
            for _ in range(20):
                psi = random_complex(rng, a.space.size)
                base = zk.forward(psi).fibers
                for gi, g in enumerate(G.elements()):
                    lhs = zk.forward(a.apply(g, psi)).fibers
                    rhs = chars[gi][:, None] * base
                    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_criterion_03_roundtrip():
    with criterion(3, "zak inversion round trip"):
        rng = np.random.default_rng(2024_03)
        for a in both_actions():
            zk = ZakTransform(a)
            for _ in range(100):
                psi = random_complex(rng, a.space.size)
                assert np.max(np.abs(zk.inverse(zk.forward(psi)) - psi)) \
                    <= 1e-12


def _frozen_frame_instances():
    a1 = s1_action()
    a2 = s2_action()
    return [
        (a1, [delta(8, 0), delta(8, 0) + delta(8, 2)], 1.0, 5.0),
        (a1, [delta(8, 0), delta(8, 1)], 1.0, 1.0),
        (a2, [delta(4, 0) + delta(4, 3)], 1.0, 9.0),
    ]


def test_criterion_04_frame_bounds_match_dense():
    with criterion(4, "fiber frame bounds equal dense bounds"):
        for a, gens, A_want, B_want in _frozen_frame_instances():
            zk = ZakTransform(a)
            rep = frame_check(zk, gens)
            assert abs(rep.lower - A_want) <= 1e-8 * A_want
            assert abs(rep.upper - B_want) <= 1e-8 * B_want
            A, B = frame_bounds_of_matrix(dense(a, gens))
            assert abs(rep.lower - A) <= 1e-8 * max(abs(A), 1e-300)
            assert abs(rep.upper - B) <= 1e-8 * max(abs(B), 1e-300)
        rng = np.random.default_rng(2024_04)
        for k in range(25):
            a = both_actions()[k % 2]
            zk = ZakTransform(a)
            gens = [random_complex(rng, a.space.size)
                    for _ in range(int(rng.integers(1, 4)))]
            rep = frame_check(zk, gens)
            A, B = frame_bounds_of_matrix(dense(a, gens))
            assert abs(rep.lower - A) <= 1e-8 * abs(A)
            assert abs(rep.upper - B) <= 1e-8 * abs(B)


def _riesz_lower_agrees(a_fiber, a_dense, upper):
    # lower Gram bounds under the independence cut are numerical zeros on
    # both routes; clamp them before the relative comparison
    cut = 1e-9 * upper
    af = 0.0 if a_fiber < cut else a_fiber
    ad = 0.0 if a_dense < cut else a_dense
    return abs(af - ad) <= 1e-8 * max(af, ad, 1e-300)


def test_criterion_05_riesz_verdicts_match_dense():
    with criterion(5, "riesz bounds and verdicts equal dense"):
        expected = [False, True, True]
        instances = _frozen_frame_instances()
        for (a, gens, A_want, B_want), want in zip(instances, expected):
            zk = ZakTransform(a)
            rep = riesz_check(zk, gens)
            A, B, independent = riesz_bounds_of_matrix(dense(a, gens))
            assert rep.is_riesz == independent == want
            assert abs(rep.upper - B) <= 1e-8 * abs(B)
            assert _riesz_lower_agrees(rep.lower, A, max(rep.upper, B))
            if want:
                # for a Riesz system the Gram bounds are the frame bounds
                assert abs(rep.lower - A_want) <= 1e-8 * A_want
                assert abs(rep.upper - B_want) <= 1e-8 * B_want
        rng = np.random.default_rng(2024_05)
        for k in range(25):
            a = both_actions()[k % 2]
            zk = ZakTransform(a)
            gens = [random_complex(rng, a.space.size)
                    for _ in range(int(rng.integers(1, 4)))]
            rep = riesz_check(zk, gens)
            A, B, independent = riesz_bounds_of_matrix(dense(a, gens))
            assert rep.is_riesz == independent
            assert abs(rep.upper - B) <= 1e-8 * abs(B)
            assert _riesz_lower_agrees(rep.lower, A, max(rep.upper, B))


def test_criterion_06_parseval_not_riesz_generator():
    with criterion(6, "parseval generator that is not riesz"):
        a = s1_action()
        zk = ZakTransform(a)
        psi = star_generator()
        rep = frame_check(zk, [psi])
        assert list(rep.support.astype(int)) == [1, 0, 0, 0]
        assert rep.is_frame and rep.is_parseval
        assert not rep.is_riesz
        _, _, independent = riesz_bounds_of_matrix(dense(a, [psi]))
        assert not independent
        rng = np.random.default_rng(2024_06)
        for _ in range(50):
            combo = np.zeros(8, dtype=complex)
            for g in a.group.elements():
                c = rng.standard_normal() + 1j * rng.standard_normal()
                combo += c * a.apply(g, psi)
            rep = frame_check(zk, [combo])
            assert not rep.is_riesz


def _fixture_generator_sets():
    sets = [
        (s1_action(), [delta(8, 0), delta(8, 0) + delta(8, 2)]),
        (s1_action(), [delta(8, 0), delta(8, 1)]),
        (s2_action(), [delta(4, 0) + delta(4, 3)]),
        (s1_action(), [star_generator()]),
    ]
    return sets


def test_criterion_07_decomposition_audit():
    with criterion(7, "orthogonal parseval decomposition"):
        for a, gens in _fixture_generator_sets():
            zk = ZakTransform(a)
            parts = parseval_decompose(zk, gens)
            check = verify_decomposition(zk, gens, parts)
            assert check.ok
            union = frame_check(zk, parts)
            assert abs(union.lower - 1.0) <= 1e-10
            assert abs(union.upper - 1.0) <= 1e-10
        # the translation fixture goes through the same fiber machinery
        s = s3_scenario()
        gens = [delta(12, 0) + delta(12, 1)]
        parts = parseval_decompose(s, gens)
        check = verify_decomposition(s, gens, parts)
        assert check.ok
        union = frame_check(s, parts)
        assert abs(union.lower - 1.0) <= 1e-10
        assert abs(union.upper - 1.0) <= 1e-10


def test_criterion_08_length_matches_oracle():
    with criterion(8, "length equals dense fiber rank"):
        expected = [1, 2, 1, 1]
        for (a, gens), want in zip(_fixture_generator_sets(), expected):
            zk = ZakTransform(a)
            J = range_from_generators(zk, gens)
            assert J.length() == want
            # independent route: ranks of the naive fiber matrices
            naive = [naive_zak(a, zk, g) for g in gens]
            best = 0
            for i in range(a.group.order):
                fiber_matrix = np.stack([n[i] for n in naive], axis=1)
                best = max(best, int(np.linalg.matrix_rank(fiber_matrix,
                                                           tol=1e-8)))
            assert best == want


def test_criterion_09_weil_formula():
    with criterion(9, "weil coset summation formula"):
        rng = np.random.default_rng(2024_09)
        G = FiniteAbelianGroup([12])
        scenarios = [s3_scenario(), build_scenario(G, [[1]]),
                     build_scenario(G, [])]
        for s in scenarios:
            for _ in range(100):
                f = random_complex(rng, 12)
                lhs, _, dev = weil_check(s, f)
                assert dev <= 1e-12 * max(1.0, abs(lhs))


def test_criterion_10_duality():
    with criterion(10, "fiberization duality and gramian equality"):
        rng = np.random.default_rng(2024_10)
        s = s3_scenario()
        for _ in range(100):
            f = random_complex(rng, 12)
            rep = duality_check(s, [f])
            assert rep.transform_deviation[0] <= 1e-12
        for _ in range(50):
            f = random_complex(rng, 12)
            g = random_complex(rng, 12)
            rep = duality_check(s, [f, g])
            assert rep.gramian_deviation[0, 1] <= 1e-12


def test_criterion_11_translation_equals_action_pipeline():
    with criterion(11, "translation analysis equals action pipeline"):
        s = s3_scenario()
        act = affine_action(FiniteAbelianGroup([4]),
                            WeightedSpace(np.ones(12)), [3])
        zk = ZakTransform(act)
        for gens in ([delta(12, 0)], [delta(12, 0) + delta(12, 1)]):
            J_t, rep_t = range_from_generators(s, gens), frame_check(s, gens)
            J_a = range_from_generators(zk, gens)
            rep_a = frame_check(zk, gens)
            assert list(J_t.dims) == list(J_a.dims)
            assert abs(rep_t.lower - rep_a.lower) <= 1e-10
            assert abs(rep_t.upper - rep_a.upper) <= 1e-10
            assert rep_t.is_frame == rep_a.is_frame
            assert rep_t.is_riesz == rep_a.is_riesz


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_criterion_12_cli_verify_deterministic():
    with criterion(12, "cli verify passes and is deterministic"):
        for name in ("s1", "s1-parseval", "s2", "s3", "star"):
            first = _cli(["verify", "--scenario", name])
            second = _cli(["verify", "--scenario", name])
            assert first[0] == 0
            assert first == second
            assert json.loads(first[1])["ok"] is True
            p1 = _cli(["frame", "--scenario", name, "--parallel", "1"])
            p4 = _cli(["frame", "--scenario", name, "--parallel", "4"])
            assert p1[0] == 0
            assert p1 == p4
