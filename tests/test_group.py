import io
import json

import numpy as np
import pytest

from zakfiber import (
    FiniteAbelianGroup,
    annihilator,
    character,
    character_table,
    coset_transversal,
    dft,
    idft,
    subgroup_from_generators,
)
from zakfiber.cli import run
from zakfiber.scenario import fixture_path

from helpers import assert_coordinate_rows


def test_factor_validation():
    with pytest.raises(ValueError):
        FiniteAbelianGroup([])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([4, 0])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([-2])


def test_order_and_enumeration():
    G = FiniteAbelianGroup([2, 3])
    assert G.order == 6
    els = G.elements()
    assert els == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    for i, el in enumerate(els):
        assert G.index(el) == i


@pytest.mark.parametrize("factors,order", [
    ([2**32, 2**32], 2**64),
    ([2**32 + 1, 2**32 - 1], 2**64 - 1),
    ([3, 2**40, 2**40], 3 * 2**80),
], ids=["2^64", "2^64-1", "3*2^80"])
def test_order_does_not_wrap_at_64_bits(factors, order):
    assert FiniteAbelianGroup(factors).order == order


def test_huge_group_order_in_cli_message(tmp_path):
    doc = json.loads(fixture_path("s1").read_text())
    doc["group"]["invariant_factors"] = [2**32, 2**32]
    doc["action"] = {"table": []}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    code = run(["validate", "--scenario", str(path)], out=out, err=err)
    assert (code, out.getvalue()) == (4, "")
    assert err.getvalue() == ("error: action.table must have one row per "
                              "group element (18446744073709551616 rows)\n")


def test_arithmetic():
    G = FiniteAbelianGroup([4, 6])
    assert G.add((3, 5), (2, 4)) == (1, 3)
    assert G.sub((0, 0), (1, 2)) == (3, 4)
    assert G.neg((1, 2)) == (3, 4)
    assert G.neg(G.zero) == G.zero


def test_element_checks():
    G = FiniteAbelianGroup([4])
    with pytest.raises(ValueError):
        G.check((1, 2))
    with pytest.raises(ValueError):
        G.check((4,))
    with pytest.raises(ValueError):
        G.check((-1,))


def test_character_values():
    G = FiniteAbelianGroup([4])
    assert character(G, (0,), (3,)) == pytest.approx(1.0)
    assert character(G, (1,), (1,)) == pytest.approx(1j)
    assert character(G, (2,), (1,)) == pytest.approx(-1.0)
    G12 = FiniteAbelianGroup([12])
    assert character(G12, (3,), (4,)) == pytest.approx(1.0)


def test_character_is_bilinear_and_unimodular():
    G = FiniteAbelianGroup([3, 4])
    rng = np.random.default_rng(7)
    els = G.elements()
    for _ in range(50):
        g1, g2, a = (els[rng.integers(G.order)] for _ in range(3))
        lhs = character(G, G.add(g1, g2), a)
        rhs = character(G, g1, a) * character(G, g2, a)
        assert abs(lhs - rhs) < 1e-12
        assert abs(abs(character(G, g1, a)) - 1.0) < 1e-12


def test_character_orthogonality():
    for factors in ([6], [2, 4]):
        G = FiniteAbelianGroup(factors)
        for alpha in G.elements():
            total = sum(character(G, g, alpha) for g in G.elements())
            if alpha == G.zero:
                assert abs(total - G.order) < 1e-9
            else:
                assert abs(total) < 1e-9


def test_dft_known_values():
    G = FiniteAbelianGroup([4])
    c = np.zeros(4, dtype=complex)
    c[3] = 1.0
    F = dft(G, c)
    assert np.allclose(F, [1, 1j, -1, -1j], atol=1e-12)
    # delta at zero transforms to the constant 1
    c0 = np.zeros(4, dtype=complex)
    c0[0] = 1.0
    assert np.allclose(dft(G, c0), np.ones(4), atol=1e-12)


def test_dft_matches_defining_sum():
    G = FiniteAbelianGroup([2, 3])
    rng = np.random.default_rng(3)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    K = character_table(G)  # K[g, a] = (g, a)
    expected = K.conj().T @ c
    assert np.max(np.abs(dft(G, c) - expected)) < 1e-12


def test_dft_roundtrip_and_plancherel():
    for factors in ([12], [2, 6]):
        G = FiniteAbelianGroup(factors)
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = rng.standard_normal(G.order) + 1j * rng.standard_normal(G.order)
            F = dft(G, c)
            assert np.max(np.abs(idft(G, F) - c)) < 1e-12
            lhs = np.sum(np.abs(F) ** 2) / G.order
            rhs = np.sum(np.abs(c) ** 2)
            assert abs(lhs - rhs) <= 1e-12 * rhs


def test_dft_length_mismatch():
    G = FiniteAbelianGroup([4])
    with pytest.raises(ValueError):
        dft(G, np.ones(5))
    with pytest.raises(ValueError):
        idft(G, np.ones(3))


def test_subgroup_closure():
    G = FiniteAbelianGroup([12])
    sub = subgroup_from_generators(G, [(3,)])
    assert sub.members.tolist() == [[0], [3], [6], [9]]
    trivial = subgroup_from_generators(G, [])
    assert trivial.members.tolist() == [[0]]
    full = subgroup_from_generators(FiniteAbelianGroup([4]), [(1,)])
    assert full.order == 4


def test_subgroup_closure_properties():
    G = FiniteAbelianGroup([2, 4])
    sub = subgroup_from_generators(G, [(1, 2)])
    # closed under addition and negation, contains zero, Lagrange divides
    assert G.zero in sub
    for a in sub.members:
        assert G.neg(a) in sub
        for b in sub.members:
            assert G.add(a, b) in sub
    assert G.order % sub.order == 0


def test_sets_of_elements_are_coordinate_rows():
    G = FiniteAbelianGroup([2, 4, 3])
    sub = subgroup_from_generators(G, [(1, 2, 0), (0, 0, 1), (0, 2, 0)])
    ann = annihilator(G, sub)
    for rows in (sub.members, sub.generators, ann.members, ann.generators,
                 coset_transversal(G, sub), coset_transversal(G, ann)):
        assert_coordinate_rows(G, rows)
    assert sub.generators.tolist() == [[0, 0, 1], [0, 2, 0], [1, 2, 0]]
    trivial = subgroup_from_generators(G, [])
    assert trivial.generators.shape == (0, 3)
    assert_coordinate_rows(G, trivial.members)
    assert annihilator(G, trivial).order == G.order


def test_subgroup_membership_rejects_foreign_elements():
    G = FiniteAbelianGroup([2, 4])
    sub = subgroup_from_generators(G, [(1, 2)])
    assert (1, 2) in sub and [0, 0] in sub
    assert (1, 1) not in sub
    # wrong arity or out of range: not a member, and no error
    for el in ((0,), (0, 0, 0), (), (2, 0), (1, 6), (-1, 2)):
        assert el not in sub


def test_subgroup_of_another_group_is_rejected():
    G, H = FiniteAbelianGroup([12]), FiniteAbelianGroup([6])
    sub = subgroup_from_generators(H, [(2,)])
    with pytest.raises(ValueError, match="does not belong"):
        annihilator(G, sub)
    with pytest.raises(ValueError, match="does not belong"):
        coset_transversal(G, sub)


def test_annihilator_values():
    G = FiniteAbelianGroup([12])
    sub = subgroup_from_generators(G, [(3,)])
    ann = annihilator(G, sub)
    assert ann.members.tolist() == [[0], [4], [8]]
    assert sub.order * ann.order == G.order
    # trivial and full subgroups
    triv = subgroup_from_generators(G, [])
    assert annihilator(G, triv).order == G.order
    full = subgroup_from_generators(G, [(1,)])
    assert annihilator(G, full).members.tolist() == [[0]]


def test_annihilator_is_involutive():
    for factors, gens in ([[12], [(3,)]], [[2, 4], [(1, 2)]],
                          [[6, 6], [(2, 3)]]):
        G = FiniteAbelianGroup(factors)
        sub = subgroup_from_generators(G, gens)
        double = annihilator(G, annihilator(G, sub))
        assert double.members.tolist() == sub.members.tolist()
        assert sub.order * annihilator(G, sub).order == G.order


def test_coset_transversal_values():
    G = FiniteAbelianGroup([12])
    sub = subgroup_from_generators(G, [(3,)])
    assert coset_transversal(G, sub).tolist() == [[0], [1], [2]]
    G8 = FiniteAbelianGroup([8])
    sub8 = subgroup_from_generators(G8, [(2,)])
    assert coset_transversal(G8, sub8).tolist() == [[0], [1]]
    full = subgroup_from_generators(G, [(1,)])
    assert coset_transversal(G, full).tolist() == [[0]]


def test_coset_transversal_covers_exactly():
    G = FiniteAbelianGroup([2, 4])
    sub = subgroup_from_generators(G, [(1, 2)])
    reps = coset_transversal(G, sub)
    assert len(reps) == G.order // sub.order
    seen = set()
    for r in reps:
        for m in sub.members:
            pt = G.add(r, m)
            assert pt not in seen
            seen.add(pt)
    assert len(seen) == G.order
    # deterministic
    assert coset_transversal(G, sub).tolist() == reps.tolist()
