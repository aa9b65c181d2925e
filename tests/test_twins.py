"""The list-based twins against the entry points that replaced them.

``bench/spans.py`` still binds the list-based twins by name, so they stay
callable as ``zakfiber.<module>.<name>`` though no command, session op
or other test calls them.  This is the one test that does: it pins each
twin, bit for bit, to the survivor that does its work, on every shipped
fixture and on both nondyadic goldens.  It goes when the twins do.
"""

from pathlib import Path

import numpy as np
import pytest

from zakfiber import ZakTransform, fixture_path, frame_check, \
    parse_scenario, parseval_decompose, range_from_generators, riesz_check, \
    verify_decomposition
from zakfiber.decomp import _parts, parseval_decompose_fibers, \
    verify_decomposition_fibers
from zakfiber.frames import frame_check_fibers, riesz_check_fibers
from zakfiber.oracle import brute_membership, dense_frame_bounds, \
    dense_riesz_bounds, frame_bounds_of_matrix, membership_of_matrix, \
    riesz_bounds_of_matrix
from zakfiber.ranges import generator_system, range_from_fibers
from zakfiber.translation import ti_analyze, zakG_forward, zakG_inverse
from zakfiber.zak import Fibration

from helpers import dense

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = {name: fixture_path(name)
             for name in ("s1", "s1-parseval", "s2", "s3", "star")}
SCENARIOS.update({name: GOLDEN / f"{name}.json"
                  for name in ("nondyadic", "nondyadic-translation")})


def bits(x):
    """x as comparable bits: dataclasses field by field, sequences item by
    item, and every number or array by dtype, shape and bytes."""
    if x is None:
        return None
    if hasattr(x, "__dataclass_fields__"):
        return {key: bits(value) for key, value in vars(x).items()}
    if isinstance(x, (list, tuple)):
        return [bits(value) for value in x]
    a = np.asarray(x)
    return a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("name", SCENARIOS)
def test_each_twin_matches_its_survivor_bit_for_bit(name):
    sc = parse_scenario(SCENARIOS[name])
    translation = sc.kind == "translation"
    fib = sc.translation if translation else ZakTransform(sc.action)
    gens = sc.generators
    fibered = [fib.forward(g) for g in gens]

    assert bits(frame_check_fibers(fibered)) == bits(frame_check(fib, gens))
    assert bits(riesz_check_fibers(fibered)) == bits(riesz_check(fib, gens))
    assert bits(range_from_fibers(fibered)) == \
        bits(range_from_generators(fib, gens))

    part_fibers = parseval_decompose_fibers(fibered)
    stack = _parts(generator_system(fib, gens))
    assert bits([p.fibers for p in part_fibers]) == \
        bits([stack[:, :, n] for n in range(stack.shape[2])])
    parts = parseval_decompose(fib, gens)
    assert bits(verify_decomposition_fibers(
        fibered, [fib.forward(p) for p in parts])) == \
        bits(verify_decomposition(fib, gens, parts))

    if translation:
        assert bits(ti_analyze(fib, gens)) == bits(
            (range_from_generators(fib, gens), frame_check(fib, gens)))
        for f, fv in zip(gens, fibered):
            assert bits(zakG_forward(fib, f)) == \
                bits(Fibration.forward(fib, f))
            assert bits(zakG_inverse(fib, fv)) == bits(fib.inverse(fv))
        return
    a = sc.action
    assert bits(dense_frame_bounds(a, gens)) == \
        bits(frame_bounds_of_matrix(dense(a, gens)))
    assert bits(dense_riesz_bounds(a, gens)) == \
        bits(riesz_bounds_of_matrix(dense(a, gens)))
    for c in sc.candidates:
        assert bits(brute_membership(a, c, gens)) == bits(
            membership_of_matrix(dense(a, gens), np.sqrt(a.space.weights) * c))
