import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zakfiber import scenario
from zakfiber.scenario import ScenarioError, fixture_path, parse_scenario, \
    scenario_from_dict


def base_action_doc():
    return {
        "schema_version": 1,
        "name": "t",
        "group": {"invariant_factors": [2]},
        "space": {"size": 4, "weights": [1.0, 2.0, 3.0, 4.0]},
        "action": {"table": [[0, 1, 2, 3], [3, 2, 1, 0]]},
        "generators": [[[1, 0], [0, 0], [0, 0], [0, 0]]],
    }


def test_action_document_roundtrip():
    sc = scenario_from_dict(base_action_doc())
    assert sc.kind == "action"
    assert sc.name == "t"
    assert len(sc.generators) == 1
    assert sc.generators[0][0] == 1.0 + 0.0j
    assert sc.candidates == []
    assert sc.action.group.order == 2


def test_affine_block():
    doc = base_action_doc()
    doc["group"] = {"invariant_factors": [4]}
    doc["space"] = {"size": 8, "weights": [1.0] * 8}
    doc["action"] = {"affine": {"multipliers": [2]}}
    doc["generators"] = [[[1, 0]] + [[0, 0]] * 7]
    sc = scenario_from_dict(doc)
    assert sc.action.table.shape == (4, 8)


def test_translation_document():
    doc = {
        "schema_version": 1,
        "name": "tr",
        "translation": {
            "group_factors": [12],
            "subgroup_generators": [[3]],
            "generators": [[[1, 0]] + [[0, 0]] * 11],
            "candidates": [[[0, 0]] * 12],
        },
    }
    sc = scenario_from_dict(doc)
    assert sc.kind == "translation"
    assert sc.translation.gamma.order == 4
    assert len(sc.candidates) == 1


def _translation(d, **fields):
    """Replace the action blocks of ``d`` by a valid translation block
    on Z_12 with subgroup <3>, then apply ``fields`` to it."""
    for key in ("group", "space", "action", "generators"):
        d.pop(key)
    d["translation"] = {"group_factors": [12],
                        "subgroup_generators": [[3]],
                        "generators": [[[1, 0]] + [[0, 0]] * 11]}
    d["translation"].update(fields)


def _table(*rows):
    return lambda d: d["action"].update(table=list(rows))


def _generator(*pairs):
    return lambda d: d.update(generators=[list(pairs)])


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.pop("schema_version"), "missing field schema_version"),
    (lambda d: d.update(schema_version=9),
     "schema_version 9 is not supported (expected 1)"),
    (lambda d: d.pop("group"), "missing field group"),
    (lambda d: d["space"].update(weights=[1.0, 2.0, -1.0, 4.0]),
     "space.weights[2] must be > 0"),
    (lambda d: d["space"].update(weights=[1.0]),
     "space.weights must be a list of 4 numbers"),
    (lambda d: d.update(generators=[]), "generators must be non-empty"),
    (lambda d: d.update(generators=[[[1, 0], [0, 0]]]),
     "generators[0] must be a list of 4 [re, im] pairs"),
    (lambda d: d.update(generators=[[[1, 0, 0]] + [[0, 0]] * 3]),
     "generators[0][0] must be an [re, im] pair"),
    (lambda d: d["action"].pop("table"),
     "action needs exactly one of: table, affine"),
    (lambda d: d["action"].update(affine={"multipliers": [1]}),
     "action needs exactly one of: table, affine"),
    (lambda d: d.update(translation={}),
     "exactly one of the action/translation blocks must be present"),
    (lambda d: d.update(name=3), "name must be a string"),
    (lambda d: (d.pop("action"), d.update(translation=[])),
     "translation must be an object"),
    (lambda d: d.update(group=[2]), "group must be an object"),
    (lambda d: d.update(space=4), "space must be an object"),
    (lambda d: d.update(action=[]), "action must be an object"),
    (lambda d: d.update(action={"affine": [2]}),
     "action.affine must be an object"),
    (lambda d: d["space"].update(size=0),
     "space.size must be a positive integer"),
    (lambda d: d["space"].update(size=True),
     "space.size must be a positive integer"),
    (lambda d: d["space"].update(size=4.0),
     "space.size must be a positive integer"),
    (lambda d: d["space"].update(size=3, weights="x"),
     "space.weights must be a list of 3 numbers"),
    (lambda d: d["space"].update(weights=[1.0, True, 3.0, 4.0]),
     "space.weights[1] must be > 0"),
    (lambda d: d.update(generators={}),
     "generators must be a list of complex vectors"),
    (lambda d: d.update(candidates="x"),
     "candidates must be a list of complex vectors"),
    (_generator([1, 0], [0, True], [0, 0], [0, 0]),
     "generators[0][1] must be an [re, im] pair"),
    (_generator([1, 0], [0, 0], [0, 0], "x"),
     "generators[0][3] must be an [re, im] pair"),
    # the first failing pair wins: non-finite pair 1 before malformed pair 3
    (_generator([1, 0], [math.nan, 0], [0, 0], [0, 0, 0]),
     "generators[0][1] must hold finite numbers"),
    (lambda d: d["group"].update(invariant_factors=[]),
     "group.invariant_factors must be a non-empty list of integers"),
    (lambda d: d["group"].update(invariant_factors=[2.0]),
     "group.invariant_factors[0] must be an integer"),
    (lambda d: d["group"].update(invariant_factors=[True]),
     "group.invariant_factors[0] must be an integer"),
    (lambda d: d["group"].update(invariant_factors=[0]),
     "group.invariant_factors: invariant_factors[0] must be >= 1, got 0"),
    # the group is read before the space
    (lambda d: (d["group"].update(invariant_factors=[0]),
                d["space"].update(size=0)),
     "group.invariant_factors: invariant_factors[0] must be >= 1, got 0"),
    (lambda d: d["action"].update(table={}),
     "action.table must have one row per group element (2 rows)"),
    (_table([0, 1, 2, 3]),
     "action.table must have one row per group element (2 rows)"),
    (_table([0, 1, 2, 3], []),
     "action.table[1] must be a non-empty list of integers"),
    (_table([0, 1, 2, 3], [0, 1, True, 3]),
     "action.table[1][2] must be an integer"),
    # every row is checked for integers before any row for its range
    (_table([0, 1, 2, 9], [0, 1, 2.5, 3]),
     "action.table[1][2] must be an integer"),
    (_table([0, 1, 2, 9], [0, 1, 2, -1]),
     "action.table[0] entries must lie in 0..3"),
    (lambda d: d.update(action={"affine": {"multipliers": [True]}}),
     "action.affine.multipliers[0] must be an integer"),
    (lambda d: d.update(action={"affine": {}}),
     "missing field action.affine.multipliers"),
    (lambda d: _translation(d, group_factors=[]),
     "translation.group_factors must be a non-empty list of integers"),
    (lambda d: _translation(d, group_factors=[0]),
     "translation.group_factors: invariant_factors[0] must be >= 1, got 0"),
    (lambda d: _translation(d, subgroup_generators=3),
     "translation.subgroup_generators must be a list of elements"),
    (lambda d: _translation(d, subgroup_generators=[3]),
     "translation.subgroup_generators[0] must be a non-empty list of "
     "integers"),
    (lambda d: _translation(d, subgroup_generators=[[12]]),
     "translation.subgroup_generators: element (12,) out of range for "
     "factors (12,)"),
    # the subgroup is built before the generators are read
    (lambda d: _translation(d, subgroup_generators=[[1, 2]], generators=[]),
     "translation.subgroup_generators: element (1, 2) has arity 2, "
     "expected 1"),
    (lambda d: _translation(d, generators=[]),
     "translation.generators must be non-empty"),
    (lambda d: _translation(d, generators=[[[1, 0]]]),
     "translation.generators[0] must be a list of 12 [re, im] pairs"),
    (lambda d: _translation(d, candidates={}),
     "translation.candidates must be a list of complex vectors"),
])
def test_malformed_documents(mutate, message):
    doc = base_action_doc()
    mutate(doc)
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(doc)
    assert str(e.value) == message


# Entries of the blocks the loader checks as whole arrays: weights, table
# rows and generator pairs that are of the wrong type, size or range.
@pytest.mark.parametrize("mutate,message", [
    (lambda d: d["space"].update(weights=[1.0, "2", 3.0, 4.0]),
     "space.weights[1] must be > 0"),
    (lambda d: d["space"].update(weights=[1.0, None, 3.0, 4.0]),
     "space.weights[1] must be > 0"),
    (lambda d: d["space"].update(weights=[1.0, 10**400, 3.0, 4.0]),
     "space.weights[1] must be finite"),
    (_generator(None, [0, 0], [0, 0], [0, 0]),
     "generators[0][0] must be an [re, im] pair"),
    (_generator([[1], [0]], [0, 0], [0, 0], [0, 0]),
     "generators[0][0] must be an [re, im] pair"),
    (_generator(["1", 0], [0, 0], [0, 0], [0, 0]),
     "generators[0][0] must be an [re, im] pair"),
    (_table([0, 1, 2, 3], 5),
     "action.table[1] must be a non-empty list of integers"),
    (_table([0, 1, 2, 3], [0, 1, 2, 2**70]),
     "action.table[1] entries must lie in 0..3"),
    (_table([0, 1, 2, 3], [0, 1, 2]), "action.table[1] must have 4 entries"),
    # every row is checked for its range before any for its length
    (_table([0, 1, 2], [0, 1, 2, 4]),
     "action.table[1] entries must lie in 0..3"),
])
def test_malformed_entries(mutate, message):
    test_malformed_documents(mutate, message)


@pytest.mark.parametrize("doc", [[], "x", None, 1])
def test_document_must_be_an_object(doc):
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(doc)
    assert str(e.value) == "scenario document must be a JSON object"


def test_vectors_are_complex_of_each_pair_bit_for_bit():
    pairs = [[-0.0, 0.0], [0.0, -0.0], [2**53 + 1, -(2**53 + 1)],
             [2**64 + 1, 5e-324], [-5e-324, 3], [-0.0, -0.0]]
    doc = base_action_doc()
    doc["space"] = {"size": len(pairs), "weights": [1.0] * len(pairs)}
    doc["action"] = {"table": [list(range(len(pairs)))] * 2}
    doc["generators"] = [pairs]
    (vec,) = scenario_from_dict(doc).generators
    expected = np.array([complex(re, im) for re, im in pairs])
    assert vec.dtype == complex
    assert vec.tobytes() == expected.tobytes()


def test_huge_integer_generator_loads_as_its_float():
    doc = base_action_doc()
    doc["generators"] = [[[2**70, 0], [0, 0], [0, 0], [0, 0]]]
    (vec,) = scenario_from_dict(doc).generators
    assert vec[:1].tobytes() == np.array([complex(float(2**70), 0)]).tobytes()


def test_numpy_float_pairs_load_as_plain_floats_bit_for_bit():
    # np.float64 subclasses float: not the exact type of the fast loader,
    # so each pair is checked and the list converted as a whole
    pairs = [[1.5, -0.0], [2**53 + 1, 5e-324], [-3.25, 7.0], [0.0, 1e300]]
    doc = base_action_doc()
    doc["generators"] = [pairs]
    plain = scenario_from_dict(doc).generators[0]
    doc["generators"] = [[[np.float64(x) for x in p] for p in pairs]]
    (vec,) = scenario_from_dict(doc).generators
    assert vec.dtype == complex
    assert vec.tobytes() == plain.tobytes()


def test_bad_table_is_wrapped():
    doc = base_action_doc()
    doc["action"]["table"] = [[0, 1, 2, 3], [0, 1, 2, 3]]
    # valid shape but not a homomorphism is caught later by validate_action;
    # a non-permutation row fails at construction
    doc["action"]["table"] = [[0, 1, 2, 3], [0, 0, 1, 2]]
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(doc)
    assert str(e.value).startswith("action.table:")


def test_bad_affine_multiplier():
    doc = base_action_doc()
    doc["action"] = {"affine": {"multipliers": [1]}}
    with pytest.raises(ScenarioError) as e:
        scenario_from_dict(doc)
    assert str(e.value).startswith("action.affine:")


def test_fixture_files_parse():
    for name in ("s1", "s1-parseval", "s2", "s3", "star"):
        sc = parse_scenario(fixture_path(name))
        assert sc.generators
        if name == "s3":
            assert sc.kind == "translation"
        else:
            assert sc.kind == "action"


def test_unknown_fixture():
    with pytest.raises(ScenarioError):
        fixture_path("nope")


def test_parse_rejects_bad_json(tmp_path):
    p = tmp_path / "x.json"
    p.write_text("{ not json")
    with pytest.raises(ScenarioError) as e:
        parse_scenario(p)
    assert "not valid JSON" in str(e.value)


def test_parse_rejects_missing_file(tmp_path):
    with pytest.raises(ScenarioError) as e:
        parse_scenario(tmp_path / "absent.json")
    assert "cannot read scenario file" in str(e.value)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999",
                                     "1" + "0" * 400],
                         ids=["NaN", "Infinity", "1e999", "int1e400"])
@pytest.mark.parametrize("place,message", [
    ("weights", "space.weights[1] must be finite"),
    ("generators", "generators[0][1] must hold finite numbers"),
    ("candidates", "candidates[0][2] must hold finite numbers"),
], ids=["weights", "generators", "candidates"])
def test_non_finite_numbers_rejected(tmp_path, literal, place, message):
    # Python's json reads NaN and Infinity, 1e999 as inf, and integers of
    # any size; none of them may reach the numerics
    doc = base_action_doc()
    if place == "weights":
        doc["space"]["weights"][1] = "X"
    elif place == "generators":
        doc["generators"][0][1] = ["X", 0]
    else:
        doc["candidates"] = [[[0, 0], [0, 0], [0, "X"], [0, 0]]]
    p = tmp_path / "x.json"
    p.write_text(json.dumps(doc).replace('"X"', literal))
    with pytest.raises(ScenarioError) as e:
        parse_scenario(p)
    assert str(e.value) == message


def _guarded(name):
    def fail(*args):
        raise AssertionError(f"element check {name} ran on a valid document")
    return fail


@pytest.mark.parametrize("kind", ["action", "translation"])
def test_valid_document_makes_no_call_per_number(monkeypatch, kind):
    rng = np.random.default_rng(0)
    n = 512

    def vectors(k):
        return rng.standard_normal((k, n, 2)).tolist()

    doc = {"schema_version": 1, "name": "big"}
    if kind == "action":
        doc.update(group={"invariant_factors": [2]},
                   space={"size": n, "weights": rng.uniform(1, 2, n).tolist()},
                   action={"table": [list(range(n)), list(range(n))[::-1]]},
                   generators=vectors(2), candidates=vectors(1))
    else:
        doc["translation"] = {"group_factors": [n],
                              "subgroup_generators": [[n // 2]],
                              "generators": vectors(2),
                              "candidates": vectors(1)}
    monkeypatch.setattr(scenario, "_number", _guarded("_number"))
    monkeypatch.setattr(scenario, "_finite", _guarded("_finite"))
    sc = scenario_from_dict(doc)
    assert len(sc.generators) == 2 and len(sc.candidates) == 1


# A per-element reader of the blocks the loader checks as whole arrays: the
# message the loader must give for a document, or None for a valid one.

def _ref_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _ref_finite(v):
    try:
        return math.isfinite(float(v))
    except OverflowError:
        return False


def _ref_message(doc):
    if "action" in doc:
        block, where, n = doc, "", doc["space"]["size"]
        weights = doc["space"]["weights"]
        if len(weights) != n:
            return f"space.weights must be a list of {n} numbers"
        for i, w in enumerate(weights):
            if not _ref_number(w) or w <= 0:
                return f"space.weights[{i}] must be > 0"
            if not _ref_finite(w):
                return f"space.weights[{i}] must be finite"
        table = doc["action"]["table"]
        for i, row in enumerate(table):
            if not isinstance(row, list) or not row:
                return (f"action.table[{i}] must be a non-empty list of "
                        "integers")
            for j, x in enumerate(row):
                if not isinstance(x, int) or isinstance(x, bool):
                    return f"action.table[{i}][{j}] must be an integer"
        for i, row in enumerate(table):
            if min(row) < 0 or max(row) >= n:
                return f"action.table[{i}] entries must lie in 0..{n - 1}"
        for i, row in enumerate(table):
            if len(row) != n:
                return f"action.table[{i}] must have {n} entries"
    else:
        block, where = doc["translation"], "translation."
        n = math.prod(block["group_factors"])
    for key in ("generators", "candidates"):
        for k, vec in enumerate(block.get(key, [])):
            at = f"{where}{key}[{k}]"
            if len(vec) != n:
                return f"{at} must be a list of {n} [re, im] pairs"
            for i, pair in enumerate(vec):
                if not (isinstance(pair, list) and len(pair) == 2
                        and all(map(_ref_number, pair))):
                    return f"{at}[{i}] must be an [re, im] pair"
                if not all(map(_ref_finite, pair)):
                    return f"{at}[{i}] must hold finite numbers"
    return None


# JSON reads NaN, Infinity and 1e999 (as inf) as floats, and integers of
# any size: the entry faults are values JSON can put in a number's place
ENTRY_FAULTS = [True, "1", None, math.nan, math.inf, 10**400, [1]]
FAULTS = ENTRY_FAULTS + ["range", "short", "long", "row", "valid"]
FAULT_IDS = ["bool", "str", "None", "NaN", "inf", "int1e400", "list",
             "range", "short", "long", "row", "valid"]
NUMBERS = st.one_of(st.integers(-2**70, 2**70),
                    st.floats(allow_nan=False, allow_infinity=False))
WEIGHTS = st.one_of(st.integers(1, 2**70),
                    st.floats(min_value=1e-300, max_value=1e300))


@st.composite
def documents(draw):
    """A valid action or translation document, as json would decode it."""
    def vectors(n, k):
        return draw(st.lists(st.lists(st.lists(NUMBERS, min_size=2,
                                               max_size=2),
                                      min_size=n, max_size=n),
                             min_size=k, max_size=k))

    doc = {"schema_version": 1, "name": "p"}
    order = draw(st.integers(1, 4))
    if draw(st.booleans()):
        n = order * draw(st.integers(1, 4))
        perms = st.permutations(range(n)).map(list)
        doc.update(
            group={"invariant_factors": [order]},
            space={"size": n, "weights": draw(st.lists(
                WEIGHTS, min_size=n, max_size=n))},
            action={"table": draw(st.lists(perms, min_size=order,
                                           max_size=order))},
            generators=vectors(n, draw(st.integers(1, 2))),
            candidates=vectors(n, draw(st.integers(0, 2))))
    else:
        doc["translation"] = {
            "group_factors": [order],
            "subgroup_generators": [[draw(st.integers(0, order - 1))]],
            "generators": vectors(order, draw(st.integers(1, 2))),
            "candidates": vectors(order, draw(st.integers(0, 2)))}
    return doc


def _inject(draw, doc, fault):
    """Put ``fault`` at a random place of a block the loader reads as a
    whole array; False if the document has no place for it."""
    block = doc.get("translation", doc)
    places = [key for key in ("generators", "candidates")
              if block.get(key) and fault != "range"]
    if "action" in doc:
        places += ["table"] + (["weights"] if fault != "row" else [])
    if not places:
        return False
    place = draw(st.sampled_from(places))
    if place == "weights":
        rows = [doc["space"]["weights"]]
    else:
        rows = doc["action"]["table"] if place == "table" \
            else draw(st.sampled_from(block[place]))
    i = draw(st.integers(0, len(rows) - 1))
    if fault == "range":
        fault = draw(st.sampled_from([0, -1.5] if place == "weights"
                                     else [len(rows[i]), -1]))
    if fault == "short":
        rows[i] = rows[i][:-1]
    elif fault == "long":
        rows[i] = rows[i] + rows[i][:1]
    elif fault == "row":
        rows[i] = draw(st.sampled_from([5, 1.5, None, "x"]))
    else:
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = fault
    if place == "weights":
        doc["space"]["weights"] = rows[0]
    return True


@pytest.mark.parametrize("fault", FAULTS, ids=FAULT_IDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(data=st.data())
def test_loader_agrees_with_the_per_element_reader(fault, data):
    doc = data.draw(documents())
    assume(fault == "valid" or _inject(data.draw, doc, fault))
    expected = _ref_message(doc)
    assert (expected is None) == (fault == "valid")
    if expected is not None:
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(doc)
        assert str(e.value) == expected
        return
    sc = scenario_from_dict(doc)
    block = doc.get("translation", doc)
    for key in ("generators", "candidates"):
        loaded = getattr(sc, key)
        assert len(loaded) == len(block.get(key, []))
        for vec, pairs in zip(loaded, block.get(key, [])):
            expected = np.array([complex(re, im) for re, im in pairs])
            assert vec.dtype == complex
            assert vec.tobytes() == expected.tobytes()
    if sc.kind == "action":
        assert sc.action.table.tolist() == doc["action"]["table"]
        assert sc.action.space.weights.tolist() == \
            [float(w) for w in doc["space"]["weights"]]
