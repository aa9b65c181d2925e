import json
import math

import numpy as np
import pytest

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
