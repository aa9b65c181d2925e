"""Scenario files: one JSON document describing a group, a weighted space
with an action (or a subgroup-translation setup), and generators.

Complex vectors are stored as lists of [re, im] pairs.  Exactly one of
the ``action`` and ``translation`` blocks must be present.  Actions are
given as explicit permutation tables or as the affine shorthand
sigma_gamma(x) = x + sum_j m_j gamma_j mod N, expanded at load time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .action import QuasiInvariantAction, WeightedSpace, affine_action
from .group import FiniteAbelianGroup
from .translation import TranslationScenario, build_scenario

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "scenario_from_dict",
           "fixture_path", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Malformed scenario document."""


def fixture_path(name: str) -> Path:
    """Path of a fixture scenario shipped with the package."""
    p = Path(__file__).parent / "fixtures" / f"{name}.json"
    if not p.exists():
        raise ScenarioError(f"no fixture named {name!r}")
    return p


@dataclass
class Scenario:
    name: str
    kind: str  # "action" or "translation"
    generators: list[np.ndarray]
    candidates: list[np.ndarray] = field(default_factory=list)
    action: QuasiInvariantAction | None = None
    translation: TranslationScenario | None = None


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ScenarioError(f"missing field {where}{key}")
    return d[key]


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where} must be a non-empty list of integers")
    out = []
    for i, v in enumerate(value):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ScenarioError(f"{where}[{i}] must be an integer")
        out.append(v)
    return out


def _finite(v) -> bool:
    """JSON admits NaN, Infinity, 1e999 (read as inf) and huge integers."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _complex_vector(value, size: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != size:
        raise ScenarioError(f"{where} must be a list of {size} [re, im] pairs")
    out = np.empty(size, dtype=complex)
    for i, pair in enumerate(value):
        if (not isinstance(pair, list) or len(pair) != 2
                or not all(isinstance(v, (int, float)) and
                           not isinstance(v, bool) for v in pair)):
            raise ScenarioError(f"{where}[{i}] must be an [re, im] pair")
        if not all(_finite(v) for v in pair):
            raise ScenarioError(f"{where}[{i}] must hold finite numbers")
        out[i] = complex(pair[0], pair[1])
    return out


def _vector_list(value, size: int, where: str) -> list[np.ndarray]:
    if not isinstance(value, list):
        raise ScenarioError(f"{where} must be a list of complex vectors")
    return [_complex_vector(v, size, f"{where}[{i}]")
            for i, v in enumerate(value)]


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    version = _require(doc, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"schema_version {version!r} is not supported (expected "
            f"{SCHEMA_VERSION})"
        )
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ScenarioError("name must be a string")

    has_action = "action" in doc
    has_translation = "translation" in doc
    if has_action == has_translation:
        raise ScenarioError(
            "exactly one of the action/translation blocks must be present"
        )

    if has_translation:
        t = doc["translation"]
        if not isinstance(t, dict):
            raise ScenarioError("translation must be an object")
        factors = _int_list(_require(t, "group_factors", "translation."),
                            "translation.group_factors")
        try:
            G = FiniteAbelianGroup(factors)
        except ValueError as e:
            raise ScenarioError(f"translation.group_factors: {e}") from e
        raw_gens = _require(t, "subgroup_generators", "translation.")
        if not isinstance(raw_gens, list):
            raise ScenarioError("translation.subgroup_generators must be a "
                                "list of elements")
        sub_gens = [_int_list(g, f"translation.subgroup_generators[{i}]")
                    for i, g in enumerate(raw_gens)]
        try:
            ts = build_scenario(G, sub_gens)
        except ValueError as e:
            raise ScenarioError(f"translation.subgroup_generators: {e}") from e
        gens = _vector_list(_require(t, "generators", "translation."),
                            G.order, "translation.generators")
        if not gens:
            raise ScenarioError("translation.generators must be non-empty")
        cands = _vector_list(t.get("candidates", []), G.order,
                             "translation.candidates")
        return Scenario(name=name, kind="translation", generators=gens,
                        candidates=cands, translation=ts)

    gblock = _require(doc, "group", "")
    if not isinstance(gblock, dict):
        raise ScenarioError("group must be an object")
    factors = _int_list(_require(gblock, "invariant_factors", "group."),
                        "group.invariant_factors")
    try:
        G = FiniteAbelianGroup(factors)
    except ValueError as e:
        raise ScenarioError(f"group.invariant_factors: {e}") from e

    sblock = _require(doc, "space", "")
    if not isinstance(sblock, dict):
        raise ScenarioError("space must be an object")
    size = _require(sblock, "size", "space.")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ScenarioError("space.size must be a positive integer")
    weights = _require(sblock, "weights", "space.")
    if not isinstance(weights, list) or len(weights) != size:
        raise ScenarioError(f"space.weights must be a list of {size} numbers")
    for i, w in enumerate(weights):
        if not isinstance(w, (int, float)) or isinstance(w, bool) or w <= 0:
            raise ScenarioError(f"space.weights[{i}] must be > 0")
        if not _finite(w):
            raise ScenarioError(f"space.weights[{i}] must be finite")
    space = WeightedSpace(weights)

    ablock = doc["action"]
    if not isinstance(ablock, dict):
        raise ScenarioError("action must be an object")
    has_table = "table" in ablock
    has_affine = "affine" in ablock
    if has_table == has_affine:
        raise ScenarioError(
            "action needs exactly one of: table, affine"
        )
    if has_affine:
        aff = ablock["affine"]
        if not isinstance(aff, dict):
            raise ScenarioError("action.affine must be an object")
        ms = _int_list(_require(aff, "multipliers", "action.affine."),
                       "action.affine.multipliers")
        try:
            act = affine_action(G, space, ms)
        except ValueError as e:
            raise ScenarioError(f"action.affine: {e}") from e
    else:
        table = ablock["table"]
        if not isinstance(table, list) or len(table) != G.order:
            raise ScenarioError(
                f"action.table must have one row per group element "
                f"({G.order} rows)"
            )
        rows = [_int_list(row, f"action.table[{i}]")
                for i, row in enumerate(table)]
        for i, row in enumerate(rows):
            if min(row) < 0 or max(row) >= size:
                raise ScenarioError(
                    f"action.table[{i}] entries must lie in 0..{size - 1}"
                )
        try:
            act = QuasiInvariantAction(G, space, rows)
        except ValueError as e:
            raise ScenarioError(f"action.table: {e}") from e

    gens = _vector_list(_require(doc, "generators", ""), size, "generators")
    if not gens:
        raise ScenarioError("generators must be non-empty")
    cands = _vector_list(doc.get("candidates", []), size, "candidates")
    return Scenario(name=name, kind="action", generators=gens,
                    candidates=cands, action=act)


def parse_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {p}: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"scenario file {p} is not valid JSON: {e}") from e
    return scenario_from_dict(doc)
