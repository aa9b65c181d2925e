"""Scenario files: one JSON document describing a group, a weighted space
with an action (or a subgroup-translation setup), and generators.

Complex vectors are stored as lists of [re, im] pairs.  Exactly one of
the ``action`` and ``translation`` blocks must be present.  Actions are
given as explicit permutation tables or as the affine shorthand
sigma_gamma(x) = x + sum_j m_j gamma_j mod N, expanded at load time.

Tables, weights and vectors are loaded whole: one type scan and one array
per block, checked for range, sign and finiteness as a whole.  The element
loops run only when a block fails; they name its first bad entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
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


def _object(d: dict, key: str, where: str = "") -> dict:
    value = _require(d, key, where)
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}{key} must be an object")
    return value


def _wrap(where: str, build, *args):
    """``build(*args)``; a library ValueError becomes "<where>: ..."."""
    try:
        return build(*args)
    except ValueError as e:
        raise ScenarioError(f"{where}: {e}") from e


def _int_list(value, where: str) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{where} must be a non-empty list of integers")
    for i, v in enumerate(value):
        if not isinstance(v, int) or isinstance(v, bool):
            raise ScenarioError(f"{where}[{i}] must be an integer")
    return value


def _finite(v) -> bool:
    """JSON admits NaN, Infinity, 1e999 (read as inf) and huge integers."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _flat(rows: list, types: set, width: int, dtype) -> np.ndarray | None:
    """The entries of ``rows``, lists of ``width`` entries, as one flat array;
    None if a row is not such a list, an entry's exact type is not in
    ``types`` (so bool is not int) or an integer overflows ``dtype``."""
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {width} \
            and set(map(type, chain.from_iterable(rows))) <= types:
        try:
            return np.fromiter(chain.from_iterable(rows), dtype,
                               len(rows) * width)
        except OverflowError:
            pass
    return None


def _complex_vector(value, size: int, where: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != size:
        raise ScenarioError(f"{where} must be a list of {size} [re, im] pairs")
    a = _flat(value, {int, float}, 2, float)
    if a is None or not np.isfinite(a).all():
        for i, pair in enumerate(value):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not _number(pair[0]) or not _number(pair[1])):
                raise ScenarioError(f"{where}[{i}] must be an [re, im] pair")
            if not (_finite(pair[0]) and _finite(pair[1])):
                raise ScenarioError(f"{where}[{i}] must hold finite numbers")
        a = np.array(value, dtype=float)  # subclasses of int and float
    # the same bits as complex(re, im) for each pair
    return a.reshape(-1).view(complex)


def _vector_list(value, size: int, where: str) -> list[np.ndarray]:
    if not isinstance(value, list):
        raise ScenarioError(f"{where} must be a list of complex vectors")
    return [_complex_vector(v, size, f"{where}[{i}]")
            for i, v in enumerate(value)]


def _generators(block: dict, size: int, where: str):
    """(generators, candidates) of a block; ``where`` prefixes the keys."""
    gens = _vector_list(_require(block, "generators", where), size,
                        f"{where}generators")
    if not gens:
        raise ScenarioError(f"{where}generators must be non-empty")
    return gens, _vector_list(block.get("candidates", []), size,
                              f"{where}candidates")


def _group(block: dict, key: str, where: str) -> FiniteAbelianGroup:
    factors = _int_list(_require(block, key, f"{where}."), f"{where}.{key}")
    return _wrap(f"{where}.{key}", FiniteAbelianGroup, factors)


def _space(doc: dict) -> WeightedSpace:
    sblock = _object(doc, "space")
    size = _require(sblock, "size", "space.")
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ScenarioError("space.size must be a positive integer")
    weights = _require(sblock, "weights", "space.")
    if not isinstance(weights, list) or len(weights) != size:
        raise ScenarioError(f"space.weights must be a list of {size} numbers")
    w = _flat([weights], {int, float}, size, float)
    if w is None or not ((w > 0).all() and np.isfinite(w).all()):
        for i, wi in enumerate(weights):
            if not _number(wi) or wi <= 0:
                raise ScenarioError(f"space.weights[{i}] must be > 0")
            if not _finite(wi):
                raise ScenarioError(f"space.weights[{i}] must be finite")
    return WeightedSpace(weights if w is None else w)


def _table(table, order: int, size: int) -> np.ndarray:
    """(order, size) array; every row passes each check before the next."""
    if not isinstance(table, list) or len(table) != order:
        raise ScenarioError("action.table must have one row per group "
                            f"element ({order} rows)")
    t = _flat(table, {int}, size, np.intp)
    if t is None or t.min() < 0 or t.max() >= size:
        rows = [_int_list(row, f"action.table[{i}]")
                for i, row in enumerate(table)]
        for i, row in enumerate(rows):
            if min(row) < 0 or max(row) >= size:
                raise ScenarioError(f"action.table[{i}] entries must lie "
                                    f"in 0..{size - 1}")
        for i, row in enumerate(rows):
            if len(row) != size:
                raise ScenarioError(f"action.table[{i}] must have {size} "
                                    "entries")
        t = np.array(rows, dtype=np.intp)
    return t.reshape(order, size)


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    version = _require(doc, "schema_version", "")
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"schema_version {version!r} is not supported "
                            f"(expected {SCHEMA_VERSION})")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ScenarioError("name must be a string")

    has_action = "action" in doc
    if has_action == ("translation" in doc):
        raise ScenarioError("exactly one of the action/translation blocks "
                            "must be present")

    if not has_action:
        t = _object(doc, "translation")
        G = _group(t, "group_factors", "translation")
        raw_gens = _require(t, "subgroup_generators", "translation.")
        if not isinstance(raw_gens, list):
            raise ScenarioError("translation.subgroup_generators must be a "
                                "list of elements")
        sub_gens = [_int_list(g, f"translation.subgroup_generators[{i}]")
                    for i, g in enumerate(raw_gens)]
        ts = _wrap("translation.subgroup_generators", build_scenario, G,
                   sub_gens)
        gens, cands = _generators(t, G.order, "translation.")
        return Scenario(name=name, kind="translation", generators=gens,
                        candidates=cands, translation=ts)

    G = _group(_object(doc, "group"), "invariant_factors", "group")
    space = _space(doc)
    ablock = _object(doc, "action")
    if ("table" in ablock) == ("affine" in ablock):
        raise ScenarioError("action needs exactly one of: table, affine")
    if "affine" in ablock:
        aff = _object(ablock, "affine", "action.")
        ms = _int_list(_require(aff, "multipliers", "action.affine."),
                       "action.affine.multipliers")
        act = _wrap("action.affine", affine_action, G, space, ms)
    else:
        table = _table(ablock["table"], G.order, space.size)
        act = _wrap("action.table", QuasiInvariantAction, G, space, table)

    gens, cands = _generators(doc, space.size, "")
    return Scenario(name=name, kind="action", generators=gens,
                    candidates=cands, action=act)


def parse_scenario(path) -> Scenario:
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as e:
        raise ScenarioError(f"cannot read scenario file {p}: {e}") from e
    try:
        # bytes: json detects the encoding, whatever the locale's is
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise ScenarioError(f"scenario file {p} is not valid JSON: {e}") from e
    return scenario_from_dict(doc)
