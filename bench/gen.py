"""Seeded input generation for the benchmark workloads.

Every input is built from the seed with numpy alone; nothing here imports
zakfiber, so the expected verdicts stored beside each scenario come from
the construction, not from the program under test.  The same seed writes
byte-identical files.

Construction, shared by the action workloads:

- A free action of G on N = |G|*|C| points is the action on G x C by
  translation in the first factor, with the points relabelled by a random
  permutation; for cyclic G the affine shorthand x -> x + k*|C|*gamma
  mod N (k coprime to |G|) is free as well.
- Generators are r random base functions, optionally followed by an
  exactly dependent one (a combination of shifted generators, which adds
  nothing to any fiber) and, for a near-dependent pair, a copy of the
  first generator perturbed by a relative 1e-6.  The invariant space then
  has fiber dimension r (r + 1 with the near-dependent pair) on every
  fiber, and its length is that number.
- The first candidate is a combination of shifted generators, so it lies
  in the space; the second is random, and lies outside it because the
  fiber dimension is below |C|.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NEAR_EPS = 1e-6
WEIGHT_DECADES = 3.0


@dataclass(frozen=True)
class ActionSpec:
    factors: tuple[int, ...]
    n_points: int          # |C|, points per orbit
    affine: bool           # affine shorthand (cyclic groups only) or table
    rank: int              # independent base generators
    n_gens: int            # total generators (extra ones are dependent)
    near: bool = False     # add a near-dependent copy of the first generator


@dataclass(frozen=True)
class TranslationSpec:
    factors: tuple[int, ...]
    steps: tuple[int, ...]  # subgroup generated by steps[j] * e_j
    rank: int
    n_gens: int


# Fixed grids: the seed varies the data, never the sizes, so every seed
# runs the same mix of shapes.
ACTION_CLI = [
    ActionSpec((64,), 8, True, 3, 4),
    ActionSpec((16,), 8, True, 2, 3),
    ActionSpec((32,), 12, True, 1, 1),
    ActionSpec((4, 8), 8, False, 1, 2),
    ActionSpec((4, 4), 6, False, 2, 3, near=True),
    ActionSpec((2, 16), 4, False, 2, 3),
    ActionSpec((24,), 10, False, 2, 3),
    ActionSpec((16,), 16, False, 2, 3),
    ActionSpec((2, 8), 8, False, 3, 4),
    ActionSpec((20,), 5, True, 1, 2),
    ActionSpec((2, 2, 4), 12, False, 2, 3),
]

FIBER_SESSION = [
    ActionSpec((128,), 8, True, 3, 6),
    ActionSpec((192,), 3, False, 2, 4),
    ActionSpec((256,), 4, False, 2, 5),
    ActionSpec((16, 16), 4, False, 3, 4),
    ActionSpec((320,), 5, True, 2, 5),
    ActionSpec((8, 48), 6, False, 3, 6),
    ActionSpec((512,), 8, True, 5, 8),
    ActionSpec((4, 8, 16), 6, False, 4, 8),
    ActionSpec((768,), 2, True, 1, 4),
    ActionSpec((1024,), 2, True, 1, 4),
]

WIDE_FIBER_SESSION = [
    ActionSpec((2,), 4096, True, 12, 16),
    ActionSpec((8,), 512, False, 24, 32),
    ActionSpec((2, 2), 1024, False, 16, 24),
    ActionSpec((4,), 768, True, 20, 32),
    ActionSpec((2, 4), 512, False, 10, 16),
    ActionSpec((6,), 640, False, 14, 20),
]

TRANSLATION_CLI = [
    TranslationSpec((512,), (64,), 1, 1),
    TranslationSpec((64,), (8,), 1, 1),
    TranslationSpec((8, 8), (1, 4), 1, 2),
    TranslationSpec((128,), (2,), 1, 1),
    TranslationSpec((4, 4, 16), (2, 2, 4), 1, 1),
    TranslationSpec((64,), (4,), 1, 1),
    TranslationSpec((128,), (16,), 1, 1),
    TranslationSpec((2, 64), (1, 16), 1, 1),
    TranslationSpec((4, 32), (2, 4), 1, 1),
    TranslationSpec((2, 32), (1, 8), 1, 2),
]

WORKLOADS = {
    "action-cli": ("action", "cli", ACTION_CLI),
    "fiber-session": ("action", "session", FIBER_SESSION),
    "wide-fiber-session": ("action", "session", WIDE_FIBER_SESSION),
    "translation-cli": ("translation", "cli", TRANSLATION_CLI),
}


# ---------------------------------------------------------------------------
# group bookkeeping (mixed radix, lexicographic like the package)


def elements(factors) -> np.ndarray:
    """All elements as an (order, rank) array in lexicographic order."""
    return np.array(list(itertools.product(*(range(n) for n in factors))),
                    dtype=np.int64).reshape(-1, len(factors))


def flat_index(factors, els: np.ndarray) -> np.ndarray:
    places = [math.prod(factors[j + 1:]) for j in range(len(factors))]
    return (els % np.asarray(factors)) @ np.asarray(places, dtype=np.int64)


def addition_table(factors) -> np.ndarray:
    """add[i, j] = index(el_i + el_j)."""
    els = elements(factors)
    return flat_index(factors, els[:, None, :] + els[None, :, :])


# ---------------------------------------------------------------------------
# actions


def action_table(rng, spec: ActionSpec) -> tuple[np.ndarray, list[int]]:
    """Permutation table (|G|, N) of a free action, and affine multipliers
    when the spec asks for the shorthand (empty list otherwise)."""
    order = math.prod(spec.factors)
    C = spec.n_points
    N = order * C
    if spec.affine:
        n = spec.factors[0]
        k = int(rng.integers(1, n)) if n > 1 else 1
        while math.gcd(k, n) != 1:
            k = int(rng.integers(1, n))
        m = k * C
        table = (np.arange(N)[None, :] + m * np.arange(order)[:, None]) % N
        return table, [m]
    add = addition_table(spec.factors)
    # point g*C + c of G x C moves to add[gamma, g]*C + c
    base = (add[:, :, None] * C + np.arange(C)).reshape(order, N)
    label = rng.permutation(N)
    table = np.empty_like(base)
    table[:, label] = label[base]
    return table, []


def shift(table: np.ndarray, neg: np.ndarray, weights: np.ndarray,
          gi: int, psi: np.ndarray) -> np.ndarray:
    """(Pi(gamma) psi)(x) = sqrt(mu(y)/mu(x)) psi(y), y = sigma_{-gamma}(x)."""
    perm = table[neg[gi]]
    return np.sqrt(weights[perm] / weights) * psi[perm]


def _cnormal(rng, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _combination(rng, shifter, vectors, order: int) -> np.ndarray:
    out = np.zeros_like(vectors[0])
    for v in vectors:
        out += complex(*rng.standard_normal(2)) * shifter(
            int(rng.integers(order)), v)
    return out


def _generators(rng, spec, near: bool, N: int, order: int, shifter):
    """Base, dependent and near-dependent generators plus the candidates,
    and the fiber dimension they span."""
    base = [_cnormal(rng, N) for _ in range(spec.rank)]
    gens = list(base)
    while len(gens) < spec.n_gens:
        gens.append(_combination(rng, shifter, base, order))
    rank = spec.rank
    if near:
        h = _cnormal(rng, N)
        h *= NEAR_EPS * np.linalg.norm(base[0]) / np.linalg.norm(h)
        gens.append(base[0] + h)
        rank += 1
    in_span = _combination(rng, shifter, gens, order)
    off_span = _cnormal(rng, N)
    return gens, [in_span, off_span], rank


def make_action(rng, spec: ActionSpec) -> dict:
    order = math.prod(spec.factors)
    N = order * spec.n_points
    table, multipliers = action_table(rng, spec)
    weights = 10.0 ** rng.uniform(-WEIGHT_DECADES, WEIGHT_DECADES, N)
    els = elements(spec.factors)
    neg = flat_index(spec.factors, -els)
    gens, cands, rank = _generators(
        rng, spec, spec.near, N, order,
        lambda gi, v: shift(table, neg, weights, gi, v))
    return {
        "factors": list(spec.factors),
        "table": table, "multipliers": multipliers, "weights": weights,
        "generators": np.stack(gens), "candidates": np.stack(cands),
        "expect": {"rank": rank, "n_fibers": order,
                   "n_points": spec.n_points,
                   "independent": rank == len(gens),
                   "near_dependent": spec.near,
                   "members": [True, False]},
    }


def make_translation(rng, spec: TranslationSpec) -> dict:
    factors = spec.factors
    order = math.prod(factors)
    sub_order = math.prod(n // math.gcd(d, n)
                          for n, d in zip(factors, spec.steps))
    members = elements([n // math.gcd(d, n) for n, d in zip(factors,
                                                             spec.steps)])
    members = members * np.asarray(spec.steps)
    els = elements(factors)
    # index of x - gamma for every gamma in the subgroup
    minus = flat_index(factors, els[None, :, :] - members[:, None, :])

    def translate(mi, psi):
        return psi[minus[mi]]

    gens, cands, rank = _generators(rng, spec, False, order, sub_order,
                                    translate)
    sub_gens = [[d if j == i else 0 for j in range(len(factors))]
                for i, d in enumerate(spec.steps)]
    return {
        "factors": list(factors), "subgroup_generators": sub_gens,
        "generators": np.stack(gens), "candidates": np.stack(cands),
        "expect": {"rank": rank, "n_fibers": sub_order,
                   "n_points": order // sub_order,
                   "independent": rank == len(gens),
                   "members": [True, False],
                   "l1_norms": [float(np.sum(np.abs(g))) for g in gens]},
    }


# ---------------------------------------------------------------------------
# writing


def _pairs(vectors: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in v] for v in vectors]


def _scenario_doc(kind: str, name: str, sc: dict) -> dict:
    if kind == "translation":
        return {"schema_version": 1, "name": name, "translation": {
            "group_factors": sc["factors"],
            "subgroup_generators": sc["subgroup_generators"],
            "generators": _pairs(sc["generators"]),
            "candidates": _pairs(sc["candidates"])}}
    if sc["multipliers"]:
        action = {"affine": {"multipliers": sc["multipliers"]}}
    else:
        action = {"table": sc["table"].tolist()}
    return {"schema_version": 1, "name": name,
            "group": {"invariant_factors": sc["factors"]},
            "space": {"size": int(sc["weights"].size),
                      "weights": [float(w) for w in sc["weights"]]},
            "action": action,
            "generators": _pairs(sc["generators"]),
            "candidates": _pairs(sc["candidates"])}


def generate(workload: str, seed: int, out_dir) -> dict:
    """Write every scenario of ``workload`` for ``seed`` under ``out_dir``.

    CLI workloads get one scenario JSON file each; session workloads get
    one directory of .npy arrays each.  Returns the manifest, which is
    also written as ``manifest.json``.
    """
    kind, mode, grid = WORKLOADS[workload]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    wl_id = list(WORKLOADS).index(workload)
    scenarios = []
    for i, spec in enumerate(grid):
        rng = np.random.default_rng([seed, wl_id, i])
        sc = make_translation(rng, spec) if kind == "translation" \
            else make_action(rng, spec)
        name = f"{workload}-{i}"
        entry = {"name": name, "expect": sc["expect"]}
        if mode == "cli":
            path = out / f"{name}.json"
            path.write_text(json.dumps(_scenario_doc(kind, name, sc)))
            entry["path"] = path.name
        else:
            d = out / name
            d.mkdir(exist_ok=True)
            for key in ("table", "weights", "generators", "candidates"):
                np.save(d / f"{key}.npy", sc[key], allow_pickle=False)
            entry.update(path=d.name, factors=sc["factors"],
                         multipliers=sc["multipliers"])
        scenarios.append(entry)
    manifest = {"workload": workload, "seed": seed, "kind": kind,
                "mode": mode, "scenarios": scenarios}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest
