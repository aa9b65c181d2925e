"""The ops of each workload and their checks against the construction.

An op is one command a user would run (``cli.run`` in process, one
client, ``--parallel`` left at 1) or one library call of a session.
``Op.run`` is the timed part; it never raises, because an exception is
the op's result and fails its check.  ``Op.observe`` turns a result into
a dict of verdicts (exit code, flags, counts) that must equal
``Op.expected``, which comes from the generator's construction.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from zakfiber import action, cli, decomp, frames, group, ranges, zak

# gate of the duality identity, the same one `verify` applies
DUALITY_GATE = 1e-10

ACTION_COMMANDS = ["validate", "frame", "member", "decompose", "verify"]
# `verify` on a near-dependent pair is ROADMAP item 4's edge case: at seed
# the two routes cut rank differently and it exits 3.  It is a probe, run
# once per run outside the timed loop and checked like every op, so the
# loop's ops all pass while the probe keeps reporting the defect.
PROBE_COMMANDS = ["verify"]
TRANSLATION_COMMANDS = ["translation analyze", "translation duality",
                        "decompose", "verify"]


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]        # session state -> result
    observe: Callable[[object], dict]    # result -> verdicts
    expected: dict

    def problems(self, result) -> list[str]:
        seen = self.observe(result)
        return [f"{k}: expected {v!r}, got {seen.get(k)!r}"
                for k, v in self.expected.items() if seen.get(k) != v] + \
            [f"{k}: {v!r}" for k, v in seen.items() if k not in self.expected]


def _guarded(fn):
    """Run fn; any exception becomes the op's result."""
    def run(state):
        try:
            return fn(state)
        except Exception as e:  # the op failed; its check records why
            return e
    return run


def _raised(result) -> dict | None:
    if isinstance(result, Exception):
        return {"raised": type(result).__name__}
    return None


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


# ---------------------------------------------------------------------------
# CLI workloads


def _cli_readers(expect: dict) -> dict:
    """Verdict readers and expected verdicts per command."""
    rank = expect["rank"]

    def duality_ok(rep):
        return all(max(r["transform_deviation"], r["gramian_deviation"])
                   <= DUALITY_GATE * max(1.0, l1)
                   for r, l1 in zip(rep["generators"], expect["l1_norms"]))

    return {
        "validate": (lambda rep: {"ok": rep["ok"]}, {"ok": True}),
        "frame": (lambda rep: {"frame": rep["summary"]["frame"],
                               "length": rep["summary"]["length"]},
                  {"frame": True, "length": rank}),
        "member": (lambda rep: {"members": [c["member"]
                                            for c in rep["candidates"]]},
                   {"members": expect["members"]}),
        "decompose": (lambda rep: {"ok": rep["ok"],
                                   "parts": len(rep["parts"]),
                                   "parts_parseval":
                                       all(rep["audit"]["parts_parseval"])},
                      {"ok": True, "parts": rank, "parts_parseval": True}),
        "verify": (lambda rep: {"ok": rep["ok"]}, {"ok": True}),
        "translation analyze": (lambda rep: {"frame": rep["summary"]["frame"],
                                             "length": rep["length"]},
                                {"frame": True, "length": rank}),
        "translation duality": (lambda rep: {"duality_ok": duality_ok(rep)},
                                {"duality_ok": True}),
    }


def cli_op(command: str, path: Path, expect: dict) -> Op:
    argv = command.split() + ["--scenario", str(path)]
    reader, expected = _cli_readers(expect)[command]

    def run(state):
        out, err = io.StringIO(), io.StringIO()
        return cli.run(argv, out=out, err=err), out.getvalue()

    def observe(result):
        raised = _raised(result)
        if raised:
            return raised
        code, text = result
        try:
            rep = json.loads(text, parse_constant=_reject_constant)
        except ValueError:
            return {"exit": code, "strict_json": False}
        try:
            seen = reader(rep)
        except (KeyError, TypeError) as e:
            return {"exit": code, "report": f"unreadable: {e!r}"}
        return {"exit": code, **seen}

    return Op(command, _guarded(run), observe, {"exit": 0, **expected})


# ---------------------------------------------------------------------------
# session workloads


def session_ops(inputs: dict, expect: dict) -> list[Op]:
    """build, frame_check, riesz_check, range, member per candidate,
    decompose and audit, sharing state within the scenario."""
    gens = list(inputs["generators"])
    cands = list(inputs["candidates"])

    def build(state):
        G = group.FiniteAbelianGroup(inputs["factors"])
        space = action.WeightedSpace(inputs["weights"])
        if inputs["multipliers"]:
            act = action.affine_action(G, space, inputs["multipliers"])
        else:
            act = action.QuasiInvariantAction(G, space, inputs["table"])
        state["zk"] = zak.ZakTransform(act)
        return state["zk"]

    def span_range(state):
        state["J"] = ranges.range_from_generators(state["zk"], gens)
        return state["J"]

    def decompose(state):
        state["parts"] = decomp.parseval_decompose(state["zk"], gens)
        return state["parts"]

    def member(i):
        return lambda state: ranges.membership(state["zk"], cands[i],
                                               state["J"])

    def spectra(r):
        return {"frame": r.is_frame, "riesz": r.is_riesz,
                "length": int(r.dims.max())}

    rank = expect["rank"]
    table = [
        ("build", build,
         lambda zk: {"n_fibers": zk.n_fibers, "n_points": zk.n_points},
         {"n_fibers": expect["n_fibers"], "n_points": expect["n_points"]}),
        ("frame_check", lambda s: frames.frame_check(s["zk"], gens), spectra,
         {"frame": True, "riesz": expect["independent"], "length": rank}),
        ("riesz_check", lambda s: frames.riesz_check(s["zk"], gens), spectra,
         {"frame": True, "riesz": expect["independent"], "length": rank}),
        ("range", span_range, lambda J: {"length": J.length()},
         {"length": rank}),
    ]
    for i, want in enumerate(expect["members"]):
        table.append((f"member{i}", member(i),
                      lambda res: {"member": bool(res[0])}, {"member": want}))
    table += [
        ("decompose", decompose, lambda parts: {"parts": len(parts)},
         {"parts": rank}),
        ("audit", lambda s: decomp.verify_decomposition(s["zk"], gens,
                                                        s["parts"]),
         lambda chk: {"ok": chk.ok, "parseval": chk.parseval_ok},
         {"ok": True, "parseval": True}),
    ]

    def observer(read):
        return lambda result: _raised(result) or read(result)

    return [Op(name, _guarded(run), observer(read), expected)
            for name, run, read, expected in table]


# ---------------------------------------------------------------------------


class Workload:
    """The generated inputs of one workload, read from its directory."""

    def __init__(self, work_dir):
        self.dir = Path(work_dir)
        self.manifest = json.loads((self.dir / "manifest.json").read_text())
        self.scenarios = self.manifest["scenarios"]

    def scenario_ops(self, i: int) -> list[Op]:
        """Ops of scenario i, with its inputs loaded (not timed)."""
        sc = self.scenarios[i]
        path = self.dir / sc["path"]
        if self.manifest["mode"] == "cli":
            commands = (ACTION_COMMANDS if self.manifest["kind"] == "action"
                        else TRANSLATION_COMMANDS)
            if sc["expect"].get("near_dependent"):
                commands = [c for c in commands if c not in PROBE_COMMANDS]
            return [cli_op(c, path, sc["expect"]) for c in commands]
        inputs = {"factors": sc["factors"],
                  "multipliers": sc["multipliers"]}
        keys = ["weights", "generators", "candidates"]
        if not sc["multipliers"]:
            keys.append("table")
        for key in keys:
            inputs[key] = np.load(path / f"{key}.npy", allow_pickle=False)
        return session_ops(inputs, sc["expect"])

    def probe_ops(self) -> list[Op]:
        """The probe ops: PROBE_COMMANDS on near-dependent CLI scenarios."""
        if self.manifest["mode"] != "cli":
            return []
        return [cli_op(c, self.dir / sc["path"], sc["expect"])
                for sc in self.scenarios
                if sc["expect"].get("near_dependent")
                for c in PROBE_COMMANDS]
