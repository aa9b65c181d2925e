"""Snapshot every CLI output and session result on generated benchmark
scenarios.

A tool, not a test (pytest does not collect it).  ``dump`` writes the
scenarios of the benchmark workloads for the given seeds with
``bench/gen.py`` into a temporary directory (``bench/`` itself is left
unchanged).  On the scenarios of a CLI workload it runs all 15 commands in
both output formats; on those of a session workload it runs the 8 library
calls of ``bench/ops.py``'s session in order.  Each translation scenario
also gets a variant with 4 seeded complex Gaussian generators, written
next to it as ``<name>-k4.json``, on which ``translation duality``,
``translation weil`` and ``verify`` run, so that the duality pairs are
covered at scale.  It writes stdout, stderr and exit code per case as one
JSON document.  A session case's stdout is the JSON form of the call's
result (report fields, range dims and basis, parts, audit fields but not
the basis of its ``parts_range``, which is the forward of the parts), with
every array stored as its bytes, and an exception is exit 1 with its repr
on stderr.  The tool sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1 before NumPy loads, as ``bench/run.py`` does
for its workers: a multithreaded BLAS may split its sums differently when
other work competes for the cores, which moves last bits, so only dumps
made at one thread compare.  ``diff`` compares two dumps, so two
checkouts can be compared byte for byte:

    PYTHONPATH=/path/to/other/src python tests/snapshot_outputs.py dump a.json
    PYTHONPATH=src python tests/snapshot_outputs.py dump b.json
    python tests/snapshot_outputs.py diff a.json b.json

``diff`` prints every case that differs, with any change of exit code or
stderr and every changed non-numeric value (booleans, nulls, strings)
under its JSON path; then, per command and numeric field path with list
indices collapsed to ``[]``, the largest relative and absolute change
(over all elements, for an array).  It exits 1 if any case differs.
``tests/golden/cli.json`` has the same format, so a re-baseline of the
goldens is listed by

    git show HEAD:tests/golden/cli.json > old.json
    python tests/snapshot_outputs.py diff old.json tests/golden/cli.json
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import io
import itertools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402

CLI_WORKLOADS = [w for w, (_, mode, _) in gen.WORKLOADS.items()
                 if mode == "cli"]
SESSION_WORKLOADS = [w for w, (_, mode, _) in gen.WORKLOADS.items()
                     if mode == "session"]
# generators of the variant of each translation scenario, and its cases
VARIANT_GENS = 4
VARIANT_CASES = [(c, "structured") for c in
                 ("translation duality", "translation weil", "verify")]


def _encode(value):
    """JSON form of a session result; an array keeps its bytes."""
    if isinstance(value, np.ndarray):
        a = np.ascontiguousarray(value)
        return {"dtype": a.dtype.str, "shape": list(a.shape),
                "b64": base64.b64encode(a.tobytes()).decode()}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if hasattr(value, "n_points"):  # the fibration the build op returns
        return {"n_fibers": value.n_fibers, "n_points": value.n_points}
    return value


def _session_cases(d: Path) -> dict:
    import ops

    cases = {}
    workload = ops.Workload(d)
    for i, sc in enumerate(workload.scenarios):
        state = {}
        for op in workload.scenario_ops(i):
            result = op.run(state)
            failed = isinstance(result, Exception)
            doc = None if failed else _encode(result)
            if op.name == "audit" and not failed:  # the parts' forward
                del doc["parts_range"]["basis"]
            cases[f"session {d / sc['path']} {op.name}"] = {
                "exit": int(failed),
                "stdout": "" if failed else json.dumps(doc, sort_keys=True),
                "stderr": repr(result) if failed else ""}
    return cases


def _variant(path: Path, seed: int, index: int) -> Path:
    """A copy of the translation scenario at ``path`` with VARIANT_GENS
    complex Gaussian generators drawn from ``default_rng([seed, index])``."""
    doc = json.loads(path.read_text())
    t = doc["translation"]
    rng = np.random.default_rng([seed, index])
    shape = (VARIANT_GENS, len(t["generators"][0]))
    t["generators"] = gen._pairs(gen._cnormal(rng, shape))
    out = path.with_name(f"{path.stem}-k{VARIANT_GENS}.json")
    out.write_text(json.dumps(doc))
    return out


def dump(workloads, seeds) -> dict:
    """{case: {exit, stdout, stderr}}, where a case is the command line
    with the scenario path relative to the generated tree, or ``session``,
    the scenario's directory and the name of the op."""
    from test_golden import COMMANDS, FORMATS
    from zakfiber.cli import run

    cases = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload, seed in itertools.product(workloads, seeds):
                d = Path(f"{workload}-seed{seed}")
                scenarios = gen.generate(workload, seed, d)["scenarios"]
                if workload in SESSION_WORKLOADS:
                    cases.update(_session_cases(d))
                    continue
                every = list(itertools.product(COMMANDS, FORMATS))
                runs = [(d / sc["path"], every) for sc in scenarios]
                if gen.WORKLOADS[workload][0] == "translation":
                    runs += [(_variant(path, seed, i), VARIANT_CASES)
                             for i, (path, _) in enumerate(list(runs))]
                for path, pairs in runs:
                    for command, fmt in pairs:
                        case = f"{command} --scenario {path} --format {fmt}"
                        out, err = io.StringIO(), io.StringIO()
                        code = run(case.split(), out=out, err=err)
                        cases[case] = {"exit": code, "stdout": out.getvalue(),
                                       "stderr": err.getvalue()}
        finally:
            os.chdir(cwd)
    return cases


def _document(stdout: str):
    """A JSON report as parsed, a CSV fiber dump as a list of rows."""
    try:
        return json.loads(stdout)
    except ValueError:
        return [[float(v) if re.fullmatch(r"[-+.\deE]+", v) else v
                 for v in line.split(",")] for line in stdout.splitlines()]


def _leaves(node, path="$"):
    """{JSON path: scalar or array} over a parsed document."""
    if isinstance(node, dict) and "b64" in node:
        data = base64.b64decode(node["b64"])
        return {path: np.frombuffer(data, dtype=node["dtype"])
                .reshape(node["shape"])}
    if isinstance(node, dict):
        items = ((f"{path}.{k}", v) for k, v in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(node))
    else:
        return {path: node}
    return {p: leaf for key, v in items for p, leaf in _leaves(v, key).items()}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def diff(path_a, path_b) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    cases = sorted(a.keys() | b.keys())
    changed = [c for c in cases if a.get(c) != b.get(c)]
    largest = {}  # (command, collapsed path) -> (relative, absolute)
    for case in changed:
        print(case)
        old, new = a.get(case), b.get(case)
        if old is None or new is None:
            print("  only in " + (path_b if old is None else path_a))
            continue
        if old["exit"] != new["exit"]:
            print(f"  exit: {old['exit']} -> {new['exit']}")
        if old["stderr"] != new["stderr"]:
            print(f"  stderr: {old['stderr']!r} -> {new['stderr']!r}")
        la, lb = (_leaves(_document(s["stdout"])) for s in (old, new))
        command = case.rsplit(" ", 1)[1] if case.startswith("session ") \
            else case.split(" --scenario")[0]
        missing = "<absent>"
        for path in sorted(la.keys() | lb.keys()):
            va, vb = la.get(path, missing), lb.get(path, missing)
            arrays = [isinstance(v, np.ndarray) for v in (va, vb)]
            if all(arrays) and va.shape == vb.shape:
                if va.tobytes() == vb.tobytes():
                    continue
                va, vb = va.astype(complex), vb.astype(complex)
                change = np.abs(va - vb)
                peak = np.maximum(np.abs(va), np.abs(vb))
                rel = float(np.max(change / np.where(peak > 0, peak, 1)))
                change = float(np.max(change))
            elif any(arrays):
                shapes = [v.shape if a else v
                          for v, a in zip((va, vb), arrays)]
                print(f"  {path}: shape {shapes[0]} -> {shapes[1]}")
                continue
            elif va == vb:
                continue
            elif _is_number(va) and _is_number(vb):
                change = abs(va - vb)
                rel = change / max(abs(va), abs(vb)) if change else 0.0
            else:
                print(f"  {path}: {json.dumps(va)} -> {json.dumps(vb)}")
                continue
            key = (command, re.sub(r"\[\d+\]", "[]", path))
            prev = largest.get(key, (0.0, 0.0))
            largest[key] = (max(prev[0], rel), max(prev[1], change))
    if largest:
        print("largest change per numeric field (relative, absolute):")
        for (command, path), (rel, change) in sorted(largest.items()):
            print(f"  {command} {path}: {rel:.3g}, {change:.3g}")
    print(f"{len(changed)} of {len(cases)} cases differ")
    return 1 if changed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="action", required=True)
    d = sub.add_parser("dump")
    d.add_argument("out")
    d.add_argument("--workloads", nargs="+", choices=list(gen.WORKLOADS),
                   default=list(gen.WORKLOADS))
    d.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    c = sub.add_parser("diff")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    if args.action == "diff":
        return diff(args.a, args.b)
    cases = dump(args.workloads, args.seeds)
    Path(args.out).write_text(json.dumps(cases, sort_keys=True, indent=1)
                              + "\n")
    src = Path(sys.modules["zakfiber"].__file__).parent
    print(f"wrote {len(cases)} cases from {src} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
