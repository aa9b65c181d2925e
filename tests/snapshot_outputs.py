"""Snapshot every CLI output on generated benchmark scenarios.

A tool, not a test (pytest does not collect it).  ``dump`` writes the
scenarios of the CLI workloads for the given seeds with ``bench/gen.py``
into a temporary directory (``bench/`` itself is left unchanged), runs
all 15 commands in both output formats on each, and writes stdout,
stderr and exit code per case as one JSON document.  ``diff`` compares
two dumps, so two checkouts can be compared byte for byte:

    PYTHONPATH=/path/to/other/src python tests/snapshot_outputs.py dump a.json
    PYTHONPATH=src python tests/snapshot_outputs.py dump b.json
    python tests/snapshot_outputs.py diff a.json b.json

``diff`` prints every case that differs, with any change of exit code or
stderr and every changed non-numeric value (booleans, nulls, strings)
under its JSON path; then, per command and numeric field path with list
indices collapsed to ``[]``, the largest relative and absolute change.
It exits 1 if any case differs.  ``tests/golden/cli.json`` has the same
format, so a re-baseline of the goldens is listed by

    git show HEAD:tests/golden/cli.json > old.json
    python tests/snapshot_outputs.py diff old.json tests/golden/cli.json
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import gen  # noqa: E402

CLI_WORKLOADS = [w for w, (_, mode, _) in gen.WORKLOADS.items()
                 if mode == "cli"]


def dump(workloads, seeds) -> dict:
    """{case: {exit, stdout, stderr}}, where a case is the command line
    with the scenario path relative to the generated tree."""
    from test_golden import COMMANDS, FORMATS
    from zakfiber.cli import run

    cases = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload, seed in itertools.product(workloads, seeds):
                d = Path(f"{workload}-seed{seed}")
                for sc in gen.generate(workload, seed, d)["scenarios"]:
                    for command, fmt in itertools.product(COMMANDS, FORMATS):
                        case = (f"{command} --scenario {d / sc['path']} "
                                f"--format {fmt}")
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
    """{JSON path: scalar} over a parsed document."""
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
        command = case.split(" --scenario")[0]
        missing = "<absent>"
        for path in sorted(la.keys() | lb.keys()):
            va, vb = la.get(path, missing), lb.get(path, missing)
            if va == vb:
                continue
            if _is_number(va) and _is_number(vb):
                change = abs(va - vb)
                rel = change / max(abs(va), abs(vb)) if change else 0.0
                key = (command, re.sub(r"\[\d+\]", "[]", path))
                prev = largest.get(key, (0.0, 0.0))
                largest[key] = (max(prev[0], rel), max(prev[1], change))
            else:
                print(f"  {path}: {json.dumps(va)} -> {json.dumps(vb)}")
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
    d.add_argument("--workloads", nargs="+", choices=CLI_WORKLOADS,
                   default=CLI_WORKLOADS)
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
