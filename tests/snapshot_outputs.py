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

``diff`` prints every case that differs and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
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


def diff(path_a, path_b) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    cases = sorted(a.keys() | b.keys())
    changed = [c for c in cases if a.get(c) != b.get(c)]
    for case in changed:
        print(case)
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
