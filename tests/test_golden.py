"""Golden snapshot of the CLI: stdout, stderr and exit code, byte for byte.

Every command runs on every shipped fixture, and on ``nondyadic`` and
``nondyadic-translation`` kept next to the goldens, in both output
formats.  The expected outputs live in ``tests/golden/cli.json``; any
change in a report, down to the last bit of a float, fails here.

The shipped fixtures have dyadic weights and 0/1 generators, so most
floating-point reorderings leave their reports unchanged.
``tests/golden/nondyadic.json`` pins those last bits: Z_6 acts on 24
points by x -> x + 4 gamma, with weights drawn uniformly from [0.5, 3)
and two complex Gaussian generators, all from
``numpy.random.default_rng(6)`` and rounded to 6 decimals; the third
generator is 0.5 g0 - 1.25 g1, and there is one random candidate.
``tests/golden/nondyadic-translation.json`` does the same for translation
by the subgroup <(3, 0), (0, 2)> of Z_6 x Z_4: two complex Gaussian
generators and one candidate from ``numpy.random.default_rng(24)``,
rounded to 6 decimals, and the third generator 0.5 g0 - 1.25 g1.  It is
the only fixture with more than one translation generator, so the only
one that reaches the ``pairs`` block of ``translation duality``.  After an
intended output change, rewrite the snapshot with

    PYTHONPATH=src python tests/test_golden.py

which then prints ``tests/snapshot_outputs.py diff`` of the old snapshot
against the new one: the rewrite's own changes.
"""

import io
import json
from pathlib import Path

import pytest

from zakfiber.cli import _DISPATCH, run

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
FIXTURES = ["s1", "s1-parseval", "s2", "s3", "star", "nondyadic",
            "nondyadic-translation"]
# fixture names that resolve to a scenario file next to the goldens
LOCAL = {name: GOLDEN.parent / f"{name}.json"
         for name in ("nondyadic", "nondyadic-translation")}
FORMATS = ["structured", "csv-fibers"]
COMMANDS = list(_DISPATCH)
CASES = [f"{c} --scenario {f} --format {fmt}"
         for c in COMMANDS for f in FIXTURES for fmt in FORMATS]


def capture(case: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    argv = [str(LOCAL.get(arg, arg)) for arg in case.split()]
    code = run(argv, out=out, err=err)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)
    assert len(CASES) == 210


@pytest.mark.parametrize("case", CASES)
def test_cli_output_unchanged(golden, case):
    assert capture(case) == golden[case]


if __name__ == "__main__":
    import tempfile

    # imported only here: it sets the BLAS thread variables on import
    import snapshot_outputs

    GOLDEN.parent.mkdir(exist_ok=True)
    old = GOLDEN.read_text() if GOLDEN.exists() else "{}"
    snapshot = {case: capture(case) for case in CASES}
    GOLDEN.write_text(json.dumps(snapshot, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(snapshot)} cases to {GOLDEN}")
    # list the rewrite's own changes, old snapshot against new
    with tempfile.TemporaryDirectory() as tmp:
        before = Path(tmp) / "cli.json"
        before.write_text(old)
        snapshot_outputs.diff(str(before), str(GOLDEN))
