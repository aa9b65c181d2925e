"""Self-tests of the benchmark (not part of the package's test suite).

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
from pathlib import Path

import pytest

import gen
import ops
import run
import spans
import worker

ROOT = Path(__file__).resolve().parents[2]


def _files(d: Path) -> dict:
    return {p.relative_to(d).as_posix(): p.read_bytes()
            for p in sorted(d.rglob("*")) if p.is_file()}


def _workload(tmp_path, name, keep, rank_delta=0) -> ops.Workload:
    """Generated workload restricted to the scenarios in ``keep``."""
    d = tmp_path / name
    manifest = gen.generate(name, 7, d)
    manifest["scenarios"] = [manifest["scenarios"][i] for i in keep]
    for sc in manifest["scenarios"]:
        sc["expect"]["rank"] += rank_delta
    (d / "manifest.json").write_text(json.dumps(manifest))
    return ops.Workload(d)


@pytest.mark.parametrize("name", list(gen.WORKLOADS))
def test_generation_is_deterministic_per_seed(tmp_path, name):
    for d, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.generate(name, seed, tmp_path / d)
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_construction_checks_pass_on_a_small_scenario(tmp_path):
    wl = _workload(tmp_path, "action-cli", [0])
    out = worker.loop(wl, 0.0)
    assert len(out["latencies_ns"]) == len(ops.ACTION_COMMANDS)
    assert out["failed"] == 0, out["failures"]


def test_wrong_expected_verdict_is_a_failed_op(tmp_path):
    wl = _workload(tmp_path, "action-cli", [0], rank_delta=1)
    out = worker.loop(wl, 0.0)
    # frame reports the length and decompose the number of parts
    assert set(out["failures"]) == {"frame", "decompose"}
    assert out["failed"] == 2


def test_near_dependent_verify_runs_as_a_probe(tmp_path):
    near = [i for i, spec in enumerate(gen.ACTION_CLI) if spec.near]
    wl = _workload(tmp_path, "action-cli", near[:1])
    assert [op.name for op in wl.scenario_ops(0)] == [
        c for c in ops.ACTION_COMMANDS if c not in ops.PROBE_COMMANDS]
    out = worker.loop(wl, 0.0)
    assert out["failed"] == 0, out["failures"]
    probe = worker.probe(wl)
    assert probe["attempted"] == len(ops.PROBE_COMMANDS)
    assert worker.probe(_workload(tmp_path, "fiber-session", [0])) == {
        "attempted": 0, "failed": 0, "failures": {}}


def test_exception_is_a_failed_op(tmp_path):
    wl = _workload(tmp_path, "fiber-session", [2])
    op_list = wl.scenario_ops(0)
    state = {}
    result = op_list[1].run(state)      # frame_check before build
    assert isinstance(result, KeyError)
    assert op_list[1].problems(result)


@pytest.mark.parametrize("name,keep", [("action-cli", [0, 5]),
                                       ("fiber-session", [2]),
                                       ("translation-cli", [0])])
def test_verdicts_identical_traced_and_untraced(tmp_path, name, keep):
    wl = _workload(tmp_path, name, keep)
    out = worker.traced_loop(wl, 0.0, str(tmp_path / "spans.jsonl"))
    assert out["mismatches"] == []
    layers = out["trace"]["layers"]
    assert "ranges.range" in layers and spans.GLUE in layers
    assert 0.0 < out["trace"]["coverage"] <= 1.0
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) > out["attempted"]


def test_every_wrapped_name_exists_and_is_restored():
    import zakfiber.cli
    import zakfiber.decomp

    for module, attr, _ in spans.TARGETS:
        spans._resolve(module, attr)
    original = zakfiber.cli.validate_action
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr in spans.REQUIRED_BINDINGS:
            owner, name = spans._resolve(module, attr)
            assert hasattr(getattr(owner, name), "__span__"), (module, attr)
        assert zakfiber.decomp.range_from_fibers.__span__ == "ranges.range"
    finally:
        tracer.uninstall()
    assert zakfiber.cli.validate_action is original


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.per_layer_unit(m["name"])
               for m in spec["per_layer"])
