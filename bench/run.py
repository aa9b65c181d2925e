"""zakfiber benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload action-cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The inputs are generated from the seed
into .bench_work/ before anything is timed; the program under test is
the checkout's own src/zakfiber, loaded in fresh interpreters (one BLAS
thread each).  With --trace 0 the run reports the end-to-end metrics:
a closed loop of one client for --seconds, then several fresh
interpreters for the set-up time.  With --trace 1 it reports per-layer
metrics from a run in which every op is executed untraced and traced.
Every op's output is checked against the construction of its inputs;
the probe ops (ops.PROBE_COMMANDS) are checked too, but reported apart.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable table.
The full record (metadata, per-command latencies, per-layer table, and
for traced runs the span file) is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 5
DEADLINE_S = 170  # every worker must have ended by then

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer self time per op, in ms
LAYER_TIMES = [
    "scenario.parse", "group.subgroup_from_generators", "group.annihilator",
    "group.coset_transversal", "action.validate", "action.build",
    "action.transversal", "zak.build", "zak.forward", "zak.inverse",
    "frames.spectra", "ranges.range", "ranges.membership",
    "decomp.decompose", "decomp.audit", "translation.duality",
    "translation.zak", "translation.fiberize", "translation.build",
    "translation.weil", "oracle.synthesis", "oracle.spectra",
    "oracle.lstsq", "cli.emit", "cli.glue",
]
# outermost calls per op
LAYER_CALLS = {
    "action.validate.calls_per_op": "action.validate",
    "zak.build.calls_per_op": "zak.build",
    "zak.forward.calls_per_op": "zak.forward",
    "ranges.range.calls_per_op": "ranges.range",
    "oracle.synthesis.builds_per_op": "oracle.synthesis",
}
PER_LAYER = ([f"{n}.self_ms" for n in LAYER_TIMES] + list(LAYER_CALLS)
             + ["zak.forward.useful_ratio", "frames.fiber_svds_per_op",
                "trace.coverage", "trace.overhead_frac", "failed_frac",
                "probe.near_dependent_verify.failed_frac"])


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_op"):
        return "count"
    return "ratio"


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run a worker in a fresh interpreter; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise BenchError(f"worker {args[2:]} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "zakfiber").rglob("*.py")))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def end_to_end(loop: dict, setups: list[float]) -> tuple[dict, dict]:
    lat_ms = [ns / 1e6 for ns in loop["latencies_ns"]]
    attempted = len(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    values = {
        # the loop runs whole cycles, so every run has the same op mix
        "ops_per_s": attempted / (sum(lat_ms) / 1e3),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": loop["peak_rss_mb"],
    }
    by_command: dict[str, list[float]] = {}
    for name, ms in zip(loop["op_names"], lat_ms):
        by_command.setdefault(name, []).append(ms)
    detail = {
        "latency_samples": attempted,
        "cycles": loop["cycles"],
        "samples_beyond_p90": sum(1 for x in lat_ms if x > p90),
        "setup_samples_s": setups,
        "failed_frac": loop["failed"] / attempted,
        "per_command": {name: {"count": len(v),
                               "median_ms": statistics.median(v)}
                        for name, v in sorted(by_command.items())},
        "latencies_ms": lat_ms,
    }
    return values, detail


def per_layer(traced: dict) -> dict:
    t = traced["trace"]
    layers = t["layers"]
    values = {f"{n}.self_ms": layers.get(n, {}).get("self_ms", 0.0)
              for n in LAYER_TIMES}
    for metric, layer in LAYER_CALLS.items():
        values[metric] = layers.get(layer, {}).get("calls_per_op", 0.0)
    values["zak.forward.useful_ratio"] = t["forward_useful_ratio"]
    values["frames.fiber_svds_per_op"] = t["fiber_svds_per_op"]
    values["trace.coverage"] = t["coverage"]
    values["trace.overhead_frac"] = t["overhead_frac"]
    values["failed_frac"] = traced["failed"] / traced["attempted"]
    probe = traced["probe"]
    values["probe.near_dependent_verify.failed_frac"] = (
        probe["failed"] / probe["attempted"] if probe["attempted"] else 0.0)
    return values


def table(rows: list[tuple]) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(r, widths))
                     for r in rows)


def run(args) -> dict:
    if not (SRC / "zakfiber" / "__init__.py").is_file():
        raise BenchError(f"no zakfiber sources under {SRC}")
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    loop_args = ["--dir", str(work), "--mode", "loop",
                 "--seconds", str(args.seconds)]
    if args.trace:
        loop_args += ["--spans", str(OUT / f"{stem}.spans.jsonl")]
    deadline = time.monotonic() + DEADLINE_S
    try:
        gen.generate(args.workload, args.seed, work)
        loop = spawn(loop_args, deadline)
        setups = [] if args.trace else [
            spawn(["--dir", str(work), "--mode", "setup"], deadline)
            for _ in range(SETUP_SAMPLES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": {"nproc": os.cpu_count(),
                    "cpus_usable": len(os.sched_getaffinity(0)),
                    "cpu": cpu_model(), "python": platform.python_version(),
                    "numpy": loop["numpy"], "blas": loop["blas"],
                    "blas_threads": loop["blas_threads"]},
        "src_lines": src_lines(),
        "failures": loop["failures"],
        "probe": loop["probe"],
    }
    if args.trace:
        metrics = per_layer(loop)
        units = {name: per_layer_unit(name) for name in PER_LAYER}
        attempted = loop["attempted"]
        record["mismatches"] = loop["mismatches"]
        record["layers"] = loop["trace"]["layers"]
    else:
        metrics, detail = end_to_end(loop, [s["setup_s"] for s in setups])
        units = END_TO_END
        attempted = len(loop["latencies_ns"]) + len(setups)
        record.update(detail)
    # the set-up runs' first ops are checked like the loop's ops
    failed = loop["failed"] + sum(1 for s in setups if s["problems"])
    # a verdict that changes under tracing invalidates the traced run
    correct = not record.get("mismatches")
    record["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    lines = [f"workload {args.workload}  seed {args.seed}  "
             f"attempted {attempted}  failed {failed}  "
             f"src_lines {record['src_lines']}",
             json.dumps(record["machine"])]
    if args.trace:
        rows = [("layer", "self_ms/op", "share", "calls/op")] + [
            (name, f"{v['self_ms']:.3f}", f"{v['share']:.1%}",
             f"{v['calls_per_op']:.2f}")
            for name, v in sorted(record["layers"].items(),
                                  key=lambda kv: -kv[1]["self_ms"])]
        lines.append(table(rows))
    else:
        lines.append(json.dumps({k: record[k] for k in
                                 ("latency_samples", "cycles",
                                  "samples_beyond_p90",
                                  "failed_frac", "per_command")}))
    if record["failures"]:
        lines.append("failures: " + json.dumps(record["failures"]))
    if record["probe"]["attempted"]:
        lines.append("probe (untimed, not in attempted/failed): "
                     + json.dumps(record["probe"]))
    print("\n".join(lines))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=list(gen.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
