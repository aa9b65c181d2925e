"""One fresh interpreter running one workload; started by bench/run.py.

    python3 bench/worker.py --dir WORK --mode setup
    python3 bench/worker.py --dir WORK --mode loop --seconds S [--spans FILE]

``setup`` times this interpreter from before ``import zakfiber`` to the
end of the workload's first op.  ``loop`` is the closed loop of one
client: it runs whole cycles over every scenario's ops until ``S``
seconds have passed, timing each op.  With ``--spans`` every op runs
twice, untraced and traced in alternating order, so the trace can be
compared with the untraced run on the same ops.  After the loop, either
kind runs the workload's probe ops once, untimed (see ops.PROBE_COMMANDS).  The last line of
stdout is one JSON object with the measurements.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def setup(wl) -> dict:
    op = wl.scenario_ops(0)[0]
    result = op.run({})
    elapsed = time.perf_counter() - T0
    return {"setup_s": elapsed, "problems": op.problems(result)}


def cycles(wl, seconds: float):
    """Yield (scenario state, position in the cycle, op) over whole
    cycles, at least one, until time is up."""
    start = time.perf_counter()
    while True:
        pos = 0
        for i in range(len(wl.scenarios)):
            state = {}
            for op in wl.scenario_ops(i):
                yield state, pos, op
                pos += 1
        if time.perf_counter() - start >= seconds:
            return


def _record_failure(failures: dict, op, problems) -> None:
    entry = failures.setdefault(op.name, {"count": 0, "first": problems})
    entry["count"] += 1


def probe(wl) -> dict:
    """Run the probe ops once, untimed, with the ops' own checks."""
    failures: dict = {}
    probes = wl.probe_ops()
    for op in probes:
        problems = op.problems(op.run({}))
        if problems:
            _record_failure(failures, op, problems)
    return {"attempted": len(probes),
            "failed": sum(f["count"] for f in failures.values()),
            "failures": failures}


def loop(wl, seconds: float) -> dict:
    latencies_ns, names = [], []
    n_cycles = 0
    failures: dict = {}
    for state, pos, op in cycles(wl, seconds):
        n_cycles += pos == 0
        t = time.perf_counter_ns()
        result = op.run(state)
        latencies_ns.append(time.perf_counter_ns() - t)
        names.append(op.name)
        problems = op.problems(result)
        if problems:
            _record_failure(failures, op, problems)
    return {"latencies_ns": latencies_ns, "op_names": names,
            "cycles": n_cycles,
            "failed": sum(f["count"] for f in failures.values()),
            "failures": failures}


def traced_loop(wl, seconds: float, spans_path: str) -> dict:
    from spans import Tracer

    tracer = Tracer()
    untraced_ns = traced_ns = 0
    attempted = 0
    mismatches = []
    failures: dict = {}
    for state, _, op in cycles(wl, seconds):
        seen, problems = {}, []
        for traced in ((False, True) if attempted % 2 == 0 else (True, False)):
            if traced:
                result, wall = tracer.run_op(attempted, op.run, state)
                traced_ns += wall
            else:
                t = time.perf_counter_ns()
                result = op.run(state)
                untraced_ns += time.perf_counter_ns() - t
            seen[traced] = op.observe(result)
            problems = problems or op.problems(result)
        if seen[False] != seen[True]:
            mismatches.append({"op": op.name, "untraced": seen[False],
                               "traced": seen[True]})
        if problems:
            _record_failure(failures, op, problems)
        attempted += 1
    tracer.write(spans_path)
    summary = tracer.summary(attempted)
    summary["overhead_frac"] = (traced_ns / untraced_ns - 1.0
                                if untraced_ns else 0.0)
    return {"attempted": attempted,
            "failed": sum(f["count"] for f in failures.values()),
            "failures": failures, "mismatches": mismatches,
            "trace": summary}


def blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it is one."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--dir", required=True)
    p.add_argument("--mode", choices=["setup", "loop"], required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--spans")
    args = p.parse_args(argv)

    import ops  # imports numpy and zakfiber

    wl = ops.Workload(args.dir)
    if args.mode == "setup":
        out = setup(wl)
    elif args.spans:
        out = traced_loop(wl, args.seconds, args.spans)
    else:
        out = loop(wl, args.seconds)
    if args.mode == "loop":
        out["probe"] = probe(wl)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(blas_info())
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
