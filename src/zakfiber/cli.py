"""Command-line interface: scenario loading, dispatch, and reports.

Reports are JSON documents with sorted keys (or a CSV fiber dump), built
from deterministic computations only, so repeated runs produce
byte-identical output.  ``--parallel N`` is accepted and range-checked
for compatibility but has no effect: every fiber computation runs as one
batched numpy call.

Exit codes: 0 success, 2 validation failure, incompatible request or
numerically unusable scenario (non-finite report, failed SVD, floating-point
overflow, division by zero or invalid operation),
3 fiber-vs-oracle disagreement in ``verify``, 4 I/O or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import decomp, frames, oracle, ranges, translation
from .action import NotFreeError, tiling_transversal, validate_action
from .scenario import SCHEMA_VERSION, Scenario, ScenarioError, fixture_path, \
    parse_scenario
from .translation import TranslationScenario
from .zak import FiberedVector, ZakTransform

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ORACLE = 3
EXIT_IO = 4

# deviation gates used by `verify`
VERIFY_TRANSFORM_TOL = 1e-10
VERIFY_BOUND_REL = 1e-8

_CSV_COMMANDS = {"frame", "riesz", "translation analyze"}


class Incompatible(Exception):
    """Command cannot be applied to this scenario or format."""


def _c2(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _cvec(v) -> list[list[float]]:
    return np.ascontiguousarray(v, complex).view(float).reshape(-1, 2).tolist()


def _rel_dev(a: float | None, b: float | None) -> float:
    """Relative deviation; a missing bound (degenerate system) counts as 0,
    the dense route's convention, so it still deviates from a positive one."""
    a = 0.0 if a is None else a
    b = 0.0 if b is None else b
    scale = max(abs(a), abs(b))
    if scale < 1e-300:
        return 0.0
    return abs(a - b) / scale


def _riesz_lower_dev(a_fiber: float | None, a_dense: float | None,
                     upper_scale: float) -> float:
    """Relative deviation of the lower Riesz bounds.

    Both routes report an exact 0 for a rank-deficient system, but a
    value between the rank cut and the independence cut is a numerical
    zero of the Gram spectrum as well, so everything under the
    independence cut is clamped to zero before comparing.
    """
    cut = frames.RIESZ_REL * upper_scale
    af = 0.0 if a_fiber is None or a_fiber < cut else a_fiber
    ad = 0.0 if a_dense is None or a_dense < cut else a_dense
    return _rel_dev(af, ad)


def _fiber_records(report: frames.FrameReport) -> list[dict]:
    return [
        {
            "fiber_id": i,
            "dim": int(report.dims[i]),
            "smin2": float(report.smin2[i]),
            "smax2": float(report.smax2[i]),
        }
        for i in range(report.n_fibers)
    ]


def _summary(report: frames.FrameReport) -> dict:
    return {
        "lower": None if report.lower is None else float(report.lower),
        "upper": None if report.upper is None else float(report.upper),
        "bessel": report.is_bessel,
        "frame": report.is_frame,
        "parseval": report.is_parseval,
        "riesz": report.is_riesz,
        "degenerate": report.degenerate,
        "support_size": int(np.sum(report.support)),
        "length": int(report.dims.max()) if report.n_fibers else 0,
    }


def _base_report(sc: Scenario, args) -> dict:
    rep = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "scenario": sc.name,
        "tolerance": args.tolerance,
    }
    if sc.kind == "action":
        rep["fiber_order"] = "lexicographic dual tuples"
    else:
        rep["fiber_order"] = ("lexicographic representatives of the dual "
                              "modulo the annihilator")
        rep["normalization"] = dict(sc.translation.normalization)
    return rep


def _fibration(sc: Scenario) -> ZakTransform | TranslationScenario:
    """The scenario's fibration (see :mod:`zakfiber.zak`), the only interface
    the commands use.  An action is validated and its transform built;
    failures are validation-class errors."""
    if sc.kind == "translation":
        return sc.translation
    report = validate_action(sc.action)
    if not report.ok:
        raise Incompatible(
            "scenario action fails validation: " + "; ".join(report.violations)
        )
    try:
        return ZakTransform(sc.action)
    except NotFreeError as e:
        raise Incompatible(f"scenario action is not free: {e}") from e


def _generator_fibers(sc: Scenario):
    """The scenario's fibration and the columns of its memo entry."""
    fib = _fibration(sc)
    return fib, ranges.generator_system(fib, sc.generators).fibered()


def _transform_deviations(fib, f, fv: FiberedVector):
    """(ambient square norm, isometry and round-trip deviations) of f."""
    norm_sq = float(np.sum(np.abs(f) ** 2 * fib.ambient_weights))
    back = fib.inverse(fv)
    return (norm_sq, abs(norm_sq - fv.norm_sq()),
            float(np.max(np.abs(back - f))))


def _gated(name: str, dev: float, scale: float) -> dict:
    """An identity check of `verify`, gated relative to ``scale``."""
    return {"name": name, "deviation": float(dev),
            "ok": bool(dev <= VERIFY_TRANSFORM_TOL * scale)}


# ---------------------------------------------------------------------------
# command implementations


def cmd_validate(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report(sc, args)
    if sc.kind == "translation":
        ts = sc.translation
        rep["ok"] = True
        rep["violations"] = []
        rep["group_order"] = ts.G.order
        rep["subgroup_order"] = ts.gamma.order
        rep["annihilator_order"] = ts.gamma_star.order
        rep["coset_count"] = ts.n_points
        rep["dual_rep_count"] = ts.n_fibers
        return rep, EXIT_OK
    result = validate_action(sc.action)
    violations = list(result.violations)
    if result.ok:
        try:
            tiling_transversal(sc.action)
        except NotFreeError as e:
            violations.append(str(e))
    ok = not violations
    rep["ok"] = ok
    rep["violations"] = violations
    return rep, EXIT_OK if ok else EXIT_VALIDATION


def cmd_zak(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report(sc, args)
    fib, fibered = _generator_fibers(sc)
    records = []
    for i, (g, fv) in enumerate(zip(sc.generators, fibered)):
        _, iso, rt = _transform_deviations(fib, g, fv)
        records.append({
            "generator": i,
            "fiber_norms_sq": [float(x) for x in fv.fiber_norms_sq()],
            "isometry_deviation": iso,
            "roundtrip_deviation": rt,
        })
    rep["generators"] = records
    return rep, EXIT_OK


def cmd_range(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report(sc, args)
    J = ranges.range_from_generators(_fibration(sc), sc.generators)
    rep["fibers"] = [{"fiber_id": i, "dim": int(d)}
                     for i, d in enumerate(J.dims)]
    rep["length"] = J.length()
    return rep, EXIT_OK


def cmd_length(sc: Scenario, args) -> tuple[dict, int]:
    rep, code = cmd_range(sc, args)
    del rep["fibers"]
    return rep, code


def cmd_member(sc: Scenario, args) -> tuple[dict, int]:
    if not sc.candidates:
        raise Incompatible("member needs a candidates block in the scenario")
    rep = _base_report(sc, args)
    fib = _fibration(sc)
    J = ranges.range_from_generators(fib, sc.generators)
    records = []
    for i, cand in enumerate(sc.candidates):
        member, residual = ranges.membership(fib, cand, J)
        records.append({"candidate": i, "member": bool(member),
                        "residual": float(residual)})
    rep["candidates"] = records
    return rep, EXIT_OK


def _spectral(sc: Scenario, args, kernel: str) -> dict:
    """Fiber spectra and summary from the kernel ``frames.<kernel>``."""
    rep = _base_report(sc, args)
    report = getattr(frames, kernel)(_fibration(sc), sc.generators,
                                     tolerance=args.tolerance)
    rep["fibers"] = _fiber_records(report)
    rep["summary"] = _summary(report)
    return rep


def cmd_frame(sc: Scenario, args) -> tuple[dict, int]:
    return _spectral(sc, args, "frame_check"), EXIT_OK


def cmd_riesz(sc: Scenario, args) -> tuple[dict, int]:
    return _spectral(sc, args, "riesz_check"), EXIT_OK


def cmd_bracket(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report(sc, args)
    _, fibered = _generator_fibers(sc)
    pairs = []
    for i in range(len(fibered)):
        for j in range(i, len(fibered)):
            vals = fibered[i].fiber_inner(fibered[j])
            pairs.append({
                "i": i,
                "j": j,
                "values": [_c2(z) for z in vals],
                "mean": _c2(np.mean(vals)),
            })
    rep["pairs"] = pairs
    return rep, EXIT_OK


def cmd_decompose(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report(sc, args)
    fib = _fibration(sc)
    parts = decomp.parseval_decompose(fib, sc.generators)
    audit = decomp.verify_decomposition(fib, sc.generators, parts,
                                        tolerance=args.tolerance)
    J = audit.parts_range
    union = frames.report_from_spectra(J, args.tolerance, riesz_style=False)
    # the zero space has the empty decomposition, which is trivially Parseval
    ok = audit.ok and (union.is_parseval or not parts)
    rep["parts"] = [_cvec(p) for p in parts]
    rep["audit"] = {
        "orthogonality_max": audit.orthogonality_max,
        "orthogonality_ok": audit.orthogonality_ok,
        "parts_parseval": audit.parts_parseval,
        "dims_match": audit.dims_match,
        "membership_ok": audit.membership_ok,
        "membership_residuals": audit.membership_residuals,
    }
    rep["union_bounds"] = {"lower": union.lower, "upper": union.upper}
    rep["ok"] = ok
    return rep, EXIT_OK if ok else EXIT_VALIDATION


def cmd_translation_weil(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report(sc, args)
    records = []
    for i, g in enumerate(sc.generators):
        lhs, rhs, dev = translation.weil_check(sc.translation, g)
        records.append({"generator": i, "total_sum": _c2(lhs),
                        "coset_sum": _c2(rhs), "deviation": float(dev)})
    rep["generators"] = records
    return rep, EXIT_OK


def cmd_translation_fiberize(sc: Scenario, args) -> tuple[dict, int]:
    ts = sc.translation
    rep = _base_report(sc, args)
    nu = ts.normalization["nu_Omega"]
    mstar = ts.normalization["m_Gamma_star"]
    records = []
    for i, g in enumerate(sc.generators):
        T = translation.fiberize(ts, g)
        total = float(np.sum(np.abs(T) ** 2) * nu * mstar)
        records.append({
            "generator": i,
            "fibers": [_cvec(T[wi]) for wi in range(T.shape[0])],
            "plancherel_deviation": abs(total - float(np.sum(np.abs(g) ** 2))),
        })
    rep["generators"] = records
    return rep, EXIT_OK


def cmd_translation_duality(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report(sc, args)
    res = translation.duality_check(sc.translation, sc.generators)
    dev = res.gramian_deviation
    rep["generators"] = [
        {"generator": i, "transform_deviation": float(td),
         "gramian_deviation": float(dev[i, i])}
        for i, td in enumerate(res.transform_deviation)]
    rep["pairs"] = [{"i": i, "j": j, "gramian_deviation": float(dev[i, j])}
                    for i in range(len(dev)) for j in range(i + 1, len(dev))]
    return rep, EXIT_OK


def cmd_translation_analyze(sc: Scenario, args) -> tuple[dict, int]:
    rep = _spectral(sc, args, "frame_check")
    rep["length"] = rep["summary"]["length"]
    return rep, EXIT_OK


def cmd_verify(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report(sc, args)
    fib, fibered = _generator_fibers(sc)
    # Weil and duality identities exist only for subgroup translations
    ts = sc.translation if sc.kind == "translation" else None
    gens = sc.generators
    checks = []

    l1 = [max(1.0, float(np.sum(np.abs(g)))) for g in gens]
    if ts is not None:
        checks += [_gated(f"weil_gen{i}", translation.weil_check(ts, g)[2],
                          l1[i]) for i, g in enumerate(gens)]

    norms_sq = []
    for i, (g, fv) in enumerate(zip(gens, fibered)):
        norm_sq, iso, rt = _transform_deviations(fib, g, fv)
        norms_sq.append(norm_sq)
        checks.append(_gated(f"zak_roundtrip_gen{i}", max(iso, rt),
                             max(1.0, norm_sq)))

    if ts is not None:
        # a Zak sum is bounded by l1, a Gramian entry by l1**2
        res = translation.duality_check(ts, gens)
        checks += [{**_gated(f"duality_gen{i}", max(td, gd / l1[i]), l1[i]),
                    "deviation": float(max(td, gd))} for i, (td, gd) in
                   enumerate(zip(res.transform_deviation,
                                 res.gramian_deviation.diagonal()))]

    # one fiber factorization and one dense one; every check below reads them
    F = oracle.factor(fib.synthesis_matrix(gens))
    J = ranges.range_from_generators(fib, gens)
    frame_fiber = frames.report_from_spectra(J, args.tolerance,
                                             riesz_style=False)
    A_dense, B_dense = oracle.frame_bounds_of_matrix(F)
    dev = max(_rel_dev(frame_fiber.lower, A_dense),
              _rel_dev(frame_fiber.upper, B_dense))
    checks.append({
        "name": "frame_bounds_vs_dense",
        "fiber": [frame_fiber.lower, frame_fiber.upper],
        "dense": [A_dense, B_dense],
        "deviation": dev,
        "ok": bool(dev <= VERIFY_BOUND_REL),
    })

    riesz_fiber = frames.report_from_spectra(J, args.tolerance,
                                             riesz_style=True)
    Ar, Br, independent = oracle.riesz_bounds_of_matrix(F)
    upper_scale = max(riesz_fiber.upper or 0.0, Br or 0.0)
    dev_r = max(_riesz_lower_dev(riesz_fiber.lower, Ar, upper_scale),
                _rel_dev(riesz_fiber.upper, Br))
    checks.append({
        "name": "riesz_bounds_vs_dense",
        "fiber": [riesz_fiber.lower, riesz_fiber.upper],
        "dense": [Ar, Br],
        "deviation": dev_r,
        "ok": bool(dev_r <= VERIFY_BOUND_REL
                   and riesz_fiber.is_riesz == independent),
    })

    # on actions the generators' own membership is cross-checked as well
    sqrtw = np.sqrt(fib.ambient_weights)
    members = [] if ts is not None else [
        (f"gen{i}", g, ranges.membership_fibers(fv, J, norm=np.sqrt(n)))
        for i, (g, fv, n) in enumerate(zip(gens, fibered, norms_sq))]
    members += [(f"cand{i}", c, ranges.membership(fib, c, J))
                for i, c in enumerate(sc.candidates)]
    dense = oracle.membership_of_matrix(F, np.stack(
        [sqrtw * f for _, f, _ in members], axis=1)) if members else ((), ())
    for (label, _, (member_f, res_f)), member_d, res_d in zip(members,
                                                             *dense):
        checks.append({
            "name": f"membership_vs_dense_{label}",
            "fiber": [bool(member_f), float(res_f)],
            "dense": [bool(member_d), float(res_d)],
            "ok": bool(member_f == member_d),
        })

    # dim V is the sum of the fiber dimensions, the transform being unitary
    dim_fiber = int(J.dims.sum())
    checks.append({"name": "dimension_vs_dense", "fiber": dim_fiber,
                   "dense": F.rank, "ok": dim_fiber == F.rank})

    ok = all(c["ok"] for c in checks)
    rep["checks"] = checks
    rep["ok"] = ok
    return rep, EXIT_OK if ok else EXIT_ORACLE


# ---------------------------------------------------------------------------
# wiring


def _emit(report: dict, command_name: str, fmt: str, out) -> None:
    if fmt == "csv-fibers":
        if command_name not in _CSV_COMMANDS or "fibers" not in report:
            raise Incompatible(
                f"--format csv-fibers is not available for {command_name}"
            )
        if not np.isfinite([[r["smin2"], r["smax2"]]
                            for r in report["fibers"]]).all():
            raise Incompatible("report is not representable as CSV: "
                               "non-finite fiber spectrum")
        lines = ["fiber_id,dim,smin2,smax2"]
        for rec in report["fibers"]:
            lines.append(f"{rec['fiber_id']},{rec['dim']},"
                         f"{rec['smin2']!r},{rec['smax2']!r}")
        out.write("\n".join(lines) + "\n")
        return
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as e:
        raise Incompatible(f"report is not representable as JSON: {e}") from e
    out.write(text + "\n")


_DISPATCH = {
    "validate": cmd_validate,
    "zak": cmd_zak,
    "range": cmd_range,
    "length": cmd_length,
    "member": cmd_member,
    "frame": cmd_frame,
    "riesz": cmd_riesz,
    "bracket": cmd_bracket,
    "decompose": cmd_decompose,
    "verify": cmd_verify,
    "translation weil": cmd_translation_weil,
    "translation zak": cmd_zak,
    "translation fiberize": cmd_translation_fiberize,
    "translation duality": cmd_translation_duality,
    "translation analyze": cmd_translation_analyze,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True,
                        help="scenario file path, or the name of a shipped "
                             "fixture (s1, s1-parseval, s2, s3, star)")
    common.add_argument("--tolerance", type=float, default=frames.SUPPORT_TOL,
                        help="global tolerance in (0, 1); default %(default)s")
    common.add_argument("--format", choices=["structured", "csv-fibers"],
                        default="structured")
    common.add_argument("--parallel", type=int, default=1,
                        help="accepted for compatibility (must be >= 1); has "
                             "no effect")

    p = argparse.ArgumentParser(
        prog="zakfiber",
        description="Fiberwise analysis of group-invariant spaces over "
                    "finite abelian groups",
    )
    # "translation zak" is the subcommand zak of the command translation
    subparsers = {"": p.add_subparsers(dest="command", required=True)}
    for name in _DISPATCH:
        group, _, leaf = name.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = subparsers[""].add_parser(group) \
                .add_subparsers(dest="subcommand", required=True)
        subparsers[group].add_parser(leaf, parents=[common])
    return p


def _resolve_scenario(spec: str) -> Scenario:
    path = Path(spec)
    if not path.exists():
        try:
            path = fixture_path(spec)
        except ScenarioError:
            raise ScenarioError(f"scenario file {spec!r} does not exist and "
                                f"is not a shipped fixture name")
    return parse_scenario(path)


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "subcommand" in args:
        args.command += " " + args.subcommand

    if not (0.0 < args.tolerance < 1.0):
        err.write(f"tolerance must be in (0, 1), got {args.tolerance}\n")
        return EXIT_VALIDATION
    if args.parallel < 1:
        err.write(f"--parallel must be >= 1, got {args.parallel}\n")
        return EXIT_VALIDATION

    try:
        sc = _resolve_scenario(args.scenario)
    except ScenarioError as e:
        err.write(f"error: {e}\n")
        return EXIT_IO
    if args.command.startswith("translation ") and sc.kind != "translation":
        err.write(f"error: {args.command} needs a translation scenario\n")
        return EXIT_VALIDATION

    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report, code = _DISPATCH[args.command](sc, args)
        _emit(report, args.command, args.format, out)
        return code
    except (Incompatible, np.linalg.LinAlgError, FloatingPointError) as e:
        err.write(f"error: {e}\n")
        return EXIT_VALIDATION


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
