"""Command-line interface: scenario loading, dispatch, and reports.

Reports are JSON documents with sorted keys (or a CSV fiber dump), built
from deterministic computations only, so repeated runs produce
byte-identical output.  ``--parallel N`` is accepted and range-checked
for compatibility but has no effect: every fiber computation runs as one
batched numpy call.

Exit codes: 0 success, 2 validation failure, incompatible request or
numerically unusable scenario (non-finite report, failed SVD),
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
from .action import NotFreeError, validate_action
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

_ACTION_COMMANDS = ["validate", "zak", "range", "length", "member", "frame",
                    "riesz", "bracket", "decompose", "verify"]
_TRANSLATION_SUBCOMMANDS = ["weil", "zak", "fiberize", "duality", "analyze"]
_CSV_COMMANDS = {"frame", "riesz", "translation analyze"}


class Incompatible(Exception):
    """Command cannot be applied to this scenario or format."""


def _c2(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _cvec(v) -> list[list[float]]:
    return [_c2(z) for z in np.asarray(v, dtype=complex)]


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


def _base_report(command: str, sc: Scenario, tolerance: float) -> dict:
    rep = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "scenario": sc.name,
        "tolerance": tolerance,
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
    """The scenario's fibration and the fibers of its generators."""
    fib = _fibration(sc)
    return fib, [fib.forward(g) for g in sc.generators]


def _transform_deviations(fib, f, fv: FiberedVector):
    """(ambient square norm, isometry and round-trip deviations) of f."""
    norm_sq = float(np.sum(np.abs(f) ** 2 * fib.ambient_weights))
    back = fib.inverse(fv)
    return (norm_sq, abs(norm_sq - fv.norm_sq()),
            float(np.max(np.abs(back - f))))


# ---------------------------------------------------------------------------
# command implementations


def cmd_validate(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report("validate", sc, args.tolerance)
    if sc.kind == "translation":
        ts = sc.translation
        rep["ok"] = True
        rep["violations"] = []
        rep["group_order"] = ts.G.order
        rep["subgroup_order"] = ts.gamma.order
        rep["annihilator_order"] = ts.gamma_star.order
        rep["coset_count"] = ts.n_cosets
        rep["dual_rep_count"] = ts.n_dual
        return rep, EXIT_OK
    result = validate_action(sc.action)
    violations = list(result.violations)
    if result.ok:
        try:
            ZakTransform(sc.action)
        except NotFreeError as e:
            violations.append(str(e))
    ok = not violations
    rep["ok"] = ok
    rep["violations"] = violations
    return rep, EXIT_OK if ok else EXIT_VALIDATION


def cmd_zak(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report("zak", sc, args.tolerance)
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
    rep = _base_report("range", sc, args.tolerance)
    _, fibered = _generator_fibers(sc)
    J = ranges.range_from_fibers(fibered)
    rep["fibers"] = [{"fiber_id": i, "dim": int(d)}
                     for i, d in enumerate(J.dims)]
    rep["length"] = J.length()
    return rep, EXIT_OK


def cmd_length(sc: Scenario, args) -> tuple[dict, int]:
    rep, code = cmd_range(sc, args)
    del rep["fibers"]
    rep["command"] = "length"
    return rep, code


def cmd_member(sc: Scenario, args) -> tuple[dict, int]:
    if not sc.candidates:
        raise Incompatible("member needs a candidates block in the scenario")
    rep = _base_report("member", sc, args.tolerance)
    fib, fibered = _generator_fibers(sc)
    J = ranges.range_from_fibers(fibered)
    records = []
    for i, cand in enumerate(sc.candidates):
        member, residual = ranges.membership(fib, cand, J)
        records.append({"candidate": i, "member": bool(member),
                        "residual": float(residual)})
    rep["candidates"] = records
    return rep, EXIT_OK


def cmd_frame(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report("frame", sc, args.tolerance)
    _, fibered = _generator_fibers(sc)
    report = frames.frame_check_fibers(fibered, tolerance=args.tolerance)
    rep["fibers"] = _fiber_records(report)
    rep["summary"] = _summary(report)
    return rep, EXIT_OK


def cmd_riesz(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report("riesz", sc, args.tolerance)
    _, fibered = _generator_fibers(sc)
    report = frames.riesz_check_fibers(fibered, tolerance=args.tolerance)
    rep["fibers"] = _fiber_records(report)
    rep["summary"] = _summary(report)
    return rep, EXIT_OK


def cmd_bracket(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report("bracket", sc, args.tolerance)
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
    rep = _base_report("decompose", sc, args.tolerance)
    fib, fibered = _generator_fibers(sc)
    part_fibers = decomp.parseval_decompose_fibers(fibered)
    parts = [fib.inverse(p) for p in part_fibers]
    audit = decomp.verify_decomposition_fibers(fibered, part_fibers,
                                               tolerance=args.tolerance)
    # the zero space has the empty decomposition, which is trivially Parseval
    union_ok = not part_fibers
    union = {"lower": None, "upper": None}
    if part_fibers:
        union_report = frames.frame_check_fibers(part_fibers,
                                                 tolerance=args.tolerance)
        union = {"lower": union_report.lower, "upper": union_report.upper}
        union_ok = union_report.is_parseval
    ok = audit.ok and union_ok
    rep["parts"] = [_cvec(p) for p in parts]
    rep["audit"] = {
        "orthogonality_max": audit.orthogonality_max,
        "orthogonality_ok": audit.orthogonality_ok,
        "parts_parseval": audit.parts_parseval,
        "dims_match": audit.dims_match,
        "membership_ok": audit.membership_ok,
        "membership_residuals": audit.membership_residuals,
    }
    rep["union_bounds"] = union
    rep["ok"] = ok
    return rep, EXIT_OK if ok else EXIT_VALIDATION


def _translation_only(sc: Scenario, name: str):
    if sc.kind != "translation":
        raise Incompatible(f"translation {name} needs a translation scenario")


def cmd_translation_zak(sc: Scenario, args) -> tuple[dict, int]:
    _translation_only(sc, "zak")
    rep, code = cmd_zak(sc, args)
    rep["command"] = "translation zak"
    return rep, code


def cmd_translation_weil(sc: Scenario, args) -> tuple[dict, int]:
    _translation_only(sc, "weil")
    rep = _base_report("translation weil", sc, args.tolerance)
    records = []
    for i, g in enumerate(sc.generators):
        lhs, rhs, dev = translation.weil_check(sc.translation, g)
        records.append({"generator": i, "total_sum": _c2(lhs),
                        "coset_sum": _c2(rhs), "deviation": float(dev)})
    rep["generators"] = records
    return rep, EXIT_OK


def cmd_translation_fiberize(sc: Scenario, args) -> tuple[dict, int]:
    _translation_only(sc, "fiberize")
    ts = sc.translation
    rep = _base_report("translation fiberize", sc, args.tolerance)
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
    _translation_only(sc, "duality")
    ts = sc.translation
    rep = _base_report("translation duality", sc, args.tolerance)
    records = []
    for i, g in enumerate(sc.generators):
        res = translation.duality_check(ts, g, g)
        records.append({"generator": i,
                        "transform_deviation": res.transform_deviation,
                        "gramian_deviation": res.gramian_deviation})
    pairs = []
    for i in range(len(sc.generators)):
        for j in range(i + 1, len(sc.generators)):
            res = translation.duality_check(ts, sc.generators[i],
                                            sc.generators[j])
            pairs.append({"i": i, "j": j,
                          "gramian_deviation": res.gramian_deviation})
    rep["generators"] = records
    rep["pairs"] = pairs
    return rep, EXIT_OK


def cmd_translation_analyze(sc: Scenario, args) -> tuple[dict, int]:
    _translation_only(sc, "analyze")
    rep = _base_report("translation analyze", sc, args.tolerance)
    J, report = translation.ti_analyze(sc.translation, sc.generators,
                                       tolerance=args.tolerance)
    rep["fibers"] = _fiber_records(report)
    rep["summary"] = _summary(report)
    rep["length"] = J.length()
    return rep, EXIT_OK


def cmd_verify(sc: Scenario, args) -> tuple[dict, int]:
    rep = _base_report("verify", sc, args.tolerance)
    fib, fibered = _generator_fibers(sc)
    # Weil and duality identities exist only for subgroup translations
    ts = sc.translation if sc.kind == "translation" else None
    gens = sc.generators
    checks = []

    if ts is not None:
        for i, g in enumerate(gens):
            _, _, dev = translation.weil_check(ts, g)
            scale = max(1.0, float(np.sum(np.abs(g))))
            checks.append({"name": f"weil_gen{i}", "deviation": float(dev),
                           "ok": bool(dev <= VERIFY_TRANSFORM_TOL * scale)})

    norms_sq = []
    for i, (g, fv) in enumerate(zip(gens, fibered)):
        norm_sq, iso, rt = _transform_deviations(fib, g, fv)
        norms_sq.append(norm_sq)
        checks.append({
            "name": f"zak_roundtrip_gen{i}",
            "deviation": max(iso, rt),
            "ok": bool(max(iso, rt) <= VERIFY_TRANSFORM_TOL
                       * max(1.0, norm_sq)),
        })

    if ts is not None:
        for i, g in enumerate(gens):
            res = translation.duality_check(ts, g, g)
            dev = max(res.transform_deviation, res.gramian_deviation or 0.0)
            scale = max(1.0, float(np.sum(np.abs(g))))
            checks.append({"name": f"duality_gen{i}", "deviation": float(dev),
                           "ok": bool(dev <= VERIFY_TRANSFORM_TOL * scale)})

    M = fib.synthesis_matrix(gens)
    frame_fiber = frames.frame_check_fibers(fibered, tolerance=args.tolerance)
    A_dense, B_dense = oracle.frame_bounds_of_matrix(M)
    dev = max(_rel_dev(frame_fiber.lower, A_dense),
              _rel_dev(frame_fiber.upper, B_dense))
    checks.append({
        "name": "frame_bounds_vs_dense",
        "fiber": [frame_fiber.lower, frame_fiber.upper],
        "dense": [A_dense, B_dense],
        "deviation": dev,
        "ok": bool(dev <= VERIFY_BOUND_REL),
    })

    riesz_fiber = frames.riesz_check_fibers(fibered, tolerance=args.tolerance)
    Ar, Br, independent = oracle.riesz_bounds_of_matrix(M)
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
    J = ranges.range_from_fibers(fibered)
    sqrtw = np.sqrt(fib.ambient_weights)
    members = [] if ts is not None else [
        (f"gen{i}", g, ranges.membership_fibers(fv, J, norm=np.sqrt(n)))
        for i, (g, fv, n) in enumerate(zip(gens, fibered, norms_sq))]
    members += [(f"cand{i}", c, ranges.membership(fib, c, J))
                for i, c in enumerate(sc.candidates)]
    dense = oracle.membership_of_matrix(M, np.stack(
        [sqrtw * f for _, f, _ in members], axis=1)) if members else ((), ())
    for (label, _, (member_f, res_f)), member_d, res_d in zip(members,
                                                             *dense):
        checks.append({
            "name": f"membership_vs_dense_{label}",
            "fiber": [bool(member_f), float(res_f)],
            "dense": [bool(member_d), float(res_d)],
            "ok": bool(member_f == member_d),
        })

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
    sub = p.add_subparsers(dest="command", required=True)
    for name in _ACTION_COMMANDS:
        sub.add_parser(name, parents=[common])
    tr = sub.add_parser("translation")
    trsub = tr.add_subparsers(dest="subcommand", required=True)
    for name in _TRANSLATION_SUBCOMMANDS:
        trsub.add_parser(name, parents=[common])
    return p


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
    "translation zak": cmd_translation_zak,
    "translation fiberize": cmd_translation_fiberize,
    "translation duality": cmd_translation_duality,
    "translation analyze": cmd_translation_analyze,
}


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

    command_name = args.command
    if command_name == "translation":
        command_name = f"translation {args.subcommand}"

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

    try:
        report, code = _DISPATCH[command_name](sc, args)
        _emit(report, command_name, args.format, out)
        return code
    except (Incompatible, np.linalg.LinAlgError) as e:
        err.write(f"error: {e}\n")
        return EXIT_VALIDATION


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
