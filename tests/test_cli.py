import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import zakfiber
from zakfiber.cli import run
from zakfiber.scenario import fixture_path


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, text, err = invoke(argv)
    assert code == 0, err
    return json.loads(text)


def test_validate_fixture():
    rep = invoke_json(["validate", "--scenario", "s1"])
    assert rep["ok"] is True
    assert rep["violations"] == []
    assert rep["command"] == "validate"
    assert rep["scenario"] == "s1"
    assert rep["schema_version"] == 1


def test_validate_translation_fixture():
    rep = invoke_json(["validate", "--scenario", "s3"])
    assert rep["ok"] is True
    assert rep["group_order"] == 12
    assert rep["subgroup_order"] == 4
    assert rep["annihilator_order"] == 3
    assert rep["normalization"]["nu_Omega"] == pytest.approx(0.25)


def test_validate_rejects_broken_action(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "broken",
        "group": {"invariant_factors": [2]},
        "space": {"size": 4, "weights": [1.0, 1.0, 1.0, 1.0]},
        # a valid permutation table that is not a homomorphism image
        "action": {"table": [[0, 1, 2, 3], [1, 2, 3, 0]]},
        "generators": [[[1, 0], [0, 0], [0, 0], [0, 0]]],
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(doc))
    code, out, err = invoke(["validate", "--scenario", str(p)])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False
    assert rep["violations"]
    # an analysis command stops at the same validation, with one line
    code, out, err = invoke(["frame", "--scenario", str(p)])
    assert (code, out) == (2, "")
    assert _one_error_line(err)
    assert err.startswith("error: scenario action fails validation: ")


def test_validate_reports_non_free_action(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "notfree",
        "group": {"invariant_factors": [2]},
        "space": {"size": 1, "weights": [1.0]},
        "action": {"table": [[0], [0]]},
        "generators": [[[1, 0]]],
    }
    p = tmp_path / "notfree.json"
    p.write_text(json.dumps(doc))
    code, out, err = invoke(["validate", "--scenario", str(p)])
    assert code == 2
    rep = json.loads(out)
    assert rep["ok"] is False
    assert any("free" in v for v in rep["violations"])


# runs one command in a fresh interpreter; prints its exit code, output,
# seconds inside cli.run and peak resident memory (VmHWM, which unlike
# ru_maxrss does not carry the parent's high-water mark across exec)
_MEASURED_RUN = """
import io, json, sys, time
from zakfiber.cli import run
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
code = run(sys.argv[1:], out=out, err=err)
seconds = time.perf_counter() - start
with open("/proc/self/status") as f:
    hwm = next(line for line in f if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue(),
                  "seconds": seconds, "hwm_mb": int(hwm.split()[1]) / 1024}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc")
@pytest.mark.parametrize("command", ["validate", "zak", "range", "frame",
                                     "decompose", "verify"])
def test_huge_affine_group_exits_without_its_table(tmp_path, command):
    # |G| = 2**22 on 2 points: not free, decided from the multipliers
    # without expanding the |G| x N table
    doc = {
        "schema_version": 1,
        "name": "huge-affine",
        "group": {"invariant_factors": [4194304]},
        "space": {"size": 2, "weights": [1, 1]},
        "action": {"affine": {"multipliers": [2]}},
        "generators": [[[1, 0], [0, 0]]],
    }
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    src = str(Path(zakfiber.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", _MEASURED_RUN, command,
                           "--scenario", str(p)],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    res = json.loads(proc.stdout)
    not_free = "action is not free: point 0 has a nontrivial stabilizer"
    assert res["code"] == 2
    if command == "validate":
        rep = json.loads(res["out"])
        assert rep["ok"] is False and rep["violations"] == [not_free]
        assert res["err"] == ""
    else:
        assert res["out"] == ""
        assert res["err"] == f"error: scenario action is not free: {not_free}\n"
    assert res["seconds"] < 0.5
    assert res["hwm_mb"] < 100


def test_zak_command():
    rep = invoke_json(["zak", "--scenario", "s1"])
    recs = rep["generators"]
    assert len(recs) == 2
    for r in recs:
        assert r["isometry_deviation"] <= 1e-12
        assert r["roundtrip_deviation"] <= 1e-12
        assert len(r["fiber_norms_sq"]) == 4


def test_range_and_length_commands():
    # the two s1 generators hit the same fiber line, so every dim is 1
    rep = invoke_json(["range", "--scenario", "s1"])
    assert rep["length"] == 1
    assert [f["dim"] for f in rep["fibers"]] == [1, 1, 1, 1]
    rep = invoke_json(["range", "--scenario", "s1-parseval"])
    assert rep["length"] == 2
    assert [f["dim"] for f in rep["fibers"]] == [2, 2, 2, 2]
    rep = invoke_json(["length", "--scenario", "s1-parseval"])
    assert rep["length"] == 2


def test_member_command():
    rep = invoke_json(["member", "--scenario", "s2"])
    recs = rep["candidates"]
    assert len(recs) == 2
    assert [r["member"] for r in recs] == [True, False]


def test_member_requires_candidates(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "nocand",
        "group": {"invariant_factors": [2]},
        "space": {"size": 4, "weights": [1.0, 2.0, 3.0, 4.0]},
        "action": {"table": [[0, 1, 2, 3], [3, 2, 1, 0]]},
        "generators": [[[1, 0], [0, 0], [0, 0], [0, 0]]],
    }
    p = tmp_path / "nocand.json"
    p.write_text(json.dumps(doc))
    code, out, err = invoke(["member", "--scenario", str(p)])
    assert code == 2
    assert "candidates" in err


def test_frame_command_values():
    rep = invoke_json(["frame", "--scenario", "s1"])
    s = rep["summary"]
    assert s["lower"] == pytest.approx(1.0, abs=1e-12)
    assert s["upper"] == pytest.approx(5.0, abs=1e-12)
    assert s["frame"] is True and s["parseval"] is False
    assert rep["fibers"][0]["dim"] == 1
    rep = invoke_json(["frame", "--scenario", "s1-parseval"])
    s = rep["summary"]
    assert s["lower"] == pytest.approx(1.0, abs=1e-12)
    assert s["upper"] == pytest.approx(1.0, abs=1e-12)
    assert s["parseval"] is True and s["riesz"] is True


def test_riesz_command_flags_dependence():
    rep = invoke_json(["riesz", "--scenario", "s1"])
    s = rep["summary"]
    assert s["riesz"] is False
    assert s["frame"] is True
    assert s["lower"] == pytest.approx(0.0, abs=1e-12)
    assert s["upper"] == pytest.approx(5.0, abs=1e-12)


def _dependent_pair(doc):
    g = np.random.default_rng(0).normal(size=(8, 2)).round(3)
    doc["generators"] = [g.tolist(), (3 * g).tolist()]


def test_dependent_pair_has_exact_zero_riesz_lower(tmp_path):
    # a cut singular value counts as 0 on both routes, so the lower Riesz
    # bound of a dependent system is exactly 0, never rounding dust
    path = _fixture_variant(tmp_path, "s1", _dependent_pair)
    rep = invoke_json(["verify", "--scenario", path])
    pair = next(c for c in rep["checks"]
                if c["name"] == "riesz_bounds_vs_dense")
    assert pair["fiber"][0] == pair["dense"][0] == 0.0
    assert pair["ok"]
    summary = invoke_json(["riesz", "--scenario", path])["summary"]
    assert summary["lower"] == 0.0 and summary["riesz"] is False


def test_bracket_command():
    rep = invoke_json(["bracket", "--scenario", "s1-parseval"])
    pairs = {(p["i"], p["j"]): p for p in rep["pairs"]}
    assert set(pairs) == {(0, 0), (0, 1), (1, 1)}
    # orthogonal generators: the cross bracket vanishes identically
    assert np.max(np.abs(np.asarray(pairs[(0, 1)]["values"]))) < 1e-12
    # each diagonal bracket is the constant 1 for a delta generator
    assert np.allclose(np.asarray(pairs[(0, 0)]["values"]),
                       np.tile([1.0, 0.0], (4, 1)), atol=1e-12)


def test_decompose_command():
    # the dependent s1 pair collapses to one Parseval generator, the
    # orthonormal pair stays two
    rep = invoke_json(["decompose", "--scenario", "s1"])
    assert rep["ok"] is True
    assert len(rep["parts"]) == 1
    rep = invoke_json(["decompose", "--scenario", "s1-parseval"])
    assert rep["ok"] is True
    assert len(rep["parts"]) == 2
    assert rep["audit"]["dims_match"] is True
    assert rep["union_bounds"]["lower"] == pytest.approx(1.0, abs=1e-10)
    assert rep["union_bounds"]["upper"] == pytest.approx(1.0, abs=1e-10)
    rep = invoke_json(["decompose", "--scenario", "star"])
    assert rep["ok"] is True
    assert len(rep["parts"]) == 1


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in v]


def _translation_doc(factors, subgroup, gen):
    return {"schema_version": 1, "name": "vanishing",
            "translation": {"group_factors": factors,
                            "subgroup_generators": subgroup,
                            "generators": [_pairs(gen)]}}


VANISHING = {
    "s3-constant": _translation_doc([12], [[3]], np.ones(12)),
    "s3-character": _translation_doc(
        [12], [[3]], np.exp(2j * np.pi * np.arange(12) / 12)),
    "z16-constant": _translation_doc([16], [[4]], np.ones(16)),
    "z6-affine-character": {
        "schema_version": 1, "name": "vanishing",
        "group": {"invariant_factors": [6]},
        "space": {"size": 12, "weights": [1.0] * 12},
        "action": {"affine": {"multipliers": [2]}},
        "generators": [_pairs(np.exp(2j * np.pi * np.arange(12) / 6))]},
}


@pytest.mark.parametrize("name", VANISHING)
def test_decompose_passes_where_the_generator_vanishes(tmp_path, name):
    # the transform vanishes on all but one fiber; the parts carry rounding
    # dust there after the round trip, which the audit must not count
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(VANISHING[name]))
    dims = [f["dim"] for f in
            invoke_json(["range", "--scenario", str(p)])["fibers"]]
    assert sum(dims) == 1
    rep = invoke_json(["decompose", "--scenario", str(p)])
    assert rep["ok"] is True
    assert rep["audit"]["dims_match"] is True
    assert len(rep["parts"]) == 1


def test_ledger_fault_is_io_error(monkeypatch):
    # a wrong annihilator breaks |Gamma| * |Gamma*| = |G|: one error line
    import zakfiber.translation as translation
    monkeypatch.setattr(translation, "annihilator",
                        lambda G, gamma: translation.subgroup_from_generators(
                            G, []))
    code, out, err = invoke(["validate", "--scenario", "s3"])
    assert (code, out) == (4, "")
    assert _one_error_line(err)
    assert "|Gamma| * |Gamma*| = |G|" in err


def test_short_dual_transversal_is_io_error(monkeypatch):
    # the second transversal, of G^ / Gamma*, one representative short
    # breaks |Omega| = |Gamma|: one error line
    import zakfiber.translation as translation
    transversal, calls = translation.coset_transversal, []

    def short(G, sub):
        calls.append(sub)
        reps = transversal(G, sub)
        return reps[:-1] if len(calls) == 2 else reps

    monkeypatch.setattr(translation, "coset_transversal", short)
    code, out, err = invoke(["validate", "--scenario", "s3"])
    assert (code, out) == (4, "")
    assert _one_error_line(err)
    assert "|Omega| must equal |Gamma|" in err


def test_verify_all_fixtures():
    for name in ("s1", "s1-parseval", "s2", "s3", "star"):
        code, out, err = invoke(["verify", "--scenario", name])
        assert code == 0, (name, out, err)
        rep = json.loads(out)
        assert rep["ok"] is True
        assert all(c["ok"] for c in rep["checks"])


def test_verify_check_names():
    rep = invoke_json(["verify", "--scenario", "s1"])
    names = [c["name"] for c in rep["checks"]]
    assert "frame_bounds_vs_dense" in names
    assert "riesz_bounds_vs_dense" in names
    assert "zak_roundtrip_gen0" in names
    assert "membership_vs_dense_cand0" in names
    rep = invoke_json(["verify", "--scenario", "s3"])
    names = [c["name"] for c in rep["checks"]]
    assert "weil_gen0" in names
    assert "duality_gen0" in names


def test_translation_commands():
    rep = invoke_json(["translation", "weil", "--scenario", "s3"])
    assert all(r["deviation"] <= 1e-12 for r in rep["generators"])
    rep = invoke_json(["translation", "zak", "--scenario", "s3"])
    assert rep["command"] == "translation zak"
    assert all(r["roundtrip_deviation"] <= 1e-12 for r in rep["generators"])
    rep = invoke_json(["translation", "duality", "--scenario", "s3"])
    assert all(r["transform_deviation"] <= 1e-12 for r in rep["generators"])
    rep = invoke_json(["translation", "fiberize", "--scenario", "s3"])
    assert all(r["plancherel_deviation"] <= 1e-10 for r in rep["generators"])
    rep = invoke_json(["translation", "analyze", "--scenario", "s3"])
    assert "length" in rep and "summary" in rep


def test_translation_commands_reject_action_scenarios():
    code, out, err = invoke(["translation", "weil", "--scenario", "s1"])
    assert code == 2
    assert "translation" in err


def test_tolerance_validation():
    code, out, err = invoke(["frame", "--scenario", "s1",
                             "--tolerance", "0"])
    assert code == 2
    assert "tolerance must be in (0, 1)" in err
    code, out, err = invoke(["frame", "--scenario", "s1",
                             "--tolerance", "1.5"])
    assert code == 2


def test_parallel_validation():
    code, out, err = invoke(["frame", "--scenario", "s1", "--parallel", "0"])
    assert code == 2
    assert "--parallel" in err


def test_missing_scenario_is_io_error():
    code, out, err = invoke(["frame", "--scenario", "does-not-exist"])
    assert code == 4
    assert "not a shipped fixture" in err


def test_parse_error_is_io_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{")
    code, out, err = invoke(["frame", "--scenario", str(p)])
    assert code == 4
    assert "not valid JSON" in err
    p2 = tmp_path / "bad2.json"
    p2.write_text(json.dumps({"schema_version": 1}))
    code, out, err = invoke(["frame", "--scenario", str(p2)])
    assert code == 4
    assert "exactly one of the action/translation blocks" in err


def _one_error_line(err):
    return err.count("\n") == 1 and err.startswith("error: ")


def test_non_utf8_file_is_io_error(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"schema_version": 1, "name": "\xe9"}')
    code, out, err = invoke(["validate", "--scenario", str(p)])
    assert (code, out) == (4, "")
    assert _one_error_line(err) and "not valid JSON" in err


def test_deep_nesting_is_io_error(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000)
    code, out, err = invoke(["validate", "--scenario", str(p)])
    assert (code, out) == (4, "")
    assert _one_error_line(err) and "not valid JSON" in err


def test_utf8_bom_parses(tmp_path):
    p = tmp_path / "bom.json"
    p.write_bytes(b"\xef\xbb\xbf" + fixture_path("s1").read_bytes())
    assert invoke_json(["validate", "--scenario", str(p)])["ok"] is True


def test_utf8_name_parses_under_an_ascii_locale(tmp_path):
    # the locale's encoding is ASCII; PYTHONUTF8=0 keeps Python's UTF-8 mode,
    # which LC_ALL=C alone turns on, from decoding text as UTF-8 anyway
    doc = json.loads(fixture_path("s1").read_text())
    doc["name"] = "\u0393-space"
    p = tmp_path / "gamma.json"
    p.write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    src = str(Path(zakfiber.__file__).parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "zakfiber.cli", "validate",
                           "--scenario", str(p)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_csv_fibers_format():
    code, out, err = invoke(["frame", "--scenario", "s2",
                             "--format", "csv-fibers"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "fiber_id,dim,smin2,smax2"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"


@pytest.mark.parametrize("fmt, message", [
    ("csv-fibers", "report is not representable as CSV: non-finite fiber "
                   "spectrum"),
    ("structured", "report is not representable as JSON: ")])
def test_non_finite_report_exits_2(monkeypatch, fmt, message):
    from zakfiber import frames
    report_from_spectra = frames.report_from_spectra

    def infinite(*args, **kwargs):
        rep = report_from_spectra(*args, **kwargs)
        rep.smax2[0] = rep.upper = np.inf
        return rep

    monkeypatch.setattr(frames, "report_from_spectra", infinite)
    code, out, err = invoke(["frame", "--scenario", "s2", "--format", fmt])
    assert (code, out) == (2, "")
    assert _one_error_line(err)
    assert err.startswith("error: " + message)


def test_csv_fibers_rejected_elsewhere():
    code, out, err = invoke(["zak", "--scenario", "s1",
                             "--format", "csv-fibers"])
    assert code == 2
    assert "csv-fibers" in err


def test_deterministic_output():
    a = invoke(["verify", "--scenario", "s1"])
    b = invoke(["verify", "--scenario", "s1"])
    assert a == b
    p1 = invoke(["frame", "--scenario", "s1-parseval", "--parallel", "1"])
    p4 = invoke(["frame", "--scenario", "s1-parseval", "--parallel", "4"])
    assert p1 == p4


def test_scenario_path_and_fixture_name_agree():
    by_name = invoke(["length", "--scenario", "s1"])
    by_path = invoke(["length", "--scenario", str(fixture_path("s1"))])
    assert by_name == by_path


def test_verify_detects_disagreement(monkeypatch, tmp_path):
    # force the dense oracle to lie so the disagreement path is exercised
    import zakfiber.cli as cli

    def wrong_bounds(F):
        return 0.5, 0.5

    monkeypatch.setattr(cli.oracle, "frame_bounds_of_matrix", wrong_bounds)
    code, out, err = invoke(["verify", "--scenario", "s1"])
    assert code == 3
    rep = json.loads(out)
    assert rep["ok"] is False
    bad = [c for c in rep["checks"] if not c["ok"]]
    assert [c["name"] for c in bad] == ["frame_bounds_vs_dense"]


def _repeat_generators(doc):
    block = doc.get("translation", doc)
    block["generators"] = block["generators"] * 2


# plain s3 is independent, so one more dense dimension would flip its
# Riesz verdict as well; with its generator repeated it is not
@pytest.mark.parametrize("name, edit", [("s1", None),
                                        ("s3", _repeat_generators)],
                         ids=["s1", "s3"])
def test_verify_detects_dimension_disagreement(monkeypatch, tmp_path, name,
                                               edit):
    # the dense route alone reports one more retained sigma: sigma_r is
    # repeated and U_r gains a zero column, so the dense frame and Riesz
    # bounds and every membership residual are left as they are
    import zakfiber.cli as cli
    factor = cli.oracle.factor

    def one_dimension_more(M):
        U, s, rank, n_cols = factor(M)
        zero = np.zeros((U.shape[0], 1), dtype=U.dtype)
        return cli.oracle.Factorization(
            np.concatenate([U[:, :rank], zero, U[:, rank:]], axis=1),
            np.concatenate([s[:rank], s[rank - 1:rank], s[rank:]]),
            rank + 1, n_cols)

    if edit is not None:
        name = _fixture_variant(tmp_path, name, edit)
    monkeypatch.setattr(cli.oracle, "factor", one_dimension_more)
    code, out, err = invoke(["verify", "--scenario", name])
    assert code == 3
    rep = json.loads(out)
    assert rep["ok"] is False
    bad = [c for c in rep["checks"] if not c["ok"]]
    assert [c["name"] for c in bad] == ["dimension_vs_dense"]
    assert bad[0]["dense"] == bad[0]["fiber"] + 1


@pytest.mark.parametrize("command, name, dense, fiber, many, single", [
    ("verify", "s1", 1, 1, 1, 1),
    ("verify", "s3", 1, 1, 1, 2),
    ("decompose", "s1", 0, 1, 2, 0),
    ("frame", "s1", 0, 1, 1, 0),
    ("riesz", "s1", 0, 1, 1, 0),
    ("range", "s1", 0, 1, 1, 0),
    ("translation analyze", "s3", 0, 1, 1, 0),
    ("zak", "s1", 0, 0, 1, 0),
    ("bracket", "s1", 0, 0, 1, 0),
    ("member", "s1", 0, 1, 1, 1),
], ids=["s1", "s3", "decompose-s1", "frame-s1", "riesz-s1", "range-s1",
        "translation-analyze-s3", "zak-s1", "bracket-s1", "member-s1"])
def test_verify_factors_the_dense_matrix_once(monkeypatch, command, name,
                                              dense, fiber, many, single):
    # the fiber route's SVDs take 3-d stacks; the dense route's take M.
    # verify factors each route once, and decompose its generators once:
    # the audit reads the parts off their own Gram matrix.  Every command
    # fiberizes its generators with one forward_many, decompose its parts
    # with a second; a single forward is a candidate's (s1 has 1, s3 2)
    from zakfiber.zak import Fibration
    svd = np.linalg.svd
    calls = []

    def counting(a, *args, **kwargs):
        calls.append(np.ndim(a))
        return svd(a, *args, **kwargs)

    def recording(label, method):
        def wrapper(*args, **kwargs):
            calls.append(label)
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counting)
    for method in ["forward", "forward_many"]:
        monkeypatch.setattr(Fibration, method,
                            recording(method, getattr(Fibration, method)))
    code, out, err = invoke([*command.split(), "--scenario", name])
    assert code == 0, err
    assert (calls.count(2), calls.count(3)) == (dense, fiber)
    assert (calls.count("forward_many"), calls.count("forward")) == \
        (many, single)


@pytest.mark.parametrize("command", ["translation duality", "verify"])
def test_duality_fiberizes_and_sums_each_generator_once(monkeypatch,
                                                        command):
    # 3 generators: one duality check covers them and their 3 pairs, with
    # one fiberization and two Zak-sum arrays (at -C and at C) per generator
    from zakfiber import translation
    calls = []

    def recording(name, kernel):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return kernel(*args, **kwargs)
        return wrapper

    for name in ["duality_check", "fiberize", "_zak_sums"]:
        monkeypatch.setattr(translation, name,
                            recording(name, getattr(translation, name)))
    scenario = Path(__file__).parent / "golden" / "nondyadic-translation.json"
    code, _, err = invoke([*command.split(), "--scenario", str(scenario)])
    assert code == 0, err
    assert [calls.count(name) for name in
            ["duality_check", "fiberize", "_zak_sums"]] == [1, 3, 6]


def _scaled_translation(tmp_path, scale):
    """The golden nondyadic translation scenario with its generators scaled,
    and each generator's L = max(1, ||g||_1)."""
    doc = json.loads((Path(__file__).parent / "golden"
                      / "nondyadic-translation.json").read_text())
    gens = [[[scale * x for x in pair] for pair in g]
            for g in doc["translation"]["generators"]]
    doc["translation"]["generators"] = gens
    path = tmp_path / f"scaled-{scale:g}.json"
    path.write_text(json.dumps(doc))
    return str(path), [max(1.0, float(np.sum(np.abs(np.array(g) @ [1, 1j]))))
                       for g in gens]


@pytest.mark.parametrize("scale", [1.0, 1e5, 1e8])
def test_verify_gates_the_gramian_in_units_of_l1(tmp_path, monkeypatch,
                                                 scale):
    # a Gramian entry is bounded by L**2, not L: at scale 1e5 the routes
    # agree to 3.5e-16 of the largest entry, yet the gate 1e-10 * L failed
    path, l1 = _scaled_translation(tmp_path, scale)
    rep = invoke_json(["verify", "--scenario", path])
    assert rep["ok"] and all(c["ok"] for c in rep["checks"])

    # a Gramian error 10x over the gate 1e-10 * L**2 still fails, and is
    # printed as it is
    from zakfiber import translation
    check = translation.duality_check

    def planted(s, gens):
        res = check(s, gens)
        res.gramian_deviation[np.diag_indices(len(l1))] += \
            10 * 1e-10 * np.square(l1)
        return res

    monkeypatch.setattr(translation, "duality_check", planted)
    code, text, _ = invoke(["verify", "--scenario", path])
    checks = {c["name"]: c for c in json.loads(text)["checks"]}
    assert code == 3
    for i, L in enumerate(l1):
        duality = checks[f"duality_gen{i}"]
        assert not duality["ok"]
        assert duality["deviation"] >= 10 * 1e-10 * L ** 2


def test_commands_look_kernels_up_at_call_time(monkeypatch):
    # a kernel bound into a table or closure at import would escape this
    # patch, and the benchmark's span tracer, which replaces it the same way
    from zakfiber import decomp, frames, ranges
    calls = set()

    def recording(name, kernel):
        def wrapper(*args, **kwargs):
            calls.add(name)
            return kernel(*args, **kwargs)
        return wrapper

    for module, name in [(frames, "frame_check"),
                         (frames, "riesz_check"),
                         (ranges, "range_from_generators"),
                         (decomp, "parseval_decompose"),
                         (decomp, "verify_decomposition")]:
        monkeypatch.setattr(module, name,
                            recording(name, getattr(module, name)))
    expected = {
        ("frame", "s1"): {"frame_check"},
        ("riesz", "s1"): {"riesz_check"},
        ("decompose", "s1"): {"parseval_decompose", "verify_decomposition"},
        ("verify", "s1"): {"range_from_generators"},
        ("translation analyze", "s3"): {"frame_check"},
        ("range", "s1"): {"range_from_generators"},
        ("member", "s1"): {"range_from_generators"},
    }
    for (command, scenario), kernels in expected.items():
        calls.clear()
        invoke_json([*command.split(), "--scenario", scenario])
        assert calls == kernels, command


NONDYADIC = str(Path(__file__).parent / "golden" / "nondyadic.json")


@pytest.mark.parametrize("name", ["s1", "s1-parseval", "s2", "s3", "star",
                                  NONDYADIC], ids=lambda n: Path(n).stem)
def test_verify_fiber_side_matches_the_single_commands(name):
    # verify, frame and riesz all read their bounds off the one thin SVD
    # of the generator system, so they agree to the last bit
    checks = {c["name"]: c for c in
              invoke_json(["verify", "--scenario", name])["checks"]}
    for command, check in [("frame", "frame_bounds_vs_dense"),
                           ("riesz", "riesz_bounds_vs_dense")]:
        summary = invoke_json([command, "--scenario", name])["summary"]
        expected = [summary["lower"], summary["upper"]]
        assert checks[check]["fiber"] == expected, command
    dims = [f["dim"] for f in
            invoke_json(["range", "--scenario", name])["fibers"]]
    assert checks["dimension_vs_dense"]["fiber"] == sum(dims)


@pytest.mark.parametrize("name", ["s1", "s1-parseval", "s2", "s3", "star",
                                  "nondyadic", "nondyadic-translation"])
def test_verify_judges_every_vector_on_both_routes(name):
    # every generator, then every candidate, gets one membership check on
    # either fibration
    local = Path(__file__).parent / "golden" / f"{name}.json"
    path = local if local.exists() else fixture_path(name)
    doc = json.loads(path.read_text())
    block = doc.get("translation", doc)
    expected = [f"membership_vs_dense_gen{i}"
                for i in range(len(block["generators"]))] + \
        [f"membership_vs_dense_cand{j}"
         for j in range(len(block.get("candidates", [])))]
    checks = invoke_json(["verify", "--scenario", str(path)])["checks"]
    assert [c["name"] for c in checks
            if c["name"].startswith("membership_vs_dense_")] == expected


def _fixture_variant(tmp_path, name, edit, literal=None):
    """Write a copy of a shipped fixture after ``edit(doc)``; every "X" left
    in the document is replaced by the raw JSON ``literal``."""
    doc = json.loads(fixture_path(name).read_text())
    edit(doc)
    text = json.dumps(doc)
    if literal is not None:
        text = text.replace('"X"', literal)
    p = tmp_path / f"{name}-variant.json"
    p.write_text(text)
    return str(p)


def _set_weight(doc):
    doc["space"]["weights"][3] = "X"


def _set_generator(doc):
    doc["generators"][0][2] = [0.5, "X"]


def _set_candidate(doc):
    doc["candidates"][0][0] = ["X", 0.0]


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
@pytest.mark.parametrize("edit", [_set_weight, _set_generator,
                                  _set_candidate])
def test_non_finite_scenario_is_io_error(tmp_path, edit, literal):
    path = _fixture_variant(tmp_path, "s1", edit, literal)
    for command in ("zak", "frame", "verify"):
        code, out, err = invoke([command, "--scenario", path])
        assert (code, out) == (4, ""), (command, err)
        assert "must be finite" in err or "must hold finite numbers" in err


def _zero_generator(doc):
    block = doc.get("translation", doc)
    block["generators"] = [[[0.0, 0.0]] * len(block["generators"][0])]


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("name", ["s1", "s3"])
def test_verify_zero_generator(tmp_path, name):
    # both routes call the zero system degenerate: no bounds, not Riesz
    path = _fixture_variant(tmp_path, name, _zero_generator)
    code, out, err = invoke(["verify", "--scenario", path])
    assert code == 0, out
    rep = _strict_json(out)
    assert rep["ok"] is True
    riesz = [c for c in rep["checks"] if c["name"] == "riesz_bounds_vs_dense"]
    assert riesz[0]["fiber"] == [None, None]
    assert riesz[0]["deviation"] == 0.0


def _scale_vectors(factor):
    def edit(doc):
        block = doc.get("translation", doc)
        for key in ("generators", "candidates"):
            if key in block:
                block[key] = [[[factor * x for x in pair] for pair in v]
                              for v in block[key]]
    return edit


@pytest.mark.parametrize("factor", [1e-6, 1e-8])
@pytest.mark.parametrize("name", ["s1", "s1-parseval", "s2", "s3", "star"])
def test_verify_tiny_nonzero_system(tmp_path, name, factor):
    # sigma_max^2 lies under --tolerance, but the system is not zero: both
    # routes report its bounds, so they agree
    path = _fixture_variant(tmp_path, name, _scale_vectors(factor))
    code, out, err = invoke(["verify", "--scenario", path])
    assert code == 0, out


def test_frame_tiny_nonzero_system(tmp_path):
    from zakfiber import ZakTransform, oracle
    from zakfiber.scenario import parse_scenario
    path = _fixture_variant(tmp_path, "s1", _scale_vectors(1e-6))
    summary = invoke_json(["frame", "--scenario", path])["summary"]
    assert summary["frame"] is True
    assert summary["degenerate"] is False
    assert summary["support_size"] == 0
    sc = parse_scenario(path)
    M = ZakTransform(sc.action).synthesis_matrix(sc.generators)
    lower, upper = oracle.frame_bounds_of_matrix(oracle.factor(M))
    assert summary["lower"] == pytest.approx(lower, rel=1e-8, abs=0)
    assert summary["upper"] == pytest.approx(upper, rel=1e-8, abs=0)


@pytest.mark.parametrize("name", ["s1", "s3"])
def test_decompose_zero_generator(tmp_path, name):
    # the zero space has the empty decomposition
    path = _fixture_variant(tmp_path, name, _zero_generator)
    code, out, err = invoke(["decompose", "--scenario", path])
    assert code == 0, out
    rep = _strict_json(out)
    assert rep["ok"] is True
    assert rep["parts"] == []


def test_rel_dev_missing_bound_counts_as_zero():
    from zakfiber.cli import VERIFY_BOUND_REL, _rel_dev
    assert _rel_dev(None, None) == 0.0
    assert _rel_dev(None, 0.0) == 0.0
    assert _rel_dev(2.0, None) == 1.0 > VERIFY_BOUND_REL


def test_huge_affine_multiplier_acts_like_its_residue(tmp_path):
    # sigma depends on m mod N only: 2 + 8 * 2**70 acts like 2 on 8 points
    def edit(doc):
        doc["action"]["affine"]["multipliers"] = [2 + 8 * 2**70]
    path = _fixture_variant(tmp_path, "s1", edit)
    for command in ("validate", "zak", "verify"):
        assert invoke([command, "--scenario", path]) == \
            invoke([command, "--scenario", "s1"]), command


def test_huge_table_entry_is_io_error(tmp_path):
    def edit(doc):
        doc["action"]["table"][1][0] = 2**70
    path = _fixture_variant(tmp_path, "s2", edit)
    code, out, err = invoke(["validate", "--scenario", path])
    assert (code, out) == (4, "")
    assert err == "error: action.table[1] entries must lie in 0..3\n"


def _overflow_weight(doc):
    doc["space"]["weights"][0] = 1e308


def _overflow_generator(doc):
    doc["generators"][0][0] = [1e170, 0.0]


@pytest.mark.parametrize("command", ["frame", "zak", "riesz", "verify",
                                     "decompose"])
def test_overflow_scale_weight_exits_2(tmp_path, command):
    # finite numbers whose squares overflow: no Infinity on stdout in
    # either format, no traceback from the dense route's eigensolver, no
    # numpy warning on stderr, and no audit that passes on an infinite norm
    for edit in (_overflow_weight, _overflow_generator):
        path = _fixture_variant(tmp_path, "s1", edit)
        for fmt in ("structured", "csv-fibers"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, out, err = invoke([command, "--scenario", path,
                                         "--format", fmt])
            assert not [w for w in caught
                        if w.category is RuntimeWarning], (edit, fmt)
            assert (code, out) == (2, ""), (edit, fmt)
            assert err.startswith("error: ") and err.count("\n") == 1, err


def _pairs(v):
    return [[float(z.real), float(z.imag)] for z in v]


@pytest.mark.parametrize("eps, code", [(1e-6, 0), (1e-5, 0), (1e-4, 0),
                                       (1e-9, 3)])
def test_verify_near_dependent_generators(tmp_path, eps, code):
    # g2 = g1 + eps * h: the system is numerically rank deficient by a
    # margin eps, and both routes cut the same spectrum at the same place.
    # At eps = 1e-9 the smallest retained sigma is about 1e-10 of the
    # largest, where the dense SVD cannot resolve sigma^2 to the 1e-8 gate.
    def edit(doc):
        g1 = np.array([complex(*p) for p in doc["generators"][0]])
        rng = np.random.default_rng(0)
        h = rng.normal(size=8) + 1j * rng.normal(size=8)
        h *= np.linalg.norm(g1) / np.linalg.norm(h)
        doc["generators"][1] = _pairs(g1 + eps * h)
    path = _fixture_variant(tmp_path, "s1", edit)
    code_got, out, err = invoke(["verify", "--scenario", path])
    assert code_got == code, out


NEAR_RANK_CUT = [9e-11, 1.2e-10, 1.5e-10, 3e-10]


def _near_rank_cut(tmp_path, gens):
    """Exit code, part count and range length of decompose on s1 with the
    given generators."""
    def edit(doc):
        doc["generators"] = [_pairs(g) for g in gens]
    path = _fixture_variant(tmp_path, "s1", edit)
    length = invoke_json(["range", "--scenario", path])["length"]
    code, out, err = invoke(["decompose", "--scenario", path])
    return code, len(json.loads(out)["parts"]), length


@pytest.mark.parametrize("eps", NEAR_RANK_CUT)
def test_decompose_near_rank_cut(tmp_path, eps):
    # generators delta_0 and delta_0 + eps * delta_1 with eps near the
    # rank cut: the decomposition has as many parts as the range's length
    d0, d1 = np.eye(8)[:2]
    code, parts, length = _near_rank_cut(tmp_path, [d0, d0 + eps * d1])
    assert code == 0
    assert parts == length


@pytest.mark.parametrize("eps", NEAR_RANK_CUT)
def test_decompose_near_rank_cut_three_generators(tmp_path, eps):
    # delta_0 and delta_0 +- eps * delta_1: the third generator adds no
    # dimension, and the parts still match the range's length
    d0, d1 = np.eye(8)[:2]
    code, parts, length = _near_rank_cut(
        tmp_path, [d0, d0 + eps * d1, d0 - eps * d1])
    assert code == 0
    assert parts == length


@pytest.mark.parametrize("c, lower", [(1e-2, 1e-4), (3e-5, 1e12)],
                         ids=["retained", "dropped"])
def test_verify_wide_range_generator(tmp_path, c, lower):
    # fibers of norm 1e6 and c: at c = 1e-2 both are retained, at c = 3e-5
    # (below 1e-10 of the largest) both routes drop the small fiber,
    # although its sigma^2 lies above the support tolerance
    from zakfiber import FiberedVector, ZakTransform
    from zakfiber.scenario import parse_scenario
    zk = ZakTransform(parse_scenario(fixture_path("s1")).action)
    F = np.zeros((4, 2), dtype=complex)
    F[0, 0], F[1, 1] = 1e6, c
    psi = zk.inverse(FiberedVector(F, zk.fiber_weights))

    def edit(doc):
        doc["generators"] = [_pairs(psi)]
    path = _fixture_variant(tmp_path, "s1", edit)
    code, out, err = invoke(["verify", "--scenario", path])
    assert code == 0, out
    frame = [ch for ch in json.loads(out)["checks"]
             if ch["name"] == "frame_bounds_vs_dense"][0]
    assert frame["fiber"][0] == pytest.approx(lower)
