"""Command-line runner: flags, config, exit codes, reports, determinism."""

import json
import os
import subprocess
import sys

import pytest

from rqmcheck.cli import main
from rqmcheck.suites import SUITES


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_mentions_every_suite(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    for name in ("algebra", "wigner", "kernels", "positivity", "generators",
                 "hermiticity", "semigroup", "wedge", "irrep", "casimir",
                 "projections", "mc-crosscheck"):
        assert name in out
    assert "reflection positivity" in out
    assert "contractive" in out or "semigroup" in out


def test_list_json_schema(capsys):
    code, out, _ = run_cli(["list", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == set(SUITES)
    assert all(isinstance(v, str) and v for v in doc.values())


def test_run_algebra_suite(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(["run", "--suite", "algebra", "--spin", "0",
                            "--spin", "2", "--mass", "1.0",
                            "--out", str(out_path)], capsys)
    assert code == 0
    assert "OVERALL PASS" in out
    doc = json.loads(out_path.read_text())
    assert doc["overall_pass"] is True
    assert doc["tool"] == "rqmcheck"
    assert doc["config"]["suites"] == ["algebra"]
    for check in doc["checks"]:
        assert {"name", "measured", "tolerance", "passed", "inputs",
                "details", "negative_control"} <= set(check)


def test_empty_suite_list_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": []}))
    code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "suite" in err


def test_unknown_suite_is_usage_error(capsys):
    code, _, err = run_cli(["run", "--suite", "nonsense"], capsys)
    assert code == 2


def test_bad_flag_is_usage_error(capsys):
    assert main(["run", "--no-such-flag"]) == 2


def test_tightened_tolerance_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["algebra"],
                               "tolerances": {"roundtrip": 1e-30}}))
    code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "loosen" in err


def test_non_finite_tolerance_rejected(tmp_path, capsys):
    from rqmcheck.suites import RunConfig

    for bad in (float("nan"), float("inf"), "1e-3", None, True):
        with pytest.raises(ValueError):
            RunConfig(tolerances={"casimir": bad})
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"suites": ["algebra"], "tolerances": {"casimir": NaN}}')
    code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
    assert code == 2
    assert "finite" in err


def test_malformed_config_values_are_usage_errors(tmp_path, capsys):
    from rqmcheck.suites import RunConfig

    cfg = tmp_path / "cfg.json"
    for bad in ({"masses": ["x"]}, {"spins": ["1"]}, {"tolerances": [1, 2]},
                {"spins": [1.5]}, {"masses": [True]}, {"mc_scrambles": 1},
                {"mc_points_log2": 1}, {"gram_nodes": 1}):
        cfg.write_text(json.dumps({"suites": ["algebra"], **bad}))
        code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 2, bad
        assert err.startswith("rqmcheck: "), bad
    for bad in ({"two_spins": (22,)}, {"seeds": ()}, {"jobs": 0},
                {"gram_size": 8.0}, {"suites": ("nonsense",)},
                {"mc_scrambles": 1}, {"mc_points_log2": 1},
                {"gram_nodes": 1}):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    RunConfig(mc_scrambles=2, mc_points_log2=2, gram_nodes=2)


def test_non_finite_measurement_never_passes():
    from rqmcheck.report import make_report

    for value in (float("nan"), float("inf"), -float("inf")):
        for control in (False, True):
            assert not make_report("x", value, 1e-7,
                                   negative_control=control).passed
    assert not make_report("suite_internal_error", float("inf"), 0.0).passed
    assert make_report("x", 1.0, 1e-7, negative_control=True).passed
    assert make_report("x", 1e-9, 1e-7).passed


def test_loosened_tolerance_is_flagged(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["algebra"],
                               "tolerances": {"roundtrip": 1e-9}}))
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["run", "--config", str(cfg), "--out",
                          str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    flagged = [c for c in doc["checks"]
               if c["name"] == "fourvector_roundtrip"]
    assert flagged and all(c["inputs"].get("loosened") for c in flagged)


def test_env_var_config(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["wigner"], "spins": [0, 1]}))
    monkeypatch.setenv("RQMCHECK_DEFAULT_CONFIG", str(cfg))
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["run", "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["suites"] == ["wigner"]
    assert doc["config"]["spins"] == [0, 1]


def test_reports_are_reproducible(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(["run", "--suite", "wigner", "--seed", "7",
                              "--spin", "0", "--spin", "1",
                              "--out", str(path)], capsys)
        assert code == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc.pop("wall_time_s")
        doc.pop("timestamp")
    assert docs[0] == docs[1]


def test_jobs_do_not_change_results(tmp_path, capsys):
    paths = [tmp_path / "serial.json", tmp_path / "parallel.json"]
    for path, jobs in zip(paths, ("1", "3")):
        code, _, _ = run_cli(["run", "--suite", "wigner", "--suite",
                              "algebra", "--spin", "1", "--jobs", jobs,
                              "--out", str(path)], capsys)
        assert code == 0
    docs = [json.loads(p.read_text()) for p in paths]
    for doc in docs:
        doc.pop("wall_time_s")
        doc.pop("timestamp")
        doc["config"].pop("jobs")
    assert docs[0] == docs[1]


def test_comma_separated_flags(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["run", "--suite", "wigner", "--spins", "0,1,2",
                          "--mass", "1.0,2.0", "--seed", "0,1",
                          "--out", str(out_path)], capsys)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["config"]["spins"] == [0, 1, 2]
    assert doc["config"]["masses"] == [1.0, 2.0]
    assert doc["config"]["seeds"] == [0, 1]


@pytest.mark.parametrize("error", [RuntimeError, ValueError])
def test_internal_error_recorded_per_check(capsys, monkeypatch, error):
    from rqmcheck import suites as su

    def broken(cfg):
        raise error("synthetic failure")

    monkeypatch.setitem(su.SUITES, "algebra",
                        (broken, su.SUITES["algebra"][1]))
    code, out, _ = run_cli(["run", "--suite", "algebra"], capsys)
    assert code == 1
    assert "algebra_internal_error" in out
    assert "OVERALL FAIL" in out


def test_internal_error_keeps_traceback(tmp_path, capsys, monkeypatch):
    from rqmcheck import suites as su

    def raising_helper():
        raise RuntimeError("synthetic failure")

    def broken(cfg):
        raising_helper()

    monkeypatch.setitem(su.SUITES, "algebra",
                        (broken, su.SUITES["algebra"][1]))
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["run", "--suite", "algebra", "--out",
                          str(out_path)], capsys)
    assert code == 1
    (check,) = json.loads(out_path.read_text())["checks"]
    assert check["name"] == "algebra_internal_error"
    assert "synthetic failure" in check["details"]["error"]
    trace = check["details"]["traceback"]
    assert "in raising_helper" in trace and "in broken" in trace


def test_config_echoes_every_size_field(tmp_path, capsys):
    sizes = {"gram_size": 3, "gram_nodes": 5, "hermiticity_pairs": 2,
             "mc_points_log2": 6, "mc_scrambles": 4, "irrep_elements": 7}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["algebra"], **sizes}))
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(["run", "--config", str(cfg), "--out",
                          str(out_path)], capsys)
    assert code == 0
    echo = json.loads(out_path.read_text())["config"]
    assert {key: echo[key] for key in sizes} == sizes


def test_csv_summary(tmp_path, capsys):
    csv_path = tmp_path / "summary.csv"
    code, _, _ = run_cli(["run", "--suite", "algebra", "--csv",
                          str(csv_path)], capsys)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "check,param-set,measured,tolerance,pass"
    assert len(lines) > 1
    assert all(line.rsplit(",", 1)[1] in ("0", "1") for line in lines[1:])


def test_json_flag_prints_report(capsys):
    code, out, _ = run_cli(["run", "--suite", "algebra", "--json"], capsys)
    assert code == 0
    payload = out[out.index("{"):]
    doc = json.loads(payload)
    assert doc["overall_pass"] is True


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "rqmcheck.cli", "list"],
        capture_output=True, text=True,
        env={**os.environ, "RQMCHECK_DEFAULT_CONFIG": ""})
    assert proc.returncode == 0
    assert "positivity" in proc.stdout


def test_failed_check_gives_exit_one(tmp_path, capsys, monkeypatch):
    # an impossible (tightened-to-default, loosened elsewhere) scenario is
    # rejected, so force a failure through a patched suite instead
    from rqmcheck import suites as su
    from rqmcheck.report import make_report

    def failing(cfg):
        return [make_report("forced_failure", 1.0, 1e-12)]

    monkeypatch.setitem(su.SUITES, "algebra",
                        (failing, su.SUITES["algebra"][1]))
    code, out, _ = run_cli(["run", "--suite", "algebra"], capsys)
    assert code == 1
    assert "OVERALL FAIL" in out


def test_irrep_unitarity_passes_at_seed_one_spin_one(tmp_path, capsys):
    # on a norm grid narrower than momentum_box this case measures 5.3e-6
    # against the 1e-6 tolerance
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"irrep_elements": 1}))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(["run", "--config", str(cfg), "--suite", "irrep",
                            "--seed", "1", "--spin", "2", "--out",
                            str(out_path)], capsys)
    assert code == 0, out
    doc = json.loads(out_path.read_text())
    unitarity = [c for c in doc["checks"] if c["name"] == "irrep_unitarity"]
    assert len(unitarity) == 1 and unitarity[0]["tolerance"] == 1e-6
