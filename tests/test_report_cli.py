"""Report model, serialization, checklist orchestration and CLI exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import holocheck as hc
from holocheck import checklist
from holocheck.checklist import _composite
from holocheck.cli import main
from holocheck.report import Part, passes

QUICK = dict(samples=60)


@pytest.fixture(scope="module")
def default_report():
    return hc.run_checklist(hc.ChecklistConfig(**QUICK))


def run_module(*args):
    """``python -m holocheck *args`` in a child that imports this holocheck."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hc.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "holocheck", *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


class TestCheckResult:
    def test_status_derived_from_residual(self):
        assert hc.CheckResult("X", "d", "c", 1e-9, 1e-8).status == "pass"
        assert hc.CheckResult("X", "d", "c", 1e-7, 1e-8).status == "fail"
        assert hc.CheckResult("X", "d", "c", float("inf"), 1e-8).status == "fail"
        assert hc.CheckResult("X", "d", "c", float("nan"), 1e-8).status == "fail"
        c = hc.CheckResult("X", "d", "c", 1, 2)
        assert type(c.residual) is float and type(c.tolerance) is float

    def test_duplicate_ids_rejected(self):
        c = hc.CheckResult("X", "d", "c", 0.0, 1.0)
        with pytest.raises(ValueError):
            hc.VerificationReport(config_echo={}, checks=(c, c))


@pytest.mark.parametrize("residual,tolerance,verdict", [
    (float("nan"), 1e-8, False),
    (float("inf"), 1e-8, False),
    (1e-8, 1e-8, True),
    (math.nextafter(1e-8, 1.0), 1e-8, False),
    (0.0, 0.0, True),
    (1e-300, 0.0, False),
], ids=["nan", "inf", "equal", "just_above", "zero_zero", "tiny_over_zero"])
def test_one_pass_rule(residual, tolerance, verdict):
    # check results, foliation reports and composite checks all decide by passes()
    assert passes(residual, tolerance) is verdict
    assert (hc.CheckResult("X", "d", "c", residual, tolerance).status == "pass") is verdict
    assert hc.FoliationReport((Part("p", residual, tolerance),)).passed is verdict
    assert _composite("C3", [Part("p", residual, tolerance)]).passed is verdict


class TestEmitReport:
    def test_empty_report_is_valid(self):
        rep = hc.VerificationReport(config_echo={}, checks=())
        doc = json.loads(hc.emit_report(rep, "json"))
        assert doc["checks"] == [] and doc["all_passed"] is True
        assert doc["schema_version"] == 1

    def test_json_roundtrip(self, default_report):
        raw = hc.emit_report(default_report, "json")
        doc = json.loads(raw)
        assert (json.dumps(doc, indent=2) + "\n").encode() == raw

    def test_text_has_twelve_check_lines(self, default_report):
        text = hc.emit_report(default_report, "text").decode()
        lines = [ln for ln in text.splitlines() if re.match(r"^C\d+\s", ln)]
        assert len(lines) == 12

    def test_composite_lines_name_their_worst_part(self, default_report):
        lines = hc.emit_report(default_report, "text").decode().splitlines()
        by_id = {ln.split()[0]: ln for ln in lines if re.match(r"^C\d+\s", ln)}
        assert by_id["C8"].endswith("worst=downward_escape_at_t=1 (0.9999 of tol)")
        assert "worst=" not in by_id["C5"]  # a single-quantity check
        assert b"worst" not in hc.emit_report(default_report, "json")

    def test_worst_part_is_first_with_largest_ratio(self):
        check = _composite("C6", [Part("a", 0.0, 1.0), Part("b", 2e-7, 1e-6),
                                  Part("c", 0.2, 1.0)])
        assert check.worst_part == "b" and check.residual == pytest.approx(0.2)
        assert _composite("C6", [Part("a", 0.0, 1.0), Part("b", 0.0, 0.0)]).worst_part == "a"

    def test_unknown_format(self, default_report):
        with pytest.raises(ValueError):
            hc.emit_report(default_report, "yaml")


class TestRunChecklist:
    def test_default_configuration_passes(self, default_report):
        assert default_report.all_passed
        assert [c.id for c in default_report.checks] == [f"C{i}" for i in range(1, 13)]

    def test_every_check_cites_a_claim(self, default_report):
        for c in default_report.checks:
            assert c.claim.strip()
            assert c.description.strip()

    def test_status_residual_invariant(self, default_report):
        for c in default_report.checks:
            assert (c.residual <= c.tolerance) == (c.status == "pass")

    def test_deterministic_json(self):
        r1 = hc.emit_report(hc.run_checklist(hc.ChecklistConfig(**QUICK)), "json")
        r2 = hc.emit_report(hc.run_checklist(hc.ChecklistConfig(**QUICK)), "json")
        assert r1 == r2

    @pytest.mark.parametrize("matrix", [((2, 1), (1, 1)), ((1, 1), (0, 1))],
                             ids=["certified", "invalid"])
    def test_report_text_is_the_registry_row(self, matrix):
        doc = json.loads(hc.emit_report(
            hc.run_checklist(hc.ChecklistConfig(matrix=matrix, samples=10)), "json"))
        assert [c["id"] for c in doc["checks"]] == list(checklist._CHECKS)
        assert [f"C{i}" for i in range(1, 13)] == list(checklist._CHECKS)
        for c in doc["checks"]:
            row = checklist._CHECKS[c["id"]]
            assert (c["description"], c["claim"]) == (row.description, row.claim)

    def test_sweep_folds_are_the_registry_rows(self, cat):
        ctx = checklist._Context(hc.ChecklistConfig(samples=10), cat)
        assert list(ctx.sweep) == [cid for cid, row in checklist._CHECKS.items()
                                   if row.fold is not None]
        assert list(ctx.sweep) == ["C2", "C3", "C4", "C9", "C11", "C12"]

    def test_readme_table_lists_the_registry(self):
        readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
        with open(readme) as fh:
            ids = re.findall(r"^\| (C\d+) +\|", fh.read(), re.M)
        assert ids == list(checklist._CHECKS)

    def test_parabolic_matrix_fails_c1(self):
        rep = hc.run_checklist(hc.ChecklistConfig(matrix=((1, 1), (0, 1)), samples=10))
        assert not rep.all_passed
        by_id = {c.id: c for c in rep.checks}
        assert by_id["C1"].status == "fail"
        assert "trace" in by_id["C1"].note
        assert all(by_id[f"C{i}"].status == "fail" for i in range(2, 13))
        assert "not run" in by_id["C2"].note

    def test_mutated_exponent_fails_homothety(self):
        rep = hc.run_checklist(hc.ChecklistConfig(metric_exponent=3.0, samples=40))
        by_id = {c.id: c for c in rep.checks}
        assert by_id["C1"].status == "pass"
        assert by_id["C2"].status == "fail"
        assert by_id["C2"].residual > 0.0

    def test_mutated_exponent_fails_homothety_by_a_margin(self):
        # z^3: the pullback differs from lambda^2 g by the factor 1 - 1/lambda
        rep = hc.run_checklist(hc.ChecklistConfig(metric_exponent=3.0, samples=40))
        c2 = next(c for c in rep.checks if c.id == "C2")
        assert c2.status == "fail"
        assert c2.residual > 0.1

    def test_matrix_above_two_to_the_53_passes_c1(self):
        big = 2 ** 53
        rep = hc.run_checklist(hc.ChecklistConfig(matrix=((big + 1, big), (1, 1)),
                                                  samples=10))
        c1 = rep.checks[0]
        assert c1.id == "C1" and c1.status == "pass"
        assert f"trace={big + 2}" in c1.note

    def test_nonfinite_config_echo_is_strict_json(self):
        rep = hc.run_checklist(hc.ChecklistConfig(matrix=((math.nan, 1), (1, 1)),
                                                  samples=10))

        def reject(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(hc.emit_report(rep, "json"), parse_constant=reject)
        assert doc["config"]["matrix"] == [["nan", 1], [1, 1]]
        assert doc["checks"][0]["status"] == "fail"

    @pytest.mark.parametrize("matrix", [((5, 4), (1, 1)), ((1000, 999), (1, 1)),
                                        ((2 ** 53 + 1, 2 ** 53), (1, 1))])
    def test_large_trace_matrices_pass(self, matrix):
        # C2 measures roundoff relative to lambda^2 g, so it holds at any trace
        rep = hc.run_checklist(hc.ChecklistConfig(matrix=matrix, seed=0))
        assert [c.id for c in rep.checks if c.status != "pass"] == []
        c2 = next(c for c in rep.checks if c.id == "C2")
        assert "absolute max" in c2.note

    def test_trace_sweep_passes(self):
        # every hyperbolic matrix C1 accepts is certified, up to and past
        # entries of 2^53, where the deck lift spans z from 1 to about 9e15
        for trace in (3, 4, 6, 10, 30, 100, 1000, 10 ** 6, 10 ** 12, 2 ** 53 + 2):
            rep = hc.run_checklist(hc.ChecklistConfig(
                matrix=((trace - 1, trace - 2), (1, 1)), samples=200))
            assert [c.id for c in rep.checks if c.status != "pass"] == [], trace

    def test_config_validation(self):
        with pytest.raises(hc.ConfigError):
            hc.ChecklistConfig(samples=0)
        with pytest.raises(hc.ConfigError):
            hc.ChecklistConfig(tol_abs=-1.0)
        nan, inf = float("nan"), float("inf")
        for bad in (dict(t_max=nan), dict(t_max=inf), dict(tol_abs=nan),
                    dict(tol_rel=nan), dict(tol_abs=inf), dict(seed=-1),
                    dict(metric_exponent=nan), dict(metric_exponent=inf)):
            with pytest.raises(hc.ConfigError):
                hc.ChecklistConfig(**bad)

    def test_t_max_below_the_downward_horizon_rejected(self):
        # an upward probe shorter than the downward one (2) shows nothing
        # about completeness: --t-max 1e-9 used to certify 12/12
        for short in (1e-9, 1.999):
            with pytest.raises(hc.ConfigError, match="downward probe's horizon"):
                hc.ChecklistConfig(t_max=short)
        assert hc.ChecklistConfig(t_max=2.0).t_max == 2.0

    def test_t_max_that_overflows_the_upward_probe_rejected(self):
        # from z = 1 the upward probe climbs to 1 + t_max, and the model's
        # Gamma^z_{yt yt} = -2 z^3 overflows above z = 3.5554e102
        for t_max in (3.556e102, 1e300):
            with pytest.raises(hc.ConfigError, match="overflows a float"):
                hc.ChecklistConfig(t_max=t_max)
        assert hc.ChecklistConfig(t_max=3.555e102).t_max == 3.555e102


class TestTraces:
    def test_files_written(self, tmp_path):
        rep = hc.run_checklist(hc.ChecklistConfig(samples=20,
                                                  emit_traces_dir=str(tmp_path)))
        assert rep.traces_emitted == ("escape_geodesic.csv", "gz_transport.csv")
        esc = (tmp_path / "escape_geodesic.csv").read_text().splitlines()
        assert esc[0] == "t,xt,yt,z,v1,v2,v3"
        assert len(esc) >= 3
        final = [float(x) for x in esc[-1].split(",")]
        assert final[3] < 10 * 1e-6
        assert abs(final[0] - 1.0) <= 1e-6

    def test_gz_trace_final_frame(self, tmp_path):
        hc.run_checklist(hc.ChecklistConfig(samples=20, emit_traces_dir=str(tmp_path)))
        gz = (tmp_path / "gz_transport.csv").read_text().splitlines()
        assert gz[0].split(",")[:4] == ["t", "xt", "yt", "z"]
        final = dict(zip(gz[0].split(","), (float(x) for x in gz[-1].split(","))))
        assert abs(final["p22"] - 0.1458980) < 1e-7
        assert abs(final["p11"] - 1.0) < 1e-9

    def test_run_uses_integrator_defaults(self, default_report):
        echo = default_report.config_echo
        assert echo["integrator_rel_tol"] == hc.IntegratorConfig().rel_tol == 1e-10
        assert echo["integrator_abs_tol"] == hc.IntegratorConfig().abs_tol == 1e-12


class TestCli:
    def test_default_exit_zero(self, capsys):
        assert main(["--samples", "40"]) == 0
        out = capsys.readouterr().out
        assert "12/12 checks passed" in out

    def test_json_output(self, capsys):
        assert main(["--samples", "40", "--report", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_passed"] is True
        assert doc["config"]["samples"] == 40

    def test_failing_matrix_exit_one(self, capsys):
        assert main(["--matrix", "1 1 0 1", "--samples", "10"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_matrix_exit_two(self, capsys):
        assert main(["--matrix", "1 2 3"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_samples_exit_two(self, capsys):
        assert main(["--samples", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("args", [["--t-max", "nan"], ["--t-max", "inf"],
                                      ["--tol-abs", "nan"], ["--tol-rel", "nan"],
                                      ["--seed", "-1"], ["--metric-exponent", "nan"],
                                      ["--metric-exponent", "inf"]])
    def test_bad_config_exit_two(self, capsys, args):
        assert main(args) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_short_t_max_exit_two(self, capsys):
        assert main(["--t-max", "1e-9"]) == 2
        assert "downward probe's horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("t_max", ["5e102", "1e300"])
    def test_overflowing_t_max_exit_two(self, capsys, t_max):
        # these failed C8 with a step size underflow: the upward probe's
        # Gamma^z_{yt yt} overflowed, and 0 * inf gave NaN slopes
        assert main(["--t-max", t_max]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("holocheck: configuration error: t_max must be at most")

    def test_largest_t_max_passes(self, capsys):
        assert main(["--t-max", "1e102"]) == 0
        assert "12/12 checks passed" in capsys.readouterr().out

    def test_overflowing_metric_keeps_stderr_clean(self):
        # z^400 overflows in most checks, which fail and say so in the
        # report; none of numpy's floating-point warnings reach stderr
        proc = run_module("--samples", "50", "--metric-exponent", "400")
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert "3/12 checks passed" in proc.stdout
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == \
            "59e57fa70b7bb08d65ea1b8a39bd9396a2592a6ab6fbdd81b56f2f20dba769e2"

    def test_mutated_exponent_exit_one(self, capsys):
        assert main(["--samples", "40", "--metric-exponent", "3"]) == 1
        assert re.search(r"^C2\s+FAIL", capsys.readouterr().out, re.M)

    def test_traces_flag(self, tmp_path, capsys):
        assert main(["--samples", "20", "--emit-traces", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "escape_geodesic.csv").exists()
        assert (tmp_path / "gz_transport.csv").exists()

    def test_traces_at_entries_above_two_to_the_53(self, tmp_path, capsys):
        big = 2 ** 53
        assert main(["--matrix", f"{big + 1} {big} 1 1", "--emit-traces",
                     str(tmp_path)]) == 0
        assert "12/12 checks passed" in capsys.readouterr().out
        gz = (tmp_path / "gz_transport.csv").read_text().splitlines()
        final = dict(zip(gz[0].split(","), (float(x) for x in gz[-1].split(","))))
        lam = hc.eigen_basis(hc.validate_toral_matrix([[big + 1, big], [1, 1]])).lam
        assert final["p22"] == pytest.approx(1.0 / lam ** 2, rel=1e-9)
        # the last row is the lift's end point, not a rounded piece sum
        assert final["z"] == lam == 9007199254740994.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_uncomputable_trace_exit_one(self, tmp_path, capsys):
        # z^400 overflows: the checks fail and report, but the escape
        # geodesic's step underflows, so no trace and no report is written
        code = main(["--samples", "50", "--metric-exponent", "400",
                     "--emit-traces", str(tmp_path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("holocheck: cannot write trace file ")
        assert "step size underflow" in err
        assert not (tmp_path / "escape_geodesic.csv").exists()

    def test_unwritable_trace_dir_exit_one(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["--samples", "20", "--emit-traces", str(blocker)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("holocheck: ")

    def test_comma_separated_matrix(self, capsys):
        assert main(["--matrix", "2,1,1,1", "--samples", "20"]) == 0
        capsys.readouterr()

    def test_module_entry_point(self):
        # the child imports holocheck from the same place these tests do
        src = os.path.dirname(os.path.dirname(os.path.abspath(hc.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "holocheck", "--samples", "20"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert "12/12 checks passed" in proc.stdout
