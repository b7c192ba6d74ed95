"""Tests of the benchmark itself.

    python3 perfbench/selftest.py        (or: python3 -m pytest perfbench/selftest.py)

The file is not named test_*.py, so the repository's own pytest run does not
collect it; it takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import holocheck  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}
COUNT_UNITS = ("count", "rhs/segment", "rhs/escape", "bytes")


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stderr
    assert doc["attempted"] >= 1
    expect = END_TO_END if trace == 0 else dict(tracer.PER_LAYER)
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expect
    assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())


def test_known_c2_fault_fails_only_c2(capsys):
    """The fixed large-trace certifications fail C2 alone at full size."""
    for matrix, seed in wl.KNOWN_C2_FAULT:
        op = wl.CertifyOp(matrix, seed, 1000, True)
        code = holocheck.cli.main(op.argv)
        out = capsys.readouterr().out.encode()
        assert wl.check_certify(out, code, op.expected_config) == (["C2"], [])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_per_layer_counts_repeat(workload):
    inputs = wl.build(workload, 2, tiny=True)
    counts = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            outcome = wl.run_pass(workload, inputs, {})
        metrics = tracer.per_layer_metrics(tr, 1.0, 1.0, outcome.stats)
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in COUNT_UNITS})
        assert not outcome.problems
    assert counts[0] == counts[1]
    assert counts[0]["tensor_core.partials_evals"] > 0


def test_tracer_restores_bindings_and_sees_cross_module_calls():
    from holocheck import checklist, tensor_core
    original = tensor_core.riemann_at
    with tracer.Tracer() as tr:
        assert checklist.riemann_at is not original
        assert checklist.riemann_at is tensor_core.riemann_at
        holocheck.cli.main(["--report", "json", "--samples", "5"])
    assert checklist.riemann_at is original and holocheck.riemann_at is original
    table = tr.table()
    assert table["tensor_core.riemann_at"]["calls"] == 15  # C4, C11 (2D), C12
    # Self times account for the whole of the root span.
    assert sum(r["self_s"] for r in table.values()) == pytest.approx(
        table["cli.main"]["total_s"], rel=1e-9)


def _frames():
    inputs = wl.build("transport_frames", 4, tiny=True)
    m = holocheck.warped_metric()
    cfg = holocheck.IntegratorConfig(**wl.TIGHT)
    return inputs, m, cfg


def test_transport_checks_reject_perturbed_matrices():
    inputs, m, cfg = _frames()
    curve = inputs.polylines[0]
    p = holocheck.transport_matrix(m, curve, cfg)
    assert wl.check_polyline(p, curve.start.z, curve.end.z) == []
    for i, j in ((0, 0), (1, 2), (2, 1)):
        bad = p.copy()
        bad[i, j] += 1e-6
        assert wl.check_polyline(bad, curve.start.z, curve.end.z)
    vcurve, z0, z1 = inputs.verticals[0]
    pv = holocheck.transport_matrix(m, vcurve, cfg)
    assert wl.check_vertical(pv, z0, z1) == []
    bad = pv.copy()
    bad[1, 1] += 1e-6 * max(1.0, abs(pv[1, 1]))
    assert wl.check_vertical(bad, z0, z1)


def test_holonomy_checks_reject_perturbed_matrices():
    inputs, m, cfg = _frames()
    base = holocheck.ChartPoint(0.0, 0.0, 1.0)
    for text, matrix, gen in inputs.loops:
        h = np.asarray(holocheck.holonomy_of_loop(
            matrix, m, holocheck.LoopClass([gen], base), cfg).matrix)
        assert wl.check_holonomy(h, text, gen) == []
        bad = h.copy()
        bad[1, 0] += 1e-6  # tilts the v1 line
        assert wl.check_holonomy(bad, text, gen)
        bad = h.copy()
        if gen == "gz":
            bad[2, 2] += 2e-6
        else:
            bad[:, 2] *= 1.0 + 1e-6  # scale of one frame vector
        assert wl.check_holonomy(bad, text, gen)


def test_geodesic_checks_reject_corrupted_results():
    m = holocheck.warped_metric()
    for op in wl.build("geodesic_escape", 6, tiny=True):
        p0 = holocheck.ChartPoint(*op.start)
        traj = holocheck.integrate_geodesic(
            m, p0, holocheck.TangentVector(p0, op.velocity), op.t_max)
        term = traj.termination
        if op.escapes:
            assert wl.check_escape(term.status, term.t_escape, op)[1] == []
            assert wl.check_escape(term.status, term.t_escape + 2e-6, op)[1]
            assert wl.check_escape("completed", None, op)[1]
        else:
            ts = np.array([s.t for s in traj.samples])
            xs = np.array([s.point.coords for s in traj.samples])
            vs = np.array([s.velocity.comp for s in traj.samples])
            assert wl.check_turning(term.status, ts, xs, vs, op) == []
            bad = vs.copy()
            bad[-1, 1] *= 1.0 + 1e-6
            assert wl.check_turning(term.status, ts, xs, bad, op)
            bad = xs.copy()
            bad[-1, 0] += 1e-6
            assert wl.check_turning(term.status, ts, bad, vs, op)


def test_certify_check_rejects_a_flipped_status(capsys):
    op = wl.build("certify_default", 3, tiny=True)[0]
    code = holocheck.cli.main(op.argv)
    out = capsys.readouterr().out.encode()
    assert wl.check_certify(out, code, op.expected_config) == ([], [])
    doc = json.loads(out)
    doc["checks"][6]["status"] = "fail"
    failing, problems = wl.check_certify(json.dumps(doc).encode(), code,
                                         op.expected_config)
    assert failing == ["C7"] and problems
    doc = json.loads(out)
    doc["config"]["seed"] += 1
    assert wl.check_certify(json.dumps(doc).encode(), code, op.expected_config)[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "geodesic_escape", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"]))
