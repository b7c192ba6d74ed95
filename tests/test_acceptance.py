"""Acceptance gate: every certified claim at its pinned tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.  Expected constants are closed-form consequences of the
construction (lambda = (3 + sqrt 5)/2 for the default gluing matrix);
derived curvature values were cross-checked against an independent
symbolic derivation and the transport/curvature consistency loop before
being frozen here.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import holocheck as hc
from holocheck import ChartPoint, CurveSpec, LoopClass, TangentVector
from holocheck.cli import main
from holocheck.tensor_core import _metric

LAM = (3.0 + math.sqrt(5.0)) / 2.0


@contextmanager
def criterion(name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE] {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"\n[ACCEPTANCE] {name}: PASS ({time.perf_counter() - t0:.2f}s)")


@pytest.fixture(scope="module")
def sample_points():
    rng = np.random.default_rng(0)
    pts = rng.uniform([-5.0, -5.0, 0.2], [5.0, 5.0, 10.0], (1000, 3))
    return [ChartPoint(x, y, z) for x, y, z in pts]


@pytest.fixture(scope="module")
def directions():
    rng = np.random.default_rng(42)
    d = rng.uniform(-1.0, 1.0, (1000, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def test_homothety(cat, model, sample_points):
    with criterion("homothety f*g = lambda^2 g"):
        t0 = time.perf_counter()
        worst = max(hc.pullback_metric_residual(cat, model, p) for p in sample_points)
        elapsed = time.perf_counter() - t0
        assert worst < 1e-10
        assert elapsed < 1.0


def test_nonflatness(model, sample_points):
    with criterion("nonflatness: scalar -4/z^2, leaf plane -2/z^2"):
        t0 = time.perf_counter()
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        e3 = np.array([0.0, 0.0, 1.0])
        rng = np.random.default_rng(7)
        scalar_rel = sect_rel = flat_abs = 0.0
        for p in sample_points:
            curv = hc.riemann_at(model, p)
            g = _metric(model, p.coords)
            scalar_rel = max(scalar_rel, abs(curv.scalar * p.z**2 / -4.0 - 1.0))
            k23 = hc.sectional_curvature(g, curv.riemann, e2, e3)
            sect_rel = max(sect_rel, abs(k23 * p.z**2 / -2.0 - 1.0))
            theta = rng.uniform(0.0, 2.0 * math.pi)
            v = np.array([0.5, math.cos(theta), math.sin(theta)])
            flat_abs = max(flat_abs, abs(hc.sectional_curvature(g, curv.riemann, e1, v)))
        elapsed = time.perf_counter() - t0
        assert scalar_rel < 1e-6
        assert sect_rel < 1e-6
        assert flat_abs < 1e-8
        assert elapsed < 1.0


def test_local_metricity(model, sample_points):
    with criterion("local metricity: grad g = 0, FD order 2"):
        exact = max(float(np.max(np.abs(
            hc.covariant_metric_derivative_at(model, model, p, method="exact"))))
            for p in sample_points)
        assert exact < 1e-8
        numeric = max(float(np.max(np.abs(
            hc.covariant_metric_derivative_at(model, model, p, method="numeric",
                                              h=1e-5)))) for p in sample_points[:250])
        assert numeric < 1e-5
        p = ChartPoint(0.4, -1.3, 1.7)
        ref = hc.christoffel_at(model, p, method="exact").gamma
        err_h = np.max(np.abs(hc.christoffel_at(model, p, method="numeric",
                                                h=1e-4).gamma - ref))
        err_h2 = np.max(np.abs(hc.christoffel_at(model, p, method="numeric",
                                                 h=5e-5).gamma - ref))
        order = math.log2(err_h / err_h2)
        assert abs(order - 2.0) <= 0.3
        assert 3.5 <= err_h / err_h2 <= 4.5


def test_reducibility(cat, model):
    with criterion("reducibility: invariant v1 line across loops"):
        t0 = time.perf_counter()
        cfg = hc.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        base = ChartPoint(0, 0, 1)
        elems = {gen: hc.holonomy_of_loop(cat, model, LoopClass([gen], base), cfg)
                 for gen in ("gx", "gy", "gz")}
        rect = hc.coordinate_rectangle(base, 1, 2, 0.4)
        elems["contractible"] = hc.holonomy_element(
            hc.transport_matrix(model, rect, cfg), _metric(model, base.coords))
        elapsed = time.perf_counter() - t0
        for name, elem in elems.items():
            assert elem.invariant_line_residual < 1e-7, name
        assert elapsed < 5.0


def test_global_nonmetricity_signature(cat, model):
    with criterion("deck similarity (1/lambda) I, isometric torus loops"):
        cfg = hc.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        base = ChartPoint(0, 0, 1)
        gz = hc.holonomy_of_loop(cat, model, LoopClass(["gz"], base), cfg)
        assert np.max(np.abs(gz.matrix - np.eye(3) / LAM)) < 1e-6
        for gen in ("gx", "gy"):
            elem = hc.holonomy_of_loop(cat, model, LoopClass([gen], base), cfg)
            assert abs(elem.scale - 1.0) < 1e-7
        rect = hc.coordinate_rectangle(base, 1, 2, 0.4)
        contractible = hc.holonomy_element(
            hc.transport_matrix(model, rect, cfg), _metric(model, base.coords))
        assert abs(contractible.scale - 1.0) < 1e-7


def test_incompleteness(model, cfg):
    with criterion("incompleteness: downward escape at t = 1"):
        p0 = ChartPoint(0, 0, 1)
        down = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, -1]),
                                     2.0, cfg)
        assert down.termination.status == hc.BOUNDARY_ESCAPE
        assert abs(down.termination.t_escape - 1.0) <= 1e-6
        up = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, 1]),
                                   100.0, cfg)
        assert up.termination.completed


def test_conformal_preservation(cat, model, sample_points, directions):
    with criterion("conformal class of z^-2 g preserved"):
        gprime = hc.quotient_conformal_metric(model)
        worst_res = worst_mu = 0.0
        for p, d in zip(sample_points, directions):
            mu, res = hc.conformal_deviation_at(model, gprime, p, d)
            worst_res = max(worst_res, res)
            worst_mu = max(worst_mu, abs(mu - (-2.0 * d[2] / p.z)))
        assert worst_res < 1e-8
        assert worst_mu < 1e-8
        invariance = max(hc.pullback_metric_residual(cat, gprime, p,
                                                     expected_factor=1.0)
                         for p in sample_points)
        assert invariance < 1e-10


def test_leaf_structure(model, cfg, sample_points):
    with criterion("leaves: curved half-plane, flat long line, clean split"):
        leaf = hc.halfplane_leaf(model)
        worst = max(abs(hc.gaussian_curvature(leaf.induced_metric,
                                              np.array([0.0, p.z])) * p.z**2 / -2.0
                        - 1.0) for p in sample_points[:200])
        assert worst < 1e-6
        line = hc.leaf_first_check(model, t_max=1e3, cfg=cfg)
        assert line.passed
        mixed = 0.0
        for p in sample_points[:200]:
            gamma = hc.christoffel_at(model, p).gamma
            mask = np.zeros((3, 3, 3), dtype=bool)
            mask[0, :, :] = mask[:, 0, :] = mask[:, :, 0] = True
            mixed = max(mixed, float(np.max(np.abs(gamma[mask]))))
        assert mixed < 1e-10


def test_transport_engine(model):
    with criterion("transport engine: energy, isometry, loop curvature"):
        t0 = time.perf_counter()
        cfg = hc.IntegratorConfig()
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.3, 0.5, -0.2]),
                                     5.0, cfg)
        assert hc.geodesic_energy_drift(model, traj) < 1e-8

        tight = hc.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(100):
            n = rng.integers(2, 4)
            pts = [ChartPoint(rng.uniform(-3, 3), rng.uniform(-3, 3),
                              rng.uniform(0.5, 5.0)) for _ in range(n + 1)]
            curve = CurveSpec.from_points(pts)
            p = hc.transport_matrix(model, curve, tight)
            g0 = _metric(model, curve.start.coords)
            g1 = _metric(model, curve.end.coords)
            worst = max(worst, float(np.max(np.abs(p.T @ g1 @ p - g0))))
        assert worst < 1e-7

        probe = ChartPoint(0.3, -0.7, 1.3)
        target = -hc.riemann_at(model, probe).riemann[:, :, 1, 2]
        d1 = np.max(np.abs(hc.curvature_via_loop(model, probe, 1, 2, 0.02, cfg)
                           - target))
        d2 = np.max(np.abs(hc.curvature_via_loop(model, probe, 1, 2, 0.01, cfg)
                           - target))
        assert 3.5 <= d1 / d2 <= 4.5
        assert time.perf_counter() - t0 < 5.0


def test_end_to_end(capsys):
    with criterion("end-to-end: default CLI run passes, z^3 hook fails C2"):
        t0 = time.perf_counter()
        code = main(["--report", "json"])
        elapsed = time.perf_counter() - t0
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["all_passed"] is True
        assert len(doc["checks"]) == 12
        assert all(c["status"] == "pass" for c in doc["checks"])
        assert elapsed < 30.0

        mutated = hc.run_checklist(hc.ChecklistConfig(metric_exponent=3.0,
                                                      samples=200))
        by_id = {c.id: c for c in mutated.checks}
        assert by_id["C2"].status == "fail"
        assert by_id["C2"].residual > 0.0
        assert main(["--samples", "200", "--metric-exponent", "3"]) == 1
        capsys.readouterr()
