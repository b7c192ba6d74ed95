"""Geodesic integrator and parallel transport against closed-form solutions.

Vertical coordinate lines are exact geodesics of the model metric (no
Christoffel symbol has two lower z-indices), so the downward ray from
z = 1 hits the floor at affine parameter 1 - z_floor.  Transport of the
dy frame vector along a z-line scales it by (z_start / z_end)^2.
"""

import math

import numpy as np
import pytest

import holocheck as hc
from holocheck import ChartDomainError, ChartPoint, CurveSpec, TangentVector
from holocheck import transport
from holocheck.tensor_core import _metric

LAM = (3.0 + math.sqrt(5.0)) / 2.0
TIGHT = hc.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)


def count_calls(monkeypatch, name):
    """Count the calls made to ``transport.<name>``; returns a one-item list."""
    calls = [0]
    original = getattr(transport, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(transport, name, counted)
    return calls


def acceptance_style_curves(count, seed):
    """Polylines of 2-3 segments drawn as the acceptance suite draws them."""
    rng = np.random.default_rng(seed)
    curves = []
    for _ in range(count):
        n = rng.integers(2, 4)
        curves.append(CurveSpec.from_points([
            ChartPoint(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 5.0))
            for _ in range(n + 1)]))
    return curves


class TestIntegratorConfig:
    def test_defaults(self):
        c = hc.IntegratorConfig()
        assert c.rel_tol == 1e-10 and c.abs_tol == 1e-12
        assert c.max_steps == 1_000_000 and c.z_floor == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            hc.IntegratorConfig(rel_tol=1e-15)
        with pytest.raises(ValueError):
            hc.IntegratorConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            hc.IntegratorConfig(max_steps=0)


class TestGeodesics:
    def test_downward_ray_escapes_at_initial_height(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, -1]), 2.0, cfg)
        term = traj.termination
        assert term.status == hc.BOUNDARY_ESCAPE
        assert abs(term.t_escape - (1.0 - cfg.z_floor)) < 2e-9
        assert abs(term.t_escape - 1.0) <= 1e-6
        assert traj.final.point.z < 10 * cfg.z_floor

    def test_upward_ray_completes(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, 1]), 100.0, cfg)
        assert traj.termination.completed
        assert abs(traj.final.point.z - 101.0) < 1e-7

    def test_flat_direction_line(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [1, 0, 0]), 10.0, cfg)
        assert traj.termination.completed
        end = traj.final.point
        assert abs(end.xt - 10.0) < 1e-9
        assert abs(end.yt) < 1e-12 and abs(end.z - 1.0) < 1e-12

    def test_euclidean_straight_line(self, euclid, cfg):
        p0 = ChartPoint(0, 0, 1)
        v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        traj = hc.integrate_geodesic(euclid, p0, TangentVector(p0, v), 1.0, cfg)
        assert traj.termination.completed
        np.testing.assert_allclose(traj.final.point.coords, p0.coords + v, atol=1e-10)

    def test_times_strictly_increase(self, model, cfg):
        p0 = ChartPoint(0, 0, 2)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.2, 0.4, -0.5]),
                                     2.0, cfg)
        ts = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_energy_conservation(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.3, 0.5, -0.2]),
                                     5.0, cfg)
        assert traj.termination.completed
        assert hc.geodesic_energy_drift(model, traj) < 1e-8

    def test_step_limit_reported(self, model):
        tight = hc.IntegratorConfig(max_steps=3)
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.3, 0.5, -0.2]),
                                     5.0, tight)
        assert traj.termination.status == hc.STEP_LIMIT

    def test_preconditions(self, model, cfg):
        with pytest.raises(ChartDomainError):
            hc.integrate_geodesic_coords(model, [0, 0, 1e-7], [0, 0, 1], 1.0, cfg)
        p0 = ChartPoint(0, 0, 1)
        with pytest.raises(ValueError):
            hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, 0]), 1.0, cfg)

    def test_no_step_growth_after_rejection(self, model, cfg, monkeypatch):
        # Stage points below the floor reject steps; regrowing 10x right after
        # each rejection used to cost 337 Christoffel evaluations here.
        calls = count_calls(monkeypatch, "_christoffel")
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, -1]), 2.0, cfg)
        assert traj.termination.escaped
        assert abs(traj.termination.t_escape - (1.0 - cfg.z_floor)) < 2e-9
        assert calls[0] <= 270

    def test_two_dimensional_geodesic(self, cfg):
        m2 = hc.MetricField(lambda c: np.diag([c[1] ** 4, 1.0]), dim=2)
        ts, xs, vs, term = hc.integrate_geodesic_coords(m2, [0.0, 1.0], [0.0, -1.0],
                                                        2.0, cfg)
        assert term.status == hc.BOUNDARY_ESCAPE
        assert abs(term.t_escape - 1.0) <= 1e-6


class TestCompletenessProbe:
    def test_model_seeds(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        seeds = [(p0, TangentVector(p0, [0, 0, -1])),
                 (p0, TangentVector(p0, [0, 0, 1])),
                 (p0, TangentVector(p0, [1, 0, 0]))]
        results = hc.completeness_probe(model, seeds, 100.0, cfg)
        assert results[0][1].status == hc.BOUNDARY_ESCAPE
        assert abs(results[0][1].t_escape - 1.0) <= 1e-6
        assert results[1][1].completed
        assert results[2][1].completed

    def test_euclidean_seeds_complete(self, euclid, cfg):
        p0 = ChartPoint(0, 0, 1)
        seeds = [(p0, TangentVector(p0, [1, 0, 0])),
                 (p0, TangentVector(p0, [0, 1, 1])),
                 (ChartPoint(2, 2, 5), TangentVector(ChartPoint(2, 2, 5), [1, -1, 0]))]
        for _, term in hc.completeness_probe(euclid, seeds, 50.0, cfg):
            assert term.completed


class TestCurveSpec:
    def test_gap_rejected(self):
        a = hc.StraightSegment(ChartPoint(0, 0, 1), ChartPoint(1, 0, 1))
        b = hc.StraightSegment(ChartPoint(1, 1e-6, 1), ChartPoint(2, 0, 1))
        with pytest.raises(hc.CurveError):
            CurveSpec([a, b])

    def test_below_floor_rejected(self):
        with pytest.raises(ChartDomainError):
            CurveSpec.from_points([ChartPoint(0, 0, 1), ChartPoint(0, 0, 5e-7)])

    def test_reversed_swaps_endpoints(self):
        c = CurveSpec.from_points([ChartPoint(0, 0, 1), ChartPoint(1, 1, 2),
                                   ChartPoint(0, 2, 3)])
        r = c.reversed()
        assert r.start == c.end and r.end == c.start

    def test_coordinate_line_segment(self):
        seg = hc.CoordinateLine(ChartPoint(0, 0, 1), 2, 1.5)
        np.testing.assert_allclose(seg.point(1.0), [0, 0, 2.5])
        np.testing.assert_allclose(seg.velocity(0.3), [0, 0, 1.5])
        rev = seg.reversed()
        np.testing.assert_allclose(rev.point(1.0), [0, 0, 1.0])

    def test_parametric_matches_straight(self, model, cfg):
        p0, p1 = ChartPoint(0, 0, 1), ChartPoint(0.5, -0.5, 2.0)
        delta = p1.coords - p0.coords

        def path(s):
            return ChartPoint.from_coords(p0.coords + s * delta)

        para = CurveSpec([hc.ParametricSegment(path, lambda s: delta)])
        straight = CurveSpec([hc.StraightSegment(p0, p1)])
        np.testing.assert_allclose(hc.transport_matrix(model, para, cfg),
                                   hc.transport_matrix(model, straight, cfg),
                                   atol=1e-10)


class TestCurvedSegment:
    def test_circle_holonomy_is_enclosed_curvature(self, model, cfg):
        # Counterclockwise circle of coordinate radius r around (yt, z) = (0, 1):
        # K = -2/z^2 and dA = z^2 dyt dz, so the enclosed curvature is -2 pi r^2.
        r = 0.3

        def path(s):
            th = 2.0 * math.pi * s
            return ChartPoint(0.5, r * math.cos(th), 1.0 + r * math.sin(th))

        def tangent(s):
            th = 2.0 * math.pi * s
            return 2.0 * math.pi * r * np.array([0.0, -math.sin(th), math.cos(th)])

        curve = CurveSpec([hc.ParametricSegment(path, tangent)])
        p = hc.transport_matrix(model, curve, cfg)
        d = np.diag([1.0, curve.start.z ** 2, 1.0])  # orthonormal frame at the start
        q = d @ p @ np.linalg.inv(d)
        angle = -2.0 * math.pi * r * r
        rotation = np.array([[math.cos(angle), -math.sin(angle)],
                             [math.sin(angle), math.cos(angle)]])
        assert np.max(np.abs(q[1:, 1:] - rotation)) < 1e-8
        assert np.max(np.abs(q[:, 0] - [1.0, 0.0, 0.0])) < 1e-8
        assert np.max(np.abs(q[0, 1:])) < 1e-8


class TestLanes:
    """transport_matrix runs all segments of a curve as lanes of one integration."""

    def test_matches_segment_by_segment_frames(self, model):
        for curve in acceptance_style_curves(10, seed=7):
            lanes = hc.transport_matrix(model, curve, TIGHT)
            serial = hc.transport_frame_trace(model, curve, TIGHT)[-1][2]
            assert np.max(np.abs(lanes - serial)) <= 1e-9 * np.max(np.abs(serial))

    def test_unequal_segment_costs(self, model):
        # The third acceptance curve: its middle segment needs about a tenth
        # of the steps of the others, yet rides along with them.
        curve = acceptance_style_curves(3, seed=0)[2]
        trace = hc.transport_frame_trace(model, curve, TIGHT)
        steps = np.bincount([int(t) for t, _, _ in trace if t % 1.0 != 0.0])
        assert max(steps) > 8 * min(steps)
        p = hc.transport_matrix(model, curve, TIGHT)
        g0 = _metric(model, curve.start.coords)
        g1 = _metric(model, curve.end.coords)
        assert np.max(np.abs(p.T @ g1 @ p - g0)) < 1e-7

    def test_error_norm_is_worst_lane(self):
        cfg = hc.IntegratorConfig(abs_tol=1.0)
        y = np.zeros(6)  # error scale exactly 1
        err = np.array([3.0, 4.0, 0.0, 0.0, 1.0, 1.0])
        assert transport._error_norm(err, y, y, cfg, 3) == pytest.approx(math.sqrt(12.5))
        assert transport._error_norm(err, y, y, cfg, 1) == pytest.approx(math.sqrt(4.5))

    def test_initial_step_is_smallest_lane_step(self, cfg):
        y0 = np.ones(2)

        def start(rates):
            r = rates.repeat(2)  # y' = r y, lane by lane
            return transport._initial_step(lambda t, y: r * y, np.tile(y0, len(rates)),
                                           r, 1.0, cfg, len(rates))

        slow, fast = start(np.array([-1.0])), start(np.array([-40.0]))
        assert fast < 0.5 * slow
        assert start(np.array([-1.0, -40.0])) == pytest.approx(fast, rel=1e-12)

    def test_one_christoffel_batch_per_step(self, model, monkeypatch):
        christoffel = count_calls(monkeypatch, "_christoffel")
        steps = count_calls(monkeypatch, "_rk_step")
        hc.transport_matrix(model, acceptance_style_curves(1, seed=7)[0], TIGHT)
        assert steps[0] > 0
        assert christoffel[0] <= steps[0] + 2  # two for the initial-step probe


class TestParallelTransport:
    def test_z_line_contracts_dy(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        curve = CurveSpec.from_points([p0, ChartPoint(0, 0, LAM)])
        w = hc.parallel_transport(model, curve, TangentVector(p0, [0, 1, 0]), cfg)
        np.testing.assert_allclose(w.comp, [0.0, 1.0 / LAM**2, 0.0], atol=1e-9)
        assert abs(w.comp[1] - 0.1458980) < 1e-7

    def test_dx_is_parallel(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        curve = CurveSpec.from_points([p0, ChartPoint(0.7, -0.4, 2.2),
                                       ChartPoint(-1.0, 0.3, 0.9)])
        w = hc.parallel_transport(model, curve, TangentVector(p0, [1, 0, 0]), cfg)
        assert np.max(np.abs(w.comp - np.array([1.0, 0.0, 0.0]))) < 1e-10

    def test_euclidean_transport_trivial(self, euclid, cfg):
        p0 = ChartPoint(0, 0, 1)
        curve = CurveSpec.from_points([p0, ChartPoint(2, 3, 4), ChartPoint(-1, 1, 2)])
        w = hc.parallel_transport(euclid, curve, TangentVector(p0, [0.3, -0.2, 0.9]), cfg)
        np.testing.assert_allclose(w.comp, [0.3, -0.2, 0.9], atol=1e-12)


class TestTransportMatrix:
    def test_z_line_matrix(self, model, cfg):
        curve = CurveSpec.from_points([ChartPoint(0, 0, 1), ChartPoint(0, 0, LAM)])
        p = hc.transport_matrix(model, curve, cfg)
        np.testing.assert_allclose(p, np.diag([1.0, 1.0 / LAM**2, 1.0]), atol=1e-9)

    def test_zero_length_identity(self, model, cfg):
        p0 = ChartPoint(0.3, 0.3, 1.5)
        curve = CurveSpec([hc.StraightSegment(p0, p0)])
        np.testing.assert_allclose(hc.transport_matrix(model, curve, cfg), np.eye(3),
                                   atol=1e-14)

    def test_reversal_inverts(self, model, cfg):
        rng = np.random.default_rng(3)
        pts = [ChartPoint(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5),
                          rng.uniform(0.5, 2.5)) for _ in range(3)]
        curve = CurveSpec.from_points(pts)
        p = hc.transport_matrix(model, curve, cfg)
        p_rev = hc.transport_matrix(model, curve.reversed(), cfg)
        assert np.max(np.abs(p_rev - np.linalg.inv(p))) < 1e-8

    def test_composition(self, model, cfg):
        rng = np.random.default_rng(11)
        pts = [ChartPoint(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.6, 4))
               for _ in range(3)]
        whole = hc.transport_matrix(model, CurveSpec.from_points(pts), cfg)
        first = hc.transport_matrix(model, CurveSpec.from_points(pts[:2]), cfg)
        second = hc.transport_matrix(model, CurveSpec.from_points(pts[1:]), cfg)
        assert np.max(np.abs(second @ first - whole)) < 1e-8

    def test_isometry_between_tangent_spaces(self, model, cfg):
        rng = np.random.default_rng(17)
        for _ in range(5):
            pts = [ChartPoint(rng.uniform(-2, 2), rng.uniform(-2, 2),
                              rng.uniform(0.5, 3)) for _ in range(3)]
            curve = CurveSpec.from_points(pts)
            p = hc.transport_matrix(model, curve, cfg)
            g0 = _metric(model, curve.start.coords)
            g1 = _metric(model, curve.end.coords)
            assert np.max(np.abs(p.T @ g1 @ p - g0)) < 1e-7

    def test_leaves_chart_rejected(self, model):
        tight = hc.IntegratorConfig(z_floor=0.5)
        curve = CurveSpec.from_points([ChartPoint(0, 0, 1), ChartPoint(0, 0, 0.4)])
        with pytest.raises(ChartDomainError):
            hc.transport_matrix(model, curve, tight)


class TestCurvatureViaLoop:
    def test_matches_riemann(self, model, cfg):
        p = ChartPoint(0, 0, 1)
        target = -hc.riemann_at(model, p).riemann[:, :, 1, 2]
        loop = hc.curvature_via_loop(model, p, 1, 2, 1e-3, cfg)
        assert np.max(np.abs(loop - target)) < 1e-3
        # closed form: entries (1,2) and (2,1) are +2/z^2 and -2z^2 at z=1
        assert abs(loop[1, 2] - 2.0) < 1e-3
        assert abs(loop[2, 1] + 2.0) < 1e-3

    def test_flat_plane_entries_vanish(self, model, cfg):
        loop = hc.curvature_via_loop(model, ChartPoint(0, 0, 1), 0, 1, 1e-2, cfg)
        assert np.max(np.abs(loop)) < 1e-6

    def test_euclidean_zero(self, euclid, cfg):
        loop = hc.curvature_via_loop(euclid, ChartPoint(0, 0, 1), 0, 2, 1e-2, cfg)
        assert np.max(np.abs(loop)) < 1e-8

    def test_second_order_convergence(self, model, cfg):
        p = ChartPoint(0.3, -0.7, 1.3)
        target = -hc.riemann_at(model, p).riemann[:, :, 1, 2]
        d1 = np.max(np.abs(hc.curvature_via_loop(model, p, 1, 2, 0.02, cfg) - target))
        d2 = np.max(np.abs(hc.curvature_via_loop(model, p, 1, 2, 0.01, cfg) - target))
        assert 3.5 < d1 / d2 < 4.5


class TestTrajectoryCsv:
    def test_header_and_rows(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, -1]), 2.0, cfg)
        lines = hc.trajectory_to_csv(traj).splitlines()
        assert lines[0] == "t,xt,yt,z,v1,v2,v3"
        assert len(lines) - 1 == len(traj.samples) >= 2
        final = [float(x) for x in lines[-1].split(",")]
        assert final[3] < 10 * cfg.z_floor
        assert abs(final[0] - 1.0) <= 1e-6
