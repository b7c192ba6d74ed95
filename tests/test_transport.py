"""Geodesic integrator and parallel transport against closed-form solutions.

Vertical coordinate lines are exact geodesics of the model metric (no
Christoffel symbol has two lower z-indices), so the downward ray from
z = 1 hits the floor at affine parameter 1 - Z_FLOOR.  Transport of the
dy frame vector along a z-line scales it by (z_start / z_end)^2.
"""

import math

import numpy as np
import pytest

import holocheck as hc
from holocheck import ChartDomainError, ChartPoint, CurveSpec, TangentVector
from holocheck import checklist, tensor_core, transport
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
        assert c.max_steps == 1_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            hc.IntegratorConfig(rel_tol=1e-15)
        with pytest.raises(ValueError):
            hc.IntegratorConfig(abs_tol=0.0)
        with pytest.raises(ValueError):
            hc.IntegratorConfig(max_steps=0)
        for bad in ("rel_tol", "abs_tol"):
            with pytest.raises(ValueError):
                hc.IntegratorConfig(**{bad: float("nan")})


class TestGeodesics:
    def test_downward_ray_escapes_at_initial_height(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, -1]), 2.0, cfg)
        term = traj.termination
        assert term.status == hc.BOUNDARY_ESCAPE
        assert abs(term.t_escape - (1.0 - hc.Z_FLOOR)) < 2e-9
        assert abs(term.t_escape - 1.0) <= 1e-6
        assert traj.final.point.z < 10 * hc.Z_FLOOR

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
        assert abs(traj.termination.t_escape - (1.0 - hc.Z_FLOOR)) < 2e-9
        assert calls[0] <= 270

    def test_t_max_must_be_finite_and_non_negative(self, model, cfg):
        for bad in (float("nan"), -1.0, float("inf")):
            with pytest.raises(ValueError, match="t_max"):
                hc.integrate_geodesic_coords(model, [0, 0, 1], [0, 0, -1], bad, cfg)
        p0 = ChartPoint(0, 0, 1)
        with pytest.raises(ValueError, match="t_max"):
            hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, -1]), -1.0, cfg)
        ts, xs, _, term = hc.integrate_geodesic_coords(model, [0, 0, 1], [0, 0, -1],
                                                       0.0, cfg)
        assert term.completed
        assert list(ts) == [0.0] and list(xs[0]) == [0.0, 0.0, 1.0]

    def test_two_dimensional_geodesic(self, cfg):
        m2 = hc.MetricField(lambda c: np.diag([c[1] ** 4, 1.0]), dim=2)
        ts, xs, vs, term = hc.integrate_geodesic_coords(m2, [0.0, 1.0], [0.0, -1.0],
                                                        2.0, cfg)
        assert term.status == hc.BOUNDARY_ESCAPE
        assert abs(term.t_escape - 1.0) <= 1e-6


class TestCurveSpec:
    def test_gap_rejected(self):
        a = hc.StraightSegment(ChartPoint(0, 0, 1), ChartPoint(1, 0, 1))
        b = hc.StraightSegment(ChartPoint(1, 1e-6, 1), ChartPoint(2, 0, 1))
        with pytest.raises(hc.CurveError):
            CurveSpec([a, b])

    def test_below_floor_rejected(self):
        with pytest.raises(ChartDomainError):
            CurveSpec.from_points([ChartPoint(0, 0, 1), ChartPoint(0, 0, 5e-7)])
        # every segment's endpoints count, not only the curve's ends
        with pytest.raises(ChartDomainError):
            CurveSpec.from_points([ChartPoint(0, 0, 1), ChartPoint(1, 0, hc.Z_FLOOR),
                                   ChartPoint(2, 0, 1)])

    def test_reversed_swaps_endpoints(self):
        c = CurveSpec.from_points([ChartPoint(0, 0, 1), ChartPoint(1, 1, 2),
                                   ChartPoint(0, 2, 3)])
        r = c.reversed()
        assert r.start == c.end and r.end == c.start


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


def sheared_metric(exponent=4.0, eps=0.01):
    """The model metric plus a z-dependent xt-yt term g_xy = eps z.

    Positive definite for z > eps.  It couples v1 to v2, so v1 is no longer
    parallel, and C5 has a vector that actually moves.
    """
    base = tensor_core.warped_metric(exponent)

    def components(c):
        g = base.components(c)
        g[..., 0, 1] = g[..., 1, 0] = eps * c[..., 2]
        return g

    def partials(c):
        d = base.exact_partials(c)
        d[..., 2, 0, 1] = d[..., 2, 1, 0] = eps
        return d

    return hc.MetricField(components, partials, label=f"sheared eps={eps:g}", dim=3)


class TestManyCurves:
    """Round k carries segment k of every curve as the lanes of one run."""

    def test_matches_one_curve_at_a_time(self, model):
        # 1-, 2- and 3-segment curves, so lanes drop out between rounds
        rng = np.random.default_rng(5)
        curves = [CurveSpec.from_points([
            ChartPoint(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 5.0))
            for _ in range(n + 1)]) for n in (1, 3, 2, 1, 3, 2, 2, 1)]
        for v in (*np.eye(3), np.array([0.3, -1.2, 0.8])):
            w0 = np.broadcast_to(v[:, None], (len(curves), 3, 1))
            many, _ = transport._transport_curves(model, curves, w0, TIGHT)
            for curve, w in zip(curves, many[..., 0]):
                one = hc.parallel_transport(model, curve,
                                            TangentVector(curve.start, v), TIGHT).comp
                assert np.max(np.abs(w - one)) <= 1e-9 * np.max(np.abs(one))
                g0 = _metric(model, curve.start.coords)
                g1 = _metric(model, curve.end.coords)
                assert abs(w @ g1 @ w - v @ g0 @ v) <= 1e-7 * (v @ g0 @ v)

    def test_per_curve_start_blocks(self, model):
        curves = acceptance_style_curves(3, seed=2)
        w0 = np.random.default_rng(9).normal(size=(3, 3, 2))
        many, _ = transport._transport_curves(model, curves, w0, TIGHT)
        for curve, block, end in zip(curves, w0, many):
            p = hc.transport_matrix(model, curve, TIGHT)
            assert np.max(np.abs(end - p @ block)) <= 1e-9 * np.max(np.abs(p @ block))


class TestParallelField:
    """C5 carries e1 along its 20 polylines as lanes across curves."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_two_integrations(self, cat, monkeypatch, seed):
        ctx = checklist._Context(hc.ChecklistConfig(samples=10, seed=seed), cat)
        runs = count_calls(monkeypatch, "_integrate")
        steps = count_calls(monkeypatch, "_rk_step")
        assert checklist._check_parallel_field(ctx).passed
        assert runs[0] == 2  # one per segment index; 40 curve by curve
        assert steps[0] <= 20

    def test_sheared_metric_fails(self, cat, monkeypatch):
        monkeypatch.setattr(checklist, "warped_metric", sheared_metric)
        ctx = checklist._Context(hc.ChecklistConfig(samples=10), cat)
        check = checklist._check_parallel_field(ctx)
        assert not check.passed
        assert check.residual == pytest.approx(0.0207445690, rel=1e-6)


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
        assert final[3] < 10 * hc.Z_FLOOR
        assert abs(final[0] - 1.0) <= 1e-6


# The textbook step, the reference for the buffered one: one slope call per
# stage, the linear field's matrices gathered per stage and negated after
# the contraction, np.concatenate in the geodesic right-hand side, and
# np.mean / np.max norms.  The step in use must give its bits.
_C, _A, _B5, _E = transport._C, transport._A, transport._B5, transport._E


def textbook_matrices(field, s):
    c = field.c0 + s[:, None, None] * field.delta
    if np.any(c[..., 2] <= 0.0):
        return np.full(c.shape + (3,), np.nan)
    return -np.einsum("...kij,...i->...kj", tensor_core._christoffel(field.m, c),
                      field.delta)


def textbook_geodesic_rhs(m):
    dim, fi = m.dim, tensor_core.fiber_index(m)

    def rhs(t, y):
        x = y[:dim]
        v = y[dim:]
        if x[fi] <= 0.0:
            return np.full(2 * dim, np.nan)
        acc = -np.einsum("kij,i,j->k", tensor_core._christoffel(m, x), v, v)
        return np.concatenate([v, acc])

    return rhs


def textbook_step(f, t, y, h, k1):
    if isinstance(f, transport._LinearField):
        a = textbook_matrices(f, t + _C[1:6] * h)[[0, 0, 1, 2, 3, 4, 4]]

        def slope(s, y):
            return (a[s] @ y.reshape(f.shape)).ravel()
    else:
        def slope(s, y):
            return f(t + _C[s] * h, y)
    k = np.empty((7, y.size))
    k[0] = k1
    for s in range(1, 6):
        k[s] = slope(s, y + h * (_A[s, :s] @ k[:s]))
    y_new = y + h * (_B5[:6] @ k[:6])
    k[6] = slope(6, y_new)
    err = h * (_E @ k)
    return y_new, err, k[6]


def textbook_norm(err, y0, y1, cfg, lanes):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    if lanes == 1:
        return float(np.sqrt(np.mean((err / scale) ** 2)))
    r = (err / scale).reshape(lanes, -1)
    return float(np.sqrt(np.max(np.add.reduce(r * r, axis=1)) / r.shape[1]))


class TestStepBits:
    """The buffered step gives the textbook step's bits, stage for stage."""

    @staticmethod
    def assert_same_step(f, t, y, h, k1, lanes):
        got = transport._rk_step(f, t, y, h, k1)
        want = textbook_step(f, t, y, h, k1)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        if not (np.isfinite(got[0]).all() and np.isfinite(got[1]).all()):
            return  # a stage below the floor: the integrator rejects the step
        for cfg in (hc.IntegratorConfig(), TIGHT):
            norm = transport._error_norm(got[1], np.abs(y), np.abs(got[0]), cfg, lanes)
            assert norm == textbook_norm(want[1], y, want[0], cfg, lanes)

    @pytest.mark.parametrize("lanes", (1, 2, 3))
    @pytest.mark.parametrize("width", (1, 3))
    def test_linear_field(self, model, lanes, width):
        rng = np.random.default_rng(10 * lanes + width)
        for curve in acceptance_style_curves(4, seed=lanes):
            segments = (curve.segments * 2)[:lanes]
            field = transport._LinearField(model, segments, width)
            for _ in range(5):
                y = rng.normal(size=lanes * 3 * width)
                t, h = rng.uniform(0.0, 0.9), 10.0 ** rng.uniform(-4.0, -1.0)
                k1 = field(t, y)
                assert np.array_equal(
                    k1, (textbook_matrices(field, np.array([t]))[0]
                         @ y.reshape(field.shape)).ravel())
                self.assert_same_step(field, t, y, h, k1, lanes)

    @pytest.mark.parametrize("leaf", (False, True))
    def test_geodesic_rhs(self, model, leaf):
        m = hc.induced_halfplane_metric(model) if leaf else model
        rhs = transport._geodesic_rhs(m, tensor_core.fiber_index(m))
        textbook = textbook_geodesic_rhs(m)
        rng = np.random.default_rng(4 + leaf)
        for _ in range(40):
            x = rng.uniform(-3.0, 3.0, m.dim)
            x[-1] = rng.uniform(0.3, 5.0)
            y = np.concatenate([x, rng.normal(size=m.dim)])
            k1 = textbook(0.0, y)
            assert np.array_equal(rhs(0.0, y), k1)
            self.assert_same_step(rhs, rng.uniform(0.0, 2.0), y,
                                  10.0 ** rng.uniform(-3.0, -0.5), k1, 1)
            # the last stage is the slope at the new state, which bisection
            # reuses in place of a fresh call
            y_new, _, k_last = transport._rk_step(rhs, 0.0, y, 1e-3, k1)
            assert np.array_equal(k_last, rhs(1e-3, y_new))


class TestIntegrationStats:
    """Each integration counts its steps; the counts pin the step control."""

    @staticmethod
    def record(monkeypatch):
        runs = []
        original = transport._integrate

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            runs.append(out[3])
            return out

        monkeypatch.setattr(transport, "_integrate", recorded)
        return runs

    def test_downward_geodesic(self, model, cfg, monkeypatch):
        # C8's escape: 16 steps rejected at the floor, 11 bisection steps
        runs = self.record(monkeypatch)
        p0 = ChartPoint(0.0, 0.0, 1.0)
        hc.integrate_geodesic(model, p0, TangentVector(p0, [0.0, 0.0, -1.0]), 2.0, cfg)
        assert runs == [transport._IntegrationStats(attempted=35, accepted=19,
                                                    rejected=16, bisection=11)]

    def test_three_segment_polyline(self, model, cfg, monkeypatch):
        runs = self.record(monkeypatch)
        curve = acceptance_style_curves(3, seed=0)[2]
        assert len(curve.segments) == 3
        hc.transport_matrix(model, curve, cfg)
        assert runs == [transport._IntegrationStats(attempted=370, accepted=365,
                                                    rejected=5, bisection=0)]

    def test_deck_loop_at_trace_1001(self, model, cfg, monkeypatch):
        runs = self.record(monkeypatch)
        a = hc.validate_toral_matrix([[1000, 999], [1, 1]])
        hc.holonomy_of_loop(a, model, hc.LoopClass(["gz"], ChartPoint(0, 0, 1)), cfg)
        assert runs == [transport._IntegrationStats(attempted=222, accepted=220,
                                                    rejected=2, bisection=0)]
