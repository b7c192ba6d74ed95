"""Geodesic integrator and parallel transport against closed-form solutions.

Vertical coordinate lines are exact geodesics of the model metric (no
Christoffel symbol has two lower z-indices), so the downward ray from
z = 1 hits the floor at affine parameter 1 - Z_FLOOR.  Transport of the
dy frame vector along a z-line scales it by (z_start / z_end)^2.
"""

import math
import re

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


def lane_arrays(segments):
    """The (lanes, 3) start and delta arrays of unsplit straight segments."""
    return (np.array([seg._c0 for seg in segments]),
            np.array([seg._delta for seg in segments]))


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def unsplit_transport(model, segments, cfg, record=False):
    """Each segment transported from the identity as one lane of one run."""
    identities = np.broadcast_to(np.eye(3), (len(segments), 3, 3))
    return transport._transport_lanes(model, *lane_arrays(segments), identities, cfg,
                                      record)


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
        assert traj.samples[-1].point.z < 10 * hc.Z_FLOOR

    def test_upward_ray_completes(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0, 1]), 100.0, cfg)
        assert traj.termination.completed
        assert abs(traj.samples[-1].point.z - 101.0) < 1e-7

    def test_flat_direction_line(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [1, 0, 0]), 10.0, cfg)
        assert traj.termination.completed
        end = traj.samples[-1].point
        assert abs(end.xt - 10.0) < 1e-9
        assert abs(end.yt) < 1e-12 and abs(end.z - 1.0) < 1e-12

    def test_euclidean_straight_line(self, euclid, cfg):
        p0 = ChartPoint(0, 0, 1)
        v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        traj = hc.integrate_geodesic(euclid, p0, TangentVector(p0, v), 1.0, cfg)
        assert traj.termination.completed
        np.testing.assert_allclose(traj.samples[-1].point.coords, p0.coords + v, atol=1e-10)

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
        # A geodesic that turns at z = 0.54 rejects steps on error.  A step
        # accepted right after a rejection is not followed by a larger one.
        attempts = []
        original = transport._rk_step

        def recorded(f, t, y, h, k1, stats):
            attempts.append((t, h))
            return original(f, t, y, h, k1, stats)

        monkeypatch.setattr(transport, "_rk_step", recorded)
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0.3, -1]), 5.0, cfg)
        assert traj.termination.completed
        # a retry starts where the rejected step did; an accepted step moves t
        retried = [i for i in range(len(attempts) - 2) if attempts[i + 1][0] == attempts[i][0]
                   and attempts[i + 2][0] > attempts[i + 1][0]]
        assert len(retried) >= 5
        assert all(attempts[i + 2][1] <= attempts[i + 1][1] for i in retried)

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


class TestLanes:
    """transport_matrix runs the pieces of all segments as lanes of one integration."""

    def test_matches_segment_by_segment_frames(self, model):
        # the product of the pieces against the product of unsplit segments
        for curve in acceptance_style_curves(10, seed=7):
            p = hc.transport_matrix(model, curve, TIGHT)
            unsplit = np.eye(3)
            for p_seg in unsplit_transport(model, curve.segments, TIGHT)[-1][1]:
                unsplit = p_seg @ unsplit
            assert np.max(np.abs(p - unsplit)) <= 1e-9 * np.max(np.abs(unsplit))

    def test_unequal_segment_costs(self, model, monkeypatch):
        # The third acceptance curve: its middle segment alone needs about a
        # seventh of the steps of the others.  Cut into at least eight pieces
        # each, and more where a piece turns fast, all pieces share one step,
        # in fewer steps than the costliest segment alone, and every piece
        # adds the same rows to the frame trace.
        curve = acceptance_style_curves(3, seed=0)[2]
        alone = [len(unsplit_transport(model, [seg], TIGHT, record=True)) - 1
                 for seg in curve.segments]
        assert max(alone) > 6 * min(alone)
        steps = count_calls(monkeypatch, "_rk_step")
        p = hc.transport_matrix(model, curve, TIGHT)
        assert steps[0] < max(alone) / 2
        g0 = _metric(model, curve.start.coords)
        g1 = _metric(model, curve.end.coords)
        assert np.max(np.abs(p.T @ g1 @ p - g0)) < 1e-7
        trace = hc.transport_frame_trace(model, curve, TIGHT)
        ts = np.array([t for t, _, _ in trace])
        assert ts[0] == 0.0 and np.all(np.diff(ts) > 0.0) and ts[-1] == 3.0
        rows = np.bincount(np.ceil(ts[1:]).astype(int) - 1)  # segment k: (k, k + 1]
        pieces = np.bincount(transport._pieces(model, curve)[2])
        assert pieces.min() >= 8 and len(set(pieces)) > 1
        per_piece, rest = np.divmod(rows, pieces)
        assert not rest.any() and len(set(per_piece)) == 1
        assert np.array_equal(trace[-1][2], p)

    def test_trace_pieces_end_where_the_next_starts(self, model, cfg):
        # a piece's last row is the next piece's start, t and coordinates,
        # and the final row the curve's end, not a rounded start + delta;
        # the second curve's z pieces turn up to 2.25 rad and are split
        lam = hc.eigen_basis(hc.validate_toral_matrix([[1000, 999], [1, 1]])).lam
        curves = [[(0, 0, 1), (0, 0, lam), (0.5, 0.5, 3.0)], [(0, 0, 1), (0.5, 3.5, 3.0)]]
        for nodes in curves:
            curve = CurveSpec.from_points([ChartPoint(*p) for p in nodes])
            c0, _, k, a, _ = transport._pieces(model, curve)
            rows = {(t, tuple(c)) for t, c, _ in hc.transport_frame_trace(model, curve, cfg)}
            assert all((k[j] + a[j], tuple(c0[j])) in rows for j in range(len(c0)))
            assert (float(len(nodes) - 1), nodes[-1]) in rows
        assert len(c0) > len(z_rule_pieces(curve)[0])

    def test_error_norm_is_worst_lane(self):
        # Hairer's norm h |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2)) at scale 1;
        # with only a first-stage slope, e5 and e3 are _E5[0] and _E3[0]
        # times it, so a lane's norm depends on its sum of squared slopes
        cfg = hc.IntegratorConfig(abs_tol=1.0)
        k = np.zeros((13, 6))
        k[0] = [3.0, 4.0, 0.0, 0.0, 1.0, 1.0]
        y = np.zeros(6)

        def norm(squares, n):
            n5, n3 = transport._E5[0] ** 2 * squares, transport._E3[0] ** 2 * squares
            return 0.5 * n5 / math.sqrt(n * (n5 + 0.01 * n3))

        assert transport._error_norm(k, 0.5, y, y, cfg, 3) == pytest.approx(norm(25.0, 2))
        assert transport._error_norm(k, 0.5, y, y, cfg, 1) == pytest.approx(norm(27.0, 6))
        assert transport._error_norm(np.zeros((13, 6)), 0.5, y, y, cfg, 3) == 0.0

    def test_initial_step_is_smallest_lane_step(self, cfg):
        y0 = np.ones(2)

        def start(rates):
            r = rates.repeat(2)  # y' = r y, lane by lane
            return transport._initial_step(lambda t, y: r * y, np.tile(y0, len(rates)),
                                           r, 1.0, cfg, len(rates))

        slow, fast = start(np.array([-1.0])), start(np.array([-40.0]))
        assert fast < 0.5 * slow
        assert start(np.array([-1.0, -40.0])) == pytest.approx(fast, rel=1e-12)

    def test_lanes_at_rest_do_not_bound_the_first_step(self, cfg):
        def start(f, y0, lanes):
            return transport._initial_step(f, y0, f(0.0, y0), 1.0, cfg, lanes)

        # every lane at rest: the first step is the whole interval
        assert start(lambda t, y: np.zeros_like(y), np.ones(4), 2) == 1.0
        # a lane at rest beside a moving one leaves the moving lane's step
        r = np.array([0.0, 0.0, -40.0, -40.0])
        assert start(lambda t, y: r * y, np.ones(4), 2) == pytest.approx(
            start(lambda t, y: r[2:] * y, np.ones(2), 1), rel=1e-12)

    def test_rejections_keep_a_late_kink_accurate(self, cfg):
        # the slope is exactly zero at t = 0 and at the probe, so the first
        # attempt spans [0, 1]; only the error test can resolve the kink
        samples, status, _, stats = transport._integrate(
            lambda t, y: np.array([max(0.0, t - 0.5) ** 3]), np.zeros(1), 1.0, cfg)
        assert status == transport.COMPLETED
        assert stats.rejected > 0
        assert abs(samples[-1][1][0] - 0.5 ** 4 / 4) <= 1e-9

    def test_one_christoffel_batch_per_step(self, model, monkeypatch):
        christoffel = count_calls(monkeypatch, "_christoffel")
        steps = count_calls(monkeypatch, "_rk_step")
        hc.transport_matrix(model, acceptance_style_curves(1, seed=7)[0], TIGHT)
        assert steps[0] > 0
        # two for the initial-step probe, one for the cuts' turn estimate
        assert christoffel[0] <= steps[0] + 3


def z_rule_pieces(curve):
    """The z-ratio cuts alone, built as transport_matrix built them before
    fast-turning pieces were split: (c0, delta, k, a, d)."""
    c0, delta, k, a, d = [], [], [], [], []
    for i, seg in enumerate(curve.segments):
        log_ratio = math.log1p(seg._delta[2] / seg._c0[2])
        n = max(8, math.ceil(abs(log_ratio) / math.log(2.0)))
        cuts = np.arange(n + 1) / n
        if log_ratio != 0.0:
            cuts = np.expm1(cuts * log_ratio)
            cuts /= cuts[-1]
        c0.append(seg._c0 + cuts[:-1, None] * seg._delta)
        delta.append(np.diff(cuts)[:, None] * seg._delta)
        k.append(np.full(n, i))
        a.append(cuts[:-1])
        d.append(np.diff(cuts))
    return tuple(np.concatenate(x) for x in (c0, delta, k, a, d))


def piece_turns(model, curve):
    """Each piece's parameter length times the larger omega at its ends, with
    omega = sqrt(max(0, -tr(A^2) / 2)) and A = -Gamma(c)[segment delta, .]."""
    c0, delta, k, _, d = transport._pieces(model, curve)
    seg_delta = np.array([seg._delta for seg in curve.segments])[k]
    omega = []
    for c in (c0, c0 + delta):
        a = -np.einsum("...kij,...i->...kj", tensor_core._christoffel(model, c), seg_delta)
        omega.append(np.sqrt(np.maximum(0.0, -0.5 * np.trace(a @ a, axis1=-2, axis2=-1))))
    return d * np.maximum(*omega)


class TestPieces:
    """A piece that turns fast is split until it turns at most _MAX_TURN."""

    def test_each_piece_turns_at_most_one_radian(self, model):
        assert transport._MAX_TURN == 1.0
        for curve in acceptance_style_curves(10, seed=7):
            c0, delta, k, a, d = transport._pieces(model, curve)
            assert len(c0) < transport._MAX_LANES
            assert np.max(piece_turns(model, curve)) <= 1.0 + 1e-12
            # the pieces of a segment tile it, in order, from 0 to 1
            for i in range(len(curve.segments)):
                starts, widths = a[k == i], d[k == i]
                assert starts[0] == 0.0
                np.testing.assert_allclose(starts[1:], (starts + widths)[:-1],
                                           rtol=0, atol=1e-15)
                assert abs(starts[-1] + widths[-1] - 1.0) <= 1e-15
            np.testing.assert_allclose(delta, d[:, None] * np.array(
                [seg._delta for seg in curve.segments])[k], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("nodes", [
        [(0.3, -0.4, 0.7), (0.3, -0.4, 40.0)],                   # vertical
        [(0.3, -0.4, 40.0), (0.3, -0.4, 0.7), (0.3, -0.4, 2.0)],  # vertical, both ways
        [(0.0, 0.0, 1.0), (2.0, 0.0, 1.0)],                      # xt at z = 1: A = 0
        [(0.0, 0.0, 1.0), (0.0, 3.0, 1.0)],                      # yt at z = 1, slowly
        [(1.5, 1.5, 1.5), (1.5, 1.5, 1.5)],                      # zero length
    ])
    def test_slow_segments_keep_the_z_cuts(self, model, nodes):
        curve = CurveSpec.from_points([ChartPoint(*p) for p in nodes])
        for got, want in zip(transport._pieces(model, curve), z_rule_pieces(curve)):
            assert same_bits(got, want)

    def test_certification_lifts_keep_the_z_cuts(self, monkeypatch):
        # C6's three lifts and its rectangle at two matrices: the pieces are
        # bit for bit the z cuts, so reports and traces keep their bytes
        curves = []
        original = transport._pieces

        def recorded(m, curve):
            curves.append(curve)
            return original(m, curve)

        monkeypatch.setattr(transport, "_pieces", recorded)
        for matrix in (((2, 1), (1, 1)), ((1000, 999), (1, 1))):
            hc.run_checklist(hc.ChecklistConfig(matrix=matrix, samples=8))
        assert len(curves) == 8
        model = hc.warped_metric()
        for curve in curves:
            for got, want in zip(original(model, curve), z_rule_pieces(curve)):
                assert same_bits(got, want)

    @pytest.mark.parametrize("nodes", [
        [(0.0, 0.0, 100.0), (0.0, 50.0, 100.0)],       # about 10^4 rad in yt
        [(0.0, 0.0, 1.0), (0.0, 1.0, 1e30)],            # 100 z cuts, omega up to 2e30
        [(0.0, 0.0, 1.0), (0.0, 1.0, 1e300)],           # the connection overflows
        [(0.0, 0.0, 1.0), (0.0, 0.0, 1e300)],           # 997 z cuts, vertical
        [(0.0, 0.0, 1.0), (0.0, 5.0, 300.0), (0.0, -5.0, 1.0)],
    ])
    def test_extreme_curves_stay_under_the_ceiling(self, model, nodes):
        curve = CurveSpec.from_points([ChartPoint(*p) for p in nodes])
        with np.errstate(over="ignore", invalid="ignore"):
            c0, delta, k, a, d = transport._pieces(model, curve)
        z_cuts = len(z_rule_pieces(curve)[0])
        assert len(c0) <= max(transport._MAX_LANES, z_cuts)
        assert np.all(d > 0.0) and np.isfinite(c0).all() and np.isfinite(delta).all()
        if z_cuts >= transport._MAX_LANES:
            assert len(c0) == z_cuts  # nothing left to split into

    def test_split_curve_at_the_ceiling_transports(self, model, monkeypatch):
        # 10^4 rad in all: each of the 248 pieces turns about 40 rad, so the
        # run takes the extra steps (204; the 8 z cuts alone took 6,172) and
        # still transports an isometry that fixes e1
        curve = CurveSpec.from_points([ChartPoint(0, 0, 100.0), ChartPoint(0, 50, 100.0)])
        assert len(transport._pieces(model, curve)[0]) == 248
        steps = count_calls(monkeypatch, "_rk_step")
        p = hc.transport_matrix(model, curve, TIGHT)
        assert steps[0] < 250
        g = _metric(model, curve.start.coords)
        assert np.max(np.abs(p.T @ g @ p - g)) < 1e-7 * np.max(g)
        assert np.array_equal(p[:, 0], [1.0, 0.0, 0.0])

    def test_work_on_acceptance_curves(self, model, monkeypatch):
        # (attempted steps, lanes) of each curve at the acceptance suite's
        # tolerance; with the z cuts alone the lanes were 24, 24, 24, 16, 24
        runs = []
        original = transport._integrate

        def recorded(*args, **kwargs):
            out = original(*args, **kwargs)
            runs.append((out[3].attempted, args[0].shape[0]))
            return out

        monkeypatch.setattr(transport, "_integrate", recorded)
        for curve in acceptance_style_curves(5, seed=0):
            hc.transport_matrix(model, curve, TIGHT)
        assert runs == [(7, 80), (7, 42), (7, 36), (7, 20), (7, 35)]


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
            many = transport._transport_curves(model, curves, w0, TIGHT)
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
        many = transport._transport_curves(model, curves, w0, TIGHT)
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
        p_rev = hc.transport_matrix(model, CurveSpec.from_points(pts[::-1]), cfg)
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
    def test_samples_view_the_arrays(self, model, cfg):
        p0 = ChartPoint(0, 0, 2)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.2, 0.4, -0.5]),
                                     2.0, cfg)
        assert traj.samples is traj.samples
        assert [s.t for s in traj.samples] == traj.ts.tolist()
        assert [s.point.coords.tolist() for s in traj.samples] == traj.xs.tolist()
        assert [s.velocity.comp.tolist() for s in traj.samples] == traj.vs.tolist()
        # the rows the CSV wrote when it read the samples
        rows = [[s.t, s.point.xt, s.point.yt, s.point.z, *s.velocity.comp]
                for s in traj.samples]
        assert hc.trajectory_to_csv(traj).splitlines()[1:] == [
            ",".join(f"{x:.17g}" for x in row) for row in rows]

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
# separate E5 and E3 norms.  The step in use must give its bits.
_C, _A, _B = transport._C, transport._A, transport._B
_E5, _E3 = transport._E5, transport._E3


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
        a = textbook_matrices(f, t + _C[1:12] * h)[[0, *range(11), 10]]

        def slope(s, y):
            return (a[s] @ y.reshape(f.shape)).ravel()
    else:
        def slope(s, y):
            return f(t + _C[s] * h, y)
    k = np.empty((13, y.size))
    k[0] = k1
    for s in range(1, 12):
        k[s] = slope(s, y + h * (_A[s, :s] @ k[:s]))
    y_new = y + h * (_B @ k[:12])
    k[12] = slope(12, y_new)
    return y_new, k


def textbook_norm(k, h, y0, y1, cfg, lanes):
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    # the error estimates cancel to a few digits, so they are formed as the
    # step forms them; the rest may round differently
    e5, e3 = np.array([_E5, _E3]) @ k[:12]
    e5 = (e5 / scale).reshape(lanes, -1)
    e3 = (e3 / scale).reshape(lanes, -1)
    n5 = np.sum(e5 ** 2, axis=1)
    den = n5 + 0.01 * np.sum(e3 ** 2, axis=1)
    den = np.where(den <= 0.0, 1.0, den)
    return float(np.max(h * n5 / np.sqrt(den * e5.shape[1])))


class TestStepBits:
    """The buffered step gives the textbook step's bits, stage for stage."""

    @staticmethod
    def assert_same_step(f, t, y, h, k1, lanes):
        got = transport._rk_step(f, t, y, h, k1, transport._IntegrationStats())
        want = textbook_step(f, t, y, h, k1)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        if not np.isfinite(got[0]).all():
            return  # a stage below the floor: the integrator rejects the step
        for cfg in (hc.IntegratorConfig(), TIGHT):
            norm = transport._error_norm(got[1], h, np.abs(y), np.abs(got[0]), cfg, lanes)
            assert norm == pytest.approx(textbook_norm(want[1], h, y, want[0], cfg, lanes),
                                         rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("lanes", (1, 2, 3))
    @pytest.mark.parametrize("width", (1, 3))
    def test_linear_field(self, model, lanes, width):
        rng = np.random.default_rng(10 * lanes + width)
        for curve in acceptance_style_curves(4, seed=lanes):
            segments = (curve.segments * 2)[:lanes]
            field = transport._LinearField(model, *lane_arrays(segments), width)
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
            # the last stage is the slope at the new state, which the next
            # step and the escape refinement reuse in place of a fresh call
            y_new, k = transport._rk_step(rhs, 0.0, y, 1e-3, k1,
                                          transport._IntegrationStats())
            assert np.array_equal(k[12], rhs(1e-3, y_new))


class TestConnectionBits:
    """The linear field's coefficients give the einsum form's bits, signed zeros too.

    A = -Gamma(c)[delta, .] was np.einsum("...kij,...i->...kj", Gamma, -delta),
    whose sum starts from +0; the three broadcast products keep its bits.
    """

    METRICS = {
        "warped-4": lambda: hc.warped_metric(),
        "warped-3": lambda: hc.warped_metric(3.0),
        "conformal": lambda: hc.quotient_conformal_metric(hc.warped_metric()),
        "sheared": lambda: sheared_metric(),
    }

    @pytest.mark.parametrize("lanes", (1, 5, 300))
    @pytest.mark.parametrize("name", list(METRICS))
    def test_same_bits_as_einsum(self, name, lanes):
        m = self.METRICS[name]()
        rng = np.random.default_rng(lanes)
        c0 = rng.uniform(-3.0, 3.0, (lanes, 3))
        c0[:, 2] = rng.uniform(0.5, 5.0, lanes)
        delta = rng.uniform(-2.0, 2.0, (lanes, 3))
        delta[:, 2] *= 0.1  # z stays above 0.3
        # zero components of both signs: +0 and -0 products in the sums
        delta[rng.random((lanes, 3)) < 0.3] = 0.0
        delta[rng.random((lanes, 3)) < 0.2] *= -0.0
        field = transport._LinearField(m, c0, delta, 3)
        s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 9)])
        got = field.matrices(s)
        want = np.einsum("...kij,...i->...kj",
                         tensor_core._christoffel(m, c0 + s[:, None, None] * delta), -delta)
        assert same_bits(got, want)
        assert (got == 0.0).any()  # the zeros were compared by sign too


class TestTableau:
    """The hard-coded DOP853 constants: order conditions and Hairer's table."""

    def test_row_sums_are_the_abscissae(self):
        np.testing.assert_allclose(_A.sum(axis=1), _C[:12], rtol=0, atol=1e-15)
        assert _C[12] == 1.0 and _B.sum() == pytest.approx(1.0, abs=1e-15)

    def test_quadrature_conditions_to_order_8(self):
        for q in range(1, 9):
            assert _B @ _C[:12] ** (q - 1) == pytest.approx(1.0 / q, abs=1e-14)

    def test_error_estimates_vanish_on_constants(self):
        # both embedded solutions integrate y' = 1 exactly: their weights
        # differ from _B by vectors that sum to zero
        assert abs(_E5.sum()) < 1e-14 and abs(_E3.sum()) < 1e-14

    def test_matches_hairers_table(self):
        pytest.importorskip("scipy")
        from scipy.integrate._ivp import dop853_coefficients as ref
        assert np.array_equal(_C[:12], ref.C[:12])
        assert np.array_equal(_A, ref.A[:12, :12])
        assert np.array_equal(_B, ref.B)
        assert np.array_equal(_E5, ref.E5[:12]) and not ref.E5[12]
        assert np.array_equal(_E3, ref.E3[:12]) and not ref.E3[12]

    def test_eighth_order_convergence(self, model):
        # dy along the z-line from 0.5 to 5 scales by (z0 / z)^2 = 1/100 exactly
        curve = CurveSpec.from_points([ChartPoint(0, 0, 0.5), ChartPoint(0, 0, 5.0)])
        field = transport._LinearField(model, *lane_arrays(curve.segments), 1)

        def fixed_steps(n):
            y, stats = np.array([0.0, 1.0, 0.0]), transport._IntegrationStats()
            k1 = field(0.0, y)
            for i in range(n):
                y, k = transport._rk_step(field, i / n, y, 1.0 / n, k1, stats)
                k1 = k[12]
            return abs(y[1] - (0.5 / 5.0) ** 2)

        errors = [fixed_steps(n) for n in (32, 64, 128)]
        orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert errors[-1] > 1e-16  # still well above roundoff on 0.01
        assert all(7.5 < q < 8.5 for q in orders), orders


def straight_escape(model, z0, vx, vz, cfg=transport.DEFAULT_CONFIG):
    """Escape of the straight geodesic (vx, 0, vz) from (0, 0, z0), and its exact crossing."""
    ts, xs, vs, term = hc.integrate_geodesic_coords(model, [0.0, 0.0, z0],
                                                    [vx, 0.0, vz], 2.0 * z0 / -vz, cfg)
    return ts, xs, term, (z0 - hc.Z_FLOOR) / -vz


class TestEscapeEvents:
    """Floor crossings are located on the crossing step's Hermite interpolant."""

    HEIGHTS = (0.01, 0.3, 1.0, 3.0, 7.5)

    @pytest.mark.parametrize("z0", HEIGHTS)
    def test_straight_escapes_at_exact_crossing(self, model, z0):
        for vx, vz in ((0.0, -1.0), (0.4, -0.6), (-0.3, -1.4)):
            _, _, term, exact = straight_escape(model, z0, vx, vz)
            assert term.escaped
            assert abs(term.t_escape - exact) <= 1e-9

    def test_escape_parameter_is_a_python_float(self, model):
        # the crossing is located in Python floats, not numpy scalars
        p0 = ChartPoint(0.0, 0.0, 1.0)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.0, 0.0, -1.0]), 2.0)
        assert traj.termination.escaped
        assert type(traj.termination.t_escape) is float

    @pytest.mark.parametrize("z0", HEIGHTS)
    def test_state_brackets_the_floor(self, model, cfg, z0):
        ts, xs, term, _ = straight_escape(model, z0, 0.2, -0.8)
        assert ts[-1] == term.t_escape and xs[-1, 2] <= hc.Z_FLOOR
        # EVENT_T_TOL earlier the integrator still sees the curve above the floor
        _, before, _, early = hc.integrate_geodesic_coords(
            model, [0.0, 0.0, z0], [0.2, 0.0, -0.8], term.t_escape - transport.EVENT_T_TOL,
            cfg)
        assert early.completed and before[-1, 2] > hc.Z_FLOOR

    @pytest.mark.parametrize("z0", HEIGHTS)
    def test_curved_escape(self, z0):
        # g = dx^2 + (1 + z)^2 dz^2: the downward geodesic speeds up as it
        # falls, (1 + z)^2 = (1 + z0)^2 - 2 (1 + z0) t, so no step is exact
        m2 = hc.MetricField(lambda c: np.diag([1.0, (1.0 + c[1]) ** 2]), dim=2)
        _, xs, _, term = hc.integrate_geodesic_coords(m2, [0.0, z0], [0.3, -1.0], 100.0)
        exact = ((1.0 + z0) ** 2 - (1.0 + hc.Z_FLOOR) ** 2) / (2.0 * (1.0 + z0))
        assert term.escaped and xs[-1, 1] <= hc.Z_FLOOR
        assert 0.0 <= term.t_escape - exact <= 1e-9

    def test_two_refinement_steps(self, model, monkeypatch):
        runs = TestIntegrationStats.record(monkeypatch)
        for z0 in self.HEIGHTS:
            straight_escape(model, z0, 0.0, -1.0)
        assert [s.refinement for s in runs] == [2] * len(self.HEIGHTS)

    def test_midpoint_fallback(self, model, monkeypatch):
        # an interpolant whose root always leaves the bracket leaves bisection
        runs = TestIntegrationStats.record(monkeypatch)
        monkeypatch.setattr(transport, "_hermite_root", lambda *args: 2.0)
        for z0 in (0.3, 3.0):
            _, xs, term, exact = straight_escape(model, z0, 0.0, -1.0)
            assert 0.0 <= term.t_escape - exact <= transport.EVENT_T_TOL
            assert xs[-1, 2] <= hc.Z_FLOOR
        assert all(s.refinement > 2 for s in runs)

    def test_hermite_root(self):
        # a cubic with known root: p(x) = (x - 0.3)(x + 1)(x + 2), scaled to [0, 1]
        def p(x):
            return -(x - 0.3) * (x + 1.0) * (x + 2.0)

        def dp(x):
            return -((x + 1.0) * (x + 2.0) + (x - 0.3) * (2.0 * x + 3.0))

        assert transport._hermite_root(p(0.0), dp(0.0), p(1.0), dp(1.0)) == \
            pytest.approx(0.3, abs=1e-15)
        assert math.isnan(transport._hermite_root(1.0, 0.0, math.nan, 0.0))

    def test_step_off_the_chart_ends_early(self, model):
        # from z = 1 down at unit speed, a step of 2 leaves the chart at the
        # first stage past t = 1
        rhs = transport._geodesic_rhs(model, 2)
        y = np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0])
        stats = transport._IntegrationStats()
        y_new, k = transport._rk_step(rhs, 0.0, y, 2.0, rhs(0.0, y), stats)
        assert np.isnan(y_new).all() and np.isnan(k[stats.rhs:]).all()
        assert stats.rhs == int(np.argmax(_C > 0.5)) < 12

    def test_lowered_floor_fails_exact_crossing_parts(self, cat, monkeypatch):
        # The event fires 1e-7 below the documented floor: the escape is still
        # within 1e-6 of t = 1, but 1e-7 past the exact crossing.
        monkeypatch.setattr(transport, "Z_FLOOR", hc.Z_FLOOR - 1e-7)
        ctx = checklist._Context(hc.ChecklistConfig(samples=10), cat)
        c8 = checklist._check_incompleteness(ctx)
        assert not c8.passed and c8.worst_part == "downward_escape_at_crossing"
        c11 = checklist._check_halfplane_leaf(ctx)
        assert not c11.passed
        assert c11.worst_part == "downward_geodesic_escapes_at_crossing"
        c8_parts, c11_parts = ({name: (float(res), float(tol)) for name, res, tol
                                in re.findall(r"(\S+): residual=(\S+) tol=([^;\s]+)",
                                              c.note)} for c in (c8, c11))
        for parts, old, new in (
                (c8_parts, "downward_escape_at_t=1", "downward_escape_at_crossing"),
                (c11_parts, "downward_geodesic_escapes_at_t1",
                 "downward_geodesic_escapes_at_crossing")):
            residual, tolerance = parts[old]
            assert 0.85e-6 < residual <= tolerance == 1e-6
            residual, tolerance = parts[new]
            assert tolerance == 1e-8 and residual == pytest.approx(1e-7, rel=1e-2)


class TestIntegrationStats:
    """Each integration counts its work; the counts pin the step control."""

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

    @staticmethod
    def assert_stats(stats, h_min, h_max, **counts):
        assert {name: getattr(stats, name) for name in counts} == counts
        assert stats.h_min == pytest.approx(h_min, rel=1e-9)
        assert stats.h_max == pytest.approx(h_max, rel=1e-9)

    def test_downward_geodesic(self, model, cfg, monkeypatch):
        # C8's escape (DP5: 35 attempted, 19 accepted, 16 rejected, 11
        # bisection steps; DOP853 with the retry rule alone: 7 attempted, 2
        # rejected, 95 RHS): the path is straight in z, so the step after
        # the first is capped at the slope's path to half the floor height
        # and lands below the floor, and two steps locate the crossing
        runs = self.record(monkeypatch)
        p0 = ChartPoint(0.0, 0.0, 1.0)
        hc.integrate_geodesic(model, p0, TangentVector(p0, [0.0, 0.0, -1.0]), 2.0, cfg)
        [stats] = runs
        self.assert_stats(stats, 0.03541397080083058, 0.6770701872029652, attempted=3,
                          accepted=3, rejected=0, refinement=2, rhs=62)

    def test_oblique_straight_escape(self, monkeypatch):
        # an escape of the geodesic_escape benchmark workload (seed 7) that
        # took 17 attempted steps, 6 of them rejected, with the retry rule alone
        runs = self.record(monkeypatch)
        p0 = ChartPoint(-1.32944632739536, -1.4707824740752524, 3.226313073010137)
        v0 = TangentVector(p0, [0.22951743717978468, 0.0, -1.0437199249997464])
        traj = hc.integrate_geodesic(hc.warped_metric(), p0, v0, 7.18969652387693)
        [stats] = runs
        assert traj.termination.escaped
        self.assert_stats(stats, 0.040116069847868134, 2.6520340949871146, attempted=3,
                          accepted=3, rejected=0, refinement=2, rhs=62)

    @pytest.mark.parametrize("z0,h_min,h_max,counts", [
        (7.5, 4.387674584572475e-05, 0.6591377360704345,
         dict(attempted=63, accepted=34, rejected=29, refinement=2, rhs=754)),
        (3.0, 8.422537517187263e-05, 0.25753077545611547,
         dict(attempted=55, accepted=31, rejected=24, refinement=2, rhs=652)),
    ])
    def test_bending_escape_keeps_the_retry_rule(self, monkeypatch, z0, h_min, h_max,
                                                  counts):
        # in dx^2 + (1 + z)^2 dz^2 the downward geodesic speeds up as it
        # falls, so no step is straight in z and no step is capped ahead of
        # a rejection: these are the counts of the retry rule alone
        runs = self.record(monkeypatch)
        m2 = hc.MetricField(lambda c: np.diag([1.0, (1.0 + c[1]) ** 2]), dim=2)
        hc.integrate_geodesic_coords(m2, [0.0, z0], [0.0, -1.0], 100.0)
        [stats] = runs
        self.assert_stats(stats, h_min, h_max, **counts)

    def test_default_run_work_per_check(self, monkeypatch):
        # (attempted, rejected, refinement, rhs) of each integration of the
        # default run, by check; C7 reads C6's holonomies, and no other
        # check integrates.  Counts repeat exactly, so a change of the step
        # control shows here where timings on a shared host cannot.
        runs, current = self.record(monkeypatch), []

        def tagged(check_id, fn):
            def run(ctx):
                current.append((check_id, len(runs)))
                return fn(ctx)
            return run

        monkeypatch.setattr(checklist, "_CHECKS",
                            {cid: check._replace(run=tagged(cid, check.run))
                             for cid, check in checklist._CHECKS.items()})
        assert hc.run_checklist(hc.ChecklistConfig()).all_passed
        starts = current + [(None, len(runs))]
        work = {cid: [(s.attempted, s.rejected, s.refinement, s.rhs) for s in runs[a:b]]
                for (cid, a), (_, b) in zip(starts, starts[1:]) if b > a}
        assert work == {
            "C5": [(1, 0, 0, 260)] * 2,
            "C6": [(3, 0, 0, 280)] * 3 + [(3, 0, 0, 1120)],
            "C8": [(3, 0, 2, 62), (6, 0, 0, 74)],
            "C10": [(8, 0, 0, 98), (1, 0, 0, 13)],
            "C11": [(3, 0, 2, 62)],
        }

    def test_three_segment_polyline(self, model, cfg, monkeypatch):
        runs = self.record(monkeypatch)
        curve = acceptance_style_curves(3, seed=0)[2]
        assert len(curve.segments) == 3
        hc.transport_matrix(model, curve, cfg)
        [stats] = runs
        # DP5 took 370 steps (365 accepted), DOP853 41 with one lane per
        # segment, and 9 with the 24 z-ratio pieces, eight per segment; the
        # fast-turning pieces of the outer segments are split, 14 + 8 + 14
        # lanes.  A linear step is one batch at 11 abscissae for each lane.
        assert stats.rhs == 36 * (2 + 11 * stats.attempted)
        self.assert_stats(stats, 9.560562641126031e-04, 0.34290751079727055, attempted=6,
                          accepted=6, rejected=0, refinement=0, rhs=2448)

    def test_deck_loop_at_trace_1001(self, model, cfg, monkeypatch):
        runs = self.record(monkeypatch)
        a = hc.validate_toral_matrix([[1000, 999], [1, 1]])
        hc.holonomy_of_loop(a, model, hc.LoopClass(["gz"], ChartPoint(0, 0, 1)), cfg)
        # DP5: 222 steps, 220 accepted; DOP853 on the one straight lift: 63
        # steps.  The lift from z = 1 to lambda, about 999, runs as ten pieces
        # of z ratio 999^(1/10), which the homothety z -> cz maps onto each other.
        [stats] = runs
        self.assert_stats(stats, 0.029098688337406847, 0.16057599136012457, attempted=9,
                          accepted=9, rejected=0, refinement=0, rhs=1010)

    def test_deck_loop_steps_do_not_grow_with_lambda(self, model, cfg, monkeypatch):
        # one straight lift took 12 steps at lambda 2.6 and 93 at 1e12, and
        # underflowed at 9e15; its pieces share a step at every lambda
        runs = self.record(monkeypatch)
        base = ChartPoint(0, 0, 1)
        for trace in (3, 4, 6, 10, 30, 100, 1000, 10 ** 6, 10 ** 12, 2 ** 53 + 2):
            a = hc.validate_toral_matrix([[trace - 1, trace - 2], [1, 1]])
            elem = hc.holonomy_of_loop(a, model, hc.LoopClass(["gz"], base), cfg)
            assert runs[-1].attempted <= 12
            lam = hc.eigen_basis(a).lam
            assert np.max(np.abs(elem.matrix * lam - np.eye(3))) < 1e-9
