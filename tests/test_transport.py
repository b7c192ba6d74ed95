"""Geodesic integrator and parallel transport against closed-form solutions.

Vertical coordinate lines are exact geodesics of the model metric (no
Christoffel symbol has two lower z-indices), so the downward ray from
z = 1 hits the floor at affine parameter 1 - Z_FLOOR.  Transport of the
dy frame vector along a z-line scales it by (z_start / z_end)^2.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import holocheck as hc
from holocheck import ChartDomainError, ChartPoint, CurveSpec, TangentVector
from holocheck import checklist, tensor_core, transport
from holocheck.tensor_core import _metric
from test_tensor_core import boom, perturbed_connection

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


def yt_transport(z, dyt):
    """Closed-form transport along a straight (xt, yt) segment at height z
    with yt displacement dyt: the rotation by 2 z dyt of the orthonormal
    (v2, v3) components, conjugated by diag(1, z^2, 1)."""
    c, s = math.cos(2.0 * z * dyt), math.sin(2.0 * z * dyt)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s / z ** 2], [0.0, s * z ** 2, c]])


def same_bits(a, b):
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


def unsplit_transport(model, segments, cfg):
    """Each segment transported from the identity as one piece, which the
    transport cuts where its step fails: (j, u, frames, stats)."""
    return transport._transport_pieces(model, *lane_arrays(segments), cfg)


class TestIntegratorConfig:
    def test_defaults(self):
        c = hc.IntegratorConfig()
        assert c.rel_tol == 1e-10 and c.abs_tol == 1e-12
        assert [f.name for f in dataclasses.fields(c)] == ["rel_tol", "abs_tol"]
        assert transport._MAX_STEPS == 1_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            hc.IntegratorConfig(rel_tol=1e-15)
        with pytest.raises(ValueError):
            hc.IntegratorConfig(abs_tol=0.0)
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

    def test_step_limit_reported(self, model, monkeypatch):
        monkeypatch.setattr(transport, "_MAX_STEPS", 3)
        p0 = ChartPoint(0, 0, 1)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.3, 0.5, -0.2]), 5.0)
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

    def test_overflowing_length_rejected(self):
        # transport coefficients need a finite delta; end - start is inf here
        with np.errstate(over="ignore"), pytest.raises(hc.CurveError, match="overflows"):
            hc.StraightSegment(ChartPoint(-1e308, 0, 1), ChartPoint(1e308, 0, 1))


class TestLanes:
    """transport_matrix steps the pieces of all segments as lanes of batched
    DOP853 steps, each piece in one step of its whole length."""

    def test_matches_segment_by_segment_frames(self, model):
        # the product of the z pieces against that of whole segments, each
        # stepped as one piece and cut where its step fails
        for curve in acceptance_style_curves(10, seed=7):
            p = hc.transport_matrix(model, curve, TIGHT)
            unsplit = transport._product(unsplit_transport(model, curve.segments, TIGHT)[2])
            assert np.max(np.abs(p - unsplit)) <= 1e-9 * np.max(np.abs(unsplit))

    def test_unequal_segment_costs(self, model, monkeypatch):
        # The third acceptance curve: its outer segments turn fast and its
        # middle one slowly.  Each piece is kept or cut on its own error, so
        # the middle segment's eight z pieces are kept as they are while the
        # outer ones are cut into many, in three batched steps; every kept
        # piece adds one row to the frame trace.
        curve = acceptance_style_curves(3, seed=0)[2]
        k = transport._pieces(curve)[2]
        runs = TestIntegrationStats.record(monkeypatch)
        p = hc.transport_matrix(model, curve, TIGHT)
        [stats] = runs
        assert stats.rounds == 3
        g0 = _metric(model, curve.start.coords)
        g1 = _metric(model, curve.end.coords)
        assert np.max(np.abs(p.T @ g1 @ p - g0)) < 1e-7
        j = unsplit_transport(model, curve.segments, TIGHT)[0]
        assert np.array_equal(np.bincount(j), [76, 8, 78])  # each segment alone
        trace = hc.transport_frame_trace(model, curve, TIGHT)
        ts = np.array([t for t, _, _ in trace])
        assert ts[0] == 0.0 and np.all(np.diff(ts) > 0.0) and ts[-1] == 3.0
        assert len(trace) == 1 + stats.accepted
        rows = np.bincount(np.ceil(ts[1:]).astype(int) - 1)  # segment k: (k, k + 1]
        assert rows[1] == np.count_nonzero(k == 1) == 8 and min(rows[0], rows[2]) > 40
        # the trace multiplies left to right, transport_matrix as a tree
        assert np.max(np.abs(trace[-1][2] - p)) <= 1e-13 * np.max(np.abs(p))

    def test_trace_pieces_end_where_the_next_starts(self, model, cfg):
        # a piece's last row is the next piece's start, t and coordinates,
        # and the final row the curve's end, not a rounded start + delta;
        # the second curve's z pieces turn up to 2.25 rad and are cut
        lam = hc.eigen_basis(hc.validate_toral_matrix([[1000, 999], [1, 1]])).lam
        curves = [[(0, 0, 1), (0, 0, lam), (0.5, 0.5, 3.0)], [(0, 0, 1), (0.5, 3.5, 3.0)]]
        for nodes in curves:
            curve = CurveSpec.from_points([ChartPoint(*p) for p in nodes])
            c0, _, k, a, _ = transport._pieces(curve)
            trace = hc.transport_frame_trace(model, curve, cfg)
            rows = {(t, tuple(c)) for t, c, _ in trace}
            assert all((k[j] + a[j], tuple(c0[j])) in rows for j in range(len(c0)))
            assert (float(len(nodes) - 1), nodes[-1]) in rows
            assert len(trace) > len(c0) + 1

    def test_rejections_keep_a_late_kink_accurate(self, cfg):
        # the slope is exactly zero at t = 0 and at the probe, so the first
        # attempt spans [0, 1]; only the error test can resolve the kink
        samples, status, _, stats = transport._integrate(
            lambda t, y: np.array([max(0.0, t - 0.5) ** 3]), np.zeros(1), 1.0, cfg)
        assert status == transport.COMPLETED
        assert stats.rejected > 0
        assert abs(samples[-1][1][0] - 0.5 ** 4 / 4) <= 1e-9

    def test_one_christoffel_batch_per_step(self, model, monkeypatch):
        # a model without a closed-form connection builds its symbols once
        # per batched step, the pieces' starts in the same batch
        christoffel = count_calls(monkeypatch, "_christoffel")
        steps = count_calls(monkeypatch, "_rk_step")
        derived = hc.quotient_conformal_metric(model)
        hc.transport_matrix(derived, acceptance_style_curves(1, seed=7)[0], TIGHT)
        assert steps[0] > 1
        assert christoffel[0] == steps[0]

    def test_each_piece_is_cut_on_its_own_error(self, model, cfg):
        # a slow yt piece at z = 1 and a fast one at z = 3, stepped together:
        # the slow piece is kept whole, and the fast one is cut into n equal
        # sub-pieces, all kept in the second step
        c0 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 3.0]])
        delta = np.array([[0.0, 0.05, 0.0], [0.0, 1.0, 0.0]])
        j, u, frames, stats = transport._transport_pieces(model, c0, delta, cfg)
        n = len(j) - 1
        assert (stats.rounds, stats.attempted, stats.rejected) == (2, 2 + n, 1)
        assert n > 2 and j.tolist() == [0] + [1] * n
        np.testing.assert_allclose(u, [0.0, *np.arange(n) / n], rtol=0, atol=1e-15)
        # each kept frame is its piece's closed-form rotation
        assert np.max(np.abs(frames[0] - yt_transport(1.0, 0.05))) < 1e-14
        for frame in frames[1:]:
            assert np.max(np.abs(frame - yt_transport(3.0, 1.0 / n))) < 1e-11


def z_rule_pieces(curve):
    """The z-ratio cuts, built segment by segment: (c0, delta, k, a, d)."""
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


class TestPieces:
    """A segment is cut by its z ratio alone; a piece whose step fails is
    cut further as it is transported."""

    def test_pieces_tile_each_segment(self):
        for curve in acceptance_style_curves(10, seed=7):
            c0, delta, k, a, d = transport._pieces(curve)
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
    def test_slow_segments_keep_the_z_cuts(self, nodes):
        curve = CurveSpec.from_points([ChartPoint(*p) for p in nodes])
        for got, want in zip(transport._pieces(curve), z_rule_pieces(curve)):
            assert same_bits(got, want)

    def test_certification_lifts_keep_the_z_cuts(self, monkeypatch):
        # C6's three lifts and its rectangle, and C10's leaf segment, at two
        # matrices: the pieces are bit for bit the z cuts
        curves = []
        original = transport._pieces

        def recorded(curve):
            curves.append(curve)
            return original(curve)

        monkeypatch.setattr(transport, "_pieces", recorded)
        for matrix in (((2, 1), (1, 1)), ((1000, 999), (1, 1))):
            hc.run_checklist(hc.ChecklistConfig(matrix=matrix, samples=8))
        assert len(curves) == 10
        for curve in curves:
            for got, want in zip(original(curve), z_rule_pieces(curve)):
                assert same_bits(got, want)

    @pytest.mark.parametrize("nodes", [
        [(0.0, 0.0, 100.0), (0.0, 50.0, 100.0)],       # about 10^4 rad in yt
        [(0.0, 0.0, 1.0), (0.0, 1.0, 1e30)],            # 100 z cuts, omega up to 2e30
        [(0.0, 0.0, 1.0), (0.0, 1.0, 1e300)],           # the connection overflows
        [(0.0, 0.0, 1.0), (0.0, 0.0, 1e300)],           # 997 z cuts, vertical
        [(0.0, 0.0, 1.0), (0.0, 5.0, 300.0), (0.0, -5.0, 1.0)],
    ])
    def test_extreme_curves_stay_under_the_ceiling(self, model, nodes, monkeypatch):
        # the pieces are the z cuts, finite; the transport finishes or
        # raises IntegrationError within its piece-step budget (cut to 10^5
        # here), and no batched step takes more than _MAX_LANES pieces
        curve = CurveSpec.from_points([ChartPoint(*p) for p in nodes])
        c0, delta, k, a, d = transport._pieces(curve)
        assert len(c0) == len(z_rule_pieces(curve)[0])
        assert np.all(d > 0.0) and np.isfinite(c0).all() and np.isfinite(delta).all()
        monkeypatch.setattr(transport, "_MAX_STEPS", 100_000)
        lanes = []
        original = transport._rk_step

        def recorded(f, t, y, h, k1, stats):
            lanes.append(f.shape[0])
            return original(f, t, y, h, k1, stats)

        monkeypatch.setattr(transport, "_rk_step", recorded)
        with np.errstate(all="ignore"):
            try:
                p = hc.transport_matrix(model, curve, TIGHT)
            except transport.IntegrationError:
                p = None
        assert max(lanes) <= transport._MAX_LANES and sum(lanes) <= 100_000
        assert (p is None) == (nodes[-1][2] > 1e29)  # omega 2e30 and beyond fail
        assert p is None or np.isfinite(p).all()

    def test_split_curve_at_the_ceiling_transports(self, model, monkeypatch):
        # 10^4 rad in all: each of the 8 z pieces is cut into _MAX_LANES
        # sub-pieces, which are cut again where they fail: 55,808
        # piece-steps in 219 batched steps of at most 256 (a step shared by
        # the pieces took 204 steps of 248 lanes, and by the 8 z cuts alone
        # 6,172); the product is an isometry that fixes e1
        curve = CurveSpec.from_points([ChartPoint(0, 0, 100.0), ChartPoint(0, 50, 100.0)])
        assert len(transport._pieces(curve)[0]) == 8
        steps = count_calls(monkeypatch, "_rk_step")
        p = hc.transport_matrix(model, curve, TIGHT)
        assert steps[0] < 250
        g = _metric(model, curve.start.coords)
        assert np.max(np.abs(p.T @ g @ p - g)) < 1e-7 * np.max(g)
        assert np.array_equal(p[:, 0], [1.0, 0.0, 0.0])

    def test_work_on_acceptance_curves(self, model, monkeypatch):
        # (batched steps, piece-steps) of each curve at the acceptance
        # suite's tolerance; the 24, 24, 24, 16 and 24 z pieces, cut where
        # their step fails (the shared step took 7 steps of 80, 42, 36, 20
        # and 35 lanes)
        runs = TestIntegrationStats.record(monkeypatch)
        for curve in acceptance_style_curves(5, seed=0):
            hc.transport_matrix(model, curve, TIGHT)
        assert [(s.rounds, s.attempted) for s in runs] == [
            (3, 474), (3, 225), (3, 193), (2, 92), (3, 176)]


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


class TestParallelField:
    """C5 reads grad v1 = Gamma^k_(i xt) off the sweep's Christoffel symbols."""

    @staticmethod
    def c5_and_c3(cat, monkeypatch, metric):
        monkeypatch.setattr(checklist, "warped_metric", metric)
        ctx = checklist._Context(hc.ChecklistConfig(samples=10), cat)
        return checklist._run(ctx, "C5"), checklist._run(ctx, "C3")

    def test_sheared_metric_fails(self, cat, monkeypatch):
        check, _ = self.c5_and_c3(cat, monkeypatch, sheared_metric)
        assert not check.passed
        # Gamma^yt_(z xt) = eps g^yy / 2, about eps / (2 z^4), at the lowest
        # sample, z = 0.478
        assert check.residual == pytest.approx(0.0961939480, rel=1e-6)

    def test_symbol_without_an_xt_index_keeps_c5(self, cat, monkeypatch):
        # Gamma^yt_(yt z) off by 1e-6: C3 sees it, while v1 stays parallel
        c5, c3 = self.c5_and_c3(cat, monkeypatch, perturbed_connection)
        assert c5.passed and c5.residual == 0.0
        assert not c3.passed

    def test_symbol_with_an_xt_index_fails_c5(self, cat, monkeypatch):
        def perturbed(exponent=4.0):
            base = hc.warped_metric(exponent)

            def christoffel(c):
                out = base.christoffel(c)
                out[..., 1, 2, 0] += 1e-6  # Gamma^yt_(z xt) and Gamma^yt_(xt z)
                out[..., 1, 0, 2] += 1e-6
                return out

            return dataclasses.replace(base, christoffel=christoffel)

        c5, c3 = self.c5_and_c3(cat, monkeypatch, perturbed)
        assert not c5.passed and c5.residual == pytest.approx(1e-6, rel=1e-12)
        assert not c3.passed


class TestParallelTransport:
    def test_z_line_contracts_dy(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        curve = CurveSpec.from_points([p0, ChartPoint(0, 0, LAM)])
        w = hc.transport_matrix(model, curve, cfg) @ [0.0, 1.0, 0.0]
        np.testing.assert_allclose(w, [0.0, 1.0 / LAM**2, 0.0], atol=1e-9)
        assert abs(w[1] - 0.1458980) < 1e-7

    def test_dx_is_parallel(self, model, cfg):
        p0 = ChartPoint(0, 0, 1)
        curve = CurveSpec.from_points([p0, ChartPoint(0.7, -0.4, 2.2),
                                       ChartPoint(-1.0, 0.3, 0.9)])
        w = hc.transport_matrix(model, curve, cfg) @ [1.0, 0.0, 0.0]
        assert np.max(np.abs(w - np.array([1.0, 0.0, 0.0]))) < 1e-10

    def test_euclidean_transport_trivial(self, euclid, cfg):
        p0 = ChartPoint(0, 0, 1)
        curve = CurveSpec.from_points([p0, ChartPoint(2, 3, 4), ChartPoint(-1, 1, 2)])
        w = hc.transport_matrix(euclid, curve, cfg) @ [0.3, -0.2, 0.9]
        np.testing.assert_allclose(w, [0.3, -0.2, 0.9], atol=1e-12)


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
    """The step from (t, y); a linear field's first slope comes from its
    coefficients at t (k1 is None), a callable's is k1."""
    k = np.empty((13, y.size))
    if isinstance(f, transport._LinearField):
        a = textbook_matrices(f, t + _C[:12] * h)[[*range(12), 11]]

        def slope(s, y):
            return (a[s] @ y.reshape(f.shape)).ravel()

        k[0] = slope(0, y)
    else:
        def slope(s, y):
            return f(t + _C[s] * h, y)

        k[0] = k1
    for s in range(1, 12):
        k[s] = slope(s, y + h * (_A[s, :s] @ k[:s]))
    y_new = y + h * (_B @ k[:12])
    k[12] = slope(12, y_new)
    return y_new, k


def textbook_norm(k, h, y0, y1, cfg, lanes):
    """Hairer's error norm of each lane of a step."""
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    # the error estimates cancel to a few digits, so they are formed as the
    # step forms them; the rest may round differently
    e5, e3 = np.array([_E5, _E3]) @ k[:12]
    e5 = (e5 / scale).reshape(lanes, -1)
    e3 = (e3 / scale).reshape(lanes, -1)
    n5 = np.sum(e5 ** 2, axis=1)
    den = n5 + 0.01 * np.sum(e3 ** 2, axis=1)
    den = np.where(den <= 0.0, 1.0, den)
    return h * n5 / np.sqrt(den * e5.shape[1])


class TestStepBits:
    """The buffered step gives the textbook step's bits, stage for stage."""

    @staticmethod
    def assert_same_step(f, t, y, h, k1):
        linear = isinstance(f, transport._LinearField)
        got = transport._rk_step(f, t, y if linear else y.tolist(), h, None if linear else k1,
                                 transport._IntegrationStats())
        want = textbook_step(f, t, y, h, k1)
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=True)
        if linear or not np.isfinite(got[0]).all():
            return  # a stage below the floor: the integrator rejects the step
        for cfg in (hc.IntegratorConfig(), TIGHT):
            norm = transport._error_norm(got[1], h, y.tolist(), got[0], cfg)
            assert norm == pytest.approx(textbook_norm(want[1], h, y, want[0], cfg, 1)[0],
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
                self.assert_same_step(field, t, y, h, None)
            # the transport's step: h = 1 from the identities, and each
            # piece's error norm
            if width == 3:
                y = np.tile(np.eye(3).ravel(), lanes)
                self.assert_same_step(field, 0.0, y, 1.0, None)
                y_new, k = transport._rk_step(field, 0.0, y, 1.0, None,
                                              transport._IntegrationStats())
                for cfg in (hc.IntegratorConfig(), TIGHT):
                    np.testing.assert_allclose(transport._piece_errors(k, y_new, cfg),
                                               textbook_norm(k, 1.0, y, y_new, cfg, lanes),
                                               rtol=1e-13, atol=1e-300)

    def test_piece_errors_of_overflowed_and_resting_pieces(self):
        # an overflowed frame has an infinite scale, which drives its own
        # error estimate to 0, so its piece fails on the frame's finiteness;
        # a piece whose two estimates are both zero has error 0
        rng = np.random.default_rng(0)
        k = np.zeros((12, 27))
        k[:, :18] = rng.normal(scale=1e-9, size=(12, 18))
        y_new = np.tile(np.eye(3).ravel(), 3)
        y_new[13] = math.inf
        err = transport._piece_errors(k, y_new, hc.IntegratorConfig())
        assert 0.0 < err[0] < math.inf
        assert err[1:].tolist() == [math.inf, 0.0]

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
                                  10.0 ** rng.uniform(-3.0, -0.5), k1)
            # the last stage is the slope at the new state, which the next
            # step and the escape refinement reuse in place of a fresh call
            y_new, k = transport._rk_step(rhs, 0.0, y.tolist(), 1e-3, k1,
                                          transport._IntegrationStats())
            assert np.array_equal(k[12], rhs(1e-3, y_new))

    @staticmethod
    def states(rng, n):
        """Random (x, v) states, z from near the floor to 1e6, with zeros of
        both signs in v, v_y = 0 on a third, and a few non-finite entries."""
        y = rng.normal(size=(n, 6))
        y[:, 2] = np.geomspace(1.01 * hc.Z_FLOOR, 1e6, n)
        y[:, 3:][rng.random((n, 3)) < 0.1] = 0.0
        y[:, 3:][rng.random((n, 3)) < 0.1] = -0.0
        y[rng.random(n) < 1 / 3, 4] = 0.0
        bad = rng.random((n, 6)) < 0.01
        y[bad] = rng.choice([np.nan, np.inf, -np.inf], bad.sum())
        return y

    @staticmethod
    def same_bits_nan_where_einsum_nan(a, b):
        nan = np.isnan(a)
        return (np.array_equal(nan, np.isnan(b))
                and same_bits(np.where(nan, 0.0, a), np.where(nan, 0.0, b)))

    # 400: z^e underflows below z ~ 0.17 and overflows above ~ 5.9; 3, 0.5, 2,
    # 1.5, 0 and -1 put 2, -1 or 0.5 among the two powers e - 1 and e
    @pytest.mark.parametrize("exponent", (4.0, 3.0, 5.5, 0.5, -2.0, 400.0, 2.0, 1.5, 0.0,
                                          -1.0))
    def test_closed_form_contraction(self, exponent):
        # the model's -Gamma(v, v) for one state gives the textbook einsum's
        # bits, signed zeros included, and NaN exactly where einsum does
        m = hc.warped_metric(exponent)
        assert m.christoffel.acceleration is not None
        rhs = transport._geodesic_rhs(m, tensor_core.fiber_index(m))
        textbook = textbook_geodesic_rhs(m)
        ys = self.states(np.random.default_rng(int(exponent * 10) % 997), 2000)
        with np.errstate(all="ignore"):
            got = np.array([rhs(0.0, y) for y in ys])
            want = np.array([textbook(0.0, y) for y in ys])
        assert self.same_bits_nan_where_einsum_nan(got, want)
        finite = np.isfinite(ys).all(axis=1)
        if exponent == 400.0:  # z^e under- or overflows: NaN symbols
            assert np.isnan(want[finite]).any()
        else:
            assert np.isfinite(want[finite]).all()
        assert np.isnan(want[~finite]).any()
        assert (want[finite, 3:] == 0.0).any()  # the zeros were compared by sign too

    def test_replaced_and_derived_connections_take_einsum(self, model):
        y = np.array([0.3, -1.0, 1.7, 0.2, 0.6, -0.4])
        perturbed = perturbed_connection()
        rhs = transport._geodesic_rhs(perturbed, 2)(0.0, y)
        assert same_bits(rhs, textbook_geodesic_rhs(perturbed)(0.0, y))
        assert not same_bits(rhs, transport._geodesic_rhs(model, 2)(0.0, y))
        with pytest.raises(RuntimeError, match="closed form read"):
            transport._geodesic_rhs(dataclasses.replace(model, christoffel=boom), 2)(0.0, y)
        leaf = hc.induced_halfplane_metric(model)
        assert getattr(leaf.christoffel, "acceleration", None) is None

    def test_model_geodesic_builds_no_gamma(self, model, monkeypatch):
        christoffel = count_calls(monkeypatch, "_christoffel")
        einsums = [0]
        original = np.einsum

        def counted(*args, **kwargs):
            einsums[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        p0 = ChartPoint(0.3, -1.2, 1.5)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.2, 0.25, -0.6]), 5.0)
        assert traj.termination.completed and len(traj.ts) > 10
        # 2 per stage, one Gamma array and one einsum, before the contraction
        assert christoffel[0] == einsums[0] == 0


def array_norm(k, h, y0, y1, cfg):
    """The error norm in array operations, the reference for its bits."""
    e = transport._ERR @ k[:12]
    e /= cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    e *= e
    e5, e3 = e.sum(axis=1).tolist()
    den = e5 + 0.01 * e3
    if den <= 0.0:
        den = 1.0
    return h * (e5 / math.sqrt(den)) / math.sqrt(e.shape[1])


def array_initial_step(f, y0, f0, t_end, cfg):
    """Hairer's starting step in array operations, the reference for its bits."""
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)

    def rms(x):
        return np.sqrt(np.mean((x / scale) ** 2))

    d0, d1 = rms(y0), rms(f0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / np.maximum(d1, 1e-5)
    moving = f0.any()
    h0 = min(float(h0) if moving else 1e-6, t_end)
    f1 = f(h0, y0 + h0 * f0)
    if not np.isfinite(f1).all():
        return max(1e-8 * t_end, 1e-12)
    d = np.maximum(d1, rms(f1 - f0) / h0)
    h1 = (max(1e-6, h0 * 1e-3) if d <= 1e-15 else
          np.power(0.01 / np.maximum([d], 1e-15), 1.0 / 8.0)[0])
    if not (moving or f1.any()):
        return t_end
    return min(100 * h0, float(h1), t_end)


class TestOneLaneBits:
    """The stage sums, error norm and starting step keep the bits of the
    array forms: an error norm of fewer than 8 components is finished in
    Python floats, as numpy sums fewer than 8 terms left to right, and the
    starting step's power stays numpy's."""

    def test_bound_dot_is_matmul(self):
        rng = np.random.default_rng(11)
        for n in (1, 4, 6, 9, 27, 729):
            for _ in range(20):
                k = rng.normal(size=(13, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (13, 1))
                k[rng.random((13, n)) < 0.1] = 0.0
                for s in range(1, 13):
                    out = np.empty(n)
                    transport._STAGE_DOT[s](k[:s], out=out)
                    want = transport._STAGE[s] @ k[:s]
                    assert same_bits(transport._STAGE[s].dot(k[:s]), want)
                    assert same_bits(out, want)
                assert same_bits(transport._ERR_DOT(k[:12]), transport._ERR @ k[:12])

    @staticmethod
    def slopes(rng, n):
        """(13, n) slopes over 16 decades, with exact zeros and zero rows."""
        k = rng.normal(size=(13, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (13, n))
        k[rng.random((13, n)) < 0.1] = 0.0
        k[rng.random(13) < 0.1] = 0.0
        return k

    @pytest.mark.parametrize("n", range(1, 12))
    def test_error_norm(self, n):
        rng = np.random.default_rng(n)
        for cfg in (hc.IntegratorConfig(), TIGHT, hc.IntegratorConfig(abs_tol=1.0)):
            for trial in range(150):
                k = self.slopes(rng, n)
                if trial % 10 == 0:
                    k[:] = 0.0  # at rest: both estimates are zero
                # states of both signs, as the integrator passes them
                y0, y1 = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (2, n))
                h = 10.0 ** rng.uniform(-6.0, 0.0)
                got = transport._error_norm(k, h, y0.tolist(), y1.tolist(), cfg)
                assert type(got) is float
                assert got.hex() == array_norm(k, h, y0, y1, cfg).hex()

    @pytest.mark.parametrize("n", range(1, 12))
    def test_initial_step(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(200):
            y0 = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 6.0, n)
            rates = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 4.0, n)
            if trial % 4 == 0:
                rates[:] = 0.0  # at rest
            if trial % 8 == 1:
                rates[rng.random(n) < 0.5] = 0.0

            def f(t, y, rates=rates):
                return rates * y + t * rates

            f0 = f(0.0, y0)
            t_end = 10.0 ** rng.uniform(-3.0, 2.0)
            for cfg in (hc.IntegratorConfig(), TIGHT):
                got = transport._initial_step(f, y0, f0, t_end, cfg)
                want = array_initial_step(f, y0, f0, t_end, cfg)
                assert float(got).hex() == float(want).hex()

    @pytest.mark.parametrize("exponent", (4.0, 3.0))
    def test_geodesic_initial_step(self, exponent):
        m = hc.warped_metric(exponent)
        rhs = transport._geodesic_rhs(m, 2)
        rng = np.random.default_rng(int(exponent))
        for _ in range(300):
            y = np.concatenate([rng.uniform(-3.0, 3.0, 2), [rng.uniform(0.2, 5.0)],
                                rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 1.0, 3)])
            y[3:][rng.random(3) < 0.3] = 0.0
            if not y[3:].any():
                continue
            t_end = rng.uniform(0.5, 10.0)
            got = transport._initial_step(rhs, y, rhs(0.0, y), t_end, transport.DEFAULT_CONFIG)
            want = array_initial_step(rhs, y, rhs(0.0, y), t_end, transport.DEFAULT_CONFIG)
            assert got.hex() == want.hex()


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

    # test_closed_form_contraction's exponents: 400 under- and overflows z^e
    # over these heights, and the others put 2, -1 or 0.5 among the powers
    EXPONENTS = (4.0, 3.0, 5.5, 0.5, -2.0, 400.0, 2.0, 1.5, 0.0, -1.0)

    @staticmethod
    def lanes(rng, n):
        """(n, 3) starts from just above the floor to 1e6 and deltas that keep
        z above 0, with zero components of both signs."""
        c0 = rng.uniform(-3.0, 3.0, (n, 3))
        c0[:, 2] = rng.permutation(np.geomspace(1.01 * hc.Z_FLOOR, 1e6, n))
        delta = rng.uniform(-2.0, 2.0, (n, 3))
        delta[:, 2] = c0[:, 2] * rng.uniform(-0.9, 2.0, n)
        delta[rng.random((n, 3)) < 0.3] = 0.0
        delta[rng.random((n, 3)) < 0.3] = -0.0
        return c0, delta

    @pytest.mark.parametrize("exponent", EXPONENTS)
    def test_closed_form_has_the_broadcast_bits(self, exponent):
        # the model's closed form gives the broadcast contraction of its
        # symbols bit for bit: at the abscissae of a step, at one abscissa,
        # and with one v per point, NaN and inf included
        m = hc.warped_metric(exponent)
        assert m.christoffel.connection is not None
        rng = np.random.default_rng(int(exponent * 10) % 997)
        c0, delta = self.lanes(rng, 400)
        field = transport._LinearField(m, c0, delta, 3)
        s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 9)])
        with np.errstate(all="ignore"):
            for si in (s, 0.37):
                c = c0 + np.multiply.outer(si, delta)
                want = broadcast_connection(tensor_core._christoffel(m, c), -delta)
                assert same_bits(field.matrices(si), want)
            c, v = c.reshape(-1, 3), -delta
            got = transport._connection_matrices(m, c, v)
            assert same_bits(got, broadcast_connection(tensor_core._christoffel(m, c), v))
            want = field.matrices(s)
        # zeros compared by sign: +0 and -0 velocity components, +0 entries
        assert ((v == 0.0) & np.signbit(v)).any() and ((v == 0.0) & ~np.signbit(v)).any()
        assert (want == 0.0).any()
        if exponent == 400.0:  # z^e under- or overflows: non-finite symbols
            assert np.isnan(want).any() and np.isinf(want).any()
        else:
            assert np.isfinite(want).all()

    def test_derived_models_take_the_broadcast_form(self, model):
        # a mutant, a rescaled metric and a rebuilt connection carry no
        # closed form, nor does the half-plane leaf (2-D: never transported)
        derived = {
            "perturbed": perturbed_connection(),
            "conformal": hc.quotient_conformal_metric(model),
            "replaced": dataclasses.replace(model, christoffel=lambda c: model.christoffel(c)),
        }
        leaf = hc.induced_halfplane_metric(model)
        for m in (*derived.values(), leaf):
            assert getattr(m.christoffel, "connection", None) is None
        rng = np.random.default_rng(17)
        c0, v = self.lanes(rng, 300)
        c0[:, 2] = rng.uniform(0.5, 5.0, 300)  # g' is a rescaling: keep it finite
        for name, m in derived.items():
            got = transport._connection_matrices(m, c0, v)
            assert same_bits(got, broadcast_connection(tensor_core._christoffel(m, c0), v))
            if name == "perturbed":
                assert not same_bits(got, model.christoffel.connection(c0, v))
        with pytest.raises(RuntimeError, match="closed form read"):
            transport._connection_matrices(dataclasses.replace(model, christoffel=boom), c0, v)


def broadcast_connection(gamma, v):
    """``sum_i gamma[..., k, i, j] v[l, i]`` as three broadcast products summed
    from +0, the form for a model without a closed-form connection."""
    v = v[:, :, None, None]
    a = gamma[..., 0, :] * v[:, 0]
    a += gamma[..., 1, :] * v[:, 1]
    a += gamma[..., 2, :] * v[:, 2]
    a += 0.0
    return a


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
            for i in range(n):
                y, _ = transport._rk_step(field, i / n, y, 1.0 / n, None, stats)
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
        y = [0.0, 0.0, 1.0, 0.0, 0.0, -1.0]
        stats = transport._IntegrationStats()
        y_new, k = transport._rk_step(rhs, 0.0, y, 2.0, rhs(0.0, y), stats)
        assert np.isnan(y_new).all() and np.isnan(k[stats.rhs:]).all()
        assert stats.rhs == int(np.argmax(_C > 0.5)) < 12

    def test_lowered_floor_fails_exact_crossing_parts(self, cat, monkeypatch):
        # The event fires 1e-7 below the documented floor: continued straight
        # from there the escape still reaches z = 0 at t = 1, but it is 1e-7
        # past the exact crossing.
        monkeypatch.setattr(transport, "Z_FLOOR", hc.Z_FLOOR - 1e-7)
        ctx = checklist._Context(hc.ChecklistConfig(samples=10), cat)
        c8 = checklist._run(ctx, "C8")
        assert not c8.passed and c8.worst_part == "downward_escape_at_crossing"
        c11 = checklist._run(ctx, "C11")
        assert not c11.passed
        assert c11.worst_part == "downward_geodesic_escapes_at_crossing"
        c8_parts, c11_parts = ({name: (float(res), float(tol)) for name, res, tol
                                in re.findall(r"(\S+): residual=(\S+) tol=([^;\s]+)",
                                              c.note)} for c in (c8, c11))
        for parts, at_t1, at_crossing in (
                (c8_parts, "downward_escape_at_t=1", "downward_escape_at_crossing"),
                (c11_parts, "downward_geodesic_escapes_at_t1",
                 "downward_geodesic_escapes_at_crossing")):
            residual, tolerance = parts[at_t1]
            assert tolerance == 1e-8 and residual <= 1e-15
            residual, tolerance = parts[at_crossing]
            assert tolerance == 1e-8 and residual == pytest.approx(1e-7, rel=1e-2)


class TestIntegrationStats:
    """Each integration and each transport counts its work; the counts pin
    the step control."""

    @staticmethod
    def record(monkeypatch):
        """The stats of each geodesic integration and transport, in order."""
        runs = []
        for name in ("_integrate", "_transport_pieces"):
            def recorded(*args, original=getattr(transport, name), **kwargs):
                out = original(*args, **kwargs)
                runs.append(out[3])
                return out

            monkeypatch.setattr(transport, name, recorded)
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
        # (rounds, attempted, rejected, refinement, rhs) of each integration
        # and transport of the default run, by check; a geodesic takes no
        # batched rounds, and a transport's attempted steps are piece-steps
        # and its rejected ones the pieces it cut.  C7 reads C6's
        # holonomies: gx, gy, gz and the rectangle.  gz's ten pieces are cut
        # once (the shared step took 3 steps of 10 lanes, 280 RHS, for each
        # lift and 1,120 for the rectangle).  C10's transport is its
        # segment's 8 pieces, where A = 0, in one round (104 RHS before).
        # Counts repeat exactly, so a change of the step control shows here
        # where timings on a shared host cannot.
        runs, current = self.record(monkeypatch), []

        def tagged(check_id, fn):
            def run(ctx, *swept):
                current.append((check_id, len(runs)))
                return fn(ctx, *swept)
            return run

        monkeypatch.setattr(checklist, "_CHECKS",
                            {cid: check._replace(run=tagged(cid, check.run))
                             for cid, check in checklist._CHECKS.items()})
        assert hc.run_checklist(hc.ChecklistConfig()).all_passed
        starts = current + [(None, len(runs))]
        work = {cid: [(s.rounds, s.attempted, s.rejected, s.refinement, s.rhs)
                      for s in runs[a:b]]
                for (cid, a), (_, b) in zip(starts, starts[1:]) if b > a}
        assert work == {
            "C6": [(1, 8, 0, 0, 96)] * 2 + [(2, 24, 8, 0, 288), (1, 32, 0, 0, 384)],
            "C8": [(0, 3, 0, 2, 62), (0, 6, 0, 0, 74)],
            "C10": [(0, 8, 0, 0, 98), (1, 8, 0, 0, 96)],
            "C11": [(0, 3, 0, 2, 62)],
        }

    def test_three_segment_polyline(self, model, cfg, monkeypatch):
        runs = self.record(monkeypatch)
        curve = acceptance_style_curves(3, seed=0)[2]
        assert len(curve.segments) == 3
        hc.transport_matrix(model, curve, cfg)
        [stats] = runs
        # DP5 took 370 steps (365 accepted), DOP853 41 with one lane per
        # segment, 9 with the 24 z pieces sharing a step, and 6 with the
        # fast-turning ones split ahead (36 lanes, 2,448 RHS).  Each piece
        # now takes one step, and 16 of the 24 are cut; a piece-step
        # evaluates 12 abscissae.
        assert stats.rhs == 12 * stats.attempted
        assert (stats.rounds, stats.attempted, stats.accepted, stats.rejected,
                stats.refinement) == (2, 93, 77, 16, 0)

    def test_deck_loop_at_trace_1001(self, model, cfg, monkeypatch):
        runs = self.record(monkeypatch)
        a = hc.validate_toral_matrix([[1000, 999], [1, 1]])
        hc.holonomy_of_loop(a, model, hc.LoopClass(["gz"], ChartPoint(0, 0, 1)), cfg)
        # DP5: 222 steps, 220 accepted; DOP853 on the one straight lift: 63
        # steps, and 9 with its ten pieces of z ratio 999^(1/10) sharing a
        # step (1,010 RHS).  Each of those pieces fails its one step and is
        # cut into nine, which the homothety z -> cz maps onto each other.
        [stats] = runs
        assert (stats.rounds, stats.attempted, stats.accepted, stats.rejected,
                stats.rhs) == (2, 100, 90, 10, 1200)

    def test_deck_loop_steps_do_not_grow_with_lambda(self, model, cfg, monkeypatch):
        # one straight lift took 12 steps at lambda 2.6 and 93 at 1e12, and
        # underflowed at 9e15; its z pieces, cut once, take 2 rounds up to
        # trace 10^6 and 3 beyond, where they outnumber _MAX_LANES
        runs = self.record(monkeypatch)
        base = ChartPoint(0, 0, 1)
        rounds = []
        for trace in (3, 4, 6, 10, 30, 100, 1000, 10 ** 6, 10 ** 12, 2 ** 53 + 2):
            a = hc.validate_toral_matrix([[trace - 1, trace - 2], [1, 1]])
            elem = hc.holonomy_of_loop(a, model, hc.LoopClass(["gz"], base), cfg)
            rounds.append(runs[-1].rounds)
            lam = hc.eigen_basis(a).lam
            assert np.max(np.abs(elem.matrix * lam - np.eye(3))) < 1e-9
        assert rounds == [2] * 8 + [3] * 2


class TestClosedForms:
    """Holonomies against their closed forms, at the base point (0, 0, 1)
    where g is the identity.  The certificate's verdicts still read the
    integrated transport; these bounds sit about ten times above the
    measured errors at the default tolerances."""

    TRACES = (3, 4, 6, 10, 30, 100, 1000, 1001, 10 ** 6, 10 ** 12, 2 ** 53 + 2)

    @pytest.mark.parametrize("trace", TRACES)
    def test_generator_holonomies(self, model, cfg, trace):
        # gz: the deck differential undoes the transport up to 1/lambda, so
        # its holonomy is I / lambda (measured up to 2.7e-10 relative).  gx
        # and gy lift to straight segments at z = 1: the rotation by 2 dyt of
        # the orthonormal (v2, v3) components (measured up to 1.6e-15 and
        # 1.8e-12)
        a = hc.validate_toral_matrix([[trace - 1, trace - 2], [1, 1]])
        frame = hc.eigen_basis(a)
        base = ChartPoint(0, 0, 1)
        gz = hc.holonomy_of_loop(a, model, hc.LoopClass(["gz"], base), cfg).matrix
        assert np.max(np.abs(gz * frame.lam - np.eye(3))) <= 1e-9
        for gen, torus_step, bound in (("gx", [1.0, 0.0, 0.0], 2e-14),
                                       ("gy", [0.0, 1.0, 0.0], 2e-11)):
            dyt = (frame.torus_to_eigen @ torus_step)[1]
            h = hc.holonomy_of_loop(a, model, hc.LoopClass([gen], base), cfg).matrix
            assert np.max(np.abs(h - yt_transport(1.0, dyt))) <= bound

    def test_rectangle_turns_by_the_enclosed_curvature(self, model, cfg):
        # C6's contractible loop, 0.4 by 0.4 in (yt, z) from z = 1: the
        # (yt, z) leaf has K = -2 / z^2 and area element z^2 dyt dz, so the
        # frame turns by the integral of K dA = -0.32 (measured 5.2e-15 off
        # in angle, 1.5e-14 in the matrix)
        rect = hc.coordinate_rectangle(ChartPoint(0, 0, 1), 1, 2, 0.4)
        p = hc.transport_matrix(model, rect, cfg)
        assert abs(math.atan2(p[2, 1], p[1, 1]) + 0.32) <= 1e-13
        assert np.max(np.abs(p - yt_transport(1.0, -0.16))) <= 1e-13


def patched_connection(model, region, value):
    """The model with its connection set to ``value`` where region(z) holds."""
    connection = model.christoffel.connection

    def christoffel(c):
        return model.christoffel(c)

    def patched(c, v):
        out = connection(c, v)
        out[region(c[..., 2])] = value
        return out

    christoffel.connection = patched
    return dataclasses.replace(model, christoffel=christoffel)


class TestWorkBound:
    """A transport that cannot finish stops with IntegrationError, within its
    piece-step budget, and no batched step takes more than _MAX_LANES."""

    @staticmethod
    def transport_lanes(monkeypatch, m, curve):
        lanes = []
        original = transport._rk_step

        def recorded(f, t, y, h, k1, stats):
            lanes.append(f.shape[0])
            return original(f, t, y, h, k1, stats)

        monkeypatch.setattr(transport, "_rk_step", recorded)
        with np.errstate(all="ignore"), pytest.raises(transport.IntegrationError) as err:
            hc.transport_matrix(m, curve)
        assert max(lanes) <= transport._MAX_LANES
        return lanes, str(err.value)

    # the vertical segment from z = 1 to 2 has 8 z pieces; the fourth runs
    # from 2^(3/8) to 2^(4/8)
    VERTICAL = CurveSpec.from_points([ChartPoint(0, 0, 1), ChartPoint(0, 0, 2)])

    @pytest.mark.parametrize("value", (math.inf, math.nan))
    @pytest.mark.parametrize("start", (3.0, 3.4))
    def test_non_finite_connection_on_one_piece(self, model, monkeypatch, value, start):
        # from the fourth piece's start, or from inside it: every cut of a
        # piece there fails again, into 5 (_MIN_FACTOR), until one would be
        # narrower than _MIN_STEP, about 20 cuts deep; the cut pieces pend
        # as runs, so that takes about 20 batched steps
        m = patched_connection(model, lambda z: (z >= 2.0 ** (start / 8))
                               & (z < 2.0 ** (4.0 / 8)), value)
        lanes, message = self.transport_lanes(monkeypatch, m, self.VERTICAL)
        assert message == "step size underflow at t=0.0"
        assert len(lanes) <= 25

    def test_unresolvable_turn_underflows(self, model, monkeypatch):
        # a finite connection 1e150 times the model's inside the fourth
        # piece turns the frame too fast for any piece wider than _MIN_STEP:
        # the pieces there are cut until one would be narrower
        m = patched_connection(model, lambda z: (z > 2.0 ** (3.3 / 8))
                               & (z < 2.0 ** (3.6 / 8)), 1e150)
        lanes, message = self.transport_lanes(monkeypatch, m, self.VERTICAL)
        assert message == "step size underflow at t=0.0"
        assert sum(lanes) < 10_000

    def test_step_budget(self, model, monkeypatch):
        # the 10^4 rad segment needs 55,808 piece-steps; with a budget of
        # 2,000 the transport stops before it steps past the budget
        monkeypatch.setattr(transport, "_MAX_STEPS", 2_000)
        curve = CurveSpec.from_points([ChartPoint(0, 0, 100.0), ChartPoint(0, 50, 100.0)])
        lanes, message = self.transport_lanes(monkeypatch, model, curve)
        assert message == "transport ran out of steps"
        assert sum(lanes) <= 2_000
