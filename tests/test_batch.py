"""Batched tensor pipeline against single-point calls.

The core functions take coordinates with leading batch axes; the public
``*_at`` functions are single-point calls on the same core.  A batch must
give exactly the values of the single-point calls, at sizes around the
chunk length the checks use, and every safety check must still fire when
one bad point sits inside a batch.
"""

import numpy as np
import pytest

import holocheck as hc
from holocheck import ChartDomainError, ChartPoint, DegeneratePlaneError, checklist
from holocheck import tensor_core as tc
from holocheck.checklist import CHUNK
from holocheck.transport import DEFAULT_CONFIG

SIZES = (1, CHUNK - 1, CHUNK, CHUNK + 1)
BAD = CHUNK // 2  # row of the bad point inside a batch


def sample_coords(n, dim=3, seed=3):
    rng = np.random.default_rng(seed)
    lo = [-5.0] * (dim - 1) + [0.2]
    hi = [5.0] * (dim - 1) + [10.0]
    return rng.uniform(lo, hi, (n, dim))


def model_pair(name):
    """(connection metric, target metric of the covariant derivative)."""
    model = hc.warped_metric()
    if name == "warped":
        return model, model
    if name == "conformal":
        gprime = hc.quotient_conformal_metric(model)
        return gprime, gprime
    leaf = hc.induced_halfplane_metric(model)
    return leaf, leaf


class TestBatchMatchesSinglePoints:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("name", ["warped", "conformal", "halfplane"])
    def test_tensors(self, name, n):
        m, target = model_pair(name)
        c = sample_coords(n, m.dim)
        u = np.eye(m.dim)[-2]
        v = np.random.default_rng(4).uniform(-1.0, 1.0, (n, m.dim))
        gamma = tc._christoffel(m, c)
        riemann, ricci, scalar = tc._curvature(m, c)
        sectional = hc.sectional_curvature(tc._metric(m, c), riemann, u, v)
        nabla = tc._nabla(gamma, tc._metric(target, c), tc._partials(target, c))
        assert gamma.shape == (n,) + (m.dim,) * 3
        assert riemann.shape == (n,) + (m.dim,) * 4
        assert scalar.shape == sectional.shape == (n,)
        for i in range(n):
            curv = hc.riemann_at(m, c[i])
            assert np.array_equal(hc.christoffel_at(m, c[i]).gamma, gamma[i])
            assert np.array_equal(curv.riemann, riemann[i])
            assert np.array_equal(curv.ricci, ricci[i])
            assert curv.scalar == scalar[i]
            assert hc.sectional_curvature(m.components(c[i]), curv.riemann,
                                          u, v[i]) == sectional[i]
            assert np.array_equal(
                hc.covariant_metric_derivative_at(m, target, c[i]), nabla[i])

    def test_numeric_partials_path(self, model):
        c = sample_coords(CHUNK + 1)
        batch = tc._nabla(tc._christoffel(model, c, "numeric", 1e-5), tc._metric(model, c),
                          tc._partials(model, c, "numeric", 1e-5))
        for i in range(len(c)):
            single = hc.covariant_metric_derivative_at(model, model, c[i],
                                                       method="numeric", h=1e-5)
            assert np.array_equal(single, batch[i])

    def test_gaussian_curvature(self, model):
        leaf = hc.induced_halfplane_metric(model)
        c = sample_coords(CHUNK + 1, dim=2)
        batch = hc.gaussian_curvature(leaf, c)
        assert [hc.gaussian_curvature(leaf, x) for x in c] == list(batch)

    def test_pullback_residual(self, cat, model):
        c = sample_coords(CHUNK + 1)
        batch = hc.pullback_metric_residual(cat, model, c)
        assert [hc.pullback_metric_residual(cat, model, ChartPoint(*x))
                for x in c] == list(batch)


def float_inverse(g):
    """The cofactor inverse of one 2x2 or 3x3 matrix, one Python float at a
    time: the bit reference for ``tensor_core._inv_small``."""
    rows = g.tolist()
    if len(rows) == 3:
        (a, b, c), (d, e, f), (p, q, r) = rows
        det = a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)
        return np.array([
            [e * r - f * q, c * q - b * r, b * f - c * e],
            [f * p - d * r, a * r - c * p, c * d - a * f],
            [d * q - e * p, b * p - a * q, a * e - b * d],
        ]) / det
    (a, b), (d, e) = rows
    return np.array([[e, -b], [-d, a]]) / (a * e - b * d)


class TestNonDiagonalBatches:
    """Off-diagonal cofactor terms: every built-in model metric is diagonal."""

    @pytest.mark.parametrize("n", (1, 2, CHUNK + 1))
    @pytest.mark.parametrize("kind, dim", [("general", 3), ("spd", 3), ("general", 2),
                                           ("spd", 2), ("diagonal", 3), ("diagonal", 2)],
                             ids=["general", "spd", "2x2-general", "2x2-spd",
                                  "diagonal", "2x2-diagonal"])
    def test_inverse(self, kind, dim, n):
        g = np.random.default_rng(n).normal(size=(n, dim, dim))
        if kind == "spd":
            g = g @ g.swapaxes(-1, -2) + 0.1 * np.eye(dim)
        elif kind == "diagonal":
            g = g * np.eye(dim)  # negative entries leave -0.0 off the diagonal
        batch = tc._inv_small(g)
        for i in range(n):
            reference = float_inverse(g[i]).tobytes()
            assert tc._inv_small(g[i]).tobytes() == reference
            assert batch[i].tobytes() == reference
        assert np.max(np.abs(batch @ g - np.eye(dim))) < 1e-8

    @pytest.mark.parametrize("n", (1, 2, CHUNK + 1))
    def test_christoffel(self, skewed, n):
        m = skewed
        c = sample_coords(n)
        batch = tc._christoffel(m, c)
        for i in range(n):
            assert np.array_equal(hc.christoffel_at(m, c[i]).gamma, batch[i])
        # the xt-yt term couples d_z g_yy into the xt row
        assert np.max(np.abs(batch[:, 0])) > 0.0


def test_checklist_residuals_are_single_point_maxima(cat):
    """A run at CHUNK + 1 samples reproduces the folds of single-point calls."""
    cfg = hc.ChecklistConfig(samples=CHUNK + 1, seed=5)
    by_id = {c.id: c.residual for c in hc.run_checklist(cfg).checks}
    ctx = checklist._Context(cfg, cat)
    m = ctx.metric
    gprime = hc.quotient_conformal_metric(m)
    pts = [ChartPoint(*c) for c in ctx.points]
    z = ctx.points[:, 2]
    e1, e2, e3 = np.eye(3)

    lam2 = ctx.frame.lam ** 2
    assert by_id["C2"] == max(
        hc.pullback_metric_residual(cat, m, p) / (lam2 * np.max(np.abs(m.components(p.coords))))
        for p in pts)

    exact = max(np.max(np.abs(hc.covariant_metric_derivative_at(m, m, p, method="exact")))
                for p in pts)
    # the closed-form connection against g's central differences
    numeric = max(np.max(np.abs(tc._nabla(
        hc.christoffel_at(m, p).gamma, m.components(p.coords),
        tc._partials(m, p.coords, "numeric", 1e-5)))) for p in pts)
    assert by_id["C3"] == max(exact / checklist._TOL_ABS, numeric / 1e-5)

    curv = [hc.riemann_at(m, p) for p in pts]
    gs = [m.components(p.coords) for p in pts]
    scalar = np.array([k.scalar for k in curv])
    k23 = np.array([hc.sectional_curvature(g, k.riemann, e2, e3) for g, k in zip(gs, curv)])
    flat = [hc.sectional_curvature(g, k.riemann, e1,
                                   np.array([0.3, np.cos(theta), np.sin(theta)]))
            for g, k, theta in zip(gs, curv, ctx.mixed_planes)]
    assert by_id["C4"] == max(
        np.max(np.abs(scalar * z ** 2 / -4.0 - 1.0)) / checklist._TOL_REL,
        np.max(np.abs(k23 * z ** 2 / -2.0 - 1.0)) / checklist._TOL_REL,
        max(abs(k) for k in flat) / checklist._TOL_ABS)

    deviations = [hc.conformal_deviation_at(m, gprime, p, d)
                  for p, d in zip(pts, ctx.directions)]
    mu_err = max(abs(mu - (-2.0 * d[2] / p.z))
                 for (mu, _), p, d in zip(deviations, pts, ctx.directions))
    invariance = max(hc.pullback_metric_residual(cat, gprime, p, expected_factor=1.0)
                     for p in pts)
    assert by_id["C9"] == max(max(res for _, res in deviations) / checklist._TOL_ABS,
                              mu_err / 1e-8, invariance / 1e-10)

    leaf = hc.induced_halfplane_metric(m)
    curv_res = max(abs(hc.gaussian_curvature(leaf, np.array([0.0, p.z])) * p.z * p.z
                       / -2.0 - 1.0) for p in pts)
    _, xs, vs, term = hc.integrate_geodesic_coords(leaf, [0.0, 1.0], [0.0, -1.0], 2.0,
                                                   DEFAULT_CONFIG)
    assert by_id["C11"] == max(curv_res / 1e-6,
                               abs(term.t_escape + xs[-1, 1] / abs(vs[-1, 1]) - 1.0) / 1e-8,
                               abs(term.t_escape - (1.0 - hc.Z_FLOOR)) / 1e-8)

    mixed_gamma = mixed_plane = 0.0
    for p, g, k, v in zip(pts, gs, curv, ctx.split_planes):
        gamma = hc.christoffel_at(m, p).gamma
        mixed_gamma = max(mixed_gamma, np.max(np.abs(gamma[0])), np.max(np.abs(gamma[:, 0])),
                          np.max(np.abs(gamma[:, :, 0])))
        mixed_plane = max(mixed_plane, abs(hc.sectional_curvature(g, k.riemann, e1, v)))
    # the block, constancy and z-dependence parts are exactly 0 for the model
    assert by_id["C12"] == max(mixed_gamma / 1e-10, mixed_plane / 1e-8)


class TestBatchSafetyChecks:
    """One bad point inside a batch of CHUNK + 1 trips each safety check."""

    def batch(self, row_value=None):
        c = sample_coords(CHUNK + 1)
        if row_value is not None:
            c[BAD] = row_value
        return c

    def test_floor_in_batch(self, model):
        tc._coords(model, self.batch(), batch=True)
        with pytest.raises(ChartDomainError, match="floor"):
            tc._coords(model, self.batch([0.0, 0.0, 1e-7]), batch=True)

    def test_nonfinite_in_batch(self, model):
        with pytest.raises(ChartDomainError, match="non-finite"):
            tc._coords(model, self.batch([np.nan, 0.0, 1.0]), batch=True)
        with pytest.raises(ChartDomainError, match="non-finite"):
            tc._coords(model, self.batch([0.0, np.inf, 1.0]), batch=True)

    def test_batch_shape_checked(self, model):
        with pytest.raises(ChartDomainError):
            tc._coords(model, np.ones((4, 2)), batch=True)
        with pytest.raises(ChartDomainError):
            tc._coords(model, self.batch())  # single-point calls take one point

    def test_stencil_floor_in_batch(self, model):
        c = self.batch([0.0, 0.0, 2e-6])
        with pytest.raises(ChartDomainError, match="stencil") as info:
            tc._partials(model, c, "numeric", 1e-5)
        assert "z=2e-06" in str(info.value)
        with pytest.raises(ChartDomainError, match="stencil"):
            tc._curvature(model, c, h=1e-5)
        # the default step shrinks per point, so the same batch is fine
        assert np.all(np.isfinite(tc._partials(model, c, "numeric")))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degenerate_plane_in_batch(self, model):
        # v = 2u makes the Gram determinant exactly 0, on the axis path and
        # on the contracted one: the test comes before the division, so no
        # division-by-zero warning is emitted first
        c = self.batch()
        riemann, _, _ = tc._curvature(model, c)
        for u in (np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.6, 0.8])):
            v = np.random.default_rng(6).uniform(-1.0, 1.0, c.shape)
            hc.sectional_curvature(tc._metric(model, c), riemann, u, v)
            v[BAD] = 2.0 * u
            with pytest.raises(DegeneratePlaneError):
                hc.sectional_curvature(tc._metric(model, c), riemann, u, v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nonfinite_riemann_reads_nan_at_its_point(self, model):
        # u is no coordinate axis, so it is contracted into R first; the
        # infinite entry alone would make K infinite there, the rule makes it NaN
        c = self.batch()
        g = tc._metric(model, c)
        riemann, _, _ = tc._curvature(model, c)
        u = np.array([0.0, 0.6, 0.8])
        v = np.random.default_rng(6).uniform(-1.0, 1.0, c.shape)
        want = hc.sectional_curvature(g, riemann, u, v)
        riemann[BAD, 1, 2, 1, 2] = np.inf
        got = hc.sectional_curvature(g, riemann, u, v)
        assert np.isnan(got[BAD])
        others = np.arange(len(c)) != BAD
        assert np.array_equal(got[others], want[others])
        assert np.isnan(hc.sectional_curvature(g[BAD], riemann[BAD], u, v[BAD]))

    def test_zero_direction_in_batch(self, model):
        c = self.batch()
        d = np.random.default_rng(7).uniform(-1.0, 1.0, c.shape)
        d[BAD] = 0.0
        with pytest.raises(ValueError, match="zero"):
            tc._conformal_fit(tc._nabla(tc._christoffel(model, c), tc._metric(model, c),
                                        tc._partials(model, c)), tc._metric(model, c), d)

    def test_checks_reject_floor_point(self, cat, model):
        c = self.batch([0.0, 0.0, 1e-7])
        ctx = checklist._Context(hc.ChecklistConfig(samples=len(c)), cat)
        ctx.points = c
        for check_id in ("C2", "C3", "C4", "C9", "C11", "C12"):
            with pytest.raises(ChartDomainError, match="floor"):
                ctx.swept(check_id)
        with pytest.raises(ChartDomainError):
            hc.pullback_metric_residual(cat, model, c)
