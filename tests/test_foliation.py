"""Leaf checks: flat complete line, curved incomplete half-plane, splitting."""

import numpy as np
import pytest

import holocheck as hc
from holocheck import ChartPoint, TangentVector, checklist, tensor_core


@pytest.fixture(scope="module")
def sweep(cat):
    """The checklist's sweep over 100 sample points."""
    return checklist._Context(hc.ChecklistConfig(samples=100, seed=1), cat)


@pytest.fixture(scope="module")
def points100():
    rng = np.random.default_rng(1)
    return [ChartPoint(x, y, z)
            for x, y, z in rng.uniform([-5, -5, 0.2], [5, 5, 10], (100, 3))]


class TestLineLeaf:
    def test_induced_metric_is_constant_one(self, model):
        line = hc.induced_line_metric(model)
        for x in (-10.0, 0.0, 3.7):
            np.testing.assert_allclose(line.components(np.array([x])), [[1.0]], atol=0)

    def test_report_passes(self, model, cfg):
        report = hc.leaf_first_check(model, t_max=1e3, cfg=cfg)
        assert report.passed
        names = [i.name for i in report.items]
        assert "long_horizon_geodesic_completes" in names

    def test_nan_metric_fails(self, model, cfg):
        # NaN in g at xt = 4, one of the leaf's sample points; the geodesic
        # and the transport read the closed-form symbols, which stay finite
        def components(c):
            g = model.components(c)
            g[c[..., 0] == 4.0] = np.nan
            return g

        nan_model = hc.MetricField(components, model.exact_partials,
                                   christoffel=model.christoffel)
        report = hc.leaf_first_check(nan_model, t_max=10.0, cfg=cfg)
        assert not report.passed
        assert report.items[0].name == "induced_metric_constant"
        assert report.items[0].residual == np.inf
        assert all(item.residual == 0.0 for item in report.items[1:])


def sheared_leaf():
    """E = v^4 + u^2/10, F = uv/5, G = 1 + v/4 on (u, v), v > 0: F != 0 and
    every entry depends on u or v, with exact partials."""

    def components(c):
        u, v = c[..., 0], c[..., 1]
        g = np.empty(c.shape[:-1] + (2, 2))
        g[..., 0, 0] = v ** 4 + 0.1 * u * u
        g[..., 0, 1] = g[..., 1, 0] = 0.2 * u * v
        g[..., 1, 1] = 1.0 + 0.25 * v
        return g

    def partials(c):
        u, v = c[..., 0], c[..., 1]
        d = np.empty(c.shape[:-1] + (2, 2, 2))
        d[..., 0, 0, 0], d[..., 1, 0, 0] = 0.2 * u, 4.0 * v ** 3
        d[..., 0, 0, 1] = d[..., 0, 1, 0] = 0.2 * v
        d[..., 1, 0, 1] = d[..., 1, 1, 0] = 0.2 * u
        d[..., 0, 1, 1], d[..., 1, 1, 1] = 0.0, 0.25
        return d

    return hc.MetricField(components, partials, label="sheared leaf", dim=2)


class TestHalfplaneLeaf:
    def test_induced_metric(self, model):
        leaf = hc.halfplane_leaf(model)
        g = leaf.induced_metric.components(np.array([0.3, 2.0]))
        np.testing.assert_allclose(g, np.diag([16.0, 1.0]), atol=0)

    @pytest.mark.parametrize("z,k", [(1.0, -2.0), (2.0, -0.5)])
    def test_gaussian_curvature_values(self, model, z, k):
        leaf = hc.halfplane_leaf(model)
        kk = hc.gaussian_curvature(leaf.induced_metric, np.array([0.0, z]))
        assert abs(kk - k) < 1e-6 * abs(k)

    def test_curvature_normalization_across_z(self, model):
        leaf = hc.halfplane_leaf(model)
        for z in np.geomspace(0.2, 10.0, 17):
            kk = hc.gaussian_curvature(leaf.induced_metric, np.array([0.0, z]))
            assert abs(kk * z * z / -2.0 - 1.0) < 1e-6

    def test_brioschi_matches_riemann_pipeline(self):
        # the oracle: the 2-D Riemann tensor and the (e1, e2) sectional curvature
        m = sheared_leaf()
        c = np.random.default_rng(5).uniform([-5.0, 0.2], [5.0, 10.0], (300, 2))
        riemann, _, _ = tensor_core._curvature(m, c)
        want = hc.sectional_curvature(tensor_core._metric(m, c), riemann,
                                      np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        got = hc.gaussian_curvature(m, c)
        assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want))

    def test_single_point_model_without_partials(self):
        # differences of central differences, one stencil point at a time
        m2 = hc.MetricField(lambda c: np.diag([c[1] ** 4, 1.0]), dim=2)
        assert abs(hc.gaussian_curvature(m2, np.array([0.0, 2.0])) + 0.5) < 1e-6

    def test_exponent_3_leaf(self):
        leaf = hc.halfplane_leaf(hc.warped_metric(3.0)).induced_metric
        z = np.geomspace(0.2, 10.0, 33)
        k = hc.gaussian_curvature(leaf, np.stack([np.zeros_like(z), z], axis=-1))
        assert np.all(np.abs(k * z * z + 0.75) <= 1e-7)

    def test_report_passes(self, sweep):
        c11 = checklist._check_halfplane_leaf(sweep)
        assert c11.passed
        assert "downward_geodesic_escapes_at_t1: residual=" in c11.note
        assert sweep.swept("C11")["gaussian_curvature_times_z2_is_minus_2"] <= 1e-6

    def test_gaussian_needs_2d(self, model):
        with pytest.raises(ValueError):
            hc.gaussian_curvature(model, np.array([0.0, 0.0, 1.0]))


class TestProductSplit:
    def test_report_passes(self, sweep):
        assert checklist._check_product_split(sweep).passed
        out = sweep.swept("C12")
        assert out["metric_block_diagonal"] == 0.0
        assert out["mixed_christoffel_vanish"] <= 1e-10
        assert out["planes_containing_line_flat"] <= 1e-8

    def test_distributions_orthogonal(self, model, points100):
        for p in points100[:25]:
            g = model.components(p.coords)
            assert g[0, 1] == 0.0 and g[0, 2] == 0.0

    def test_leaves_totally_geodesic(self, model, cfg):
        p0 = ChartPoint(0.0, 0.0, 2.0)
        halfplane = hc.integrate_geodesic(model, p0, TangentVector(p0, [0, 0.3, -0.1]),
                                          5.0, cfg)
        assert halfplane.termination.completed
        assert max(abs(s.point.xt) for s in halfplane.samples) < 1e-7
        line = hc.integrate_geodesic(model, p0, TangentVector(p0, [1, 0, 0]), 5.0, cfg)
        assert max(abs(s.point.yt) for s in line.samples) < 1e-7
        assert max(abs(s.point.z - 2.0) for s in line.samples) < 1e-7
