"""Leaf checks: flat complete line, curved incomplete half-plane, splitting."""

import numpy as np
import pytest

import holocheck as hc
from holocheck import ChartPoint, TangentVector


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
        assert report.kind == "line_leaf"
        assert report.passed
        names = [i.name for i in report.items]
        assert "long_horizon_geodesic_completes" in names


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

    def test_report_passes(self, model, cfg):
        report = hc.leaf_second_check(model, [0.5, 1.0, 2.0, 7.0], cfg=cfg)
        assert report.kind == "halfplane_leaf"
        assert report.passed
        escape = next(i for i in report.items
                      if i.name == "downward_geodesic_escapes_at_t1")
        assert escape.residual <= 1e-6

    def test_gaussian_needs_2d(self, model):
        with pytest.raises(ValueError):
            hc.gaussian_curvature(model, np.array([0.0, 0.0, 1.0]))


class TestProductSplit:
    def test_report_passes(self, model, points100):
        report = hc.product_split_check(model, points100)
        assert report.passed
        by_name = {i.name: i for i in report.items}
        assert by_name["metric_block_diagonal"].residual == 0.0
        assert by_name["mixed_christoffel_vanish"].residual <= 1e-10
        assert by_name["planes_containing_line_flat"].residual <= 1e-8

    def test_distributions_orthogonal(self, model, points100):
        for p in points100[:25]:
            g = hc.metric_at(model, p)
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
