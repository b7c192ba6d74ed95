"""Pointwise tensor pipeline against hand-derived closed forms.

For the model metric dx^2 + z^4 dy^2 + dz^2 the Koszul formula gives, in
0-based indices, gamma[1,1,2] = gamma[1,2,1] = 2/z and gamma[2,1,1] =
-2 z^3 as the only nonzero symbols; from those the scalar curvature is
-4/z^2 and the (e1, e2) plane has sectional curvature -2/z^2.  The
numeric-partials path is the independent oracle for the exact one.

The model ships those symbols in closed form; they are the Levi-Civita
connection of g bit for bit, and a sympy derivation pins them.  The same
derivation pins the Riemann tensor, the scalar and sectional curvature and
the Lee form theta = -2 dz/z of g' = z^-2 g.
"""

import dataclasses
import functools
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import holocheck as hc
from holocheck import (
    ChartDomainError,
    ChartPoint,
    DegeneratePlaneError,
    MetricField,
    TangentVector,
    checklist,
    foliation,
    tensor_core,
)
from holocheck.checklist import CHUNK
from holocheck.tensor_core import Z_FLOOR


def gamma_closed_form(z):
    g = np.zeros((3, 3, 3))
    g[1, 1, 2] = g[1, 2, 1] = 2.0 / z
    g[2, 1, 1] = -2.0 * z**3
    return g


class TestChartTypes:
    def test_rejects_nonpositive_z(self):
        with pytest.raises(ChartDomainError):
            ChartPoint(0.0, 0.0, 0.0)
        with pytest.raises(ChartDomainError):
            ChartPoint(0.0, 0.0, -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ChartDomainError):
            ChartPoint(np.nan, 0.0, 1.0)
        with pytest.raises(ValueError):
            TangentVector(ChartPoint(0, 0, 1), [np.inf, 0.0, 0.0])

    def test_coords_roundtrip(self):
        p = ChartPoint(1.5, -2.0, 0.25)
        assert np.array_equal(p.coords, [1.5, -2.0, 0.25])
        assert ChartPoint.from_coords(p.coords) == p

    def test_tangent_vector_is_frozen(self):
        v = TangentVector(ChartPoint(0, 0, 1), [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            v.comp[0] = 5.0


class TestMetricAt:
    """The model's components at chart points."""

    def test_model_at_z2(self, model):
        g = model.components(ChartPoint(0, 0, 2).coords)
        np.testing.assert_allclose(g, np.diag([1.0, 16.0, 1.0]), atol=0)

    def test_model_at_z1_is_identity(self, model):
        g = model.components(ChartPoint(5, -3, 1).coords)
        np.testing.assert_allclose(g, np.eye(3), atol=0)

    def test_euclidean_anywhere(self, euclid):
        g = euclid.components(ChartPoint(9.0, -7.0, 0.3).coords)
        np.testing.assert_allclose(g, np.eye(3), atol=0)


class TestMetricPartials:
    def test_exact_at_z1(self, model):
        d = tensor_core._partials(model, np.array([0.0, 0.0, 1.0]))
        expected = np.zeros((3, 3, 3))
        expected[2, 1, 1] = 4.0
        np.testing.assert_allclose(d, expected, atol=0)

    def test_euclidean_zero(self, euclid):
        d = tensor_core._partials(euclid, np.array([1.0, 2.0, 3.0]))
        assert np.all(d == 0.0)

    def test_numeric_matches_exact_derivative(self, model):
        # oracle: d_z z^4 = 4 z^3 = 32 at z = 2
        d = tensor_core._partials(model, np.array([0.0, 0.0, 2.0]), "numeric", 1e-5)
        assert abs(d[2, 1, 1] - 32.0) < 1e-6
        d[2, 1, 1] = 0.0
        assert np.max(np.abs(d)) < 1e-9

    def test_explicit_step_must_stay_in_chart(self, model):
        with pytest.raises(ChartDomainError):
            tensor_core._partials(model, np.array([0.0, 0.0, 2e-6]), "numeric", 1e-5)
        with pytest.raises(ChartDomainError):
            tensor_core._partials(model, np.array([0.0, 0.0, 0.5]), "numeric", 0.6)

    def test_default_step_caps_near_floor(self, model):
        # the automatic step shrinks so the stencil stays inside the chart
        d = tensor_core._partials(model, np.array([0.0, 0.0, 2e-6]), "numeric")
        assert np.all(np.isfinite(d))

    def test_exact_method_requires_exact_partials(self):
        bare = MetricField(lambda c: np.eye(3))
        with pytest.raises(ValueError):
            tensor_core._partials(bare, np.array([0.0, 0.0, 1.0]), "exact")


class TestChristoffel:
    @pytest.mark.parametrize("z", [1.0, 2.0, 0.37, 6.0])
    def test_matches_closed_form(self, model, z):
        gamma = hc.christoffel_at(model, ChartPoint(0.4, -1.0, z)).gamma
        np.testing.assert_allclose(gamma, gamma_closed_form(z), rtol=1e-13, atol=1e-13)

    def test_euclidean_zero(self, euclid):
        gamma = hc.christoffel_at(euclid, ChartPoint(1, 1, 1)).gamma
        assert np.all(gamma == 0.0)

    def test_lower_index_symmetry_exact(self, model):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = ChartPoint(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.2, 10))
            gamma = hc.christoffel_at(model, p).gamma
            assert np.array_equal(gamma, gamma.transpose(0, 2, 1))

    def test_numeric_path_second_order(self, model):
        # halving h divides the defect against the exact path by ~4
        p = ChartPoint(0.4, -1.3, 1.7)
        exact = hc.christoffel_at(model, p, method="exact").gamma
        e1 = np.max(np.abs(hc.christoffel_at(model, p, method="numeric", h=1e-4).gamma - exact))
        e2 = np.max(np.abs(hc.christoffel_at(model, p, method="numeric", h=5e-5).gamma - exact))
        assert 3.5 < e1 / e2 < 4.5


class TestCurvature:
    @pytest.mark.parametrize("z,scalar", [(1.0, -4.0), (2.0, -1.0)])
    def test_scalar_values(self, model, z, scalar):
        curv = hc.riemann_at(model, ChartPoint(0, 0, z))
        assert abs(curv.scalar - scalar) < 1e-8

    def test_scalar_times_z2_constant(self, model):
        rng = np.random.default_rng(5)
        for _ in range(25):
            z = rng.uniform(0.2, 10.0)
            curv = hc.riemann_at(model, ChartPoint(rng.uniform(-5, 5), 0.0, z))
            assert abs(curv.scalar * z * z / -4.0 - 1.0) < 1e-6

    def test_antisymmetry_and_bianchi(self, model):
        curv = hc.riemann_at(model, ChartPoint(0.3, 1.1, 0.8))
        r = curv.riemann
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 1e-10
        bianchi = r + r.transpose(0, 2, 3, 1) + r.transpose(0, 3, 1, 2)
        assert np.max(np.abs(bianchi)) < 1e-6
        assert np.max(np.abs(curv.ricci - curv.ricci.T)) < 1e-10

    def test_euclidean_flat(self, euclid):
        curv = hc.riemann_at(euclid, ChartPoint(2, -2, 4))
        assert np.all(curv.riemann == 0.0)
        assert curv.scalar == 0.0

    def test_two_dimensional_pipeline(self):
        # same engine, dim = 2: warped half-plane diag(z^4, 1) over (yt, z)
        def components(c):
            return np.diag([c[1] ** 4, 1.0])

        m2 = MetricField(components, dim=2)
        k = sectional_at(m2, np.array([0.0, 2.0]), [1.0, 0.0], [0.0, 1.0])
        assert abs(k - (-0.5)) < 1e-6


def sectional_at(m, p, u, v):
    """Sectional curvature of span(u, v) at ``p`` from the public single-point calls."""
    c = p.coords if isinstance(p, ChartPoint) else np.asarray(p, dtype=float)
    return hc.sectional_curvature(m.components(c), hc.riemann_at(m, p).riemann,
                                  np.asarray(u, dtype=float), np.asarray(v, dtype=float))


class TestSectional:
    def test_curved_plane(self, model):
        k = sectional_at(model, ChartPoint(0, 0, 1), [0, 1, 0], [0, 0, 1])
        assert abs(k - (-2.0)) < 1e-8

    def test_flat_plane(self, model):
        assert abs(sectional_at(model, ChartPoint(0, 0, 1), [1, 0, 0], [0, 0, 1])) < 1e-10

    def test_degenerate_plane(self, model):
        with pytest.raises(DegeneratePlaneError):
            sectional_at(model, ChartPoint(1, 1, 1), [1, 0, 0], [2, 0, 0])


class TestCovariantDerivative:
    def test_metric_compatibility(self, model):
        nabla = hc.covariant_metric_derivative_at(model, model, ChartPoint(0, 0, 1.7))
        assert np.max(np.abs(nabla)) < 1e-8

    def test_conformal_target(self, model):
        # grad (z^-2 g) = d(z^-2) tensor g: only the z-direction survives
        gprime = hc.quotient_conformal_metric(model)
        p = ChartPoint(0, 0, 1)
        nabla = hc.covariant_metric_derivative_at(model, gprime, p)
        gp = gprime.components(p.coords)
        np.testing.assert_allclose(nabla[2], -2.0 * gp, atol=1e-10)
        assert np.max(np.abs(nabla[0])) < 1e-10
        assert np.max(np.abs(nabla[1])) < 1e-10

    def test_euclidean_zero(self, euclid):
        nabla = hc.covariant_metric_derivative_at(euclid, euclid, ChartPoint(3, 3, 3))
        assert np.all(nabla == 0.0)


class TestConformalDeviation:
    def test_vertical_direction(self, model):
        gprime = hc.quotient_conformal_metric(model)
        p = ChartPoint(0, 0, 2)
        mu, res = hc.conformal_deviation_at(model, gprime, p,
                                            TangentVector(p, [0, 0, 1]))
        assert abs(mu - (-1.0)) < 1e-10
        assert res < 1e-8

    def test_horizontal_direction(self, model):
        gprime = hc.quotient_conformal_metric(model)
        p = ChartPoint(0, 0, 1)
        mu, res = hc.conformal_deviation_at(model, gprime, p,
                                            TangentVector(p, [1, 0, 0]))
        assert abs(mu) < 1e-10
        assert res < 1e-8

    def test_metric_itself_has_zero_deviation(self, model):
        p = ChartPoint(1.0, -4.0, 3.3)
        mu, res = hc.conformal_deviation_at(model, model, p,
                                            TangentVector(p, [0.3, -1.0, 0.4]))
        assert abs(mu) < 1e-10
        assert res < 1e-8

    def test_zero_direction_rejected(self, model):
        p = ChartPoint(0, 0, 1)
        with pytest.raises(ValueError):
            hc.conformal_deviation_at(model, model, p, TangentVector(p, [0, 0, 0]))


def levi_civita(m, c):
    """Gamma built the generic way: the Levi-Civita connection of g."""
    return tensor_core._levi_civita(tensor_core._inv_small(tensor_core._metric(m, c)),
                                    tensor_core._partials(m, c, "exact"))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def perturbed_connection(exponent=4.0):
    """The model metric with Gamma^yt_{yt z} and Gamma^yt_{z yt} off by 1e-6."""
    base = hc.warped_metric(exponent)

    def christoffel(c):
        out = base.christoffel(c)
        out[..., 1, 1, 2] *= 1.0 + 1e-6
        out[..., 1, 2, 1] *= 1.0 + 1e-6
        return out

    return dataclasses.replace(base, christoffel=christoffel)


def boom(c):
    raise RuntimeError("closed form read")


@functools.cache
def symbolic_model():
    """The model dx^2 + z^e dy^2 + dz^2 derived in sympy, for every exponent e.

    ``gamma[k][i][j]`` is Gamma^k_ij of the Levi-Civita connection (Koszul
    formula), ``riemann[i, j, k, l]`` is R^i_jkl in the package's convention,
    ``ricci`` and ``scalar`` are its contractions, ``k23`` is the sectional
    curvature of the (e2, e3) plane, and ``theta`` is the Lee form of
    g' = z^-2 g, read off nabla g' = theta (x) g'.  Only tests import sympy.
    """
    sp = pytest.importorskip("sympy")
    x, y, z, e = sp.symbols("x y z e", positive=True)
    coords = (x, y, z)
    g = sp.diag(1, z ** e, 1)
    ginv = g.inv()
    gamma = [[[sp.simplify(sum(ginv[k, l] * (sp.diff(g[j, l], coords[i])
                                             + sp.diff(g[i, l], coords[j])
                                             - sp.diff(g[i, j], coords[l]))
                               for l in range(3)) / 2)
               for j in range(3)] for i in range(3)] for k in range(3)]
    riemann = sp.MutableDenseNDimArray.zeros(3, 3, 3, 3)
    for i, j, k, l in np.ndindex(3, 3, 3, 3):
        riemann[i, j, k, l] = sp.simplify(
            sp.diff(gamma[i][l][j], coords[k]) - sp.diff(gamma[i][k][j], coords[l])
            + sum(gamma[i][k][p] * gamma[p][l][j] - gamma[i][l][p] * gamma[p][k][j]
                  for p in range(3)))
    ricci = sp.Matrix(3, 3, lambda j, l: sp.simplify(sum(riemann[i, j, i, l]
                                                         for i in range(3))))
    scalar = sp.simplify(sum(ginv[j, l] * ricci[j, l] for j in range(3) for l in range(3)))
    # K(u, v) = g(R(u, v) v, u) / (g(u, u) g(v, v) - g(u, v)^2) with u = e2, v = e3
    k23 = sp.simplify(g[1, 1] * riemann[1, 2, 1, 2] / (g[1, 1] * g[2, 2]))
    gp = g / z ** 2
    nabla = [[[sp.simplify(sp.diff(gp[i, j], coords[k])
                           - sum(gamma[l][k][i] * gp[l, j] + gamma[l][k][j] * gp[i, l]
                                 for l in range(3)))
               for j in range(3)] for i in range(3)] for k in range(3)]
    # theta_k = nabla_k g' / g' read off the (x, x) entry, where g' = z^-2
    theta = [sp.simplify(nabla[k][0][0] / gp[0, 0]) for k in range(3)]
    return types.SimpleNamespace(sp=sp, z=z, e=e, gamma=gamma, riemann=riemann,
                                 ricci=ricci, scalar=scalar, k23=k23, nabla=nabla,
                                 gprime=gp, theta=theta)


class TestClosedFormConnection:
    # heights from just above the chart floor to 1e6; beyond that z^e
    # under- or overflows and both paths give non-finite symbols
    Z = np.geomspace(1.01 * Z_FLOOR, 1e6, 2000)

    @pytest.mark.parametrize("exponent", (4.0, 3.0))
    def test_same_bits_as_levi_civita(self, exponent):
        m = hc.warped_metric(exponent)
        rng = np.random.default_rng(4)
        c = np.stack([rng.uniform(-5, 5, self.Z.size), rng.uniform(-5, 5, self.Z.size),
                      self.Z], axis=-1)
        for batch in (c, c[:1], c[-1:], c[:CHUNK + 1], c[-CHUNK - 1:]):
            assert same_bits(m.christoffel(batch), levi_civita(m, batch))
        for point in c[::20]:
            assert same_bits(m.christoffel(point), levi_civita(m, point))

    def test_auto_and_exact_read_it_numeric_does_not(self, model):
        unread = dataclasses.replace(model, christoffel=boom)
        p = ChartPoint(0.4, -1.0, 2.0)
        for method in ("auto", "exact"):
            with pytest.raises(RuntimeError):
                hc.christoffel_at(unread, p, method=method)
        numeric = hc.christoffel_at(unread, p, method="numeric").gamma
        np.testing.assert_allclose(numeric, gamma_closed_form(2.0), rtol=1e-9, atol=1e-9)

    def test_curvature_reads_dgamma_unless_numeric_or_stepped(self, model):
        def christoffel(c):
            return model.christoffel(c)

        christoffel.partials = boom
        unread = dataclasses.replace(model, christoffel=christoffel)
        p = ChartPoint(0.4, -1.0, 2.0)
        for method in ("auto", "exact"):
            with pytest.raises(RuntimeError):
                hc.riemann_at(unread, p, method=method)
        for kwargs in ({"method": "numeric"}, {"h": 1e-5}, {"method": "exact", "h": 1e-5}):
            riemann = hc.riemann_at(unread, p, **kwargs).riemann
            np.testing.assert_allclose(riemann, hc.riemann_at(model, p).riemann,
                                       rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("exponent", (4.0, 3.0, 4.001))
    def test_shipped_dgamma(self, exponent):
        # the model's d_k Gamma^a_ij against sympy's derivative of the
        # oracle's symbols, and against central differences of its symbols
        oracle = symbolic_model()
        sp, z, e, gamma = oracle.sp, oracle.z, oracle.e, oracle.gamma
        m = hc.warped_metric(exponent)
        zs = np.geomspace(0.02, 100.0, 41)
        c = np.stack([np.full_like(zs, 0.3), np.full_like(zs, -1.2), zs], -1)
        got = m.christoffel.partials(c)
        assert got.shape == (zs.size, 3, 3, 3, 3)
        e_exact = sp.Rational(exponent)  # the float's exact value
        for a, i, j in np.ndindex(3, 3, 3):
            dz = sp.diff(gamma[a][i][j], z).subs(e, e_exact)
            for zv, row in zip(zs, got):
                assert row[0, a, i, j] == row[1, a, i, j] == 0.0
                want = float(sp.N(dz.subs(z, sp.Float(zv, 30)), 30))
                if want == 0.0:
                    assert row[2, a, i, j] == 0.0
                else:
                    assert abs(row[2, a, i, j] - want) <= 4 * np.spacing(abs(want))
        stencil = tensor_core._central_difference(m, m.christoffel, c, None)
        np.testing.assert_allclose(stencil, got, rtol=0, atol=3e-7 * np.max(np.abs(got)))
        big = zs >= 0.5
        np.testing.assert_allclose(stencil[big], got[big], rtol=0,
                                   atol=1e-9 * np.max(np.abs(got[big])))

    def test_unknown_method_still_rejected(self, model):
        with pytest.raises(ValueError):
            hc.christoffel_at(model, ChartPoint(0, 0, 1), method="closed")

    @pytest.mark.parametrize("exponent", (4.0, 3.0))
    def test_sympy_oracle(self, exponent):
        oracle = symbolic_model()
        sp, z, e, gamma = oracle.sp, oracle.z, oracle.e, oracle.gamma
        expected = {(1, 1, 2): e / (2 * z), (1, 2, 1): e / (2 * z),
                    (2, 1, 1): -e / 2 * z ** (e - 1)}
        for k in range(3):
            for i in range(3):
                for j in range(3):
                    assert sp.simplify(gamma[k][i][j] - expected.get((k, i, j), 0)) == 0
        m = hc.warped_metric(exponent)
        zs = np.geomspace(1.01 * Z_FLOOR, 1e6, 101)
        closed = m.christoffel(np.stack([np.zeros_like(zs), np.zeros_like(zs), zs], -1))
        for zv, got in zip(zs, closed):
            for k in range(3):
                for i in range(3):
                    for j in range(3):
                        exact = gamma[k][i][j].subs({e: sp.Integer(int(exponent)),
                                                     z: sp.Float(zv, 30)})
                        want = float(sp.N(exact, 30))
                        if want == 0.0:
                            assert got[k, i, j] == 0.0
                        else:
                            assert abs(got[k, i, j] - want) <= 4 * np.spacing(abs(want))

    def test_sympy_curvature(self):
        oracle = symbolic_model()
        sp, z, e = oracle.sp, oracle.z, oracle.e
        assert sp.simplify(oracle.scalar - e * (2 - e) / (2 * z ** 2)) == 0
        assert sp.simplify(oracle.scalar.subs(e, 4) + 4 / z ** 2) == 0
        assert sp.simplify(oracle.k23.subs(e, 4) + 2 / z ** 2) == 0
        # planes containing e1 are flat: no component of R has an index along x
        for i, j, k, l in np.ndindex(3, 3, 3, 3):
            if 0 in (i, j, k, l):
                assert oracle.riemann[i, j, k, l] == 0

    # The Riemann tensor reads the model's closed-form derivatives of the
    # symbols, so it is exact to roundoff down to z = 0.02.  Central
    # differences of the symbols at h = 1e-5 max(1, z), the stencil an
    # explicit step takes, have a relative truncation error of about
    # (h/z)^2: from z = 0.5 up it stays under the Christoffel oracle's bound
    # for central differences, 1e-9 relative (2.5e-9 at z = 0.2, 2.5e-7 at
    # z = 0.02).
    HEIGHTS = (0.5, 1.0, 2.0, 7.5, 30.0, 100.0)

    @pytest.mark.parametrize("exponent", (4.0, 3.0))
    def test_sympy_riemann_oracle(self, exponent):
        oracle = symbolic_model()
        sp, z, e = oracle.sp, oracle.z, oracle.e
        at = sp.lambdify(z, sp.Array(oracle.riemann).subs(e, sp.Integer(int(exponent))))
        m = hc.warped_metric(exponent)
        ex, ey, ez = np.eye(3)
        paths = [(zv, None, 2e-15) for zv in (0.02, 0.2) + self.HEIGHTS]
        paths += [(zv, 1e-5 * max(1.0, zv), 1e-9) for zv in self.HEIGHTS]
        for zv, h, rtol in paths:
            want = np.array(at(zv), dtype=float)
            curv = hc.riemann_at(m, ChartPoint(0.3, -1.2, zv), h=h)
            np.testing.assert_allclose(curv.riemann, want, rtol=rtol, atol=0)
            scalar = float(oracle.scalar.subs({e: exponent, z: zv}))
            assert curv.scalar == pytest.approx(scalar, rel=rtol, abs=0)
            g = m.components(np.array([0.3, -1.2, zv]))
            k23 = float(oracle.k23.subs({e: exponent, z: zv}))
            assert hc.sectional_curvature(g, curv.riemann, ey, ez) == \
                pytest.approx(k23, rel=rtol, abs=0)
            assert hc.sectional_curvature(g, curv.riemann, ex, ez) == 0.0

    def test_sympy_lee_form(self, model):
        oracle = symbolic_model()
        sp, z, e = oracle.sp, oracle.z, oracle.e
        assert [sp.simplify(t) for t in oracle.theta] == [0, 0, -2 / z]
        # nabla g' = theta (x) g' holds in every entry, at every exponent
        for k, i, j in np.ndindex(3, 3, 3):
            assert sp.simplify(oracle.nabla[k][i][j]
                               - oracle.theta[k] * oracle.gprime[i, j]) == 0
        gprime = hc.quotient_conformal_metric(model)
        for zv in self.HEIGHTS:
            p = ChartPoint(0.3, -1.2, zv)
            theta = np.array([float(t.subs({e: 4, z: zv})) for t in oracle.theta])
            want = theta[:, None, None] * gprime.components(p.coords)
            got = hc.covariant_metric_derivative_at(model, gprime, p)
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)

    def test_import_leaves_sympy_out(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(hc.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = "import sys, holocheck; sys.exit('sympy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr

    def test_derived_models_use_levi_civita(self, model):
        assert model.christoffel is not None
        assert hc.quotient_conformal_metric(model).christoffel is None
        assert hc.induced_halfplane_metric(model).christoffel is None
        assert hc.induced_line_metric(model).christoffel is None
        # nor do they, or a model whose symbols are replaced, carry the
        # model's closed-form derivatives of the symbols
        assert callable(model.christoffel.partials)
        replaced = dataclasses.replace(model, christoffel=lambda c: model.christoffel(c))
        for derived in (hc.quotient_conformal_metric(model), hc.induced_halfplane_metric(model),
                        hc.induced_line_metric(model), replaced, perturbed_connection()):
            assert getattr(derived.christoffel, "partials", None) is None
        # so their curvature takes the stencil, with the bits it had
        p = ChartPoint(0.3, -1.2, 1.7)
        c = p.coords
        stencil = tensor_core._central_difference(
            model, lambda x: tensor_core._christoffel(model, x), c, None)
        assert same_bits(tensor_core._curvature(replaced, c)[0],
                         riemann_from(model.christoffel(c), stencil))

    def test_perturbed_symbols_fail_c3(self, cat, monkeypatch):
        # Both parts of C3 compare the closed form with a derivative of g,
        # g's exact partials and its central differences, so a Gamma mutant
        # fails each of them.  Transport by the mutant does not keep g
        # either: C7's isometry parts read the torus and contractible loops'
        # holonomies about 1e-6 off an isometry, while their mean length
        # ratios stay within 1e-12 of 1.
        monkeypatch.setattr(checklist, "warped_metric", perturbed_connection)
        report = hc.run_checklist(hc.ChecklistConfig(samples=10, seed=0))
        assert [c.id for c in report.checks if not c.passed] == ["C3", "C4", "C7", "C9"]
        c7 = next(c for c in report.checks if c.id == "C7")
        assert c7.worst_part == "contractible_is_isometry"
        ctx = checklist._Context(hc.ChecklistConfig(samples=10, seed=0), cat)
        out = ctx.swept("C3")
        assert out["exact"] == pytest.approx(3.967e-3, rel=1e-3)
        assert out["numeric"] == pytest.approx(3.967e-3, rel=1e-3)
        assert out["numeric"] > 1e-5  # the numeric part's tolerance


class TestLeviCivitaWork:
    """The model's geodesics and transport never build Levi-Civita."""

    @staticmethod
    def count(monkeypatch, module):
        calls = [0]
        original = module._levi_civita

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(module, "_levi_civita", counted)
        return calls

    def test_downward_geodesic(self, model, cfg, monkeypatch):
        calls = self.count(monkeypatch, tensor_core)
        p0 = ChartPoint(0.0, 0.0, 1.0)
        traj = hc.integrate_geodesic(model, p0, TangentVector(p0, [0.0, 0.0, -1.0]),
                                     2.0, cfg)
        assert traj.termination.escaped
        assert calls[0] == 0  # 268 when Gamma was rebuilt at every stage

    def test_two_segment_transport_matrix(self, model, cfg, monkeypatch):
        calls = self.count(monkeypatch, tensor_core)
        curve = hc.CurveSpec.from_points(
            [ChartPoint(0, 0, 1), ChartPoint(0.5, 0.3, 2), ChartPoint(1, 0, 1.5)])
        hc.transport_matrix(model, curve, cfg)
        assert calls[0] == 0  # 56 when Gamma was rebuilt at every stage

    def test_sweep(self, cat, monkeypatch):
        inner = self.count(monkeypatch, tensor_core)
        checklist._Context(hc.ChecklistConfig(samples=CHUNK + 1), cat).sweep
        # the 3-D Gamma and its six stencil points read the closed form (24
        # inner calls without it), and C11's cross-check takes the leaf's
        # curvature by Brioschi's formula (10 calls through the 2-D Riemann
        # pipeline)
        assert inner[0] == 0
        # C3's numeric part reads the closed form too (2 calls when it
        # rebuilt Levi-Civita from its own differences)
        assert not hasattr(checklist, "_levi_civita")


# The sweep's kernels as they were written with np.einsum, kept here only as
# the reference for the stacked-matmul kernels in tensor_core.  The 3x3 and
# single-matrix inverses are tensor_core's own (``test_batch`` holds them to
# the Python-float cofactor formulas); bound here, before a test patches them.
_inv_small = tensor_core._inv_small


def einsum_nabla(gamma, g, d):
    correction = (np.einsum("...lki,...lj->...kij", gamma, g)
                  + np.einsum("...lkj,...il->...kij", gamma, g))
    return d - correction


def einsum_levi_civita(ginv, d):
    dt = d.swapaxes(-1, -3)
    s = dt.swapaxes(-1, -2) + dt - d
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, s)


def einsum_sectional_curvature(g, riemann, u, v):
    ruvv = np.einsum("...ijkl,...j,...k,...l->...i", riemann, v, u, v)
    inner = np.einsum("...i,...ij,...j->...", u, g, ruvv)
    uu = np.einsum("...i,...ij,...j->...", u, g, u)
    vv = np.einsum("...i,...ij,...j->...", v, g, v)
    uv = np.einsum("...i,...ij,...j->...", u, g, v)
    gram = uu * vv - uv * uv
    if np.any(gram <= 1e-12 * uu * vv):
        raise DegeneratePlaneError("directions are linearly dependent")
    k = inner / gram
    return float(k) if k.ndim == 0 else k


def einsum_curvature(m, c, method="auto", h=None, gamma=None, ginv=None):
    """``tensor_core._curvature`` with the Riemann sum over einsum views.

    The derivatives of the symbols come from where ``_curvature`` takes
    them: the model's closed form under "auto" and "exact" with no step,
    else a central-difference loop."""
    if gamma is None:
        gamma = tensor_core._christoffel(m, c, method, h)
    if ginv is None:
        ginv = tensor_core._inv_small(tensor_core._metric(m, c))
    closed = getattr(m.christoffel, "partials", None)
    if closed is not None and method != "numeric" and h is None:
        return riemann_from(gamma, closed(c), ginv)
    step = tensor_core._fd_step(m, c, h)
    tensor_core._check_stencil(m, c, step)
    den = 2.0 * np.asarray(step)[..., None, None, None]
    dgamma = np.empty(c.shape[:-1] + (m.dim,) + gamma.shape[-3:])
    for k in range(m.dim):
        e = np.zeros(c.shape)
        e[..., k] = step
        dgamma[..., k, :, :, :] = (tensor_core._christoffel(m, c + e, method, h)
                                   - tensor_core._christoffel(m, c - e, method, h)) / den
    return riemann_from(gamma, dgamma, ginv)


def riemann_from(gamma, dgamma, ginv=None):
    """R^i_jkl from Gamma and d_k Gamma by einsum views; with ``ginv``, also
    Ricci and the scalar curvature."""
    n, lead = gamma.shape[-1], gamma.shape[:-3]
    gg = (gamma.reshape(lead + (n * n, n))
          @ gamma.reshape(lead + (n, n * n))).reshape(lead + (n,) * 4)
    riemann = (np.einsum("...kilj->...ijkl", dgamma)
               - np.einsum("...likj->...ijkl", dgamma)
               + np.einsum("...iklj->...ijkl", gg)
               - np.einsum("...ilkj->...ijkl", gg))
    if ginv is None:
        return riemann
    ricci = np.einsum("...ijil->...jl", riemann)
    scalar = np.einsum("...jl,...jl->...", ginv, ricci)
    return riemann, ricci, scalar


def moveaxis_inv_small(g):
    """The batched 2x2 inverse through a stacked cofactor array."""
    if g.ndim == 2 or g.shape[-1] != 2:
        return _inv_small(g)
    (a, b), (d, e) = np.moveaxis(g, (-2, -1), (0, 1))
    cof = np.array([[e, -b], [-d, a]])
    return np.moveaxis(cof, (0, 1), (-2, -1)) / (a * e - b * d)[..., None, None]


EINSUM_KERNELS = {"_nabla": einsum_nabla, "_levi_civita": einsum_levi_civita,
                  "sectional_curvature": einsum_sectional_curvature,
                  "_inv_small": moveaxis_inv_small, "_curvature": einsum_curvature}


def kernel_inputs(m, n, seed=3):
    rng = np.random.default_rng(seed)
    lo = [-5.0] * (m.dim - 1) + [0.2]
    hi = [5.0] * (m.dim - 1) + [10.0]
    c = rng.uniform(lo, hi, (n, m.dim))
    return c, tensor_core._metric(m, c), tensor_core._partials(m, c)


def axis_vectors(n, dim, avoid, seed):
    """Per point a coordinate axis other than ``avoid[i]``, scaled by +-2^k.

    Every product with such a vector is exact, so each contraction sums at
    most one nonzero term whatever its order.
    """
    rng = np.random.default_rng(seed)
    axes = (avoid + rng.integers(1, dim, n)) % dim
    out = np.zeros((n, dim))
    out[np.arange(n), axes] = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-3, 4, n)
    return out, axes


def assert_close(got, want, scale):
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def sectional_scale(g, riemann, u, v):
    """Size of the terms behind K(u, v): |u||g||R|(|v|, |u|, |v|) plus the
    cancellation in the Gram determinant, both over the Gram determinant."""
    au, av = np.abs(u), np.abs(v)
    terms = np.einsum("...i,...ij,...jklm,...k,...l,...m->...", au, np.abs(g),
                      np.abs(riemann), av, au, av)
    uu, vv, uv = (np.einsum("...i,...ij,...j->...", a, g, b) for a, b in
                  ((u, u), (v, v), (u, v)))
    gram = uu * vv - uv * uv
    k = einsum_sectional_curvature(g, riemann, u, v)
    return (terms + np.abs(k) * uu * vv) / gram


class TestKernelBits:
    """The stacked-matmul kernels give the einsum forms' bits, point for point.

    Bits are kept where each contraction sums at most one nonzero product:
    diagonal metrics, and the vectors the sweep passes (coordinate axes, or
    planes through e1 whose curvature terms vanish).  With dense vectors the
    kernels group u g v and R(v, u, v) as nested sums where the einsums
    sum all terms in one run, so the last bits may differ there.
    """

    METRICS = {
        "warped": lambda: hc.warped_metric(),
        "conformal": lambda: hc.quotient_conformal_metric(hc.warped_metric()),
        "halfplane": lambda: hc.induced_halfplane_metric(hc.warped_metric()),
    }

    @pytest.mark.parametrize("n", (1, CHUNK - 1, CHUNK, CHUNK + 1))
    @pytest.mark.parametrize("name", ["warped", "conformal", "halfplane"])
    def test_same_bits(self, name, n):
        m = self.METRICS[name]()
        c, g, d = kernel_inputs(m, n)
        ginv = tensor_core._inv_small(g)
        assert same_bits(ginv, moveaxis_inv_small(g))
        gamma = tensor_core._christoffel(m, c)
        assert same_bits(tensor_core._levi_civita(ginv, d), einsum_levi_civita(ginv, d))
        assert same_bits(tensor_core._nabla(gamma, g, d), einsum_nabla(gamma, g, d))
        if m.dim == 3:
            # C9's pair: the model's connection against g' = z^-2 g
            model = hc.warped_metric()
            gp = tensor_core._metric(hc.quotient_conformal_metric(model), c)
            dp = tensor_core._partials(hc.quotient_conformal_metric(model), c)
            gamma = tensor_core._christoffel(model, c)
            assert same_bits(tensor_core._nabla(gamma, gp, dp), einsum_nabla(gamma, gp, dp))

        curvature = tensor_core._curvature(m, c)
        for got, want in zip(curvature, einsum_curvature(m, c)):
            assert same_bits(got, want)
        riemann = curvature[0]
        e = np.eye(m.dim)
        u, axes = axis_vectors(n, m.dim, np.full(n, m.dim - 1), seed=n)
        v, _ = axis_vectors(n, m.dim, axes, seed=n + 1)
        theta = np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, n)
        planes = np.stack([np.full(n, 0.3), np.cos(theta), np.sin(theta)], -1)
        # a first vector e_a reads R's slice along the axis: C4's (e2, e3)
        # plane, C11's (e1, e2), an axis with per-point axes, and C4's and
        # C12's flat planes through e1; a per-point u is contracted first
        cases = [(e[-2], e[-1]), (e[-1], u), (u, e[-1]), (u, v)]
        if name == "warped":
            cases.append((e[0], planes))
        for a, b in cases:
            assert same_bits(hc.sectional_curvature(g, riemann, a, b),
                             einsum_sectional_curvature(g, riemann, a, b))
        # the 2x2 cofactors of general matrices, not only of the diagonal leaf
        general = np.random.default_rng(n).normal(size=(n, 2, 2))
        assert same_bits(tensor_core._inv_small(general), moveaxis_inv_small(general))
        for i in range(min(n, 3)):  # one point: the float the public call returns
            assert (hc.sectional_curvature(g[i], riemann[i], u[i], v[i])
                    == einsum_sectional_curvature(g[i], riemann[i], u[i], v[i]))

    @pytest.mark.parametrize("config", [
        {}, {"metric_exponent": 3.0}, {"matrix": ((1000, 999), (1, 1))}],
        ids=["default", "exponent-3", "trace-1001"])
    def test_same_report_as_einsum_kernels(self, config, monkeypatch):
        cfg = hc.ChecklistConfig(samples=CHUNK + 1, **config)
        matmul = hc.emit_report(hc.run_checklist(cfg), "json")
        for module in (tensor_core, checklist, foliation):
            for name, kernel in EINSUM_KERNELS.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, kernel)
        assert checklist._nabla is einsum_nabla
        assert checklist.sectional_curvature is einsum_sectional_curvature
        assert hc.emit_report(hc.run_checklist(cfg), "json") == matmul

    @pytest.mark.parametrize("n", (1, CHUNK + 1))
    def test_non_diagonal_metric(self, skewed, n):
        # Sums of several nonzero products: BLAS may order or fuse them
        # differently from einsum, so agreement is to rel 1e-13 of the size
        # of the terms summed, not to the bit.
        m = skewed
        c, g, d = kernel_inputs(m, n)
        ginv = tensor_core._inv_small(g)
        gamma = tensor_core._levi_civita(ginv, d)
        assert_close(gamma, einsum_levi_civita(ginv, d), np.abs(gamma))
        # nabla of g's own connection is roundoff on terms of size |d|
        assert_close(tensor_core._nabla(gamma, g, d), einsum_nabla(gamma, g, d),
                     np.max(np.abs(d), axis=(-3, -2, -1), keepdims=True))
        # the Riemann gathers only move entries: bits hold here too
        curvature = tensor_core._curvature(m, c)
        for got, want in zip(curvature, einsum_curvature(m, c)):
            assert same_bits(got, want)
        riemann = curvature[0]
        e = np.eye(3)
        dense = np.random.default_rng(n).uniform(-1.0, 1.0, (2, n, 3))
        for u, v in ((e[1], e[2]), (e[0], dense[1]), (dense[0], e[2]), tuple(dense)):
            assert_close(hc.sectional_curvature(g, riemann, u, v),
                         einsum_sectional_curvature(g, riemann, u, v),
                         sectional_scale(g, riemann, u, v))
