"""Property-based invariants of the pipeline under randomized inputs."""

import numpy as np
from hypothesis import given, settings, strategies as st

import holocheck as hc
from holocheck import ChartPoint

chart_x = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
chart_z = st.floats(min_value=0.2, max_value=10.0, allow_nan=False)
# family of hyperbolic matrices [[n+1, 1], [n, 1]]: det 1, trace n + 2 > 2
hyperbolic_n = st.integers(min_value=1, max_value=9)

MODEL = hc.warped_metric()
GPRIME = hc.quotient_conformal_metric(MODEL)


@settings(deadline=None, max_examples=150)
@given(chart_x, chart_x, chart_z)
def test_christoffel_lower_symmetry(x, y, z):
    for metric in (MODEL, GPRIME):
        gamma = hc.christoffel_at(metric, ChartPoint(x, y, z)).gamma
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


@settings(deadline=None, max_examples=150)
@given(chart_x, chart_x, chart_z)
def test_metric_compatibility_everywhere(x, y, z):
    nabla = hc.covariant_metric_derivative_at(MODEL, MODEL, ChartPoint(x, y, z))
    assert np.max(np.abs(nabla)) < 1e-8


@settings(deadline=None, max_examples=100)
@given(chart_x, chart_x, chart_z)
def test_scalar_curvature_profile(x, y, z):
    curv = hc.riemann_at(MODEL, ChartPoint(x, y, z))
    assert abs(curv.scalar * z * z / -4.0 - 1.0) < 1e-6


@settings(deadline=None, max_examples=100)
@given(chart_x, chart_x, chart_z)
def test_riemann_antisymmetry(x, y, z):
    r = hc.riemann_at(MODEL, ChartPoint(x, y, z)).riemann
    assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 1e-9


@settings(deadline=None, max_examples=50)
@given(hyperbolic_n)
def test_eigen_basis_family(n):
    a = hc.validate_toral_matrix([[n + 1, 1], [n, 1]])
    f = hc.eigen_basis(a)
    assert f.lam > 1.0
    assert abs(f.lam * (1.0 / f.lam) - 1.0) < 1e-14
    m = a.matrix.astype(float)
    assert np.max(np.abs(m @ f.v1 - f.lam * f.v1)) < 1e-11 * f.lam
    assert np.max(np.abs(m @ f.v2 - f.v2 / f.lam)) < 1e-11


@settings(deadline=None, max_examples=20)
@given(chart_x, chart_x,
       st.floats(min_value=0.5, max_value=4.0, allow_nan=False),
       chart_x, chart_x,
       st.floats(min_value=0.5, max_value=4.0, allow_nan=False))
def test_transport_fixes_parallel_field(x0, y0, z0, x1, y1, z1):
    start = ChartPoint(x0, y0, z0)
    end = ChartPoint(x1, y1, z1)
    if np.max(np.abs(start.coords - end.coords)) < 1e-9:
        return
    curve = hc.CurveSpec.from_points([start, end])
    w = hc.transport_matrix(MODEL, curve) @ [1.0, 0.0, 0.0]
    assert np.max(np.abs(w - np.array([1.0, 0.0, 0.0]))) < 1e-8


@settings(deadline=None, max_examples=20)
@given(st.floats(min_value=0.3, max_value=3.0, allow_nan=False),
       st.floats(min_value=0.3, max_value=3.0, allow_nan=False))
def test_geodesic_energy_conserved(z0, speed):
    p0 = ChartPoint(0.0, 0.0, z0)
    v0 = hc.TangentVector(p0, [0.4 * speed, 0.3 * speed, 0.2 * speed])
    traj = hc.integrate_geodesic(MODEL, p0, v0, 3.0)
    if traj.termination.completed:
        assert hc.geodesic_energy_drift(MODEL, traj) < 1e-8
