"""The two holonomy foliations of the chart: leaf metrics and the line-leaf check.

The reducible holonomy splits the tangent space into the parallel line
spanned by d/dxt and its g-orthogonal complement span(d/dyt, d/dz).  The
corresponding leaves through a point are the xt-coordinate line, whose
induced metric is the constant [1] (flat, and complete as far as a
long-horizon integration can tell), and the (yt, z) half-plane, whose
induced warped metric diag(z^4, 1) has Gaussian curvature -2/z^2 and runs
into the boundary at finite affine parameter.  The chart metric is the
orthogonal product of the two.

Leaf metrics are genuine coordinate restrictions of the 3D model; nothing
here is special-cased to closed forms.  The half-plane curvature comes from
Brioschi's formula with no connection built, so it shares no Christoffel or
Riemann code with the ambient curvature it cross-checks.  It and the product
splitting are sampled checks, folded in the checklist's one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .report import Part, passes
from .tensor_core import (
    ChartPoint,
    MetricField,
    TangentVector,
    _central_difference,
    _coords,
    _metric,
    _partials,
    _worst,
)
from .transport import (
    CurveSpec,
    DEFAULT_CONFIG,
    IntegratorConfig,
    StraightSegment,
    integrate_geodesic,
    parallel_transport,
)

@dataclass(frozen=True)
class FoliationReport:
    """Bundle of check parts for one leaf or splitting property."""

    items: Tuple[Part, ...]

    @property
    def passed(self) -> bool:
        return all(passes(item.residual, item.tolerance) for item in self.items)


@dataclass(frozen=True)
class LeafModel:
    """A leaf together with the induced metric restricted to it."""

    induced_metric: MetricField


def induced_line_metric(m: MetricField) -> MetricField:
    """Restriction of ``m`` to the xt-line through (., 0, 1): a 1x1 metric."""

    def components(c):
        full = np.zeros(c.shape[:-1] + (3,))
        full[..., 0] = c[..., 0]
        full[..., 2] = 1.0
        return _metric(m, full)[..., :1, :1]

    return MetricField(components, None, label=f"line leaf of ({m.label})",
                       dim=1, fiber_axis=None)


def induced_halfplane_metric(m: MetricField) -> MetricField:
    """Restriction of ``m`` to the (yt, z) half-plane through xt = 0."""

    def embed(c):
        full = np.zeros(c.shape[:-1] + (3,))
        full[..., 1:] = c
        return full

    def components(c):
        return _metric(m, embed(c))[..., 1:, 1:]

    partials = None
    if m.exact_partials is not None:
        base_p = m.exact_partials

        def partials(c):
            d = np.asarray(base_p(embed(c)), dtype=float)
            return d[..., 1:, 1:, 1:]

    return MetricField(components, partials,
                       label=f"half-plane leaf of ({m.label})", dim=2)


def halfplane_leaf(m: MetricField) -> LeafModel:
    return LeafModel(induced_halfplane_metric(m))


def gaussian_curvature(m2: MetricField, coords):
    """Gaussian curvature of a 2D metric E du^2 + 2F du dv + G dv^2.

    Brioschi's formula: K = (det A - det B) / (EG - F^2)^2, from E, F, G,
    their first partials and the second partials E_vv, F_uv, G_uu, which
    are central differences of the first partials at the four stencil
    points.  ``coords`` of shape (2,) gives a float; shape (..., 2) gives
    one value per point.
    """
    if m2.dim != 2:
        raise ValueError("gaussian curvature is defined for 2D metrics")
    c = _coords(m2, coords, batch=True)
    # dd[..., l, k, i, j] = d_l d_k g_ij
    dd = _central_difference(m2, lambda x: _partials(m2, x), c, None)
    g, p = _metric(m2, c), _partials(m2, c)
    e, f, gg = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    eu, fu, gu = p[..., 0, 0, 0], p[..., 0, 0, 1], p[..., 0, 1, 1]
    ev, fv, gv = p[..., 1, 0, 0], p[..., 1, 0, 1], p[..., 1, 1, 1]
    fuv = 0.5 * (dd[..., 0, 1, 0, 1] + dd[..., 1, 0, 0, 1])
    a11 = -0.5 * dd[..., 1, 1, 0, 0] + fuv - 0.5 * dd[..., 0, 0, 1, 1]
    a21 = fv - 0.5 * gu
    det = e * gg - f * f
    det_a = (a11 * det - 0.5 * eu * (a21 * gg - 0.5 * gv * f)
             + (fu - 0.5 * ev) * (a21 * f - 0.5 * gv * e))
    det_b = -0.25 * (ev * ev * gg - 2.0 * ev * gu * f + gu * gu * e)
    k = (det_a - det_b) / (det * det)
    return float(k) if k.ndim == 0 else k


def leaf_first_check(m: MetricField, t_max: float = 1e3,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> FoliationReport:
    """Line leaf: constant (flat) induced metric, long-horizon completeness.

    Completeness is numerical evidence only: a geodesic integrated to
    ``t_max`` without escape, not a proof for all time.
    """
    line = induced_line_metric(m)
    samples = np.linspace(-8.0, 8.0, 9)
    g_ref = _metric(line, samples[:1])
    const_res = _worst([np.abs(_metric(line, np.array([x])) - g_ref) for x in samples])
    p0 = ChartPoint(0.0, 0.0, 1.0)
    traj = integrate_geodesic(m, p0, TangentVector(p0, [1.0, 0.0, 0.0]), t_max, cfg)
    horizon_res = 0.0 if traj.termination.completed else np.inf
    _, yt, z = traj.xs[-1]
    drift_res = _worst([abs(yt), abs(z - 1.0)])
    curve = CurveSpec([StraightSegment(p0, ChartPoint(7.0, 0.0, 1.0))])
    w = parallel_transport(m, curve, TangentVector(p0, [1.0, 0.0, 0.0]), cfg)
    fix_res = float(np.max(np.abs(w.comp - np.array([1.0, 0.0, 0.0]))))
    return FoliationReport((
        Part("induced_metric_constant", const_res, 1e-12),
        Part("long_horizon_geodesic_completes", horizon_res, 0.0),
        Part("geodesic_stays_in_leaf", drift_res, 1e-7),
        Part("transport_fixes_leaf_tangent", fix_res, 1e-8),
    ))
