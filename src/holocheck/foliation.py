"""Checks on the two holonomy foliations of the chart.

The reducible holonomy splits the tangent space into the parallel line
spanned by d/dxt and its g-orthogonal complement span(d/dyt, d/dz).  The
corresponding leaves through a point are the xt-coordinate line, whose
induced metric is the constant [1] (flat, and complete as far as a
long-horizon integration can tell), and the (yt, z) half-plane, whose
induced warped metric diag(z^4, 1) has Gaussian curvature -2/z^2 and runs
into the boundary at finite affine parameter.  The chart metric is the
orthogonal product of the two.

Leaf metrics are genuine coordinate restrictions of the 3D model, and the
half-plane curvature runs through the same tensor pipeline with the
dimension set to 2; nothing here is special-cased to closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .report import Part, passes
from .tensor_core import (
    ChartPoint,
    MetricField,
    TangentVector,
    Z_FLOOR,
    _Geometry,
    _Maxima,
    _coords,
    _curvature,
    _metric,
    chunks,
    sectional_curvature,
)
from .transport import (
    BOUNDARY_ESCAPE,
    CurveSpec,
    DEFAULT_CONFIG,
    IntegratorConfig,
    StraightSegment,
    integrate_geodesic,
    integrate_geodesic_coords,
    parallel_transport,
)

LINE_LEAF = "line_leaf"
HALFPLANE_LEAF = "halfplane_leaf"


@dataclass(frozen=True)
class FoliationReport:
    """Bundle of check parts for one leaf or splitting property."""

    kind: str
    items: Tuple[Part, ...]

    @property
    def passed(self) -> bool:
        return all(passes(item.residual, item.tolerance) for item in self.items)


@dataclass(frozen=True)
class LeafModel:
    """A leaf kind together with the induced metric restricted to it."""

    kind: str
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
    return LeafModel(HALFPLANE_LEAF, induced_halfplane_metric(m))


def gaussian_curvature(m2: MetricField, coords):
    """Gaussian curvature of a 2D metric: the only sectional curvature.

    ``coords`` of shape (2,) gives a float; shape (..., 2) gives one value
    per point.
    """
    if m2.dim != 2:
        raise ValueError("gaussian curvature is defined for 2D metrics")
    c = _coords(m2, coords, batch=True)
    riemann, _, _ = _curvature(m2, c)
    return sectional_curvature(_metric(m2, c), riemann,
                               np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def leaf_first_check(m: MetricField, t_max: float = 1e3,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> FoliationReport:
    """Line leaf: constant (flat) induced metric, long-horizon completeness.

    Completeness is numerical evidence only: a geodesic integrated to
    ``t_max`` without escape, not a proof for all time.
    """
    line = induced_line_metric(m)
    samples = np.linspace(-8.0, 8.0, 9)
    g_ref = _metric(line, samples[:1])
    const_res = max(float(np.max(np.abs(_metric(line, np.array([x])) - g_ref)))
                    for x in samples)
    p0 = ChartPoint(0.0, 0.0, 1.0)
    traj = integrate_geodesic(m, p0, TangentVector(p0, [1.0, 0.0, 0.0]), t_max, cfg)
    horizon_res = 0.0 if traj.termination.completed else np.inf
    end = traj.final.point
    drift_res = max(abs(end.yt), abs(end.z - 1.0))
    curve = CurveSpec([StraightSegment(p0, ChartPoint(7.0, 0.0, 1.0))])
    w = parallel_transport(m, curve, TangentVector(p0, [1.0, 0.0, 0.0]), cfg)
    fix_res = float(np.max(np.abs(w.comp - np.array([1.0, 0.0, 0.0]))))
    return FoliationReport(LINE_LEAF, (
        Part("induced_metric_constant", const_res, 1e-12),
        Part("long_horizon_geodesic_completes", horizon_res, 0.0),
        Part("geodesic_stays_in_leaf", drift_res, 1e-7),
        Part("transport_fixes_leaf_tangent", fix_res, 1e-8),
    ))


_LEAF_CURVATURE = "gaussian_curvature_times_z2_is_minus_2"


def _fold_leaf_curvature(leaf: MetricField, z: np.ndarray, out: _Maxima) -> None:
    """Fold |K z^2 / -2 - 1| of the half-plane leaf at heights ``z`` into ``out``."""
    k = gaussian_curvature(leaf, np.stack([np.zeros_like(z), z], axis=-1))
    out.fold(_LEAF_CURVATURE, np.abs(k * z * z / -2.0 - 1.0))


def _halfplane_report(leaf: MetricField, curvature: _Maxima,
                      cfg: IntegratorConfig) -> FoliationReport:
    """The folded leaf curvature plus the finite-time escape of a geodesic."""
    ts, _, _, term = integrate_geodesic_coords(
        leaf, np.array([0.0, 1.0]), np.array([0.0, -1.0]), 2.0, cfg)
    t_escape = term.t_escape if term.status == BOUNDARY_ESCAPE else np.inf
    return FoliationReport(HALFPLANE_LEAF, (
        Part(_LEAF_CURVATURE, curvature[_LEAF_CURVATURE], 1e-6),
        Part("downward_geodesic_escapes_at_t1", abs(t_escape - 1.0), 1e-6),
        # the unit-speed line z = 1 - t meets the floor at 1 - Z_FLOOR
        Part("downward_geodesic_escapes_at_crossing", abs(t_escape - (1.0 - Z_FLOOR)),
             1e-8),
    ))


def leaf_second_check(m: MetricField, z_samples: Sequence[float],
                      cfg: IntegratorConfig = DEFAULT_CONFIG) -> FoliationReport:
    """Half-plane leaf: Gaussian curvature -2/z^2 and finite-time escape."""
    leaf = halfplane_leaf(m).induced_metric
    z_all = np.asarray(z_samples, dtype=float)
    curvature = _Maxima()
    for sl in chunks(len(z_all)):
        _fold_leaf_curvature(leaf, z_all[sl], curvature)
    return _halfplane_report(leaf, curvature, cfg)


# Christoffel symbols with an index along the line direction e1.
_MIXED = np.zeros((3, 3, 3), dtype=bool)
_MIXED[0, :, :] = _MIXED[:, 0, :] = _MIXED[:, :, 0] = True
_E1 = np.array([1.0, 0.0, 0.0])
_SHIFT = np.array([1.3, -0.7, 0.0])


def _split_planes(n: int, seed: int) -> np.ndarray:
    """The (n, 3) mixed plane directions of :func:`product_split_check`."""
    draws = np.random.default_rng(seed).uniform([0.0, -1.0], [2 * np.pi, 1.0], (n, 2))
    return np.stack([draws[:, 1], np.cos(draws[:, 0]), np.sin(draws[:, 0])], axis=-1)


def _fold_product_split(geo: _Geometry, v: np.ndarray, out: _Maxima) -> None:
    """Fold the splitting residuals of one chunk; ``v`` are its mixed planes."""
    g = geo.g
    out.fold("metric_block_diagonal", np.abs(g[:, 0, 1:]))
    out.fold("line_block_constant", np.abs(g[:, 0, 0] - 1.0))
    out.fold("blocks_depend_only_on_z", np.abs(_metric(geo.m, geo.c + _SHIFT) - g))
    out.fold("mixed_christoffel_vanish", np.abs(geo.gamma[:, _MIXED]))
    out.fold("planes_containing_line_flat",
             np.abs(sectional_curvature(g, geo.curvature[0], _E1, v)))


_SPLIT_TOLERANCES = (
    ("metric_block_diagonal", 1e-12),
    ("line_block_constant", 1e-12),
    ("blocks_depend_only_on_z", 1e-12),
    ("mixed_christoffel_vanish", 1e-10),
    ("planes_containing_line_flat", 1e-8),
)


def _product_split_report(out: _Maxima) -> FoliationReport:
    return FoliationReport("product_split", tuple(
        Part(name, out[name], tol) for name, tol in _SPLIT_TOLERANCES))


def product_split_check(m: MetricField, points,
                        cfg: Optional[IntegratorConfig] = None,
                        seed: int = 0) -> FoliationReport:
    """Orthogonal product splitting span(e1) + span(e2, e3) at sample points.

    ``points`` is a sequence of :class:`ChartPoint` or an (n, 3) coordinate
    array.  Checks block-diagonality of g, constancy of the line block, pure
    z-dependence of the half-plane block, vanishing of every Christoffel
    symbol touching the line direction, and flatness of planes containing
    it.  Each point draws a theta and then an x for its mixed plane
    (x, cos theta, sin theta).
    """
    if not isinstance(points, np.ndarray):
        points = np.array([p.coords for p in points]).reshape(-1, 3)
    c_all = _coords(m, points, batch=True)
    planes = _split_planes(len(c_all), seed)
    out = _Maxima()
    for sl in chunks(len(c_all)):
        _fold_product_split(_Geometry(m, c_all[sl]), planes[sl], out)
    return _product_split_report(out)
