"""Tensor calculus on the chart R^(dim-1) x R_+, over leading batch axes.

The engine works in coordinates in which the model metric is diagonal:
(xt, yt, z) on the three-dimensional chart, with the fiber coordinate z
placed last.  A metric is a small callable model (:class:`MetricField`);
every operation below is a pure function of immutable inputs, so values
are safe to evaluate from many threads at once.

The core functions take coordinates of shape ``(..., dim)`` and return
arrays with the same leading shape, so one call evaluates a whole batch of
points; a single point is the empty leading shape.  The public ``*_at``
functions are single-point calls on that core.  Sampled checks walk their
point arrays in slices of :data:`CHUNK` points (:func:`chunks`), which keeps
the rank-4 curvature arrays small.

Index conventions, fixed here and used everywhere (leading batch axes are
left out):

* ``gamma[k, i, j]`` is the Christoffel symbol with upper index k,
  ``Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)``.
* ``riemann[i, j, k, l]`` is ``R^i_jkl`` for the curvature operator
  ``R(X, Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]``, so that
  ``R(e_k, e_l) e_j = R^i_jkl e_i``.
* ``nabla[k, i, j]`` is the covariant derivative ``(grad g)_ij`` taken in
  the coordinate direction k.

With these conventions the model metric dx^2 + z^4 dy^2 + dz^2 has scalar
curvature -4/z^2, the (dy, dz) plane has sectional curvature -2/z^2, and
every plane containing dx is flat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

# Operations reject points whose fiber coordinate is at or below this floor;
# the curvature of the model metric blows up as z -> 0.
Z_FLOOR = 1e-6

# Default central-difference step is FD_STEP_SCALE * max(1, |z|).
FD_STEP_SCALE = 1e-5

# Points per batch in the sampled checks: large enough that numpy overhead
# is spread over many points, small enough that the (CHUNK, 3, 3, 3, 3)
# curvature arrays stay a few hundred kB.
CHUNK = 256

# Flat indices into a row-major 3x3 matrix for its cofactors as cross
# products of rolled rows: _ROLL[a, b][i, j] = 3 * (i + a) + (j + b), mod 3.
_ROLL = {(a, b): 3 * ((np.arange(3)[:, None] + a) % 3) + (np.arange(3) + b) % 3
         for a in (1, 2) for b in (1, 2)}


class ChartDomainError(ValueError):
    """A point, stencil or curve leaves the chart domain."""


class DegeneratePlaneError(ValueError):
    """Sectional curvature requested for linearly dependent directions."""


class MetricError(ValueError):
    """A metric component matrix is not symmetric positive definite."""


@dataclass(frozen=True)
class ChartPoint:
    """A point (xt, yt, z) of the chart, with z > 0."""

    xt: float
    yt: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "xt", float(self.xt))
        object.__setattr__(self, "yt", float(self.yt))
        object.__setattr__(self, "z", float(self.z))
        if not (np.isfinite(self.xt) and np.isfinite(self.yt) and np.isfinite(self.z)):
            raise ChartDomainError("chart point has non-finite coordinates")
        if self.z <= 0.0:
            raise ChartDomainError(f"chart requires z > 0, got z={self.z}")

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.xt, self.yt, self.z])

    @staticmethod
    def from_coords(c: Sequence[float]) -> "ChartPoint":
        c = np.asarray(c, dtype=float)
        if c.shape != (3,):
            raise ChartDomainError(f"expected 3 coordinates, got shape {c.shape}")
        return ChartPoint(c[0], c[1], c[2])


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector at ``base``, components in the coordinate frame."""

    base: ChartPoint
    comp: np.ndarray

    def __post_init__(self):
        comp = np.array(self.comp, dtype=float)
        if comp.shape != (3,):
            raise ValueError(f"expected 3 components, got shape {comp.shape}")
        if not np.all(np.isfinite(comp)):
            raise ValueError("tangent vector has non-finite components")
        comp.setflags(write=False)
        object.__setattr__(self, "comp", comp)


@dataclass(frozen=True)
class MetricField:
    """A metric model: coordinate array -> symmetric positive-definite matrix.

    ``components`` maps coordinates of shape ``(..., dim)`` to components of
    shape ``(..., dim, dim)``.  ``exact_partials``, when present, returns an
    array of shape ``(..., dim, dim, dim)`` with ``partials[..., k, :, :] =
    d_k g``; otherwise partial derivatives fall back to central finite
    differences.  A model written for single points only (shape ``(dim,)``)
    works with every single-point call but not with batches.
    ``fiber_axis`` names the boundary coordinate guarded by the z > 0 domain
    (-1 means the last coordinate, None means the metric has no chart
    boundary).
    """

    components: Callable[[np.ndarray], np.ndarray]
    exact_partials: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""
    dim: int = 3
    fiber_axis: Optional[int] = -1


PointLike = Union[ChartPoint, np.ndarray, Sequence[float]]
VectorLike = Union[TangentVector, np.ndarray, Sequence[float]]


def fiber_index(m: MetricField) -> Optional[int]:
    """Index of the boundary coordinate of ``m``, or None if unbounded."""
    if m.fiber_axis is None:
        return None
    return m.fiber_axis % m.dim


def chunks(n: int) -> Iterator[slice]:
    """Slices that cover ``range(n)`` in consecutive runs of CHUNK points."""
    for start in range(0, n, CHUNK):
        yield slice(start, min(start + CHUNK, n))


def warped_metric(exponent: float = 4.0) -> MetricField:
    """The model metric dx^2 + z^exponent dy^2 + dz^2 on the 3D chart.

    The default exponent 4 is the certified geometry; other exponents exist
    so tests can break the deck-map homothety on purpose.
    """
    e = float(exponent)

    def components(c):
        g = np.zeros(c.shape[:-1] + (3, 3))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = c[..., 2] ** e
        g[..., 2, 2] = 1.0
        return g

    def partials(c):
        d = np.zeros(c.shape[:-1] + (3, 3, 3))
        d[..., 2, 1, 1] = e * c[..., 2] ** (e - 1.0)
        return d

    return MetricField(components, partials, label=f"warped z^{e:g}", dim=3)


def euclidean_metric(dim: int = 3) -> MetricField:
    """Constant identity metric on the chart (flat comparison model)."""

    def components(c):
        return np.zeros(c.shape[:-1] + (dim, dim)) + np.eye(dim)

    def partials(c):
        return np.zeros(c.shape[:-1] + (dim, dim, dim))

    return MetricField(components, partials, label="euclidean", dim=dim)


@dataclass(frozen=True, eq=False)
class ChristoffelAtPoint:
    """Christoffel symbols ``gamma[k, i, j] = Gamma^k_ij`` at one point."""

    gamma: np.ndarray


@dataclass(frozen=True, eq=False)
class CurvatureAtPoint:
    """Curvature data at one point: R^i_jkl, Ricci and scalar curvature."""

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float


def _coords(m: MetricField, p: PointLike, batch: bool = False) -> np.ndarray:
    """Normalize a point argument to a coordinate array inside the chart.

    With ``batch`` the argument may carry leading axes, shape (..., dim);
    every point of it is validated.
    """
    if isinstance(p, ChartPoint):
        if m.dim != 3:
            raise ChartDomainError(f"chart points are 3D but metric has dim={m.dim}")
        c = p.coords
    else:
        c = np.asarray(p, dtype=float)
        ok = c.ndim >= 1 and c.shape[-1] == m.dim if batch else c.shape == (m.dim,)
        if not ok:
            raise ChartDomainError(f"expected {m.dim} coordinates, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ChartDomainError("point has non-finite coordinates")
    fi = fiber_index(m)
    if fi is not None:
        z = c[..., fi]
        if np.any(z <= Z_FLOOR):
            raise ChartDomainError(
                f"fiber coordinate {np.min(z)} is at or below the floor {Z_FLOOR}")
    return c


def _vector(v: VectorLike, dim: int, base: Optional[np.ndarray] = None) -> np.ndarray:
    """Normalize a vector argument; check the base point when one is carried."""
    if isinstance(v, TangentVector):
        if base is not None and not np.allclose(v.base.coords, base, rtol=0.0, atol=1e-12):
            raise ValueError("tangent vector is based at a different point")
        return np.asarray(v.comp, dtype=float)
    arr = np.asarray(v, dtype=float)
    if arr.shape != (dim,):
        raise ValueError(f"expected {dim} vector components, got shape {arr.shape}")
    return arr


def _fd_step(m: MetricField, c: np.ndarray, h: Optional[float]):
    """Central-difference step: ``h``, or one default step per point of ``c``."""
    if h is not None:
        if h <= 0:
            raise ValueError("finite-difference step must be positive")
        return float(h)
    fi = fiber_index(m)
    if fi is None:
        return FD_STEP_SCALE
    z = c[..., fi]
    step = FD_STEP_SCALE * np.maximum(1.0, np.abs(z))
    # default step shrinks near the boundary so the stencil stays inside
    return np.where(z > 0.0, np.minimum(step, 0.5 * z), step)


def _check_stencil(m: MetricField, c: np.ndarray, step) -> None:
    """Reject a difference stencil that reaches the chart boundary."""
    fi = fiber_index(m)
    if fi is None:
        return
    z = c[..., fi]
    low = z - step <= 0.0
    if np.any(low):
        k = np.flatnonzero(low)[0]
        raise ChartDomainError(
            f"difference stencil leaves the chart: z={np.ravel(z)[k]}, "
            f"h={np.ravel(np.broadcast_to(step, z.shape))[k]}")


def _stencil_shifts(c: np.ndarray, step) -> list:
    """``step * e_k`` for each coordinate direction k, shaped like ``c``."""
    shifts = []
    for k in range(c.shape[-1]):
        e = np.zeros(c.shape)
        e[..., k] = step
        shifts.append(e)
    return shifts


def _metric(m: MetricField, c: np.ndarray) -> np.ndarray:
    return np.asarray(m.components(c), dtype=float)


def _inv_small(g: np.ndarray) -> np.ndarray:
    """Closed-form inverse for the 2x2/3x3 matrices of the chart metrics.

    An unbatched matrix unpacks into Python floats (the geodesic hot path).
    A batch of 3x3 matrices takes its cofactors as cross products of
    cyclically rolled rows, ``cof[:, i] = row(i + 1) x row(i + 2)``, on whole
    arrays.  Both run the same products and subtractions in the same order
    in IEEE double, so a point gives the same bits either way.
    """
    n = g.shape[-1]
    if n not in (2, 3):
        return np.linalg.inv(g)
    if n == 3 and g.ndim > 2:
        flat = g.reshape(g.shape[:-2] + (9,))
        cr = (flat.take(_ROLL[1, 1], -1) * flat.take(_ROLL[2, 2], -1)
              - flat.take(_ROLL[1, 2], -1) * flat.take(_ROLL[2, 1], -1))
        terms = g[..., 0, :] * cr[..., 0, :]
        det = terms[..., 0] + terms[..., 1] + terms[..., 2]
        return cr.swapaxes(-1, -2) / det[..., None, None]
    rows = g.tolist() if g.ndim == 2 else np.moveaxis(g, (-2, -1), (0, 1))
    if n == 3:
        (a, b, c), (d, e, f), (p, q, r) = rows
        det = a * (e * r - f * q) - b * (d * r - f * p) + c * (d * q - e * p)
        return np.array([
            [e * r - f * q, c * q - b * r, b * f - c * e],
            [f * p - d * r, a * r - c * p, c * d - a * f],
            [d * q - e * p, b * p - a * q, a * e - b * d],
        ]) / det
    (a, b), (d, e) = rows
    det = a * e - b * d
    cof = np.array([[e, -b], [-d, a]])
    if g.ndim == 2:
        return cof / det
    return np.moveaxis(cof, (0, 1), (-2, -1)) / det[..., None, None]


def _partials(m: MetricField, c: np.ndarray, method: str = "auto",
              h: Optional[float] = None) -> np.ndarray:
    """d_k g_ij as ``out[..., k, i, j]``, without domain checks on ``c``."""
    if method not in ("auto", "exact", "numeric"):
        raise ValueError(f"unknown partials method {method!r}")
    if method == "exact" and m.exact_partials is None:
        raise ValueError("metric has no exact partials")
    if method in ("auto", "exact") and m.exact_partials is not None:
        return np.asarray(m.exact_partials(c), dtype=float)
    step = _fd_step(m, c, h)
    _check_stencil(m, c, step)
    den = 2.0 * np.asarray(step)[..., None, None]
    out = np.empty(c.shape[:-1] + (m.dim, m.dim, m.dim))
    for k, e in enumerate(_stencil_shifts(c, step)):
        out[..., k, :, :] = (_metric(m, c + e) - _metric(m, c - e)) / den
    return out


def _christoffel(m: MetricField, c: np.ndarray, method: str = "auto",
                 h: Optional[float] = None) -> np.ndarray:
    g = _metric(m, c)
    ginv = _inv_small(g)
    d = _partials(m, c, method, h)
    # s[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    dt = d.swapaxes(-1, -3)
    s = dt.swapaxes(-1, -2) + dt - d
    return 0.5 * np.einsum("...kl,...lij->...kij", ginv, s)


def _curvature(m: MetricField, c: np.ndarray, method: str = "auto",
               h: Optional[float] = None):
    """``(riemann, ricci, scalar)`` at ``c``; see :func:`riemann_at`."""
    gamma = _christoffel(m, c, method, h)
    step = _fd_step(m, c, h)
    _check_stencil(m, c, step)
    den = 2.0 * np.asarray(step)[..., None, None, None]
    dgamma = np.empty(c.shape[:-1] + (m.dim,) + gamma.shape[-3:])
    for k, e in enumerate(_stencil_shifts(c, step)):
        dgamma[..., k, :, :, :] = (_christoffel(m, c + e, method, h)
                                   - _christoffel(m, c - e, method, h)) / den
    # R^i_jkl = d_k G^i_lj - d_l G^i_kj + G^i_kp G^p_lj - G^i_lp G^p_kj
    riemann = (np.einsum("...kilj->...ijkl", dgamma)
               - np.einsum("...likj->...ijkl", dgamma)
               + np.einsum("...ikp,...plj->...ijkl", gamma, gamma)
               - np.einsum("...ilp,...pkj->...ijkl", gamma, gamma))
    ricci = np.einsum("...ijil->...jl", riemann)
    ginv = _inv_small(_metric(m, c))
    scalar = np.einsum("...jl,...jl->...", ginv, ricci)
    return riemann, ricci, scalar


def _covariant_metric_derivative(m_conn: MetricField, m_target: MetricField,
                                 c: np.ndarray, method: str = "auto",
                                 h: Optional[float] = None) -> np.ndarray:
    gamma = _christoffel(m_conn, c, method, h)
    g = _metric(m_target, c)
    d = _partials(m_target, c, method, h)
    correction = (np.einsum("...lki,...lj->...kij", gamma, g)
                  + np.einsum("...lkj,...il->...kij", gamma, g))
    return d - correction


def _conformal_deviation(m_conn: MetricField, m_target: MetricField,
                         c: np.ndarray, v: np.ndarray):
    """``(mu, residual)`` per point; see :func:`conformal_deviation_at`."""
    if np.any(np.all(v == 0.0, axis=-1)):
        raise ValueError("direction vector is zero")
    nabla = _covariant_metric_derivative(m_conn, m_target, c)
    t = np.einsum("...k,...kij->...ij", v, nabla)
    g = _metric(m_target, c)
    mu = np.sum(t * g, axis=(-2, -1)) / np.sum(g * g, axis=(-2, -1))
    r = t - mu[..., None, None] * g
    return mu, np.sqrt(np.sum(r * r, axis=(-2, -1)))


def metric_at(m: MetricField, p: PointLike) -> np.ndarray:
    """Metric components at ``p``, validated symmetric positive definite."""
    c = _coords(m, p)
    g = _metric(m, c)
    if g.shape != (m.dim, m.dim):
        raise MetricError(f"metric returned shape {g.shape}, expected {(m.dim, m.dim)}")
    if not np.all(np.isfinite(g)):
        raise MetricError("metric components are not finite")
    if np.max(np.abs(g - g.T)) > 1e-12 * (1.0 + np.max(np.abs(g))):
        raise MetricError("metric components are not symmetric")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise MetricError("metric components are not positive definite") from None
    return g


def metric_partials_at(m: MetricField, p: PointLike, h: Optional[float] = None,
                       method: str = "auto") -> np.ndarray:
    """Partial derivatives ``out[k] = d_k g`` at ``p``.

    ``method`` selects the exact-partials path when the model carries one
    ("auto"/"exact") or forces central differences with step ``h``
    ("numeric"); the numeric path is the independent cross-check of the
    exact one.
    """
    c = _coords(m, p)
    return _partials(m, c, method, h)


def christoffel_at(m: MetricField, p: PointLike, method: str = "auto",
                   h: Optional[float] = None) -> ChristoffelAtPoint:
    """Christoffel symbols of the Levi-Civita connection of ``m`` at ``p``."""
    c = _coords(m, p)
    return ChristoffelAtPoint(gamma=_christoffel(m, c, method, h))


def riemann_at(m: MetricField, p: PointLike, method: str = "auto",
               h: Optional[float] = None) -> CurvatureAtPoint:
    """Riemann, Ricci and scalar curvature of ``m`` at ``p``.

    Derivatives of the Christoffel symbols are taken by central differences
    (the symbols themselves are exact when the model ships exact partials).
    """
    riemann, ricci, scalar = _curvature(m, _coords(m, p), method, h)
    return CurvatureAtPoint(riemann=riemann, ricci=ricci, scalar=float(scalar))


def sectional_curvature(g: np.ndarray, riemann: np.ndarray,
                        u: np.ndarray, v: np.ndarray):
    """Sectional curvature of span(u, v) from precomputed g and R^i_jkl.

    ``g`` and ``riemann`` may carry leading batch axes, and ``u``, ``v``
    broadcast against them; a single point gives a float, a batch an array.
    Raises :class:`DegeneratePlaneError` if the plane degenerates at any point.
    """
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


def sectional_curvature_at(m: MetricField, p: PointLike, u: VectorLike,
                           v: VectorLike) -> float:
    """Sectional curvature of the plane spanned by u, v at ``p``."""
    c = _coords(m, p)
    uc = _vector(u, m.dim, base=c)
    vc = _vector(v, m.dim, base=c)
    riemann, _, _ = _curvature(m, c)
    return sectional_curvature(_metric(m, c), riemann, uc, vc)


def covariant_metric_derivative_at(m_conn: MetricField, m_target: MetricField,
                                   p: PointLike, method: str = "auto",
                                   h: Optional[float] = None) -> np.ndarray:
    """(grad g_target) under the Levi-Civita connection of ``m_conn``.

    Returns ``nabla[k, i, j] = d_k g_ij - G^l_ki g_lj - G^l_kj g_il``; the
    result vanishes identically when the two metrics coincide (metric
    compatibility).  ``method`` applies to both the connection and the
    target partials.
    """
    return _covariant_metric_derivative(m_conn, m_target, _coords(m_conn, p),
                                        method, h)


def conformal_deviation_at(m_conn: MetricField, m_target: MetricField,
                           p: PointLike, direction: VectorLike) -> tuple[float, float]:
    """Best factor mu with ``nabla_V g_target ~ mu * g_target`` at ``p``.

    Returns ``(mu, residual)`` where mu is the least-squares (Frobenius)
    proportionality factor and residual is ``|nabla_V g - mu g|_F``.  A zero
    residual at every point and direction means the connection of ``m_conn``
    preserves the conformal class of ``m_target``.
    """
    c = _coords(m_conn, p)
    vc = _vector(direction, m_conn.dim, base=c)
    mu, residual = _conformal_deviation(m_conn, m_target, c, vc)
    return float(mu), float(residual)
