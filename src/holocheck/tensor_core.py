"""Tensor calculus on the chart R^(dim-1) x R_+, over leading batch axes.

The engine works in coordinates in which the model metric is diagonal:
(xt, yt, z) on the three-dimensional chart, with the fiber coordinate z
placed last.  A metric is a small callable model (:class:`MetricField`);
every operation below is a pure function of immutable inputs, so values
are safe to evaluate from many threads at once.

The connection is read from the model when it ships its Christoffel
symbols in closed form (``MetricField.christoffel``; the model metric does,
for every exponent); otherwise it is built as the Levi-Civita connection of
g from g^-1 and the partials.  The "numeric" method always builds it, from
central-difference partials, so it stays the independent path.  Geodesics,
transport, curvature and the sampled checks all read Gamma through
:func:`_christoffel` or :class:`_Geometry` and need no code of their own;
the model's closed form also contracts itself, for one geodesic state
(``christoffel.acceleration``) and into the linear transport coefficients
(``christoffel.connection``), with the bits of the generic contractions,
and differentiates itself (``christoffel.partials``), so its curvature
takes no difference stencil and is exact to roundoff down to the floor.

The core functions take coordinates of shape ``(..., dim)`` and return
arrays with the same leading shape, so one call evaluates a whole batch of
points; a single point is the empty leading shape.  The public ``*_at``
functions are single-point calls on that core.  A :class:`_Geometry`
holds g, partials, inverse, Christoffel symbols and curvature at a batch
of points, each built at most once, for the checklist's sweep.

The batch kernels are stacked matmuls and fancy-index gathers, not
generic einsums; the sectional curvature's small einsums read a strided
slice of R in place, where a gemv would first copy it.  On the model
metrics and the checks' directions they give the einsum forms' bits; where
they sum several nonzero products the last bit may differ.

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

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

# The chart floor, the one for every caller: points, curve endpoints and
# geodesic starts must lie above it, and a geodesic that reaches it escapes
# the chart.  The curvature of the model metric blows up as z -> 0.
Z_FLOOR = 1e-6

# Default central-difference step is FD_STEP_SCALE * max(1, |z|).
FD_STEP_SCALE = 1e-5

# Flat indices into a row-major 3x3 matrix for its cofactors as cross
# products of rolled rows: _ROLL[a, b][i, j] = 3 * (i + a) + (j + b), mod 3.
_ROLL = {(a, b): 3 * ((np.arange(3)[:, None] + a) % 3) + (np.arange(3) + b) % 3
         for a in (1, 2) for b in (1, 2)}
# Signs of a 2x2 matrix's cofactors, read off its reversed transpose.
_COF2_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]])


class ChartDomainError(ValueError):
    """A point, stencil or curve leaves the chart domain."""


class DegeneratePlaneError(ValueError):
    """Sectional curvature requested for linearly dependent directions."""


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
        if not (math.isfinite(self.xt) and math.isfinite(self.yt) and math.isfinite(self.z)):
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

    ``christoffel``, when present, returns the connection's symbols in
    closed form, shape ``(..., dim, dim, dim)`` with ``[..., k, i, j] =
    Gamma^k_ij``; the "auto" and "exact" methods read it instead of building
    the Levi-Civita connection of g, while "numeric" always builds that
    connection from finite-difference partials, the independent path.  A
    derived model (a rescaling, a leaf, a mutant) must not inherit the
    symbols of its base: ``dataclasses.replace`` on ``components`` or
    ``exact_partials`` must also set ``christoffel=None`` unless the new
    symbols are given.  The callable may also carry an ``acceleration(x,
    v)`` method, -Gamma(v, v) for one state with the bits of the einsum
    contraction of its symbols, which geodesics use in place of that
    einsum, and a ``connection(c, v)`` method, the transport coefficients
    ``sum_i Gamma^k_ij(c) v^i`` for finite v broadcast against c's leading
    axes, with the bits of transport's broadcast contraction of the
    symbols, which linear transport uses in place of it, and a
    ``partials(c)`` method, the symbols' derivatives ``[..., k, a, i, j] =
    d_k Gamma^a_ij`` in closed form, which the curvature reads under "auto"
    and "exact" with no explicit step in place of central differences of
    the symbols.  All three belong to the callable, so a model whose
    ``christoffel`` is replaced or set to None loses them with the symbols:
    leaves, the conformal rescaling and mutants take the generic
    contractions and the difference stencil.
    """

    components: Callable[[np.ndarray], np.ndarray]
    exact_partials: Optional[Callable[[np.ndarray], np.ndarray]] = None
    label: str = ""
    dim: int = 3
    fiber_axis: Optional[int] = -1
    christoffel: Optional[Callable[[np.ndarray], np.ndarray]] = None


PointLike = Union[ChartPoint, np.ndarray, Sequence[float]]
VectorLike = Union[TangentVector, np.ndarray, Sequence[float]]


def fiber_index(m: MetricField) -> Optional[int]:
    """Index of the boundary coordinate of ``m``, or None if unbounded."""
    if m.fiber_axis is None:
        return None
    return m.fiber_axis % m.dim


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

    def christoffel(c):
        # Gamma^yt_{yt z} = e/(2z) and Gamma^z_{yt yt} = -(e/2) z^(e-1), written
        # as the Levi-Civita path computes them, 1/2 (g^yy d_z g_yy) and
        # 1/2 (-d_z g_yy), so the two give the same bits.
        z = c[..., 2]
        dz = e * z ** (e - 1.0)
        out = np.zeros(c.shape[:-1] + (3, 3, 3))
        out[..., 1, 1, 2] = out[..., 1, 2, 1] = 0.5 * ((1.0 / z ** e) * dz)
        out[..., 2, 1, 1] = 0.5 * -dz
        return out

    # One state's -Gamma(v, v), for geodesics, with the bits of
    # -np.einsum("kij,i,j->k", christoffel(x), v, v): the symbols as above,
    # einsum's products (Gamma^k_ij v^i) v^j in i-major order summed from +0,
    # and its all-NaN result when a zero symbol meets a non-finite v.  Python
    # floats round as float64 does; the reciprocal is inf where z^e underflows
    # to 0, as numpy's division gives.  numpy's power loop takes a
    # scalar exponent of 2, -1 or 0.5 as a square, reciprocal or square root,
    # which its pow over an array of exponents does not match, so only other
    # exponent pairs share one np.power call.
    powers = np.array([e - 1.0, e])
    paired = not {e - 1.0, e} & {2.0, -1.0, 0.5}

    def acceleration(x, v):
        """-Gamma(v, v) at the point x, both sequences of floats, as a list."""
        vx, vy, vz = v
        if not (math.isfinite(vx) and math.isfinite(vy) and math.isfinite(vz)):
            return [math.nan] * 3
        z = x[2]
        if paired:
            zm, ze = np.power(z, powers).tolist()
        else:
            zm, ze = float(np.power(z, e - 1.0)), float(np.power(z, e))
        dz = e * zm
        g1 = 0.5 * ((1.0 / ze if ze else math.inf) * dz)
        g2 = 0.5 * -dz
        return [-0.0, -((0.0 + (g1 * vy) * vz) + (g1 * vz) * vy), -(0.0 + (g2 * vy) * vy)]

    # The linear transport coefficients a[..., k, j] = sum_i Gamma^k_ij(c) v^i,
    # v finite and broadcast against c's leading axes, with the bits of
    # transport's broadcast contraction of the symbols above: its sum of
    # zero-symbol products and one nonzero one, plus 0.0, is that product
    # plus 0.0, and +0 where every product is zero.
    def connection(c, v):
        z = c[..., 2]
        dz = e * z ** (e - 1.0)
        g1 = 0.5 * ((1.0 / z ** e) * dz)
        g2 = 0.5 * -dz
        out = np.zeros(c.shape[:-1] + (3, 3))
        out[..., 1, 1] = g1 * v[..., 2] + 0.0
        out[..., 1, 2] = g1 * v[..., 1] + 0.0
        out[..., 2, 1] = g2 * v[..., 1] + 0.0
        return out

    # The z-derivatives of the two symbols, d_z (e/(2z)) = -e/(2z^2) and
    # d_z (-(e/2) z^(e-1)) = -(e/2)(e-1) z^(e-2), in the stencil's layout
    # out[..., k, a, i, j] = d_k Gamma^a_ij; the curvature reads them in place
    # of central differences of the symbols.
    def dgamma(c):
        z = c[..., 2]
        out = np.zeros(c.shape[:-1] + (3, 3, 3, 3))
        out[..., 2, 1, 1, 2] = out[..., 2, 1, 2, 1] = -0.5 * e / z ** 2
        out[..., 2, 2, 1, 1] = -0.5 * e * (e - 1.0) * z ** (e - 2.0)
        return out

    christoffel.acceleration = acceleration
    christoffel.connection = connection
    christoffel.partials = dgamma
    return MetricField(components, partials, label=f"warped z^{e:g}", dim=3,
                       christoffel=christoffel)


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
        if base is not None and not (np.abs(v.base.coords - base) <= 1e-12).all():
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


def _central_difference(m: MetricField, f: Callable[[np.ndarray], np.ndarray],
                        c: np.ndarray, h: Optional[float]) -> np.ndarray:
    """The one stencil: ``out[..., k, *] = (f(c + h e_k) - f(c - h e_k)) / 2h``.

    ``f`` maps coordinates of shape ``(..., dim)`` to arrays with the same
    leading shape; the step is ``h`` or the default step per point, and a
    stencil that reaches the chart boundary is rejected.
    """
    step = _fd_step(m, c, h)
    _check_stencil(m, c, step)
    out = None
    for k in range(m.dim):
        e = np.zeros(c.shape)
        e[..., k] = step
        diff = f(c + e) - f(c - e)
        if out is None:
            tail = diff.ndim - (c.ndim - 1)
            out = np.empty(c.shape[:-1] + (m.dim,) + diff.shape[c.ndim - 1:])
            den = 2.0 * np.asarray(step)[(...,) + (None,) * tail]
        out[(slice(None),) * (c.ndim - 1) + (k,)] = diff / den
    return out


def _metric(m: MetricField, c: np.ndarray) -> np.ndarray:
    return np.asarray(m.components(c), dtype=float)


def _inv_small(g: np.ndarray) -> np.ndarray:
    """Closed-form inverse for the 2x2/3x3 matrices of the chart metrics.

    ``g`` is one matrix or a batch of them, shape (..., n, n).  A 3x3
    inverse takes its cofactors as cross products of cyclically rolled
    rows, ``cof[:, i] = row(i + 1) x row(i + 2)``, on whole arrays; a 2x2
    one reverses the matrix over a signed determinant.  The products and
    subtractions are those of the textbook cofactor formulas, in the same
    order, so a matrix gets the same bits alone or inside a batch.
    """
    n = g.shape[-1]
    if n == 3:
        flat = g.reshape(g.shape[:-2] + (9,))
        cr = (flat.take(_ROLL[1, 1], -1) * flat.take(_ROLL[2, 2], -1)
              - flat.take(_ROLL[1, 2], -1) * flat.take(_ROLL[2, 1], -1))
        terms = g[..., 0, :] * cr[..., 0, :]
        det = terms[..., 0] + terms[..., 1] + terms[..., 2]
        return cr.swapaxes(-1, -2) / det[..., None, None]
    if n == 2:
        # [[e, -b], [-d, a]] / det as the reversed matrix over a signed det
        det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
        return g[..., ::-1, ::-1].swapaxes(-1, -2) / (det[..., None, None] * _COF2_SIGN)
    return np.linalg.inv(g)


def _partials(m: MetricField, c: np.ndarray, method: str = "auto",
              h: Optional[float] = None) -> np.ndarray:
    """d_k g_ij as ``out[..., k, i, j]``, without domain checks on ``c``."""
    if method not in ("auto", "exact", "numeric"):
        raise ValueError(f"unknown partials method {method!r}")
    if method == "exact" and m.exact_partials is None:
        raise ValueError("metric has no exact partials")
    if method in ("auto", "exact") and m.exact_partials is not None:
        return np.asarray(m.exact_partials(c), dtype=float)
    return _central_difference(m, lambda x: _metric(m, x), c, h)


@cache
def _gather(subscripts: str, n: int) -> np.ndarray:
    """Flat indices that read ``np.einsum(subscripts, t)`` off ``t`` flattened:
    a gather permutes a batch about twice as fast as arithmetic on views."""
    rank = subscripts.index("-")
    index = np.einsum(subscripts, np.arange(n ** rank).reshape((n,) * rank)).ravel()
    index.setflags(write=False)  # one shared copy per (subscripts, n)
    return index


def _levi_civita(ginv: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Christoffel symbols from g^-1 and the partials ``d[..., k] = d_k g``."""
    n = d.shape[-1]
    f = d.reshape(d.shape[:-3] + (n ** 3,))
    # s[l, i, j] = d_i g_jl + d_j g_il - d_l g_ij, summed in place
    s = f[..., _gather("ijl->lij", n)]
    s += f[..., _gather("jil->lij", n)]
    s -= f
    return 0.5 * (ginv @ s.reshape(d.shape[:-2] + (n * n,))).reshape(d.shape)


def _christoffel(m: MetricField, c: np.ndarray, method: str = "auto",
                 h: Optional[float] = None) -> np.ndarray:
    """Gamma at ``c``: the model's closed form unless ``method`` is "numeric"."""
    if method in ("auto", "exact") and m.christoffel is not None:
        return np.asarray(m.christoffel(c), dtype=float)
    return _levi_civita(_inv_small(_metric(m, c)), _partials(m, c, method, h))


def _curvature(m: MetricField, c: np.ndarray, method: str = "auto",
               h: Optional[float] = None, gamma: Optional[np.ndarray] = None,
               ginv: Optional[np.ndarray] = None):
    """``(riemann, ricci, scalar)`` at ``c``; see :func:`riemann_at`.

    ``gamma`` and ``ginv``, the Christoffel symbols and inverse metric at
    ``c``, are computed here unless the caller already holds them.
    """
    if gamma is None:
        gamma = _christoffel(m, c, method, h)
    if ginv is None:
        ginv = _inv_small(_metric(m, c))
    closed = getattr(m.christoffel, "partials", None)
    if closed is not None and method != "numeric" and h is None:
        dgamma = np.asarray(closed(c), dtype=float)
    else:
        dgamma = _central_difference(m, lambda x: _christoffel(m, x, method, h), c, h)
    # gg[i, k, l, j] = G^i_kp G^p_lj, one (dim^2, dim) x (dim, dim^2) product
    n, lead = m.dim, gamma.shape[:-3]
    gg = gamma.reshape(lead + (n * n, n)) @ gamma.reshape(lead + (n, n * n))
    d, gg = dgamma.reshape(lead + (n ** 4,)), gg.reshape(lead + (n ** 4,))
    # R^i_jkl = d_k G^i_lj - d_l G^i_kj + G^i_kp G^p_lj - G^i_lp G^p_kj, in
    # place, so no more rank-4 arrays are alive than the einsum sum held
    riemann = d[..., _gather("kilj->ijkl", n)]
    riemann -= d[..., _gather("likj->ijkl", n)]
    riemann += gg[..., _gather("iklj->ijkl", n)]
    riemann -= gg[..., _gather("ilkj->ijkl", n)]
    riemann = riemann.reshape(lead + (n,) * 4)
    ricci = np.einsum("...ijil->...jl", riemann)
    scalar = np.einsum("...jl,...jl->...", ginv, ricci)
    return riemann, ricci, scalar


def _nabla(gamma: np.ndarray, g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``nabla[k, i, j] = d_k g_ij - G^l_ki g_lj - G^l_kj g_il`` from arrays.

    ``d`` may stack several partials of g on one more leading axis; the
    Gamma.g correction is formed once and taken from each of them."""
    # p[k, i, j] = G^l_ki g_lj, one (dim^2, dim) x (dim, dim) product; g is
    # symmetric, so G^l_kj g_il is p[k, j, i]
    n = g.shape[-1]
    p = (gamma.reshape(gamma.shape[:-3] + (n, n * n)).swapaxes(-1, -2) @ g).reshape(gamma.shape)
    return d - (p + p.swapaxes(-1, -2))


def _conformal_fit(nabla: np.ndarray, g: np.ndarray, v: np.ndarray):
    """``(mu, |nabla_v g - mu g|_F)`` per point, mu the least-squares factor."""
    if np.any(np.all(v == 0.0, axis=-1)):
        raise ValueError("direction vector is zero")
    t = np.einsum("...k,...kij->...ij", v, nabla)
    mu = np.sum(t * g, axis=(-2, -1)) / np.sum(g * g, axis=(-2, -1))
    r = t - mu[..., None, None] * g
    return mu, np.sqrt(np.sum(r * r, axis=(-2, -1)))


class _Geometry:
    """The geometry of ``m`` at one chunk of points, each array built once.

    The points are validated on first use; g, its exact partials, g^-1, the
    Christoffel symbols (the model's closed form when it ships one, else
    the Levi-Civita connection :func:`_christoffel` builds from its own
    evaluation of g and the partials) and ``(riemann, ricci, scalar)`` are
    each computed at most once, however many checks read them.  An array
    whose construction raises is not cached, so it raises again for every
    reader: a fault in the shared geometry fails each check that uses it.
    """

    def __init__(self, m: MetricField, points: np.ndarray):
        self.m = m
        self.points = points

    @cached_property
    def c(self) -> np.ndarray:
        return _coords(self.m, self.points, batch=True)

    @cached_property
    def g(self) -> np.ndarray:
        return _metric(self.m, self.c)

    @cached_property
    def dg(self) -> np.ndarray:
        return _partials(self.m, self.c, "exact")

    @cached_property
    def ginv(self) -> np.ndarray:
        return _inv_small(self.g)

    @cached_property
    def gamma(self) -> np.ndarray:
        return _christoffel(self.m, self.c, "exact")

    @cached_property
    def curvature(self):
        return _curvature(self.m, self.c, "exact", gamma=self.gamma, ginv=self.ginv)


def christoffel_at(m: MetricField, p: PointLike, method: str = "auto",
                   h: Optional[float] = None) -> ChristoffelAtPoint:
    """Christoffel symbols of the connection of ``m`` at ``p``.

    "auto" and "exact" read the model's closed-form symbols when it ships
    them; otherwise, and always for "numeric", they are those of the
    Levi-Civita connection of ``m``.
    """
    c = _coords(m, p)
    return ChristoffelAtPoint(gamma=_christoffel(m, c, method, h))


def riemann_at(m: MetricField, p: PointLike, method: str = "auto",
               h: Optional[float] = None) -> CurvatureAtPoint:
    """Riemann, Ricci and scalar curvature of ``m`` at ``p``.

    "auto" and "exact" with no explicit ``h`` read the derivatives of the
    Christoffel symbols from the model when it ships them in closed form
    (``christoffel.partials``; the model metric does); otherwise, and
    always for "numeric" or an explicit ``h``, they are central differences
    of the symbols (themselves exact when the model ships them in closed
    form or ships exact partials).
    """
    riemann, ricci, scalar = _curvature(m, _coords(m, p), method, h)
    return CurvatureAtPoint(riemann=riemann, ricci=ricci, scalar=float(scalar))


def sectional_curvature(g: np.ndarray, riemann: np.ndarray,
                        u: np.ndarray, v: np.ndarray):
    """Sectional curvature of span(u, v) from precomputed g and R^i_jkl.

    ``g`` and ``riemann`` may carry leading batch axes; ``u`` and ``v`` are
    each one vector for every point or one per point, with that leading
    shape.  A single point gives a float, a batch an array.  A ``u`` that
    is one coordinate axis e_a (a 1-D vector of one 1.0 and zeros) reads
    only the slice R^i_(j a l) and g's column a; any other ``u`` is
    contracted into R and g first.  A point whose g or R has a non-finite
    entry anywhere reads NaN and skips the degeneracy test.  Raises
    :class:`DegeneratePlaneError` if the plane degenerates at any other
    point.
    """
    gv = np.einsum("...ij,...j->...i", g, v)
    entries = u.tolist() if u.ndim == 1 else []
    if entries.count(1.0) == 1 and entries.count(0.0) == len(entries) - 1:
        a = entries.index(1.0)
        ru, gu, uu, uv = riemann[..., a, :], g[..., a], g[..., a, a], gv[..., a]
    else:
        ru = np.einsum("...ijkl,...k->...ijl", riemann, u)
        gu = np.einsum("...ij,...j->...i", g, u)
        uu, uv = np.einsum("...i,...i->...", gu, u), np.einsum("...i,...i->...", gv, u)
    # einsums read a strided slice of R in place, where a gemv would copy it
    ruvv = np.einsum("...ij,...j->...i", np.einsum("...ijl,...l->...ij", ru, v), v)
    inner = np.einsum("...i,...i->...", ruvv, gu)
    vv = np.einsum("...i,...i->...", gv, v)
    gram = uu * vv - uv * uv
    if not math.isfinite(g.sum() + riemann.sum()):  # a whole-batch test first
        lead = gram.shape + (-1,)
        bad = ~(np.isfinite(g.reshape(lead)).all(-1) & np.isfinite(riemann.reshape(lead)).all(-1))
        gram = np.where(bad, np.nan, gram)  # NaN fails the test below and is the quotient
    if np.any(gram <= 1e-12 * uu * vv):
        raise DegeneratePlaneError("directions are linearly dependent")
    k = inner / gram
    return float(k) if k.ndim == 0 else k


def covariant_metric_derivative_at(m_conn: MetricField, m_target: MetricField,
                                   p: PointLike, method: str = "auto",
                                   h: Optional[float] = None) -> np.ndarray:
    """(grad g_target) under the connection of ``m_conn``.

    Returns ``nabla[k, i, j] = d_k g_ij - G^l_ki g_lj - G^l_kj g_il``; the
    result vanishes when the connection is the Levi-Civita connection of
    the target (metric compatibility).  With closed-form symbols this is a
    comparison of two independent objects; without them it is an identity
    up to roundoff.  ``method`` applies to both the connection and the
    target partials.
    """
    c = _coords(m_conn, p)
    return _nabla(_christoffel(m_conn, c, method, h), _metric(m_target, c),
                  _partials(m_target, c, method, h))


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
    g = _metric(m_target, c)
    nabla = _nabla(_christoffel(m_conn, c), g, _partials(m_target, c))
    mu, residual = _conformal_fit(nabla, g, vc)
    return float(mu), float(residual)
