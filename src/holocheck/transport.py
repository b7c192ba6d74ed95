"""Geodesic integration and parallel transport along piecewise-smooth curves.

The workhorse is an embedded Dormand-Prince 5(4) pair with PI step-size
control; the step after a rejected one does not grow.  Geodesics solve
x'' + Gamma(x)[x', x'] = 0, one right-hand-side call per stage; escape
through the chart floor is an event on the fiber coordinate, detected at
accepted step endpoints and refined by bisection in the affine parameter.

Transport solves the linear equation w' = A(s) w with
A(s) = -Gamma(c(s))[c'(s), .], which does not depend on w, so each
attempted step asks for A at its five distinct stage abscissae in one
batched Christoffel evaluation.  Segments of a curve can run as lanes of
one integration: they share the step, and the error norm is the worst
lane's, so every segment is held to the tolerance on its own.  A transport
matrix integrates each segment from the identity as a lane and composes
the segment matrices; vectors and recorded frame traces are carried
segment by segment.  Curve tangents come exactly from the curve model,
never differenced from sampled positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .tensor_core import (
    ChartDomainError,
    ChartPoint,
    MetricField,
    TangentVector,
    Z_FLOOR,
    _christoffel,
    _vector,
    fiber_index,
)

COMPLETED = "completed"
BOUNDARY_ESCAPE = "boundary_escape"
STEP_LIMIT = "step_limit"

# Bisection window for the escape parameter.
EVENT_T_TOL = 1e-9

# Parameters at which a curve segment is checked against the chart floor.
_SCAN = np.linspace(0.0, 1.0, 17)


class CurveError(ValueError):
    """A curve description is inconsistent (gaps, too few segments, ...)."""


class IntegrationError(RuntimeError):
    """The integrator could not finish (step underflow or step budget)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive step control settings shared by all integrations."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_steps: int = 1_000_000
    z_floor: float = 1e-6

    def __post_init__(self):
        if self.rel_tol < 1e-14:
            raise ValueError("rel_tol below 1e-14 is not resolvable in double precision")
        if self.abs_tol <= 0 or self.z_floor <= 0 or self.max_steps <= 0:
            raise ValueError("integrator settings must be positive")


DEFAULT_CONFIG = IntegratorConfig()


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) core
# ---------------------------------------------------------------------------

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])
_E = _B5 - _B4

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# Hairer's PI controller for order 5: err^-alpha * err_prev^beta.
_PI_ALPHA = 0.17
_PI_BETA = 0.04


class _LinearField:
    """The right-hand side A(s) w of the linear transport equation w' = A w.

    A(s) = -Gamma(c(s))[c'(s), .] does not depend on w, so its values at
    several abscissae come from one batched Christoffel evaluation.  Each
    segment is one lane; the state is the lanes' (3, width) blocks, flat.
    """

    def __init__(self, m: MetricField, segments: Sequence["Segment"], width: int):
        self.m = m
        self.segments = tuple(segments)
        self.width = width

    def matrices(self, s: np.ndarray) -> np.ndarray:
        """A at the abscissae ``s`` (shape (n,)) for every lane: (n, lanes, 3, 3).

        A point at or below z = 0 gives NaN coefficients, so the step that
        asked for it is rejected.
        """
        c = np.array([seg.point(s) for seg in self.segments])
        if np.any(c[..., 2] <= 0.0):
            return np.full((len(s), len(self.segments), 3, 3), np.nan)
        v = np.array([seg.velocity(s) for seg in self.segments])
        a = -np.einsum("...kij,...i->...kj", _christoffel(self.m, c), v)
        return a.swapaxes(0, 1)

    def apply(self, a: np.ndarray, w: np.ndarray) -> np.ndarray:
        return (a @ w.reshape(len(self.segments), 3, self.width)).ravel()

    def __call__(self, s: float, w: np.ndarray) -> np.ndarray:
        return self.apply(self.matrices(np.array([s]))[0], w)


def _rk_step(f, t, y, h, k1):
    """One Dormand-Prince step; returns (y_new, error_vector, k_last).

    ``f`` is a callable f(t, y), evaluated once per stage, or a
    :class:`_LinearField`, whose coefficients at the five distinct new stage
    abscissae (stage 6 and the last stage share t + h) come from one batch.
    """
    if isinstance(f, _LinearField):
        # row s holds A at stage s's abscissa among the five new ones
        a = f.matrices(t + _C[1:6] * h)[[0, 0, 1, 2, 3, 4, 4]]

        def slope(s, y):
            return f.apply(a[s], y)
    else:
        def slope(s, y):
            return f(t + _C[s] * h, y)
    k = np.empty((7, y.size))
    k[0] = k1
    for s in range(1, 6):
        k[s] = slope(s, y + h * (_A[s, :s] @ k[:s]))
    y_new = y + h * (_B5[:6] @ k[:6])
    k[6] = slope(6, y_new)
    err = h * (_E @ k)
    return y_new, err, k[6]


def _error_norm(err, y0, y1, cfg, lanes):
    """RMS of the scaled error; with several lanes, the largest lane RMS."""
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    if lanes == 1:
        return float(np.sqrt(np.mean((err / scale) ** 2)))
    r = (err / scale).reshape(lanes, -1)
    return float(np.sqrt(np.max(np.add.reduce(r * r, axis=1)) / r.shape[1]))


def _initial_step(f, y0, f0, t_end, cfg, lanes):
    """Hairer's starting step, taken per lane; the smallest lane step wins."""
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)

    def rms(x):
        return np.sqrt(np.mean((x / scale).reshape(lanes, -1) ** 2, axis=1))

    d0 = rms(y0)
    d1 = rms(f0)
    h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / np.maximum(d1, 1e-5))
    h0 = min(float(np.min(h0)), t_end)
    f1 = f(h0, y0 + h0 * f0)
    if not np.all(np.isfinite(f1)):
        return max(1e-8 * t_end, 1e-12)
    d = np.maximum(d1, rms(f1 - f0) / h0)
    h1 = np.where(d <= 1e-15, max(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d, 1e-15)) ** 0.2)
    return min(100 * h0, float(np.min(h1)), t_end)


def _bisect_event(f, t, y, k1, h, event):
    """Refine the first event crossing inside the step [t, t+h].

    The event value is positive at offset 0 and non-positive at offset h;
    single embedded steps from the last known-good state evaluate the state
    inside the interval.  Returns (t_cross, y_cross) at the right end of the
    final bracket, so the crossing parameter is never underestimated.
    """
    lo, hi = 0.0, h
    y_lo, k_lo = y, k1
    while hi - lo > EVENT_T_TOL:
        mid = 0.5 * (lo + hi)
        y_mid, _, _ = _rk_step(f, t + lo, y_lo, mid - lo, k_lo)
        if not np.all(np.isfinite(y_mid)) or event(y_mid) <= 0.0:
            hi = mid
        else:
            lo, y_lo = mid, y_mid
            k_lo = f(t + lo, y_lo)
    y_hi, _, _ = _rk_step(f, t + lo, y_lo, hi - lo, k_lo)
    return t + hi, y_hi


def _integrate(f, y0, t_end, cfg, event=None, lanes=1, record=True):
    """Adaptive integration of y' = f(t, y) on [0, t_end].

    Returns ``(samples, status, t_event)`` where samples is a list of
    (t, y) at accepted steps (including the initial state and, for an event
    stop, the refined crossing state); without ``record`` it holds only the
    latest accepted state.  ``status`` is COMPLETED, BOUNDARY_ESCAPE or
    STEP_LIMIT; the step budget counts attempted steps.

    The state may hold ``lanes`` independent systems of equal size side by
    side (segments of one curve); they share the step, whose error is the
    worst lane's, so each lane is held to the tolerance on its own.  The
    step after a rejected one does not grow (Hairer-Norsett-Wanner, Solving
    ODEs I, II.4).
    """
    y = np.asarray(y0, dtype=float)
    t = 0.0
    samples = [(0.0, y.copy())]
    if t_end <= 0.0:
        return samples, COMPLETED, None
    k1 = f(0.0, y)
    if not np.all(np.isfinite(k1)):
        raise IntegrationError("derivative is not finite at the initial state")
    h = _initial_step(f, y, k1, t_end, cfg, lanes)
    err_prev = None
    rejected = False
    attempts = 0
    while t < t_end:
        if attempts >= cfg.max_steps:
            return samples, STEP_LIMIT, None
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t}")
        attempts += 1
        y_new, err, k_last = _rk_step(f, t, y, h, k1)
        if np.all(np.isfinite(y_new)) and np.all(np.isfinite(err)):
            err_norm = _error_norm(err, y, y_new, cfg, lanes)
        else:
            err_norm = np.inf
        if err_norm > 1.0:
            factor = _MIN_FACTOR if not np.isfinite(err_norm) else max(
                _MIN_FACTOR, _SAFETY * err_norm ** -_PI_ALPHA)
            h *= min(factor, 1.0)
            err_prev = None
            rejected = True
            continue
        t_new = t + h
        if event is not None and event(y_new) <= 0.0:
            t_cross, y_cross = _bisect_event(f, t, y, k1, h, event)
            samples.append((t_cross, y_cross))
            return samples, BOUNDARY_ESCAPE, t_cross
        if record:
            samples.append((t_new, y_new.copy()))
        else:
            samples[-1] = (t_new, y_new)
        if err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = _SAFETY * err_norm ** -_PI_ALPHA
            if err_prev is not None:
                factor *= err_prev ** _PI_BETA
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if rejected:
            factor = min(factor, 1.0)
            rejected = False
        h *= factor
        err_prev = max(err_norm, 1e-4)
        t, y, k1 = t_new, y_new, k_last
    return samples, COMPLETED, None


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Termination:
    """How an integration ended; ``t_escape`` is set for boundary escapes."""

    status: str
    t_escape: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.status == COMPLETED

    @property
    def escaped(self) -> bool:
        return self.status == BOUNDARY_ESCAPE


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    point: ChartPoint
    velocity: TangentVector


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration samples of a geodesic plus its termination."""

    samples: Tuple[TrajectorySample, ...]
    termination: Termination

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]


def _geodesic_rhs(m: MetricField, fi: Optional[int]):
    dim = m.dim

    def rhs(t, y):
        x = y[:dim]
        v = y[dim:]
        if fi is not None and x[fi] <= 0.0:
            return np.full(2 * dim, np.nan)
        gamma = _christoffel(m, x)
        acc = -np.einsum("kij,i,j->k", gamma, v, v)
        return np.concatenate([v, acc])

    return rhs


def integrate_geodesic_coords(m: MetricField, x0: Sequence[float],
                              v0: Sequence[float], t_max: float,
                              cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Dimension-generic geodesic integration in raw coordinates.

    Returns ``(ts, xs, vs, termination)`` with one row per accepted step.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (m.dim,) or v0.shape != (m.dim,):
        raise ValueError(f"state must have {m.dim} coordinates")
    if not np.any(v0):
        raise ValueError("initial velocity is zero")
    fi = fiber_index(m)
    if fi is not None and x0[fi] <= cfg.z_floor:
        raise ChartDomainError(
            f"initial point has fiber coordinate {x0[fi]} <= floor {cfg.z_floor}")
    event = (lambda y: y[fi] - cfg.z_floor) if fi is not None else None
    samples, status, t_event = _integrate(
        _geodesic_rhs(m, fi), np.concatenate([x0, v0]), float(t_max), cfg, event)
    ts = np.array([t for t, _ in samples])
    ys = np.array([y for _, y in samples])
    return ts, ys[:, :m.dim], ys[:, m.dim:], Termination(status, t_event)


def integrate_geodesic(m: MetricField, p0: ChartPoint, v0: TangentVector,
                       t_max: float,
                       cfg: IntegratorConfig = DEFAULT_CONFIG) -> Trajectory:
    """Geodesic of ``m`` from p0 with initial velocity v0, up to ``t_max``.

    The trajectory terminates early with BOUNDARY_ESCAPE when the fiber
    coordinate reaches ``cfg.z_floor`` (escape parameter refined by
    bisection), or with STEP_LIMIT when the step budget runs out; a step
    limit is reported, never silently truncated.
    """
    if m.dim != 3:
        raise ValueError("chart trajectories require a 3D metric; "
                         "use integrate_geodesic_coords for other dimensions")
    v0c = _vector(v0, 3, base=p0.coords)
    ts, xs, vs, term = integrate_geodesic_coords(m, p0.coords, v0c, t_max, cfg)
    samples = []
    for t, x, v in zip(ts, xs, vs):
        pt = ChartPoint.from_coords(x)
        samples.append(TrajectorySample(float(t), pt, TangentVector(pt, v)))
    return Trajectory(samples=tuple(samples), termination=term)


def geodesic_energy_drift(m: MetricField, traj: Trajectory) -> float:
    """Max relative drift of g(v, v) along the trajectory samples."""
    energies = []
    for s in traj.samples:
        g = np.asarray(m.components(s.point.coords), dtype=float)
        energies.append(float(s.velocity.comp @ g @ s.velocity.comp))
    e0 = energies[0]
    return float(np.max(np.abs(np.array(energies) - e0)) / abs(e0))


def completeness_probe(m: MetricField, seeds, t_max: float,
                       cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Run a batch of geodesic seeds; returns [(seed, Termination), ...].

    A boundary escape among the results certifies geodesic incompleteness
    of the chart metric; seeds are processed in input order.
    """
    results = []
    for seed in seeds:
        p0, v0 = seed
        traj = integrate_geodesic(m, p0, v0, t_max, cfg)
        results.append((seed, traj.termination))
    return results


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoordinateLine:
    """Run of signed ``length`` along one coordinate axis from ``start``."""

    start: ChartPoint
    axis: int
    length: float

    def __post_init__(self):
        vel = np.zeros(3)
        vel[self.axis] = self.length
        vel.setflags(write=False)
        c0 = self.start.coords
        c0.setflags(write=False)
        object.__setattr__(self, "_c0", c0)
        object.__setattr__(self, "_vel", vel)

    def point(self, s) -> np.ndarray:
        return self._c0 + np.multiply.outer(s, self._vel)

    def velocity(self, s) -> np.ndarray:
        return self._vel + np.zeros(np.shape(s) + (3,))

    def reversed(self) -> "CoordinateLine":
        return CoordinateLine(ChartPoint.from_coords(self.point(1.0)),
                              self.axis, -self.length)


@dataclass(frozen=True)
class StraightSegment:
    """Straight chart segment between two points."""

    start: ChartPoint
    end: ChartPoint

    def __post_init__(self):
        delta = self.end.coords - self.start.coords
        delta.setflags(write=False)
        c0 = self.start.coords
        c0.setflags(write=False)
        object.__setattr__(self, "_c0", c0)
        object.__setattr__(self, "_delta", delta)

    def point(self, s) -> np.ndarray:
        return self._c0 + np.multiply.outer(s, self._delta)

    def velocity(self, s) -> np.ndarray:
        return self._delta + np.zeros(np.shape(s) + (3,))

    def reversed(self) -> "StraightSegment":
        return StraightSegment(self.end, self.start)


def _stacked(fn: Callable[[float], np.ndarray], s) -> np.ndarray:
    """``fn`` at a parameter or at each entry of a parameter array, stacked."""
    rows = [np.asarray(fn(x), dtype=float) for x in np.ravel(s)]
    return np.array(rows).reshape(np.shape(s) + (3,))


@dataclass(frozen=True)
class ParametricSegment:
    """Curve segment s in [0, 1] with an exact tangent supplied alongside.

    ``path`` and ``tangent`` take one parameter; ``point`` and ``velocity``
    also take an array of parameters and call them once per entry.
    """

    path: Callable[[float], ChartPoint]
    tangent: Callable[[float], np.ndarray]

    def point(self, s) -> np.ndarray:
        return _stacked(lambda x: self.path(x).coords, s)

    def velocity(self, s) -> np.ndarray:
        return _stacked(self.tangent, s)

    def reversed(self) -> "ParametricSegment":
        return ParametricSegment(lambda s: self.path(1.0 - s),
                                 lambda s: -np.asarray(self.tangent(1.0 - s), float))


Segment = Union[CoordinateLine, StraightSegment, ParametricSegment]


@dataclass(frozen=True)
class CurveSpec:
    """Piecewise-smooth chart curve: consecutive segments share endpoints."""

    segments: Tuple[Segment, ...]

    def __init__(self, segments: Sequence[Segment]):
        segments = tuple(segments)
        if not segments:
            raise CurveError("curve needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            gap = np.max(np.abs(a.point(1.0) - b.point(0.0)))
            if gap > 1e-12:
                raise CurveError(f"consecutive segments differ by {gap} at the joint")
        for seg in segments:
            z = np.min(seg.point(_SCAN)[:, 2])
            if z <= Z_FLOOR:
                raise ChartDomainError(f"curve reaches z={z} at or below the floor")
        object.__setattr__(self, "segments", segments)

    @classmethod
    def from_points(cls, points: Sequence[ChartPoint]) -> "CurveSpec":
        """Polyline through the given chart points."""
        if len(points) < 2:
            raise CurveError("polyline needs at least two points")
        return cls([StraightSegment(a, b) for a, b in zip(points, points[1:])])

    @property
    def start(self) -> ChartPoint:
        return ChartPoint.from_coords(self.segments[0].point(0.0))

    @property
    def end(self) -> ChartPoint:
        return ChartPoint.from_coords(self.segments[-1].point(1.0))

    def reversed(self) -> "CurveSpec":
        return CurveSpec([seg.reversed() for seg in reversed(self.segments)])


def coordinate_rectangle(p: ChartPoint, i: int, j: int, eps: float) -> CurveSpec:
    """Closed rectangle loop at p: +eps e_i, +eps e_j, -eps e_i, -eps e_j."""
    c0 = p.coords
    ei = np.zeros(3)
    ei[i] = eps
    ej = np.zeros(3)
    ej[j] = eps
    corners = [c0, c0 + ei, c0 + ei + ej, c0 + ej, c0]
    return CurveSpec.from_points([ChartPoint.from_coords(c) for c in corners])


# ---------------------------------------------------------------------------
# Parallel transport
# ---------------------------------------------------------------------------

def _check_floor(m: MetricField, curve: CurveSpec, cfg: IntegratorConfig) -> None:
    if m.dim != 3:
        raise ValueError("curve transport requires a 3D metric")
    for seg in curve.segments:
        z = np.min(seg.point(_SCAN)[:, 2])
        if z <= cfg.z_floor:
            raise ChartDomainError(
                f"curve reaches z={z} at or below the floor {cfg.z_floor}")


def _transport_lanes(m: MetricField, segments, w0: np.ndarray,
                     cfg: IntegratorConfig, record: bool):
    """Transport the (3, width) block w0 along each segment, as lanes of one run.

    Returns the accepted (s, (lanes, 3, width) state) samples; without
    ``record`` only the final one.
    """
    width = w0.shape[1]
    field = _LinearField(m, segments, width)
    y0 = np.tile(w0.ravel(), len(segments))
    samples, status, _ = _integrate(field, y0, 1.0, cfg, lanes=len(segments),
                                    record=record)
    if status != COMPLETED:
        raise IntegrationError(f"transport ran out of steps ({status})")
    return [(s, y.reshape(len(segments), 3, width)) for s, y in samples]


def _transport_segments(m: MetricField, curve: CurveSpec, w0: np.ndarray,
                        cfg: IntegratorConfig, record: bool):
    """Carry the columns of w0 along the curve segment by segment.

    Returns the end value and, with ``record``, the accepted-step history.
    """
    _check_floor(m, curve, cfg)
    w = w0.reshape(3, -1)
    trace = []
    for idx, seg in enumerate(curve.segments):
        samples = _transport_lanes(m, [seg], w, cfg, record)
        if record:
            trace += [(idx + s, seg.point(s), y[0]) for s, y in samples]
        w = samples[-1][1][0]
    return w.reshape(w0.shape), trace


def parallel_transport(m: MetricField, curve: CurveSpec, w0: TangentVector,
                       cfg: IntegratorConfig = DEFAULT_CONFIG) -> TangentVector:
    """Parallel transport of w0 along the curve; returns the endpoint vector."""
    w = _vector(w0, 3, base=curve.start.coords)
    w_end, _ = _transport_segments(m, curve, w, cfg, record=False)
    return TangentVector(curve.end, w_end)


def transport_matrix(m: MetricField, curve: CurveSpec,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Matrix P whose columns are the transports of the coordinate frame.

    Every segment is transported from the identity as one lane of a single
    integration, and P is the product of the segment matrices, last segment
    leftmost.  P is a g-isometry between the endpoint tangent spaces:
    ``P.T g(end) P = g(start)`` up to integration tolerance.
    """
    _check_floor(m, curve, cfg)
    p = np.eye(3)
    for p_seg in _transport_lanes(m, curve.segments, np.eye(3), cfg, False)[-1][1]:
        p = p_seg @ p
    return p


def transport_frame_trace(m: MetricField, curve: CurveSpec,
                          cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Accepted-step history of the frame transport along the curve.

    Returns [(t, coords, P), ...] with t the global curve parameter
    (segment index plus the in-segment parameter).
    """
    _, trace = _transport_segments(m, curve, np.eye(3), cfg, record=True)
    return trace


def curvature_via_loop(m: MetricField, p: ChartPoint, i: int, j: int,
                       eps: float,
                       cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """(P_loop - I) / eps^2 around the coordinate rectangle at p.

    As eps -> 0 this converges, at second order in eps, to the matrix with
    entries ``-R^k_{l i j}``, tying the transport engine back to the
    curvature pipeline.
    """
    loop = coordinate_rectangle(p, i, j, eps)
    p_loop = transport_matrix(m, loop, cfg)
    return (p_loop - np.eye(3)) / eps**2


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV dump of a trajectory: columns t, xt, yt, z, v1, v2, v3."""
    lines = ["t,xt,yt,z,v1,v2,v3"]
    for s in traj.samples:
        row = [s.t, s.point.xt, s.point.yt, s.point.z, *s.velocity.comp]
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"
