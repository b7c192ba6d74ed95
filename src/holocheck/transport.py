"""Geodesic integration and parallel transport along chart polylines.

The workhorse is an embedded Dormand-Prince 5(4) pair with PI step-size
control; the step after a rejected one does not grow.  A step writes the
slope of each stage into its row of one (7, size) buffer, and the error
norm reuses |y| of the last accepted state.  Geodesics solve
x'' + Gamma(x)[x', x'] = 0, one right-hand-side call per stage, which
fills one preallocated state-sized array; escape through the chart floor
is an event on the fiber coordinate, detected at accepted step endpoints
and refined by bisection in the affine parameter, where each accepted
bisection step's last stage is the slope at the new left end (first same
as last).

Transport solves the linear equation w' = A(s) w with
A(s) = -Gamma(c(s))[c'(s), .], which does not depend on w, so each
attempted step asks for A at its five distinct stage abscissae in one
batched Christoffel evaluation, and each stage is one matmul into the
slope buffer.  Segments run as lanes of one integration, held as
(lanes, 3) start and delta arrays, so the stage points of every lane are
one broadcast: they share the step, and the error norm is the worst
lane's, so every segment is held to the tolerance on its own.  A
transport matrix integrates each segment of its curve from the identity
as a lane and composes the segment matrices.  Vectors and recorded frame
traces are carried with lanes across curves: round k integrates segment k
of every curve that has one, each lane starting from its own curve's
block, so many curves cost one run per segment index.  Curve tangents
come exactly from the curve model, never differenced from sampled
positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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

    def __post_init__(self):
        if not (np.isfinite(self.rel_tol) and np.isfinite(self.abs_tol)):
            raise ValueError("integrator tolerances must be finite")
        if self.rel_tol < 1e-14:
            raise ValueError("rel_tol below 1e-14 is not resolvable in double precision")
        if self.abs_tol <= 0 or self.max_steps <= 0:
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
# Stage s (1 to 6) evaluates the slope at y + h * (_STAGE[s] @ k[:s]); the
# last row is _B5's, so stage 6's point is the step's new state (FSAL).
_STAGE = (None, *(_A[s, :s] for s in range(1, 6)), _B5[:6])
# For a linear field, the index of stage s's abscissa among the five new
# ones: stage 6 shares t + h with stage 5.
_ROW = (None, 0, 1, 2, 3, 4, 4)

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
    segment is one lane, held as a row of the (lanes, 3) start and delta
    arrays; the state is the lanes' (3, width) blocks, flat.
    """

    def __init__(self, m: MetricField, segments: Sequence["StraightSegment"],
                 width: int):
        self.m = m
        self.c0 = np.array([seg._c0 for seg in segments])
        self.delta = np.array([seg._delta for seg in segments])
        # a straight segment's velocity is its constant delta; A holds -delta
        self.minus_delta = -self.delta
        self.shape = (len(segments), 3, width)

    def matrices(self, s: np.ndarray) -> np.ndarray:
        """A at the abscissae ``s`` (shape (n,)) for every lane: (n, lanes, 3, 3).

        A point at or below z = 0 gives NaN coefficients, so the step that
        asked for it is rejected.
        """
        c = self.c0 + s[:, None, None] * self.delta
        if c[..., 2].min() <= 0.0:
            return np.full(c.shape + (3,), np.nan)
        return np.einsum("...kij,...i->...kj", _christoffel(self.m, c), self.minus_delta)

    def __call__(self, s: float, w: np.ndarray) -> np.ndarray:
        return (self.matrices(np.array([s]))[0] @ w.reshape(self.shape)).ravel()


def _rk_step(f, t, y, h, k1):
    """One Dormand-Prince step; returns (y_new, error_vector, k_last).

    ``f`` is a callable f(t, y), evaluated once per stage, or a
    :class:`_LinearField`, whose coefficients at the five distinct new stage
    abscissae come from one batch; each of its stages is then one matmul
    written into that stage's row of the (7, size) slope buffer.
    """
    k = np.empty((7, y.size))
    k[0] = k1
    linear = isinstance(f, _LinearField)
    if linear:
        a = f.matrices(t + _C[1:6] * h)
        rows = k.reshape((7,) + f.shape)
    for s in range(1, 7):
        y_s = y + h * (_STAGE[s] @ k[:s])
        if linear:
            np.matmul(a[_ROW[s]], y_s.reshape(f.shape), out=rows[s])
        else:
            k[s] = f(t + _C[s] * h, y_s)
    return y_s, h * (_E @ k), k[6]


def _error_norm(err, abs_y0, abs_y1, cfg, lanes):
    """RMS of the error scaled by |y| at both step ends; with lanes, the worst lane's."""
    r = err / (cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y0, abs_y1))
    r *= r
    worst = r.sum() if lanes == 1 else r.reshape(lanes, -1).sum(axis=1).max()
    return math.sqrt(worst / (r.size // lanes))


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
    if not np.isfinite(f1).all():
        return max(1e-8 * t_end, 1e-12)
    d = np.maximum(d1, rms(f1 - f0) / h0)
    h1 = np.where(d <= 1e-15, max(1e-6, h0 * 1e-3),
                  (0.01 / np.maximum(d, 1e-15)) ** 0.2)
    return min(100 * h0, float(np.min(h1)), t_end)


@dataclass
class _IntegrationStats:
    """The work of one integration, counted in Dormand-Prince steps.

    ``attempted`` counts the main loop's steps, which the error test either
    accepted or rejected; ``bisection`` counts the steps that refined an
    event crossing.
    """

    attempted: int = 0
    accepted: int = 0
    rejected: int = 0
    bisection: int = 0


def _bisect_event(f, t, y, k1, h, event, stats):
    """Refine the first event crossing inside the step [t, t+h].

    The event value is positive at offset 0 and non-positive at offset h;
    single embedded steps from the last known-good state evaluate the state
    inside the interval.  When the good end moves, the step's last stage is
    the slope there (first same as last), so no extra right-hand side is
    evaluated; for the geodesic equation, whose right-hand side ignores t,
    it is the very slope a fresh call would give.  Returns
    (t_cross, y_cross) at the right end of the final bracket, so the crossing
    parameter is never underestimated.
    """
    lo, hi = 0.0, h
    y_lo, k_lo = y, k1
    while hi - lo > EVENT_T_TOL:
        mid = 0.5 * (lo + hi)
        y_mid, _, k_mid = _rk_step(f, t + lo, y_lo, mid - lo, k_lo)
        stats.bisection += 1
        if not np.isfinite(y_mid).all() or event(y_mid) <= 0.0:
            hi = mid
        else:
            lo, y_lo, k_lo = mid, y_mid, k_mid
    y_hi, _, _ = _rk_step(f, t + lo, y_lo, hi - lo, k_lo)
    stats.bisection += 1
    return t + hi, y_hi


def _integrate(f, y0, t_end, cfg, event=None, lanes=1, record=True):
    """Adaptive integration of y' = f(t, y) on [0, t_end].

    Returns ``(samples, status, t_event, stats)`` where samples is a list of
    (t, y) at accepted steps (including the initial state and, for an event
    stop, the refined crossing state); without ``record`` it holds only the
    latest accepted state.  ``status`` is COMPLETED, BOUNDARY_ESCAPE or
    STEP_LIMIT; the step budget counts attempted steps.  ``stats`` is the
    run's :class:`_IntegrationStats`.

    The state may hold ``lanes`` independent systems of equal size side by
    side (segments of one curve); they share the step, whose error is the
    worst lane's, so each lane is held to the tolerance on its own.  The
    step after a rejected one does not grow (Hairer-Norsett-Wanner, Solving
    ODEs I, II.4).
    """
    y = np.asarray(y0, dtype=float)
    t = 0.0
    samples = [(0.0, y.copy())]
    stats = _IntegrationStats()
    if t_end <= 0.0:
        return samples, COMPLETED, None, stats
    k1 = f(0.0, y)
    if not np.isfinite(k1).all():
        raise IntegrationError("derivative is not finite at the initial state")
    h = _initial_step(f, y, k1, t_end, cfg, lanes)
    abs_y = np.abs(y)
    err_prev = None
    rejected = False
    while t < t_end:
        if stats.attempted >= cfg.max_steps:
            return samples, STEP_LIMIT, None, stats
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t}")
        stats.attempted += 1
        y_new, err, k_last = _rk_step(f, t, y, h, k1)
        if np.isfinite(y_new).all():
            abs_new = np.abs(y_new)
            err_norm = _error_norm(err, abs_y, abs_new, cfg, lanes)
        else:
            err_norm = math.inf
        if not err_norm <= 1.0:  # NaN from a non-finite error rejects too
            factor = _MIN_FACTOR if not math.isfinite(err_norm) else max(
                _MIN_FACTOR, _SAFETY * err_norm ** -_PI_ALPHA)
            h *= min(factor, 1.0)
            err_prev = None
            rejected = True
            stats.rejected += 1
            continue
        stats.accepted += 1
        t_new = t + h
        if event is not None and event(y_new) <= 0.0:
            t_cross, y_cross = _bisect_event(f, t, y, k1, h, event, stats)
            samples.append((t_cross, y_cross))
            return samples, BOUNDARY_ESCAPE, t_cross, stats
        if record:
            samples.append((t_new, y_new))
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
        t, y, k1, abs_y = t_new, y_new, k_last, abs_new
    return samples, COMPLETED, None, stats


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
        if fi is not None and y[fi] <= 0.0:
            return np.full(2 * dim, np.nan)
        v = y[dim:]
        out = np.empty(2 * dim)
        out[:dim] = v
        np.negative(np.einsum("kij,i,j->k", _christoffel(m, y[:dim]), v, v),
                    out=out[dim:])
        return out

    return rhs


def integrate_geodesic_coords(m: MetricField, x0: Sequence[float],
                              v0: Sequence[float], t_max: float,
                              cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Dimension-generic geodesic integration in raw coordinates.

    Returns ``(ts, xs, vs, termination)`` with one row per accepted step.
    ``t_max`` must be finite and non-negative; at 0 only the start is
    returned.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (m.dim,) or v0.shape != (m.dim,):
        raise ValueError(f"state must have {m.dim} coordinates")
    if not np.any(v0):
        raise ValueError("initial velocity is zero")
    t_max = float(t_max)
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise ValueError(f"t_max must be finite and non-negative, got {t_max}")
    fi = fiber_index(m)
    if fi is not None and x0[fi] <= Z_FLOOR:
        raise ChartDomainError(
            f"initial point has fiber coordinate {x0[fi]} <= floor {Z_FLOOR}")
    event = (lambda y: y[fi] - Z_FLOOR) if fi is not None else None
    samples, status, t_event, _ = _integrate(
        _geodesic_rhs(m, fi), np.concatenate([x0, v0]), t_max, cfg, event)
    ts = np.array([t for t, _ in samples])
    ys = np.array([y for _, y in samples])
    return ts, ys[:, :m.dim], ys[:, m.dim:], Termination(status, t_event)


def integrate_geodesic(m: MetricField, p0: ChartPoint, v0: TangentVector,
                       t_max: float,
                       cfg: IntegratorConfig = DEFAULT_CONFIG) -> Trajectory:
    """Geodesic of ``m`` from p0 with initial velocity v0, up to ``t_max``.

    The trajectory terminates early with BOUNDARY_ESCAPE when the fiber
    coordinate reaches the chart floor ``Z_FLOOR`` (escape parameter refined
    by bisection), or with STEP_LIMIT when the step budget runs out; a step
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


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

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

    def reversed(self) -> "StraightSegment":
        return StraightSegment(self.end, self.start)


@dataclass(frozen=True)
class CurveSpec:
    """Chart polyline: consecutive straight segments share endpoints."""

    segments: Tuple[StraightSegment, ...]

    def __init__(self, segments: Sequence[StraightSegment]):
        segments = tuple(segments)
        if not segments:
            raise CurveError("curve needs at least one segment")
        for a, b in zip(segments, segments[1:]):
            gap = np.max(np.abs(a.point(1.0) - b.point(0.0)))
            if gap > 1e-12:
                raise CurveError(f"consecutive segments differ by {gap} at the joint")
        # z is affine along a straight segment, so its endpoints bound it
        z = min(min(seg.start.z, seg.end.z) for seg in segments)
        if z <= Z_FLOOR:
            raise ChartDomainError(
                f"curve reaches z={z} at or below the floor {Z_FLOOR}")
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

def _check_3d(m: MetricField) -> None:
    if m.dim != 3:
        raise ValueError("curve transport requires a 3D metric")


def _transport_lanes(m: MetricField, segments, w0: np.ndarray,
                     cfg: IntegratorConfig, record: bool):
    """Transport the block w0[j] (3, width) along segments[j], as lanes of one run.

    Returns the accepted (s, (lanes, 3, width) state) samples; without
    ``record`` only the final one.
    """
    lanes, _, width = w0.shape
    field = _LinearField(m, segments, width)
    samples, status, _, _ = _integrate(field, w0.ravel(), 1.0, cfg, lanes=lanes,
                                    record=record)
    if status != COMPLETED:
        raise IntegrationError(f"transport ran out of steps ({status})")
    return [(s, y.reshape(lanes, 3, width)) for s, y in samples]


def _transport_curves(m: MetricField, curves: Sequence[CurveSpec],
                      w0: np.ndarray, cfg: IntegratorConfig, record: bool = False):
    """Carry the block w0[i] (3, width) along curves[i], for all curves at once.

    Round k integrates segment k of every curve that has one, as the lanes
    of one run, from where round k - 1 left that curve's block.  Returns the
    end blocks (curves, 3, width) and, with ``record``, each curve's
    accepted-step history [(t, coords, block), ...] with t the global curve
    parameter (segment index plus the in-segment parameter).
    """
    _check_3d(m)
    w = np.array(w0, dtype=float)
    traces = [[] for _ in curves]
    for k in range(max(len(curve.segments) for curve in curves)):
        active = [i for i, curve in enumerate(curves) if len(curve.segments) > k]
        segments = [curves[i].segments[k] for i in active]
        samples = _transport_lanes(m, segments, w[active], cfg, record)
        if record:
            for lane, (i, seg) in enumerate(zip(active, segments)):
                traces[i] += [(k + s, seg.point(s), y[lane]) for s, y in samples]
        w[active] = samples[-1][1]
    return w, traces


def parallel_transport(m: MetricField, curve: CurveSpec, w0: TangentVector,
                       cfg: IntegratorConfig = DEFAULT_CONFIG) -> TangentVector:
    """Parallel transport of w0 along the curve; returns the endpoint vector."""
    w = _vector(w0, 3, base=curve.start.coords)
    w_end, _ = _transport_curves(m, [curve], w[None, :, None], cfg)
    return TangentVector(curve.end, w_end[0, :, 0])


def transport_matrix(m: MetricField, curve: CurveSpec,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Matrix P whose columns are the transports of the coordinate frame.

    Every segment is transported from the identity as one lane of a single
    integration, and P is the product of the segment matrices, last segment
    leftmost.  P is a g-isometry between the endpoint tangent spaces:
    ``P.T g(end) P = g(start)`` up to integration tolerance.
    """
    _check_3d(m)
    identities = np.broadcast_to(np.eye(3), (len(curve.segments), 3, 3))
    p = np.eye(3)
    for p_seg in _transport_lanes(m, curve.segments, identities, cfg, False)[-1][1]:
        p = p_seg @ p
    return p


def transport_frame_trace(m: MetricField, curve: CurveSpec,
                          cfg: IntegratorConfig = DEFAULT_CONFIG):
    """Accepted-step history of the frame transport along the curve.

    Returns [(t, coords, P), ...] with t the global curve parameter
    (segment index plus the in-segment parameter).
    """
    _, traces = _transport_curves(m, [curve], np.eye(3)[None], cfg, record=True)
    return traces[0]


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
