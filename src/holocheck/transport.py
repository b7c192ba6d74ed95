"""Geodesic integration and parallel transport along chart polylines.

One integrator, the Dormand-Prince 8(5,3) pair of Hairer and Wanner's
DOP853, solves the geodesic equation, with floor escapes as events, and the
linear transport equation w' = A(s) w, each straight piece of a curve in one
step of its whole length.  Curve tangents come exactly from the curve model.
README's Modules section describes the step, the events and the pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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

# Width of the final bracket around a floor crossing, in the affine parameter.
EVENT_T_TOL = 1e-9
# Attempted steps one integration may take before it ends with STEP_LIMIT.
_MAX_STEPS = 1_000_000


class CurveError(ValueError):
    """A curve description is inconsistent (gaps, too few segments, ...)."""


class IntegrationError(RuntimeError):
    """The integrator could not finish (step underflow or step budget)."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive step control settings shared by all integrations."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.rel_tol) and np.isfinite(self.abs_tol)):
            raise ValueError("integrator tolerances must be finite")
        if self.rel_tol < 1e-14:
            raise ValueError("rel_tol below 1e-14 is not resolvable in double precision")
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")


DEFAULT_CONFIG = IntegratorConfig()


# ---------------------------------------------------------------------------
# Dormand-Prince 8(5,3) core (DOP853)
# ---------------------------------------------------------------------------

# The coefficients of Hairer and Wanner's DOP853 code (Hairer-Norsett-Wanner,
# Solving ODEs I, II.5 and II.10).  Stage s (1 to 11) takes the slope at
# t + _C[s] h; _C[12] = 1 is the abscissa of the slope at the new state, the
# next step's first (first same as last).
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
])
_A = np.zeros((12, 12))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, :2] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [2.41365134159266685502369798665e-1,
                    -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1]
_A[5, [0, 3, 4]] = [3.7037037037037037037037037037e-2,
                    1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1]
_A[6, [0, 3, 4, 5]] = [3.7109375e-2, 1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2, -1.7578125e-2]
_A[7, [0, 3, 4, 5, 6]] = [3.70920001185047927108779319836e-2,
                          1.70383925712239993810214054705e-1,
                          1.07262030446373284651809199168e-1,
                          -1.53194377486244017527936158236e-2,
                          8.27378916381402288758473766002e-3]
_A[8, [0, 3, 4, 5, 6, 7]] = [6.24110958716075717114429577812e-1,
                             -3.36089262944694129406857109825,
                             -8.68219346841726006818189891453e-1,
                             2.75920996994467083049415600797e1,
                             2.01540675504778934086186788979e1,
                             -4.34898841810699588477366255144e1]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [4.77662536438264365890433908527e-1,
                                -2.48811461997166764192642586468,
                                -5.90290826836842996371446475743e-1,
                                2.12300514481811942347288949897e1,
                                1.52792336328824235832596922938e1,
                                -3.32882109689848629194453265587e1,
                                -2.03312017085086261358222928593e-2]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [-9.3714243008598732571704021658e-1,
                                    5.18637242884406370830023853209,
                                    1.09143734899672957818500254654,
                                    -8.14978701074692612513997267357,
                                    -1.85200656599969598641566180701e1,
                                    2.27394870993505042818970056734e1,
                                    2.49360555267965238987089396762,
                                    -3.0467644718982195003823669022]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [2.27331014751653820792359768449,
                                        -1.05344954667372501984066689879e1,
                                        -2.00087205822486249909675718444,
                                        -1.79589318631187989172765950534e1,
                                        2.79488845294199600508499808837e1,
                                        -2.85899827713502369474065508674,
                                        -8.87285693353062954433549289258,
                                        1.23605671757943030647266201528e1,
                                        6.43392746015763530355970484046e-1]
# The 8th-order weights, and the 5th- and 3rd-order error estimates.
_B = np.zeros(12)
_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [5.42937341165687622380535766363e-2,
                                  4.45031289275240888144113950566,
                                  1.89151789931450038304281599044,
                                  -5.8012039600105847814672114227,
                                  3.1116436695781989440891606237e-1,
                                  -1.52160949662516078556178806805e-1,
                                  2.01365400804030348374776537501e-1,
                                  4.47106157277725905176885569043e-2]
_E5 = np.zeros(12)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [0.1312004499419488073250102996e-1,
                                   -0.1225156446376204440720569753e+1,
                                   -0.4957589496572501915214079952,
                                   0.1664377182454986536961530415e+1,
                                   -0.3503288487499736816886487290,
                                   0.3341791187130174790297318841,
                                   0.8192320648511571246570742613e-1,
                                   -0.2235530786388629525884427845e-1]
_E3 = _B.copy()
_E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                    0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1]
_ERR = np.array([_E5, _E3])
# Stage s (1 to 12) evaluates the slope at y + h * (_STAGE[s] @ k[:s]); the
# last row is _B's, so stage 12's point is the step's new state.
_STAGE = (None, *(_A[s, :s] for s in range(1, 12)), _B)
# The stage sums and error estimates through the rows' bound ndarray.dot: the
# BLAS call of ``@``, with its bits, at about half its dispatch cost.
_STAGE_DOT = (None, *(row.dot for row in _STAGE[1:]))
_ERR_DOT = _ERR.dot
# The abscissae as Python floats, so a callable's stage times t + c h are
# float arithmetic rather than numpy scalar arithmetic (the same bits).
_C_FLOAT = tuple(_C.tolist())

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# The step factor is err^(-1/8): the error estimate is of order 7 in h.
_EXPONENT = 1.0 / 8.0
# A step (or transported piece) narrower than this, relative to |t|, underflows.
_MIN_STEP = 1e-14


def _connection_matrices(m: MetricField, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``a[..., l, k, j] = sum_i Gamma^k_ij(c[..., l, :]) v[l, i]`` for (lanes, 3) ``v``.

    The model's closed form (``christoffel.connection``) when it ships one;
    else three broadcast products of the symbols, summed in the order of
    ``np.einsum("...kij,...i->...kj", gamma, v)``, whose sum starts from +0:
    its bits, an all-zero sum's sign included (a test pins them), at a
    fraction of its cost.  The closed form gives the same bits.
    """
    connection = getattr(m.christoffel, "connection", None)
    if connection is not None:
        return connection(c, v)
    gamma = _christoffel(m, c)
    v = v[:, :, None, None]
    a = gamma[..., 0, :] * v[:, 0]
    a += gamma[..., 1, :] * v[:, 1]
    a += gamma[..., 2, :] * v[:, 2]
    a += 0.0  # a sum of -0 terms is +0, as einsum's
    return a


class _LinearField:
    """The right-hand side A(s) w of the linear transport equation w' = A w.

    A(s) = -Gamma(c(s))[c'(s), .] does not depend on w, so its values at
    several abscissae come from one batch (:func:`_connection_matrices`).  Each
    straight piece is one lane, held as a row of the (lanes, 3) start and
    delta arrays; the state is the lanes' (3, width) blocks, flat.
    """

    def __init__(self, m: MetricField, c0: np.ndarray, delta: np.ndarray, width: int):
        self.m = m
        self.c0 = c0
        self.delta = delta
        # a straight segment's velocity is its constant delta; A holds -delta
        self.minus_delta = -delta
        self.shape = (len(c0), 3, width)

    def matrices(self, s) -> np.ndarray:
        """A at the abscissae ``s`` for every lane: shape np.shape(s) + (lanes, 3, 3).

        A point at or below z = 0 gives NaN coefficients, so the step that
        asked for it is rejected.
        """
        c = self.c0 + np.multiply.outer(s, self.delta)
        if np.minimum.reduce(c[..., 2], axis=None) <= 0.0:
            return np.full(c.shape + (3,), np.nan)
        return _connection_matrices(self.m, c, self.minus_delta)


@dataclass
class _IntegrationStats:
    """The work of one integration or of one curve's transport.

    ``attempted`` steps were accepted or rejected by the error test;
    ``refinement`` steps located a floor crossing; ``rhs`` counts every
    right-hand side evaluated, the starting-step choice's two included, and
    ``h_min`` and ``h_max`` are the extreme accepted steps.  A transport
    (:func:`_transport_pieces`) takes ``rounds`` batched steps of
    ``attempted`` pieces, keeps ``accepted`` and cuts ``rejected``; its
    ``rhs`` counts each piece's twelve abscissae, and it sets no h_min or
    h_max.
    """

    rounds: int = 0
    attempted: int = 0
    accepted: int = 0
    rejected: int = 0
    refinement: int = 0
    rhs: int = 0
    h_min: float = math.inf
    h_max: float = 0.0


def _rk_step(f, t, y, h, k1, stats):
    """One DOP853 step; returns (y_new, k) with k the (13, size) stage slopes.

    Row 12 of ``k`` is the slope at y_new.  ``f`` is a :class:`_LinearField`
    on an array state, whose coefficients at t and the eleven new stage
    abscissae come from one batch (``k1`` is not read); or a callable
    f(t, state) on a list of floats, with ``k1`` its slope at (t, y), which
    returns a sequence of floats.  Each stage sum is one BLAS product; a
    callable's stage states are formed in Python floats, which round as
    numpy's float64 arithmetic does.  A callable marks a point off the chart
    by NaN slopes (the geodesic right-hand side at or below z = 0): the
    step ends at that stage and returns a NaN state, which is rejected.
    """
    k = np.empty((13, len(y)))
    if isinstance(f, _LinearField):
        # the slope at t comes from the stages' batch, twelve abscissae in all
        a = f.matrices(t + _C[:12] * h)
        stats.rhs += 12 * f.shape[0]
        blocks = k.reshape((13,) + f.shape)
        np.matmul(a[0], y.reshape(f.shape), out=blocks[0])
        y_s = np.empty(y.size)
        y_block = y_s.reshape(f.shape)
        # an in-place product with a 0-d array dispatches faster than with h;
        # a product with 1 is exact, so a step of h = 1 skips it
        h_array = np.array(h) if h != 1.0 else None
        # stage 12 shares its abscissa t + h with stage 11
        for s, a_s, row in zip(range(1, 13), (*a[1:], a[11]), blocks[1:]):
            _STAGE_DOT[s](k[:s], out=y_s)
            if h_array is not None:
                y_s *= h_array
            y_s += y
            np.matmul(a_s, y_block, out=row)
        return y_s, k
    k[0] = k1
    for s in range(1, 13):
        y_s = [a + h * b for a, b in zip(y, _STAGE_DOT[s](k[:s]).tolist())]
        k[s, :] = k_s = f(t + _C_FLOAT[s] * h, y_s)  # [s, :] fills from a list faster
        if math.isnan(k_s[0]):
            stats.rhs += s
            k[s + 1:] = np.nan
            return [math.nan] * len(y), k
    stats.rhs += 12
    return y_s, k


def _error_norm(k, h, y0, y1, cfg):
    """Hairer's DOP853 error norm of a step from y0 to y1 (lists of floats).

    The 5th- and 3rd-order estimates e5 = _E5 @ k and e3 = _E3 @ k, scaled by
    max(|y0|, |y1|), combine as h |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2))
    over the n components.
    """
    e = _ERR_DOT(k[:12])
    n = e.shape[1]
    if n < 8:
        # numpy sums fewer than 8 terms left to right, so Python floats give
        # its bits
        e5 = e3 = 0.0
        for a5, a3, u, v in zip(*e.tolist(), y0, y1):
            scale = cfg.abs_tol + cfg.rel_tol * max(abs(u), abs(v))
            a5 /= scale
            a3 /= scale
            e5 += a5 * a5
            e3 += a3 * a3
    else:
        e /= cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
        e *= e
        e5, e3 = np.add.reduce(e, axis=1).tolist()
    den = e5 + 0.01 * e3
    if den <= 0.0:  # both estimates are zero
        den = 1.0
    return h * (e5 / math.sqrt(den)) / math.sqrt(n)


def _initial_step(f, y0, f0, t_end, cfg):
    """Hairer's starting step from y0, whose slope is f0; a slope exactly zero
    at t = 0 and at the probe bounds nothing (t_end)."""
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)

    def rms(x):
        # np.mean's bits: the sum of squares over the components
        x = x / scale
        x *= x
        return math.sqrt(float(np.add.reduce(x)) / x.size)

    d0, d1 = rms(y0), rms(f0)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / max(d1, 1e-5)
    moving = bool(f0.any())
    h0 = min(h0 if moving else 1e-6, t_end)
    f1 = f(h0, y0 + h0 * f0)
    if not np.isfinite(f1).all():
        return max(1e-8 * t_end, 1e-12)
    d = max(d1, rms(f1 - f0) / h0)
    # Python's pow, whose bits do not depend on numpy's SIMD dispatch
    h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** _EXPONENT
    if not (moving or f1.any()):
        return t_end
    return min(100 * h0, h1, t_end)


def _hermite_root(e0, m0, e1, m1):
    """A root in [0, 1] of the cubic with values e0 > 0 >= e1 and slopes m0, m1.

    The cubic is the Hermite interpolant on [0, 1]; Newton steps that leave
    the sign-verified bracket are replaced by its midpoint.  Returns NaN
    when the end values do not bracket a root (a non-finite state).
    """
    if not e0 > 0.0 >= e1:
        return math.nan
    b = 3.0 * (e1 - e0) - 2.0 * m0 - m1
    a = 2.0 * (e0 - e1) + m0 + m1
    lo, hi = 0.0, 1.0
    x = e0 / (e0 - e1)
    for _ in range(60):
        p = e0 + x * (m0 + x * (b + x * a))
        if p > 0.0:
            lo = x
        else:
            hi = x
        dp = m0 + x * (2.0 * b + 3.0 * a * x)
        x_new = x - p / dp if dp != 0.0 else math.nan
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-15:
            return x_new
        x = x_new
    return x


def _refine_escape(f, t, y, k1, h, y_new, k_new, fi, stats):
    """Locate where y[fi] falls to Z_FLOOR inside the accepted step [t, t+h].

    The bracket [lo, hi] of offsets has y[fi] > Z_FLOOR at lo and
    y[fi] <= Z_FLOOR at hi, both states computed.  Each pass steps from the
    lo state to the root of the cubic Hermite interpolant of y[fi] on the
    bracket, built from the states and slopes at its ends (no extra
    right-hand side: a step's last stage is the slope at its end).  The aim
    is shifted by EVENT_T_TOL / 16, first past the root and then towards
    the end that did not move last, so an accurate root closes the bracket
    from both sides in two passes.  An aim outside the bracket falls back
    to its midpoint.  Returns (t_cross, y_cross) at the right end of the final
    bracket, so the crossing parameter is never underestimated.
    """
    lo, y_lo, k_lo = 0.0, y, k1
    hi, y_hi, k_hi = h, y_new, k_new
    nudge = EVENT_T_TOL / 16
    shift = nudge
    while hi - lo > EVENT_T_TOL:
        w = hi - lo
        # in Python floats, which numpy scalars would slow but not change
        aim = lo + w * _hermite_root(float(y_lo[fi]) - Z_FLOOR, w * float(k_lo[fi]),
                                     float(y_hi[fi]) - Z_FLOOR, w * float(k_hi[fi])) + shift
        if not lo < aim < hi:
            aim = 0.5 * (lo + hi)
        y_aim, k = _rk_step(f, t + lo, y_lo, aim - lo, k_lo, stats)
        stats.refinement += 1
        if y_aim[fi] > Z_FLOOR:
            lo, y_lo, k_lo, shift = aim, y_aim, k[12], nudge
        else:  # at or below the floor, or off the chart
            hi, y_hi, k_hi, shift = aim, y_aim, k[12], -nudge
    return t + hi, y_hi


def _integrate(f, y0, t_end, cfg, floor_index=None):
    """Adaptive integration of y' = f(t, y) on [0, t_end].

    Returns ``(samples, status, t_event, stats)`` where samples is a list of
    (t, y) at accepted steps, y a list of floats (the initial state and,
    for an escape, the refined crossing state included).  ``status`` is
    COMPLETED, BOUNDARY_ESCAPE or STEP_LIMIT; the step budget counts
    attempted steps.  With ``floor_index`` it ends with BOUNDARY_ESCAPE where
    y[floor_index] falls to Z_FLOOR; while it falls, two kinds of step are
    taken no longer than the slope's path to Z_FLOOR / 2: the retry of a
    step that left the chart, and the step after an accepted one that was
    straight in y[floor_index] (each of its slopes has the floor component
    of its first), so a straight escape lands between the floor and the
    chart's edge in one step.  The step after a rejected one does not grow
    (Hairer-Norsett-Wanner, Solving ODEs I, II.4).  ``stats`` is its work.
    """
    y = np.asarray(y0, dtype=float)
    t = 0.0
    samples = [(0.0, y.tolist())]
    stats = _IntegrationStats()
    if t_end <= 0.0:
        return samples, COMPLETED, None, stats
    k1 = f(0.0, y)
    if not np.isfinite(k1).all():
        raise IntegrationError("derivative is not finite at the initial state")
    h = _initial_step(f, y, k1, t_end, cfg)
    stats.rhs += 2
    y = samples[0][1]
    rejected = False
    aim = False
    while t < t_end:
        if stats.attempted >= _MAX_STEPS:
            return samples, STEP_LIMIT, None, stats
        h = min(h, t_end - t)
        if aim and k1[floor_index] < 0.0:
            # Along the slope, y[floor_index] reaches Z_FLOOR / 2 after
            # (y - Z_FLOOR / 2) / -y', so a straight path lands between the
            # chart's edge and the floor.
            h = min(h, float((y[floor_index] - 0.5 * Z_FLOOR) / -k1[floor_index]))
        if h < _MIN_STEP * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t}")
        stats.attempted += 1
        y_new, k = _rk_step(f, t, y, h, k1, stats)
        if all(map(math.isfinite, y_new)):
            err_norm = _error_norm(k, h, y, y_new, cfg)
        else:
            err_norm = math.inf
        if not math.isfinite(err_norm):
            factor = _MIN_FACTOR
        elif err_norm == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm ** -_EXPONENT))
        if not err_norm <= 1.0:  # NaN from a non-finite error rejects too
            h *= factor
            # a step that left the chart is retried aimed along the slope
            aim = aim or (floor_index is not None and err_norm == math.inf)
            rejected = True
            stats.rejected += 1
            continue
        stats.accepted += 1
        stats.h_min = min(stats.h_min, h)
        stats.h_max = max(stats.h_max, h)
        if floor_index is not None and y_new[floor_index] <= Z_FLOOR:
            t_cross, y_cross = _refine_escape(f, t, y, k1, h, y_new, k[12],
                                              floor_index, stats)
            samples.append((t_cross, y_cross))
            return samples, BOUNDARY_ESCAPE, t_cross, stats
        # the next step is aimed at the floor when every slope of this one
        # has the floor component of its first: the path is straight in it
        # (an accepted step's first slope is finite)
        if floor_index is not None:
            column = k[:, floor_index].tolist()
            aim = column.count(column[0]) == 13
        t += h
        samples.append((t, y_new))
        if rejected:
            factor = min(factor, 1.0)
            rejected = False
        h *= factor
        y, k1 = y_new, k[12]
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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A geodesic's accepted steps, one row each, plus its termination.

    ``ts``, ``xs`` and ``vs`` are the arrays :func:`integrate_geodesic_coords`
    returns: parameters, positions and velocities, made read-only.
    ``samples`` is a view of the same rows as :class:`TrajectorySample`
    objects, built on first use.
    """

    ts: np.ndarray
    xs: np.ndarray
    vs: np.ndarray
    termination: Termination

    def __post_init__(self):
        for rows in (self.ts, self.xs, self.vs):
            rows.setflags(write=False)

    @cached_property
    def samples(self) -> Tuple[TrajectorySample, ...]:
        out = []
        for t, x, v in zip(self.ts, self.xs, self.vs):
            pt = ChartPoint.from_coords(x)
            out.append(TrajectorySample(float(t), pt, TangentVector(pt, v)))
        return tuple(out)


def _geodesic_rhs(m: MetricField, fi: Optional[int]):
    """The geodesic equation's right-hand side (v, -Gamma(v, v)) for y = (x, v).

    ``rhs(t, y)`` takes the state as a list of floats and returns a list, as
    the step calls it at each stage, or as an array and returns an array.  A
    state at or below z = 0 gets NaN slopes.
    """
    dim = m.dim
    # the model's closed form contracts itself for one state, with einsum's bits
    acceleration = getattr(m.christoffel, "acceleration", None)

    def rhs(t, y):
        if isinstance(y, np.ndarray):
            return np.array(rhs(t, y.tolist()))
        if fi is not None and y[fi] <= 0.0:
            return [math.nan] * (2 * dim)
        if acceleration is not None:
            return y[dim:] + acceleration(y[:dim], y[dim:])
        v = np.array(y[dim:])
        return y[dim:] + np.negative(
            np.einsum("kij,i,j->k", _christoffel(m, np.array(y[:dim])), v, v)).tolist()

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
    samples, status, t_event, _ = _integrate(
        _geodesic_rhs(m, fi), np.concatenate([x0, v0]), t_max, cfg, fi)
    ts = np.array([t for t, _ in samples])
    ys = np.array([y for _, y in samples])
    return ts, ys[:, :m.dim], ys[:, m.dim:], Termination(status, t_event)


def integrate_geodesic(m: MetricField, p0: ChartPoint, v0: TangentVector,
                       t_max: float,
                       cfg: IntegratorConfig = DEFAULT_CONFIG) -> Trajectory:
    """Geodesic of ``m`` from p0 with initial velocity v0, up to ``t_max``.

    The trajectory terminates early with BOUNDARY_ESCAPE when the fiber
    coordinate reaches the chart floor ``Z_FLOOR`` (escape parameter located
    within EVENT_T_TOL, never before the crossing), or with STEP_LIMIT when the step budget runs out; a step
    limit is reported, never silently truncated.
    """
    if m.dim != 3:
        raise ValueError("chart trajectories require a 3D metric; "
                         "use integrate_geodesic_coords for other dimensions")
    v0c = _vector(v0, 3, base=p0.coords)
    return Trajectory(*integrate_geodesic_coords(m, p0.coords, v0c, t_max, cfg))


def geodesic_energy_drift(m: MetricField, traj: Trajectory) -> float:
    """Max relative drift of g(v, v) along the trajectory's steps."""
    energies = []
    for x, v in zip(traj.xs, traj.vs):
        g = np.asarray(m.components(x), dtype=float)
        energies.append(float(v @ g @ v))
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
        if not np.isfinite(delta).all():
            raise CurveError("segment length overflows a float")
        delta.setflags(write=False)
        c0 = self.start.coords
        c0.setflags(write=False)
        object.__setattr__(self, "_c0", c0)
        object.__setattr__(self, "_delta", delta)

    def point(self, s) -> np.ndarray:
        return self._c0 + np.multiply.outer(s, self._delta)


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


# A transported segment is cut into at least this many pieces, and into
# more where its z range exceeds a ratio of 2 ** _MIN_PIECES.
_MIN_PIECES = 8
# The most pieces one batched transport step takes, and one cut makes.
_MAX_LANES = 256
# The state of _MAX_LANES pieces at their starts: identity frames, flat.
_IDENTITIES = np.tile(np.eye(3).ravel(), _MAX_LANES)
_IDENTITIES.setflags(write=False)


def _pieces(curve: CurveSpec):
    """Cut every segment of the curve into pieces, as (pieces, 3) start and delta arrays.

    A segment whose z runs from z0 to z1 is cut into n = max(_MIN_PIECES,
    ceil(log2 of the larger over the smaller)) pieces with geometric z
    boundaries z0 (z1 / z0)^(i / n), so no piece spans a z ratio above 2;
    at constant z they are equal in the segment parameter.  Returns
    ``(c0, delta, k, a, d)``: piece j covers the global curve parameters
    k[j] + (a[j] + s d[j]) for s in [0, 1] (segment index plus the
    in-segment parameter).
    """
    cuts = []
    for seg in curve.segments:
        log_ratio = math.log1p(seg._delta[2] / seg._c0[2])
        n = max(_MIN_PIECES, math.ceil(abs(log_ratio) / math.log(2.0)))
        u = np.arange(n + 1) / n
        if log_ratio != 0.0:
            # libm's expm1, whose bits do not depend on numpy's SIMD dispatch
            u = np.array([math.expm1(x * log_ratio) for x in u.tolist()])
            u /= u[-1]
        cuts.append(u)
    k = np.repeat(np.arange(len(cuts)), [len(u) - 1 for u in cuts])
    a = np.concatenate([u[:-1] for u in cuts])
    d = np.concatenate([np.diff(u) for u in cuts])
    v = np.array([seg._delta for seg in curve.segments])[k]
    c0 = np.array([seg._c0 for seg in curve.segments])[k]
    return c0 + a[:, None] * v, d[:, None] * v, k, a, d


def _piece_errors(k: np.ndarray, y_new: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Hairer's error norm (see :func:`_error_norm`) of each piece's step of
    h = 1 from the identity, whose |y| is itself; inf for a piece whose new
    frame is not finite."""
    lanes = len(y_new) // 9
    scale = np.abs(y_new)
    np.maximum(scale, _IDENTITIES[:len(y_new)], out=scale)
    scale *= cfg.rel_tol
    scale += cfg.abs_tol
    e = _ERR_DOT(k[:12])
    e /= scale
    e *= e
    e5, e3 = np.add.reduce(e.reshape(2, lanes, 9), axis=2)
    den = e5 + 0.01 * e3
    rest = den <= 0.0  # both estimates are zero
    if rest.any():
        den[rest] = 1.0
    err = e5 / np.sqrt(9.0 * den)
    # an overflowed frame makes its scale infinite, which can drive its norm
    # to 0, so the frames themselves are tested, lane by lane only when the
    # batch is not finite
    if not np.isfinite(y_new).all():
        err[~np.isfinite(y_new).reshape(lanes, 9).all(axis=1)] = math.inf
    return err


def _transport_pieces(m: MetricField, c0: np.ndarray, delta: np.ndarray,
                      cfg: IntegratorConfig):
    """Transport the frame from the identity along c0[j] + s delta[j], s in [0, 1].

    Each piece takes one DOP853 step of its whole length (h = 1), with the
    pending pieces as lanes, at most _MAX_LANES to a batched step.  A piece
    whose own error norm is at most 1 is kept; any other is cut into
    n = ceil(1 / factor) equal sub-pieces, stepped before the pieces after
    them, with :func:`_integrate`'s factor _SAFETY err^(-1/8) (_MIN_FACTOR
    for a non-finite step) and n at most _MAX_LANES.  Returns
    ``(j, u, frames, stats)`` for the kept pieces in curve order: piece i
    starts at s = u[i] of piece j[i], and frames[i] is its transport.
    Raises IntegrationError when the piece-steps would exceed _MAX_STEPS or
    a piece would be narrower than _MIN_STEP.
    """
    stats = _IntegrationStats()
    # pending runs of equal pieces: run r is n[r] pieces of width w[r] in
    # piece j[r], the first at u[r]; each cut adds one run, so few pend
    runs = [np.arange(len(c0)), np.zeros(len(c0)), np.ones(len(c0)), np.ones(len(c0), int)]
    kept = []
    while len(runs[0]):
        cum = np.cumsum(runs[3])
        r = int(np.searchsorted(cum, _MAX_LANES, side="right"))  # runs stepped whole
        j, u, w, n = (x[:r] for x in runs)
        runs = [x[r:] for x in runs]  # views nothing else reads: their head may change
        spare = _MAX_LANES - (int(cum[r - 1]) if r else 0)
        if len(runs[0]) and spare:  # the next run's first pieces fill the step
            j, u, w = (np.append(a, b[0]) for a, b in zip((j, u, w), runs))
            n = np.append(n, spare)
            runs[1][0] += spare * runs[2][0]
            runs[3][0] -= spare
        if len(n) < (lanes := int(n.sum())):  # a run of several pieces
            first = np.repeat(np.cumsum(n) - n, n)  # each piece's run's first piece
            j, w = np.repeat(j, n), np.repeat(w, n)
            u = np.repeat(u, n) + (np.arange(lanes) - first) * w
        field = _LinearField(m, c0[j] + u[:, None] * delta[j], w[:, None] * delta[j], 3)
        y_new, k = _rk_step(field, 0.0, _IDENTITIES[:9 * lanes], 1.0, None, stats)
        stats.rounds += 1
        stats.attempted += lanes
        err = _piece_errors(k, y_new, cfg)
        ok = err <= 1.0  # NaN from a non-finite step is cut too
        kept.append((j[ok], u[ok], y_new.reshape(lanes, 3, 3)[ok]))
        if ok.all():
            continue
        cut = ~ok
        err = err[cut]
        stats.rejected += len(err)
        factor = np.where(np.isfinite(err), _SAFETY * err ** -_EXPONENT, _MIN_FACTOR)
        n = np.minimum(np.ceil(1.0 / factor), _MAX_LANES).astype(int)
        if stats.attempted + runs[3].sum() + n.sum() > _MAX_STEPS:
            raise IntegrationError("transport ran out of steps")
        w = w[cut] / n
        if w.min() < _MIN_STEP:  # a piece's own t starts at 0
            raise IntegrationError("step size underflow at t=0.0")
        runs = [np.concatenate(x) for x in zip((j[cut], u[cut], w, n), runs)]
    stats.accepted = stats.attempted - stats.rejected
    if len(kept) == 1:
        return (*kept[0], stats)
    j, u, frames = (np.concatenate(x) for x in zip(*kept))
    order = np.lexsort((u, j))
    return j[order], u[order], frames[order], stats


def _product(frames: np.ndarray) -> np.ndarray:
    """frames[-1] @ ... @ frames[0], as a pairwise tree of stacked 3x3 products."""
    while len(frames) > 1:
        pairs = np.matmul(frames[1::2], frames[:-1:2])
        frames = np.concatenate((pairs, frames[-1:])) if len(frames) % 2 else pairs
    return frames[0]


def transport_matrix(m: MetricField, curve: CurveSpec,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Matrix P whose columns are the transports of the coordinate frame.

    The product, last piece leftmost, of the frames that
    :func:`_transport_pieces` carries along the curve's pieces
    (:func:`_pieces`): transport is linear.  P is a g-isometry between the
    endpoint tangent spaces, ``P.T g(end) P = g(start)`` up to integration
    tolerance.
    """
    _check_3d(m)
    c0, delta = _pieces(curve)[:2]
    return _product(_transport_pieces(m, c0, delta, cfg)[2])


def transport_frame_trace(m: MetricField, curve: CurveSpec,
                          cfg: IntegratorConfig = DEFAULT_CONFIG):
    """The frame transport along the curve, one row per transported piece.

    Returns [(t, coords, P), ...] in increasing t, the global curve
    parameter (segment index plus the in-segment parameter): the start,
    then a row at the end of each piece that :func:`transport_matrix`
    multiplies, with the product up to it.  A piece ends at the next piece's
    start, the last at the curve's end.
    """
    _check_3d(m)
    c0, delta, k, a, d = _pieces(curve)
    j, u, frames, _ = _transport_pieces(m, c0, delta, cfg)
    t_starts = k[j] + (a[j] + u * d[j])
    starts = c0[j] + u[:, None] * delta[j]
    t_ends = np.append(t_starts[1:], len(curve.segments))
    ends = np.vstack([starts[1:], curve.segments[-1].end.coords])
    trace = [(0.0, starts[0], np.eye(3))]
    for t, c, frame in zip(t_ends, ends, frames):
        trace.append((t, c, frame @ trace[-1][2]))
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
    for row in np.column_stack([traj.ts, traj.xs, traj.vs]).tolist():
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"
