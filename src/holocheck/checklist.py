"""The verification checklist: twelve checks, one per geometric claim.

Each check computes a residual and compares it against a pinned tolerance.
Single-quantity checks report the raw residual; composite checks report
the worst residual/tolerance ratio against 1.0 and list the raw parts in
the note.  A module error inside a check becomes a failed check with
diagnostic text, never a crash of the run.

The sampled checks (C2, C3, C4, C5, C9, C11, C12) share one sweep over the
sample points in chunks of :data:`CHUNK` points, which keeps the rank-4
curvature arrays small: per chunk a :class:`_Chunk` validates the points and
builds g, its exact partials, g^-1, the Christoffel symbols, the curvature
and g at the deck images (C2's and C9's) at most once, and each check keeps
its per-chunk maxima (:class:`_Maxima`) of residuals computed from those
arrays, reduced once when the check reads them.  The sampled planes all
contain a coordinate axis, so their sectional curvature contracts only the
slice of R along that axis.  The Christoffel symbols and their derivatives
in the curvature are the model's closed form, so both parts of C3
compare that connection with a derivative of g: the exact part with g's
exact partials, the numeric part with central differences at h = 1e-5,
which checks the exact partials as well.  C5 reads grad v1 off the same
symbols: v1 is parallel where every Gamma^k_(i xt) vanishes, so
transport along any curve fixes it.  A fault in one fold fails only
that check; a fault in the shared geometry fails every check that reads
it.  C11 keeps its own derivatives on purpose: it takes the half-plane
leaf's curvature from the induced 2-D metric at the sweep's heights by
Brioschi's formula, the independent cross-check of C4's Riemann tensor.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .foliation import gaussian_curvature, induced_halfplane_metric, induced_line_metric
from .quotient import (
    LoopClass,
    ToralMatrixError,
    _deck_defect,
    _rescaled,
    _rescaled_partials,
    deck_differential,
    eigen_basis,
    holonomy_element,
    holonomy_of_loop,
    validate_toral_matrix,
)
from .report import CheckResult, VerificationReport, passes
from .tensor_core import (
    ChartPoint,
    MetricField,
    TangentVector,
    Z_FLOOR,
    _conformal_fit,
    _Geometry,
    _metric,
    _nabla,
    _partials,
    sectional_curvature,
    warped_metric,
)
from .transport import (
    CurveSpec,
    DEFAULT_CONFIG,
    IntegrationError,
    IntegratorConfig,
    StraightSegment,
    Termination,
    Trajectory,
    coordinate_rectangle,
    integrate_geodesic,
    integrate_geodesic_coords,
    trajectory_to_csv,
    transport_frame_trace,
    transport_matrix,
)


class ConfigError(ValueError):
    """The checklist configuration itself is unusable."""


# Points per chunk of the sweep: large enough that numpy overhead is spread
# over many points, small enough that the (CHUNK, 3, 3, 3, 3) curvature
# arrays stay a few hundred kB.
CHUNK = 256


# The horizon of the downward probes from height 1 (C8, C11 and the escape
# trace), twice the affine parameter at which they meet the floor.
_DOWN_T_MAX = 2.0
# The upward probe's horizon (C8).
_UP_T_MAX = 100.0
# The pinned tolerances of exactly-zero residuals (C3, C4, C9) and of the
# curvature constants (C4).
_TOL_ABS = 1e-8
_TOL_REL = 1e-6


@dataclass(frozen=True)
class ChecklistConfig:
    """Inputs of a verification run; defaults reproduce the certified case.

    The tolerances and the upward horizon are pinned (``_TOL_ABS``,
    ``_TOL_REL``, ``_UP_T_MAX``) and echoed in the report; every run
    integrates with the integrator defaults, ``DEFAULT_CONFIG``."""

    matrix: Tuple[Tuple[int, int], Tuple[int, int]] = ((2, 1), (1, 1))
    samples: int = 1000
    seed: int = 0
    # Test hook: any exponent other than 4 breaks the deck homothety (C2).
    metric_exponent: float = 4.0
    emit_traces_dir: Optional[str] = None

    def __post_init__(self):
        # Python ints and floats only: a bool, a float count or a numpy
        # scalar would crash the run or its JSON echo.
        for name in ("samples", "seed", "metric_exponent"):
            value, whole = getattr(self, name), name != "metric_exponent"
            try:
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value) if whole else float(value))
            except (TypeError, OverflowError):
                kind = "an integer" if whole else "a real number"
                raise ConfigError(f"{name} must be {kind}, got {value!r}") from None
        if self.samples <= 0:
            raise ConfigError("samples must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not math.isfinite(self.metric_exponent):
            raise ConfigError("metric_exponent must be finite")


def _worst(values) -> float:
    """The largest of ``values`` as a float, +inf if any of them is NaN.

    Python's ``max`` skips a NaN that comes second, and a residual of NaN
    would pass no check, so a NaN residual reads as the worst one.
    """
    top = float(np.max(values))
    return np.inf if np.isnan(top) else top


class _Maxima(dict):
    """Maxima of named residuals, one per folded chunk, reduced by
    :func:`_worst` when a part is read; a part that no fold wrote raises
    KeyError, so its check fails."""

    def fold(self, name: str, values) -> None:
        self.setdefault(name, []).append(np.maximum.reduce(values, axis=None))

    def __getitem__(self, name: str) -> float:
        return _worst(dict.__getitem__(self, name))


class _Context:
    """Shared artifacts for one run; all randomness is drawn up front."""

    def __init__(self, config: ChecklistConfig, matrix):
        self.config = config
        self.matrix = matrix
        self.frame = eigen_basis(matrix)
        self.df = deck_differential(matrix, self.frame)
        self.metric = warped_metric(config.metric_exponent)
        self.leaf = induced_halfplane_metric(self.metric)
        rng = np.random.default_rng(config.seed)
        n = config.samples
        xs = rng.uniform(-5.0, 5.0, n)
        ys = rng.uniform(-5.0, 5.0, n)
        zs = rng.uniform(0.2, 10.0, n)
        self.points = np.stack([xs, ys, zs], axis=-1)
        dirs = rng.uniform(-1.0, 1.0, (n, 3))
        self.directions = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        self.mixed_planes = rng.uniform(0.0, 2.0 * np.pi, n)
        # C12's mixed planes (x, cos theta, sin theta)
        theta, x = rng.uniform([0.0, -1.0], [2.0 * np.pi, 1.0], (n, 2)).T
        self.split_planes = np.stack([x, np.cos(theta), np.sin(theta)], axis=-1)

    @cached_property
    def holonomies(self) -> dict:
        """Generator-loop and contractible-loop holonomy elements at (0,0,1)."""
        base = ChartPoint(0.0, 0.0, 1.0)
        elems = {gen: holonomy_of_loop(self.matrix, self.metric, LoopClass([gen], base))
                 for gen in ("gx", "gy", "gz")}
        rect = coordinate_rectangle(base, 1, 2, 0.4)
        elems["contractible"] = holonomy_element(
            transport_matrix(self.metric, rect), _metric(self.metric, base.coords))
        return elems

    @cached_property
    def descent(self) -> Trajectory:
        """The unit-speed geodesic falling from (0, 0, 1): C8's probe and the
        escape trace."""
        p0 = ChartPoint(0.0, 0.0, 1.0)
        return integrate_geodesic(self.metric, p0, TangentVector(p0, [0.0, 0.0, -1.0]),
                                  _DOWN_T_MAX)

    def swept(self, check_id: str) -> _Maxima:
        """The maxima a sampled check folded over the sweep; re-raises its fault."""
        result = self.sweep[check_id]
        if isinstance(result, Exception):
            raise result
        return result

    @cached_property
    def sweep(self) -> dict:
        """Walk the samples once, in chunks; every sampled check folds each one.

        A check whose fold raises stops folding and keeps the exception, so
        only that check fails.  The shared geometry raises in every fold
        that reads it (see :class:`tensor_core._Geometry`).
        """
        folds = [(check_id, check.fold) for check_id, check in _CHECKS.items()
                 if check.fold is not None]
        results = {check_id: _Maxima() for check_id, _ in folds}
        for start in range(0, len(self.points), CHUNK):
            sl = slice(start, start + CHUNK)
            geo = _Chunk(self.metric, self.points[sl], self.df)
            for check_id, fold in folds:
                out = results[check_id]
                if isinstance(out, Exception):
                    continue
                try:
                    fold(self, geo, sl, out)
                except Exception as exc:
                    results[check_id] = exc
        return results


class _Chunk(_Geometry):
    """One chunk of the sweep: its shared geometry and the metric at the
    deck images of its points, built once for C2 and C9."""

    def __init__(self, m: MetricField, points: np.ndarray, df: np.ndarray):
        super().__init__(m, points)
        self.df = df

    @cached_property
    def deck_c(self) -> np.ndarray:
        return self.c @ self.df.T

    @cached_property
    def deck_g(self) -> np.ndarray:
        return _metric(self.m, self.deck_c)


class _Verdict(NamedTuple):
    """What a check function returns; :func:`_run` adds the registry row's
    id, description and claim."""

    residual: float
    tolerance: float
    note: str = ""
    worst_part: str = ""

    @property
    def passed(self) -> bool:
        return passes(self.residual, self.tolerance)


def _failed(note: str) -> _Verdict:
    """A check that could not produce a residual: residual inf, tolerance 0."""
    return _Verdict(math.inf, 0.0, note)


# Two parts' ratios tie when they agree to 9 significant digits.  A residual
# such as |x - 1| with x near 1 carries roundoff of a few ulps of x, which
# is relative to the residual itself 1 / |x - 1| times larger: C4's two
# parts, equal in exact arithmetic at exponents other than 4, differ by 9e-13
# of their ratio at exponent 4.001 (5,859 ulps).  The text report prints 4.
_TIE = 1.0 + 1e-9


def _composite(parts) -> _Verdict:
    """Fold named (residual, tolerance) parts into one normalized check.

    The check's residual is the largest residual/tolerance ratio.  The worst
    part named is the first with that ratio, where a later part whose ratio
    exceeds the largest so far by a factor below ``_TIE`` ties with it:
    parts equal in exact arithmetic keep the name of the first, whichever
    roundoff makes larger.
    """
    worst, worst_part = -math.inf, ""
    details = []
    for name, residual, tolerance in parts:
        if not math.isfinite(residual):
            ratio = math.inf
        elif tolerance > 0:
            ratio = residual / tolerance
        else:
            ratio = 0.0 if residual <= 0.0 else math.inf
        if ratio > worst:
            if ratio > worst * _TIE:
                worst_part = name
            worst = ratio
        details.append(f"{name}: residual={residual:.3e} tol={tolerance:.1e}")
    return _Verdict(max(0.0, worst), 1.0, "; ".join(details), worst_part)


_E1, _E2, _E3 = np.eye(3)


def _fold_homothety(ctx: _Context, geo: _Chunk, sl: slice, out: _Maxima):
    # The residual is roundoff on entries of size lambda^2 z^4, so each
    # point's residual is measured against its largest entry of lambda^2 g.
    lam2 = ctx.frame.lam ** 2
    residual = _deck_defect(ctx.df, lam2, geo.deck_g, geo.g)
    out.fold("relative", residual / (lam2 * np.max(np.abs(geo.g), axis=(-2, -1))))
    out.fold("absolute", residual)


def _fold_compatibility(ctx: _Context, geo: _Chunk, sl: slice, out: _Maxima):
    # The connection against g's exact partials and against its central
    # differences, which also cross-check the exact partials.
    d = _partials(ctx.metric, geo.c, "numeric", 1e-5)
    exact, numeric = np.abs(_nabla(geo.gamma, geo.g, np.stack((geo.dg, d))))
    out.fold("exact", exact)
    out.fold("numeric", numeric)


def _fold_nonflat(ctx: _Context, geo: _Chunk, sl: slice, out: _Maxima):
    riemann, _, scalar = geo.curvature
    z2 = geo.c[:, 2] ** 2
    out.fold("scalar", np.abs(scalar * z2 / -4.0 - 1.0))
    k23 = sectional_curvature(geo.g, riemann, _E2, _E3)
    out.fold("halfplane", np.abs(k23 * z2 / -2.0 - 1.0))
    theta = ctx.mixed_planes[sl]
    v = np.stack([np.full_like(theta, 0.3), np.cos(theta), np.sin(theta)], axis=-1)
    out.fold("flat_planes", np.abs(sectional_curvature(geo.g, riemann, _E1, v)))


def _fold_parallel_field(ctx: _Context, geo: _Chunk, sl: slice, out: _Maxima):
    # v1 = d/dxt is a coordinate field, so grad_(e_i) v1 = Gamma^k_(i xt) e_k
    out.fold("grad_v1", np.abs(geo.gamma[..., 0]))


def _fold_conformal(ctx: _Context, geo: _Chunk, sl: slice, out: _Maxima):
    # g' = z^-2 g and its partials from the chunk's g and d g, as
    # quotient_conformal_metric computes them
    c, d = geo.c, ctx.directions[sl]
    gp = _rescaled(c, geo.g)
    dp = _rescaled_partials(c, geo.g, geo.dg)
    mu, res = _conformal_fit(_nabla(geo.gamma, gp, dp), gp, d)
    out.fold("residual", res)
    out.fold("mu_err", np.abs(mu - (-2.0 * d[:, 2] / c[:, 2])))
    out.fold("invariance", _deck_defect(ctx.df, 1.0, _rescaled(geo.deck_c, geo.deck_g), gp))


_LEAF_CURVATURE = "gaussian_curvature_times_z2_is_minus_2"


def _fold_halfplane_leaf(ctx: _Context, geo: _Chunk, sl: slice, out: _Maxima):
    # The leaf's own induced metric at the sweep's heights, not the ambient
    # Riemann tensor: C11 stays an independent cross-check of C4.
    z = geo.c[:, 2]
    k = gaussian_curvature(ctx.leaf, np.stack([np.zeros_like(z), z], axis=-1))
    out.fold(_LEAF_CURVATURE, np.abs(k * z * z / -2.0 - 1.0))


# Christoffel symbols with an index along the line direction e1.
_MIXED = np.zeros((3, 3, 3), dtype=bool)
_MIXED[0, :, :] = _MIXED[:, 0, :] = _MIXED[:, :, 0] = True
_SHIFT = np.array([1.3, -0.7, 0.0])


def _fold_split(ctx: _Context, geo: _Chunk, sl: slice, out: _Maxima):
    g = geo.g
    out.fold("metric_block_diagonal", np.abs(g[:, 0, 1:]))
    out.fold("line_block_constant", np.abs(g[:, 0, 0] - 1.0))
    out.fold("blocks_depend_only_on_z", np.abs(_metric(geo.m, geo.c + _SHIFT) - g))
    out.fold("mixed_christoffel_vanish", np.abs(geo.gamma[:, _MIXED]))
    out.fold("planes_containing_line_flat",
             np.abs(sectional_curvature(g, geo.curvature[0], _E1, ctx.split_planes[sl])))


def _check_gluing(ctx: _Context) -> _Verdict:
    return _Verdict(0.0, 0.0, f"trace={ctx.matrix.trace}, det=1")


def _check_homothety(ctx: _Context, out: _Maxima) -> _Verdict:
    return _Verdict(out["relative"], 1e-10,
                   f"max over {len(ctx.points)} points of |f*g - lambda^2 g| / "
                   f"max|lambda^2 g|; absolute max {out['absolute']:.3e}")


def _check_compatibility(ctx: _Context, out: _Maxima) -> _Verdict:
    return _composite([("exact_partials_path", out["exact"], _TOL_ABS),
                             ("numeric_partials_path_h=1e-5", out["numeric"], 1e-5)])


def _check_nonflat(ctx: _Context, out: _Maxima) -> _Verdict:
    return _composite([
        ("scalar_times_z2_is_minus_4", out["scalar"], _TOL_REL),
        ("halfplane_sectional_times_z2_is_minus_2", out["halfplane"], _TOL_REL),
        ("planes_containing_v1_flat", out["flat_planes"], _TOL_ABS),
    ])


def _check_parallel_field(ctx: _Context, out: _Maxima) -> _Verdict:
    return _Verdict(out["grad_v1"], 1e-8,
                   f"max over {len(ctx.points)} points of |Gamma^k_(i xt)| = "
                   f"|grad_(e_i) v1|")


def _check_reducibility(ctx: _Context) -> _Verdict:
    return _composite([(name, elem.invariant_line_residual, 1e-7)
                       for name, elem in ctx.holonomies.items()])


def _check_similarity(ctx: _Context) -> _Verdict:
    elems = ctx.holonomies
    lam = ctx.frame.lam
    gz_matrix_res = float(np.max(np.abs(elems["gz"].matrix - np.eye(3) / lam)))
    parts = [("gz_matrix_is_inverse_lambda_identity", gz_matrix_res, 1e-6)]
    # an isometry keeps every g-length and angle, not only the mean length ratio
    for name in ("gx", "gy", "contractible"):
        parts += [(f"{name}_scale_is_1", abs(elems[name].scale - 1.0), 1e-7),
                  (f"{name}_is_isometry", elems[name].ortho_defect, 1e-7)]
    return _composite(parts)


def _escape_parts(term: Termination, z: float, v_z: float, at_t1: str,
                  at_crossing: str) -> list:
    """The parts of a unit-speed geodesic falling from z = 1, read off its
    escape row (t_escape, z, v_z): continued straight from there it reaches
    z = 0 at t_escape + z / |v_z| = 1, and it escapes within 1e-8 of where
    the line z = 1 - t meets the floor, 1 - Z_FLOOR."""
    if not term.escaped:
        return [(at_t1, math.inf, 1e-8), (at_crossing, math.inf, 1e-8)]
    return [(at_t1, abs(term.t_escape + float(z) / abs(float(v_z)) - 1.0), 1e-8),
            (at_crossing, abs(term.t_escape - (1.0 - Z_FLOOR)), 1e-8)]


def _check_incompleteness(ctx: _Context) -> _Verdict:
    down = ctx.descent
    parts = _escape_parts(down.termination, down.xs[-1, 2], down.vs[-1, 2],
                          "downward_escape_at_t=1", "downward_escape_at_crossing")
    p0 = ChartPoint(0.0, 0.0, 1.0)
    up = integrate_geodesic(ctx.metric, p0, TangentVector(p0, [0.0, 0.0, 1.0]),
                            _UP_T_MAX)
    return _composite(parts + [("upward_completes",
                                0.0 if up.termination.completed else math.inf, 0.0)])


def _check_conformal(ctx: _Context, out: _Maxima) -> _Verdict:
    return _composite([
        ("conformal_residual", out["residual"], _TOL_ABS),
        ("mu_matches_-2Vz_over_z", out["mu_err"], 1e-8),
        ("deck_invariance_of_gprime", out["invariance"], 1e-10),
    ])


def leaf_first_check(m: MetricField, t_max: float = 1e3,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> _Verdict:
    """C10, the line leaf: constant (flat) induced metric, long-horizon completeness.

    Completeness is numerical evidence only: a geodesic integrated to
    ``t_max`` without escape, not a proof for all time.
    """
    line = induced_line_metric(m)
    samples = np.linspace(-8.0, 8.0, 9)
    g_ref = _metric(line, samples[:1])
    const_res = _worst([np.abs(_metric(line, np.array([x])) - g_ref) for x in samples])
    p0 = ChartPoint(0.0, 0.0, 1.0)
    traj = integrate_geodesic(m, p0, TangentVector(p0, [1.0, 0.0, 0.0]), t_max, cfg)
    horizon_res = 0.0 if traj.termination.completed else math.inf
    _, yt, z = traj.xs[-1]
    drift_res = _worst([abs(yt), abs(z - 1.0)])
    curve = CurveSpec([StraightSegment(p0, ChartPoint(7.0, 0.0, 1.0))])
    # the transport of v1 = e1 is the matrix's first column
    fix_res = float(np.max(np.abs(transport_matrix(m, curve, cfg)[:, 0] - _E1)))
    return _composite([
        ("induced_metric_constant", const_res, 1e-12),
        ("long_horizon_geodesic_completes", horizon_res, 0.0),
        ("geodesic_stays_in_leaf", drift_res, 1e-7),
        ("transport_fixes_leaf_tangent", fix_res, 1e-8),
    ])


def _check_halfplane_leaf(ctx: _Context, out: _Maxima) -> _Verdict:
    _, xs, vs, term = integrate_geodesic_coords(
        ctx.leaf, np.array([0.0, 1.0]), np.array([0.0, -1.0]), _DOWN_T_MAX)
    return _composite([(_LEAF_CURVATURE, out[_LEAF_CURVATURE], 1e-6)] + _escape_parts(
        term, xs[-1, 1], vs[-1, 1], "downward_geodesic_escapes_at_t1",
        "downward_geodesic_escapes_at_crossing"))


_SPLIT_TOLERANCES = (
    ("metric_block_diagonal", 1e-12),
    ("line_block_constant", 1e-12),
    ("blocks_depend_only_on_z", 1e-12),
    ("mixed_christoffel_vanish", 1e-10),
    ("planes_containing_line_flat", 1e-8),
)


def _check_product_split(ctx: _Context, out: _Maxima) -> _Verdict:
    return _composite([(name, out[name], tol) for name, tol in _SPLIT_TOLERANCES])


class _Check(NamedTuple):
    """One check: its report text, its check function and, for a sampled
    check, the fold it runs on each chunk of the sweep; a sampled check's
    function also gets the maxima its fold kept."""

    description: str
    claim: str
    run: Callable[..., _Verdict]
    fold: Optional[Callable[[_Context, _Chunk, slice, _Maxima], None]] = None


# Every check, one row each, in report order; the sampled checks fold each
# chunk of the one sweep in this order too.
_CHECKS = {
    "C1": _Check("gluing matrix is hyperbolic in SL(2,Z)",
                 "the gluing matrix lies in SL(2,Z) with real positive eigenvalues "
                 "lambda > 1 > 1/lambda",
                 _check_gluing),
    "C2": _Check("deck homothety f*g = lambda^2 g",
                 "the deck map rescales the metric by the constant factor lambda^2 "
                 "(a homothety), so connection and conformal class descend to the quotient",
                 _check_homothety, _fold_homothety),
    "C3": _Check("metric compatibility grad g = 0",
                 "the connection is the Levi-Civita connection of the chart metric: "
                 "grad g = 0 identically (locally metric)",
                 _check_compatibility, _fold_compatibility),
    "C4": _Check("nonflat curvature profile",
                 "the metric is not flat: scalar curvature equals -4/z^2 and the "
                 "(v2, v3) plane has sectional curvature -2/z^2, while planes "
                 "containing v1 are flat",
                 _check_nonflat, _fold_nonflat),
    "C5": _Check("parallel frame field v1",
                 "the coordinate field v1 is parallel: transport along arbitrary "
                 "curves fixes it",
                 _check_parallel_field, _fold_parallel_field),
    "C6": _Check("holonomy reducibility (invariant line)",
                 "every holonomy element maps the line spanned by v1 to itself "
                 "(the holonomy group is reducible)",
                 _check_reducibility),
    "C7": _Check("deck-loop similarity with scale 1/lambda",
                 "the deck-loop holonomy is the strict similarity (1/lambda) I while "
                 "torus and contractible loops are isometric, so the holonomy lies in "
                 "no orthogonal group and the connection is not globally metric",
                 _check_similarity),
    "C8": _Check("geodesic incompleteness at the chart floor",
                 "the chart metric is geodesically incomplete: a downward vertical "
                 "geodesic ends at affine parameter equal to its starting height, "
                 "while the upward one continues",
                 _check_incompleteness),
    "C9": _Check("conformal class of z^-2 g preserved",
                 "the connection preserves the conformal class of g' = z^-2 g: "
                 "grad_V g' = mu(V) g' with mu(V) = -2 V_z / z, and g' is invariant "
                 "under the deck map",
                 _check_conformal, _fold_conformal),
    "C10": _Check("line leaf flat and long-horizon complete",
                  "the v1 line leaf carries a constant flat induced metric and its "
                  "geodesics run to a long horizon without escape",
                  lambda ctx: leaf_first_check(ctx.metric)),
    "C11": _Check("half-plane leaf curved and incomplete",
                  "the (v2, v3) half-plane leaf has Gaussian curvature -2/z^2 and a "
                  "geodesic that leaves it in finite affine time",
                  _check_halfplane_leaf, _fold_halfplane_leaf),
    "C12": _Check("orthogonal product splitting",
                  "the chart metric is the orthogonal product of the flat line leaf "
                  "and the curved half-plane leaf",
                  _check_product_split, _fold_split),
}


def _config_echo(config: ChecklistConfig) -> dict:
    return {
        "matrix": [list(row) for row in config.matrix],
        "samples": config.samples,
        "tol_abs": _TOL_ABS,
        "tol_rel": _TOL_REL,
        "seed": config.seed,
        "t_max": _UP_T_MAX,
        "integrator_rel_tol": DEFAULT_CONFIG.rel_tol,
        "integrator_abs_tol": DEFAULT_CONFIG.abs_tol,
        "metric_exponent": config.metric_exponent,
        "emit_traces_dir": config.emit_traces_dir,
    }


def _run(ctx: _Context, check_id: str) -> CheckResult:
    """One registry row's check, reported under the row's id, description and
    claim; a fault inside it, or in its fold, becomes a failed check with the
    exception as its note."""
    check = _CHECKS[check_id]
    try:
        if check.fold is None:
            verdict = check.run(ctx)
        else:
            verdict = check.run(ctx, ctx.swept(check_id))
    except Exception as exc:
        verdict = _failed(f"{type(exc).__name__}: {exc}")
    return CheckResult(check_id, check.description, check.claim, *verdict)


def run_checklist(config: ChecklistConfig = ChecklistConfig()) -> VerificationReport:
    """Run all twelve checks and assemble the verification report.

    An invalid gluing matrix, or one whose eigenvalue lambda is beyond the
    float range, fails C1 and marks the dependent checks as not run; any
    exception inside a check is converted into a failed check
    with the exception text as its note.  A trace that cannot be computed
    raises :class:`IntegrationError`, one that cannot be written OSError.
    """
    try:
        matrix = validate_toral_matrix(config.matrix)
    except ToralMatrixError as exc:
        return _refused(config, str(exc), "invalid gluing matrix")
    try:
        eigen_basis(matrix)  # cached for the run's context
    except OverflowError:
        return _refused(config, "lambda cannot be represented as a float: the matrix "
                                "entries are beyond the float range", "lambda is not a float")
    ctx = _Context(config, matrix)
    checks = [_run(ctx, check_id) for check_id in _CHECKS]
    traces: Tuple[str, ...] = ()
    if config.emit_traces_dir is not None:
        traces = _write_traces(ctx, config.emit_traces_dir)
    return VerificationReport(config_echo=_config_echo(config),
                              checks=tuple(checks), traces_emitted=traces)


def _refused(config: ChecklistConfig, note: str, reason: str) -> VerificationReport:
    """The report of a matrix the run cannot take: C1 fails with ``note``, and
    every other check is not run."""
    checks = [CheckResult(check_id, check.description, check.claim,
                          *_failed(note if check_id == "C1" else f"not run: {reason}"))
              for check_id, check in _CHECKS.items()]
    return VerificationReport(config_echo=_config_echo(config), checks=tuple(checks))


def _gz_trace(ctx: _Context) -> str:
    """The frame p11..p33 along the deck lift from z = 1 to z = lambda, one row
    per transported piece of the lift."""
    lift = CurveSpec.from_points([ChartPoint(0.0, 0.0, 1.0),
                                  ChartPoint(0.0, 0.0, ctx.frame.lam)])
    lines = ["t,xt,yt,z," + ",".join(f"p{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))]
    for t, coords, frame in transport_frame_trace(ctx.metric, lift):
        lines.append(",".join(f"{x:.17g}" for x in [t, *coords, *frame.ravel()]))
    return "\n".join(lines) + "\n"


# The escape trace is C8's downward probe: t, xt, yt, z, v1, v2, v3 per step.
_TRACES = (("escape_geodesic.csv", lambda ctx: trajectory_to_csv(ctx.descent)),
           ("gz_transport.csv", _gz_trace))


def _write_traces(ctx: _Context, out_dir: str) -> Tuple[str, ...]:
    """Write the run's CSV traces into ``out_dir``; return their file names."""
    os.makedirs(out_dir, exist_ok=True)
    for name, build in _TRACES:
        path = os.path.join(out_dir, name)
        try:
            text = build(ctx)
            with open(path, "w") as fh:
                fh.write(text)
        except (IntegrationError, OSError) as exc:
            raise type(exc)(f"cannot write trace file {path}: {exc}") from exc
    return tuple(name for name, _ in _TRACES)
