"""The verification checklist: twelve checks, one per geometric claim.

Each check computes a residual and compares it against a pinned tolerance.
Single-quantity checks report the raw residual; composite checks report
the worst residual/tolerance ratio against 1.0 and list the raw parts in
the note.  A module error inside a check becomes a failed check with
diagnostic text, never a crash of the run.

The sampled checks (C2, C3, C4, C9, C11, C12) share one sweep over the
sample points, chunk by chunk: the points are validated and g, its exact
partials, g^-1, the Christoffel symbols and the curvature are built once
per chunk, and each check folds its residual maxima over them.  The
Christoffel symbols are the model's closed form, so both parts of C3
compare that connection with a derivative of g: the exact part with g's
exact partials, the numeric part with central differences at h = 1e-5,
which checks the exact partials as well.  A fault in one fold fails only
that check; a fault in the shared geometry fails every check that reads
it.  C11 keeps its own derivatives on purpose: it takes the half-plane
leaf's curvature from the induced 2-D metric at the sweep's heights by
Brioschi's formula, the independent cross-check of C4's Riemann tensor.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .foliation import gaussian_curvature, induced_halfplane_metric, leaf_first_check
from .quotient import (
    LoopClass,
    ToralMatrixError,
    _deck_defect,
    deck_differential,
    eigen_basis,
    holonomy_element,
    holonomy_of_loop,
    quotient_conformal_metric,
    validate_toral_matrix,
)
from .report import CheckResult, VerificationReport
from .tensor_core import (
    ChartPoint,
    TangentVector,
    Z_FLOOR,
    _conformal_fit,
    _Geometry,
    _Maxima,
    _metric,
    _nabla,
    _partials,
    chunks,
    sectional_curvature,
    warped_metric,
)
from .transport import (
    CurveSpec,
    DEFAULT_CONFIG,
    IntegrationError,
    Termination,
    Trajectory,
    _transport_curves,
    coordinate_rectangle,
    integrate_geodesic,
    integrate_geodesic_coords,
    trajectory_to_csv,
    transport_frame_trace,
    transport_matrix,
)


class ConfigError(ValueError):
    """The checklist configuration itself is unusable."""


# The horizon of the downward probes from height 1 (C8, C11 and the escape
# trace), twice the affine parameter at which they meet the floor.
_DOWN_T_MAX = 2.0
# The largest t_max: the upward probe climbs from z = 1 to z = 1 + t_max, and
# above that the model's Gamma^z_{yt yt} = -2 z^3 overflows a float.
_T_MAX_LIMIT = float((np.finfo(float).max / 4.0) ** (1.0 / 3.0)) - 1.0


@dataclass(frozen=True)
class ChecklistConfig:
    """Inputs of a verification run; defaults reproduce the certified case.

    Every run integrates with the integrator defaults, ``DEFAULT_CONFIG``."""

    matrix: Tuple[Tuple[int, int], Tuple[int, int]] = ((2, 1), (1, 1))
    samples: int = 1000
    tol_abs: float = 1e-8
    tol_rel: float = 1e-6
    seed: int = 0
    t_max: float = 100.0
    # Test hook: any exponent other than 4 breaks the deck homothety (C2).
    metric_exponent: float = 4.0
    emit_traces_dir: Optional[str] = None

    def __post_init__(self):
        if self.samples <= 0:
            raise ConfigError("samples must be positive")
        if not (0 < self.tol_abs < math.inf and 0 < self.tol_rel < math.inf):
            raise ConfigError("tolerances must be positive and finite")
        if not _DOWN_T_MAX <= self.t_max < math.inf:
            raise ConfigError(
                f"t_max must be finite and at least {_DOWN_T_MAX:g}, the downward "
                f"probe's horizon: a shorter upward probe shows nothing about completeness")
        if self.t_max > _T_MAX_LIMIT:
            raise ConfigError(
                f"t_max must be at most {_T_MAX_LIMIT:.4g}: the upward probe climbs to "
                f"z = 1 + t_max, and above that Gamma^z_(yt yt) = -2 z^3 overflows a float")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not math.isfinite(self.metric_exponent):
            raise ConfigError("metric_exponent must be finite")


class _Context:
    """Shared artifacts for one run; all randomness is drawn up front."""

    def __init__(self, config: ChecklistConfig, matrix):
        self.config = config
        self.matrix = matrix
        self.frame = eigen_basis(matrix)
        self.df = deck_differential(matrix, self.frame)
        self.metric = warped_metric(config.metric_exponent)
        self.gprime = quotient_conformal_metric(self.metric)
        self.leaf = induced_halfplane_metric(self.metric)
        self.cfg = DEFAULT_CONFIG
        rng = np.random.default_rng(config.seed)
        n = config.samples
        xs = rng.uniform(-5.0, 5.0, n)
        ys = rng.uniform(-5.0, 5.0, n)
        zs = rng.uniform(0.2, 10.0, n)
        self.points = np.stack([xs, ys, zs], axis=-1)
        dirs = rng.uniform(-1.0, 1.0, (n, 3))
        self.directions = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        self.curves = []
        for _ in range(20):
            nodes = [ChartPoint(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
                                rng.uniform(0.5, 5.0)) for _ in range(3)]
            self.curves.append(CurveSpec.from_points(nodes))
        self.mixed_planes = rng.uniform(0.0, 2.0 * np.pi, n)
        self.split_planes = _split_planes(n, config.seed)

    @cached_property
    def holonomies(self) -> dict:
        """Generator-loop and contractible-loop holonomy elements at (0,0,1)."""
        base = ChartPoint(0.0, 0.0, 1.0)
        elems = {gen: holonomy_of_loop(self.matrix, self.metric, LoopClass([gen], base),
                                       self.cfg)
                 for gen in ("gx", "gy", "gz")}
        rect = coordinate_rectangle(base, 1, 2, 0.4)
        elems["contractible"] = holonomy_element(
            transport_matrix(self.metric, rect, self.cfg), _metric(self.metric, base.coords))
        return elems

    @cached_property
    def descent(self) -> Trajectory:
        """The unit-speed geodesic falling from (0, 0, 1): C8's probe and the
        escape trace."""
        p0 = ChartPoint(0.0, 0.0, 1.0)
        return integrate_geodesic(self.metric, p0, TangentVector(p0, [0.0, 0.0, -1.0]),
                                  _DOWN_T_MAX, self.cfg)

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
        for sl in chunks(len(self.points)):
            geo = _Geometry(self.metric, self.points[sl])
            for check_id, fold in folds:
                out = results[check_id]
                if isinstance(out, Exception):
                    continue
                try:
                    fold(self, geo, sl, out)
                except Exception as exc:
                    results[check_id] = exc
        return results


def _result(check_id: str, residual: float, tolerance: float, note: str = "",
            worst_part: str = "") -> CheckResult:
    check = _CHECKS[check_id]
    return CheckResult(check_id, check.description, check.claim, residual, tolerance,
                       note, worst_part)


def _failed(check_id: str, note: str) -> CheckResult:
    """A check that could not produce a residual: residual inf, tolerance 0."""
    return _result(check_id, math.inf, 0.0, note)


def _composite(check_id: str, parts) -> CheckResult:
    """Fold named (residual, tolerance) parts into one normalized check.

    The check's residual is the largest residual/tolerance ratio; the first
    part with that ratio is named as the worst part.
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
            worst, worst_part = ratio, name
        details.append(f"{name}: residual={residual:.3e} tol={tolerance:.1e}")
    return _result(check_id, max(0.0, worst), 1.0, "; ".join(details), worst_part)


_E1, _E2, _E3 = np.eye(3)


def _fold_homothety(ctx: _Context, geo: _Geometry, sl: slice, out: _Maxima):
    # The residual is roundoff on entries of size lambda^2 z^4, so each
    # point's residual is measured against its largest entry of lambda^2 g.
    lam2 = ctx.frame.lam ** 2
    residual = _deck_defect(ctx.df, lam2, ctx.metric, geo.c, geo.g)
    out.fold("relative", residual / (lam2 * np.max(np.abs(geo.g), axis=(-2, -1))))
    out.fold("absolute", residual)


def _fold_compatibility(ctx: _Context, geo: _Geometry, sl: slice, out: _Maxima):
    out.fold("exact", np.abs(_nabla(geo.gamma, geo.g, geo.dg)))
    # The same connection against g's central differences, which also
    # cross-check the exact partials.
    d = _partials(ctx.metric, geo.c, "numeric", 1e-5)
    out.fold("numeric", np.abs(_nabla(geo.gamma, geo.g, d)))


def _fold_nonflat(ctx: _Context, geo: _Geometry, sl: slice, out: _Maxima):
    riemann, _, scalar = geo.curvature
    z2 = geo.c[:, 2] ** 2
    out.fold("scalar", np.abs(scalar * z2 / -4.0 - 1.0))
    k23 = sectional_curvature(geo.g, riemann, _E2, _E3)
    out.fold("halfplane", np.abs(k23 * z2 / -2.0 - 1.0))
    theta = ctx.mixed_planes[sl]
    v = np.stack([np.full_like(theta, 0.3), np.cos(theta), np.sin(theta)], axis=-1)
    out.fold("flat_planes", np.abs(sectional_curvature(geo.g, riemann, _E1, v)))


def _fold_conformal(ctx: _Context, geo: _Geometry, sl: slice, out: _Maxima):
    c, d = geo.c, ctx.directions[sl]
    gp = _metric(ctx.gprime, c)
    mu, res = _conformal_fit(_nabla(geo.gamma, gp, _partials(ctx.gprime, c)), gp, d)
    out.fold("residual", res)
    out.fold("mu_err", np.abs(mu - (-2.0 * d[:, 2] / c[:, 2])))
    out.fold("invariance", _deck_defect(ctx.df, 1.0, ctx.gprime, c, gp))


_LEAF_CURVATURE = "gaussian_curvature_times_z2_is_minus_2"


def _fold_halfplane_leaf(ctx: _Context, geo: _Geometry, sl: slice, out: _Maxima):
    # The leaf's own induced metric at the sweep's heights, not the ambient
    # Riemann tensor: C11 stays an independent cross-check of C4.
    z = geo.c[:, 2]
    k = gaussian_curvature(ctx.leaf, np.stack([np.zeros_like(z), z], axis=-1))
    out.fold(_LEAF_CURVATURE, np.abs(k * z * z / -2.0 - 1.0))


# Christoffel symbols with an index along the line direction e1.
_MIXED = np.zeros((3, 3, 3), dtype=bool)
_MIXED[0, :, :] = _MIXED[:, 0, :] = _MIXED[:, :, 0] = True
_SHIFT = np.array([1.3, -0.7, 0.0])


def _split_planes(n: int, seed: int) -> np.ndarray:
    """C12's (n, 3) mixed planes: per point a theta, then an x for (x, cos, sin)."""
    draws = np.random.default_rng(seed).uniform([0.0, -1.0], [2 * np.pi, 1.0], (n, 2))
    return np.stack([draws[:, 1], np.cos(draws[:, 0]), np.sin(draws[:, 0])], axis=-1)


def _fold_split(ctx: _Context, geo: _Geometry, sl: slice, out: _Maxima):
    g = geo.g
    out.fold("metric_block_diagonal", np.abs(g[:, 0, 1:]))
    out.fold("line_block_constant", np.abs(g[:, 0, 0] - 1.0))
    out.fold("blocks_depend_only_on_z", np.abs(_metric(geo.m, geo.c + _SHIFT) - g))
    out.fold("mixed_christoffel_vanish", np.abs(geo.gamma[:, _MIXED]))
    out.fold("planes_containing_line_flat",
             np.abs(sectional_curvature(g, geo.curvature[0], _E1, ctx.split_planes[sl])))


def _check_gluing(ctx: _Context) -> CheckResult:
    return _result("C1", 0.0, 0.0, f"trace={ctx.matrix.trace}, det=1")


def _check_homothety(ctx: _Context) -> CheckResult:
    out = ctx.swept("C2")
    return _result("C2", out["relative"], 1e-10,
                   f"max over {len(ctx.points)} points of |f*g - lambda^2 g| / "
                   f"max|lambda^2 g|; absolute max {out['absolute']:.3e}")


def _check_compatibility(ctx: _Context) -> CheckResult:
    out = ctx.swept("C3")
    return _composite("C3", [("exact_partials_path", out["exact"], ctx.config.tol_abs),
                             ("numeric_partials_path_h=1e-5", out["numeric"], 1e-5)])


def _check_nonflat(ctx: _Context) -> CheckResult:
    out = ctx.swept("C4")
    return _composite("C4", [
        ("scalar_times_z2_is_minus_4", out["scalar"], ctx.config.tol_rel),
        ("halfplane_sectional_times_z2_is_minus_2", out["halfplane"], ctx.config.tol_rel),
        ("planes_containing_v1_flat", out["flat_planes"], ctx.config.tol_abs),
    ])


def _check_parallel_field(ctx: _Context) -> CheckResult:
    # one run per segment index: the curves' k-th segments are its lanes
    w0 = np.broadcast_to(_E1[:, None], (len(ctx.curves), 3, 1))
    w = _transport_curves(ctx.metric, ctx.curves, w0, ctx.cfg)
    residual = float(np.max(np.abs(w[..., 0] - _E1)))
    return _result("C5", residual, 1e-8, f"max over {len(ctx.curves)} random polylines")


def _check_reducibility(ctx: _Context) -> CheckResult:
    parts = [(name, elem.invariant_line_residual, 1e-7)
             for name, elem in ctx.holonomies.items()]
    return _composite("C6", parts)


def _check_similarity(ctx: _Context) -> CheckResult:
    elems = ctx.holonomies
    lam = ctx.frame.lam
    gz_matrix_res = float(np.max(np.abs(elems["gz"].matrix - np.eye(3) / lam)))
    parts = [("gz_matrix_is_inverse_lambda_identity", gz_matrix_res, 1e-6)]
    for name in ("gx", "gy", "contractible"):
        parts.append((f"{name}_scale_is_1", abs(elems[name].scale - 1.0), 1e-7))
    return _composite("C7", parts)


def _escape_parts(term: Termination, at_t1: str, at_crossing: str) -> list:
    """The parts of a unit-speed geodesic falling from z = 1: it escapes at
    t = 1, within 1e-8 of where the line z = 1 - t meets the floor, 1 - Z_FLOOR."""
    t_escape = term.t_escape if term.escaped else math.inf
    return [(at_t1, abs(t_escape - 1.0), 1e-6),
            (at_crossing, abs(t_escape - (1.0 - Z_FLOOR)), 1e-8)]


def _check_incompleteness(ctx: _Context) -> CheckResult:
    parts = _escape_parts(ctx.descent.termination, "downward_escape_at_t=1",
                          "downward_escape_at_crossing")
    p0 = ChartPoint(0.0, 0.0, 1.0)
    up = integrate_geodesic(ctx.metric, p0, TangentVector(p0, [0.0, 0.0, 1.0]),
                            ctx.config.t_max, ctx.cfg)
    return _composite("C8", parts + [("upward_completes",
                                      0.0 if up.termination.completed else math.inf, 0.0)])


def _check_conformal(ctx: _Context) -> CheckResult:
    out = ctx.swept("C9")
    return _composite("C9", [
        ("conformal_residual", out["residual"], ctx.config.tol_abs),
        ("mu_matches_-2Vz_over_z", out["mu_err"], 1e-8),
        ("deck_invariance_of_gprime", out["invariance"], 1e-10),
    ])


def _check_line_leaf(ctx: _Context) -> CheckResult:
    report = leaf_first_check(ctx.metric, t_max=1e3, cfg=ctx.cfg)
    return _composite("C10", report.items)


def _check_halfplane_leaf(ctx: _Context) -> CheckResult:
    curvature = ctx.swept("C11")[_LEAF_CURVATURE]
    *_, term = integrate_geodesic_coords(
        ctx.leaf, np.array([0.0, 1.0]), np.array([0.0, -1.0]), _DOWN_T_MAX, ctx.cfg)
    return _composite("C11", [(_LEAF_CURVATURE, curvature, 1e-6)] + _escape_parts(
        term, "downward_geodesic_escapes_at_t1", "downward_geodesic_escapes_at_crossing"))


_SPLIT_TOLERANCES = (
    ("metric_block_diagonal", 1e-12),
    ("line_block_constant", 1e-12),
    ("blocks_depend_only_on_z", 1e-12),
    ("mixed_christoffel_vanish", 1e-10),
    ("planes_containing_line_flat", 1e-8),
)


def _check_product_split(ctx: _Context) -> CheckResult:
    out = ctx.swept("C12")
    return _composite("C12", [(name, out[name], tol) for name, tol in _SPLIT_TOLERANCES])


class _Check(NamedTuple):
    """One check: its report text, its check function and, for a sampled
    check, the fold it runs on each chunk of the sweep."""

    description: str
    claim: str
    run: Callable[[_Context], CheckResult]
    fold: Optional[Callable[[_Context, _Geometry, slice, _Maxima], None]] = None


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
                 _check_parallel_field),
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
                  _check_line_leaf),
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
        "tol_abs": config.tol_abs,
        "tol_rel": config.tol_rel,
        "seed": config.seed,
        "t_max": config.t_max,
        "integrator_rel_tol": DEFAULT_CONFIG.rel_tol,
        "integrator_abs_tol": DEFAULT_CONFIG.abs_tol,
        "metric_exponent": config.metric_exponent,
        "emit_traces_dir": config.emit_traces_dir,
    }


def run_checklist(config: ChecklistConfig = ChecklistConfig()) -> VerificationReport:
    """Run all twelve checks and assemble the verification report.

    An invalid gluing matrix fails C1 and marks the dependent checks as
    not run; any exception inside a check is converted into a failed check
    with the exception text as its note.  A trace that cannot be computed
    raises :class:`IntegrationError`, one that cannot be written OSError.
    """
    try:
        matrix = validate_toral_matrix(config.matrix)
    except ToralMatrixError as exc:
        checks = [_failed(check_id, str(exc) if check_id == "C1"
                          else "not run: invalid gluing matrix") for check_id in _CHECKS]
        return VerificationReport(config_echo=_config_echo(config), checks=tuple(checks))
    ctx = _Context(config, matrix)
    checks = []
    for check_id, check in _CHECKS.items():
        try:
            checks.append(check.run(ctx))
        except Exception as exc:
            checks.append(_failed(check_id, f"{type(exc).__name__}: {exc}"))
    traces: Tuple[str, ...] = ()
    if config.emit_traces_dir is not None:
        traces = _write_traces(ctx, config.emit_traces_dir)
    return VerificationReport(config_echo=_config_echo(config),
                              checks=tuple(checks), traces_emitted=traces)


def _gz_trace(ctx: _Context) -> str:
    """The frame p11..p33 along the deck lift from z = 1 to z = lambda, one row
    per accepted step of each piece of the lift."""
    lift = CurveSpec.from_points([ChartPoint(0.0, 0.0, 1.0),
                                  ChartPoint(0.0, 0.0, ctx.frame.lam)])
    lines = ["t,xt,yt,z," + ",".join(f"p{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3))]
    for t, coords, frame in transport_frame_trace(ctx.metric, lift, ctx.cfg):
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
