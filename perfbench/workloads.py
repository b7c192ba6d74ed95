"""The four workloads: inputs made from a seed, one pass, and its checks.

Every workload calls holocheck only through public names looked up on the
module at call time (``hc.transport_matrix``, ``holocheck.cli.main``, ...),
so a traced pass sees the same calls as an untimed one.  A pass runs a fixed
list of operations; every pass of a run does identical work.  Each
operation's outputs are checked against values the benchmark computes on
its own (the closed-form geometry of g = dxt^2 + z^4 dyt^2 + dz^2) or
against properties the method must have.

``build(name, seed, tiny)`` makes the inputs; ``run_pass(name, inputs,
memo)`` runs one pass and returns a :class:`PassOutcome`.  ``memo`` carries the
first pass's report bytes so later passes can be compared byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import holocheck as hc
import holocheck.cli

WORKLOADS = ("certify_default", "certify_dense", "transport_frames",
             "geodesic_escape")

# Trace-3 matrices pass C2 on every seed tried (worst residual 4.4e-11
# against 1e-10 over 1000 seeds), so their checklist seeds may come from the
# workload seed.
TRACE3 = ("2 1 1 1", "1 1 1 2")
# Larger traces fail C2 through its absolute 1e-10 tolerance; they run at a
# fixed checklist seed, so they fail in every pass whatever the workload seed.
KNOWN_C2_FAULT = (("5 4 1 1", 0), ("1000 999 1 1", 0))
HOLONOMY_MATRICES = TRACE3 + tuple(m for m, _ in KNOWN_C2_FAULT)

CHART_FLOOR = 1e-6  # escape height of the chart, as documented by holocheck
TIGHT = dict(rel_tol=1e-12, abs_tol=1e-12)  # the acceptance suite's transport
TOL_ISOMETRY = 1e-7
TOL_FIXES_E1 = 1e-8
TOL_VERTICAL_REL = 1e-8
TOL_GZ = 1e-6
TOL_SCALE = 1e-7
TOL_LINE = 1e-7
TOL_T_ESCAPE = 1e-6
TOL_CONSERVED_REL = 1e-8
TOL_X_LINEAR = 1e-9


@dataclass
class PassOutcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def add(self, label: str, problems: list, failed=None):
        """Count one operation; it failed if it has problems unless told."""
        self.attempted += 1
        self.failed += bool(problems) if failed is None else failed
        self.problems += [f"{label}: {p}" for p in problems]


def g_model(z: float) -> np.ndarray:
    """The chart metric at height z, written out independently."""
    return np.diag([1.0, z ** 4, 1.0])


def lam_of(matrix: str) -> float:
    a11, _, _, a22 = (int(t) for t in matrix.split())
    tr = a11 + a22
    return (tr + math.sqrt(tr * tr - 4.0)) / 2.0


def matrix_rows(matrix: str) -> list:
    a = [int(t) for t in matrix.split()]
    return [a[:2], a[2:]]


# ---------------------------------------------------------------------------
# certify_default / certify_dense: in-process CLI certifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertifyOp:
    matrix: str
    seed: int
    samples: int
    known_c2_fault: bool

    @property
    def argv(self) -> list:
        argv = ["--report", "json", "--seed", str(self.seed)]
        if self.matrix != "2 1 1 1":
            argv += ["--matrix", self.matrix]
        if self.samples != 1000:
            argv += ["--samples", str(self.samples)]
        return argv

    @property
    def expected_config(self) -> dict:
        return {"matrix": matrix_rows(self.matrix), "samples": self.samples,
                "seed": self.seed}


def check_certify(out: bytes, code: int, expect: dict):
    """Check one certification's output.

    Returns ``(failing_ids, problems)``: the ids of the checks that did not
    pass (the verdict is right only when this list is empty and the exit code
    is 0), and every inconsistency in the document itself.
    """
    problems = []
    try:
        doc = json.loads(out)
        checks = doc["checks"]
        config = doc["config"]
        all_passed = doc["all_passed"]
    except (ValueError, KeyError, TypeError) as exc:
        return ["unparsed"], [f"report is not the expected JSON: {exc}"]
    for key, value in expect.items():
        if config.get(key) != value:
            problems.append(f"config[{key!r}] = {config.get(key)!r}, expected {value!r}")
    ids = [c.get("id") for c in checks]
    if ids != [f"C{i}" for i in range(1, 13)]:
        problems.append(f"check ids are {ids}")
    failing = []
    for c in checks:
        residual, tol = c.get("residual"), c.get("tolerance")
        numeric = isinstance(residual, (int, float))
        should_pass = numeric and math.isfinite(residual) and residual <= tol
        if c.get("status") != ("pass" if should_pass else "fail"):
            problems.append(f"{c.get('id')}: status {c.get('status')!r} contradicts "
                            f"residual {residual!r} vs tolerance {tol!r}")
        if c.get("status") != "pass":
            failing.append(c.get("id"))
    if all_passed != (not failing):
        problems.append(f"all_passed={all_passed!r} with failing checks {failing}")
    if code != (0 if not failing else 1):
        problems.append(f"exit code {code} with failing checks {failing}")
    if code != 0 and not failing:
        failing.append(f"exit code {code}")
    return failing, problems


def _certify_pass(ops, memo) -> PassOutcome:
    out = PassOutcome(stats={"json_bytes": 0})
    for op in ops:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = holocheck.cli.main(op.argv)
        report = buf.getvalue().encode()
        out.stats["json_bytes"] += len(report)
        failing, problems = check_certify(report, code, op.expected_config)
        if failing and not (op.known_c2_fault and failing == ["C2"]):
            problems.append(f"unexpected failing checks {failing}")
        if memo.setdefault(op, report) != report:
            problems.append("report differs from the first pass of the same config")
        out.add(f"{op.matrix!r} seed {op.seed}", problems, failed=bool(failing))
    return out


def build_certify_default(seed: int, tiny: bool):
    rng = np.random.default_rng(seed)
    samples = 50 if tiny else 1000
    ops = [CertifyOp(m, int(rng.integers(0, 2**31)), samples, False) for m in TRACE3]
    ops += [CertifyOp(m, s, samples, True) for m, s in KNOWN_C2_FAULT]
    return ops


def build_certify_dense(seed: int, tiny: bool):
    rng = np.random.default_rng(seed)
    return [CertifyOp("2 1 1 1", int(rng.integers(0, 2**31)),
                      200 if tiny else 10000, False)]


# ---------------------------------------------------------------------------
# transport_frames: frame transport along polylines and generator loops
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrameInputs:
    polylines: tuple     # CurveSpec, 2-3 straight segments
    verticals: tuple     # (CurveSpec, z0, z1)
    loops: tuple         # (matrix text, ToralMatrix, generator)


def acceptance_polylines(count: int) -> list:
    """Node lists drawn exactly as the acceptance suite draws its curves."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(count):
        n = rng.integers(2, 4)
        out.append([(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 5.0))
                    for _ in range(n + 1)])
    return out


def build_transport_frames(seed: int, tiny: bool) -> FrameInputs:
    """Polylines: the first acceptance curves moved by a seeded isometry.

    Each curve is reflected in xt and yt at random, translated in (xt, yt),
    and its nodes jittered (0.03 in xt, yt and 1% in z).  Translations and
    reflections are isometries of g, so the work per curve stays close to
    that of the acceptance curve while the inputs differ from seed to seed.
    Single random curves cost from 0.08 s to 1.6 s, so fresh draws would make
    the pass time depend mostly on the seed.
    """
    rng = np.random.default_rng(seed)
    polylines = []
    for nodes in acceptance_polylines(1 if tiny else 5):
        sx, sy = rng.choice([-1.0, 1.0], 2)
        tx, ty = rng.uniform(-3.0, 3.0, 2)
        pts = [hc.ChartPoint(sx * x + tx + rng.uniform(-0.03, 0.03),
                             sy * y + ty + rng.uniform(-0.03, 0.03),
                             z * (1.0 + rng.uniform(-0.01, 0.01)))
               for x, y, z in nodes]
        polylines.append(hc.CurveSpec.from_points(pts))
    verticals = []
    for _ in range(1 if tiny else 3):
        x, y = rng.uniform(-3.0, 3.0, 2)
        z0, z1 = rng.uniform(0.5, 5.0, 2)
        curve = hc.CurveSpec.from_points([hc.ChartPoint(x, y, z0), hc.ChartPoint(x, y, z1)])
        verticals.append((curve, z0, z1))
    loops = [(m, hc.validate_toral_matrix(matrix_rows(m)), gen)
             for m in (HOLONOMY_MATRICES[:1] if tiny else HOLONOMY_MATRICES)
             for gen in ("gx", "gy", "gz")]
    return FrameInputs(tuple(polylines), tuple(verticals), tuple(loops))


def check_polyline(p: np.ndarray, z_start: float, z_end: float) -> list:
    problems = []
    iso = float(np.max(np.abs(p.T @ g_model(z_end) @ p - g_model(z_start))))
    if not iso <= TOL_ISOMETRY:
        problems.append(f"isometry defect {iso:.3e} > {TOL_ISOMETRY}")
    e1 = float(np.max(np.abs(p[:, 0] - [1.0, 0.0, 0.0])))
    if not e1 <= TOL_FIXES_E1:
        problems.append(f"P e1 differs from e1 by {e1:.3e} > {TOL_FIXES_E1}")
    return problems


def check_vertical(p: np.ndarray, z0: float, z1: float) -> list:
    expect = np.diag([1.0, (z0 / z1) ** 2, 1.0])
    rel = float(np.max(np.abs(p - expect)) / np.max(np.abs(expect)))
    if not rel <= TOL_VERTICAL_REL:
        return [f"vertical transport off diag(1, (z0/z1)^2, 1) by {rel:.3e} relative"]
    return []


def check_holonomy(h: np.ndarray, matrix: str, gen: str) -> list:
    """Holonomy at the basepoint (0, 0, 1), where g is the identity."""
    problems = []
    u = h[:, 0]
    line = float(np.linalg.norm(u[1:]) / np.linalg.norm(u))
    if not line <= TOL_LINE:
        problems.append(f"{gen}: v1 line moved, sine {line:.3e}")
    if gen == "gz":
        dev = float(np.max(np.abs(h - np.eye(3) / lam_of(matrix))))
        if not dev <= TOL_GZ:
            problems.append(f"gz: differs from (1/lambda) I by {dev:.3e}")
    else:
        scale = np.linalg.norm(h, axis=0)  # length ratio of each frame vector
        if not float(np.max(np.abs(scale - 1.0))) <= TOL_SCALE:
            problems.append(f"{gen}: length ratios {scale} are not 1")
    return problems


def _frames_pass(inputs: FrameInputs, memo) -> PassOutcome:
    out = PassOutcome()
    metric = hc.warped_metric()
    cfg = hc.IntegratorConfig(**TIGHT)
    for i, curve in enumerate(inputs.polylines):
        p = hc.transport_matrix(metric, curve, cfg)
        out.add(f"polyline {i}", check_polyline(p, curve.start.z, curve.end.z))
    for curve, z0, z1 in inputs.verticals:
        p = hc.transport_matrix(metric, curve, cfg)
        out.add(f"vertical {z0:.3f}->{z1:.3f}", check_vertical(p, z0, z1))
    base = hc.ChartPoint(0.0, 0.0, 1.0)
    for text, matrix, gen in inputs.loops:
        h = hc.holonomy_of_loop(matrix, metric, hc.LoopClass([gen], base), cfg)
        out.add(f"matrix {text!r}", check_holonomy(np.asarray(h.matrix), text, gen))
    return out


# ---------------------------------------------------------------------------
# geodesic_escape: event-driven geodesics and long-horizon ones
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicOp:
    start: tuple      # (xt, yt, z)
    velocity: tuple   # (vx, vy, vz)
    t_max: float

    @property
    def escapes(self) -> bool:
        return self.velocity[1] == 0.0


def geodesic_starts(n_escape: int, n_turn: int) -> list:
    """The fixed set of (z0, velocity, t_max), drawn once from seed 0.

    Escapes lie in a vertical plane (vy = 0, vz < 0) and leave through the
    floor; the others have vy != 0, turn above the floor and run to t_max.
    """
    rng = np.random.default_rng(0)
    out = []
    for _ in range(n_escape):
        z0 = rng.uniform(0.5, 5.0)
        vx, vz = rng.uniform(-0.5, 0.5), -rng.uniform(0.5, 1.5)
        out.append((z0, (vx, 0.0, vz), 2.0 * z0 / -vz + 1.0))
    for _ in range(n_turn):
        z0 = rng.uniform(1.0, 3.0)
        # q = z0^2 |vy| is the yt speed in an orthonormal frame; with
        # q >= 0.2 and |vz| <= 1 the turning height stays above 0.44.
        q = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        vx, vz = rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 0.5)
        out.append((z0, (vx, q / z0 ** 2, vz), 5.0))
    return out


def build_geodesic_escape(seed: int, tiny: bool):
    """The fixed starts moved by a seeded isometry and jittered by 1%.

    Translations in (xt, yt) and reflections of xt and yt are isometries of
    g, so the work stays that of the fixed set; fresh draws moved the work
    per pass by 7% between seeds.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for z0, (vx, vy, vz), t_max in geodesic_starts(*((2, 1) if tiny else (24, 12))):
        sx, sy = rng.choice([-1.0, 1.0], 2)
        x, y = rng.uniform(-3.0, 3.0, 2)
        jz, jv = 1.0 + rng.uniform(-0.01, 0.01, 2)
        ops.append(GeodesicOp((x, y, z0 * jz), (sx * vx * jv, sy * vy * jv, vz * jv),
                              t_max))
    return ops


def check_escape(status: str, t_escape, op: GeodesicOp) -> tuple:
    """Returns (|t_escape - exact crossing|, problems)."""
    exact = (op.start[2] - CHART_FLOOR) / -op.velocity[2]
    if status != "boundary_escape" or t_escape is None:
        return math.inf, [f"ended with {status!r}, expected boundary_escape"]
    err = abs(float(t_escape) - exact)
    if not err <= TOL_T_ESCAPE:
        return err, [f"t_escape {t_escape!r} is {err:.3e} off the crossing {exact!r}"]
    return err, []


def check_turning(status: str, ts, xs, vs, op: GeodesicOp) -> list:
    """Conservation of g(v, v) and z^4 vy, linear xt, and the turning height."""
    if status != "completed":
        return [f"ended with {status!r}, expected completed"]
    problems = []
    z = xs[:, 2]
    energy = vs[:, 0] ** 2 + z ** 4 * vs[:, 1] ** 2 + vs[:, 2] ** 2
    momentum = z ** 4 * vs[:, 1]
    for label, q in (("g(v, v)", energy), ("z^4 vy", momentum)):
        drift = float(np.max(np.abs(q - q[0])) / abs(q[0]))
        if not drift <= TOL_CONSERVED_REL:
            problems.append(f"{label} drifts by {drift:.3e} relative")
    x_err = float(np.max(np.abs(xs[:, 0] - (op.start[0] + op.velocity[0] * ts))))
    if not x_err <= TOL_X_LINEAR:
        problems.append(f"xt departs from linear motion by {x_err:.3e}")
    _, vy, vz = op.velocity
    py = op.start[2] ** 4 * vy
    z_turn = (py * py / (py * py / op.start[2] ** 4 + vz * vz)) ** 0.25
    if not float(z.min()) >= z_turn * (1.0 - TOL_CONSERVED_REL):
        problems.append(f"min z {z.min():.6g} below the turning height {z_turn:.6g}")
    return problems


def _geodesic_pass(ops, memo) -> PassOutcome:
    out = PassOutcome(stats={"escape_t_err": 0.0})
    metric = hc.warped_metric()
    for op in ops:
        p0 = hc.ChartPoint(*op.start)
        traj = hc.integrate_geodesic(metric, p0, hc.TangentVector(p0, op.velocity),
                                     op.t_max)
        term = traj.termination
        if op.escapes:
            err, problems = check_escape(term.status, term.t_escape, op)
            if math.isfinite(err):  # a missed escape is reported as a problem
                out.stats["escape_t_err"] = max(out.stats["escape_t_err"], err)
        else:
            ts = np.array([s.t for s in traj.samples])
            xs = np.array([s.point.coords for s in traj.samples])
            vs = np.array([s.velocity.comp for s in traj.samples])
            problems = check_turning(term.status, ts, xs, vs, op)
        out.add(f"geodesic from {op.start}", problems)
    return out


_BUILD = {
    "certify_default": build_certify_default,
    "certify_dense": build_certify_dense,
    "transport_frames": build_transport_frames,
    "geodesic_escape": build_geodesic_escape,
}
_PASS = {
    "certify_default": _certify_pass,
    "certify_dense": _certify_pass,
    "transport_frames": _frames_pass,
    "geodesic_escape": _geodesic_pass,
}


def build(name: str, seed: int, tiny: bool = False):
    """The workload's inputs for ``seed``; ``tiny`` shrinks them for tests."""
    return _BUILD[name](seed, tiny)


def run_pass(name: str, inputs, memo: dict) -> PassOutcome:
    return _PASS[name](inputs, memo)
