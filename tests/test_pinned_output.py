"""Byte-identical output: SHA-256 digests of reports and traces, pinned.

Aim 2 keeps ``--report json`` and the CSV traces byte for byte from one
refactor to the next.  A change that moves any residual by one bit, or
any byte of the JSON layout, fails here; a change that means to do so
says why and pins the new digest.

The curvature reading the model's closed-form derivatives of its symbols
moved C4's residual and note in the three reports below that run the
sweep, and nothing else.
"""

import hashlib

import numpy as np
import pytest

import holocheck as hc
from conftest import openblas_kernel, simd_dispatch
from holocheck.cli import main

REPORT_DIGESTS = [
    (["--samples", "200"],
     "6ebcd57862bc391b0875bb2f1b125e8ca88a6f6c0270ef8e7b7fa26480878c81"),
    (["--metric-exponent", "3"],
     "62b8c61099d4e46f37f79d45028c91920acf88124bd3ba37dcc08526c06aaf9d"),
    (["--matrix", "9007199254740993 9007199254740992 1 1", "--samples", "200"],
     "ebd0bd929431ed43dda16d6adf330bc7ee0ddecd112795d8b485eb9f0c37708b"),
    (["--matrix", "1 1 1 1"],
     "a6b302fd753f52f093251ad5727d5c2297af8768c1f9f910399c26c60e602223"),
]

# Geodesics whose acceleration is not zero, so a last-bit change in the
# right-hand side shows in their bytes: every geodesic behind the reports
# and traces above has v_y = 0 and runs on -Gamma(v, v) = 0.  Per exponent,
# two turning geodesics, an escape with v_y = 1e-14 (its turning height lies
# below the floor, so it bends hard on the way down) and a straight escape;
# (exponent, start, velocity, t_max).
GEODESICS = [
    (4.0, (0.3, -1.2, 1.5), (0.2, 0.25, -0.6), 5.0),
    (4.0, (-2.0, 0.7, 2.5), (-0.4, -0.1, 0.3), 5.0),
    (4.0, (0.0, 0.0, 1.0), (0.1, 1e-14, -1.0), 3.0),
    (4.0, (1.0, 2.0, 3.0), (0.3, 0.0, -1.2), 4.0),
    (3.0, (0.5, 0.5, 2.0), (0.1, 0.3, -0.8), 5.0),
    (3.0, (0.0, -1.0, 1.2), (0.0, -0.5, 0.2), 5.0),
    (3.0, (0.0, 0.0, 1.0), (-0.2, 1e-14, -1.0), 3.0),
    (3.0, (2.0, 1.0, 0.8), (-0.1, 0.0, -0.9), 3.0),
]
GEODESIC_DIGEST = "82dc0b6a22543a7f49115495b304813e778e65b7703ad361e5e60c9b3d69d5e7"


def many_geodesic_starts():
    """36 fixed starts, (start, velocity, t_max), drawn from a fixed rng.

    24 escapes in a vertical plane (v_y = 0, v_z < 0) that leave through the
    floor, and 12 geodesics with v_y != 0 that turn above it and run to
    t_max: a last-bit change anywhere in the step, its norm or its first
    step moves some of their bytes.
    """
    rng = np.random.default_rng(0)
    out = []
    for _ in range(24):
        z0 = rng.uniform(0.5, 5.0)
        vx, vz = rng.uniform(-0.5, 0.5), -rng.uniform(0.5, 1.5)
        out.append(((*rng.uniform(-3.0, 3.0, 2), z0), (vx, 0.0, vz), 2.0 * z0 / -vz + 1.0))
    for _ in range(12):
        z0 = rng.uniform(1.0, 3.0)
        # z0^2 |v_y| >= 0.2 with |v_z| <= 1 keeps the turning height above 0.44
        q = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
        vx, vz = rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 0.5)
        out.append(((*rng.uniform(-3.0, 3.0, 2), z0), (vx, q / z0 ** 2, vz), 5.0))
    return out


MANY_GEODESICS_DIGEST = "0400118f8060c773febb07375333d50192bfc15472ae2dd23cce85eac2f3ff7d"

# Frame transport of its own: acceptance-style polylines, vertical segments
# up and down, one polyline's frame trace, and the gx, gy and gz holonomies
# (matrix, scale and defects) of four gluing matrices, at the default and the
# tight integrator tolerances.  The reports see transport only through C6's
# and C7's residuals and the gz trace.  Transporting each piece in one step,
# cut where it fails, moved these digests, the gz trace's and C7's residual
# and note in the three reports above that certify a matrix.
HOLONOMY_MATRICES = ("2 1 1 1", "1 1 1 2", "5 4 1 1", "1000 999 1 1")
TRANSPORT_DIGESTS = {
    "default": (hc.IntegratorConfig(),
                "57cc11eb23d7f4b36c70ebc8d191cb7cad9ee86e5028ccc2a59a92f55758ae88"),
    "tight": (hc.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12),
              "a448c872ed0a68f9a54fd057fd6b3ac83921b0fdc229d8cce3ec5efa2964f4c3"),
}

TRACE_DIGESTS = {
    "escape_geodesic.csv": "28ca1aeab5aea7bcab0dd9d28189e688fc12954ce9cf3df23f992458b66528b1",
    "gz_transport.csv": "e405239852312cddbbbba06bc5a4b204039d6c0cd642195258e147db50dd4c66",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host():
    """A digest mismatch's likely cause, named where pytest -q prints no header."""
    return (f"this host: OpenBLAS kernel {openblas_kernel()}, SIMD dispatch "
            f"{simd_dispatch()}; the digests were taken under SkylakeX, dispatching "
            "up to AVX512_SPR")


@pytest.mark.parametrize("argv,digest", REPORT_DIGESTS,
                         ids=["samples_200", "exponent_3", "entries_2_53", "trace_2"])
def test_json_report_bytes(capsys, argv, digest):
    main([*argv, "--report", "json"])
    assert sha256(capsys.readouterr().out.encode()) == digest, host()


def test_trace_bytes(tmp_path, capsys):
    # the traces depend on the matrix and the metric only, not on the samples
    assert main(["--samples", "20", "--emit-traces", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in TRACE_DIGESTS.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, f"{name}; {host()}"


def geodesics_digest(runs):
    h = hashlib.sha256()
    for exponent, x0, v0, t_max in runs:
        ts, xs, vs, term = hc.integrate_geodesic_coords(hc.warped_metric(exponent), x0, v0,
                                                        t_max)
        for a in (ts, xs, vs):
            h.update(a.tobytes())
        h.update(repr((term.status, term.t_escape)).encode())
    return h.hexdigest()


def test_geodesic_bytes():
    assert geodesics_digest(GEODESICS) == GEODESIC_DIGEST, host()


def test_many_geodesic_bytes():
    runs = [(e, *start) for e in (4.0, 3.0) for start in many_geodesic_starts()]
    assert geodesics_digest(runs) == MANY_GEODESICS_DIGEST, host()


def transport_curves():
    """Three polylines drawn as the acceptance suite draws them, and two
    vertical segments, one up and one down."""
    rng = np.random.default_rng(0)
    curves = []
    for _ in range(3):
        n = rng.integers(2, 4)
        curves.append(hc.CurveSpec.from_points([
            hc.ChartPoint(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.5, 5.0))
            for _ in range(n + 1)]))
    for z0, z1 in ((0.7, 4.2), (3.0, 0.6)):
        curves.append(hc.CurveSpec.from_points([hc.ChartPoint(0.4, -1.1, z0),
                                                hc.ChartPoint(0.4, -1.1, z1)]))
    return curves


@pytest.mark.parametrize("name", list(TRANSPORT_DIGESTS))
def test_transport_bytes(name):
    cfg, digest = TRANSPORT_DIGESTS[name]
    model = hc.warped_metric()
    h = hashlib.sha256()
    curves = transport_curves()
    for curve in curves:
        h.update(hc.transport_matrix(model, curve, cfg).tobytes())
    for t, c, p in hc.transport_frame_trace(model, curves[0], cfg):
        h.update(np.array([t, *c]).tobytes() + p.tobytes())
    base = hc.ChartPoint(0.0, 0.0, 1.0)
    for text in HOLONOMY_MATRICES:
        a = hc.validate_toral_matrix(np.array(text.split(), dtype=int).reshape(2, 2))
        for gen in ("gx", "gy", "gz"):
            elem = hc.holonomy_of_loop(a, model, hc.LoopClass([gen], base), cfg)
            h.update(elem.matrix.tobytes())
            h.update(repr((elem.scale, elem.ortho_defect,
                           elem.invariant_line_residual)).encode())
    assert h.hexdigest() == digest, host()
