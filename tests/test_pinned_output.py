"""Byte-identical output: SHA-256 digests of reports and traces, pinned.

Aim 2 keeps ``--report json`` and the CSV traces byte for byte from one
refactor to the next.  A change that moves any residual by one bit, or
any byte of the JSON layout, fails here; a change that means to do so
says why and pins the new digest.

The model metric's whole powers z^e, z^(e-1) and z^(e-2) are products,
the starting step's power is libm's and the z cuts of a transported
segment are libm's expm1, so no pinned output reads a numpy loop whose
bits depend on the SIMD target numpy dispatches; a child process with
numpy's AVX512 targets turned off checks that every digest holds.  That
change moved every digest below except the refused "1 1 1 1" report and
the escape trace, whose geodesic has v_y = 0 and so zero acceleration
whatever the powers' last bits.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import holocheck as hc
from conftest import openblas_kernel, simd_dispatch
from holocheck.cli import main

REPORT_DIGESTS = [
    (["--samples", "200"],
     "e0b7db0a3bd0d0f260186ce0402ae07923bd1352894ba1a400edaefce765e8a0"),
    (["--metric-exponent", "3"],
     "ff09cb0f84fcb458d54b2a3c472a29f3f219ebdc5e176fbf4e7d55c753f39e9f"),
    (["--matrix", "9007199254740993 9007199254740992 1 1", "--samples", "200"],
     "06cd29f2aaf52c9e9ef54aa4fc87259ac37c3da11ab49c30336a7c800d7feb14"),
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
GEODESIC_DIGEST = "e56f42d0a826099e89cdbf7d47689c5ae4ce42d59f1dd58aa119b16929e520ca"


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


MANY_GEODESICS_DIGEST = "4dfb403d6120c833c1d8a50f1aa76658f1b49ef48865a2d19e438a5672160a05"

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
                "b8181045f85749ede1af81c35fac68f86212ee69f88651703f1e4dcec3e88d40"),
    "tight": (hc.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12),
              "023fa6309ddf44697ab6581079259559cb3843216b6de58f804ffeac4b2aea29"),
}

TRACE_DIGESTS = {
    "escape_geodesic.csv": "28ca1aeab5aea7bcab0dd9d28189e688fc12954ce9cf3df23f992458b66528b1",
    "gz_transport.csv": "c3539cd3a9abe7ba28762d0c86978f34395902738ac41d4b231a18d6206eff55",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def host():
    """A digest mismatch's likely cause, named where pytest -q prints no header."""
    return (f"this host: OpenBLAS kernel {openblas_kernel()}, SIMD dispatch "
            f"{simd_dispatch()}; the digests were taken under the SkylakeX kernel, "
            "and hold with numpy's AVX512 dispatch on or off")


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


def many_geodesic_runs():
    return [(e, *start) for e in (4.0, 3.0) for start in many_geodesic_starts()]


def test_many_geodesic_bytes():
    assert geodesics_digest(many_geodesic_runs()) == MANY_GEODESICS_DIGEST, host()


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


def transport_digest(cfg):
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
    return h.hexdigest()


@pytest.mark.parametrize("name", list(TRANSPORT_DIGESTS))
def test_transport_bytes(name):
    cfg, digest = TRANSPORT_DIGESTS[name]
    assert transport_digest(cfg) == digest, host()


def pinned():
    """Every digest pinned above, by name."""
    return {**{" ".join(argv): digest for argv, digest in REPORT_DIGESTS},
            **TRACE_DIGESTS, "geodesics": GEODESIC_DIGEST,
            "many_geodesics": MANY_GEODESICS_DIGEST,
            **{f"transport {name}": digest for name, (_, digest) in TRANSPORT_DIGESTS.items()}}


def digests():
    """Every pinned digest computed in this process, keyed as :func:`pinned`."""
    out = {}
    for argv, _ in REPORT_DIGESTS:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            main([*argv, "--report", "json"])
        out[" ".join(argv)] = sha256(stdout.getvalue().encode())
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        assert main(["--samples", "20", "--emit-traces", tmp]) == 0
        out.update((name, sha256(Path(tmp, name).read_bytes())) for name in TRACE_DIGESTS)
    out["geodesics"] = geodesics_digest(GEODESICS)
    out["many_geodesics"] = geodesics_digest(many_geodesic_runs())
    out.update((f"transport {name}", transport_digest(cfg))
               for name, (cfg, _) in TRANSPORT_DIGESTS.items())
    return out


# numpy's dispatch targets above X86_V3 (AVX2); without them its float64
# power, among other loops, gives other last bits
AVX512_TARGETS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


@pytest.mark.skipif(not set(AVX512_TARGETS) <= set(simd_dispatch().split()),
                    reason="numpy does not dispatch all of " + ", ".join(AVX512_TARGETS)
                           + " on this host")
def test_digests_hold_without_avx512_dispatch():
    # every pinned digest, computed in a child process whose numpy
    # dispatches no AVX512 target
    here = Path(__file__).parent
    code = ("import json, conftest, test_pinned_output as t; "
            "print(json.dumps([conftest.simd_dispatch(), t.digests()]))")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": ",".join(AVX512_TARGETS),
           "PYTHONPATH": os.pathsep.join([str(here), str(Path(hc.__file__).parents[1])])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    dispatch, found = json.loads(proc.stdout)
    assert not set(AVX512_TARGETS) & set(dispatch.split()), dispatch
    assert found == pinned(), f"{proc.stderr}; {host()}"
