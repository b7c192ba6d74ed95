"""The one sample sweep of the checklist.

The sampled checks (C2, C3, C4, C5, C9, C11, C12) fold one walk over the sample
chunks: the shared geometry is built once per chunk, a fault in one fold
fails only its own check, and a fault in the shared geometry fails every
check that reads it.  The work counts are exact, where timings are not.
Test-side mutant metrics pin the exact set of checks each one fails, and a
NaN residual fails its check instead of being skipped by the fold.
"""

import numpy as np
import pytest

import holocheck as hc
from holocheck import checklist, foliation, tensor_core
from holocheck.tensor_core import CHUNK

SAMPLED = ("C2", "C3", "C4", "C5", "C9", "C11", "C12")
CFG = hc.ChecklistConfig(samples=CHUNK + 1)


def failing(report):
    return [c.id for c in report.checks if not c.passed]


def boom(*args, **kwargs):
    raise RuntimeError("injected fault")


def test_curvature_built_once_per_chunk(monkeypatch):
    dims = []
    original = tensor_core._curvature

    def counted(m, *args, **kwargs):
        dims.append(m.dim)
        return original(m, *args, **kwargs)

    for module in (tensor_core, checklist, foliation):
        if hasattr(module, "_curvature"):
            monkeypatch.setattr(module, "_curvature", counted)
    assert failing(hc.run_checklist(CFG)) == []
    # two chunks: the 3-D curvature once each, shared by C4 and C12; C11's
    # independent cross-check takes the leaf's curvature by Brioschi's
    # formula and builds no Riemann tensor
    assert dims == [3, 3]


def test_two_stencils_per_chunk(cat, monkeypatch):
    dims = []
    original = tensor_core._central_difference

    def counted(m, *args):
        dims.append(m.dim)
        return original(m, *args)

    for module in (tensor_core, checklist, foliation):
        if hasattr(module, "_central_difference"):
            monkeypatch.setattr(module, "_central_difference", counted)
    checklist._Context(CFG, cat).sweep
    # per chunk, C3's numeric partials of g and C11's Brioschi stencil on the
    # leaf; the curvature reads the model's closed-form derivatives of the
    # symbols (a third stencil per chunk when it took their differences)
    assert dims == [3, 2, 3, 2]


def test_nan_anywhere_in_riemann_fails_c4_and_c12(cat, monkeypatch):
    # C4's and C12's planes contract only the slices of R along e1 and e2,
    # yet a NaN in any one of R's 81 entries at one point fails both, with
    # Ricci and the scalar curvature left finite
    cfg = hc.ChecklistConfig(samples=10, seed=0)
    original = tensor_core._Geometry.curvature.func
    for entry in np.ndindex(3, 3, 3, 3):
        def curvature(geo, entry=entry):
            riemann, ricci, scalar = original(geo)
            riemann[(3,) + entry] = np.nan
            return riemann, ricci, scalar

        monkeypatch.setattr(tensor_core._Geometry, "curvature", property(curvature))
        ctx = checklist._Context(cfg, cat)
        results = [checklist._run(ctx, check_id) for check_id in SAMPLED if check_id != "C11"]
        assert [r.id for r in results if not r.passed] == ["C4", "C12"], entry
        assert all(r.residual == np.inf for r in results if r.id in ("C4", "C12"))


def test_fold_fault_fails_only_its_check(monkeypatch):
    monkeypatch.setattr(checklist, "_conformal_fit", boom)
    report = hc.run_checklist(CFG)
    assert failing(report) == ["C9"]
    c9 = next(c for c in report.checks if c.id == "C9")
    assert c9.note == "RuntimeError: injected fault"


def test_shared_curvature_fault_fails_its_readers(monkeypatch):
    monkeypatch.setattr(tensor_core._Geometry, "curvature", property(boom))
    report = hc.run_checklist(CFG)
    assert failing(report) == ["C4", "C12"]
    for c in report.checks:
        if c.id in ("C4", "C12"):
            assert c.note == "RuntimeError: injected fault"


def test_shared_point_fault_fails_every_sampled_check(monkeypatch):
    monkeypatch.setattr(tensor_core._Geometry, "c", property(boom))
    report = hc.run_checklist(CFG)
    assert failing(report) == list(SAMPLED)


def test_mutated_exponent_verdicts():
    report = hc.run_checklist(hc.ChecklistConfig(metric_exponent=3.0))
    assert failing(report) == ["C2", "C4", "C7", "C9", "C11"]


def warped_plus(component, entry, partial):
    """A ``checklist.warped_metric`` stand-in: the model plus one perturbed entry.

    ``component(c)`` is added to g at ``entry`` and its mirror, and each
    ``(k, value(c))`` of ``partial`` to d_k of those entries.  The base's
    closed-form Christoffel symbols do not hold for it, so it carries none.
    """
    i, j = entry

    def factory(exponent=4.0):
        base = tensor_core.warped_metric(exponent)

        def components(c):
            g = base.components(c)
            g[..., i, j] = g[..., j, i] = g[..., i, j] + component(c)
            return g

        def partials(c):
            d = base.exact_partials(c)
            for k, value in partial:
                d[..., k, i, j] = d[..., k, j, i] = d[..., k, i, j] + value(c)
            return d

        return hc.MetricField(components, partials, label=f"perturbed g_{i}{j}")

    return factory


def test_xz_coupling_fails_c12(cat, monkeypatch):
    # g_xz = g_zx = 0.01 z couples the line leaf to the half-plane leaf, so
    # the chart metric is no longer an orthogonal product
    monkeypatch.setattr(checklist, "warped_metric", warped_plus(
        lambda c: 0.01 * c[..., 2], (0, 2), [(2, lambda c: 0.01)]))
    cfg = hc.ChecklistConfig(samples=10, seed=0)
    assert failing(hc.run_checklist(cfg)) == ["C2", "C4", "C7", "C8", "C9", "C12"]
    ctx = checklist._Context(cfg, cat)
    # |g_xz| at the highest sample, against a tolerance of 1e-12
    assert ctx.swept("C12")["metric_block_diagonal"] == 0.01 * ctx.points[:, 2].max()


def test_xy_coupling_fails_c6(monkeypatch):
    # g_xy = 0.01 z tilts the invariant line: every holonomy moves v1
    monkeypatch.setattr(checklist, "warped_metric", warped_plus(
        lambda c: 0.01 * c[..., 2], (0, 1), [(2, lambda c: 0.01)]))
    report = hc.run_checklist(hc.ChecklistConfig(samples=10, seed=0))
    assert failing(report) == ["C2", "C4", "C5", "C6", "C7", "C9", "C12"]
    assert next(c for c in report.checks if c.id == "C6").worst_part == "gy"


def test_curved_line_leaf_fails_c10(monkeypatch):
    # g_xx = 1 + 0.01 xt^2: the line leaf's induced metric is no longer constant
    monkeypatch.setattr(checklist, "warped_metric", warped_plus(
        lambda c: 0.01 * c[..., 0] ** 2, (0, 0), [(0, lambda c: 0.02 * c[..., 0])]))
    report = hc.run_checklist(hc.ChecklistConfig(samples=10, seed=0))
    assert failing(report) == ["C2", "C5", "C7", "C9", "C10", "C12"]
    c10 = next(c for c in report.checks if c.id == "C10")
    assert c10.worst_part == "induced_metric_constant"
    # the leaf's samples run over xt in [-8, 8]: |g_xx(0) - g_xx(-8)| = 0.01 * 64
    assert "induced_metric_constant: residual=6.400e-01" in c10.note


def test_anisotropic_torus_loop_fails_c7_isometry(monkeypatch):
    # diag(0.9, 1.1, 1) keeps the mean g-length ratio 1 and the v1 line, so
    # only C7's isometry part sees that the gx loop shrinks v1 and stretches v2
    stretched = hc.holonomy_element(np.diag([0.9, 1.1, 1.0]), np.eye(3))
    assert (stretched.scale, stretched.invariant_line_residual) == (1.0, 0.0)
    original = checklist.holonomy_of_loop

    def patched(a, m, loop, *args):
        return stretched if loop.word == ("gx",) else original(a, m, loop, *args)

    monkeypatch.setattr(checklist, "holonomy_of_loop", patched)
    report = hc.run_checklist(hc.ChecklistConfig(samples=10, seed=0))
    assert failing(report) == ["C7"]
    c7 = next(c for c in report.checks if c.id == "C7")
    assert c7.worst_part == "gx_is_isometry"
    parts = [part.replace(":", "").replace("=", " ").split() for part in c7.note.split("; ")]
    assert [name for name, _, residual, _, tol in parts
            if float(residual) > float(tol)] == ["gx_is_isometry"]


def test_stretched_z_fails_the_escape_time(cat, monkeypatch):
    # g_zz = (1 + z)^2: the unit-speed descent from z = 1 keeps
    # (1 + z) dz/dt = -2, so it meets z = 0 at t = 3/4, not at t = 1
    monkeypatch.setattr(checklist, "warped_metric", warped_plus(
        lambda c: c[..., 2] * (2.0 + c[..., 2]), (2, 2), [(2, lambda c: 2.0 + 2.0 * c[..., 2])]))
    cfg = hc.ChecklistConfig(samples=10, seed=0)
    assert failing(hc.run_checklist(cfg)) == ["C2", "C4", "C7", "C8", "C9", "C11"]
    ctx = checklist._Context(cfg, cat)
    assert "downward_escape_at_t=1: residual=2.500e-01 tol=1.0e-08" in \
        checklist._run(ctx, "C8").note
    assert "downward_geodesic_escapes_at_t1: residual=2.500e-01 tol=1.0e-08" in \
        checklist._run(ctx, "C11").note


# The part each sampled check reads first.
FIRST_PART = {"C2": "relative", "C3": "exact", "C4": "scalar", "C5": "grad_v1",
              "C9": "residual", "C11": checklist._LEAF_CURVATURE,
              "C12": "metric_block_diagonal"}


@pytest.mark.parametrize("check_id", SAMPLED)
def test_unmeasured_part_fails(cat, monkeypatch, check_id):
    # a fold that writes nothing leaves every part unmeasured: the check
    # fails on the part it reads, instead of passing on a residual of 0
    row = checklist._CHECKS[check_id]
    monkeypatch.setitem(checklist._CHECKS, check_id, row._replace(fold=lambda *args: None))
    result = checklist._run(checklist._Context(hc.ChecklistConfig(samples=10), cat), check_id)
    assert not result.passed
    assert result.note == f"KeyError: {FIRST_PART[check_id]!r}"


def test_nan_fold_is_worst():
    out = tensor_core._Maxima()
    out.fold("a", [1.0, 2.0])
    out.fold("a", np.array([np.nan, 0.5]))
    out.fold("a", [3.0])
    out.fold("b", [np.nan])
    out.fold("b", [1.0])
    assert {name: out[name] for name in out} == {"a": np.inf, "b": np.inf}
    assert tensor_core._worst([0.25, 0.5]) == 0.5


def test_nan_metric_fails_every_sampled_check(cat, monkeypatch):
    # NaN in g at the height of one sample: every sweep check reads g there
    cfg = hc.ChecklistConfig(samples=10, seed=0)
    z_bad = checklist._Context(cfg, cat).points[3, 2]

    def nan_metric(exponent=4.0):
        base = tensor_core.warped_metric(exponent)

        def components(c):
            g = base.components(c)
            g[c[..., 2] == z_bad] = np.nan
            return g

        return hc.MetricField(components, base.exact_partials, label="NaN at one height")

    monkeypatch.setattr(checklist, "warped_metric", nan_metric)
    report = hc.run_checklist(cfg)
    assert failing(report) == list(SAMPLED)
    assert all(c.residual == np.inf for c in report.checks if c.id in SAMPLED)
