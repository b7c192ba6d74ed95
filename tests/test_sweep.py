"""The one sample sweep of the checklist.

The sampled checks (C2, C3, C4, C9, C11, C12) fold one walk over the sample
chunks: the shared geometry is built once per chunk, a fault in one fold
fails only its own check, and a fault in the shared geometry fails every
check that reads it.  The work counts are exact, where timings are not.
"""

import numpy as np
import pytest

import holocheck as hc
from holocheck import checklist, foliation, tensor_core
from holocheck.tensor_core import CHUNK

SAMPLED = ("C2", "C3", "C4", "C9", "C11", "C12")
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
    # two chunks: the 3-D curvature once each (shared by C4 and C12), and
    # the 2-D leaf curvature once each (C11's independent cross-check)
    assert dims.count(3) == 2
    assert dims.count(2) == 2
    assert len(dims) == 4


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


def xz_coupled_metric(exponent=4.0, eps=0.01):
    """The model metric plus g_xz = g_zx = eps z, with exact partials.

    It couples the line leaf to the half-plane leaf, so the chart metric is
    no longer an orthogonal product.  The base's closed-form Christoffel
    symbols do not hold for it, so it carries none.
    """
    base = tensor_core.warped_metric(exponent)

    def components(c):
        g = base.components(c)
        g[..., 0, 2] = g[..., 2, 0] = eps * c[..., 2]
        return g

    def partials(c):
        d = base.exact_partials(c)
        d[..., 2, 0, 2] = d[..., 2, 2, 0] = eps
        return d

    return hc.MetricField(components, partials, label=f"xz-coupled eps={eps:g}")


def test_xz_coupling_fails_c12(cat, monkeypatch):
    monkeypatch.setattr(checklist, "warped_metric", xz_coupled_metric)
    cfg = hc.ChecklistConfig(samples=10, seed=0)
    assert failing(hc.run_checklist(cfg)) == ["C2", "C4", "C7", "C8", "C9", "C12"]
    ctx = checklist._Context(cfg, cat)
    # |g_xz| at the highest sample, against a tolerance of 1e-12
    assert ctx.swept("C12")["metric_block_diagonal"] == 0.01 * ctx.points[:, 2].max()


@pytest.mark.parametrize("samples", (CHUNK - 1, 2 * CHUNK + 3))
def test_public_leaf_checks_match_the_sweep(cat, samples):
    """product_split_check and leaf_second_check run the same folds."""
    cfg = hc.ChecklistConfig(samples=samples, seed=4)
    ctx = checklist._Context(cfg, cat)
    split = hc.product_split_check(ctx.metric, ctx.points, seed=cfg.seed)
    assert split.items == foliation._product_split_report(ctx.swept("C12")).items
    leaf = hc.leaf_second_check(ctx.metric, ctx.points[:, 2], cfg=ctx.cfg)
    assert leaf.items == foliation._halfplane_report(ctx.leaf, ctx.swept("C11"),
                                                     ctx.cfg).items
    chart_points = [hc.ChartPoint(*p) for p in ctx.points]
    assert hc.product_split_check(ctx.metric, chart_points, seed=cfg.seed) == split
    assert all(np.isfinite(item.residual) for item in split.items + leaf.items)
