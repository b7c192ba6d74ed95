"""The benchmark's workloads run against this tree at their tiny size.

``perfbench/workloads.py`` reads holocheck only through public names and
attributes (``Trajectory.samples[i].t``, ``CurveSpec.start.z``,
``HolonomyElement.matrix``, ``holocheck.cli.main`` ...).  A change that
drops or renames one of them breaks the benchmark; this test shows it in
the tier-1 run.  The module is imported from its file and not edited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["certify_default", "certify_dense",
                                  "transport_frames", "geodesic_escape"])
def test_tiny_passes_are_clean(workloads, name):
    assert name in workloads.WORKLOADS
    inputs = workloads.build(name, 0, tiny=True)
    memo = {}
    for _ in range(2):
        outcome = workloads.run_pass(name, inputs, memo)
        assert outcome.attempted > 0
        assert outcome.failed == 0
        assert outcome.problems == []
