"""The names ``import holocheck`` exports, the run's configuration fields
and the CLI's options, pinned so that a change shows."""

import dataclasses
import inspect

import pytest

import holocheck as hc
from holocheck import cli

PUBLIC = {
    # tensor_core
    "ChartDomainError", "ChartPoint", "DegeneratePlaneError", "MetricField",
    "TangentVector", "Z_FLOOR", "christoffel_at", "conformal_deviation_at",
    "covariant_metric_derivative_at", "riemann_at", "sectional_curvature",
    "warped_metric",
    # transport
    "BOUNDARY_ESCAPE", "COMPLETED", "STEP_LIMIT", "CurveError", "CurveSpec",
    "IntegrationError", "IntegratorConfig", "StraightSegment", "Trajectory",
    "coordinate_rectangle", "curvature_via_loop", "geodesic_energy_drift",
    "integrate_geodesic", "integrate_geodesic_coords", "trajectory_to_csv",
    "transport_frame_trace", "transport_matrix",
    # quotient
    "HolonomyElement", "LiftEscapeError", "LoopClass",
    "SingularMatrixError", "ToralMatrix", "ToralMatrixError", "deck_differential",
    "eigen_basis", "holonomy_element", "holonomy_of_loop", "pullback_metric_residual",
    "quotient_conformal_metric", "validate_toral_matrix",
    # foliation
    "gaussian_curvature", "halfplane_leaf",
    "induced_halfplane_metric", "induced_line_metric",
    # report and checklist
    "CheckResult", "VerificationReport", "emit_report", "ChecklistConfig",
    "ConfigError", "leaf_first_check", "run_checklist",
}

CONFIG_FIELDS = ("matrix", "samples", "seed", "metric_exponent", "emit_traces_dir")

CLI_OPTIONS = ("-h", "--help", "--matrix", "--samples", "--seed", "--report",
               "--emit-traces", "--metric-exponent")


def test_public_surface():
    exported = {name for name, obj in vars(hc).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == PUBLIC
    assert len(PUBLIC) == 53


def test_config_fields():
    assert tuple(f.name for f in dataclasses.fields(hc.ChecklistConfig)) == CONFIG_FIELDS


def test_cli_options():
    parser = cli.build_parser()
    assert tuple(s for action in parser._actions for s in action.option_strings) == CLI_OPTIONS


@pytest.mark.parametrize("flag", ["--t-max", "--tol-abs", "--tol-rel"])
def test_pinned_values_are_not_options(capsys, flag):
    # the tolerances and the upward horizon are part of the certificate
    with pytest.raises(SystemExit) as exc:
        cli.main([flag, "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
