"""The names ``import holocheck`` exports and the run's configuration
fields, pinned so that a change shows."""

import dataclasses
import inspect

import holocheck as hc

PUBLIC = {
    # tensor_core
    "ChartDomainError", "ChartPoint", "DegeneratePlaneError", "MetricField",
    "TangentVector", "Z_FLOOR", "christoffel_at", "conformal_deviation_at",
    "covariant_metric_derivative_at", "riemann_at", "sectional_curvature",
    "warped_metric",
    # transport
    "BOUNDARY_ESCAPE", "COMPLETED", "STEP_LIMIT", "CurveError", "CurveSpec",
    "IntegrationError", "IntegratorConfig", "StraightSegment", "Termination",
    "Trajectory", "TrajectorySample", "coordinate_rectangle", "curvature_via_loop",
    "geodesic_energy_drift", "integrate_geodesic", "integrate_geodesic_coords",
    "parallel_transport", "trajectory_to_csv", "transport_frame_trace",
    "transport_matrix",
    # quotient
    "EigenBasis", "HolonomyElement", "LiftEscapeError", "LoopClass",
    "SingularMatrixError", "ToralMatrix", "ToralMatrixError", "deck_differential",
    "eigen_basis", "holonomy_element", "holonomy_of_loop", "pullback_metric_residual",
    "quotient_conformal_metric", "validate_toral_matrix",
    # foliation
    "FoliationReport", "LeafModel", "gaussian_curvature", "halfplane_leaf",
    "induced_halfplane_metric", "induced_line_metric", "leaf_first_check",
    # report and checklist
    "CheckResult", "VerificationReport", "emit_report", "ChecklistConfig",
    "ConfigError", "run_checklist",
}

CONFIG_FIELDS = ("matrix", "samples", "tol_abs", "tol_rel", "seed", "t_max",
                 "metric_exponent", "emit_traces_dir")


def test_public_surface():
    exported = {name for name, obj in vars(hc).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == PUBLIC
    assert len(PUBLIC) == 59


def test_config_fields():
    assert tuple(f.name for f in dataclasses.fields(hc.ChecklistConfig)) == CONFIG_FIELDS
