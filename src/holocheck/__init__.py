"""Chartwise Riemannian geometry engine and verification checklist.

The package certifies, numerically and mechanically, the geometry of a
closed 3-manifold built as a mapping torus over T^2 x R_+: a warped chart
metric whose Levi-Civita connection descends to a nonflat, reducible,
locally metric connection that preserves a conformal structure while its
holonomy contains a strict similarity, so it is not the Levi-Civita
connection of any global metric.
"""

from .tensor_core import (
    ChartDomainError,
    ChartPoint,
    DegeneratePlaneError,
    MetricField,
    TangentVector,
    Z_FLOOR,
    christoffel_at,
    conformal_deviation_at,
    covariant_metric_derivative_at,
    riemann_at,
    sectional_curvature,
    warped_metric,
)
from .transport import (
    BOUNDARY_ESCAPE,
    COMPLETED,
    STEP_LIMIT,
    CurveError,
    CurveSpec,
    IntegrationError,
    IntegratorConfig,
    StraightSegment,
    Trajectory,
    coordinate_rectangle,
    curvature_via_loop,
    geodesic_energy_drift,
    integrate_geodesic,
    integrate_geodesic_coords,
    trajectory_to_csv,
    transport_frame_trace,
    transport_matrix,
)
from .quotient import (
    HolonomyElement,
    LiftEscapeError,
    LoopClass,
    SingularMatrixError,
    ToralMatrix,
    ToralMatrixError,
    deck_differential,
    eigen_basis,
    holonomy_element,
    holonomy_of_loop,
    pullback_metric_residual,
    quotient_conformal_metric,
    validate_toral_matrix,
)
from .foliation import (
    gaussian_curvature,
    halfplane_leaf,
    induced_halfplane_metric,
    induced_line_metric,
)
from .report import CheckResult, VerificationReport, emit_report
from .checklist import ChecklistConfig, ConfigError, leaf_first_check, run_checklist

__version__ = "0.1.0"
