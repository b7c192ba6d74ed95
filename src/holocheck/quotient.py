"""The mapping-torus model behind the chart geometry.

A hyperbolic gluing matrix A in SL(2, Z) acts on the torus T^2 = R^2/Z^2;
the deck map f(x, y, z) = (A(x, y), lambda z) generates a Z-action on
T^2 x R_+ whose quotient is a closed 3-manifold.  In the eigenbasis
coordinates (xt, yt, z) -- xt along the expanding eigenvector v1, yt along
the contracting eigenvector v2 -- the deck map is linear,
diag(lambda, 1/lambda, lambda), and the model metric rescales under it by
the constant factor lambda^2.

Holonomy elements of the quotient are computed by lifting generator loops
to straight chart segments, parallel transporting along the lift, and
pulling the endpoint frame back through the differential of the total deck
transformation.  Loop words read left to right, leftmost generator first;
the composed element is the matrix product of the per-generator elements
taken right to left.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .tensor_core import ChartDomainError, ChartPoint, MetricField, _coords, _metric
from .transport import (
    CurveSpec,
    DEFAULT_CONFIG,
    IntegratorConfig,
    StraightSegment,
    transport_matrix,
)

GENERATORS = ("gx", "gy", "gz", "gz^-1")


class ToralMatrixError(ValueError):
    """The gluing matrix is not a hyperbolic element of SL(2, Z)."""


class SingularMatrixError(ValueError):
    """A holonomy candidate matrix is singular."""


class LiftEscapeError(ChartDomainError):
    """A lifted loop leaves the chart domain."""


@dataclass(frozen=True)
class ToralMatrix:
    """Validated gluing matrix: integer entries, det = 1, trace > 2.

    trace > 2 together with det = 1 is exactly the condition for two real
    positive eigenvalues lambda > 1 > 1/lambda; identity, parabolic shears,
    rotations and negative-trace matrices are all rejected.
    """

    a11: int
    a12: int
    a21: int
    a22: int

    def __post_init__(self):
        det = self.a11 * self.a22 - self.a12 * self.a21
        if det != 1:
            raise ToralMatrixError(f"not in SL(2,Z): determinant is {det}, need 1")
        if self.trace <= 2:
            raise ToralMatrixError(
                f"eigenvalues are not real and > 1: trace is {self.trace}, need > 2")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=np.int64)

    @property
    def trace(self) -> int:
        return self.a11 + self.a22


def validate_toral_matrix(entries) -> ToralMatrix:
    """Parse a 2x2 array-like into a validated :class:`ToralMatrix`."""
    # dtype=object keeps each entry's own type, so integers are taken as they
    # are: a float would round entries above 2^53.
    arr = np.asarray(entries, dtype=object)
    if arr.shape != (2, 2):
        raise ToralMatrixError(f"expected a 2x2 matrix, got shape {arr.shape}")
    ints = []
    for v in arr.ravel():
        if not isinstance(v, numbers.Integral):
            x = float(v)
            if not (math.isfinite(x) and x == round(x)):
                raise ToralMatrixError(f"matrix entries must be integers, got {v}")
            v = x
        ints.append(int(v))
    return ToralMatrix(*ints)


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Eigen data of a hyperbolic toral matrix.

    ``v1`` spans the expanding direction (eigenvalue ``lam`` > 1), ``v2``
    the contracting one (eigenvalue 1/``lam``); both are normalized to
    second component 1.  ``eigen_to_torus`` assembles the columns
    [v1 | v2 | e_z]; ``torus_to_eigen`` is its inverse and converts torus
    coordinates (x, y, z) to eigenbasis coordinates (xt, yt, z).  Both fix
    the z-axis.
    """

    lam: float
    v1: np.ndarray
    v2: np.ndarray
    eigen_to_torus: np.ndarray
    torus_to_eigen: np.ndarray


def eigen_basis(a: ToralMatrix) -> EigenBasis:
    """Closed-form eigenvalues and eigenvectors of a validated matrix.

    lam = (trace + sqrt(trace^2 - 4)) / 2; trace^2 - 4 is never a perfect
    square for trace > 2, so lam is irrational and a12 != 0 for every
    validated matrix, making the second-component-1 normalization valid.
    """
    tr = float(a.trace)
    lam = (tr + math.sqrt(tr * tr - 4.0)) / 2.0
    lam2 = 1.0 / lam
    v1 = np.array([a.a12 / (lam - a.a11), 1.0])
    v2 = np.array([a.a12 / (lam2 - a.a11), 1.0])
    e2t = np.eye(3)
    e2t[:2, 0] = v1
    e2t[:2, 1] = v2
    return EigenBasis(lam=lam, v1=v1, v2=v2, eigen_to_torus=e2t,
                      torus_to_eigen=np.linalg.inv(e2t))


def deck_differential(a: ToralMatrix, frame: Optional[EigenBasis] = None) -> np.ndarray:
    """Differential of the deck map in the eigenbasis frame (v1, v2, v3).

    The deck map is linear in eigenbasis coordinates, so its differential
    is the constant matrix diag(lambda, 1/lambda, lambda); its determinant
    is lambda, and it scales every g-length of the model metric by lambda.
    """
    if frame is None:
        frame = eigen_basis(a)
    return np.diag([frame.lam, 1.0 / frame.lam, frame.lam])


def pullback_metric_residual(a: ToralMatrix, m: MetricField, p,
                             expected_factor: Optional[float] = None):
    """Max-abs entry of df^T g(f(p)) df - factor * g(p) in the eigen frame.

    With the default factor lambda^2 this measures the failure of the deck
    map to be a homothety of ``m``; it vanishes identically for the model
    metric.  Pass ``expected_factor=1.0`` to test strict invariance (as for
    the conformal representative z^-2 g, which descends to the quotient).

    ``p`` is a :class:`ChartPoint`, giving a float, or a coordinate array of
    shape (..., 3), giving one residual per point; the eigen data is built
    once per call either way.
    """
    frame = eigen_basis(a)
    df = deck_differential(a, frame)
    if expected_factor is None:
        expected_factor = frame.lam ** 2
    c = p.coords if isinstance(p, ChartPoint) else _coords(m, p, batch=True)
    residual = _deck_defect(df, expected_factor, m, c, _metric(m, c))
    return float(residual) if residual.ndim == 0 else residual


def _deck_defect(df: np.ndarray, factor: float, m: MetricField, c: np.ndarray,
                 g_here: np.ndarray) -> np.ndarray:
    """Max-abs entry of df^T g(f c) df - factor * g_here, one per point of ``c``."""
    g_image = _metric(m, c @ df.T)
    # the right factor as one product over the flattened batch
    pulled = ((df.T @ g_image).reshape(-1, 3) @ df).reshape(g_image.shape)
    return np.max(np.abs(pulled - factor * g_here), axis=(-2, -1))


def quotient_conformal_metric(m: MetricField) -> MetricField:
    """The conformal representative g' = z^-2 g of a chart metric.

    For the model metric g' is invariant under the deck map (the lambda^2
    homothety cancels the z^-2 factor), so g' descends to the quotient and
    represents the conformal structure the connection preserves.
    """
    if m.dim != 3:
        raise ValueError("conformal representative is defined on the 3D chart")
    base_c = m.components
    base_p = m.exact_partials

    def components(c):
        return np.asarray(base_c(c), dtype=float) / (c[..., 2] ** 2)[..., None, None]

    partials = None
    if base_p is not None:
        def partials(c):
            z = c[..., 2, None, None]
            out = np.asarray(base_p(c), dtype=float) / (z ** 2)[..., None]
            out[..., 2, :, :] += -2.0 / z ** 3 * np.asarray(base_c(c), dtype=float)
            return out

    label = f"z^-2 ({m.label})" if m.label else "z^-2 rescaling"
    return MetricField(components, partials, label=label, dim=3)


# ---------------------------------------------------------------------------
# Holonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopClass:
    """A fundamental-group word over {gx, gy, gz, gz^-1} with a basepoint.

    gx and gy are the unit torus translations, gz is the deck map.  For
    words containing gz the basepoint's torus part must be fixed by the
    gluing matrix mod Z^2 (the default origin always is), so the canonical
    lift closes without a torus-direction detour.
    """

    word: Tuple[str, ...]
    basepoint: ChartPoint

    def __init__(self, word: Sequence[str], basepoint: ChartPoint):
        word = tuple(word)
        for gen in word:
            if gen not in GENERATORS:
                raise ValueError(f"unknown generator {gen!r}, expected one of {GENERATORS}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "basepoint", basepoint)


@dataclass(frozen=True, eq=False)
class HolonomyElement:
    """A transport-plus-identification matrix in the (v1, v2, v3) frame.

    ``scale`` is the per-vector g-length ratio averaged over the frame; the
    element is a genuine similarity when ``ortho_defect`` (g-orthogonality
    residual of matrix/scale, combined with the spread of the per-vector
    ratios) is small.  ``invariant_line_residual`` is the sine of the
    g-angle between the image of v1 and v1.
    """

    matrix: np.ndarray
    scale: float
    ortho_defect: float
    invariant_line_residual: float


def holonomy_element(matrix: np.ndarray, g_at_base: np.ndarray) -> HolonomyElement:
    """Classify a raw holonomy matrix at a base point with metric ``g_at_base``.

    The scale is the per-vector g-length ratio averaged over the frame, and
    the invariant-line residual is the sine of the g-angle between the image
    of v1 and v1.  The reported defect folds together the g-orthogonality
    residual of matrix/scale and the spread of the per-vector length ratios,
    so it is small only for genuine similarities.
    """
    matrix = np.array(matrix, dtype=float)
    g = np.asarray(g_at_base, dtype=float)
    if abs(np.linalg.det(matrix)) < 1e-300:
        raise SingularMatrixError("holonomy matrix is singular")
    # the g-length ratio of each transported frame vector, column by column
    ratios = np.sqrt(np.diag(matrix.T @ g @ matrix) / np.diag(g))
    scale = float(np.mean(ratios))
    ortho_part = matrix / scale
    u = matrix[:, 0]
    e1 = np.array([1.0, 0.0, 0.0])
    cos = float(u @ g @ e1) / math.sqrt(float(u @ g @ u) * float(e1 @ g @ e1))
    line_residual = math.sqrt(max(0.0, 1.0 - min(1.0, cos * cos)))
    orth_res = float(np.max(np.abs(ortho_part.T @ g @ ortho_part - g)))
    spread = float(np.max(np.abs(ratios - scale)))
    matrix.setflags(write=False)
    return HolonomyElement(matrix=matrix, scale=scale,
                           ortho_defect=max(orth_res, spread),
                           invariant_line_residual=line_residual)


def _generator_affine(gen: str, a: ToralMatrix, frame: EigenBasis):
    """Deck transformation of a generator in eigen coordinates: u -> M u + b."""
    if gen == "gx":
        return np.eye(3), frame.torus_to_eigen @ np.array([1.0, 0.0, 0.0])
    if gen == "gy":
        return np.eye(3), frame.torus_to_eigen @ np.array([0.0, 1.0, 0.0])
    if gen == "gz":
        return deck_differential(a, frame), np.zeros(3)
    if gen == "gz^-1":
        return np.diag([1.0 / frame.lam, frame.lam, 1.0 / frame.lam]), np.zeros(3)
    raise ValueError(f"unknown generator {gen!r}")


def holonomy_of_loop(a: ToralMatrix, m: MetricField, loop: LoopClass,
                     cfg: IntegratorConfig = DEFAULT_CONFIG) -> HolonomyElement:
    """Holonomy of a fundamental-group word at its basepoint.

    Each generator lifts to the straight chart segment from the basepoint
    to its deck image; later generators' lifts are carried through the
    accumulated deck transformation, so the whole word becomes one
    polyline.  The element is ``d(total deck)^-1 @ transport`` expressed in
    the eigen frame at the basepoint.
    """
    frame = eigen_basis(a)
    base = loop.basepoint.coords
    g_base = _metric(m, base)
    if any(gen in ("gz", "gz^-1") for gen in loop.word):
        torus_xy = (frame.eigen_to_torus @ base)[:2]
        shift = (a.matrix.astype(float) - np.eye(2)) @ torus_xy
        if np.max(np.abs(shift - np.round(shift))) > 1e-9:
            raise ValueError(
                "gz words need a basepoint whose torus part is fixed by the "
                f"gluing matrix mod Z^2; got torus part {torus_xy}")
    if not loop.word:
        return holonomy_element(np.eye(3), g_base)
    segments = []
    m_acc = np.eye(3)
    b_acc = np.zeros(3)
    q = base.copy()
    for gen in loop.word:
        m_gen, b_gen = _generator_affine(gen, a, frame)
        canonical_end = m_gen @ base + b_gen
        q_next = m_acc @ canonical_end + b_acc
        try:
            segments.append(StraightSegment(ChartPoint.from_coords(q),
                                            ChartPoint.from_coords(q_next)))
        except ChartDomainError as exc:
            raise LiftEscapeError(f"lift of {gen!r} leaves the chart: {exc}") from exc
        b_acc = m_acc @ b_gen + b_acc
        m_acc = m_acc @ m_gen
        q = q_next
    try:
        curve = CurveSpec(segments)
        p_transport = transport_matrix(m, curve, cfg)
    except ChartDomainError as exc:
        raise LiftEscapeError(f"lifted loop leaves the chart: {exc}") from exc
    matrix = np.linalg.inv(m_acc) @ p_transport
    return holonomy_element(matrix, g_base)
