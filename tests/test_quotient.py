"""Mapping-torus model: deck map, eigen frame, holonomy with identification.

Frozen expected values for A = [[2, 1], [1, 1]]: lambda = (3 + sqrt 5)/2,
v1 proportional to ((1 + sqrt 5)/2, 1); transport along the deck lift
composed with the inverse deck differential gives the strict similarity
(1/lambda) I, while torus loops give g-isometries fixing v1.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import holocheck as hc
from holocheck import ChartPoint, LoopClass, ToralMatrixError
from holocheck.tensor_core import _metric, _partials

LAM = (3.0 + math.sqrt(5.0)) / 2.0
PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestValidateToralMatrix:
    def test_accepts_hyperbolic(self):
        a = hc.validate_toral_matrix([[2, 1], [1, 1]])
        assert (a.a11, a.a12, a.a21, a.a22) == (2, 1, 1, 1)
        assert a.trace == 3

    def test_rejects_identity(self):
        with pytest.raises(ToralMatrixError, match="trace"):
            hc.validate_toral_matrix([[1, 0], [0, 1]])

    def test_rejects_rotation(self):
        # det 1 but complex eigenvalues (trace 0)
        with pytest.raises(ToralMatrixError):
            hc.validate_toral_matrix([[0, -1], [1, 0]])

    def test_rejects_wrong_determinant(self):
        with pytest.raises(ToralMatrixError, match="determinant"):
            hc.validate_toral_matrix([[2, 0], [0, 1]])

    def test_rejects_negative_trace(self):
        # real eigenvalues but negative: not accepted
        with pytest.raises(ToralMatrixError):
            hc.validate_toral_matrix([[-2, -1], [-1, -1]])

    def test_rejects_non_integer(self):
        with pytest.raises(ToralMatrixError, match="integer"):
            hc.validate_toral_matrix([[2.5, 1], [1, 1]])
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ToralMatrixError, match="integer"):
                hc.validate_toral_matrix([[bad, 1], [1, 1]])

    def test_integers_above_two_to_the_53(self):
        # 2^53 + 1 is not a float; det = (2^53 + 1) - 2^53 = 1
        big = 2 ** 53
        a = hc.validate_toral_matrix([[big + 1, big], [1, 1]])
        assert (a.a11, a.a12) == (big + 1, big)
        assert a.trace == big + 2
        assert hc.validate_toral_matrix(np.array([[big + 1, big], [1, 1]])) == a
        for bad in ([[1.5, 1], [1, 1]], [[float("nan"), 1], [1, 1]],
                    [[float("inf"), 1], [1, 1]], [[-float("inf"), 1], [1, 1]],
                    [big + 1, big, 1, 1], [[big + 1, big, 1], [1, 1, 1]]):
            with pytest.raises(ToralMatrixError):
                hc.validate_toral_matrix(bad)


    @pytest.mark.parametrize("entries,dtype", [
        ([[2, 1], [1, 1]], np.int64),
        ([[2 ** 63 - 1, 2 ** 63 - 2], [1, 1]], np.int64),
        ([[2 ** 63 + 1, 2 ** 63], [1, 1]], object),    # beyond int64
        ([[2 ** 200 + 1, 2 ** 200], [1, 1]], object),
    ])
    def test_matrix_keeps_every_entry(self, entries, dtype):
        # int64 where the entries fit, exact Python ints where they do not
        m = hc.validate_toral_matrix(entries).matrix
        assert m.dtype == dtype and m.tolist() == entries
        assert np.array_equal(m.astype(float), np.array(entries, dtype=float))


class TestEigenBasis:
    def test_lambda_closed_form(self, frame):
        assert abs(frame.lam - LAM) < 1e-14
        assert abs(frame.lam - 2.6180340) < 1e-7

    def test_eigenvectors(self, cat, frame):
        assert frame.v1[1] == 1.0 and frame.v2[1] == 1.0
        assert abs(frame.v1[0] - PHI) < 1e-14
        assert abs(frame.v2[0] - (1.0 - math.sqrt(5.0)) / 2.0) < 1e-14
        a = cat.matrix.astype(float)
        assert np.max(np.abs(a @ frame.v1 - frame.lam * frame.v1)) < 1e-12
        assert np.max(np.abs(a @ frame.v2 - frame.v2 / frame.lam)) < 1e-12

    def test_eigenvalue_product(self, frame):
        assert abs(frame.lam * (1.0 / frame.lam) - 1.0) < 1e-14

    def test_frame_change_fixes_z_axis(self, frame):
        for mat in (frame.eigen_to_torus, frame.torus_to_eigen):
            np.testing.assert_allclose(mat[:, 2], [0, 0, 1], atol=0)
            np.testing.assert_allclose(mat[2, :], [0, 0, 1], atol=0)
        np.testing.assert_allclose(frame.eigen_to_torus @ frame.torus_to_eigen,
                                   np.eye(3), atol=1e-14)

    def test_cached_per_matrix_and_read_only(self, frame):
        # every caller shares the one frame, so none may write into it
        assert hc.eigen_basis(hc.validate_toral_matrix([[2, 1], [1, 1]])) is frame
        for arr in (frame.v1, frame.v2, frame.eigen_to_torus, frame.torus_to_eigen):
            assert not arr.flags.writeable
        with pytest.raises(OverflowError):  # lambda of trace 2^1030 + 2 is no float
            hc.eigen_basis(hc.validate_toral_matrix([[2 ** 1030 + 1, 2 ** 1030], [1, 1]]))

    def test_other_hyperbolic_matrices(self):
        for n in (1, 2, 5):
            a = hc.validate_toral_matrix([[n + 1, 1], [n, 1]])
            f = hc.eigen_basis(a)
            assert f.lam > 1.0
            m = a.matrix.astype(float)
            assert np.max(np.abs(m @ f.v1 - f.lam * f.v1)) < 1e-11 * f.lam

    @pytest.mark.parametrize("trace", [2 ** 53 + 2, 2 ** 54 + 2, 2 ** 60 + 2])
    def test_expanding_eigenvector_of_large_traces(self, trace):
        # lam - a11 cancels for a11 near lam: at trace 2^53 + 2 it gave
        # v1x = 2^52 for about 2^53 + 1, and from 2^54 + 2 a division by 0
        a = hc.validate_toral_matrix([[trace - 1, trace - 2], [1, 1]])
        f = hc.eigen_basis(a)
        v1x, lam = Fraction(f.v1[0]), Fraction(f.lam)
        assert f.v1[1] == 1.0
        # each entry of A v1 - lam v1, in exact rational arithmetic, against
        # lam times that entry of v1: the second entry (1) shows v1x's error
        res = (a.a11 * v1x + a.a12 - lam * v1x, a.a21 * v1x + a.a22 - lam)
        for r, v in zip(res, f.v1):
            assert abs(r) <= 1e-15 * lam * abs(Fraction(v))


class TestDeckDifferential:
    def test_diagonal_form(self, cat, frame):
        df = hc.deck_differential(cat, frame)
        np.testing.assert_allclose(df, np.diag([LAM, 1 / LAM, LAM]), atol=1e-14)
        np.testing.assert_allclose(np.diag(df), [2.6180340, 0.3819660, 2.6180340],
                                   atol=1e-7)

    def test_determinant_is_lambda(self, cat):
        assert abs(np.linalg.det(hc.deck_differential(cat)) - LAM) < 1e-12


class TestPullbackResidual:
    def test_model_is_homothetic(self, cat, model):
        for p in (ChartPoint(0, 0, 1), ChartPoint(0.3, -2.0, 4.7)):
            assert hc.pullback_metric_residual(cat, model, p) < 1e-10

    def test_euclidean_is_not(self, cat, euclid):
        res = hc.pullback_metric_residual(cat, euclid, ChartPoint(0, 0, 1))
        # the contracting direction scales by 1/lambda^2 instead of lambda^2
        assert abs(res - (LAM**2 - LAM**-2)) < 1e-12
        assert abs(res - 6.708) < 1e-3

    def test_conformal_representative_is_invariant(self, cat, model):
        gprime = hc.quotient_conformal_metric(model)
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = ChartPoint(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.2, 10))
            assert hc.pullback_metric_residual(cat, gprime, p, expected_factor=1.0) < 1e-10


class TestConformalMetric:
    def test_values(self, model):
        gprime = hc.quotient_conformal_metric(model)
        np.testing.assert_allclose(gprime.components(ChartPoint(0, 0, 1).coords),
                                   np.eye(3), atol=1e-15)
        np.testing.assert_allclose(gprime.components(ChartPoint(0, 0, 2).coords),
                                   np.diag([0.25, 4.0, 0.25]), atol=1e-15)

    def test_exact_partials_match_numeric(self, model):
        gprime = hc.quotient_conformal_metric(model)
        p = ChartPoint(0.3, 0.1, 1.6)
        exact = _partials(gprime, p.coords, "exact")
        numeric = _partials(gprime, p.coords, "numeric", 1e-6)
        assert np.max(np.abs(exact - numeric)) < 1e-8


class TestHolonomy:
    def test_deck_loop_is_strict_similarity(self, cat, model, cfg):
        h = hc.holonomy_of_loop(cat, model, LoopClass(["gz"], ChartPoint(0, 0, 1)), cfg)
        assert np.max(np.abs(h.matrix - np.eye(3) / LAM)) < 1e-9
        assert abs(h.scale - 1.0 / LAM) < 1e-9
        assert abs(h.scale - 0.3819660) < 1e-7
        assert h.ortho_defect < 1e-7
        assert h.invariant_line_residual < 1e-7

    def test_torus_loops_are_isometries(self, cat, model, cfg):
        g_base = _metric(model, np.array([0.0, 0.0, 1.0]))
        for gen in ("gx", "gy"):
            h = hc.holonomy_of_loop(cat, model, LoopClass([gen], ChartPoint(0, 0, 1)),
                                    cfg)
            assert abs(h.scale - 1.0) < 1e-7
            assert h.ortho_defect < 1e-7
            assert h.invariant_line_residual < 1e-7
            assert np.max(np.abs(h.matrix.T @ g_base @ h.matrix - g_base)) < 1e-7

    def test_empty_word_is_identity(self, cat, model, cfg):
        h = hc.holonomy_of_loop(cat, model, LoopClass([], ChartPoint(0, 0, 1)), cfg)
        np.testing.assert_allclose(h.matrix, np.eye(3), atol=0)
        assert h.scale == 1.0 and h.invariant_line_residual == 0.0

    def test_group_property(self, cat, model, cfg):
        base = ChartPoint(0, 0, 1)
        hx = hc.holonomy_of_loop(cat, model, LoopClass(["gx"], base), cfg)
        hz = hc.holonomy_of_loop(cat, model, LoopClass(["gz"], base), cfg)
        hxz = hc.holonomy_of_loop(cat, model, LoopClass(["gx", "gz"], base), cfg)
        # leftmost acts first: the word is the right-to-left matrix product
        assert np.max(np.abs(hxz.matrix - hz.matrix @ hx.matrix)) < 1e-6

    def test_inverse_generator(self, cat, model, cfg):
        base = ChartPoint(0, 0, 1)
        h = hc.holonomy_of_loop(cat, model, LoopClass(["gz", "gz^-1"], base), cfg)
        assert np.max(np.abs(h.matrix - np.eye(3))) < 1e-9

    def test_gz_needs_fixed_torus_basepoint(self, cat, model, cfg):
        with pytest.raises(ValueError, match="fixed"):
            hc.holonomy_of_loop(cat, model, LoopClass(["gz"], ChartPoint(0.3, 0, 1)),
                                cfg)

    def test_lift_escape(self, cat, model, cfg):
        with pytest.raises(hc.LiftEscapeError):
            hc.holonomy_of_loop(cat, model,
                                LoopClass(["gz^-1"], ChartPoint(0, 0, 2e-6)), cfg)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="generator"):
            LoopClass(["gw"], ChartPoint(0, 0, 1))


class TestClassifyHolonomy:
    """holonomy_element splits a raw matrix into scale and g-orthogonal part."""

    def test_identity(self):
        elem = hc.holonomy_element(np.eye(3), np.eye(3))
        assert elem.scale == 1.0 and elem.invariant_line_residual == 0.0
        assert elem.ortho_defect == 0.0

    def test_similarity_decomposition(self):
        elem = hc.holonomy_element(np.eye(3) / LAM, np.eye(3))
        assert abs(elem.scale - 1.0 / LAM) < 1e-15
        assert elem.ortho_defect < 1e-14
        assert elem.invariant_line_residual < 1e-15

    def test_singular_matrix(self):
        with pytest.raises(hc.SingularMatrixError):
            hc.holonomy_element(np.zeros((3, 3)), np.eye(3))

    def test_contractible_loop_element(self, model, cfg):
        base = ChartPoint(0, 0, 1)
        rect = hc.coordinate_rectangle(base, 1, 2, 0.4)
        elem = hc.holonomy_element(hc.transport_matrix(model, rect, cfg),
                                   _metric(model, base.coords))
        assert abs(elem.scale - 1.0) < 1e-7
        assert elem.invariant_line_residual < 1e-7
        assert elem.ortho_defect < 1e-7
