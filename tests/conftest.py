import ctypes
import glob
import os

import numpy as np
import pytest

import holocheck as hc


def openblas_kernel():
    """The kernel numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so*")
    try:
        corename = ctypes.CDLL(glob.glob(pattern)[0]).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    except (IndexError, OSError, AttributeError):
        return "unknown"


def simd_dispatch():
    """numpy's SIMD dispatch targets that run on this CPU, or "unknown"."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return "unknown"
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "baseline"


def pytest_report_header(config):
    # The pinned digests hold under the BLAS kernel that took them: the
    # kernels differ in FMA use and summation order, so a digest can move on
    # another host.  numpy's SIMD dispatch does not move them, which
    # test_pinned_output checks with its AVX512 targets turned off.
    return [f"numpy OpenBLAS kernel: {openblas_kernel()}; SIMD dispatch: {simd_dispatch()}",
            "(the digests in tests/test_pinned_output.py were taken under SkylakeX; "
            "they hold with numpy's AVX512 dispatch on or off)"]


def euclidean_metric(dim=3):
    """Constant identity metric on the chart (flat comparison model)."""

    def components(c):
        return np.zeros(c.shape[:-1] + (dim, dim)) + np.eye(dim)

    def partials(c):
        return np.zeros(c.shape[:-1] + (dim, dim, dim))

    return hc.MetricField(components, partials, label="euclidean", dim=dim)


@pytest.fixture(scope="session")
def model():
    return hc.warped_metric()


@pytest.fixture(scope="session")
def euclid():
    return euclidean_metric()


@pytest.fixture(scope="session")
def skewed():
    """The warped model plus a constant xt-yt term, so g is not diagonal."""
    base = hc.warped_metric()

    def components(c):
        g = base.components(c)
        g[..., 0, 1] = g[..., 1, 0] = 0.01
        return g

    return hc.MetricField(components, base.exact_partials, label="skewed warped")


@pytest.fixture(scope="session")
def cat():
    return hc.validate_toral_matrix([[2, 1], [1, 1]])


@pytest.fixture(scope="session")
def frame(cat):
    return hc.eigen_basis(cat)


@pytest.fixture(scope="session")
def cfg():
    return hc.IntegratorConfig()
