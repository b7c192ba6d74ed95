import numpy as np
import pytest

import holocheck as hc


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
