import numpy as np
import pytest

from torusflow.spectral import TorusGrid


@pytest.fixture
def g2():
    return TorusGrid(2, 32)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
