import numpy as np
import pytest

from fourierjacobi import JacobiParams

STANDARD = [(0.5, -0.5), (1.0, 0.0), (2.3, 0.7)]
REGIMES = [(2.3, 0.7), (1.2, 1.2), (1.5, -0.5)]


@pytest.fixture(params=STANDARD, ids=lambda ab: f"a{ab[0]}b{ab[1]}")
def standard_params(request):
    return JacobiParams(*request.param)


# the seven pairs of the accuracy probe, plus (2, 1): integer alpha 2 at beta > -1/2
PROBE = [(0.5, -0.5), (1.0, 0.0), (2.3, 0.7), (1.2, 1.2), (3.0, -0.5), (1.5, -0.5), (0.0, -0.5),
         (2.0, 1.0)]


@pytest.fixture(params=PROBE, ids=lambda ab: f"a{ab[0]}b{ab[1]}")
def probe_params(request):
    return JacobiParams(*request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
