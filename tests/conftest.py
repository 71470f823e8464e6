import math

import numpy as np
import pytest

from ppcf.fields import GrfSpec, make_window, simulate_grf
from ppcf.model import log_linear_model
from ppcf.process import simulate_poisson


@pytest.fixture(scope="session")
def unit_window():
    return make_window(0.0, 0.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def small_model(unit_window):
    """Log-linear model with smooth random covariate fields on the unit square."""
    y_field = simulate_grf(unit_window, 48, 48, GrfSpec(1.0, 0.2), seed=101)
    z_field = simulate_grf(unit_window, 48, 48, GrfSpec(1.0, 0.2), seed=202)
    return log_linear_model([y_field], [z_field])


@pytest.fixture(scope="session")
def small_pattern(small_model):
    """A Poisson pattern from the small model at theta = 0.3, eta = log 150 + 0.3 z."""
    from helpers import intensity_surface
    eta = lambda Z: math.log(150.0) + 0.3 * np.asarray(Z)[:, 0]
    surface = intensity_surface(small_model, np.array([0.3]), eta)
    return simulate_poisson(surface, seed=7)
