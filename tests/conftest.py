import math

import numpy as np
import pytest
from hypothesis import settings

from lpsq.grids import build_cone, sample_function
from lpsq.kernels import parse_kernel

# property tests: no per-example deadline (timings vary on small shared
# hosts) and derandomized examples, so every run draws the same cases
settings.register_profile("lpsq", deadline=None, derandomize=True)
settings.load_profile("lpsq")


@pytest.fixture(scope="session")
def ex1():
    return parse_kernel("ex1:kappa=3", 1)


@pytest.fixture(scope="session")
def gauss_grid():
    return sample_function(lambda x: np.exp(-(x**2)), 1, 8.0, 1.0 / 16)


@pytest.fixture(scope="session")
def cone_default(gauss_grid):
    g = gauss_grid
    return build_cone(1.0, 1, g.h, 2 * g.h, 2 * g.R, 4)


@pytest.fixture(scope="session")
def cone_coarse(gauss_grid):
    g = gauss_grid
    return build_cone(1.0, 1, g.h, 2 * g.h, 2 * g.R, 2)


def exp_substituted_quad(w_of_u, split: float = 10.0, upper: float = 60.0):
    """Independent reference for integral_0^inf f(u) du.

    Plain scipy quad near 0 plus an exponential substitution for the tail;
    an oracle for the Dini constants of the body-plus-tail engine that
    needs no mpmath.
    """
    from scipy.integrate import quad

    v0, _ = quad(w_of_u, 0.0, split, limit=300)
    v1, _ = quad(
        lambda v: w_of_u(math.exp(v)) * math.exp(v),
        math.log(split),
        upper,
        limit=400,
    )
    return v0 + v1
