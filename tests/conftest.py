import math

import numpy as np
import pytest
from hypothesis import settings

from lpsq.grids import build_cone, cell_ranges, sample_function
from lpsq.kernels import parse_kernel

# property tests: no per-example deadline (timings vary on small shared
# hosts) and derandomized examples, so every run draws the same cases
settings.register_profile("lpsq", deadline=None, derandomize=True)
settings.load_profile("lpsq")


def dilate3(box) -> np.ndarray:
    """The 3-dilate of a (2, n) box [lo, hi] by Python float operations,
    the center -+ 3/2 times the axis-0 side: an oracle for
    `grids.three_dilate`."""
    lo, hi = (list(map(float, v)) for v in box)
    c = [0.5 * (a + b) for a, b in zip(lo, hi)]
    half = 3.0 * 0.5 * (hi[0] - lo[0])
    return np.array([[x - half for x in c], [x + half for x in c]])


def box(lo, hi) -> np.ndarray:
    """The (2, n) corner array [lo, hi] of a box."""
    return np.array([lo, hi], dtype=float)


def grid_box(gf) -> np.ndarray:
    """The (2, n) corners of a grid function's own box [-R, R]^n."""
    return box((-gf.R,) * gf.n, (gf.R,) * gf.n)


def box_key(box) -> tuple:
    """A (2, n) box as a hashable ((lo...), (hi...)) tuple of floats."""
    return tuple(tuple(map(float, v)) for v in box)


def box_mask(gf, box, dilate: bool = False) -> np.ndarray:
    """The 0/1 indicator of the grid cells `grids.cell_ranges` selects for
    one (2, n) box, or with ``dilate`` for its 3-dilate."""
    i0, i1 = cell_ranges(gf, [box], dilate=dilate)
    mask = np.zeros(gf.values.shape)
    mask[tuple(slice(max(a, 0), max(b, 0)) for a, b in zip(i0[0], i1[0]))] = 1.0
    return mask


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
