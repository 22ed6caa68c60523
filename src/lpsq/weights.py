"""Weight vectors and the joint Muckenhoupt-type constant.

For m weights w_i and exponents p_i the joint constant is the sup over a
cube pool of (avg_Q nu) * prod_j (avg_Q w_j^{1-p_j'})^{p/p_j'} with
nu = prod w_i^{p/p_i} and 1/p = sum 1/p_i.  The pool is every grid-aligned
cube with side >= 4h; the averages over all cubes of one side are the box
sums of one prefix table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grids import GridFunction, box_sums, prefix_sums

__all__ = ["WeightVector", "apvec_constant"]


@dataclass
class WeightVector:
    weights: list  # of GridFunction, positive
    exponents: list  # of float in (1, inf)

    def __post_init__(self):
        if len(self.weights) != len(self.exponents):
            raise ParameterError("one exponent per weight")
        if len(self.weights) not in (1, 2):
            raise ParameterError("m must be 1 or 2")
        for w in self.weights:
            if not self.weights[0].same_grid(w):
                raise ParameterError("weights must share one grid")
            if np.any(w.values <= 0.0):
                raise ParameterError("weights must be positive on the grid")
        for p in self.exponents:
            if not 1.0 < p < math.inf:
                raise ParameterError("exponents must lie in (1, inf)")

    @property
    def m(self) -> int:
        return len(self.weights)

    @property
    def p(self) -> float:
        return 1.0 / sum(1.0 / p for p in self.exponents)

    def nu(self) -> GridFunction:
        p = self.p
        vals = np.ones_like(self.weights[0].values)
        for w, pi in zip(self.weights, self.exponents):
            vals = vals * w.values ** (p / pi)
        return self.weights[0].with_values(vals)


# the smallest cube side (in cells) of the pool
_LEAST_SIDE_CELLS = 4


def apvec_constant(wv: WeightVector) -> float:
    """sup over grid cubes of the joint weight-constant product."""
    base = wv.weights[0]
    p = wv.p
    nu = wv.nu().values
    duals = []
    powers = []
    for w, pi in zip(wv.weights, wv.exponents):
        pprime = pi / (pi - 1.0)
        duals.append(w.values ** (1.0 - pprime))
        powers.append(p / pprime)
    if not np.all([np.all(np.isfinite(d)) for d in duals]):
        raise ParameterError("w^{1-p'} overflows on the grid")
    cs = [prefix_sums(a) for a in [nu] + duals]
    best = 0.0
    for L in range(_LEAST_SIDE_CELLS, base.ncells + 1):
        avgs = [box_sums(c, L) / L**base.n for c in cs]
        prod = avgs[0]
        for d_avg, pw in zip(avgs[1:], powers):
            prod = prod * d_avg**pw
        best = max(best, float(np.max(prod)))
    return best
