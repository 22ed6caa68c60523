"""Exception types shared across the package."""


class LpsqError(Exception):
    pass


class MonotonicityError(LpsqError):
    """A modulus of continuity failed the increasing spot-check."""


class DivergenceError(LpsqError):
    """A truncated integral/sum kept growing under refinement.

    Carries the last truncated value in ``partial`` and, for suite items,
    the item name in ``item``.
    """

    def __init__(self, msg, partial=None, item=None):
        super().__init__(msg)
        self.partial = partial
        self.item = item


class QuadratureBudgetError(LpsqError):
    """Quadrature did not meet its tolerance within the refinement budget."""

    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


class ParameterError(LpsqError):
    """A constructor or operator parameter violates its stated constraint."""


class GridError(LpsqError):
    """Grid shape/spacing mismatch between operands."""


class ResolutionError(LpsqError):
    """Discretization too coarse for the requested computation."""


class ConfigError(LpsqError):
    """Bad config file or unknown id."""


class CoverageError(LpsqError):
    """A cube pool leaves part of the requested domain uncovered."""


class ConstructionError(LpsqError):
    """sparse_construct exhausted its gamma-doubling budget."""

    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


class ContainmentError(LpsqError):
    """A cube is not contained in the expected root."""


class DisjointnessError(LpsqError):
    """Cubes expected to be pairwise disjoint overlap."""
