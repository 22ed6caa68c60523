import math

import numpy as np
import pytest

from lpsq.grids import build_cone, sample_function
from lpsq.harness import (
    FitReport,
    aperture_scaling_check,
    kolmogorov_check,
    lattice_superlevel_measure,
    weak_type_profile,
    weighted_norm_check,
)
from lpsq.kernels import bilinear_example_kernel
from lpsq.operators import square_function
from lpsq.weights import WeightVector


class TestFitReport:
    def test_self_verifying(self):
        rep = FitReport("demo", fitted={"x": 2.0})
        rep.tolerances["x"] = (2.0, 0.1)
        assert rep.check_items() == [("x", True)]
        rep.fitted["x"] = 2.2
        assert rep.check_items() == [("x", False)]  # recomputed from stored values

    def test_rows_contain_pass_flags(self):
        rep = FitReport("demo", fitted={"x": 1.0})
        rep.tolerances["x"] = (None, None)
        labels = [label for label, _ in rep.rows()]
        assert "fitted:x" in labels and "pass:x" in labels


class TestWeakTypeProfile:
    def test_zero_operator_output(self, gauss_grid):
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        rep = weak_type_profile(z, 1.0, 1.0, [0.1, 1.0])
        assert rep.fitted["sup"] == 0.0
        assert [v for _, v in rep.samples] == [0.0, 0.0]

    def test_scaling_invariance(self, ex1, gauss_grid, cone_coarse):
        s = square_function(ex1, gauss_grid, cone_coarse)
        rho = list(np.geomspace(s.norm_linf() / 50, s.norm_linf() * 0.9, 12))
        p1 = weak_type_profile(s, gauss_grid.norm_l1(), 1.0, rho)
        s2 = s.with_values(2.0 * s.values)
        rho2 = [2.0 * r for r in rho]
        p2 = weak_type_profile(s2, 2.0 * gauss_grid.norm_l1(), 1.0, rho2)
        assert p1.fitted["sup"] == pytest.approx(p2.fitted["sup"], rel=1e-12)

    def test_lattice_measure(self, gauss_grid):
        m = lattice_superlevel_measure(gauss_grid, 0.5)
        # e^{-x^2} > 0.5 iff |x| < sqrt(log 2)
        assert m == pytest.approx(2.0 * math.sqrt(math.log(2.0)), abs=2 * gauss_grid.h)

    def test_bad_rho_grid(self, gauss_grid):
        from lpsq.errors import ParameterError

        with pytest.raises(ParameterError):
            weak_type_profile(gauss_grid, 1.0, 1.0, [1.0, 0.5])

    @pytest.mark.parametrize("grid", [[0.5, math.nan], [math.inf], [0.5, math.inf]],
                             ids=["nan", "inf", "inf-last"])
    def test_non_finite_rho_grid(self, gauss_grid, grid):
        from lpsq.errors import ParameterError

        with pytest.raises(ParameterError, match="finite"):
            weak_type_profile(gauss_grid, 1.0, 1.0, grid)

    def test_empty_rho_grid(self, gauss_grid):
        from lpsq.errors import ParameterError

        with pytest.raises(ParameterError, match="nonempty"):
            weak_type_profile(gauss_grid, 1.0, 1.0, [])


class TestApertureScaling:
    def test_l2_alpha1_is_one(self, ex1, gauss_grid, cone_default):
        rep = aperture_scaling_check(ex1, gauss_grid, [1.0], "l2", cone_default)
        assert rep.fitted["ratio_alpha_1"] == pytest.approx(1.0)

    def test_no_alphas(self, ex1, gauss_grid, cone_default):
        from lpsq.errors import ParameterError

        with pytest.raises(ParameterError, match="at least one alpha"):
            aperture_scaling_check(ex1, gauss_grid, [], "l2", cone_default)

    def test_l2_alpha4(self, ex1, gauss_grid, cone_default):
        rep = aperture_scaling_check(ex1, gauss_grid, [4.0], "l2", cone_default)
        assert rep.fitted["ratio_alpha_4"] == pytest.approx(4.0, rel=0.05)
        assert all(ok for _, ok in rep.check_items())

    def test_weak_exponent_bounded(self, ex1, gauss_grid, cone_default):
        rep = aperture_scaling_check(ex1, gauss_grid, [1.0, 2.0, 4.0, 8.0], "weak",
                                     cone_default)
        assert rep.fitted["exponent"] <= 1.5
        assert all(ok for _, ok in rep.check_items())


class TestWeightedNorm:
    def test_zero_input(self, ex1, gauss_grid, cone_coarse):
        w = sample_function(lambda x: np.abs(x) ** 0.5 + 1e-12, 1, gauss_grid.R,
                            gauss_grid.h)
        wv = WeightVector([w], [2.0])
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        rep = weighted_norm_check(ex1, z, wv, cone_coarse)
        assert rep.fitted["ratio"] == 0.0

    def test_unweighted_reduces_to_lp(self, ex1, gauss_grid, cone_coarse):
        one = sample_function(lambda x: np.ones_like(x), 1, gauss_grid.R, gauss_grid.h)
        wv = WeightVector([one], [2.0])
        rep = weighted_norm_check(ex1, gauss_grid, wv, cone_coarse)
        s = square_function(ex1, gauss_grid, cone_coarse)
        assert rep.fitted["ratio"] == pytest.approx(
            s.norm_l2() / gauss_grid.norm_l2(), rel=1e-12
        )
        assert math.isfinite(rep.fitted["ratio"])

    def test_power_weight_stability(self, ex1, gauss_grid, cone_coarse):
        w = sample_function(lambda x: np.abs(x) ** 0.5 + 1e-12, 1, gauss_grid.R,
                            gauss_grid.h)
        wv = WeightVector([w], [2.0])
        rng = np.random.default_rng(4)
        ratios = []
        for _ in range(10):
            g = gauss_grid.with_values(
                rng.standard_normal(gauss_grid.ncells)
                * np.exp(-np.abs(gauss_grid.axis_centers()) / 2.0)
            )
            ratios.append(weighted_norm_check(ex1, g, wv, cone_coarse).fitted["ratio"])
        assert max(ratios) <= 4.0 * float(np.median(ratios))

    def test_bilinear_weighted(self, cone_coarse, gauss_grid):
        k = bilinear_example_kernel(3.0, 1)
        one = sample_function(lambda x: np.ones_like(x), 1, gauss_grid.R, gauss_grid.h)
        wv = WeightVector([one, one], [2.0, 2.0])
        rep = weighted_norm_check(k, (gauss_grid, gauss_grid), wv, cone_coarse)
        assert math.isfinite(rep.fitted["ratio"]) and rep.fitted["ratio"] > 0

    @pytest.mark.parametrize("R, h", [(16.0, 1.0 / 16), (8.0, 1.0 / 32)],
                             ids=["wider-box", "finer-spacing"])
    def test_input_off_the_weights_grid_is_grid_error(self, ex1, gauss_grid, R, h):
        """S is on f's lattice, so an input on another grid than the
        weights' is refused before S is taken."""
        from lpsq.errors import GridError

        one = sample_function(lambda x: np.ones_like(x), 1, gauss_grid.R, gauss_grid.h)
        g = sample_function(lambda x: np.exp(-(x**2)), 1, R, h)
        cone = build_cone(1.0, 1, h, 2 * h, 2 * R, 2)
        with pytest.raises(GridError, match="different grids"):
            weighted_norm_check(ex1, g, WeightVector([one], [2.0]), cone)
        k = bilinear_example_kernel(3.0, 1)
        with pytest.raises(GridError, match="different grids"):
            weighted_norm_check(k, (g, g), WeightVector([one, one], [2.0, 2.0]), cone)


class TestKolmogorov:
    def test_bound_with_fitted_weak_norm(self, ex1, gauss_grid, cone_coarse):
        s = square_function(ex1, gauss_grid, cone_coarse)
        rho = np.geomspace(s.norm_linf() / 100, s.norm_linf(), 16)
        prof = weak_type_profile(s, gauss_grid.norm_l1(), 1.0, rho)
        weak_norm = prof.fitted["sup"] * gauss_grid.norm_l1()
        rng = np.random.default_rng(9)
        sets = [rng.uniform(size=s.values.shape) < q for q in (0.1, 0.5, 0.9)]
        rep = kolmogorov_check(s, gauss_grid.norm_l1(), sets, weak_norm)
        assert math.isfinite(rep.fitted["C"]) and rep.fitted["C"] > 0
