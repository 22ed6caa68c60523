import math

import numpy as np
import pytest

from lpsq.errors import ParameterError
from lpsq.grids import GridFunction, build_cone, parse_function, sample_function
from lpsq.harness import (
    FitReport,
    aperture_scaling_check,
    kolmogorov_check,
    weak_type_profile,
    weighted_norm_check,
)
from lpsq.kernels import bilinear_example_kernel, parse_kernel
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


def _brute_weak_sup(values, h, f_norm, exponent):
    """max of (rho / f_norm)^exponent h^n #{S > rho} over rho at each
    distinct positive value of S and one ulp below it toward 0."""
    v = values.ravel()
    best = 0.0
    for u in np.unique(v[v > 0]):
        for rho in (u, np.nextafter(u, 0.0)):
            best = max(best, (rho / f_norm) ** exponent * np.count_nonzero(v > rho)
                       * h**values.ndim)
    return best


class TestWeakTypeProfile:
    def test_zero_operator_output(self, gauss_grid):
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        rep = weak_type_profile(z, 1.0, 1.0)
        assert rep.fitted["sup"] == 0.0
        assert rep.samples == []

    def test_scaling_invariance(self, ex1, gauss_grid, cone_coarse):
        s = square_function(ex1, gauss_grid, cone_coarse)
        p1 = weak_type_profile(s, gauss_grid.norm_l1(), 1.0)
        s2 = s.with_values(2.0 * s.values)
        p2 = weak_type_profile(s2, 2.0 * gauss_grid.norm_l1(), 1.0)
        assert p1.fitted["sup"] == pytest.approx(p2.fitted["sup"], rel=1e-12)
        assert p2.fitted["argmax_rho"] == 2.0 * p1.fitted["argmax_rho"]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("exponent", [1.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_brute_force_over_every_rho(self, n, exponent, seed):
        """The closed form h^n max_k k (s_(k) / f_norm)^e is the sup over
        every height, on random S with planted ties and zeros."""
        rng = np.random.default_rng(seed)
        M = 24 if n == 1 else 8
        v = rng.exponential(size=M**n)
        v[rng.choice(v.size, v.size // 3, replace=False)] = rng.choice(v[:4], v.size // 3)
        v[rng.choice(v.size, v.size // 8, replace=False)] = 0.0
        sf = GridFunction(n, M / 8, 0.25, v.reshape((M,) * n))
        f_norm = float(rng.uniform(0.5, 3.0))
        rep = weak_type_profile(sf, f_norm, exponent)
        brute = _brute_weak_sup(sf.values, sf.h, f_norm, exponent)
        assert rep.fitted["sup"] == pytest.approx(brute, rel=1e-12)
        rho = rep.fitted["argmax_rho"]
        assert rho in v and rep.fitted["sup"] == pytest.approx(
            (rho / f_norm) ** exponent * np.count_nonzero(v >= rho) * sf.h**n, rel=1e-12)

    def test_refined_copy_is_stable(self, ex1, gauss_grid, cone_coarse):
        s = square_function(ex1, gauss_grid, cone_coarse)
        rep = weak_type_profile(s, gauss_grid.norm_l1(), 1.0, refined=(s, gauss_grid.norm_l1()))
        assert rep.fitted["stability"] == 1.0

    @pytest.mark.parametrize("f_norm", [math.nan, math.inf, 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_bad_f_norm(self, gauss_grid, f_norm):
        with pytest.raises(ParameterError, match="finite positive input norm"):
            weak_type_profile(gauss_grid, f_norm, 1.0)
        with pytest.raises(ParameterError, match="finite positive input norm"):
            weak_type_profile(gauss_grid, 1.0, 1.0, refined=(gauss_grid, f_norm))


class TestApertureScaling:
    def test_l2_alpha1_is_one(self, ex1, gauss_grid, cone_default):
        rep = aperture_scaling_check(ex1, gauss_grid, [1.0], "l2", cone_default)
        assert rep.fitted["ratio_alpha_1"] == pytest.approx(1.0)

    def test_no_alphas(self, ex1, gauss_grid, cone_default):
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

    def test_bilinear_weak_ratio_is_scale_invariant(self):
        """(rho / ||f1||_1 ||f2||_1)^(1/2) |E| does not move when one input
        is scaled: S(10 f1, f2) = 10 S(f1, f2)."""
        k = parse_kernel("bi1:kappa=3", 1)
        f1, f2 = (parse_function(spec, 1, 4.0, 0.25) for spec in ("gaussian", "hat:2"))
        cone = build_cone(1.0, 1, 0.25, 0.5, 8.0, 4)
        reps = [aperture_scaling_check(k, (g, f2), [1.0, 2.0, 4.0], "weak", cone)
                for g in (f1, f1.with_values(10.0 * f1.values))]
        (l1, v1), (l10, v10) = (zip(*rep.samples) for rep in reps)
        assert l1 == l10 and len(v1) == 3
        np.testing.assert_allclose(v10, v1, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("norm", ["l2", "weak"])
    def test_zero_input_is_parameter_error(self, ex1, gauss_grid, cone_default, norm):
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        with pytest.raises(ParameterError, match=r"\|\|S_1 f\|\|_2 = 0"):
            aperture_scaling_check(ex1, z, [1.0, 2.0], norm, cone_default)


class TestWeightedNorm:
    def test_one_evaluator_per_layout(self, monkeypatch, gauss_grid, cone_coarse):
        """On the fast path the checks of one layout share the evaluator
        that `SquareEvaluator.of` keeps on the kernel (one kernel sample),
        and S is the bits of `square_function`; method "direct" builds
        none."""
        from lpsq.operators import SquareEvaluator

        k = parse_kernel("ex1:kappa=3", 1)
        w = sample_function(lambda x: np.abs(x) ** 0.5 + 1e-12, 1, gauss_grid.R,
                            gauss_grid.h)
        wv = WeightVector([w], [2.0])
        inits, init = [], SquareEvaluator.__init__
        monkeypatch.setattr(SquareEvaluator, "__init__", lambda self, *a, **kw:
                            inits.append(1) or init(self, *a, **kw))
        rng = np.random.default_rng(4)
        gs = [gauss_grid.with_values(rng.standard_normal(gauss_grid.ncells)) for _ in range(3)]
        reps = [weighted_norm_check(k, g, wv, cone_coarse) for g in gs]
        assert len(inits) == 1
        for g, rep in zip(gs, reps):
            lhs = square_function(k, g, cone_coarse).norm_lp(2.0, weight=wv.nu().values)
            assert rep.fitted["lhs"] == lhs
        weighted_norm_check(k, gs[0], wv, cone_coarse, method="direct")
        assert len(inits) == 1

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

    def test_one_weight_per_input(self, ex1, gauss_grid, cone_coarse):
        """A weight vector of another length than the inputs is refused:
        zipping them would drop an input's or a weight's factor."""
        one = sample_function(lambda x: np.ones_like(x), 1, gauss_grid.R, gauss_grid.h)
        k = bilinear_example_kernel(3.0, 1)
        with pytest.raises(ParameterError, match="weights"):
            weighted_norm_check(k, (gauss_grid, gauss_grid), WeightVector([one], [2.0]),
                                cone_coarse)
        with pytest.raises(ParameterError, match="weights"):
            weighted_norm_check(ex1, gauss_grid, WeightVector([one, one], [2.0, 2.0]),
                                cone_coarse)


class TestKolmogorov:
    def test_bound_with_fitted_weak_norm(self, ex1, gauss_grid, cone_coarse):
        s = square_function(ex1, gauss_grid, cone_coarse)
        prof = weak_type_profile(s, gauss_grid.norm_l1(), 1.0)
        weak_norm = prof.fitted["sup"] * gauss_grid.norm_l1()
        rng = np.random.default_rng(9)
        sets = [rng.uniform(size=s.values.shape) < q for q in (0.1, 0.5, 0.9)]
        rep = kolmogorov_check(s, gauss_grid.norm_l1(), sets, weak_norm)
        assert math.isfinite(rep.fitted["C"]) and rep.fitted["C"] > 0
