import math
import re

import numpy as np
import pytest

from lpsq.errors import ConfigError, ParameterError
from lpsq.kernels import (
    KernelSpec,
    SamplePlan,
    bilinear_example_kernel,
    example_kernel,
    kernel_condition_check,
    parse_kernel,
    unit_cube_maximal,
)
from lpsq.moduli import dini_constant, power_modulus

from conftest import exp_substituted_quad


class TestExampleKernels:
    def test_ex1_zero_at_origin(self):
        k = example_kernel("ex1", {"kappa": 3.0}, 1)
        assert k.profile(np.array([0.0]))[0] == 0.0

    def test_ex1_odd(self):
        k = example_kernel("ex1", {"kappa": 3.0}, 1)
        x = np.random.default_rng(1).uniform(-100.0, 100.0, 100)
        assert np.max(np.abs(k.profile(x) + k.profile(-x))) == 0.0

    def test_ex1_odd_2d(self):
        k = example_kernel("ex1", {"kappa": 3.0}, 2)
        rng = np.random.default_rng(2)
        x, y = rng.uniform(-10, 10, (2, 50))
        assert np.max(np.abs(k.profile(x, y) + k.profile(-x, -y))) == 0.0

    def test_ex2_moduli_dini_finite(self):
        k = example_kernel("ex2", {"kappa": 3.0, "beta": 1.5}, 1)
        for mod in (k.w_mod, k.phi_mod):
            oracle = exp_substituted_quad(lambda u: float(mod.at_exp(u)))
            got = dini_constant(mod, 1e-8)
            assert got == pytest.approx(oracle + float(mod(1.0)), abs=1e-6)

    def test_ex3_matches_finite_difference(self):
        # ex3 is the x1-derivative of a radial profile; check the closed form
        k = example_kernel("ex3", {"kappa": 3.0}, 1)
        g = lambda x: np.log(2.0 + x**2) ** -3.0
        x = np.linspace(-5.0, 5.0, 41)
        eps = 1e-6
        fd = (g(x + eps) - g(x - eps)) / (2 * eps)
        assert np.max(np.abs(k.profile(x) - fd)) < 1e-7

    def test_ex3_2d_matches_finite_difference(self):
        k = example_kernel("ex3", {"kappa": 3.0}, 2)
        g = lambda x, y: (1.0 + x**2 + y**2) ** -0.5 * np.log(2.0 + x**2 + y**2) ** -3.0
        rng = np.random.default_rng(3)
        x, y = rng.uniform(-4, 4, (2, 30))
        eps = 1e-6
        fd = (g(x + eps, y) - g(x - eps, y)) / (2 * eps)
        assert np.max(np.abs(k.profile(x, y) - fd)) < 1e-6

    def test_parameter_constraints(self):
        with pytest.raises(ParameterError):
            example_kernel("ex1", {"kappa": 1.0}, 1)
        with pytest.raises(ParameterError):
            example_kernel("ex3", {"kappa": 2.0}, 1)
        with pytest.raises(ParameterError):
            example_kernel("ex2", {"kappa": 3.0, "beta": 2.5}, 1)

    def test_parse_ids(self):
        assert parse_kernel("ex1:kappa=3", 1).name == "ex1:kappa=3"
        assert parse_kernel("bi1:kappa=3", 1).kind == "bilinear"
        with pytest.raises(ConfigError):
            parse_kernel("zzz:1", 1)
        with pytest.raises(ConfigError):
            parse_kernel("ex2:kappa=2.2,beta=1.5", 1)

    def test_csv_profile(self, tmp_path):
        path = tmp_path / "prof.csv"
        xs = np.linspace(-2, 2, 101)
        path.write_text("\n".join(f"{x},{max(0.0, 1 - abs(x))}" for x in xs))
        k = parse_kernel(f"csv:{path}", 1)
        assert k.profile(np.array([0.0]))[0] == pytest.approx(1.0)
        assert k.profile(np.array([5.0]))[0] == 0.0  # zero outside the table

    def test_linear_kernel_rejects_profile(self):
        with pytest.raises(ParameterError, match="profile"):
            KernelSpec("linear", 1, 1.0, power_modulus(1.0), power_modulus(1.0),
                       profile=lambda x: x, psi=lambda x, y: x - y)


_MOD = power_modulus(1.0)


class TestParity:
    """A convolution kernel may declare one sign per axis, a bilinear one
    one sign per coordinate of its profile Phi(u, v); anything else
    declared is a ParameterError."""

    @pytest.mark.parametrize("kind, n, parity, match", [
        ("linear", 1, (-1,), "only a convolution kernel"),
        ("bilinear", 1, (-1,), "tuple of 2 sign"),
        ("bilinear", 2, (-1, 1), "tuple of 4 sign"),
        ("convolution", 1, (-1, 1), "tuple of 1 sign"),
        ("convolution", 2, (-1,), "tuple of 2 sign"),
        ("convolution", 2, (), "tuple of 2 sign"),
        ("convolution", 1, [-1], "tuple of 1 sign"),
        ("convolution", 1, -1, "tuple of 1 sign"),
        ("convolution", 1, (0,), "-1 or 1"),
        ("convolution", 1, (2,), "-1 or 1"),
        ("convolution", 2, (-1, -2), "-1 or 1"),
        ("convolution", 1, (1.0,), "-1 or 1"),
        ("convolution", 1, (math.nan,), "-1 or 1"),
        ("convolution", 1, (True,), "-1 or 1"),
        ("convolution", 1, ("-1",), "-1 or 1"),
    ], ids=["linear", "bilinear", "bilinear-2d", "long-1d", "short-2d", "empty-2d", "list", "scalar",
            "zero", "two", "minus-two", "float", "nan", "bool", "text"])
    def test_bad_parity_is_parameter_error(self, kind, n, parity, match):
        fields = {"convolution": {"profile": lambda *u: u[0]},
                  "linear": {"psi": lambda *c: c[0] - c[1]},
                  "bilinear": {"psi": lambda x, y1, y2: x - y1}}[kind]
        with pytest.raises(ParameterError, match=re.escape(match)):
            KernelSpec(kind, n, 1.0, _MOD, _MOD, parity=parity, **fields)

    @pytest.mark.parametrize("n", [1, 2])
    def test_declared_parities(self, tmp_path, n):
        for kid in ("ex1:kappa=3", "ex2:kappa=3,beta=1.5", "ex3:kappa=3"):
            assert parse_kernel(kid, n).parity == (-1,) + (1,) * (n - 1)
        assert bilinear_example_kernel(3.0, n).parity == (-1,) + (1,) * (2 * n - 1)
        path = tmp_path / "prof.csv"
        path.write_text("-1,0\n0,1\n1,0\n")
        assert parse_kernel(f"csv:{path}", 1).parity is None

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kid", ["ex1:kappa=3", "ex2:kappa=3,beta=1.5", "ex3:kappa=3",
                                     "bi1:kappa=3"])
    def test_declaration_holds_exactly(self, kid, n):
        """profile(u with coordinate i negated) is parity[i] profile(u), and
        profile(-u) is the product of the parity times profile(u), to the
        bit, at random points: the mirror of `operators` and the bilinear
        rows read by reflection rely on it."""
        k = parse_kernel(kid, n)
        u = np.random.default_rng(5).uniform(-40.0, 40.0, (len(k.parity), 200))
        base = k.profile(*u)
        for i, s in enumerate(k.parity):
            flipped = u.copy()
            flipped[i] = -flipped[i]
            assert (s * base).tobytes() == k.profile(*flipped).tobytes()
        assert (math.prod(k.parity) * base).tobytes() == k.profile(*-u).tobytes()


class TestUnitCubeMaximal:
    def test_1d_closed_form(self):
        d = np.array([0.0, 0.5, 1.0, 3.0, 9.0])
        got = unit_cube_maximal(d)
        want = np.minimum(1.0, 2.0 / (1.0 + d))
        assert np.allclose(got, want)

    @pytest.mark.parametrize("d1,d2", [(0.2, 0.3), (3, 0), (3, 2), (5, 5),
                                       (1.5, 0.5), (10, 1), (0.9, 7)])
    def test_2d_vs_brute(self, d1, d2):
        lib = unit_cube_maximal(np.array([d1]), np.array([d2]))[0]
        best = 0.0
        for s in np.geomspace(1e-2, 50, 6000):
            o1 = min(s, 2.0, max(0.0, s - max(0.0, d1 - 1.0)))
            o2 = min(s, 2.0, max(0.0, s - max(0.0, d2 - 1.0)))
            best = max(best, o1 * o2 / s**2)
        # the library value is a sup over a candidate superset of the brute grid
        assert lib >= best - 1e-12
        assert lib <= best * (1.0 + 5e-3)

    def test_2d_closed_form_vs_side_sweep(self):
        # the optimum side lies in [a2, a2 + 2] (a2 the larger of d_i - 1,
        # both clipped at 0); sweep it at step 5e-5 for random distance pairs
        rng = np.random.default_rng(2024)
        d = np.vstack([[0.53, 2.12], rng.uniform(0.0, 6.0, (400, 2))])
        lib = unit_cube_maximal(d[:, 0], d[:, 1])
        a = np.maximum(0.0, d - 1.0)
        a2 = a.max(axis=1, keepdims=True)
        s = a2 + np.linspace(0.0, 2.0, 40001)[1:]
        o = [np.minimum(np.minimum(s, 2.0), np.maximum(0.0, s - a[:, i : i + 1]))
             for i in (0, 1)]
        best = np.max(o[0] * o[1] / s**2, axis=1)
        assert np.all(lib >= best - 1e-12)
        assert np.all(lib <= best + 1e-4)
        assert lib[0] == pytest.approx(2 * 1.12 / 2.24**2, rel=1e-12)

    def test_translation_invariance_in_bound(self):
        # the size-condition envelope is translation invariant
        k = parse_kernel("ex1:kappa=3", 1)
        x = np.array([[0.3]])
        y = np.array([[-4.1]])
        v = 11.7
        r = abs(x[0, 0] - y[0, 0])
        env1 = unit_cube_maximal(np.abs(y - x)[..., 0]) * k.w_mod(1 / (1 + r))
        env2 = unit_cube_maximal(np.abs((y + v) - (x + v))[..., 0]) * k.w_mod(1 / (1 + r))
        assert env1 == pytest.approx(env2)


class TestConditionChecks:
    def test_zero_kernel(self):
        k = KernelSpec("linear", 1, 1.0, power_modulus(1.0), power_modulus(1.0),
                       psi=lambda x, y: np.zeros_like(np.asarray(x) + np.asarray(y)))
        rep = kernel_condition_check(k, "size")
        assert rep.max_ratio == 0.0 and not rep.flagged
        rep = kernel_condition_check(k, "smooth_x")
        assert rep.max_ratio == 0.0 and not rep.flagged

    def test_ex2_size_stable(self):
        k = parse_kernel("ex2:kappa=3,beta=1.5", 1)
        rep = kernel_condition_check(k, "size")
        assert math.isfinite(rep.max_ratio) and rep.max_ratio > 0
        assert rep.growth_ratio <= 1.2
        assert not rep.flagged

    def test_constant_kernel_flagged(self):
        # psi == 1 decays not at all; the envelope decays like |x-y|^{-2}
        k = KernelSpec("linear", 1, 1.0, power_modulus(1.0), power_modulus(1.0),
                       psi=lambda x, y: np.ones_like(np.asarray(x) + np.asarray(y)))
        rep = kernel_condition_check(k, "size")
        assert rep.flagged
        assert rep.growth_ratio > 50.0  # ~ (10x range)^2

    @pytest.mark.parametrize("mode", ["size", "smooth_x", "smooth_y"])
    def test_ex1_all_modes_stable(self, mode):
        k = parse_kernel("ex1:kappa=3", 1)
        rep = kernel_condition_check(k, mode)
        assert math.isfinite(rep.max_ratio)
        assert rep.growth_ratio <= 1.2, (mode, rep.growth_ratio)

    @pytest.mark.parametrize("mode", ["size", "smooth_x"])
    def test_ex3_modes_stable(self, mode):
        k = parse_kernel("ex3:kappa=3", 1)
        rep = kernel_condition_check(k, mode)
        assert math.isfinite(rep.max_ratio)
        assert rep.growth_ratio <= 1.2

    def test_bilinear_size_stable(self):
        k = bilinear_example_kernel(3.0, 1)
        plan = SamplePlan(n_r=16, n_h=6, n_base=2)
        rep = kernel_condition_check(k, "size", plan)
        assert math.isfinite(rep.max_ratio)
        assert rep.growth_ratio <= 1.2

    def test_bilinear_smooth_stable(self):
        # the increments decay like log^{-kappa}, as w phi does
        k = bilinear_example_kernel(3.0, 1)
        for mode in ("smooth_x", "smooth_y"):
            rep = kernel_condition_check(k, mode)
            assert math.isfinite(rep.max_ratio)
            assert not rep.flagged, (mode, rep.growth_ratio)

    @pytest.mark.parametrize("band", [(2.0, 3.0), (4e3, 6e3)], ids=["both-ranges", "extended"])
    @pytest.mark.parametrize("mode", ["size", "smooth_x", "smooth_y"])
    def test_nan_profile_flagged(self, mode, band):
        """A profile that is NaN for |u| in a band of radii, in both radius
        ranges or in the 10x extended one only, gives a NaN max ratio or
        growth, and the check is flagged; without the band it passes."""
        ex1 = parse_kernel("ex1:kappa=3", 1)
        lo, hi = band

        def profile(u):
            return np.where((np.abs(u) > lo) & (np.abs(u) < hi), np.nan, ex1.profile(u))

        k = KernelSpec("convolution", 1, 1.0, ex1.w_mod, ex1.phi_mod, profile=profile)
        rep = kernel_condition_check(k, mode)
        assert rep.flagged and not (math.isfinite(rep.max_ratio)
                                    and math.isfinite(rep.growth_ratio))
        assert not kernel_condition_check(ex1, mode).flagged

    def test_ex1_2d_size_stable(self):
        k = parse_kernel("ex1:kappa=3", 2)
        plan = SamplePlan(n_r=24, n_h=6, n_base=2, n_dir=4)
        rep = kernel_condition_check(k, "size", plan)
        assert math.isfinite(rep.max_ratio)
        assert rep.growth_ratio <= 1.2


def _loop_max_ratio(k, mode, plan):
    """kernel_condition_check's max ratio and sample count, one sample at a
    time: x = b, y = b - r e (bilinear: y_i = b - r_i e_i), the increment
    hf * reach / 2 along the first direction, moving x (smooth_x) or the
    first y (smooth_y)."""
    rng = np.random.default_rng(plan.seed)
    bases = plan.bases(k.n, rng)
    dirs = plan.directions(k.n, rng)
    kernel = k.psi if k.kind == "bilinear" else k.two_point
    best, count = 0.0, 0
    for r_max in (plan.r_max, 10.0 * plan.r_max):
        rs = [float(r) for r in np.geomspace(plan.r_min, r_max, plan.n_r)]
        if k.kind == "bilinear":  # (points, separation, reach, envelope)
            samples = [((b, b - r1 * e1, b - r2 * e2), r1 + r2, max(r1, r2),
                        (1.0 + r1 + r2) ** (-2 * k.n) * k.w_mod(1.0 / (1.0 + r1 + r2)))
                       for b in bases for e1 in dirs for e2 in dirs for r1 in rs for r2 in rs]
        else:
            samples = [((b, b - r * e), r, r,
                        unit_cube_maximal(*np.abs(r * e)) * k.w_mod(1.0 / (1.0 + r)))
                       for b in bases for e in dirs for r in rs]
        for points, r, reach, env in samples:
            value = kernel(*np.concatenate(points))
            pairs = []
            if mode == "size":
                pairs.append((abs(value), env))
            else:
                i = 0 if mode == "smooth_x" else 1
                for hf in plan.h_fracs():
                    habs = hf * reach / 2.0
                    moved = list(points)
                    moved[i] = points[i] + habs * dirs[0]
                    pairs.append((abs(value - kernel(*np.concatenate(moved))),
                                  env * k.phi_mod(habs / (1.0 + r))))
            for num, den in pairs:
                count += 1
                best = max(best, float(num / den) if den > 0 else 0.0)
    return best, count


@pytest.mark.parametrize("spec, n", [("ex1:kappa=3", 1), ("ex1:kappa=3", 2), ("bi1:kappa=3", 1)])
@pytest.mark.parametrize("mode", ["size", "smooth_x", "smooth_y"])
def test_sampler_matches_per_sample_loop(spec, n, mode):
    k = parse_kernel(spec, n)
    plan = SamplePlan(n_r=5, n_h=3, n_dir=3, n_base=2, seed=3)
    rep = kernel_condition_check(k, mode, plan)
    best, count = _loop_max_ratio(k, mode, plan)
    assert rep.samples_checked == count
    assert rep.max_ratio == pytest.approx(best, rel=1e-12, abs=0.0)
