import itertools
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsq.errors import (
    DisjointnessError,
    GridError,
    ParameterError,
    ResolutionError,
)
from conftest import box, box_mask, dilate3, grid_box
from lpsq.grids import (
    GridFunction, build_cone, build_halfspace, cell_ranges, sample_function,
)
from lpsq.kernels import KernelSpec, bilinear_example_kernel, parse_kernel
from lpsq.moduli import power_modulus
from lpsq.operators import (
    SquareEvaluator,
    _window_max,
    g_star,
    g_star_cascade_bound,
    lerner_maximal,
    marcinkiewicz_fw,
    maximal,
    psi_t_apply,
    square_function,
    square_function_at,
    square_function_multi,
)


def _cell(g: GridFunction, x) -> tuple:
    """Index of the cell of g that holds the point x."""
    return tuple(int(i) for i in np.floor((np.atleast_1d(x) + g.R) / g.h))


@pytest.fixture(scope="module")
def hat():
    return sample_function(lambda x: np.maximum(0.0, 1.0 - np.abs(x)), 1, 4.0, 1.0 / 16)


class TestPsiT:
    def test_zero_input(self, ex1, gauss_grid):
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        out = psi_t_apply(ex1, z, 1.0)
        assert np.all(out.values == 0.0)

    def test_linearity(self, ex1, gauss_grid):
        u1 = psi_t_apply(ex1, gauss_grid, 1.0)
        u2 = psi_t_apply(ex1, gauss_grid.with_values(2.0 * gauss_grid.values), 1.0)
        rel = np.max(np.abs(u2.values - 2.0 * u1.values)) / np.max(np.abs(u1.values))
        assert rel <= 1e-12

    def test_fft_matches_direct(self, ex1, gauss_grid):
        d = psi_t_apply(ex1, gauss_grid, 0.7, method="direct")
        f = psi_t_apply(ex1, gauss_grid, 0.7, method="auto")
        rel = np.max(np.abs(d.values - f.values)) / np.max(np.abs(d.values))
        assert rel <= 1e-12

    def test_unknown_method_rejected(self, ex1, gauss_grid):
        with pytest.raises(ParameterError, match="unknown method"):
            psi_t_apply(ex1, gauss_grid, 0.7, method="fast")

    def test_fft_is_an_unknown_method(self, ex1, gauss_grid, cone_coarse):
        """"auto" is the FFT path on a profiled kernel; "fft" is no method."""
        for call in (lambda: psi_t_apply(ex1, gauss_grid, 0.7, method="fft"),
                     lambda: square_function(ex1, gauss_grid, cone_coarse, method="fft"),
                     lambda: SquareEvaluator.of(ex1, gauss_grid, cone_coarse, method="fft")):
            with pytest.raises(ParameterError, match="unknown method 'fft'"):
                call()

    def test_high_resolution_oracle(self, ex1):
        # direct fine-quadrature oracle evaluated at the same physical points
        f = sample_function(lambda x: np.exp(-(x**2)), 1, 8.0, 1.0 / 16)
        zfine = -8.0 + (np.arange(8 * 128) + 0.5) / 64.0
        ffine = np.exp(-(zfine**2))

        def oracle(xq):
            return float(np.sum(ex1.profile(xq - zfine) * ffine)) / 64.0

        u = psi_t_apply(ex1, f, 1.0)
        # at x = 0 (odd kernel, even input) the quadrature cancels exactly
        z = f.axis_centers()
        at_zero = float(np.sum(ex1.profile(0.0 - z) * f.values)) * f.h
        assert abs(at_zero) <= 1e-15
        assert abs(oracle(0.0)) <= 1e-15
        for xq in (1.03125, -2.46875):
            i = _cell(f, xq)[0]
            xc = float(f.axis_centers()[i])
            assert u.values[i] == pytest.approx(oracle(xc), rel=1e-4)

    def test_dilation_covariance(self, ex1):
        # psi_t f at x equals psi_1 applied to the t-dilated data at x/t
        t = 2.0
        f = sample_function(lambda x: np.exp(-(x**2)), 1, 8.0, 1.0 / 16)
        fd = sample_function(lambda x: np.exp(-((t * x) ** 2)), 1, 8.0 / t, 1.0 / 32)
        u = psi_t_apply(ex1, f, t)
        ud = psi_t_apply(ex1, fd, 1.0)
        # same Riemann sums term by term
        assert np.allclose(u.values, t ** (-0.0) * ud.values, rtol=1e-8, atol=1e-14)

    def test_grid_mismatch(self, gauss_grid):
        k = bilinear_example_kernel(3.0, 1)
        other = sample_function(lambda x: x, 1, 4.0, 1.0 / 16)
        with pytest.raises(GridError):
            psi_t_apply(k, (gauss_grid, other), 1.0)

    def test_bilinear_zero(self, gauss_grid):
        k = bilinear_example_kernel(3.0, 1)
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        out = psi_t_apply(k, (gauss_grid, z), 1.0)
        assert np.all(out.values == 0.0)

    def test_2d_fft_matches_direct(self):
        k = parse_kernel("ex1:kappa=3", 2)
        f = sample_function(lambda x, y: np.exp(-(x**2) - y**2), 2, 4.0, 1.0 / 4)
        d = psi_t_apply(k, f, 1.0, method="direct")
        ff = psi_t_apply(k, f, 1.0, method="auto")
        rel = np.max(np.abs(d.values - ff.values)) / np.max(np.abs(d.values))
        assert rel <= 1e-12


class TestSquareFunction:
    def test_zero(self, ex1, gauss_grid, cone_coarse):
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        assert np.all(square_function(ex1, z, cone_coarse).values == 0.0)

    def test_matches_pointwise_oracle(self, ex1, hat):
        cone = build_cone(1.0, 1, hat.h, 0.5, 2.0, 1)
        S = square_function(ex1, hat, cone)
        for x in (-1.03, 0.53125, 2.2):
            i = _cell(hat, x)[0]
            xc = hat.axis_centers()[i]
            direct = square_function_at(ex1, hat, np.array([xc]), cone)
            assert S.values[i] == pytest.approx(direct, abs=1e-10)

    def test_sublinear(self, ex1, cone_coarse, gauss_grid):
        rng = np.random.default_rng(5)
        f1 = gauss_grid.with_values(rng.standard_normal(gauss_grid.ncells))
        f2 = gauss_grid.with_values(rng.standard_normal(gauss_grid.ncells))
        s1 = square_function(ex1, f1, cone_coarse).values
        s2 = square_function(ex1, f2, cone_coarse).values
        s12 = square_function(
            ex1, f1.with_values(f1.values + f2.values), cone_coarse
        ).values
        assert np.max(s12 - s1 - s2) <= 1e-10

    def test_aperture_l2_identity(self, ex1, gauss_grid, cone_default):
        # padded output so every cone section is fully counted
        t_max = float(cone_default.t_levels[-1])
        pad_cells = int(math.ceil(4.0 * t_max / gauss_grid.h))
        out_R = gauss_grid.R + pad_cells * gauss_grid.h
        ss = square_function_multi(ex1, gauss_grid, cone_default, [1.0, 4.0],
                                   out_R=out_R)
        ratio = ss[4.0].norm_l2() ** 2 / ss[1.0].norm_l2() ** 2
        assert ratio == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("alphas, err", [
        ([], ParameterError), ([math.nan], ParameterError),
        ([1.0, math.inf], ParameterError), ([0.0], ResolutionError),
        ([-1.0], ResolutionError),
    ], ids=["empty", "nan", "inf", "zero", "negative"])
    def test_refuses_bad_aperture_lists(self, ex1, gauss_grid, cone_coarse, alphas, err):
        with pytest.raises(err):
            square_function_multi(ex1, gauss_grid, cone_coarse, alphas)

    def test_evaluator_matches_square_function(self, ex1, gauss_grid, cone_coarse):
        ev = SquareEvaluator(ex1, gauss_grid, cone_coarse)
        v1 = ev.eval_values(gauss_grid.values)
        v2 = square_function(ex1, gauss_grid, cone_coarse).values
        assert np.max(np.abs(v1 - v2)) <= 1e-12 * np.max(v2)

    def test_bilinear_zero_and_positive(self, gauss_grid):
        k = bilinear_example_kernel(3.0, 1)
        f = sample_function(lambda x: np.exp(-(x**2)), 1, 4.0, 1.0 / 8)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 4.0, 2)
        s = square_function(k, (f, f), cone)
        assert np.all(s.values >= 0.0)
        assert s.norm_linf() > 0.0

    def test_2d_square_function_runs(self):
        k = parse_kernel("ex1:kappa=3", 2)
        f = sample_function(lambda x, y: np.exp(-(x**2) - y**2), 2, 2.0, 1.0 / 8)
        cone = build_cone(1.0, 2, f.h, 2 * f.h, 2.0, 2)
        s = square_function(k, f, cone)
        assert np.all(np.isfinite(s.values)) and s.norm_linf() > 0

    def test_2d_matches_pointwise_oracle(self):
        k = parse_kernel("ex1:kappa=3", 2)
        f = sample_function(lambda x, y: np.exp(-(x**2) - y**2), 2, 2.0, 1.0 / 4)
        cone = build_cone(1.0, 2, f.h, 1.0, 2.0, 1)
        s = square_function(k, f, cone)
        i, j = _cell(f, (0.375, -0.625))
        c = f.axis_centers()
        direct = square_function_at(k, f, np.array([c[i], c[j]]), cone)
        assert s.values[i, j] == pytest.approx(direct, abs=1e-10)


class TestGStar:
    def test_zero(self, ex1, gauss_grid):
        hs = build_halfspace(1, gauss_grid.h, 2 * gauss_grid.h, 4.0, 2, gauss_grid.R)
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        assert np.all(g_star(ex1, z, 3.0, hs).values == 0.0)

    def test_lambda_threshold(self, ex1, gauss_grid):
        hs = build_halfspace(1, gauss_grid.h, 2 * gauss_grid.h, 4.0, 2, gauss_grid.R)
        with pytest.raises(ParameterError):
            g_star(ex1, gauss_grid, 2.0, hs)
        k2 = bilinear_example_kernel(3.0, 1)
        with pytest.raises(ParameterError):
            g_star(k2, (gauss_grid, gauss_grid), 3.0, hs)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_lambda_must_be_finite(self, ex1, gauss_grid, lam):
        hs = build_halfspace(1, gauss_grid.h, 2 * gauss_grid.h, 4.0, 2, gauss_grid.R)
        with pytest.raises(ParameterError, match="lambda"):
            g_star(ex1, gauss_grid, lam, hs)
        with pytest.raises(ParameterError, match="lambda"):
            g_star_cascade_bound(ex1, gauss_grid, lam, hs)

    def test_cone_lower_bound(self, ex1, gauss_grid):
        lam = 3.0
        hs = build_halfspace(1, gauss_grid.h, 2 * gauss_grid.h,
                             2 * gauss_grid.R, 4, gauss_grid.R)
        gs = g_star(ex1, gauss_grid, lam, hs)
        cone1 = build_cone(1.0, 1, gauss_grid.h, 2 * gauss_grid.h,
                           2 * gauss_grid.R, 4, max_radius=hs.max_radius)
        s1 = square_function(ex1, gauss_grid, cone1)
        slack = 2.0 ** (-lam / 2.0) * s1.values - gs.values
        assert np.max(slack) <= 1e-10

    def test_cascade_dominates(self, ex1, gauss_grid):
        lam = 3.0
        hs = build_halfspace(1, gauss_grid.h, 2 * gauss_grid.h,
                             2 * gauss_grid.R, 4, gauss_grid.R)
        gs = g_star(ex1, gauss_grid, lam, hs)
        cascade, _ = g_star_cascade_bound(ex1, gauss_grid, lam, hs)
        ratio = gs.values / np.maximum(cascade.values, 1e-300)
        assert np.max(ratio) <= 1.0 + 1e-10

    def test_cascade_refuses_uncapped_cone(self, monkeypatch):
        """An uncapped cone would pad each level by ~2^9 t / h cells
        (about 2 GB at 2-D N = 8); the refusal comes before any psi_t work."""
        import tracemalloc

        from lpsq import operators as ops

        k = parse_kernel("ex1:kappa=3", 2)
        f = sample_function(lambda x, y: np.exp(-(x**2) - y**2), 2, 2.0, 0.5)
        cone = build_cone(1.0, 2, f.h, 2 * f.h, 2 * f.R, 4)
        monkeypatch.setattr(ops, "square_function_multi", None)  # must not be reached
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="capped half-space"):
                g_star_cascade_bound(k, f, 5.0, cone)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMaximal:
    def test_constant(self):
        c = sample_function(lambda x: np.ones_like(x), 1, 2.0, 0.25)
        assert np.allclose(maximal(c, "hl").values, 1.0)

    def test_indicator_values(self):
        g = sample_function(lambda x: ((x >= 0) & (x < 1)).astype(float), 1, 8.0,
                            1.0 / 16)
        M = maximal(g, "hl")
        x2 = _cell(g, 2.0)[0]
        assert M.values[x2] == pytest.approx(0.5, abs=g.h)
        x6 = _cell(g, 6.0)[0]
        assert M.values[x6] == pytest.approx(1.0 / 6.0, abs=g.h)

    def test_dyadic_indicator(self):
        g = sample_function(lambda x: ((x >= 0) & (x < 1)).astype(float), 1, 8.0,
                            1.0 / 16)
        D = maximal(g, "dyadic")
        x15 = _cell(g, 1.5)[0]
        assert D.values[x15] == pytest.approx(0.5)  # best cube [0, 2)
        x3 = _cell(g, 3.0)[0]
        assert D.values[x3] == pytest.approx(0.25)  # best cube [0, 4)

    def test_hl_vs_brute(self):
        g = sample_function(
            lambda x: np.abs(np.sin(3 * x)) * np.exp(-0.3 * np.abs(x)), 1, 4.0, 1.0 / 8
        )
        M = maximal(g, "hl")
        a = np.abs(g.values)
        c = np.concatenate([[0.0], np.cumsum(a)])
        N = g.ncells
        for x in (-3.2, -1.0, 0.05, 1.7, 3.9):
            xi = _cell(g, x)[0]
            best = 0.0
            for L in range(1, N + 1):
                for p in range(max(0, xi - L + 1), min(xi, N - L) + 1):
                    best = max(best, (c[p + L] - c[p]) / L)
            assert M.values[xi] == pytest.approx(best, abs=1e-12)

    def test_dominates_f(self):
        rng = np.random.default_rng(8)
        g = GridFunction(1, 4.0, 1.0 / 8, rng.standard_normal(64))
        assert np.all(maximal(g, "hl").values >= np.abs(g.values) - 1e-14)

    def test_powered(self):
        """maximal has no "powered" variant: a ParameterError."""
        g = sample_function(lambda x: ((x >= 0) & (x < 1)).astype(float), 1, 4.0, 0.25)
        with pytest.raises(ParameterError, match="unknown maximal variant"):
            maximal(g, "powered")

    def test_2d_hl_vs_brute(self):
        g = sample_function(lambda x, y: np.exp(-((x - 0.3) ** 2) - 2 * y**2), 2,
                            2.0, 1.0 / 4)
        M = maximal(g, "hl")
        a = np.abs(g.values)
        N = g.ncells
        for (i, j) in ((0, 0), (7, 9), (15, 3), (8, 8)):
            best = 0.0
            for L in range(1, N + 1):
                for p in range(max(0, i - L + 1), min(i, N - L) + 1):
                    for q in range(max(0, j - L + 1), min(j, N - L) + 1):
                        best = max(best, a[p : p + L, q : q + L].sum() / L**2)
            assert M.values[i, j] == pytest.approx(best, abs=1e-12)

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=20)
    def test_sublinear_property(self, idx):
        rng = np.random.default_rng(123)
        v1 = rng.standard_normal(64)
        v2 = rng.standard_normal(64)
        g1 = GridFunction(1, 4.0, 1.0 / 8, v1)
        g2 = GridFunction(1, 4.0, 1.0 / 8, v2)
        g12 = GridFunction(1, 4.0, 1.0 / 8, v1 + v2)
        m = maximal(g12, "hl").values[idx]
        assert m <= maximal(g1, "hl").values[idx] + maximal(g2, "hl").values[idx] + 1e-12


class TestLernerMaximal:
    def test_zero(self, ex1, cone_coarse, gauss_grid):
        z = gauss_grid.with_values(np.zeros_like(gauss_grid.values))
        out = lerner_maximal(ex1, z, cone_coarse, "M_S", [grid_box(gauss_grid)])
        assert np.all(out.values == 0.0)

    def test_ms_arithmetic_bound(self, ex1, cone_coarse, gauss_grid):
        """M_S <= 2 sqrt(N_S (N_S + S)), N_S f(x) the sup over the pool
        cubes Q containing x of S(f 1_{outside 3Q})(x)."""
        rng = np.random.default_rng(3)
        f = gauss_grid.with_values(rng.uniform(-1, 1, gauss_grid.ncells))
        pool = [box((a,), (a + w,)) for a, w in
                [(-8.0, 16.0), (-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0), (1.0, 2.0)]]
        ms = lerner_maximal(ex1, f, cone_coarse, "M_S", pool)
        ns = np.full(f.ncells, -np.inf)
        for q in pool:
            outside = 1.0 - box_mask(f, dilate3(q), snap_outward=True)
            s_out = square_function(ex1, f.with_values(f.values * outside), cone_coarse)
            sel = box_mask(f, q).astype(bool)
            ns[sel] = np.maximum(ns[sel], s_out.values[sel])
        s = square_function(ex1, f, cone_coarse)
        bound = 2.0 * np.sqrt(ns * (ns + s.values))
        assert np.max(ms.values - bound) <= 1e-9

    def test_other_variant_is_parameter_error(self, ex1, cone_coarse, gauss_grid):
        for variant in ("N_S", "m_s", None):
            with pytest.raises(ParameterError, match="M_S"):
                lerner_maximal(ex1, gauss_grid, cone_coarse, variant, [grid_box(gauss_grid)])

    def test_domain_defaults_to_own_box(self, ex1, cone_coarse, gauss_grid):
        """domain=None is f's box: the same bits, and the same coverage rule."""
        from lpsq.errors import CoverageError

        rng = np.random.default_rng(4)
        f = gauss_grid.with_values(rng.uniform(-1, 1, gauss_grid.ncells))
        pool = [grid_box(f), box((-2.0,), (2.0,)), box((0.0,), (1.0,))]
        for m in (None, "direct"):
            own, boxed = (lerner_maximal(ex1, f, cone_coarse, "M_S", pool, method=m,
                                         domain=d).values for d in (None, grid_box(f)))
            assert np.array_equal(own, boxed)
        for d in (None, grid_box(f)):
            with pytest.raises(CoverageError, match="domain cells"):
                lerner_maximal(ex1, f, cone_coarse, "M_S", pool[1:], domain=d)

    def test_coverage_error(self, ex1, cone_coarse, gauss_grid):
        from lpsq.errors import CoverageError

        pool = [box((0.0,), (1.0,))]  # leaves most of the box uncovered
        with pytest.raises(CoverageError):
            lerner_maximal(ex1, gauss_grid, cone_coarse, "M_S", pool)


class TestMarcinkiewicz:
    GRID = sample_function(lambda x: np.zeros_like(x), 1, 2.0, 0.5)  # centers +-0.25, ...

    def test_empty(self):
        w = power_modulus(1.0)
        assert np.all(marcinkiewicz_fw(w, [], self.GRID).values == 0.0)

    def test_single_cube_center(self):
        w = power_modulus(1.0)
        F = marcinkiewicz_fw(w, [((0.25,), 1.0, 1.0)], self.GRID)
        assert F.values[list(self.GRID.axis_centers()).index(0.25)] == pytest.approx(1.0)

    def test_overlap_rejected(self):
        w = power_modulus(1.0)
        with pytest.raises(DisjointnessError):
            marcinkiewicz_fw(w, [((0.0,), 1.0, 1.0), ((1.5,), 1.0, 1.0)], self.GRID)

    def test_l2_bound_fitted(self):
        w = power_modulus(1.0)
        grid = sample_function(lambda x: np.zeros_like(x), 1, 8.0, 1.0 / 8)
        rng = np.random.default_rng(11)
        cs = []
        for _ in range(20):
            cubes = []
            tries = 0
            while len(cubes) < 12 and tries < 4000:
                tries += 1
                r = float(rng.uniform(0.05, 0.4))
                c = (float(rng.uniform(-7.0, 7.0)),)
                lam = float(rng.uniform(0.1, 2.0))
                if all(abs(c[0] - c2[0]) >= r + r2 for c2, r2, _ in cubes):
                    cubes.append((c, r, lam))
            F = marcinkiewicz_fw(w, cubes, grid=grid)
            lhs = F.norm_l2() ** 2
            rhs = sum(lam**2 * 2 * r for _, r, lam in cubes)
            cs.append(lhs / rhs)
        assert max(cs) / np.median(cs) <= 4.0


def _spikes(rng, n, R, h):
    """8 signed spikes (|a| in [1, 50]) on 0.01 noise."""
    N = int(round(2 * R / h))
    vals = 0.01 * rng.standard_normal((N,) * n)
    for cell, a in zip(rng.integers(0, N, size=(8, n)),
                       rng.uniform(1, 50, 8) * rng.choice([-1.0, 1.0], 8)):
        vals[tuple(cell)] += a
    return GridFunction(n, R, h, vals)


class TestBoxRange:
    def test_one_shape_same_count_everywhere_at_h_tenth(self):
        g = GridFunction(1, 4.0, 0.1, np.zeros(80))
        for snap, want in ((False, 5), (True, 6)):
            boxes = []
            for m in range(10, 60):  # interior, lattice-aligned boxes
                lo = -4.0 + 0.1 * m
                boxes.append(box((lo,), (lo + 0.5,)))
            i0, i1 = cell_ranges(g, boxes, snap_outward=snap)
            assert set((i1 - i0)[:, 0].tolist()) == {want}

    def test_dyadic_h_matches_center_rule(self):
        g = GridFunction(1, 4.0, 1.0 / 8, np.zeros(64))
        c = g.axis_centers()
        rng = np.random.default_rng(0)
        boxes = [box((a,), (a + w,)) for a, w in
                 zip(rng.integers(-40, 40, 60) / 8.0, rng.integers(1, 24, 60) / 8.0)]
        boxes += [dilate3(b) for b in boxes]
        for b in boxes:
            for snap in (False, True):
                eps = g.h / 2 if snap else 0.0
                want = ((c >= b[0][0] - eps) & (c < b[1][0] + eps)).astype(float)
                assert np.array_equal(box_mask(g, b, snap), want)


def _force_path(monkeypatch, gram: bool):
    """Force the path choice of `SquareEvaluator.lerner_values` through its
    model: with ``gram`` every table costs nothing and the Gram form
    nothing, so the table grows to the largest side that some group needs
    (4 side <= N); without, the Gram form costs more than any saving, so
    no table grows."""
    from lpsq import operators as ops

    monkeypatch.setattr(ops, "_gram_cost", lambda key, nb: 0.0 if gram else math.inf)
    monkeypatch.setattr(SquareEvaluator, "_table_cost", lambda self, side: 0.0)


def _pool_loop(cone):
    """A stand-in for `SquareEvaluator.lerner_values` that runs the per-cube
    oracle `_lerner_pool_loop` on the same cells."""
    from lpsq import operators as ops

    return lambda ev, values, cells: ops._lerner_pool_loop(
        ev.k, ev.template.with_values(values), cone, cells, None)


class TestLernerBatched:
    """The batched M_S path in 1-D against the per-cube pool loop, and
    what n = 1 and n = 2 share."""

    @staticmethod
    def _pair(monkeypatch, k, f, cone, variant, pool, domain=None):
        batched = SquareEvaluator.lerner_values
        calls = []
        with monkeypatch.context() as m:
            m.setattr(SquareEvaluator, "lerner_values",
                      lambda *a: calls.append(1) or batched(*a))
            fast = lerner_maximal(k, f, cone, variant, pool, domain=domain).values
        assert calls  # the batched path ran
        with monkeypatch.context() as m:
            m.setattr(SquareEvaluator, "lerner_values", _pool_loop(cone))
            slow = lerner_maximal(k, f, cone, variant, pool, domain=domain).values
        return fast, slow

    @staticmethod
    def _close(fast, slow, tol=1e-10):
        assert np.max(np.abs(fast - slow)) <= tol * max(np.max(np.abs(slow)), 1e-300)

    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("variant", ["M_S"])
    def test_dyadic_pool_with_and_without_domain(self, monkeypatch, ex1, chunk,
                                                 variant):
        from lpsq import operators as ops
        from lpsq.dyadic import Cube, dyadic_cube_pool

        if chunk is not None:  # several row chunks and cube sub-batches
            monkeypatch.setattr(ops, "_LERNER_CHUNK", chunk)
        rng = np.random.default_rng(11)
        f = GridFunction(1, 4.0, 1.0 / 16, rng.standard_normal(128))
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        root = Cube(1, 1, (0,), "standard", 2 * f.R)
        pool = dyadic_cube_pool(root, f)
        self._close(*self._pair(monkeypatch, ex1, f, cone, variant, pool,
                                domain=root.box()))
        whole = np.concatenate([dyadic_cube_pool(Cube(1, 0, (a,), "standard", 2 * f.R), f)
                                for a in (-1, 0)])
        self._close(*self._pair(monkeypatch, ex1, f, cone, variant, whole))

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_arbitrary_boxes(self, monkeypatch, ex1, cone_coarse, gauss_grid,
                             variant):
        rng = np.random.default_rng(3)
        f = gauss_grid.with_values(rng.uniform(-1, 1, gauss_grid.ncells))
        five = [box((a,), (a + w,)) for a, w in
                [(-8.0, 16.0), (-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0), (1.0, 2.0)]]
        self._close(*self._pair(monkeypatch, ex1, f, cone_coarse, variant, five))
        # off-lattice boxes, several of one shape, some sticking out of the grid
        lo = rng.uniform(-9.0, 7.0, 40)
        odd = [box((a,), (a + w,)) for a, w in zip(lo, rng.choice([0.3, 1.7], 40))]
        self._close(*self._pair(monkeypatch, ex1, f, cone_coarse, variant,
                                five + odd))

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_exact_zero_where_3q_covers_support(self, ex1, variant):
        rng = np.random.default_rng(5)
        c = (np.arange(128) + 0.5) / 16 - 4.0
        vals = np.where(np.abs(c) < 1.0, rng.standard_normal(128), 0.0)
        f = GridFunction(1, 4.0, 1.0 / 16, vals)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        q = box((-0.5,), (0.5,))  # 3Q = [-1.5, 1.5) holds supp f
        out = lerner_maximal(ex1, f, cone, variant, [q], domain=q)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_zero_input(self, ex1, cone_coarse, gauss_grid, variant):
        from lpsq.dyadic import Cube, dyadic_cube_pool

        z = gauss_grid.with_values(np.zeros(gauss_grid.ncells))
        root = Cube(1, 1, (0,), "standard", 2 * z.R)
        out = lerner_maximal(ex1, z, cone_coarse, variant,
                             dyadic_cube_pool(root, z), domain=root.box())
        assert np.all(out.values == 0.0)

    def test_matches_direct_oracle(self, ex1):
        from lpsq.dyadic import Cube, dyadic_cube_pool

        f = _spikes(np.random.default_rng(7), 1, 4.0, 0.25)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        root = Cube(1, 1, (0,), "standard", 2 * f.R)
        pool = dyadic_cube_pool(root, f)
        fast, direct = (lerner_maximal(ex1, f, cone, "M_S", pool, method=m,
                                       domain=root.box()).values
                        for m in ("auto", "direct"))
        self._close(fast, direct)

    def test_shared_evaluator(self, monkeypatch):
        """M_S through a kernel whose layout plan is warm (a Gram table
        that an earlier call grew, and the block spectra of other shapes)
        and through a freshly parsed kernel both match the pool loop to
        1e-10; the table side that served a group may differ, so the bits
        may.  Off the fast path the two are the same bits."""
        from lpsq.dyadic import Cube, dyadic_cube_pool

        for n, f in ((1, _spikes(np.random.default_rng(9), 1, 2.0, 1.0 / 16)),
                     (2, _spikes(np.random.default_rng(9), 2, 2.0, 0.5))):
            k = parse_kernel("ex1:kappa=3", n)
            cone = build_cone(1.0, f.n, f.h, 2 * f.h, 2 * f.R, 4)
            root = Cube(f.n, 1, (0,) * f.n, "standard", 2 * f.R)
            pool = dyadic_cube_pool(root, f)
            masked = f.with_values(f.values * (f.values > 0))
            child = Cube(f.n, 2, (0,) * f.n, "standard", 2 * f.R)
            for m in (None, "direct"):
                lerner_maximal(k, f, cone, "M_S", dyadic_cube_pool(child, f),
                               method=m, domain=child.box())
                if m is None:
                    assert SquareEvaluator.of(k, f, cone).gram_side() > 0
                warm, fresh = (lerner_maximal(kk, masked, cone, "M_S", pool,
                                              method=m, domain=root.box()).values
                               for kk in (k, parse_kernel("ex1:kappa=3", n)))
                if m == "direct":
                    assert np.array_equal(warm, fresh)
                    continue
                with monkeypatch.context() as mp:
                    mp.setattr(SquareEvaluator, "lerner_values", _pool_loop(cone))
                    slow = lerner_maximal(k, masked, cone, "M_S", pool,
                                          domain=root.box()).values
                self._close(warm, slow)
                self._close(fresh, slow)

    @pytest.mark.parametrize("n", [1, 2])
    def test_sparse_construct_takes_batched_path(self, monkeypatch, n):
        from lpsq import operators as ops
        from lpsq.dyadic import Cube, sparse_construct

        calls = []
        batched = SquareEvaluator.lerner_values
        monkeypatch.setattr(SquareEvaluator, "lerner_values",
                            lambda *a: calls.append(1) or batched(*a))
        monkeypatch.setattr(ops, "_lerner_pool_loop", None)  # never reached
        k = parse_kernel("ex1:kappa=3", n)
        f = _spikes(np.random.default_rng(1), n, 4.0, 0.5 if n == 2 else 1.0 / 16)
        cone = build_cone(1.0, n, f.h, 2 * f.h, 2 * f.R, 4)
        sparse_construct(k, f, Cube(n, 1, (0,) * n, "standard", 2 * f.R), 1.0, cone)
        assert calls


class TestLernerPlan:
    """The transforms and profile samples of one batched Lerner call, with
    every group on the FFT path (forced through the path choice,
    `_force_path`) and a small chunk."""

    @pytest.mark.parametrize("variant", ["M_S"])
    @pytest.mark.parametrize("n, N", [(1, 128), (2, 16)])
    def test_one_window_transform_per_length_and_chunk(self, monkeypatch, n, N, variant):
        from dataclasses import replace

        from lpsq import operators as ops
        from lpsq.dyadic import Cube, dyadic_cube_pool

        chunk = 512
        monkeypatch.setattr(ops, "_LERNER_CHUNK", chunk)
        k0, f, cone = TestLernerGram._setup(n, N, 21)
        profiles = []
        k = replace(k0, profile=lambda *a: profiles.append(1) or k0.profile(*a))
        root = Cube(n, 1, (0,) * n, "standard", 2 * f.R)
        pool = dyadic_cube_pool(root, f)
        ev = SquareEvaluator.of(k, f, cone)
        _force_path(monkeypatch, gram=False)
        # per shape key: one window rfftn per (FFT length, chunk of cubes),
        # one block rfftn per level; level_values: one per distinct length
        windows = 0
        groups = ops._lerner_groups(f.values, ops._pool_cells(f, pool),
                                    np.full(f.values.shape, -np.inf))
        for key, (I, _) in groups.items():
            Ps = [tuple(1 << (a + s + 2 * lv.K - 2).bit_length() for a, s, _ in key)
                  for lv in ev.levels]
            assert Ps == sorted(Ps) and len(set(Ps)) < len(Ps)
            windows += sum(-(-len(I) // max(1, chunk // math.prod(P))) for P in set(Ps))
        blocks = len(groups) * len(ev.levels) + len({lv.nfft for lv in ev.levels})
        ndims, rfftn = [], np.fft.rfftn
        profiles.clear()
        with monkeypatch.context() as m:
            m.setattr(np.fft, "rfftn", lambda x, *a, **kw: ndims.append(np.ndim(x))
                      or rfftn(x, *a, **kw))
            fast = lerner_maximal(k, f, cone, variant, pool, domain=root.box()).values
        assert (ndims.count(n + 1), ndims.count(n), len(ndims)) == (
            windows, blocks, windows + blocks)
        # the block spectra are cut from the samples the evaluator kept
        assert len(profiles) == 0
        # warm: no profile sample and no block transform, and the S f^2
        # just held is taken again
        ndims.clear()
        profiles.clear()
        with monkeypatch.context() as m:
            m.setattr(np.fft, "rfftn", lambda x, *a, **kw: ndims.append(np.ndim(x))
                      or rfftn(x, *a, **kw))
            again = lerner_maximal(k, f, cone, variant, pool, domain=root.box()).values
        assert (ndims.count(n + 1), len(ndims), len(profiles)) == (windows, windows, 0)
        assert np.array_equal(again, fast)
        with monkeypatch.context() as m:
            m.setattr(SquareEvaluator, "lerner_values", _pool_loop(cone))
            slow = lerner_maximal(k0, f, cone, variant, pool, domain=root.box()).values
        TestLernerBatched._close(fast, slow)


class TestLernerBatched2D:
    """The batched 2-D M_S path against the per-cube pool loop."""

    _pair = staticmethod(TestLernerBatched._pair)
    _close = staticmethod(TestLernerBatched._close)

    @staticmethod
    def _setup(N, seed, R=4.0):
        k = parse_kernel("ex1:kappa=3", 2)
        h = 2 * R / N
        f = GridFunction(2, R, h, np.random.default_rng(seed).standard_normal((N, N)))
        return k, f, build_cone(1.0, 2, h, 2 * h, 2 * R, 4)

    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("variant", ["M_S"])
    def test_dyadic_pool_with_and_without_domain(self, monkeypatch, chunk, variant):
        from lpsq import operators as ops
        from lpsq.dyadic import Cube, dyadic_cube_pool

        if chunk is not None:  # 1-4 cubes per FFT batch, several batches per group
            monkeypatch.setattr(ops, "_LERNER_CHUNK", chunk)
        k, f, cone = self._setup(16, 11)
        root = Cube(2, 1, (0, 0), "standard", 2 * f.R)
        self._close(*self._pair(monkeypatch, k, f, cone, variant,
                                dyadic_cube_pool(root, f), domain=root.box()))
        k, f, cone = self._setup(8, 13)
        whole = [b for a in ((-1, -1), (-1, 0), (0, -1), (0, 0))
                 for b in dyadic_cube_pool(Cube(2, 0, a, "standard", 2 * f.R), f)]
        self._close(*self._pair(monkeypatch, k, f, cone, variant, whole))

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_arbitrary_boxes(self, monkeypatch, variant):
        k, f, cone = self._setup(16, 3)
        fixed = [box((-2.0, 0.0), (0.0, 2.0)), box((1.0, -3.0), (2.0, -2.0))]
        # off-lattice cubes, several of one shape, some sticking out of the
        # grid: on both sides, then only on the low side
        rng = np.random.default_rng(3)
        for cover, lo_range in ((box((-5.0, -5.0), (5.0, 5.0)), (-5.0, 4.0)),
                                (box((-4.0, -4.0), (4.0, 4.0)), (-5.5, 2.5))):
            lo = rng.uniform(*lo_range, (30, 2))
            side = rng.choice([0.3, 1.7], (30, 1))
            odd = [box(tuple(a), tuple(a + w)) for a, w in zip(lo, side)]
            self._close(*self._pair(monkeypatch, k, f, cone, variant,
                                    [cover] + fixed + odd))

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_exact_zero_where_3q_covers_support(self, variant):
        k, f, cone = self._setup(16, 5)
        c = f.axis_centers()
        inside = (np.abs(c)[:, None] < 1.0) & (np.abs(c)[None, :] < 1.0)
        f = f.with_values(np.where(inside, f.values, 0.0))
        q = box((-0.5, -0.5), (0.5, 0.5))  # 3Q = [-1.5, 1.5)^2 holds supp f
        out = lerner_maximal(k, f, cone, variant, [q], domain=q)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_one_cell_past_3q_is_not_zero(self, monkeypatch, variant):
        k, f, cone = self._setup(16, 5)
        q = box((-0.5, -0.5), (0.5, 0.5))
        (i0, j0), (i1, j1) = (r[0] for r in cell_ranges(f, [q], dilate=True,
                                                         snap_outward=True))
        vals = np.zeros_like(f.values)
        vals[i0:i1, j0:j1] = f.values[i0:i1, j0:j1]
        vals[i1, j1 - 1] = 1.0  # the one cell of supp f outside 3Q
        fast, slow = self._pair(monkeypatch, k, f.with_values(vals), cone, variant,
                                [q], domain=q)
        self._close(fast, slow)
        assert np.max(slow) > 0.0

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_zero_input(self, variant):
        from lpsq.dyadic import Cube, dyadic_cube_pool

        k, f, cone = self._setup(16, 0)
        z = f.with_values(np.zeros_like(f.values))
        root = Cube(2, 1, (0, 0), "standard", 2 * z.R)
        out = lerner_maximal(k, z, cone, variant, dyadic_cube_pool(root, z),
                             domain=root.box())
        assert np.all(out.values == 0.0)

    def test_matches_direct_oracle(self):
        from lpsq.dyadic import Cube, dyadic_cube_pool

        k = parse_kernel("ex1:kappa=3", 2)
        f = _spikes(np.random.default_rng(7), 2, 4.0, 1.0)  # 8 x 8
        cone = build_cone(1.0, 2, f.h, 2 * f.h, 2 * f.R, 4)
        root = Cube(2, 1, (0, 0), "standard", 2 * f.R)
        pool = dyadic_cube_pool(root, f)
        fast, direct = (lerner_maximal(k, f, cone, "M_S", pool, method=m,
                                       domain=root.box()).values
                        for m in ("auto", "direct"))
        self._close(fast, direct)


class TestLernerGram:
    """The level-summed Gram form of the batched M_S against the per-cube
    pool loop, each branch forced through the path choice (`_force_path`),
    and the choice itself."""

    @staticmethod
    def _setup(n, N, seed, R=4.0):
        k = parse_kernel("ex1:kappa=3", n)
        h = 2 * R / N
        f = GridFunction(n, R, h, np.random.default_rng(seed).standard_normal((N,) * n))
        return k, f, build_cone(1.0, n, h, 2 * h, 2 * R, 4)

    @staticmethod
    def _forced(monkeypatch, k, f, cone, pool, gram, domain=None):
        """M_S with the Gram form forced on or off (`_force_path`), the
        shape keys that took the Gram form, and the pool-loop oracle."""
        from dataclasses import replace

        from lpsq import operators as ops

        k = replace(k)  # a kernel object of its own, so the plan is cold
        keys = []
        gram_form = ops._gram_form
        with monkeypatch.context() as m:
            _force_path(m, gram)
            m.setattr(ops, "_gram_form",
                      lambda ev, key, *a: keys.append(key) or gram_form(ev, key, *a))
            fast = lerner_maximal(k, f, cone, "M_S", pool, domain=domain).values
        with monkeypatch.context() as m:
            m.setattr(SquareEvaluator, "lerner_values", _pool_loop(cone))
            slow = lerner_maximal(k, f, cone, "M_S", pool, domain=domain).values
        return fast, keys, slow

    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("n, N, large", [(1, 128, 32), (2, 16, 4)])
    def test_dyadic_pool_both_branches(self, monkeypatch, chunk, n, N, large):
        from lpsq import operators as ops
        from lpsq.dyadic import Cube, dyadic_cube_pool

        if chunk is not None:  # several e rows and cube chunks per group
            monkeypatch.setattr(ops, "_LERNER_CHUNK", chunk)
        k, f, cone = self._setup(n, N, 11)
        root = Cube(n, 1, (0,) * n, "standard", 2 * f.R)
        k, g, g_cone = self._setup(n, N // 2, 13)
        whole = [b for a in np.ndindex((2,) * n)
                 for b in dyadic_cube_pool(Cube(n, 0, tuple(x - 1 for x in a), "standard",
                                                2 * g.R), g)]
        for f, cone, pool, domain in ((f, cone, dyadic_cube_pool(root, f), root.box()),
                                      (g, g_cone, whole, None)):
            for gram in (False, True):
                fast, keys, slow = self._forced(monkeypatch, k, f, cone, pool, gram, domain)
                TestLernerBatched._close(fast, slow)
                sides = {s for key in keys for _, s, _ in key}
                top = large * f.ncells // N  # the largest side, N / 4
                assert {1, 2} <= sides <= set(range(1, top + 1)) if gram else not keys
                assert not gram or top < 3 or 3 in sides

    @pytest.mark.parametrize("n", [1, 2])
    def test_off_lattice_and_out_of_table_shapes(self, monkeypatch, n):
        from lpsq.operators import _gram_side, _lerner_groups, _pool_cells

        k, f, cone = self._setup(n, 32 if n == 1 else 16, 3)
        rng = np.random.default_rng(3)
        lo = rng.uniform(-5.0, 4.0, (40, n))
        sides = rng.choice([0.3, 0.7, 1.7], (40, 1))
        odd = [box(tuple(a), tuple(a + w)) for a, w in zip(lo, sides)]
        # Q clipped at the grid edge: 3Q reaches past the table's offsets
        edge = [box((-4.5,) * n, (-3.5,) * n), box((3.25,) * n, (4.25,) * n)]
        pool = [grid_box(f)] + odd + edge
        fast, keys, slow = self._forced(monkeypatch, k, f, cone, pool, True)
        TestLernerBatched._close(fast, slow)
        groups = _lerner_groups(f.values, _pool_cells(f, pool),
                                np.full(f.values.shape, -np.inf))
        # off-lattice and clipped shapes need a table wider than their Q
        wide = [key for key in keys if _gram_side(key) > max(s for _, s, _ in key)]
        assert wide
        assert {key for key in groups if 4 * _gram_side(key) <= f.ncells} == set(keys)

    def test_covered_call_grows_nothing(self, monkeypatch):
        """After a full-pool call has grown the table, a call whose groups
        it covers builds no table and samples no profile, and matches the
        pool loop."""
        from dataclasses import replace

        from lpsq.dyadic import Cube, dyadic_cube_pool

        k0, f, cone = self._setup(1, 128, 11)
        profiles = []
        k = replace(k0, profile=lambda *a: profiles.append(1) or k0.profile(*a))
        root = Cube(1, 1, (0,), "standard", 2 * f.R)
        pool = dyadic_cube_pool(root, f)
        lerner_maximal(k, f, cone, "M_S", pool, domain=root.box())
        ev = SquareEvaluator.of(k, f, cone)
        side, table = ev.gram_side(), ev._gram
        assert side > 0
        # the dyadic cubes of at most `side` cells, whose keys need that side
        small = [b for b in pool if (b[1][0] - b[0][0]) / f.h <= side]
        g = f.with_values(np.random.default_rng(12).standard_normal(f.values.shape))
        profiles.clear()
        fast = lerner_maximal(k, g, cone, "M_S", small, domain=root.box()).values
        assert profiles == [] and ev._gram is table
        with monkeypatch.context() as m:
            m.setattr(SquareEvaluator, "lerner_values", _pool_loop(cone))
            slow = lerner_maximal(k0, g, cone, "M_S", small, domain=root.box()).values
        TestLernerBatched._close(fast, slow)

    def test_full_pool_grows_where_sparse_does_not(self):
        """On one layout the full dyadic pool holds many cubes per shape and
        grows the table further than the pruned pools of `sparse_construct`,
        which keep a few."""
        from lpsq.dyadic import Cube, dyadic_cube_pool, sparse_construct

        f = _spikes(np.random.default_rng(0), 1, 8.0, 1.0 / 8)  # N = 128
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        root = Cube(1, 1, (0,), "standard", 2 * f.R)
        sides = []
        for run in ("sparse", "full"):
            k = parse_kernel("ex1:kappa=3", 1)
            if run == "sparse":
                sparse_construct(k, f, root, 1.0, cone)
            else:
                lerner_maximal(k, f, cone, "M_S", dyadic_cube_pool(root, f), domain=root.box())
            sides.append(SquareEvaluator.of(k, f, cone).gram_side())
        assert 0 < sides[0] < sides[1] <= f.ncells // 4

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_zero(self, monkeypatch, n):
        k, f, cone = self._setup(n, 32 if n == 1 else 16, 5)
        c = f.axis_centers()
        inside = np.all(np.abs(np.stack(np.meshgrid(*(c,) * n, indexing="ij"))) < 1.0, axis=0)
        g = f.with_values(np.where(inside, f.values, 0.0))
        q = box((-0.5,) * n, (0.5,) * n)  # 3Q = [-1.5, 1.5)^n holds supp g
        z = f.with_values(np.zeros_like(f.values))
        for h, pool in ((g, [q]), (z, [grid_box(f), q])):
            fast, _, _ = self._forced(monkeypatch, k, h, cone, pool, True, domain=q)
            assert np.all(fast == 0.0)

    @pytest.mark.parametrize("rows", [256, 7])
    @pytest.mark.parametrize("sides", [(1,), (2,), (1, 2)])
    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_gram_table_matches_explicit_sums(self, monkeypatch, n, N, sides, rows):
        """A[p, q] = sum_j meas_j sum_{m in D_j} k_j(m + p) k_j(m + q), with
        D_j the level's `ConeGrid.stencil`, summed offset by offset: built
        at one side, or grown from a smaller one, in panels of 256 rows
        (the least that `_GRAM_PANEL` allows) or of 7 rows; both straddle
        stencil rows."""
        from lpsq import operators as ops

        k, f, cone = self._setup(n, N, 0)
        monkeypatch.setattr(ops, "_GRAM_PANEL", rows)
        monkeypatch.setattr(ops, "_LERNER_CHUNK", rows)
        ev = SquareEvaluator(k, f, cone)
        total = sum(lv.size for lv in ev.levels)
        # several panels, the last one part full, and a panel edge inside
        # a stencil row
        ends = set(np.cumsum([2 * rx + 1 for lv in ev.levels for _, rx in lv.disc]).tolist())
        assert total > rows and total % rows
        assert any(e not in ends for e in range(rows, total, rows))
        for side in sides:
            A, lo, P = ev.gram_table(side)
        assert ev.gram_side() == sides[-1] and ev.gram_table(1)[0] is A
        assert (lo, P) == (1 - 2 * sides[-1], 4 * sides[-1])
        p = np.stack(np.meshgrid(*(np.arange(lo, lo + P),) * n, indexing="ij"),
                     axis=-1).reshape(-1, n)
        want = np.zeros((P**n, P**n))
        for j, t in enumerate(cone.t_levels):
            scale = (f.h / t) ** n
            for m in cone.stencil(j).reshape(-1, n):
                kv = k.profile(*((m + p) * f.h / t).T) * scale
                want += scale * cone.log_weight * np.outer(kv, kv)
        assert np.max(np.abs(A - want)) <= 1e-13 * np.max(np.abs(want))

    def test_sparse_construct_takes_gram_for_small_cubes(self, monkeypatch):
        """Gram dispatch inside sparse_construct, on the full pool: the
        pruning is kept out, since on this input it drops every box small
        enough for the Gram form."""
        from lpsq import dyadic
        from lpsq import operators as ops
        from lpsq.dyadic import Cube, sparse_construct

        seen = []
        gram = ops._gram_form
        monkeypatch.setattr(ops, "_gram_form", lambda ev, key, *a: seen.append(
            (ev.gram_side(), key)) or gram(ev, key, *a))
        monkeypatch.setattr(dyadic, "_lerner_keep", lambda floc, cells, gain, thr0:
                            np.ones(len(cells[0]), dtype=bool))
        k = parse_kernel("ex1:kappa=3", 2)
        f = _spikes(np.random.default_rng(1), 2, 4.0, 0.5)  # 16 x 16
        cone = build_cone(1.0, 2, f.h, 2 * f.h, 2 * f.R, 4)
        sparse_construct(k, f, Cube(2, 1, (0, 0), "standard", 2 * f.R), 1.0, cone)
        assert {side for side, _ in seen} == {3}
        assert {s for _, key in seen for _, s, _ in key} == {1, 2, 3}


class TestBoxSquareSum:
    """`SquareEvaluator.box_square_sum` against `square_sum` cropped to the
    box on each of its routes, and the level samples that grow for a wide
    user box."""

    @staticmethod
    def _boxes(f):
        """A box inside the grid and one at its corner, whose 3B runs past
        the edge, of 4 cells per axis in 1-D and 2 in 2-D."""
        s = (4 if f.n == 1 else 2) * f.h
        return [box((s,) * f.n, (2 * s,) * f.n), box((-f.R,) * f.n, (s - f.R,) * f.n)]

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_every_route_equals_square_sum(self, monkeypatch, n, N):
        from lpsq import operators as ops

        k, f, cone = TestLernerGram._setup(n, N, 5)
        forms = []
        gram_form = ops._gram_form
        monkeypatch.setattr(ops, "_gram_form", lambda *a: forms.append(1) or gram_form(*a))
        for b in self._boxes(f):
            row = tuple(c[0] for c in ops._pool_cells(f, [b]))
            i0, i1, j0, j1 = (c.tolist() for c in row)
            w3 = tuple(slice(max(a, 0), min(z, N)) for a, z in zip(i0, i1))
            inner = tuple(slice(max(a, 0), min(z, N)) for a, z in zip(j0, j1))
            assert any(a < 0 for a in i0) == (b[0][0] < 0)
            g = np.zeros_like(f.values)
            g[w3] = f.values[w3]
            ref = SquareEvaluator(k, f, cone).square_sum(g)[inner]
            key = tuple(zip(np.subtract(i1, i0).tolist(), np.subtract(j1, j0).tolist(),
                            np.subtract(j0, i0).tolist()))
            # held: the S f^2 just taken
            ev = SquareEvaluator(k, f, cone)
            ev.square_sum(g)
            forms.clear()
            assert np.array_equal(ev.box_square_sum(g, row), ref) and forms == []
            # Gram: the held table covers the key, and no square_sum runs
            ev = SquareEvaluator(k, f, cone)
            ev.gram_table(ops._gram_side(key))
            with monkeypatch.context() as m:
                m.setattr(SquareEvaluator, "square_sum", None)
                got = ev.box_square_sum(g, row)
            assert forms == [1] and got.shape == ref.shape and np.all(got >= 0)
            TestLernerBatched._close(got, ref, tol=1e-12)
            # fallback: values that do not vanish off 3B, and no table
            forms.clear()
            assert np.array_equal(ev.box_square_sum(f.values, row),
                                  SquareEvaluator(k, f, cone).square_sum(f.values)[inner])
            ev = SquareEvaluator(k, f, cone)
            assert np.array_equal(ev.box_square_sum(g, row), ref) and forms == []

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_wide_user_box_grows_the_level_samples(self, monkeypatch, n, N):
        """A user pool box of 5/8 of the grid's side whose 3Q misses part of
        the grid asks the block spectra for offsets past the constructor's
        samples: each level's sample grows once, the level spectra stay, and
        M_S matches the pool loop."""
        from dataclasses import replace

        k0, f, cone = TestLernerGram._setup(n, N, 7)
        profiles = []
        k = replace(k0, profile=lambda *a: profiles.append(1) or k0.profile(*a))
        ev = SquareEvaluator.of(k, f, cone)
        spectra = [s.tobytes() for s in ev._spectra]
        pool = [grid_box(f), box((-2 * f.R,) * n, (-0.75 * f.R,) * n)]
        profiles.clear()
        fast = lerner_maximal(k, f, cone, "M_S", pool).values
        assert len(profiles) == len(ev.levels)
        assert [s.tobytes() for s in ev._spectra] == spectra
        profiles.clear()
        assert np.array_equal(lerner_maximal(k, f, cone, "M_S", pool).values, fast)
        assert profiles == []
        with monkeypatch.context() as m:
            m.setattr(SquareEvaluator, "lerner_values", _pool_loop(cone))
            slow = lerner_maximal(k0, f, cone, "M_S", pool).values
        TestLernerBatched._close(fast, slow)


class TestWindowSum:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_stencil_brute_force(self, n):
        """`_window_sum` over the `_window_rows` of lim against a sum over
        the offsets of `grids._stencil`, the rule of `ConeGrid.stencil`,
        with a batch axis and K past r."""
        from lpsq.grids import _stencil
        from lpsq.operators import _disc_rows, _window_rows, _window_sum

        rng = np.random.default_rng(n)
        M = (7, 5)[:n]
        for lim in (1.0, 2.0, 2.5, 3.7, 4.0):
            r = max(math.ceil(lim) - 1, 0)
            for K in (r, r + 2):
                p = rng.standard_normal((3,) + tuple(m + 2 * K for m in M))
                want = np.zeros((3,) + M)
                for off in _stencil(n, lim).reshape(-1, n):
                    want += p[(slice(None),) + tuple(
                        slice(K + o, K + o + m) for o, m in zip(off, M))]
                got = _window_sum(p, _window_rows(_disc_rows(lim, n), K))
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestEvaluatorLayout:
    def test_cone_spacing_and_kernel_dimension_are_checked(self):
        """The evaluator refuses the layouts square_function refuses, and so
        do its callers on every method (off the fast path `of` builds
        nothing, and the callers' square_function refuses them)."""
        from lpsq.dyadic import Cube, dyadic_cube_pool, sparse_construct

        k = parse_kernel("ex1:kappa=3", 1)
        f = _spikes(np.random.default_rng(4), 1, 4.0, 1.0 / 32)
        coarse = build_cone(1.0, 1, 1.0 / 16, 1.0 / 8, 8.0, 4)  # h = 1/16
        root = Cube(1, 1, (0,), "standard", 2 * f.R)
        pool = dyadic_cube_pool(root, f)
        with pytest.raises(GridError, match="spacing"):
            SquareEvaluator.of(k, f, coarse)
        with pytest.raises(GridError, match="spacing"):
            SquareEvaluator(k, f, coarse)
        k2 = parse_kernel("ex1:kappa=3", 2)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        with pytest.raises(GridError, match="dimensions"):
            SquareEvaluator(k2, f, cone)
        for m in (None, "direct"):
            for call in (lambda: lerner_maximal(k, f, coarse, "M_S", pool, method=m,
                                                domain=root.box()),
                         lambda: sparse_construct(k, f, root, 1.0, coarse, method=m)):
                with pytest.raises(GridError, match="spacing"):
                    call()
            with pytest.raises(GridError, match="dimensions"):
                lerner_maximal(k2, f, cone, "M_S", pool, method=m, domain=root.box())

    @pytest.mark.parametrize("case", ["direct", "bilinear", "linear"])
    def test_no_evaluator_off_the_fast_path(self, case):
        """`of` returns None for the direct method, a bilinear kernel and a
        general linear kernel, and the constructor refuses the two kernels."""
        k = parse_kernel("ex1:kappa=3", 1)
        method = "direct" if case == "direct" else None
        if case == "bilinear":
            k = bilinear_example_kernel(3.0, 1)
        elif case == "linear":
            k = KernelSpec("linear", 1, k.A, k.w_mod, k.phi_mod,
                           psi=lambda x, y, p=k.profile: p(x - y))
        f = _spikes(np.random.default_rng(4), 1, 4.0, 1.0 / 4)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        assert SquareEvaluator.of(k, f, cone, method=method) is None
        if case != "direct":
            with pytest.raises(ParameterError, match="convolution kernel"):
                SquareEvaluator(k, f, cone)
        assert not k._evaluator


class TestSquareEvaluator2D:
    def test_matches_square_function_and_direct(self):
        k = parse_kernel("ex1:kappa=3", 2)
        f = _spikes(np.random.default_rng(17), 2, 4.0, 0.5)  # 16 x 16
        cone = build_cone(1.0, 2, f.h, 2 * f.h, 2 * f.R, 4)
        ev = SquareEvaluator(k, f, cone)
        fast = ev.eval_values(f.values)
        sf = square_function(k, f, cone).values
        assert np.max(np.abs(fast - sf)) <= 1e-12 * np.max(sf)
        direct = square_function(k, f, cone, method="direct").values
        assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(direct)
        masked = f.values * (np.arange(16)[:, None] < 8)
        assert np.max(np.abs(ev.eval_values(masked) - square_function(
            k, f.with_values(masked), cone).values)) <= 1e-12 * np.max(sf)



class TestPointMassProfile:
    """Gamma, the profile behind the evaluator's ``far_gain``, is S of a unit
    point mass: Gamma(x - y) = S delta_y(x)."""

    @staticmethod
    def _profile(monkeypatch, k, f, cone):
        """The evaluator and the Gamma its constructor passes to `_far_gain`."""
        from lpsq import operators as ops

        seen, inner = [], ops._far_gain
        monkeypatch.setattr(ops, "_far_gain", lambda g: seen.append(g) or inner(g))
        ev = SquareEvaluator(k, f, cone)
        assert len(seen) == 1
        return ev, seen[0]

    @pytest.mark.parametrize("pad", [0, 3])
    @pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
    def test_equals_s_of_a_delta_at_the_corners(self, monkeypatch, n, N, pad):
        """At each of the 2^n corner cells y of the box, S delta_y on the
        output lattice pad cells wider than the box per side is the window
        of Gamma at the offsets x - y: by direct summation, and by the
        evaluator of the box widened by pad cells, whose lattice that is."""
        R = 4.0
        h = 2 * R / N
        k = parse_kernel("ex1:kappa=3", n)
        f = GridFunction(n, R, h, np.zeros((N,) * n))
        cone = build_cone(1.0, n, h, 2 * h, 2 * R, 4)
        out_R = R + pad * h
        M = N + 2 * pad
        ev, gamma = self._profile(monkeypatch, k, GridFunction(n, out_R, h, np.zeros((M,) * n)),
                                  cone)
        assert gamma.shape == (2 * M - 1,) * n
        tol = 1e-12 * gamma.max()
        for corner in itertools.product((0, N - 1), repeat=n):
            delta = np.zeros((N,) * n)
            delta[corner] = 1.0
            # output cell o sits o - pad - y cells from the input cell y
            want = gamma[tuple(slice(M - 1 - pad - y, 2 * M - 1 - pad - y) for y in corner)]
            direct = square_function_multi(k, f.with_values(delta), cone, [cone.alpha],
                                           out_R=out_R, method="direct")[cone.alpha].values
            for got in (ev.eval_values(np.pad(delta, pad)), direct):
                assert np.max(np.abs(got - want)) <= tol

    @pytest.mark.parametrize("n, N", [(1, 16), (2, 6)])
    def test_far_gain_is_the_max_beyond_each_distance(self, monkeypatch, n, N):
        from lpsq import operators as ops

        R = 3.0
        h = 2 * R / N
        k = parse_kernel("ex1:kappa=3", n)
        f = GridFunction(n, R, h, np.zeros((N,) * n))
        ev, gamma = self._profile(monkeypatch, k, f, build_cone(1.0, n, h, 2 * h, 2 * R, 4))
        # a random profile has shells whose maxima rise outward
        rough = np.random.default_rng(n).random(gamma.shape)
        for prof, want_far in ((gamma, ev.far_gain), (rough, ops._far_gain(rough))):
            dist = np.max(np.abs(np.indices(prof.shape) - (N - 1)), axis=0)  # |offsets| < N
            assert want_far.tolist() == [prof[dist >= d].max() for d in range(N)]
        assert np.all(np.diff(ev.far_gain) <= 0) and ev.far_gain[-1] > 0


def _runs(rng, N: int) -> np.ndarray:
    """Gaussian values with zero runs: a zero prefix or suffix half the time
    and up to three interior runs."""
    v = rng.standard_normal(N)
    for _ in range(rng.integers(0, 4)):
        i = rng.integers(0, N)
        v[i : i + rng.integers(1, N // 4 + 2)] = 0.0
    if rng.random() < 0.5:
        v[: rng.integers(0, N // 2)] = 0.0
    if rng.random() < 0.5:
        v[N - rng.integers(0, N // 2) :] = 0.0
    return v


class TestLinearFFT:
    """Linear psi_t and S with "auto" (the FFT path) against
    method="direct", in n = 1 and n = 2."""

    @pytest.mark.parametrize("n", [1, 2])
    @given(st.integers(min_value=4, max_value=64), st.floats(min_value=0.05, max_value=12.0),
           st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_fft_matches_direct_property(self, n, N, t, pad, seed):
        k = parse_kernel("ex1:kappa=3", n)
        rng = np.random.default_rng(seed)
        h = 0.25 * n
        if n == 2:
            N = 4 + N // 6  # 4 .. 14 cells per axis keep the direct sums short
        f = GridFunction(n, N * h / 2, h, _runs(rng, N**n).reshape((N,) * n))
        out_R = f.R + pad * h
        fast, direct = (psi_t_apply(k, f, t, out_R=out_R, method=m).values
                        for m in ("auto", "direct"))
        assert fast.shape == (N + 2 * pad,) * n
        TestLernerBatched._close(fast, direct)
        cone = build_cone(1.0, n, h, 2 * h, 2 * f.R, 2)
        TestLernerBatched._close(*(_s_padded(k, f, cone, out_R, m)
                                   for m in ("auto", "direct")))


def _s_padded(k, f, cone, out_R, method=None):
    """S_alpha f, alpha the cone's, on the lattice of half-width out_R."""
    return square_function_multi(k, f, cone, [cone.alpha], out_R=out_R,
                                 method=method)[cone.alpha].values


class TestBilinearFFT:
    """The offset-diagonal FFT path of bilinear psi_t against the
    per-output-cell direct sum (method="direct") and square_function_at."""

    @staticmethod
    def _close(fast, direct):
        TestLernerBatched._close(fast, direct, tol=1e-12)

    def test_method_handling(self, monkeypatch):
        from dataclasses import replace

        from lpsq import operators as ops

        k = bilinear_example_kernel(3.0, 1)
        f = sample_function(lambda x: np.exp(-(x**2)), 1, 2.0, 1.0 / 4)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2.0, 2)
        for call in (lambda m: psi_t_apply(k, (f, f), 1.0, method=m),
                     lambda m: square_function(k, (f, f), cone, method=m)):
            with pytest.raises(ParameterError, match="unknown method"):
                call("bogus")
            with pytest.raises(ParameterError, match="unknown method"):
                call("fft")
        no_profile = replace(k, profile=None)

        def refuse(*args, **kwargs):
            raise AssertionError("wrong path")

        # "direct" (and "auto" without a profile) takes the oracle path ...
        monkeypatch.setattr(ops, "_psi_t_bilinear_fft", refuse)
        direct = square_function(k, (f, f), cone, method="direct").values
        assert np.array_equal(
            square_function(no_profile, (f, f), cone).values, direct)
        direct_u = psi_t_apply(no_profile, (f, f), 0.5).values
        monkeypatch.undo()
        # ... and "auto" with a profile never calls it
        monkeypatch.setattr(ops, "_psi_t_bilinear", refuse)
        self._close(square_function(k, (f, f), cone).values, direct)
        self._close(psi_t_apply(k, (f, f), 0.5, method="auto").values, direct_u)

    def test_profile_matches_psi(self):
        k = bilinear_example_kernel(3.0, 1)
        rng = np.random.default_rng(3)
        x, y1, y2 = rng.uniform(-5.0, 5.0, (3, 200))
        assert np.array_equal(k.psi(x, y1, y2), k.profile(x - y1, x - y2))

    @given(st.integers(min_value=8, max_value=64), st.floats(min_value=0.05, max_value=12.0),
           st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30)
    def test_fft_matches_direct_property(self, N, t, pad, seed):
        k = bilinear_example_kernel(3.0, 1)
        rng = np.random.default_rng(seed)
        h = 0.25
        f1 = GridFunction(1, N * h / 2, h, _runs(rng, N))
        f2 = GridFunction(1, N * h / 2, h, _runs(rng, N))
        out_R = f1.R + pad * h
        fast = psi_t_apply(k, (f1, f2), t, out_R=out_R).values
        direct = psi_t_apply(k, (f1, f2), t, out_R=out_R, method="direct").values
        self._close(fast, direct)

    def test_zero_inputs_give_exact_zero(self):
        k = bilinear_example_kernel(3.0, 1)
        rng = np.random.default_rng(5)
        f = GridFunction(1, 4.0, 0.25, rng.standard_normal(32))
        z = f.with_values(np.zeros(32))
        for pair in ((f, z), (z, f), (z, z)):
            out = psi_t_apply(k, pair, 0.7, out_R=5.0)
            assert out.values.shape == (40,) and np.all(out.values == 0.0)
        # disjoint supports with no offset pairing still sum exact zeros
        lo = f.with_values(f.values * (np.arange(32) < 4))
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 8.0, 2)
        s = square_function(k, (lo, z), cone).values
        assert np.all(s == 0.0)

    def test_small_chunk_forces_several_chunks(self, monkeypatch):
        from lpsq import operators as ops

        k = bilinear_example_kernel(3.0, 1)
        rng = np.random.default_rng(11)
        f1 = GridFunction(1, 4.0, 0.125, _runs(rng, 64))
        f2 = GridFunction(1, 4.0, 0.125, rng.standard_normal(64))
        cone = build_cone(1.0, 1, f1.h, 2 * f1.h, 8.0, 4)
        full = _s_padded(k, (f1, f2), cone, 5.0)
        monkeypatch.setattr(ops, "_LERNER_CHUNK", 256)
        small = _s_padded(k, (f1, f2), cone, 5.0)
        direct = _s_padded(k, (f1, f2), cone, 5.0, "direct")
        self._close(small, direct)
        self._close(full, direct)
        u = psi_t_apply(k, (f1, f2), 3.0, out_R=6.0).values
        self._close(u, psi_t_apply(k, (f1, f2), 3.0, out_R=6.0, method="direct").values)

    def test_matches_pointwise_oracle(self):
        k = bilinear_example_kernel(3.0, 1)
        rng = np.random.default_rng(19)
        f1 = GridFunction(1, 4.0, 0.25, _runs(rng, 32))
        f2 = GridFunction(1, 4.0, 0.25, rng.standard_normal(32))
        cone = build_cone(1.0, 1, f1.h, 2 * f1.h, 8.0, 4)
        s = square_function(k, (f1, f2), cone).values
        for i in np.random.default_rng(23).choice(32, 5, replace=False):
            x = f1.axis_centers()[i]
            assert s[i] == pytest.approx(square_function_at(k, (f1, f2), x, cone),
                                         rel=1e-10)

    def test_g_star_pair_matches_direct(self):
        k = bilinear_example_kernel(3.0, 1)
        rng = np.random.default_rng(29)
        f1 = GridFunction(1, 2.0, 0.25, rng.standard_normal(16))
        f2 = GridFunction(1, 2.0, 0.25, _runs(rng, 16))
        hs = build_halfspace(1, f1.h, 2 * f1.h, 4.0, 2, f1.R)
        fast, direct = (g_star(k, (f1, f2), 5.0, hs, method=m).values
                        for m in ("auto", "direct"))
        self._close(fast, direct)

    # (first cell, length) of supp f1 on N cells: the whole box, one cell at
    # either edge, a part at either edge and one inside
    SUPPORTS = {"box": (0, None), "left-cell": (0, 1), "right-cell": (-1, 1),
                "left-part": (0, 7), "right-part": (-9, 9), "inner": (5, 6)}

    @staticmethod
    def _pair(support, N, h, seed):
        """f1 on the support (nonzero at its ends), f2 Gaussian on N cells."""
        A0, L = TestBilinearFFT.SUPPORTS[support]
        A0, L = A0 % N, L or N
        rng = np.random.default_rng(seed)
        v1 = np.zeros(N)
        v1[A0 : A0 + L] = rng.standard_normal(L)
        v1[[A0, A0 + L - 1]] = 1.5
        return (GridFunction(1, N * h / 2, h, v1),
                GridFunction(1, N * h / 2, h, rng.standard_normal(N)))

    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("h", [0.25, 0.1])
    @pytest.mark.parametrize("support", list(SUPPORTS))
    def test_parity_path_equals_unsigned_path(self, monkeypatch, support, h, chunk):
        """bi1 reads row -d as the reflection of row +d; without its parity
        it samples both rows, in the same order: the two agree to the bit,
        and both match the direct sum."""
        from dataclasses import replace

        from lpsq import operators as ops

        if chunk:
            monkeypatch.setattr(ops, "_LERNER_CHUNK", chunk)
        k = bilinear_example_kernel(3.0, 1)
        N = 24
        pair = self._pair(support, N, h, 37)
        cone = build_cone(1.0, 1, h, 2 * h, N * h, 3)
        out_R = pair[0].R + 2 * h
        for call in (lambda kk, m: _s_padded(kk, pair, cone, out_R, m),
                     lambda kk, m: psi_t_apply(kk, pair, 3 * h, out_R=out_R, method=m).values):
            signed, unsigned = call(k, None), call(replace(k, parity=None), None)
            assert signed.tobytes() == unsigned.tobytes()
            self._close(signed, call(k, "direct"))

    def test_small_chunk_straddles_d_zero(self, monkeypatch):
        """At 256 doubles a level takes several chunks of |d|, the first
        holding d = 0 and both signs of d = 1."""
        from lpsq import operators as ops

        monkeypatch.setattr(ops, "_LERNER_CHUNK", 256)
        chunks, pair_rows = [], ops._pair_rows
        monkeypatch.setattr(ops, "_pair_rows", lambda k, cp, cm, *a: chunks.append(
            (cp.tolist(), cm.tolist())) or pair_rows(k, cp, cm, *a))
        k = bilinear_example_kernel(3.0, 1)
        pair = self._pair("box", 24, 0.25, 41)
        u = psi_t_apply(k, pair, 0.75).values
        self._close(u, psi_t_apply(k, pair, 0.75, method="direct").values)
        assert len(chunks) > 1 and chunks[0] == ([0, 1], [1])
        assert sorted(d for cp, cm in chunks for d in cp + [-d for d in cm]) == list(range(-23, 24))

    @pytest.mark.parametrize("wrong", [(1, 1), (-1, -1)])
    def test_wrong_parity_misses_the_direct_gate(self, wrong):
        from dataclasses import replace

        k = bilinear_example_kernel(3.0, 1)
        pair = self._pair("box", 24, 0.25, 43)
        cone = build_cone(1.0, 1, 0.25, 0.5, 6.0, 3)
        ref = square_function(k, pair, cone, method="direct").values
        assert _rel(square_function(k, pair, cone).values, ref) <= 1e-12
        assert _rel(square_function(replace(k, parity=wrong), pair, cone).values, ref) > 1e-3


def _g_star_by_loops(k, f, lam, hs):
    """g* as a sum over the offsets m, |m| <= K per level (in n = 2 also
    |m| h < min(alpha t, max_radius)), of the weight times |psi_t f|^2 at
    x + m, psi_t by direct summation on f's lattice padded by K."""
    base = f[0] if isinstance(f, tuple) else f
    n, h, out_R = base.n, base.h, base.R
    M = base.ncells
    acc = np.zeros((M,) * n)
    for t in map(float, hs.t_levels):
        lim = min(hs.alpha * t, hs.max_radius)
        K = max(math.ceil(lim / h) - 1, 0)
        u = psi_t_apply(k, f, t, out_R=out_R + K * h, method="direct").values
        meas = h**n / t**n * hs.log_weight
        for m in itertools.product(range(-K, K + 1), repeat=n):
            dist = float(np.hypot(*m) if n == 2 else abs(m[0])) * h
            if n == 2 and dist >= lim:
                continue
            w = (t / (t + dist)) ** (n * lam)
            acc += meas * w * u[tuple(slice(K + d, K + d + M) for d in m)] ** 2
    return np.sqrt(acc)


class TestGStarGate:
    """g_star (psi_t by FFT, the weight sum in frequency space) against
    direct psi_t with the weight summed by loops over the offsets; the
    cascade bound dominates it on the same inputs."""

    @pytest.mark.parametrize("case", ["1d", "2d", "bi1"])
    @given(st.integers(min_value=2, max_value=24),
           st.booleans(), st.floats(min_value=4.5, max_value=8.0),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15)
    def test_matches_offset_loops(self, case, N, halfspace, lam, seed):
        n = 2 if case == "2d" else 1
        rng = np.random.default_rng(seed)
        h = 0.5
        if n == 2:
            N = 2 + N // 4  # 2 .. 8 cells per axis keep the direct sums short
        R = N * h / 2
        vals = [_runs(rng, N**n).reshape((N,) * n) for _ in range(2)]
        fs = [GridFunction(n, R, h, v) for v in vals]
        if case == "bi1":
            k, f = bilinear_example_kernel(3.0, 1), (fs[0], fs[1])
        else:
            k, f = parse_kernel("ex1:kappa=3", n), fs[0]
        if halfspace:
            hs = build_halfspace(n, h, 2 * h, 2 * R, 2, R)
        else:  # a cone capped as the half-space: the levels' K differ
            hs = build_cone(1.0 + rng.uniform(0.0, 2.0), n, h, 2 * h, 4 * R, 2,
                            max_radius=2 * R * math.sqrt(n) + h)
        gs = g_star(k, f, lam, hs).values
        assert gs.shape == (N,) * n
        TestLernerBatched._close(gs, _g_star_by_loops(k, f, lam, hs))
        cascade, _ = g_star_cascade_bound(k, f, lam, hs)
        ratio = gs / np.maximum(cascade.values, 1e-300)
        assert np.max(ratio) <= 1.0 + 1e-10


class TestGStarStream:
    """One-shot g* of a single input on the FFT path reads the evaluator's
    level stream without building an evaluator: the input is transformed
    once per FFT length, and no spectra are kept on the kernel."""

    @pytest.mark.parametrize("halfspace", [True, False])
    # at 2-D N = 40 the spectra pass numpy's 256 KiB temporary-reuse size
    @pytest.mark.parametrize("n, N", [(1, 64), (2, 40)])
    def test_input_transformed_once_per_length(self, monkeypatch, n, N, halfspace):
        from lpsq import operators as ops

        h = 0.25
        R = N * h / 2
        f = GridFunction(n, R, h, np.random.default_rng(31 + n).standard_normal((N,) * n))
        k = parse_kernel("ex1:kappa=3", n)
        if halfspace:
            hs = build_halfspace(n, h, 2 * h, 2 * R, 2, R)
        else:  # a capped cone: the levels' K, and so their FFT lengths, differ
            hs = build_cone(1.5, n, h, 2 * h, 4 * R, 2, max_radius=2 * R * math.sqrt(n) + h)
        levels = ops._cone_levels(f, hs, hs.alpha)
        lengths = len({lv.nfft for lv in levels})
        assert (lengths == 1) if halfspace else (lengths > 1)
        seen, rfftn = [], np.fft.rfftn
        with monkeypatch.context() as m:
            m.setattr(np.fft, "rfftn", lambda x, *a, **kw: seen.append(x) or rfftn(x, *a, **kw))
            g_star(k, f, 5.0, hs)
        inputs = sum(x is f.values for x in seen)
        assert inputs == lengths
        # per level: its kernel spectrum, |psi_t f|^2 and the weight
        assert len(seen) == inputs + 3 * len(levels)
        assert k._evaluator == {}
        ev = SquareEvaluator(k, f, hs)
        spectra = ops._kernel_spectra(k, f, levels)
        streamed = list(ops._level_values(f.values, levels, spectra))
        cached = list(ev.level_values(f.values))
        assert len(streamed) == len(cached) == len(levels)
        for (lv, u), (lv_ev, u_ev) in zip(streamed, cached):
            assert lv == lv_ev and np.array_equal(u, u_ev)

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_one_input_spectrum_alive_in_any_level_order(self, monkeypatch, n, N):
        """The stream holds one input spectrum at a time; levels out of
        ascending order give the same values, at one rfftn of the input per
        change of FFT length."""
        import weakref

        from lpsq import operators as ops

        h = 0.25
        R = N * h / 2
        f = GridFunction(n, R, h, np.random.default_rng(7).standard_normal((N,) * n))
        k = parse_kernel("ex1:kappa=3", n)
        hs = build_cone(1.5, n, h, 2 * h, 4 * R, 2, max_radius=2 * R * math.sqrt(n) + h)
        levels = ops._cone_levels(f, hs, hs.alpha)
        assert [lv.nfft for lv in levels] == sorted(lv.nfft for lv in levels)
        want = {lv.t: u for lv, u in ops._level_values(
            f.values, levels, ops._kernel_spectra(k, f, levels))}
        mixed = levels[1::2] + levels[::2]
        changes = sum(a.nfft != b.nfft for a, b in zip(mixed, mixed[1:])) + 1
        assert changes > len({lv.nfft for lv in levels})
        refs, rfftn = [], np.fft.rfftn

        def spy(x, *a, **kw):
            out = rfftn(x, *a, **kw)
            if x is f.values:
                refs.append(weakref.ref(out))
            return out

        alive = []
        with monkeypatch.context() as m:
            m.setattr(np.fft, "rfftn", spy)
            for lv, u in ops._level_values(f.values, mixed, ops._kernel_spectra(k, f, mixed)):
                assert np.array_equal(u, want[lv.t])
                alive.append(sum(r() is not None for r in refs))
        assert len(refs) == changes and max(alive) == 1


def _rel(fast, ref) -> float:
    return float(np.max(np.abs(fast - ref)) / np.max(np.abs(ref)))


def _csv_kernel(tmp_path):
    """A 1-D ``csv:`` kernel with no symmetry, so no declared parity."""
    path = tmp_path / "skew.csv"
    xs = np.linspace(-3.0, 3.0, 121)
    path.write_text("\n".join(f"{x},{math.exp(-(x - 0.4) ** 2) * (x + 0.7)}" for x in xs))
    return parse_kernel(f"csv:{path}", 1)


class TestProfileParity:
    """The lattice sampler mirrors one quadrant of a kernel that declares
    its parity, to the bit; a wrong declaration is caught by the direct
    oracle, which samples the profile everywhere."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kid", ["ex1:kappa=3", "ex2:kappa=3,beta=1.5", "ex3:kappa=3"])
    def test_mirrored_block_equals_full_sample(self, kid, n):
        from dataclasses import replace

        from lpsq import operators as ops

        k = parse_kernel(kid, n)
        for c, h, t in [(0, 0.25, 1.0), (1, 0.5, 0.5), (7, 0.1, 0.3), (40, 1 / 16, 2.5)]:
            e = np.arange(-c, c + 1) * h / t
            full = k.profile(*np.ix_(*(e,) * n)).tobytes()
            assert ops._profile_block(k, c, h, t).tobytes() == full
            assert ops._profile_block(replace(k, parity=None), c, h, t).tobytes() == full

    @pytest.mark.parametrize("n, wrong", [(1, (1,)), (2, (1, 1)), (2, (-1, -1))])
    def test_wrong_declaration_fails_the_oracle_gate(self, n, wrong):
        from dataclasses import replace

        h = 0.25
        R = 2.0 if n == 1 else 1.0
        N = int(2 * R / h)
        f = GridFunction(n, R, h, np.random.default_rng(11).standard_normal((N,) * n))
        cone = build_cone(1.0, n, h, 2 * h, 2 * R, 2)
        k = parse_kernel("ex1:kappa=3", n)
        ref = square_function(k, f, cone, method="direct").values
        assert _rel(square_function(k, f, cone).values, ref) <= 1e-10
        assert _rel(square_function(replace(k, parity=wrong), f, cone).values, ref) > 1e-3

    def test_csv_kernel_samples_everywhere(self, tmp_path):
        k = _csv_kernel(tmp_path)
        assert k.parity is None
        f = GridFunction(1, 2.0, 0.25, np.random.default_rng(12).standard_normal(16))
        cone = build_cone(1.0, 1, 0.25, 0.5, 4.0, 2)
        ref = square_function(k, f, cone, method="direct").values
        assert _rel(square_function(k, f, cone).values, ref) <= 1e-10

    @pytest.mark.parametrize("kid, n", [("ex1:kappa=3", 1), ("ex1:kappa=3", 2), ("csv", 1)])
    def test_evaluator_blocks_equal_fresh_samples(self, tmp_path, kid, n):
        """Every block the evaluator cuts from its kept samples, within them
        and past them (which grows the sample), is the bits of a fresh
        `_profile_block`, quadrant and whole samples alike."""
        from lpsq import operators as ops

        k = _csv_kernel(tmp_path) if kid == "csv" else parse_kernel(kid, n)
        h, N = 0.25, (16 if n == 1 else 8)
        f = GridFunction(n, N * h / 2, h, np.zeros((N,) * n))
        ev = SquareEvaluator(k, f, build_cone(1.0, n, h, 2 * h, N * h, 2))
        for j, lv in enumerate(ev.levels):
            scale = (h / lv.t) ** n * 0.7
            for c in (0, 3, N - 1 + lv.K, 2 * N + lv.K):
                assert ev._block(j, c, scale).tobytes() == ops._profile_block(
                    k, c, h, lv.t, scale).tobytes()


class TestProfileCensus:
    """One S, one g* and one `SquareEvaluator` build sample the profile once
    per level, c = N - 1 + K cells of offset per axis: on the quadrant,
    (c + 1)^n points, for a kernel with a declared parity, and on the
    whole block, 2c + 1 points, for a ``csv:`` kernel.  A bilinear S
    samples each offset row |d| once per chunk and level."""

    @pytest.mark.parametrize("op", ["S", "g_star", "evaluator"])
    @pytest.mark.parametrize("kid, n", [("ex1:kappa=3", 1), ("ex1:kappa=3", 2), ("csv", 1)])
    def test_points_per_level(self, tmp_path, kid, n, op):
        from dataclasses import replace

        from lpsq import operators as ops

        h = 0.25
        R = 4.0 if n == 1 else 2.0
        N = int(2 * R / h)
        f = GridFunction(n, R, h, np.random.default_rng(13).standard_normal((N,) * n))
        k0 = _csv_kernel(tmp_path) if kid == "csv" else parse_kernel(kid, n)
        sizes = []
        k = replace(k0, profile=lambda *a: sizes.append(np.broadcast(*a).size)
                    or k0.profile(*a))
        if op == "g_star":
            layout = build_halfspace(n, h, 2 * h, 2 * R, 2, R)
            g_star(k, f, 5.0, layout)
        else:
            layout = build_cone(1.0, n, h, 2 * h, 2 * R, 2)
            (square_function if op == "S" else SquareEvaluator)(k, f, layout)
        cs = [N - 1 + lv.K for lv in ops._cone_levels(f, layout, layout.alpha)]
        assert sizes == [(c + 1) ** n if k0.parity else 2 * c + 1 for c in cs]

    @pytest.mark.parametrize("support", list(TestBilinearFFT.SUPPORTS))
    def test_bilinear_points_per_call(self, support):
        """One bilinear S samples at most the rows of every offset d at every
        level, sum_levels (L + N - 1)(L + M - 1) points, and about half of
        them on a support that spans the box, where each |d| serves both
        signs of d; no profile call takes more than `_LERNER_CHUNK` points."""
        from dataclasses import replace

        from lpsq import operators as ops

        k0 = bilinear_example_kernel(3.0, 1)
        sizes = []
        k = replace(k0, profile=lambda *a: sizes.append(np.broadcast(*a).size)
                    or k0.profile(*a))
        h, N = 0.25, 64
        f1, f2 = TestBilinearFFT._pair(support, N, h, 47)
        cone = build_cone(1.0, 1, h, 2 * h, N * h, 4)
        square_function(k, (f1, f2), cone)
        nz = np.flatnonzero(f1.values)
        L = nz[-1] + 1 - nz[0]
        rows = sum((L + N - 1) * (L + N + 2 * lv.K - 1)
                   for lv in ops._cone_levels(f1, cone, cone.alpha))
        assert sum(sizes) <= (0.55 if L == N else 1.0) * rows
        assert max(sizes) <= ops._LERNER_CHUNK

    @pytest.mark.parametrize("n", [1, 2])
    def test_conv_kernel_fills_its_fft_buffer(self, n):
        """The `_conv_kernel` buffer is the block of the kernel sampled
        everywhere, zero-padded to the FFT length, to the bit."""
        from dataclasses import replace

        from lpsq import operators as ops

        k = parse_kernel("ex1:kappa=3", n)
        h, N = (0.1, 20) if n == 1 else (0.25, 8)
        f = GridFunction(n, N * h / 2, h, np.zeros((N,) * n))
        for t, M in [(0.3, N), (1.7, N + 6)]:
            nfft = ops._fft_len(M + N - 1)
            full = ops._conv_kernel(replace(k, parity=None), f, t, M)
            buf = ops._conv_kernel(k, f, t, M, nfft)
            assert buf.shape == (nfft,) * n
            assert buf.tobytes() == np.pad(full, (0, nfft - full.shape[0])).tobytes()


def _gate_call(case: str):
    """The call of one malformed-input case of `TestOperandGate`."""
    k1, k2 = parse_kernel("ex1:kappa=3", 1), parse_kernel("ex1:kappa=3", 2)
    kb = bilinear_example_kernel(3.0, 1)
    h = 0.25
    f = sample_function(lambda x: np.exp(-(x**2)), 1, 2.0, h)
    g = sample_function(lambda x, y: np.exp(-(x**2) - y**2), 2, 1.0, h)
    cone1, cone2 = build_cone(1.0, 1, h, 2 * h, 4.0, 2), build_cone(1.0, 2, h, 2 * h, 2.0, 2)
    coarse1 = build_cone(1.0, 1, 2 * h, 4 * h, 4.0, 2)
    coarse2 = build_cone(1.0, 2, 2 * h, 4 * h, 2.0, 2)
    return {
        "S_at-linear-pair-1d": lambda: square_function_at(k1, (f, f), 0.0, cone1),
        "S_at-linear-pair-2d": lambda: square_function_at(k2, (g, g), [0.0, 0.0], cone2),
        "S_at-point-length": lambda: square_function_at(k1, f, [0.0, 1.0], cone1),
        "S_at-point-nan": lambda: square_function_at(k1, f, math.nan, cone1),
        "S_at-point-inf": lambda: square_function_at(k2, g, [0.0, -math.inf], cone2),
        "S_at-pair-cone-spacing": lambda: square_function_at(kb, (f, f), 0.0, coarse1),
        "S_at-2d-cone-spacing": lambda: square_function_at(k2, g, [0.0, 0.0], coarse2),
        "g_star-halfspace-spacing": lambda: g_star(
            k1, f, 3.0, build_halfspace(1, 2 * h, 4 * h, 4.0, 2, 2.0)),
        "S-cone-n2": lambda: square_function(k1, f, build_cone(1.0, 2, h, 2 * h, 4.0, 2)),
        "S_at-kernel-2d-on-1d": lambda: square_function_at(k2, f, 0.0, cone1),
        "psi-t-nan": lambda: psi_t_apply(k1, f, math.nan),
        "psi-t-inf": lambda: psi_t_apply(k1, f, math.inf),
        "psi-out_R-nan": lambda: psi_t_apply(k1, f, 1.0, out_R=math.nan),
        "psi-out_R-inf": lambda: psi_t_apply(k1, f, 1.0, out_R=math.inf),
        "S_multi-out_R-nan": lambda: square_function_multi(k1, f, cone1, [1.0], out_R=math.nan),
        "S_multi-out_R-inf": lambda: square_function_multi(k1, f, cone1, [1.0], out_R=math.inf),
    }[case]


class TestOperandGate:
    """Malformed inputs fail with a named error before any work: the
    number of inputs, the point, the cone's spacing and dimension, the
    kernel's dimension, t and out_R."""

    @pytest.mark.parametrize("case, error, match", [
        ("S_at-linear-pair-1d", ParameterError, "takes 1 input"),
        ("S_at-linear-pair-2d", ParameterError, "takes 1 input"),
        ("S_at-point-length", ParameterError, "coordinate"),
        ("S_at-point-nan", ParameterError, "point must be finite"),
        ("S_at-point-inf", ParameterError, "point must be finite"),
        ("S_at-pair-cone-spacing", GridError, "spacing"),
        ("S_at-2d-cone-spacing", GridError, "spacing"),
        ("g_star-halfspace-spacing", GridError, "spacing"),
        ("S-cone-n2", GridError, "cone and grid dimensions"),
        ("S_at-kernel-2d-on-1d", GridError, "kernel and grid dimensions"),
        ("psi-t-nan", ParameterError, "finite and positive"),
        ("psi-t-inf", ParameterError, "finite and positive"),
        ("psi-out_R-nan", GridError, "out_R must be finite"),
        ("psi-out_R-inf", GridError, "out_R must be finite"),
        ("S_multi-out_R-nan", GridError, "out_R must be finite"),
        ("S_multi-out_R-inf", GridError, "out_R must be finite"),
    ])
    def test_malformed_input_is_a_named_error(self, case, error, match):
        with pytest.raises(error, match=match):
            _gate_call(case)()


def _box_gate_call(case: str, method: str):
    """The `lerner_maximal` call of one malformed-box case of `TestBoxGate`:
    a box of the pool or the domain of the other dimension, with a NaN or
    inf corner, with hi <= lo, not a cube, or whose side or 3-dilate
    overflows; a pool or domain that is ragged, not an (nb, 2, n) or (2, n)
    array, given as an ndarray or a tuple, or whose corners are strings,
    None or complex."""
    k1, k2 = parse_kernel("ex1:kappa=3", 1), parse_kernel("ex1:kappa=3", 2)
    h = 0.25
    f = sample_function(lambda x: np.exp(-(x**2)), 1, 2.0, h)
    g = sample_function(lambda x, y: np.exp(-(x**2) - y**2), 2, 1.0, h)
    cone1, cone2 = build_cone(1.0, 1, h, 2 * h, 4.0, 2), build_cone(1.0, 2, h, 2 * h, 2.0, 2)
    one, two = box((-1.0,), (1.0,)), box((-1.0, -1.0), (1.0, 1.0))

    def on1(pool, domain=None):
        return lambda: lerner_maximal(k1, f, cone1, "M_S", pool, method=method, domain=domain)

    def on2(pool, domain=None):
        return lambda: lerner_maximal(k2, g, cone2, "M_S", pool, method=method, domain=domain)

    return {
        "pool-2d-on-1d": on1([grid_box(f), two]),
        "pool-1d-on-2d": on2([grid_box(g), one]),
        "domain-2d-on-1d": on1([grid_box(f)], two),
        "domain-1d-on-2d": on2([grid_box(g)], one),
        "pool-nan": on1([grid_box(f), box((math.nan,), (1.0,))]),
        "pool-inf": on2([grid_box(g), box((-1.0, -math.inf), (1.0, 1.0))]),
        "domain-nan": on2([grid_box(g)], box((-1.0, -1.0), (1.0, math.nan))),
        "domain-inf": on1([grid_box(f)], box((-math.inf,), (1.0,))),
        "pool-hi-below-lo": on1([grid_box(f), box((1.0,), (-1.0,))]),
        "pool-empty-2d": on2([grid_box(g), box((-1.0, 0.5), (1.0, 0.5))]),
        "domain-hi-below-lo": on2([grid_box(g)], box((1.0, -1.0), (-1.0, 1.0))),
        "pool-not-square": on2([grid_box(g), box((-1.0, -0.5), (1.0, 0.5))]),
        "pool-side-overflow": on1([grid_box(f), box((-1e308,), (1e308,))]),
        "domain-side-overflow": on2([grid_box(g)], box((-1e308, -1e308), (1e308, 1e308))),
        "pool-dilate-overflow": on1([grid_box(f), box((1e308,), (1.5e308,))]),
        "pool-ragged": on1([[(-2.0,), (2.0, 1.0)]]),
        "pool-ragged-tuple": on2((((-2.0, -2.0), (2.0, 2.0)), ((0.0,), (1.0, 1.0)))),
        "pool-ndarray-flat": on1(np.array([-2.0, 2.0])),
        "pool-ndarray-2d-on-1d": on1(np.zeros((3, 2, 2))),
        "pool-ndarray-no-pair": on2(np.zeros((3, 3, 2))),
        "pool-one-box-not-a-pool": on1(grid_box(f)),
        "pool-strings": on1([[("a",), ("b",)]]),
        "pool-numeric-strings": on1([[("-2",), ("2",)]]),
        "pool-none": on1([[(None,), (2.0,)]]),
        "pool-complex": on1([[(-2.0 + 0j,), (2.0,)]]),
        "domain-tuple-2d-on-1d": on1([grid_box(f)], ((-1.0, -1.0), (1.0, 1.0))),
        "domain-tuple-ragged": on2([grid_box(g)], ((-1.0,), (1.0, 1.0))),
        "domain-ndarray-pool-shaped": on1([grid_box(f)], np.array([grid_box(f)])),
        "domain-strings": on1([grid_box(f)], (("x",), ("y",))),
    }[case]


class TestBoxGate:
    """Malformed pool and domain boxes of `lerner_maximal` fail with a named
    error before the evaluator or the pool loop starts, on both methods."""

    @pytest.mark.parametrize("method", ["auto", "direct"])
    @pytest.mark.parametrize("case, error, match", [
        ("pool-2d-on-1d", GridError, r"expected \(boxes, 2, "),
        ("pool-1d-on-2d", GridError, r"expected \(boxes, 2, "),
        ("domain-2d-on-1d", GridError, r"expected \(boxes, 2, "),
        ("domain-1d-on-2d", GridError, r"expected \(boxes, 2, "),
        ("pool-nan", ParameterError, "finite"),
        ("pool-inf", ParameterError, "finite"),
        ("domain-nan", ParameterError, "finite"),
        ("domain-inf", ParameterError, "finite"),
        ("pool-hi-below-lo", ParameterError, "hi > lo"),
        ("pool-empty-2d", ParameterError, "hi > lo"),
        ("domain-hi-below-lo", ParameterError, "hi > lo"),
        ("pool-not-square", ParameterError, "cubes"),
        ("pool-side-overflow", ParameterError, "side overflows"),
        ("domain-side-overflow", ParameterError, "side overflows"),
        ("pool-dilate-overflow", ParameterError, "3-dilate overflows"),
        ("pool-ragged", GridError, "ragged"),
        ("pool-ragged-tuple", GridError, "ragged"),
        ("pool-ndarray-flat", GridError, r"shape \(2,\)"),
        ("pool-ndarray-2d-on-1d", GridError, r"expected \(boxes, 2, 1\)"),
        ("pool-ndarray-no-pair", GridError, r"expected \(boxes, 2, 2\)"),
        ("pool-one-box-not-a-pool", GridError, r"shape \(2, 1\)"),
        ("pool-strings", ParameterError, "real numbers"),
        ("pool-numeric-strings", ParameterError, "real numbers"),
        ("pool-none", ParameterError, "real numbers"),
        ("pool-complex", ParameterError, "real numbers"),
        ("domain-tuple-2d-on-1d", GridError, r"expected \(boxes, 2, 1\)"),
        ("domain-tuple-ragged", GridError, "ragged"),
        ("domain-ndarray-pool-shaped", GridError, r"shape \(1, 1, 2, 1\)"),
        ("domain-strings", ParameterError, "real numbers"),
    ])
    def test_malformed_box_is_a_named_error(self, monkeypatch, case, error, match, method):
        from lpsq import operators as ops

        def started(*a, **kw):
            raise AssertionError("the work started before the boxes were checked")

        monkeypatch.setattr(ops.SquareEvaluator, "of", started)
        monkeypatch.setattr(ops, "_lerner_pool_loop", started)
        with pytest.raises(error, match=match):
            _box_gate_call(case, method)()

    @pytest.mark.parametrize("method", ["auto", "direct"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_list_tuple_and_array_boxes_agree(self, n, method):
        """A pool and a domain are corner arrays in any array-like form: a
        list of (2, n) arrays, nested tuples and one ndarray give the same
        bits."""
        from lpsq.dyadic import Cube, dyadic_cube_pool

        k = parse_kernel("ex1:kappa=3", n)
        h = 0.5 if n == 1 else 1.0
        f = GridFunction(n, 4.0, h, np.random.default_rng(n).standard_normal((int(8 / h),) * n))
        cone = build_cone(1.0, n, h, 2 * h, 8.0, 2)
        root = Cube(n, 1, (0,) * n, "standard", 2 * f.R)
        pool, node = dyadic_cube_pool(root, f), root.box()
        forms = [(pool, node), (list(pool), node.tolist()),
                 (tuple(tuple(map(tuple, b)) for b in pool.tolist()),
                  tuple(map(tuple, node.tolist())))]
        outs = [lerner_maximal(k, f, cone, "M_S", p, method=method, domain=d).values
                for p, d in forms]
        assert all(np.array_equal(outs[0], o) for o in outs[1:])

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("pool", [[], (), "array"])
    def test_empty_pool_is_a_coverage_error(self, monkeypatch, n, pool):
        from lpsq import operators as ops
        from lpsq.errors import CoverageError

        def started(*a, **kw):
            raise AssertionError("the work started on an empty pool")

        monkeypatch.setattr(ops.SquareEvaluator, "of", started)
        f = GridFunction(n, 2.0, 0.5, np.ones((8,) * n))
        cone = build_cone(1.0, n, 0.5, 1.0, 4.0, 2)
        with pytest.raises(CoverageError, match="empty cube pool"):
            lerner_maximal(parse_kernel("ex1:kappa=3", n), f, cone, "M_S",
                           np.empty((0, 2, n)) if pool == "array" else pool)

    @given(st.integers(min_value=1, max_value=2),
           st.sampled_from(["cell_ranges", "pool", "domain"]),
           st.sampled_from(["ndim", "n", "ragged", "string", "nonfinite", "hi<=lo",
                            "unequal"]),
           st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=120)
    def test_malformed_boxes_never_reach_the_work(self, n, target, defect, nb, seed):
        """Random malformed box arrays, fed to `grids.cell_ranges` and as the
        pool or the domain of `lerner_maximal`, raise an `LpsqError` before
        any evaluator is asked for: of the wrong ndim or n, ragged, with a
        string, NaN or inf corner, hi <= lo on an axis, or (pool and
        cell_ranges, with their 3-dilates) a box with unequal sides."""
        from unittest import mock

        from lpsq import operators as ops
        from lpsq.errors import LpsqError

        if defect == "unequal" and (n == 1 or target == "domain"):
            defect = "hi<=lo"  # a 1-D box and a domain need not be cubes
        rng = np.random.default_rng(seed)
        lo = rng.uniform(-3.0, 1.0, (nb, n))
        boxes = np.stack((lo, lo + rng.uniform(0.25, 2.0, (nb, 1))), axis=1)
        # the domain is box 0
        b, ax = (0 if target == "domain" else int(rng.integers(nb))), int(rng.integers(n))
        side = 1 if rng.integers(2) else 0
        bad = boxes.tolist()
        if defect == "ndim":
            bad = boxes.reshape(nb, 2 * n) if rng.integers(2) else boxes[None]
        elif defect == "n":
            bad = np.concatenate((boxes, boxes[..., :1]), axis=2) if n == 1 else boxes[..., :1]
        elif defect == "ragged":
            bad[b][side] = bad[b][side] + [0.5]
        elif defect == "string":
            bad[b][side][ax] = rng.choice(["x", "1.0", "", "nan"])
        elif defect == "nonfinite":
            bad[b][side][ax] = float(rng.choice([math.nan, math.inf, -math.inf]))
        elif defect == "hi<=lo":
            bad[b][1][ax] = bad[b][0][ax] - float(rng.choice([0.0, 0.5]))
        else:
            bad[b][1][ax] = bad[b][0][ax] + (bad[b][1][0] - bad[b][0][0]) * float(
                rng.uniform(1.001, 2.0))
        k = parse_kernel("ex1:kappa=3", n)
        f = GridFunction(n, 4.0, 0.5, rng.standard_normal((16,) * n))
        cone = build_cone(1.0, n, 0.5, 1.0, 8.0, 2)
        whole = [grid_box(f)]
        call = {
            "cell_ranges": lambda: cell_ranges(f, bad, dilate=True, snap_outward=True),
            "pool": lambda: lerner_maximal(k, f, cone, "M_S", bad),
            "domain": lambda: lerner_maximal(
                k, f, cone, "M_S", whole,
                domain=bad if defect == "ndim" else bad[0]),
        }[target]

        def started(*a, **kw):
            raise AssertionError("the work started before the boxes were checked")

        with mock.patch.object(ops.SquareEvaluator, "of", started):
            with pytest.raises(LpsqError):
                call()

    @pytest.mark.parametrize("method", ["auto", "direct"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_huge_finite_box_covers_the_grid(self, n, method):
        """A pool cube of side 2e30 holds the grid and its 3-dilate holds
        supp f, so M_S is 0 on every cell, with no numpy warning."""
        import warnings

        k = parse_kernel("ex1:kappa=3", n)
        h = 0.25 if n == 1 else 0.5
        f = GridFunction(n, 2.0, h, np.random.default_rng(n).standard_normal((int(4 / h),) * n))
        cone = build_cone(1.0, n, h, 2 * h, 4.0, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lerner_maximal(k, f, cone, "M_S", [box((-1e30,) * n, (1e30,) * n)],
                                 method=method)
        assert np.all(out.values == 0.0)


def _hl_input(rng, N: int, kind: str) -> np.ndarray:
    """Constant input, or noise or zeros with zero runs and signed spikes."""
    if kind == "const":
        return np.full(N, rng.uniform(-3.0, 3.0))
    v = rng.standard_normal(N) if kind == "noise" else np.zeros(N)
    for _ in range(rng.integers(0, 4)):
        i = rng.integers(0, N)
        v[i : i + rng.integers(1, N // 4 + 2)] = 0.0
    cells = rng.integers(0, N, size=rng.integers(0, 5))
    v[cells] += rng.uniform(1.0, 50.0, cells.size) * rng.choice([-1.0, 1.0], cells.size)
    return v


def _window_loop(a: np.ndarray) -> np.ndarray:
    """The max over every window [i, j) through each cell, by a loop."""
    N = a.size
    c = np.concatenate([[0.0], np.cumsum(a)])
    out = a.copy()  # windows of one cell
    for i in range(N):
        for j in range(i + 2, N + 1):
            out[i:j] = np.maximum(out[i:j], (c[j] - c[i]) / (j - i))
    return out


class TestWindowMax:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=4),
           st.sampled_from([0, 1]), st.integers(min_value=0, max_value=2**31), st.data())
    @settings(max_examples=60)
    def test_equals_sliding_window_max(self, length, width, axis, seed, data):
        L = data.draw(st.integers(min_value=1, max_value=length))
        rng = np.random.default_rng(seed)
        shape = (length, width) if axis == 0 else (width, length)
        m = np.round(rng.standard_normal(shape), 1)  # ties included
        m[rng.random(shape) < 0.3] = -np.inf  # as the padding cells
        ref = sliding_window_view(m, L, axis=axis).max(-1)
        assert np.array_equal(_window_max(m, L, axis), ref)


def _window_loop_2d(a: np.ndarray) -> np.ndarray:
    """The max over every square window through each cell, by a loop."""
    N = a.shape[0]
    out = a.copy()
    for L in range(2, N + 1):
        for p in range(N - L + 1):
            for q in range(N - L + 1):
                win = out[p : p + L, q : q + L]
                np.maximum(win, a[p : p + L, q : q + L].sum() / L**2, out=win)
    return out


class TestMaximalHL2D:
    @pytest.mark.parametrize("N", [1, 2, 3, 5, 12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_window_loop(self, N, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((N, N)) * (rng.random((N, N)) < 0.5)
        v[rng.integers(0, N, 2), rng.integers(0, N, 2)] += 20.0
        hl = maximal(GridFunction(2, N / 16, 1.0 / 8, v), "hl").values
        assert np.allclose(hl, _window_loop_2d(np.abs(v)), rtol=0.0, atol=1e-12)
        assert np.all(hl >= np.abs(v))


class TestMaximalHL1D:
    """The hull-bridge 1-D Hardy-Littlewood maximal function against a loop
    over every window [i, j).  Bit for bit on integer-valued inputs, where
    the prefix sums and every comparison are exact.  Within 4 eps ||a||_1
    per cell on float inputs: the loop takes a float max over O(N^2)
    averages that tie to roundoff, and is itself accurate only to that
    scale."""

    @staticmethod
    def _hl(v: np.ndarray, exact: bool) -> np.ndarray:
        a = np.abs(v)
        hl = maximal(GridFunction(1, v.size / 16, 1.0 / 8, v), "hl").values
        loop = _window_loop(a)
        if exact:
            assert np.array_equal(hl, loop)
        else:
            assert np.all(np.abs(hl - loop) <= 4 * np.finfo(float).eps * a.sum())
        assert np.all(hl >= a)
        return hl

    @given(st.integers(min_value=1, max_value=96),
           st.sampled_from(["const", "noise", "spikes"]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_float_inputs_within_roundoff_of_window_loop(self, N, kind, seed):
        v = _hl_input(np.random.default_rng(seed), N, kind)
        self._hl(v, exact=False)

    @given(st.integers(min_value=1, max_value=96),
           st.sampled_from(["const", "noise", "spikes"]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_integer_inputs_equal_window_loop(self, N, kind, seed):
        self._hl(np.round(_hl_input(np.random.default_rng(seed), N, kind)), exact=True)

    @pytest.mark.parametrize("N", [1, 2, 5, 64])
    def test_constant(self, N):
        assert np.all(self._hl(np.full(N, 3.0), exact=True) == 3.0)
        self._hl(np.full(N, -0.7), exact=False)

    @pytest.mark.parametrize("N", [2, 17, 40])
    def test_geometric_every_point_a_hull_vertex(self, N):
        up = 2.0 ** np.arange(N)  # powers of two: c and the products stay exact
        self._hl(up, exact=True)
        self._hl(up[::-1].copy(), exact=True)
        self._hl(1.1 ** np.arange(N), exact=False)
        self._hl(1.1 ** -np.arange(N), exact=False)

    def test_zero_runs(self):
        self._hl(np.array([0, 0, 5, 0, 0, 0, 3, 0, 0, 1, 0, 0, 0, 0, 9, 0.0]), exact=True)

    def test_single_spike(self):
        v = np.zeros(32)
        v[11] = -7.0
        hl = self._hl(v, exact=True)
        assert np.array_equal(hl, 7.0 / (np.abs(np.arange(32) - 11) + 1))

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_every_small_integer_input(self, N):
        for v in itertools.product(range(-2, 4), repeat=N):
            self._hl(np.array(v, dtype=float), exact=True)

    @pytest.mark.parametrize("N", [1, 2, 3, 50])
    def test_zero_input_gives_exact_zero(self, N):
        assert np.all(self._hl(np.zeros(N), exact=True) == 0.0)
