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
from lpsq.grids import Box, GridFunction, build_cone, build_halfspace, sample_function
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
        out = lerner_maximal(ex1, z, cone_coarse, "M_S", [gauss_grid.box()])
        assert np.all(out.values == 0.0)

    def test_ms_arithmetic_bound(self, ex1, cone_coarse, gauss_grid):
        """M_S <= 2 sqrt(N_S (N_S + S)), N_S f(x) the sup over the pool
        cubes Q containing x of S(f 1_{outside 3Q})(x)."""
        from lpsq.operators import _box_mask

        rng = np.random.default_rng(3)
        f = gauss_grid.with_values(rng.uniform(-1, 1, gauss_grid.ncells))
        pool = [Box((a,), (a + w,)) for a, w in
                [(-8.0, 16.0), (-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0), (1.0, 2.0)]]
        ms = lerner_maximal(ex1, f, cone_coarse, "M_S", pool)
        ns = np.full(f.ncells, -np.inf)
        for q in pool:
            outside = 1.0 - _box_mask(f, q.dilate(3.0), snap_outward=True)
            s_out = square_function(ex1, f.with_values(f.values * outside), cone_coarse)
            sel = _box_mask(f, q).astype(bool)
            ns[sel] = np.maximum(ns[sel], s_out.values[sel])
        s = square_function(ex1, f, cone_coarse)
        bound = 2.0 * np.sqrt(ns * (ns + s.values))
        assert np.max(ms.values - bound) <= 1e-9

    def test_other_variant_is_parameter_error(self, ex1, cone_coarse, gauss_grid):
        for variant in ("N_S", "m_s", None):
            with pytest.raises(ParameterError, match="M_S"):
                lerner_maximal(ex1, gauss_grid, cone_coarse, variant, [gauss_grid.box()])

    def test_domain_defaults_to_own_box(self, ex1, cone_coarse, gauss_grid):
        """domain=None is f's box: the same bits, and the same coverage rule."""
        from lpsq.errors import CoverageError

        rng = np.random.default_rng(4)
        f = gauss_grid.with_values(rng.uniform(-1, 1, gauss_grid.ncells))
        pool = [f.box(), Box((-2.0,), (2.0,)), Box((0.0,), (1.0,))]
        for m in (None, "direct"):
            own, boxed = (lerner_maximal(ex1, f, cone_coarse, "M_S", pool, method=m,
                                         domain=d).values for d in (None, f.box()))
            assert np.array_equal(own, boxed)
        for d in (None, f.box()):
            with pytest.raises(CoverageError, match="domain cells"):
                lerner_maximal(ex1, f, cone_coarse, "M_S", pool[1:], domain=d)

    def test_coverage_error(self, ex1, cone_coarse, gauss_grid):
        from lpsq.errors import CoverageError

        pool = [Box((0.0,), (1.0,))]  # leaves most of the box uncovered
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
        from lpsq.operators import _box_ranges

        g = GridFunction(1, 4.0, 0.1, np.zeros(80))
        for snap, want in ((False, 5), (True, 6)):
            boxes = []
            for m in range(10, 60):  # interior, lattice-aligned boxes
                lo = -4.0 + 0.1 * m
                boxes.append(Box((lo,), (lo + 0.5,)))
            i0, i1 = _box_ranges(g, boxes, snap)
            assert set((i1 - i0)[:, 0].tolist()) == {want}

    def test_dyadic_h_matches_center_rule(self):
        from lpsq.operators import _box_mask

        g = GridFunction(1, 4.0, 1.0 / 8, np.zeros(64))
        c = g.axis_centers()
        rng = np.random.default_rng(0)
        boxes = [Box((a,), (a + w,)) for a, w in
                 zip(rng.integers(-40, 40, 60) / 8.0, rng.integers(1, 24, 60) / 8.0)]
        boxes += [b.dilate(3.0) for b in boxes]
        for b in boxes:
            for snap in (False, True):
                eps = g.h / 2 if snap else 0.0
                want = ((c >= b.lo[0] - eps) & (c < b.hi[0] + eps)).astype(float)
                assert np.array_equal(_box_mask(g, b, snap), want)


class TestLernerBatched:
    """The batched M_S path in 1-D against the per-cube pool loop, and
    what n = 1 and n = 2 share."""

    @staticmethod
    def _pair(monkeypatch, k, f, cone, variant, pool, domain=None):
        from lpsq import operators as ops

        batched = ops._lerner_batched
        calls = []
        with monkeypatch.context() as m:
            m.setattr(ops, "_lerner_batched", lambda *a: calls.append(1) or batched(*a))
            fast = lerner_maximal(k, f, cone, variant, pool, domain=domain).values
        assert calls  # the batched path ran
        with monkeypatch.context() as m:
            m.setattr(ops, "_lerner_batched",
                      lambda ev, f, pool: ops._lerner_pool_loop(
                          ev.k, f, cone, pool, None))
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
        whole = dyadic_cube_pool(Cube(1, 0, (-1,), "standard", 2 * f.R), f) + \
            dyadic_cube_pool(Cube(1, 0, (0,), "standard", 2 * f.R), f)
        self._close(*self._pair(monkeypatch, ex1, f, cone, variant, whole))

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_arbitrary_boxes(self, monkeypatch, ex1, cone_coarse, gauss_grid,
                             variant):
        rng = np.random.default_rng(3)
        f = gauss_grid.with_values(rng.uniform(-1, 1, gauss_grid.ncells))
        five = [Box((a,), (a + w,)) for a, w in
                [(-8.0, 16.0), (-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0), (1.0, 2.0)]]
        self._close(*self._pair(monkeypatch, ex1, f, cone_coarse, variant, five))
        # off-lattice boxes, several of one shape, some sticking out of the grid
        lo = rng.uniform(-9.0, 7.0, 40)
        odd = [Box((a,), (a + w,)) for a, w in zip(lo, rng.choice([0.3, 1.7], 40))]
        self._close(*self._pair(monkeypatch, ex1, f, cone_coarse, variant,
                                five + odd))

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_exact_zero_where_3q_covers_support(self, ex1, variant):
        rng = np.random.default_rng(5)
        c = (np.arange(128) + 0.5) / 16 - 4.0
        vals = np.where(np.abs(c) < 1.0, rng.standard_normal(128), 0.0)
        f = GridFunction(1, 4.0, 1.0 / 16, vals)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        q = Box((-0.5,), (0.5,))  # 3Q = [-1.5, 1.5) holds supp f
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

    def test_shared_evaluator(self):
        """M_S through a kernel whose layout plan is warm (Gram table
        and the block spectra of other shapes built by an earlier call) are
        the bits of a freshly parsed kernel's."""
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
                warm, fresh = (lerner_maximal(kk, masked, cone, "M_S", pool,
                                              method=m, domain=root.box()).values
                               for kk in (k, parse_kernel("ex1:kappa=3", n)))
                assert np.array_equal(warm, fresh)

    @pytest.mark.parametrize("n", [1, 2])
    def test_sparse_construct_takes_batched_path(self, monkeypatch, n):
        from lpsq import operators as ops
        from lpsq.dyadic import Cube, sparse_construct

        calls = []
        batched = ops._lerner_batched
        monkeypatch.setattr(ops, "_lerner_batched",
                            lambda *a: calls.append(1) or batched(*a))
        monkeypatch.setattr(ops, "_lerner_pool_loop", None)  # never reached
        k = parse_kernel("ex1:kappa=3", n)
        f = _spikes(np.random.default_rng(1), n, 4.0, 0.5 if n == 2 else 1.0 / 16)
        cone = build_cone(1.0, n, f.h, 2 * f.h, 2 * f.R, 4)
        sparse_construct(k, f, Cube(n, 1, (0,) * n, "standard", 2 * f.R), 1.0, cone)
        assert calls


class TestLernerPlan:
    """The transforms and profile samples of one batched Lerner call, with
    every group on the FFT path (s_max forced to 0) and a small chunk."""

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
        monkeypatch.setattr(ev, "s_max", 0)
        # per shape key: one window rfftn per (FFT length, chunk of cubes),
        # one block rfftn per level; level_values: one per distinct length
        windows = 0
        groups = ops._lerner_groups(f, pool, np.full(f.values.shape, -np.inf))
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
        assert len(profiles) == len(ev.levels)
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
            m.setattr(ops, "_lerner_batched",
                      lambda ev, f, pool: ops._lerner_pool_loop(
                          ev.k, f, cone, pool, None))
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
        fixed = [Box((-2.0, 0.0), (0.0, 1.0)), Box((1.0, -3.0), (2.0, -1.0))]
        # off-lattice boxes, several of one shape, some sticking out of the
        # grid: on both sides, then only on the low side
        rng = np.random.default_rng(3)
        for cover, lo_range in ((Box((-5.0, -4.5), (5.0, 4.5)), (-5.0, 4.0)),
                                (Box((-4.0, -4.0), (4.0, 4.0)), (-5.5, 2.5))):
            lo = rng.uniform(*lo_range, (30, 2))
            side = rng.choice([0.3, 1.7], (30, 2))
            odd = [Box(tuple(a), tuple(a + w)) for a, w in zip(lo, side)]
            self._close(*self._pair(monkeypatch, k, f, cone, variant,
                                    [cover] + fixed + odd))

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_exact_zero_where_3q_covers_support(self, variant):
        k, f, cone = self._setup(16, 5)
        c = f.axis_centers()
        inside = (np.abs(c)[:, None] < 1.0) & (np.abs(c)[None, :] < 1.0)
        f = f.with_values(np.where(inside, f.values, 0.0))
        q = Box((-0.5, -0.5), (0.5, 0.5))  # 3Q = [-1.5, 1.5)^2 holds supp f
        out = lerner_maximal(k, f, cone, variant, [q], domain=q)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("variant", ["M_S"])
    def test_one_cell_past_3q_is_not_zero(self, monkeypatch, variant):
        from lpsq.operators import _box_ranges

        k, f, cone = self._setup(16, 5)
        q = Box((-0.5, -0.5), (0.5, 0.5))
        (i0, j0), (i1, j1) = (r[0] for r in _box_ranges(f, [q], True, 3.0))
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
    pool loop, each branch forced through the evaluator's s_max."""

    @staticmethod
    def _setup(n, N, seed, R=4.0):
        k = parse_kernel("ex1:kappa=3", n)
        h = 2 * R / N
        f = GridFunction(n, R, h, np.random.default_rng(seed).standard_normal((N,) * n))
        return k, f, build_cone(1.0, n, h, 2 * h, 2 * R, 4)

    @staticmethod
    def _forced(monkeypatch, k, f, cone, pool, s_max, domain=None):
        """M_S with the evaluator's s_max forced, the shape keys that took
        the Gram form, and the pool-loop oracle."""
        from dataclasses import replace

        from lpsq import operators as ops

        k = replace(k)  # a kernel object of its own, so the plan is cold
        ev = SquareEvaluator.of(k, f, cone)
        monkeypatch.setattr(ev, "s_max", s_max)
        keys = []
        gram = ops._gram_form
        with monkeypatch.context() as m:
            m.setattr(ops, "_gram_form", lambda ev, key, *a: keys.append(key) or gram(ev, key, *a))
            fast = lerner_maximal(k, f, cone, "M_S", pool, domain=domain).values
        with monkeypatch.context() as m:
            m.setattr(ops, "_lerner_batched",
                      lambda ev, f, pool: ops._lerner_pool_loop(
                          ev.k, f, cone, pool, None))
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
            for s_max in (0, large):
                fast, keys, slow = self._forced(monkeypatch, k, f, cone, pool, s_max, domain)
                TestLernerBatched._close(fast, slow)
                sides = {s for key in keys for _, s, _ in key}
                assert {1, 2, 3} <= sides <= set(range(1, large + 1)) if s_max else not keys

    @pytest.mark.parametrize("n", [1, 2])
    def test_off_lattice_and_out_of_table_shapes(self, monkeypatch, n):
        from lpsq.operators import _gram_takes, _lerner_groups

        k, f, cone = self._setup(n, 32 if n == 1 else 16, 3)
        rng = np.random.default_rng(3)
        lo = rng.uniform(-5.0, 4.0, (40, n))
        sides = rng.choice([0.3, 0.7, 1.7], (40, n))
        odd = [Box(tuple(a), tuple(a + w)) for a, w in zip(lo, sides)]
        # Q clipped at the grid edge: 3Q reaches past the table's offsets
        edge = [Box((-4.5,) * n, (-3.5,) * n), Box((3.25,) * n, (4.25,) * n)]
        pool = [f.box()] + odd + edge
        fast, keys, slow = self._forced(monkeypatch, k, f, cone, pool, 2)
        TestLernerBatched._close(fast, slow)
        assert keys
        ev = SquareEvaluator(k, f, cone)
        monkeypatch.setattr(ev, "s_max", 2)
        groups = _lerner_groups(f, pool, np.full(f.values.shape, -np.inf))
        small = [key for key in groups if max(s for _, s, _ in key) <= 2]
        assert any(not _gram_takes(ev, key) for key in small)

    @pytest.mark.parametrize("n", [1, 2])
    def test_exact_zero(self, monkeypatch, n):
        k, f, cone = self._setup(n, 32 if n == 1 else 16, 5)
        c = f.axis_centers()
        inside = np.all(np.abs(np.stack(np.meshgrid(*(c,) * n, indexing="ij"))) < 1.0, axis=0)
        g = f.with_values(np.where(inside, f.values, 0.0))
        q = Box((-0.5,) * n, (0.5,) * n)  # 3Q = [-1.5, 1.5)^n holds supp g
        z = f.with_values(np.zeros_like(f.values))
        for h, pool in ((g, [q]), (z, [f.box(), q])):
            fast, _, _ = self._forced(monkeypatch, k, h, cone, pool, 4, domain=q)
            assert np.all(fast == 0.0)

    @pytest.mark.parametrize("rows", [None, 7])
    @pytest.mark.parametrize("s_max", [1, 2])
    @pytest.mark.parametrize("n, N", [(1, 64), (2, 16)])
    def test_gram_table_matches_explicit_sums(self, monkeypatch, n, N, s_max, rows):
        """A[p, q] = sum_j meas_j sum_{m in D_j} k_j(m + p) k_j(m + q), with
        D_j the level's `ConeGrid.stencil`, summed offset by offset."""
        from lpsq import operators as ops

        k, f, cone = self._setup(n, N, 0)
        if rows is not None:  # a 7-row buffer: stencil rows straddle its flushes
            monkeypatch.setattr(ops, "_LERNER_CHUNK", rows * (4 * s_max) ** n)
        ev = SquareEvaluator(k, f, cone)
        monkeypatch.setattr(ev, "s_max", s_max)
        A, lo, P = ev.gram_table()
        assert (lo, P) == (1 - 2 * s_max, 4 * s_max)
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
            (ev.s_max, key)) or gram(ev, key, *a))
        monkeypatch.setattr(dyadic, "_lerner_keep", lambda f, floc, lo, hi, gain, thr0:
                            np.ones(len(lo), dtype=bool))
        k = parse_kernel("ex1:kappa=3", 2)
        f = _spikes(np.random.default_rng(1), 2, 4.0, 0.5)  # 16 x 16
        cone = build_cone(1.0, 2, f.h, 2 * f.h, 2 * f.R, 4)
        sparse_construct(k, f, Cube(2, 1, (0, 0), "standard", 2 * f.R), 1.0, cone)
        assert {s_max for s_max, _ in seen} == {3}
        assert {s for _, key in seen for _, s, _ in key} == {1, 2, 3}


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
