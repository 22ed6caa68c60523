import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsq.errors import (
    DisjointnessError,
    GeometryError,
    GridError,
    ParameterError,
)
from lpsq.grids import Box, GridFunction, build_cone, build_halfspace, sample_function
from lpsq.kernels import bilinear_example_kernel, parse_kernel
from lpsq.moduli import power_modulus
from lpsq.operators import (
    SquareEvaluator,
    far_field_majorant,
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
        f = psi_t_apply(ex1, gauss_grid, 0.7, method="fft")
        rel = np.max(np.abs(d.values - f.values)) / np.max(np.abs(d.values))
        assert rel <= 1e-12

    def test_unknown_method_rejected(self, ex1, gauss_grid):
        with pytest.raises(ParameterError, match="unknown method"):
            psi_t_apply(ex1, gauss_grid, 0.7, method="fast")

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
            i = f.index_of(xq)[0]
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
        ff = psi_t_apply(k, f, 1.0, method="fft")
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
            i = hat.index_of(x)[0]
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
        i, j = f.index_of((0.375, -0.625))
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
        cascade, _ = g_star_cascade_bound(ex1, gauss_grid, lam, hs, n_terms=9)
        ratio = gs.values / np.maximum(cascade.values, 1e-300)
        assert np.max(ratio) <= 1.0 + 1e-10


class TestMaximal:
    def test_constant(self):
        c = sample_function(lambda x: np.ones_like(x), 1, 2.0, 0.25)
        assert np.allclose(maximal(c, "hl").values, 1.0)

    def test_indicator_values(self):
        g = sample_function(lambda x: ((x >= 0) & (x < 1)).astype(float), 1, 8.0,
                            1.0 / 16)
        M = maximal(g, "hl")
        x2 = g.index_of(2.0)[0]
        assert M.values[x2] == pytest.approx(0.5, abs=g.h)
        x6 = g.index_of(6.0)[0]
        assert M.values[x6] == pytest.approx(1.0 / 6.0, abs=g.h)

    def test_dyadic_indicator(self):
        g = sample_function(lambda x: ((x >= 0) & (x < 1)).astype(float), 1, 8.0,
                            1.0 / 16)
        D = maximal(g, "dyadic")
        x15 = g.index_of(1.5)[0]
        assert D.values[x15] == pytest.approx(0.5)  # best cube [0, 2)
        x3 = g.index_of(3.0)[0]
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
            xi = g.index_of(x)[0]
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
        g = sample_function(lambda x: ((x >= 0) & (x < 1)).astype(float), 1, 4.0, 0.25)
        M2 = maximal(g, "powered", kappa=2.0)
        M1 = maximal(g, "hl")
        assert np.all(M2.values >= M1.values - 1e-14)  # kappa=2 dominates kappa=1

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
        pool = [gauss_grid.box()]
        for variant in ("M_S", "N_S"):
            out = lerner_maximal(ex1, z, cone_coarse, variant, pool)
            assert np.all(out.values == 0.0)

    def test_single_cube_ns_zero(self, ex1):
        f = sample_function(lambda x: np.exp(-4 * x**2), 1, 4.0, 1.0 / 16)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 2)
        q = Box((-2.0,), (2.0,))  # 3Q = [-6, 6) covers supp f up to tails
        ns = lerner_maximal(ex1, f, cone, "N_S", [f.box(), q])
        sel = np.abs(f.axis_centers()) < 2.0
        # f has Gaussian tails; 3Q covers the box except |x| > 6
        tail_mass = float(np.sum(np.abs(f.values[np.abs(f.axis_centers()) >= 6.0])))
        assert tail_mass == 0.0 or np.max(ns.values[sel]) <= 1e-12

    def test_ms_arithmetic_bound(self, ex1, cone_coarse, gauss_grid):
        rng = np.random.default_rng(3)
        f = gauss_grid.with_values(rng.uniform(-1, 1, gauss_grid.ncells))
        pool = [Box((a,), (a + w,)) for a, w in
                [(-8.0, 16.0), (-2.0, 2.0), (0.0, 1.0), (-1.0, 3.0), (1.0, 2.0)]]
        ms = lerner_maximal(ex1, f, cone_coarse, "M_S", pool)
        ns = lerner_maximal(ex1, f, cone_coarse, "N_S", pool)
        s = square_function(ex1, f, cone_coarse)
        bound = 2.0 * np.sqrt(ns.values * (ns.values + s.values))
        assert np.max(ms.values - bound) <= 1e-9

    def test_coverage_error(self, ex1, cone_coarse, gauss_grid):
        from lpsq.errors import CoverageError

        pool = [Box((0.0,), (1.0,))]  # leaves most of the box uncovered
        with pytest.raises(CoverageError):
            lerner_maximal(ex1, gauss_grid, cone_coarse, "M_S", pool)


@pytest.fixture(scope="module")
def haar():
    f = sample_function(lambda x: np.zeros_like(x), 1, 4.0, 1.0 / 16)
    c = f.axis_centers()
    v = np.zeros_like(c)
    v[(c >= 0) & (c < 0.5)] = 1.0
    v[(c >= 0.5) & (c < 1.0)] = -1.0
    return f.with_values(v)


class TestFarField:

    def test_zero_b(self, ex1, haar):
        z = haar.with_values(np.zeros_like(haar.values))
        assert far_field_majorant(ex1, z, Box((0.0,), (1.0,)), 200.0) == 0.0

    def test_homogeneous(self, ex1, haar):
        q = Box((0.0,), (1.0,))
        m1 = far_field_majorant(ex1, haar, q, 200.0)
        m2 = far_field_majorant(ex1, haar.with_values(2 * haar.values), q, 200.0)
        assert m2 == pytest.approx(2.0 * m1, rel=1e-12)

    def test_distance_precondition(self, ex1, haar):
        with pytest.raises(GeometryError):
            far_field_majorant(ex1, haar, Box((0.0,), (1.0,)), 10.0)

    def test_mean_zero_required(self, ex1, haar):
        bad = haar.with_values(np.abs(haar.values))
        with pytest.raises(ParameterError):
            far_field_majorant(ex1, bad, Box((0.0,), (1.0,)), 200.0)

    def test_majorant_dominates_s1(self, ex1, haar):
        # S_1 b at far points by direct evaluation; fitted C = max ratio
        q = Box((0.0,), (1.0,))
        cone = build_cone(1.0, 1, haar.h, 2 * haar.h, 4096.0, 4)
        cs = []
        for x in (150.0, 200.0, 400.0, 800.0):
            s = square_function_at(ex1, haar, np.array([x]), cone)
            m = far_field_majorant(ex1, haar, q, x)
            assert math.isfinite(m) and m > 0
            cs.append(s / m)
        assert max(cs) < 1.0  # the majorant indeed dominates
        assert max(cs) / min(cs) <= 4.0  # log-loose bound; see decisions ledger


class TestMarcinkiewicz:
    def test_empty(self):
        w = power_modulus(1.0)
        assert marcinkiewicz_fw(w, [], x=(0.0,)) == 0.0

    def test_single_cube_center(self):
        w = power_modulus(1.0)
        val = marcinkiewicz_fw(w, [((0.0,), 1.0, 1.0)], x=(0.0,))
        assert val == pytest.approx(1.0)

    def test_overlap_rejected(self):
        w = power_modulus(1.0)
        with pytest.raises(DisjointnessError):
            marcinkiewicz_fw(w, [((0.0,), 1.0, 1.0), ((1.5,), 1.0, 1.0)], x=(0.0,))

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
        from lpsq.operators import _box_range

        g = GridFunction(1, 4.0, 0.1, np.zeros(80))
        for snap, want in ((False, 5), (True, 6)):
            counts = set()
            for m in range(10, 60):  # interior, lattice-aligned boxes
                lo = -4.0 + 0.1 * m
                ((i0, i1),) = _box_range(g, Box((lo,), (lo + 0.5,)), snap)
                counts.add(i1 - i0)
            assert counts == {want}

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


    def test_vectorized_ranges_equal_scalar(self):
        from lpsq.dyadic import Cube, dyadic_cube_pool
        from lpsq.operators import _box_range, _box_ranges

        rng = np.random.default_rng(4)
        cases = []
        for n, N in ((1, 64), (2, 16)):  # dyadic pools at dyadic h
            g = GridFunction(n, 4.0, 8.0 / N, np.zeros((N,) * n))
            cases.append((g, dyadic_cube_pool(Cube(n, 1, (0,) * n, "standard", 8.0), g)))
            g = GridFunction(n, 4.0, 0.1, np.zeros((80,) * n))  # off-lattice at h = 0.1
            lo = rng.uniform(-5.0, 4.0, (40, n))
            cases.append((g, [Box(tuple(a), tuple(a + rng.uniform(0.05, 3.0)))
                              for a in lo]))
            # on the h = 0.1 lattice, where the 1e-9 rounding decides
            lo = -4.0 + 0.1 * rng.integers(0, 75, (40, n))
            cases.append((g, [Box(tuple(a), tuple(a + 0.1 * rng.integers(1, 6)))
                              for a in lo]))
        for g, boxes in cases:
            for snap in (False, True):
                for factor in (None, 3.0):
                    want = np.array([_box_range(g, b if factor is None else b.dilate(factor),
                                                snap) for b in boxes])
                    got = _box_ranges(g, boxes, snap, factor)
                    assert np.array_equal(np.stack(got, axis=-1), want)


class TestLernerBatched:
    """The batched M_S / N_S path in 1-D against the per-cube pool loop, and
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
                      lambda ev, f, v, pool: ops._lerner_pool_loop(
                          ev.k, f, ev.cone, v, pool, None, ev))
            slow = lerner_maximal(k, f, cone, variant, pool, domain=domain).values
        return fast, slow

    @staticmethod
    def _close(fast, slow, tol=1e-10):
        assert np.max(np.abs(fast - slow)) <= tol * max(np.max(np.abs(slow)), 1e-300)

    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
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

    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
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

    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
    def test_exact_zero_where_3q_covers_support(self, ex1, variant):
        rng = np.random.default_rng(5)
        c = (np.arange(128) + 0.5) / 16 - 4.0
        vals = np.where(np.abs(c) < 1.0, rng.standard_normal(128), 0.0)
        f = GridFunction(1, 4.0, 1.0 / 16, vals)
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        q = Box((-0.5,), (0.5,))  # 3Q = [-1.5, 1.5) holds supp f
        out = lerner_maximal(ex1, f, cone, variant, [q], domain=q)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
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
        for variant in ("M_S", "N_S"):
            fast, direct = (lerner_maximal(ex1, f, cone, variant, pool, method=m,
                                           domain=root.box()).values
                            for m in ("auto", "direct"))
            self._close(fast, direct)

    def test_shared_evaluator(self, ex1):
        from lpsq.dyadic import Cube, dyadic_cube_pool

        k2 = parse_kernel("ex1:kappa=3", 2)
        for k, f in ((ex1, _spikes(np.random.default_rng(9), 1, 2.0, 1.0 / 16)),
                     (k2, _spikes(np.random.default_rng(9), 2, 2.0, 0.5))):
            cone = build_cone(1.0, f.n, f.h, 2 * f.h, 2 * f.R, 4)
            root = Cube(f.n, 1, (0,) * f.n, "standard", 2 * f.R)
            pool = dyadic_cube_pool(root, f)
            masked = f.with_values(f.values * (f.values > 0))
            for m in (None, "direct"):
                ev = SquareEvaluator(k, f, cone, method=m)
                # a used evaluator (Gram table built) gives the same bits
                lerner_maximal(k, f, cone, "M_S", dyadic_cube_pool(root.children()[0], f),
                               method=m, evaluator=ev, domain=root.children()[0].box())
                for variant in ("M_S", "N_S"):
                    own, shared = (lerner_maximal(k, masked, cone, variant, pool,
                                                  method=m, domain=root.box(),
                                                  evaluator=e).values
                                   for e in (None, ev))
                    assert np.array_equal(own, shared)
            with pytest.raises(ParameterError, match="evaluator"):
                lerner_maximal(k, f, cone, "M_S", pool, method="direct",
                               evaluator=SquareEvaluator(k, f, cone))
            with pytest.raises(ParameterError, match="evaluator"):
                lerner_maximal(k, f, cone.with_alpha(2.0), "M_S", pool,
                               evaluator=SquareEvaluator(k, f, cone))

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


class TestLernerBatched2D:
    """The batched 2-D M_S / N_S path against the per-cube pool loop."""

    _pair = staticmethod(TestLernerBatched._pair)
    _close = staticmethod(TestLernerBatched._close)

    @staticmethod
    def _setup(N, seed, R=4.0):
        k = parse_kernel("ex1:kappa=3", 2)
        h = 2 * R / N
        f = GridFunction(2, R, h, np.random.default_rng(seed).standard_normal((N, N)))
        return k, f, build_cone(1.0, 2, h, 2 * h, 2 * R, 4)

    @pytest.mark.parametrize("chunk", [None, 256])
    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
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

    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
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

    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
    def test_exact_zero_where_3q_covers_support(self, variant):
        k, f, cone = self._setup(16, 5)
        c = f.axis_centers()
        inside = (np.abs(c)[:, None] < 1.0) & (np.abs(c)[None, :] < 1.0)
        f = f.with_values(np.where(inside, f.values, 0.0))
        q = Box((-0.5, -0.5), (0.5, 0.5))  # 3Q = [-1.5, 1.5)^2 holds supp f
        out = lerner_maximal(k, f, cone, variant, [q], domain=q)
        assert np.all(out.values == 0.0)

    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
    def test_one_cell_past_3q_is_not_zero(self, monkeypatch, variant):
        from lpsq.operators import _box_range

        k, f, cone = self._setup(16, 5)
        q = Box((-0.5, -0.5), (0.5, 0.5))
        (i0, i1), (j0, j1) = _box_range(f, q.dilate(3.0), snap_outward=True)
        vals = np.zeros_like(f.values)
        vals[i0:i1, j0:j1] = f.values[i0:i1, j0:j1]
        vals[i1, j1 - 1] = 1.0  # the one cell of supp f outside 3Q
        fast, slow = self._pair(monkeypatch, k, f.with_values(vals), cone, variant,
                                [q], domain=q)
        self._close(fast, slow)
        assert np.max(slow) > 0.0

    @pytest.mark.parametrize("variant", ["M_S", "N_S"])
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
        for variant in ("M_S", "N_S"):
            fast, direct = (lerner_maximal(k, f, cone, variant, pool, method=m,
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
        from lpsq import operators as ops

        ev = SquareEvaluator(k, f, cone)
        monkeypatch.setattr(ev, "s_max", s_max)
        keys = []
        gram = ops._gram_form
        with monkeypatch.context() as m:
            m.setattr(ops, "_gram_form", lambda ev, key, *a: keys.append(key) or gram(ev, key, *a))
            fast = lerner_maximal(k, f, cone, "M_S", pool, domain=domain, evaluator=ev).values
        with monkeypatch.context() as m:
            m.setattr(ops, "_lerner_batched",
                      lambda ev, f, v, pool: ops._lerner_pool_loop(
                          ev.k, f, ev.cone, v, pool, None, ev))
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
        assert any(not _gram_takes(ev, "M_S", key) for key in small)

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

    def test_sparse_construct_takes_gram_for_small_cubes(self, monkeypatch):
        from lpsq import operators as ops
        from lpsq.dyadic import Cube, sparse_construct

        seen = []
        gram = ops._gram_form
        monkeypatch.setattr(ops, "_gram_form", lambda ev, key, *a: seen.append(
            (ev.s_max, key)) or gram(ev, key, *a))
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
        from lpsq.operators import _window_rows, _window_sum

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
                got = _window_sum(p, _window_rows(lim, n, K), K)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestSquareEvaluator2D:
    def test_matches_square_function_and_direct(self):
        k = parse_kernel("ex1:kappa=3", 2)
        f = _spikes(np.random.default_rng(17), 2, 4.0, 0.5)  # 16 x 16
        cone = build_cone(1.0, 2, f.h, 2 * f.h, 2 * f.R, 4)
        ev = SquareEvaluator(k, f, cone)
        assert ev.fast
        fast = ev.eval_values(f.values)
        sf = square_function(k, f, cone).values
        assert np.max(np.abs(fast - sf)) <= 1e-12 * np.max(sf)
        direct = square_function(k, f, cone, method="direct").values
        assert np.max(np.abs(fast - direct)) <= 1e-10 * np.max(direct)
        masked = f.values * (np.arange(16)[:, None] < 8)
        assert np.max(np.abs(ev.eval_values(masked) - square_function(
            k, f.with_values(masked), cone).values)) <= 1e-12 * np.max(sf)


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
        TestLernerBatched._close(*(square_function(k, f, cone, out_R=out_R, method=m).values
                                   for m in ("auto", "direct")))


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
        no_profile = replace(k, profile=None)
        with pytest.raises(ParameterError, match="profile"):
            psi_t_apply(no_profile, (f, f), 1.0, method="fft")
        with pytest.raises(ParameterError, match="profile"):
            square_function(no_profile, (f, f), cone, method="fft")

        def refuse(*args, **kwargs):
            raise AssertionError("wrong path")

        # "direct" (and "auto" without a profile) takes the oracle path ...
        monkeypatch.setattr(ops, "_psi_t_bilinear_fft", refuse)
        direct = square_function(k, (f, f), cone, method="direct").values
        assert np.array_equal(
            square_function(no_profile, (f, f), cone).values, direct)
        direct_u = psi_t_apply(no_profile, (f, f), 0.5).values
        monkeypatch.undo()
        # ... and "auto" or "fft" with a profile never calls it
        monkeypatch.setattr(ops, "_psi_t_bilinear", refuse)
        self._close(square_function(k, (f, f), cone).values, direct)
        self._close(psi_t_apply(k, (f, f), 0.5, method="fft").values, direct_u)

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
        full = square_function(k, (f1, f2), cone, out_R=5.0).values
        monkeypatch.setattr(ops, "_LERNER_CHUNK", 256)
        small = square_function(k, (f1, f2), cone, out_R=5.0).values
        direct = square_function(k, (f1, f2), cone, out_R=5.0, method="direct").values
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


def _g_star_by_loops(k, f, lam, hs, out_R):
    """g* as a sum over the offsets m, |m| <= K per level (in n = 2 also
    |m| h < min(alpha t, max_radius)), of the weight times |psi_t f|^2 at
    x + m, psi_t by direct summation on the output lattice padded by K."""
    base = f[0] if isinstance(f, tuple) else f
    n, h = base.n, base.h
    M = int(round(2.0 * out_R / h))
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
    @given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=3),
           st.booleans(), st.floats(min_value=4.5, max_value=8.0),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15)
    def test_matches_offset_loops(self, case, N, pad, halfspace, lam, seed):
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
        out_R = R + pad * h
        gs = g_star(k, f, lam, hs, out_R=out_R).values
        assert gs.shape == (N + 2 * pad,) * n
        TestLernerBatched._close(gs, _g_star_by_loops(k, f, lam, hs, out_R))
        cascade, _ = g_star_cascade_bound(k, f, lam, hs, n_terms=9, out_R=out_R)
        ratio = gs / np.maximum(cascade.values, 1e-300)
        assert np.max(ratio) <= 1.0 + 1e-10


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


class TestMaximalHL1D:
    """The blocked 1-D Hardy-Littlewood maximal function against a loop
    over every window [i, j), bit for bit."""

    @pytest.mark.parametrize("chunk", [None, 40])
    @given(st.integers(min_value=1, max_value=96),
           st.sampled_from(["const", "noise", "spikes"]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40)
    def test_equals_window_loop(self, chunk, N, kind, seed):
        from lpsq import operators as ops

        rng = np.random.default_rng(seed)
        g = GridFunction(1, N / 16, 1.0 / 8, _hl_input(rng, N, kind))
        a = np.abs(g.values)
        c = np.concatenate([[0.0], np.cumsum(a)])
        brute = a.copy()  # windows of one cell
        for i in range(N):
            for j in range(i + 2, N + 1):
                brute[i:j] = np.maximum(brute[i:j], (c[j] - c[i]) / (j - i))
        with pytest.MonkeyPatch.context() as m:
            if chunk:
                m.setattr(ops, "_LERNER_CHUNK", chunk)
            hl = maximal(g, "hl").values
        assert np.array_equal(hl, brute)
        for kappa in (1.0, 1.5, 3.0):
            powered = maximal(g, "powered", kappa=kappa).values
            assert np.all(powered >= hl * (1.0 - 1e-12))
