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
    @settings(max_examples=20, deadline=None)
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


class TestLernerBatched:
    """The batched 1-D M_S / N_S path against the per-cube pool loop."""

    @staticmethod
    def _pair(monkeypatch, k, f, cone, variant, pool, domain=None):
        from lpsq import operators as ops

        batched = ops._lerner_batched_1d
        calls = []
        with monkeypatch.context() as m:
            m.setattr(ops, "_lerner_batched_1d",
                      lambda *a: calls.append(1) or batched(*a))
            fast = lerner_maximal(k, f, cone, variant, pool, domain=domain).values
        assert calls  # the batched path ran
        with monkeypatch.context() as m:
            m.setattr(ops, "_lerner_batched_1d",
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
