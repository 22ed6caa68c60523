import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsq.dyadic import (
    Cube,
    CZDecomposition,
    SparseFamily,
    cz_decompose,
    dyadic_cube_pool,
    sparse_construct,
    sparse_rhs_eval,
    verify_sparse,
)
from lpsq.errors import ConfigError, ContainmentError, GridError, ParameterError
from lpsq.grids import GridFunction, box_sums, build_cone, sample_function
from lpsq.kernels import bilinear_example_kernel, parse_kernel
from lpsq.operators import square_function


BASE = 16.0  # box [-8, 8)


def grid_1d(N=4096, fn=None):
    h = BASE / N
    if fn is None:
        fn = lambda x: np.zeros_like(x)
    return sample_function(fn, 1, BASE / 2, h)


class TestCube:
    def test_geometry(self):
        q = Cube(1, 1, (0,), "standard", BASE)
        assert q.lo == (0.0,) and q.hi == (8.0,)
        assert q.center == (4.0,) and q.side == 8.0

    def test_children_partition_parent(self):
        q = Cube(1, 2, (-1,), "standard", BASE)
        ch = q.children()
        assert [c.lo[0] for c in ch] == [-4.0, -2.0]
        assert sum(c.side for c in ch) == q.side
        for c in ch:
            assert c.parent() == q

    def test_children_2d(self):
        q = Cube(2, 1, (0, -1), "standard", BASE)
        ch = q.children()
        assert len(ch) == 4
        assert all(c.parent() == q for c in ch)

    def test_cell_range_alignment(self):
        g = grid_1d(256)
        q = Cube(1, 3, (1,), "standard", BASE)  # [2, 4)
        (i0, i1), = q.cell_range(g)
        assert (i0, i1) == (160, 192)

    def test_misaligned_cube_rejected(self):
        g = grid_1d(256)
        q = Cube(1, 10, (5,), "standard", 12.345)
        with pytest.raises(GridError):
            q.cell_range(g)

    def test_other_lattice_is_parameter_error(self):
        with pytest.raises(ParameterError):
            Cube(1, 1, (0,), "k=1", 8.0)


class TestCZ:
    def test_four_indicator(self):
        f = grid_1d(4096, lambda x: np.where((x >= 0) & (x < 1), 4.0, 0.0))
        d = cz_decompose(f, 1.0)
        assert len(d.bad) == 1
        q, b = d.bad[0]
        assert (q.lo[0], q.hi[0]) == (0.0, 2.0)
        on_q = (f.axis_centers() >= 0) & (f.axis_centers() < 2)
        assert np.allclose(d.good.values[on_q], 2.0)
        assert abs(float(np.sum(b.values)) * f.h) <= 1e-12

    def test_no_selection_above_peak(self):
        f = grid_1d(4096, lambda x: np.where((x >= 0) & (x < 1), 4.0, 0.0))
        d = cz_decompose(f, 5.0)
        assert d.bad == []
        assert np.array_equal(d.good.values, f.values)

    @pytest.mark.parametrize("rho", [math.nan, math.inf])
    def test_non_finite_rho_rejected(self, rho):
        f = grid_1d(1024, lambda x: np.where((x >= 0) & (x < 1), 4.0, 0.0))
        with pytest.raises(ParameterError, match="rho must be positive and finite"):
            cz_decompose(f, rho)

    def test_rho_below_floor_rejected(self):
        f = grid_1d(1024, lambda x: np.where((x >= 0) & (x < 1), 4.0, 0.0))
        with pytest.raises(ParameterError):
            cz_decompose(f, 0.01)

    def test_invariant_suite_random(self):
        rng = np.random.default_rng(0)
        N = 4096
        for trial in range(5):
            vals = rng.standard_normal(N) * np.exp(-np.abs(np.linspace(-8, 8, N)))
            f = GridFunction(1, 8.0, BASE / N, vals)
            halves = max(np.sum(np.abs(vals[: N // 2])), np.sum(np.abs(vals[N // 2 :])))
            floor = halves * f.h / BASE
            for j in range(4):
                rho = floor * 1.3 * 2.0 ** (0.7 * j)
                d = cz_decompose(f, rho)
                assert np.max(np.abs(d.reconstruct() - f.values)) <= 1e-12
                total = 0.0
                spans = []
                for q, b in d.bad:
                    ib = abs(float(np.sum(b.values)) * f.h)
                    assert ib <= 1e-12 * max(b.norm_l1(), 1e-30)
                    (i0, i1), = q.cell_range(f)
                    m = float(np.mean(np.abs(f.values[i0:i1])))
                    assert rho < m <= 2.0 * rho
                    assert np.all(b.values[:i0] == 0) and np.all(b.values[i1:] == 0)
                    total += q.side
                    spans.append((i0, i1))
                assert d.good.norm_linf() <= 2.0 * rho + 1e-12
                assert total <= f.norm_l1() / rho + 1e-12
                spans.sort()
                for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                    assert a1 <= b0

    def test_2d_invariants(self):
        rng = np.random.default_rng(1)
        N = 64
        vals = rng.standard_normal((N, N)) * np.exp(
            -np.hypot(*np.meshgrid(np.linspace(-4, 4, N), np.linspace(-4, 4, N)))
        )
        f = GridFunction(2, 4.0, 8.0 / N, vals)
        quads = [np.sum(np.abs(vals[i : i + N // 2, j : j + N // 2]))
                 for i in (0, N // 2) for j in (0, N // 2)]
        floor = max(quads) * f.h**2 / 8.0**2
        rho = floor * 1.5
        d = cz_decompose(f, rho)
        assert np.max(np.abs(d.reconstruct() - f.values)) <= 1e-12
        for q, b in d.bad:
            r = q.cell_range(f)
            sl = tuple(slice(i0, i1) for i0, i1 in r)
            m = float(np.mean(np.abs(f.values[sl])))
            assert rho < m <= 4.0 * rho  # 2^n rho with n = 2
        assert d.good.norm_linf() <= 4.0 * rho + 1e-12

    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2**31),
           st.floats(min_value=1.01, max_value=64.0))
    @settings(max_examples=40)
    def test_docstring_invariants(self, n, seed, factor):
        """What the cz_decompose docstring promises, for rho above the floor:
        disjoint maximal cubes (each parent's |f|-mean <= rho), |f|-means in
        (rho, 2^n rho], |g| <= 2^n rho, mean-zero b_Q, exact reconstruction."""
        rng = np.random.default_rng(seed)
        N = int(rng.choice([8, 16, 32])) if n == 2 else int(rng.choice([64, 256, 1024]))
        R = BASE / 2
        vals = rng.standard_normal((N,) * n) * (rng.random((N,) * n) < rng.uniform(0.05, 1))
        f = GridFunction(n, R, 2 * R / N, vals * np.exp(rng.uniform(-3, 3)))
        # the side-2R cubes anchored at 0 hold one half (quadrant) of the box each
        parts = [np.sum(np.abs(f.values[tuple(slice(b * N // 2, (b + 1) * N // 2) for b in c)]))
                 for c in np.ndindex((2,) * n)]
        floor = max(parts) * f.h**n / BASE**n
        rho = factor * floor if floor > 0 else factor
        d = cz_decompose(f, rho)

        def mean_abs(q):
            sl = tuple(slice(i0, i1) for i0, i1 in q.cell_range(f))
            return float(np.sum(np.abs(f.values[sl]))) * f.h**n / q.side**n

        cover = np.zeros(f.values.shape, dtype=int)
        for q, b in d.bad:
            sl = tuple(slice(i0, i1) for i0, i1 in q.cell_range(f))
            cover[sl] += 1
            assert rho < mean_abs(q) <= 2**n * rho * (1 + 1e-12)
            assert mean_abs(q.parent()) <= rho
            l1 = float(np.sum(np.abs(b.values)))
            assert abs(float(np.sum(b.values))) <= 1e-12 * max(l1, 1e-300)
            off = np.ones(f.values.shape, dtype=bool)
            off[sl] = False
            assert np.all(b.values[off] == 0.0)
        assert cover.max(initial=0) <= 1
        assert np.all(np.abs(d.good.values) <= 2**n * rho * (1 + 1e-12))
        scale = max(float(np.max(np.abs(f.values))), 1.0)
        assert np.max(np.abs(d.reconstruct() - f.values)) <= 1e-12 * scale

    def test_save_load_roundtrip(self, tmp_path):
        f = grid_1d(512, lambda x: np.where((x >= 0) & (x < 1), 4.0, 0.0))
        d = cz_decompose(f, 1.0)
        d.save(str(tmp_path / "cz"))
        d2 = CZDecomposition.load(str(tmp_path / "cz"))
        assert d2.rho == d.rho
        assert np.array_equal(d2.good.values, d.good.values)
        assert len(d2.bad) == len(d.bad)
        assert d2.bad[0][0] == d.bad[0][0]


class TestVerifySparse:
    def test_quarter_ok(self):
        root = Cube(1, 1, (0,), "standard", BASE)
        sub = Cube(1, 3, (0,), "standard", BASE)  # [0, 2): a quarter of [0, 8)
        fam = SparseFamily(0.5, root, [root, sub], {sub: root})
        ok, worst, _ = verify_sparse(fam)
        assert ok and worst == 0.25

    def test_full_cover_fails(self):
        root = Cube(1, 1, (0,), "standard", BASE)
        a = Cube(1, 2, (0,), "standard", BASE)
        b = Cube(1, 2, (1,), "standard", BASE)
        fam = SparseFamily(0.5, root, [root, a, b], {a: root, b: root})
        ok, worst, wc = verify_sparse(fam)
        assert not ok and worst == 1.0 and wc == root

    def test_eta_outside_unit_interval_rejected(self):
        root = Cube(1, 1, (0,), "standard", BASE)
        sub = Cube(1, 3, (0,), "standard", BASE)
        fam = SparseFamily(0.5, root, [root, sub], {sub: root})
        for eta in (0.0, -0.5, 1.5, 2.0, math.nan):
            with pytest.raises(ParameterError, match="eta"):
                verify_sparse(fam, eta)
        with pytest.raises(ParameterError, match="eta"):
            verify_sparse(SparseFamily(2.0, root, [root, sub], {sub: root}))
        assert verify_sparse(fam, 1.0)[0] is False  # worst 0.25 > 1 - 1

    def test_outside_root_rejected(self):
        root = Cube(1, 1, (0,), "standard", BASE)
        stray = Cube(1, 1, (-1,), "standard", BASE)
        fam = SparseFamily(0.5, root, [root, stray], {})
        with pytest.raises(ContainmentError):
            verify_sparse(fam)

    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2**31),
           st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=60)
    def test_matches_cell_by_cell_count(self, n, seed, eta):
        """Worst ratio and verdict against a per-cell count: a cell of Q is
        covered when a finer family cube holds it (floor-divided anchors)."""
        rng = np.random.default_rng(seed)
        g0 = int(rng.integers(0, 3))
        root = Cube(n, g0, tuple(int(a) for a in rng.integers(-(2**g0) // 2 - 1,
                                                              2**g0 // 2 + 1, n)),
                    "standard", BASE)
        subs = set()
        for _ in range(int(rng.integers(0, 12))):
            g = g0 + int(rng.integers(1, 5))
            off = rng.integers(0, 2 ** (g - g0), n)
            subs.add(Cube(n, g, tuple(int(a * 2 ** (g - g0) + o)
                                      for a, o in zip(root.anchor, off)),
                          "standard", BASE))
        cubes = [root] + sorted(subs)
        fam = SparseFamily(eta, root, cubes, {c: root for c in cubes[1:]})
        G = max(c.generation for c in cubes)
        ref = 0.0
        for q in cubes:
            m = 2 ** (G - q.generation)
            cells = [tuple(a * m + i for a, i in zip(q.anchor, idx))
                     for idx in np.ndindex(*(m,) * n)]
            covered = sum(
                any(r.generation > q.generation
                    and all(x // 2 ** (G - r.generation) == a
                            for x, a in zip(cell, r.anchor))
                    for r in cubes)
                for cell in cells)
            ref = max(ref, covered / len(cells))
        ok, worst, _ = verify_sparse(fam)
        assert worst == ref
        assert ok == (ref <= 1.0 - eta)

    def test_json_roundtrip(self, tmp_path):
        root = Cube(1, 1, (0,), "standard", BASE)
        sub = Cube(1, 3, (2,), "standard", BASE)
        fam = SparseFamily(0.5, root, [root, sub], {sub: root}, {"gamma": 4.0})
        p = tmp_path / "fam.json"
        fam.save(str(p))
        fam2 = SparseFamily.load(str(p))
        assert fam2.eta == 0.5
        assert fam2.cubes == fam.cubes
        assert fam2.parent[sub] == root
        assert fam2.meta["gamma"] == 4.0

    def test_json_format(self):
        root = Cube(1, 1, (0,), "standard", BASE)
        sub = Cube(1, 3, (2,), "standard", BASE)
        fam = SparseFamily(0.5, root, [root, sub], {sub: root}, {"gamma": 4.0})
        data = {
            "eta": 0.5,
            "base": 16.0,
            "n": 1,
            "root": {"generation": 1, "anchor": [0], "shift": "standard"},
            "cubes": [
                {"generation": 1, "anchor": [0], "shift": "standard", "parent": None},
                {"generation": 3, "anchor": [2], "shift": "standard", "parent": 0},
            ],
            "meta": {"gamma": 4.0},
        }
        assert fam.to_json() == data
        fam2 = SparseFamily.from_json(data)
        assert (fam2.root, fam2.cubes, fam2.parent) == (root, [root, sub], {sub: root})

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("n"),
        lambda d: d.pop("cubes"),
        lambda d: d["root"].pop("generation"),
        lambda d: d.update(n="1"),
        lambda d: d.update(n=3),
        lambda d: d.update(eta=True),
        lambda d: d.update(base=0.0),
        lambda d: d.update(cubes={}),
        lambda d: d["cubes"][1].update(anchor=[1.5]),
        lambda d: d["cubes"][1].update(anchor=[1, 2]),
        lambda d: d["cubes"][1].update(parent=7),
        lambda d: d["cubes"][1].update(parent="0"),
        lambda d: d["cubes"].append("cube"),
        lambda d: d["cubes"][1].update(lo_frac=["1/x"], side_frac="1"),
        lambda d: d["cubes"][1].update(lo_frac=["1/2"], side_frac="-1"),
        lambda d: d["cubes"][1].update(lo_frac=[0.5], side_frac="1"),
        lambda d: d["cubes"][1].update(shift="k=1"),
        lambda d: d["root"].update(shift="k=1"),
        lambda d: d["cubes"][1].update(side=2.0),
        lambda d: d["root"].update(lo=[0.0]),
        # a cube lies on the family's base; verify_sparse places it there
        lambda d: d["cubes"][1].update(base=3.0),
        lambda d: d["cubes"][1].update(base=0.0),
        lambda d: d["root"].update(base=BASE),
    ])
    def test_malformed_json_is_config_error(self, edit):
        root = Cube(1, 1, (0,), "standard", BASE)
        sub = Cube(1, 3, (2,), "standard", BASE)
        data = json.loads(json.dumps(SparseFamily(0.5, root, [root, sub], {sub: root})
                                     .to_json()))
        edit(data)
        with pytest.raises(ConfigError):
            SparseFamily.from_json(data)


@pytest.fixture(scope="module")
def sparse_setup():
    k = parse_kernel("ex1:kappa=3", 1)
    N = 256
    h = BASE / N
    f = sample_function(lambda x: np.exp(-(((x - 3.5) / 0.4) ** 2)), 1, 8.0, h)
    cone = build_cone(1.0, 1, h, 2 * h, BASE, 2)
    q0 = Cube(1, 1, (0,), "standard", BASE)
    return k, f, cone, q0


class TestSparseConstruct:
    def test_zero_input_gives_root_only(self, sparse_setup):
        k, f, cone, q0 = sparse_setup
        fam = sparse_construct(k, f.with_values(np.zeros_like(f.values)), q0, 1.0,
                               cone)
        assert fam.cubes == [q0]

    def test_bump_family_is_sparse(self, sparse_setup):
        k, f, cone, q0 = sparse_setup
        fam = sparse_construct(k, f, q0, 1.0, cone, gamma="auto")
        ok, worst, _ = verify_sparse(fam, 0.5)
        assert ok
        assert fam.meta["gamma"] >= 1.0

    def test_recursion_depth_bounded(self, sparse_setup):
        k, f, cone, q0 = sparse_setup
        fam = sparse_construct(k, f, q0, 1.0, cone)
        gmax = int(math.log2(f.ncells))
        assert all(c.generation <= gmax for c in fam.cubes)

    def test_domination(self, sparse_setup):
        k, f, cone, q0 = sparse_setup
        fam = sparse_construct(k, f, q0, 1.0, cone)
        s = square_function(k, f, cone)
        rhs = sparse_rhs_eval(fam, f, dilate=3)
        (i0, i1), = q0.cell_range(f)
        ratio = s.values[i0:i1] / np.maximum(rhs.values[i0:i1], 1e-300)
        assert math.isfinite(float(np.max(ratio)))

    def test_parent_links_inside_family(self, sparse_setup):
        k, f, cone, q0 = sparse_setup
        fam = sparse_construct(k, f, q0, 1.0, cone)
        for c, p in fam.parent.items():
            assert p in fam.cubes
            assert p.contains(c)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf, "abc", None])
    def test_bad_gamma_is_parameter_error(self, sparse_setup, gamma):
        k, f, cone, q0 = sparse_setup
        with pytest.raises(ParameterError, match="gamma"):
            sparse_construct(k, f, q0, 1.0, cone, gamma=gamma)

    @pytest.mark.parametrize("budget", [0, -1, 1.5, "3", None, True])
    def test_bad_gamma_budget_is_parameter_error(self, sparse_setup, budget):
        k, f, cone, q0 = sparse_setup
        with pytest.raises(ParameterError, match="gamma_budget"):
            sparse_construct(k, f, q0, 1.0, cone, gamma_budget=budget)

    def test_bilinear_is_refused(self, sparse_setup):
        _, f, cone, q0 = sparse_setup
        bi = bilinear_example_kernel(3.0, 1)
        for k, arg in ((bi, (f, f)), (bi, f), (parse_kernel("ex1:kappa=3", 1), (f, f))):
            with pytest.raises(ParameterError, match="bilinear sparse families"):
                sparse_construct(k, arg, q0, 1.0, cone)


class TestSparseRhs:
    def test_empty_family(self):
        root = Cube(1, 1, (0,), "standard", BASE)
        fam = SparseFamily(0.5, root, [], {})
        f = grid_1d(256, lambda x: np.exp(-(x**2)))
        out = sparse_rhs_eval(fam, f)
        assert np.all(out.values == 0.0)

    def test_constant_single_cube(self):
        root = Cube(1, 1, (0,), "standard", BASE)
        fam = SparseFamily(0.5, root, [root], {})
        f = grid_1d(256, lambda x: np.full_like(x, 0.7))
        out = sparse_rhs_eval(fam, f, dilate=1)
        (i0, i1), = root.cell_range(f)
        assert np.allclose(out.values[i0:i1], 0.7)
        assert np.all(out.values[:i0] == 0.0)

    def test_bilinear_indicator(self):
        root = Cube(1, 4, (0,), "standard", BASE)  # [0, 1)
        fam = SparseFamily(0.5, root, [root], {})
        f = grid_1d(256, lambda x: ((x >= 0) & (x < 1)).astype(float))
        out = sparse_rhs_eval(fam, (f, f), dilate=1)
        (i0, i1), = root.cell_range(f)
        assert np.allclose(out.values[i0:i1], 1.0)


class TestCubePool:
    def test_pool_contains_root_and_dilates(self):
        g = grid_1d(64)
        root = Cube(1, 1, (0,), "standard", BASE)
        pool = dyadic_cube_pool(root, g)
        sides = sorted({b.side for b in pool})
        assert root.box() in pool
        assert root.box().dilate(3.0) in pool
        assert min(sides) == g.h


# ---------------------------------------------------------------------------
# the generation walk against per-cube descents
# ---------------------------------------------------------------------------


def _block_sum(c, r):
    """The sum over the cell ranges r from a prefix table c, term by term as
    the per-cube descents computed it."""
    if len(r) == 1:
        (i0, i1), = r
        return c[i1] - c[i0]
    (i0, i1), (j0, j1) = r
    return c[i1, j1] - c[i0, j1] - c[i1, j0] + c[i0, j0]


def _prefix(a):
    """The prefix table as the per-cube descents built it, in 1-D and 2-D."""
    c = np.zeros(tuple(d + 1 for d in a.shape))
    if a.ndim == 1:
        c[1:] = np.cumsum(a)
    else:
        c[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
    return c


def _cz_by_stack(f, rho):
    """CZ selection by a stack descent over `Cube.children`, one cube at a
    time: (sorted cubes, good values, bad values)."""
    n, N = f.n, f.ncells
    c = _prefix(np.abs(f.values))
    hn = f.h**n
    base = 2.0 * f.R

    def mean_abs(cube):
        return _block_sum(c, cube.cell_range(f)) * hn / cube.side**n

    supers = [Cube(n, 0, a, "standard", base) for a in itertools.product((-1, 0), repeat=n)]
    floor = max(mean_abs(q) for q in supers)
    if floor > rho:
        return None
    gmax = int(math.log2(N))
    selected, stack = [], []
    for q in (Cube(n, 1, a, "standard", base) for a in itertools.product((-1, 0), repeat=n)):
        m = mean_abs(q)
        if m > rho:
            selected.append(q)
        elif m > 0.0:
            stack.append(q)
    while stack:
        cube = stack.pop()
        if cube.generation >= gmax:
            continue
        for ch in cube.children():
            m = mean_abs(ch)
            if m > rho:
                selected.append(ch)
            elif m > 0.0 and ch.generation < gmax:
                stack.append(ch)
    good = f.values.copy()
    bad = []
    for q in sorted(selected):
        sl = tuple(slice(i0, i1) for i0, i1 in q.cell_range(f))
        mean_signed = float(np.mean(f.values[sl]))
        b = np.zeros_like(f.values)
        b[sl] = f.values[sl] - mean_signed
        good[sl] = mean_signed
        bad.append(b)
    return sorted(selected), good, bad


def _all_cubes(f, gen_from=1):
    """Every dyadic cube from generation gen_from down to single cells that
    meets f's box."""
    n, base = f.n, 2.0 * f.R
    gmax = int(math.log2(f.ncells))
    out = []
    for g in range(gen_from, gmax + 1):
        m = max(1, 2 ** (g - 1))
        out += [Cube(n, g, a, "standard", base)
                for a in itertools.product(range(-m, m), repeat=n)]
    return out


def _walk_input(rng, n, N, kind):
    """Noise, zeros or small integers, with zero runs and signed spikes."""
    shape = (N,) * n
    if kind == "noise":
        v = rng.standard_normal(shape)
    elif kind == "ints":
        v = rng.integers(-3, 4, shape).astype(float)
    else:
        v = np.zeros(shape)
    for _ in range(rng.integers(0, 4)):  # zero runs
        i = rng.integers(0, N)
        v[i:i + rng.integers(1, N // 2 + 2)] = 0.0
    cells = rng.integers(0, N, size=(rng.integers(0, 5), n))
    for cell in cells:
        v[tuple(cell)] += rng.uniform(1.0, 50.0) * rng.choice([-1.0, 1.0])
    return v


class TestGenerationWalk:
    """CZ, the share selection, the cube pool and the dyadic maximal
    function walk the tree one generation at a time; each is gated here by
    a per-cube descent over `Cube.children`."""

    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=6),
           st.sampled_from(["noise", "ints", "zeros"]),
           st.sampled_from([1.01, 1.5, 2.0, 4.0, 9.0, 64.0, "tie"]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=120)
    def test_cz_equals_stack_descent(self, n, log_n, kind, fac, seed):
        N = 2 ** min(log_n, 5 if n == 2 else 6)
        rng = np.random.default_rng(seed)
        f = GridFunction(n, 2.0, 4.0 / N, _walk_input(rng, n, N, kind))
        c = _prefix(np.abs(f.values))
        hn, base = f.h**n, 2.0 * f.R
        floor = max(_block_sum(c, Cube(n, 0, a, "standard", base).cell_range(f)) * hn
                    / base**n for a in itertools.product((-1, 0), repeat=n))
        means = {q: _block_sum(c, q.cell_range(f)) * hn / q.side**n for q in _all_cubes(f)}
        if fac == "tie":  # rho equal to the mean of some cube
            above = sorted(m for m in means.values() if m > floor)
            rho = above[rng.integers(len(above))] if above else 1.0
        else:
            rho = fac * floor if floor > 0 else fac
        want = _cz_by_stack(f, rho)
        if want is None:
            with pytest.raises(ParameterError, match="resolvable"):
                cz_decompose(f, rho)
            return
        d = cz_decompose(f, rho)
        cubes, good, bad = want
        assert [q for q, _ in d.bad] == cubes
        assert np.array_equal(d.good.values, good)
        assert all(np.array_equal(b.values, w) for (_, b), w in zip(d.bad, bad))
        # every cube with mean above rho lies in a selected cube
        for q, m in means.items():
            if m > rho:
                assert any(s.contains(q) for s in cubes), q

    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=6),
           st.floats(min_value=0.02, max_value=0.9),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=120)
    def test_share_selection_equals_per_cube_loop(self, n, log_n, density, seed):
        from lpsq.dyadic import _share_cubes

        N = 2 ** min(log_n, 5 if n == 2 else 6)
        rng = np.random.default_rng(seed)
        f = GridFunction(n, 2.0, 4.0 / N, np.zeros((N,) * n))
        gmax = int(math.log2(N))
        g0 = int(rng.integers(0, gmax))  # generation 0 straddles the box
        m = max(1, 2 ** (g0 - 1))
        node = Cube(n, g0, tuple(int(a) for a in rng.integers(-m, m, n)), "standard", 2 * f.R)
        e_mask = rng.random((N,) * n) < density
        for _ in range(rng.integers(0, 3)):  # empty runs
            i = rng.integers(0, N)
            e_mask[i:i + rng.integers(1, N // 2 + 2)] = False
        c = _prefix(e_mask.astype(float))
        sel, stack = [], list(node.children())
        while stack:
            q = stack.pop()
            cnt, cells = int(round(_block_sum(c, q.cell_range(f)))), q.ncells_inside(f)
            if cells == 0 or cnt == 0:
                continue
            if Fraction(cnt, cells) > Fraction(1, 2 ** (n + 1)):
                sel.append(q)
            elif q.generation < gmax:
                stack.extend(q.children())
        assert sorted(_share_cubes(f, e_mask, node)) == sorted(sel)

    @pytest.mark.parametrize("n, N", [(1, 2), (1, 64), (2, 2), (2, 16)])
    def test_pool_equals_children_walk(self, n, N):
        from collections import Counter

        f = GridFunction(n, 2.0, 4.0 / N, np.zeros((N,) * n))
        base = 2 * f.R
        gmax = int(math.log2(N))
        roots = [Cube(n, 1, (0,) * n, "standard", base), Cube(n, 1, (-1,) * n, "standard", base),
                 Cube(n, gmax, (1,) * n, "standard", base), Cube(n, 0, (-1,) * n, "standard", base),
                 Cube(n, 1, (1,) * n, "standard", base)]  # the last lies outside the box
        if gmax >= 3:
            roots.append(Cube(n, 3, (-2,) * n, "standard", base))  # a sub-node
        for root in roots:
            want, stack = [], [root]
            while stack:
                q = stack.pop()
                if q.ncells_inside(f) == 0:
                    continue
                want += [q.box(), q.box().dilate(3.0)]
                if q.generation < gmax:
                    stack.extend(q.children())
            assert Counter(dyadic_cube_pool(root, f)) == Counter(want), root

    def test_pool_refuses_other_lattices(self):
        f = GridFunction(1, 2.0, 0.25, np.zeros(16))
        with pytest.raises(GridError):
            dyadic_cube_pool(Cube(1, 1, (0,), "standard", 8.0), f)

    @given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=5),
           st.sampled_from(["noise", "ints", "zeros"]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60)
    def test_dyadic_maximal_equals_brute_force(self, n, log_n, kind, seed):
        from lpsq.operators import maximal

        N = 2 ** log_n
        rng = np.random.default_rng(seed)
        f = GridFunction(n, 2.0, 4.0 / N, _walk_input(rng, n, N, kind))
        a = np.abs(f.values)
        brute = a.copy()  # single cells; the side-2R cubes below
        for q in _all_cubes(f, gen_from=0):
            sl = tuple(slice(i0, i1) for i0, i1 in q.cell_range(f))
            if a[sl].size:
                brute[sl] = np.maximum(brute[sl], a[sl].sum() * f.h**n / q.side**n)
        got = maximal(f, "dyadic").values
        assert np.allclose(got, brute, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n, N", [(1, 64), (2, 64)])
    def test_walk_stops_when_no_cube_is_live(self, monkeypatch, n, N):
        """Below the selected cubes and the empty ones nothing is summed: a
        single spike is picked at generation 3, and the walk ends there."""
        from lpsq import dyadic

        calls = []

        def counted(c, L):
            calls.append(c.shape)
            return box_sums(c, L)

        monkeypatch.setattr(dyadic, "box_sums", counted)
        vals = np.zeros((N,) * n)
        vals[(N // 3,) * n] = 5.0
        f = GridFunction(n, 2.0, 4.0 / N, vals)
        floor = 5.0 * f.h**n / (2 * f.R) ** n
        d = cz_decompose(f, 1.5 * 4**n * floor)
        assert [q.generation for q, _ in d.bad] == [3]
        assert len(calls) == 1 + 3  # the floor check, generations 1 to 3
        calls.clear()
        cz_decompose(f.with_values(np.zeros_like(vals)), 1.0)
        assert len(calls) == 1 + 1


# ---------------------------------------------------------------------------
# the pruned Lerner pool of sparse_construct
# ---------------------------------------------------------------------------


def _prune_input(rng, n, N, kind):
    """Signed spikes, noise, or noise with zero runs."""
    shape = (N,) * n
    if kind == "spike":
        v = np.zeros(shape)
        for cell in rng.integers(0, N, size=(rng.integers(1, 6), n)):
            v[tuple(cell)] += rng.uniform(0.1, 50.0) * rng.choice([-1.0, 1.0])
        return v
    v = rng.standard_normal(shape)
    if kind == "zero-run":
        for _ in range(rng.integers(1, 4)):
            i = rng.integers(0, N)
            v[i:i + rng.integers(1, N // 2 + 2)] = 0.0
    return v


def _family_key(fam):
    return [(c.generation, c.anchor) for c in fam.cubes], dict(fam.parent), fam.meta


def _pool_sizes(monkeypatch):
    """Record the pool size of every lerner_maximal call."""
    from lpsq import operators

    sizes, inner = [], operators.lerner_maximal

    def counted(k, f, cone, variant, cube_pool, *args, **kwargs):
        sizes.append(len(cube_pool))
        return inner(k, f, cone, variant, cube_pool, *args, **kwargs)

    monkeypatch.setattr(operators, "lerner_maximal", counted)
    return sizes


def _keep_all(f, floc, lo, hi, gain, thr0):
    return np.ones(len(lo), dtype=bool)


class TestLernerPoolPruning:
    """sparse_construct drops the pool boxes whose M_S term cannot change the
    level set; the families must equal those of the full pool, and the two
    bounds the rule rests on must hold for the evaluator's S."""

    def _construct(self, n, N, vals, gamma):
        R = 4.0
        h = 2 * R / N
        k = parse_kernel("ex1:kappa=3", n)
        f = GridFunction(n, R, h, vals)
        cone = build_cone(1.0, n, h, 2 * h, 2 * R, 4)
        return sparse_construct(k, f, Cube(n, 1, (0,) * n, "standard", 2 * R), 1.0, cone, gamma)

    def _both(self, n, N, vals, gamma):
        from unittest import mock

        from lpsq import dyadic

        pruned = self._construct(n, N, vals, gamma)
        with mock.patch.object(dyadic, "_lerner_keep", _keep_all):
            full = self._construct(n, N, vals, gamma)
        return _family_key(pruned), _family_key(full)

    @given(st.integers(min_value=1, max_value=2), st.sampled_from(["spike", "noise", "zero-run"]),
           st.sampled_from(["auto", 0.5, 3.0]), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=16)
    def test_pruned_family_equals_full_pool(self, n, kind, gamma, seed):
        N = 128 if n == 1 else 16
        vals = _prune_input(np.random.default_rng(seed), n, N, kind)
        pruned, full = self._both(n, N, vals, gamma)
        assert pruned == full

    @pytest.mark.parametrize("N, cells, amps, gamma", [
        # a dipole; the family changes when c is halved
        (128, [101, 102], [-0.92, 1.0], 2.84),
        # the family changes when the sqrt 2 - 1 factor is dropped
        (256, [162, 163, 164, 165, 166], [-0.07, -0.13, -0.03, 1.14, -0.49], 12.85),
    ])
    def test_sharp_cases_equal_full_pool(self, monkeypatch, N, cells, amps, gamma):
        """Inputs found by search where a box that the rule only just keeps
        is the one that puts a cell in E, at a gamma where the doubling loop
        stops on its first threshold: a weaker bound changes the family."""
        vals = np.zeros(N)
        vals[cells] = amps
        sizes = _pool_sizes(monkeypatch)
        pruned, full = self._both(1, N, vals, gamma)
        assert pruned == full
        n_pruned = sum(sizes[: len(sizes) // 2])
        assert n_pruned < sum(sizes[len(sizes) // 2:])

    @pytest.mark.parametrize("halved, N, cells, amps, gamma", [
        # a dipole; the family changes when far_gain[0] is halved
        ("near", 128, [102, 103], [-1.36, 1.34], 2.8),
        # the family changes when far_gain[l] is halved for every l >= 1
        ("far", 128, [114, 115], [0.84, -1.34], 3.67),
    ])
    def test_sharp_cases_of_the_far_gain(self, monkeypatch, halved, N, cells, amps, gamma):
        """Inputs found by search where the rule on a halved ``far_gain``
        table changes the family: the rule's bounds are used with no slack
        to spare, and the true table still gives the full pool's family."""
        from unittest import mock

        from lpsq import dyadic

        vals = np.zeros(N)
        vals[cells] = amps
        sizes = _pool_sizes(monkeypatch)
        pruned, full = self._both(1, N, vals, gamma)
        assert pruned == full
        assert sum(sizes[: len(sizes) // 2]) < sum(sizes[len(sizes) // 2:])
        keep = dyadic._lerner_keep

        def weaker(f, floc, lo, hi, gain, thr0):
            gain = gain.copy()
            gain[slice(0, 1) if halved == "near" else slice(1, None)] /= 2.0
            return keep(f, floc, lo, hi, gain, thr0)

        with mock.patch.object(dyadic, "_lerner_keep", weaker):
            assert _family_key(self._construct(1, N, vals, gamma)) != full

    @given(st.integers(min_value=1, max_value=2), st.sampled_from(["spike", "noise", "zero-run"]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=24)
    def test_far_field_bound(self, n, kind, seed):
        """`_far_field` is the sum over the cells y outside 3B of
        |f(y)| far_gain[d(y, B)], and bounds S h on B's cells, h = f off 3B,
        for the evaluator and for the direct-summation square function; 3B
        and B are random boxes that may reach past the grid."""
        from lpsq.dyadic import _far_field
        from lpsq.operators import SquareEvaluator

        N = 32 if n == 1 else 8
        R, h = 4.0, 8.0 / N
        rng = np.random.default_rng(seed)
        k = parse_kernel("ex1:kappa=3", n)
        cone = build_cone(1.0, n, h, 2 * h, 2 * R, 4)
        f = GridFunction(n, R, h, _prune_input(rng, n, N, kind))
        if not np.any(f.values):
            return
        ev = SquareEvaluator(k, f, cone)
        gain = ev.far_gain
        j0 = rng.integers(-2, N, (6, n))
        j1 = j0 + rng.integers(1, N // 2, (6, n))
        i0 = j0 - rng.integers(0, N // 2, (6, n))
        i1 = j1 + rng.integers(0, N // 2, (6, n))
        H = _far_field(np.abs(f.values), gain, i0, i1, j0, j1)
        y = np.indices(f.values.shape).reshape(n, -1).T
        a = np.abs(f.values).ravel()
        direct = lambda v: square_function(k, f.with_values(v), cone, method="direct").values
        for b in range(6):
            out3 = np.any((y < i0[b]) | (y >= i1[b]), axis=1)
            d = np.max(np.maximum(np.maximum(j0[b] - y, y - (j1[b] - 1)), 0), axis=1)
            want = float(np.sum(a[out3] * gain[np.minimum(d[out3], len(gain) - 1)]))
            assert abs(H[b] - want) <= 1e-12 * gain[0] * a.sum()
            hv = np.where(out3.reshape(f.values.shape), f.values, 0.0)
            qb = tuple(slice(max(lo, 0), max(hi, 0)) for lo, hi in zip(j0[b], j1[b]))
            for S in (ev.eval_values, direct):
                assert np.all(S(hv)[qb] <= H[b] * (1 + 1e-9) + 1e-12 * gain[0] * a.sum())

    @pytest.mark.parametrize("kind", ["spike", "noise", "zero-run"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_kept_set_within_the_l1_rule(self, n, kind):
        """Every box the rule keeps is kept by the l^1 rule on
        c^2 = sum_j meas_j |D_j| max |k_j|^2, recomputed here from the
        evaluator's levels, at thresholds on either side of its cuts; over
        six inputs the rule drops some box the l^1 rule keeps."""
        from lpsq import operators as ops
        from lpsq.dyadic import _PRUNE_DELTA, _lerner_keep, _pool_corners

        N = 64 if n == 1 else 16
        R, h = 4.0, 8.0 / N
        k = parse_kernel("ex1:kappa=3", n)
        cone = build_cone(1.0, n, h, 2 * h, 2 * R, 4)
        root = Cube(n, 1, (0,) * n, "standard", 2 * R)
        dropped = 0
        for seed in range(6):
            f = GridFunction(n, R, h, _prune_input(np.random.default_rng(seed), n, N, kind))
            ev = ops.SquareEvaluator(k, f, cone)
            c = math.sqrt(sum(
                lv.meas * lv.size
                * np.max(np.abs(ops._conv_kernel(k, f, lv.t, R + lv.K * h, lv.Mx))) ** 2
                for lv in ev.levels))
            assert ev.far_gain[0] <= c
            i0, i1 = ops._box_ranges(f, dyadic_cube_pool(root, f), snap_outward=True,
                                     factor=3.0)
            a = np.abs(f.values)
            g1 = np.array([a[tuple(slice(max(p, 0), max(q, 0)) for p, q in zip(b0, b1))].sum()
                           for b0, b1 in zip(i0, i1)])
            h1 = a.sum() - g1
            for thr0 in c * a.sum() * np.geomspace(1e-3, 1.0, 7):
                cut = (1.0 - _PRUNE_DELTA) * thr0
                old = (c * g1 > cut) & (c * h1 > (math.sqrt(2.0) - 1.0) * cut)
                new = _lerner_keep(f, f.values, *_pool_corners(root, f), ev.far_gain, thr0)
                assert not np.any(new & ~old)
                dropped += int(np.sum(old & ~new))
        assert dropped

    @pytest.mark.parametrize("n, N", [(1, 32), (2, 8)])
    def test_pruning_needs_the_fast_path(self, monkeypatch, n, N):
        """method="direct" keeps the full pool."""
        vals = _prune_input(np.random.default_rng(3), n, N, "spike")
        sizes = _pool_sizes(monkeypatch)
        R, h = 4.0, 8.0 / N
        k = parse_kernel("ex1:kappa=3", n)
        cone = build_cone(1.0, n, h, 2 * h, 2 * R, 4)
        f = GridFunction(n, R, h, vals)
        root = Cube(n, 1, (0,) * n, "standard", 2 * R)
        sparse_construct(k, f, root, 1.0, cone, method="direct")
        assert sizes[0] == len(dyadic_cube_pool(root, f))
        sizes.clear()
        sparse_construct(k, f, root, 1.0, cone)
        assert sizes[0] < len(dyadic_cube_pool(root, f))

    @given(st.integers(min_value=1, max_value=2), st.sampled_from(["spike", "noise", "zero-run"]),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=24)
    def test_bounds_of_the_rule(self, n, kind, seed):
        """S g <= c ||g||_1 and |S f^2 - S g^2| <= S h (2 S f + S h) with
        g = f on a random box, h = f - g, for the evaluator and for the
        direct-summation square function."""
        from lpsq.operators import SquareEvaluator

        N = 32 if n == 1 else 8
        R, h = 4.0, 8.0 / N
        rng = np.random.default_rng(seed)
        k = parse_kernel("ex1:kappa=3", n)
        cone = build_cone(1.0, n, h, 2 * h, 2 * R, 4)
        f = GridFunction(n, R, h, _prune_input(rng, n, N, kind))
        ev = SquareEvaluator(k, f, cone)
        lo = rng.integers(0, N, n)
        box = tuple(slice(a, a + rng.integers(1, N - a + 1)) for a in lo)
        g = np.zeros_like(f.values)
        g[box] = f.values[box]
        hv = f.values - g
        c, l1 = ev.far_gain[0], float(np.abs(g).sum())
        tol = 1e-12 * c * float(np.abs(f.values).sum())
        direct = lambda v: square_function(k, f.with_values(v), cone, method="direct").values
        for S in (ev.eval_values, direct):
            sf, sg, sh = S(f.values), S(g), S(hv)
            assert np.all(sg <= c * l1 + tol)
            assert np.all(np.abs(sf**2 - sg**2) <= sh * (2 * sf + sh) * (1 + 1e-9) + tol * tol)

    def test_root_takes_s_f_once(self, monkeypatch):
        """Where the root's 3-dilate covers the grid, S f' is the S f taken
        for the bracket: no two evaluations see the same input."""
        from lpsq.operators import SquareEvaluator

        seen, inner = [], SquareEvaluator.eval_values

        def recorded(self, values):
            seen.append(np.array(values))
            return inner(self, values)

        monkeypatch.setattr(SquareEvaluator, "eval_values", recorded)
        vals = _prune_input(np.random.default_rng(0), 1, 128, "spike")
        self._construct(1, 128, vals, "auto")
        assert seen and np.array_equal(seen[0], vals)
        assert not any(np.array_equal(a, b) for a, b in itertools.combinations(seen, 2))


class TestSparsePlanReuse:
    """sparse_construct takes its evaluator from `SquareEvaluator.of`, which
    keeps one layout plan on the kernel object: constructions on one layout
    build it once, and their families are the bits of a fresh kernel's."""

    # seeds of 3- and 2-node families
    DEEP = {1: 0, 2: 3}

    @staticmethod
    def _layout(n):
        N, R = (128 if n == 1 else 16), 4.0
        h = 2 * R / N
        return (N, R, h, build_cone(1.0, n, h, 2 * h, 2 * R, 4),
                Cube(n, 1, (0,) * n, "standard", 2 * R))

    @classmethod
    def _input(cls, n, seed):
        """8 signed spikes (|a| in [1, 50]) on 0.01 noise."""
        N, R, h, _, _ = cls._layout(n)
        rng = np.random.default_rng(seed)
        vals = 0.01 * rng.standard_normal((N,) * n)
        for cell, a in zip(rng.integers(0, N, size=(8, n)),
                           rng.uniform(1, 50, 8) * rng.choice([-1.0, 1.0], 8)):
            vals[tuple(cell)] += a
        return GridFunction(n, R, h, vals)

    @pytest.mark.parametrize("n", [1, 2])
    def test_second_construction_builds_nothing(self, monkeypatch, n):
        """No evaluator, profile sample or Gram table on the second
        construction of an input, after a construction of another input."""
        from dataclasses import replace

        from lpsq.operators import SquareEvaluator

        *_, cone, q0 = self._layout(n)
        k0 = parse_kernel("ex1:kappa=3", n)
        inits, grams, profiles = [], [], []
        k = replace(k0, profile=lambda *a: profiles.append(1) or k0.profile(*a))
        init, gram = SquareEvaluator.__init__, SquareEvaluator.gram_table
        monkeypatch.setattr(SquareEvaluator, "__init__", lambda self, *a, **kw:
                            inits.append(1) or init(self, *a, **kw))
        monkeypatch.setattr(SquareEvaluator, "gram_table", lambda self:
                            grams.append(self._gram is None) or gram(self))
        fs = [self._input(n, self.DEEP[n]), self._input(n, 4)]
        first = [sparse_construct(k, f, q0, 1.0, cone) for f in fs]
        assert len(inits) == 1 and profiles and grams.count(True) <= 1
        for seen in (inits, grams, profiles):
            seen.clear()
        again = sparse_construct(k, fs[0], q0, 1.0, cone.with_alpha(1.0))
        assert (inits, profiles, grams.count(True)) == ([], [], 0)
        assert _family_key(again) == _family_key(first[0])

    @pytest.mark.parametrize("n", [1, 2])
    def test_other_cone_layout_or_method_gets_a_new_evaluator(self, n):
        from lpsq.operators import SquareEvaluator

        N, R, h, cone, _ = self._layout(n)
        k = parse_kernel("ex1:kappa=3", n)
        f = GridFunction(n, R, h, np.zeros((N,) * n))
        ev = SquareEvaluator.of(k, f, cone)
        assert ev.fast
        assert SquareEvaluator.of(k, f.with_values(np.ones((N,) * n)), cone.with_alpha(1.0),
                                  method="fft") is ev
        wide = GridFunction(n, 2 * R, h, np.zeros((2 * N,) * n))
        for other in (lambda: SquareEvaluator.of(k, f, cone.with_alpha(2.0)),
                      lambda: SquareEvaluator.of(k, f, build_cone(1.0, n, h, 2 * h, 2 * R, 2)),
                      lambda: SquareEvaluator.of(k, f, build_cone(1.0, n, h, h, 2 * R, 4)),
                      lambda: SquareEvaluator.of(k, wide, build_cone(1.0, n, h, 2 * h, 4 * R, 4)),
                      lambda: SquareEvaluator.of(k, f, cone, out_R=R + h),
                      lambda: SquareEvaluator.of(k, f, cone, method="direct")):
            assert other() is not ev
            ev = SquareEvaluator.of(k, f, cone)

    @pytest.mark.parametrize("n", [1, 2])
    def test_warm_families_equal_fresh_kernel(self, n):
        *_, cone, q0 = self._layout(n)
        warm = parse_kernel("ex1:kappa=3", n)
        for seed in range(6):
            f = self._input(n, seed)
            fams = [sparse_construct(kk, f, q0, 1.0, cone)
                    for kk in (warm, parse_kernel("ex1:kappa=3", n))]
            assert _family_key(fams[0]) == _family_key(fams[1])
            assert np.array_equal(*(sparse_rhs_eval(fam, f, 3).values for fam in fams))

    @pytest.mark.parametrize("n", [1, 2])
    def test_each_node_takes_s_f_once(self, monkeypatch, n):
        """M_S at a node takes S f'^2 from the S f' the node has just
        evaluated: no psi_t f' is taken inside `_lerner_batched`."""
        from lpsq import operators as ops

        inside, levels, calls = [False], [], []
        batched, level_values = ops._lerner_batched, ops.SquareEvaluator.level_values

        def recorded(*a):
            inside[0] = True
            calls.append(1)
            try:
                return batched(*a)
            finally:
                inside[0] = False

        monkeypatch.setattr(ops, "_lerner_batched", recorded)
        monkeypatch.setattr(ops.SquareEvaluator, "level_values", lambda self, v:
                            levels.append(inside[0]) or level_values(self, v))
        *_, cone, q0 = self._layout(n)
        f = self._input(n, self.DEEP[n])
        fam = sparse_construct(parse_kernel("ex1:kappa=3", n), f, q0, 1.0, cone)
        assert len(fam.cubes) > 1 and len(calls) > 1
        assert levels and not any(levels)
