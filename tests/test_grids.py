import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import box_mask, dilate3
from lpsq.errors import ConfigError, GridError, ParameterError, ResolutionError
from lpsq.kernels import parse_kernel
from lpsq.moduli import parse_modulus
from lpsq.grids import (
    ConeGrid,
    GridFunction,
    build_cone,
    build_halfspace,
    cell_ranges,
    load_binary,
    load_csv,
    parse_function,
    prefix_sums,
    range_sums,
    sample_function,
    save_binary,
    save_csv,
    three_dilate,
)


class TestGridFunction:
    def test_box_indicator_l1(self):
        g = parse_function("box:1", 1, 2.0, 0.5)
        assert abs(g.norm_l1() - 2.0) <= g.h

    def test_gaussian_l1(self):
        g = sample_function(lambda x: np.exp(-(x**2)), 1, 8.0, 2.0**-6)
        assert g.norm_l1() == pytest.approx(math.sqrt(math.pi), abs=1e-6)

    def test_compact_support_exact_zero(self):
        g = parse_function("box:1", 1, 4.0, 0.25)
        c = g.axis_centers()
        assert np.all(g.values[np.abs(c) > 1.0] == 0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(GridError, match=r"cell index \(4,\), center \(0.25,\)"):
            sample_function(lambda x: np.where(x > 0, np.inf, 1.0), 1, 2.0, 0.5)
        with pytest.raises(GridError, match=r"cell index \(0, 1\), center \(-0.75, -0.25\)"):
            sample_function(lambda x, y: np.where(x + y > -1.1, np.nan, 1.0), 2, 1.0, 0.5)

    def test_uneven_spacing_rejected(self):
        with pytest.raises(GridError):
            sample_function(lambda x: x, 1, 1.0, 0.3)

    @pytest.mark.parametrize("R, h, bad", [(2.0, 0.0, "h=0.0"), (2.0, -0.5, "h=-0.5"),
                                           (-1.0, 0.5, "R=-1.0"), (0.0, 0.5, "R=0.0")])
    def test_nonpositive_spacing_or_extent_rejected(self, R, h, bad):
        with pytest.raises(GridError, match=bad):
            sample_function(lambda x: x, 1, R, h)

    @pytest.mark.parametrize("R, h, bad", [
        (math.inf, 0.5, "R=inf and spacing h=0.5 must be positive and finite"),
        (math.nan, 0.5, "R=nan"),
        (1.0, math.nan, "h=nan must be positive and finite"),
        (1.0, math.inf, "h=inf"),
        (1e308, 0.5, "past the array index range"),
        (1.0, 1e-308, "past the array index range"),
        (1e300, 0.5, "past the array index range"),
    ], ids=["R-inf", "R-nan", "h-nan", "h-inf", "2R-overflow", "2R/h-overflow",
            "index-range"])
    def test_nonfinite_or_overflowing_grid_rejected(self, R, h, bad):
        """One cell-count rule refuses these grids with a GridError, for
        sample_function (before any evaluation) and GridFunction alike."""
        calls = []
        with pytest.raises(GridError, match=bad):
            sample_function(lambda x: calls.append(1) or x, 1, R, h)
        assert calls == []
        with pytest.raises(GridError, match=bad):
            GridFunction(1, R, h, np.zeros(2))

    def test_2d_cell_count_past_the_index_range_rejected(self):
        with pytest.raises(GridError, match="2-D grid .* past the array index range"):
            GridFunction(2, 2.0**31, 0.5, np.zeros((2, 2)))

    @pytest.mark.parametrize("n, R, h, error, bad", [
        (3, 1.0, 0.5, ConfigError, "bad header n=3"),
        (1, 1e308, 0.5, GridError, "past the array index range"),
        (1, math.nan, 0.5, GridError, "R=nan"),
        (2, 1.0, 0.3, GridError, "h=0.3 must divide 2R=2.0 evenly"),
    ], ids=["n", "overflow", "R-nan", "uneven"])
    def test_binary_bad_header_is_refused(self, tmp_path, n, R, h, error, bad):
        """A header's grid passes the one cell-count rule."""
        import struct

        p = tmp_path / "g.bin"
        p.write_bytes(b"LPGF" + struct.pack("<i d d", n, R, h))
        with pytest.raises(error, match=bad):
            load_binary(str(p))

    def test_norms_2d(self):
        g = sample_function(lambda x, y: np.exp(-(x**2) - y**2), 2, 6.0, 1.0 / 8)
        assert g.norm_l1() == pytest.approx(math.pi, abs=1e-5)
        assert g.norm_l2() == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-5)

    def test_csv_roundtrip_bit_exact(self, tmp_path):
        g = sample_function(lambda x: np.sin(3 * x), 1, 4.0, 0.25)
        p = tmp_path / "g.csv"
        save_csv(g, str(p))
        g2 = load_csv(str(p))
        assert np.array_equal(g.values, g2.values)
        assert (g.R, g.h, g.n) == (g2.R, g2.h, g2.n)

    def test_csv_roundtrip_2d(self, tmp_path):
        g = sample_function(lambda x, y: x + 2 * y, 2, 2.0, 0.5)
        p = tmp_path / "g.csv"
        save_csv(g, str(p))
        g2 = load_csv(str(p))
        assert np.array_equal(g.values, g2.values)

    def test_binary_roundtrip(self, tmp_path):
        g = sample_function(lambda x: np.cos(x), 1, 4.0, 0.125)
        p = tmp_path / "g.bin"
        save_binary(g, str(p))
        g2 = load_binary(str(p))
        assert np.array_equal(g.values, g2.values)
        assert (g.R, g.h) == (g2.R, g2.h)

    def test_binary_truncated_header_is_config_error(self, tmp_path):
        g = sample_function(lambda x: np.cos(x), 1, 4.0, 0.5)
        p = tmp_path / "g.bin"
        save_binary(g, str(p))
        p.write_bytes(p.read_bytes()[:10])  # magic plus part of the header
        with pytest.raises(ConfigError, match="truncated header"):
            load_binary(str(p))

    def test_binary_truncated_values_is_config_error(self, tmp_path):
        g = sample_function(lambda x: np.cos(x), 1, 2.0, 0.5)  # 8 cells
        p = tmp_path / "g.bin"
        save_binary(g, str(p))
        p.write_bytes(p.read_bytes()[:-8])  # 7 values left
        with pytest.raises(ConfigError, match="value bytes"):
            load_binary(str(p))

    @pytest.mark.parametrize("path", ["missing.bin", "."], ids=["missing-file", "directory"])
    def test_binary_unreadable_is_config_error(self, tmp_path, path):
        with pytest.raises(ConfigError, match=f"cannot read .*{path}"):
            load_binary(str(tmp_path / path))

    def test_bin_function_id(self, tmp_path):
        g = sample_function(lambda x, y: np.cos(x) * y, 2, 2.0, 0.25)
        p = tmp_path / "g.bin"
        save_binary(g, str(p))
        g2 = parse_function(f"bin:{p}", 2, 2.0, 0.25)
        assert np.array_equal(g.values, g2.values) and (g.R, g.h) == (g2.R, g2.h)

    @staticmethod
    def _csv_2d(path, rows):
        path.write_text("x,y,value\n" + "".join(f"{x!r},{y!r},{v!r}\n" for x, y, v in rows))

    def test_csv_2d_rows_in_any_order(self, tmp_path):
        """A y-major file (x varying fastest) of x + 10 y loads by its (x, y)."""
        g = sample_function(lambda x, y: x + 10 * y, 2, 2.0, 0.5)
        c = g.axis_centers()
        p = tmp_path / "g.csv"
        self._csv_2d(p, [(float(x), float(y), float(x + 10 * y)) for y in c for x in c])
        assert np.array_equal(load_csv(str(p)).values, g.values)

    @pytest.mark.parametrize("shift, named", [(0.25, "do not lie on"), (0.0, "listed twice")])
    def test_csv_2d_off_lattice_or_repeated_cell_is_config_error(self, tmp_path, shift, named):
        c = sample_function(lambda x, y: x, 2, 2.0, 0.5).axis_centers()
        rows = [(float(x), float(y) + shift, 1.0) for x in c for y in c]
        if not shift:
            rows[1] = rows[0]
        p = tmp_path / "g.csv"
        self._csv_2d(p, rows)
        with pytest.raises(ConfigError, match=named):
            load_csv(str(p))

    def test_csv_nonuniform_spacing_is_config_error(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("x,value\n-0.75,1.0\n-0.25,2.0\n0.5,3.0\n0.75,4.0\n")
        with pytest.raises(ConfigError, match="uniformly spaced"):
            load_csv(str(p))

    @pytest.mark.parametrize("n", [1, 2])
    def test_csv_off_centre_is_config_error(self, tmp_path, n):
        """Cell centers that are not symmetric about 0 hold no grid
        [-R, R]^n: a ConfigError naming the file and the center range."""
        c = [0.5, 1.5, 2.5, 3.5] if n == 1 else [0.5, 1.5]
        p = tmp_path / "g.csv"
        if n == 1:
            p.write_text("x,value\n" + "".join(f"{x},1.0\n" for x in c))
        else:
            self._csv_2d(p, [(x, y, 1.0) for x in c for y in c])
        with pytest.raises(ConfigError, match=rf"g\.csv.*centers 0\.5 \.\. {c[-1]} are not "
                           "symmetric about 0"):
            load_csv(str(p))

    @pytest.mark.parametrize("n", [1, 2])
    def test_headerless_csv_loads_as_saved(self, tmp_path, n):
        """The header of a grid CSV is optional: without it, the first row
        is a cell like any other."""
        g = sample_function(lambda *x: 1.0 + sum(x), n, 2.0, 0.5)
        p, bare = tmp_path / "g.csv", tmp_path / "bare.csv"
        save_csv(g, str(p))
        bare.write_text("\n".join(p.read_text().splitlines()[1:]) + "\n")
        g2 = load_csv(str(bare))
        assert np.array_equal(g2.values, g.values) and (g2.n, g2.R, g2.h) == (n, g.R, g.h)

    def test_value_at(self):
        g = sample_function(lambda x: x, 1, 2.0, 0.5)
        # the cell of [0.25, 0.75) holds 0.3 and is sampled at its center
        assert g.values[int((0.3 + g.R) // g.h)] == pytest.approx(0.25)


class TestBox:
    def test_dilate(self):
        assert three_dilate(np.array([[[0.0], [1.0]]])).tolist() == [[[-1.0], [2.0]]]
        # the same floats as the oracle, in 2-D and off the lattice
        rng = np.random.default_rng(0)
        for a, w in zip(rng.uniform(-5, 5, (20, 2)), rng.uniform(0.01, 3, 20)):
            b = np.array([a, a + w])
            assert np.array_equal(three_dilate(b[None])[0], dilate3(b))

    @pytest.mark.parametrize("boxes, error, match", [
        ([[[0.0], [1.0, 2.0]]], GridError, "ragged"),
        ([[0.0], [1.0, 2.0]], GridError, "ragged"),
        ([[["a", "b"], ["c", "d"]]], ParameterError, "real numbers"),
        ([[["0", "0"], ["1", "1"]]], ParameterError, "real numbers"),
        ([[[None, 0.0], [1.0, 1.0]]], ParameterError, "real numbers"),
        ([[[1j, 0.0], [1.0, 1.0]]], ParameterError, "real numbers"),
        (np.zeros((3, 2)), GridError, r"expected \(boxes, 2, 2\)"),
        (np.zeros((3, 2, 1)), GridError, r"expected \(boxes, 2, 2\)"),
        (np.zeros((3, 3, 2)), GridError, r"expected \(boxes, 2, 2\)"),
        (np.zeros((1, 3, 2, 2)), GridError, r"expected \(boxes, 2, 2\)"),
        ("box", GridError, r"shape \(\)"),
        ([[[0.0, math.nan], [1.0, 1.0]]], ParameterError, "finite"),
        ([[[0.0, 0.0], [1.0, -math.inf]]], ParameterError, "finite"),
        ([[[0.0, 0.0], [1.0, 0.0]]], ParameterError, "hi > lo"),
    ], ids=["ragged-box", "ragged-corners", "strings", "numeric-strings", "none",
            "complex", "no-pair-axis", "other-n", "three-corners", "four-axes", "text",
            "nan", "inf", "hi-equals-lo"])
    def test_malformed_corners_are_named(self, boxes, error, match):
        """`cell_ranges` refuses what is not a real (nb, 2, n) corner array
        with a named error, never a numpy one."""
        g = GridFunction(2, 1.0, 0.5, np.zeros((4, 4)))
        with pytest.raises(error, match=match):
            cell_ranges(g, boxes)

    def test_empty_sequence_is_no_box(self):
        g = GridFunction(2, 1.0, 0.5, np.zeros((4, 4)))
        for boxes in ([], (), np.empty((0, 2, 2))):
            i0, i1 = cell_ranges(g, boxes, dilate=True)
            assert i0.shape == i1.shape == (0, 2)

    def test_contains(self):
        """A box holds the cells whose centers lie in [lo, hi): right-open."""
        g = GridFunction(2, 1.0, 0.5, np.zeros((4, 4)))  # centers -0.75 .. 0.75
        mask = box_mask(g, [(-0.25, -0.75), (0.75, 0.25)])
        assert mask.tolist() == [[0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0]]


class TestRangeSums:
    @pytest.mark.parametrize("n", [1, 2])
    def test_equal_to_slice_sums(self, n):
        rng = np.random.default_rng(n)
        a = rng.integers(-9, 10, (12,) * n)
        i0 = rng.integers(0, 13, (40, n))
        i1 = np.maximum(i0, rng.integers(0, 13, (40, n)))
        want = [a[tuple(slice(p, q) for p, q in zip(lo, hi))].sum() for lo, hi in zip(i0, i1)]
        assert range_sums(prefix_sums(a), i0, i1).tolist() == want


def _one_level(alpha: float, n: int, t: float) -> ConeGrid:
    """A cone of one level t on the unit lattice."""
    return ConeGrid(alpha, n, 1.0, np.array([t]), math.log(2.0) / 4, math.inf)


class TestCone:
    def test_offsets_example(self):
        c = _one_level(1.0, 1, 2.0)
        assert list(c.stencil(0)) == [-1, 0, 1]

    def test_aperture_monotone(self):
        c1 = build_cone(1.0, 1, 0.25, 0.5, 8.0, 4)
        c2 = build_cone(2.0, 1, 0.25, 0.5, 8.0, 4)
        for j in range(len(c1.t_levels)):
            assert set(c1.stencil(j).tolist()) <= set(c2.stencil(j).tolist())

    def test_cardinality(self):
        c = _one_level(4.0, 1, 64.0)
        count = len(c.stencil(0))
        assert 256 <= count <= 1024  # within factor 2 of 2 alpha t / h = 512

    def test_cardinality_2d(self):
        c = _one_level(2.0, 2, 8.0)
        target = math.pi * 16.0**2
        assert target / 2 <= len(c.stencil(0)) <= target * 2

    def test_resolution_error(self):
        with pytest.raises(ResolutionError):
            build_cone(1.0, 1, 1.0, 0.5, 4.0, 4)

    def test_bad_alpha(self):
        with pytest.raises(ParameterError):
            build_cone(0.5, 1, 1.0, 2.0, 4.0, 4)

    def test_discrete_cone_volume(self):
        # sum of counts h^n ln r approximates the truncated cone volume
        h, al = 1.0 / 16, 2.0
        c = build_cone(al, 1, h, 8 * h, 2.0, 4)
        disc = sum(len(c.stencil(j)) * h * c.log_weight for j in range(len(c.t_levels)))
        r = 2.0 ** (1.0 / 4)
        t_lo, t_hi = 8 * h, 8 * h * r ** len(c.t_levels)
        exact = 2 * al * (t_hi - t_lo)
        assert disc == pytest.approx(exact, rel=0.10)

    def test_radius_must_be_finite_unless_capped(self):
        """alpha t_max overflowing to inf is refused; a finite max_radius
        caps any finite alpha, as the cascade's apertures on a half-space."""
        with pytest.raises(ParameterError, match="must be finite, got inf"):
            build_cone(math.inf, 1, 0.25, 0.5, 8.0, 2)
        with pytest.raises(ParameterError, match="radius at inf cells"):
            build_cone(1e308, 1, 0.25, 0.5, 8.0, 2)
        with pytest.raises(ParameterError, match="radius at inf cells"):
            build_cone(1.0, 1, 0.25, 0.5, 8.0, 2).apertures([1.0, 1e308])
        capped = build_cone(1e308, 1, 0.25, 0.5, 8.0, 2, max_radius=10.0)
        assert capped.apertures([2.0**9, 1e308]) == [2.0**9, 1e308]
        with pytest.raises(ParameterError, match="must be finite, got inf"):
            capped.apertures([math.inf])

    @pytest.mark.parametrize("t_min", [0.0, -1.0, math.nan])
    def test_halfspace_bad_t_min(self, t_min):
        with pytest.raises(ParameterError, match="need 0 < t_min <= t_max"):
            build_halfspace(1, 0.25, t_min, 8.0, 2, 4.0)

    def test_halfspace_covers_lattice(self):
        hs = build_halfspace(1, 0.25, 0.5, 8.0, 2, 4.0)
        for j, t in enumerate(hs.t_levels):
            reach = max(abs(o) for o in hs.stencil(j)) * hs.h
            assert reach >= min(2 * 4.0, hs.max_radius) - 0.5

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5))
    @settings(max_examples=20)
    def test_monotone_in_alpha_property(self, a, lvl):
        c1 = build_cone(float(a), 1, 0.5, 1.0, 16.0, 2)
        c2 = build_cone(float(a + 1), 1, 0.5, 1.0, 16.0, 2)
        lvl = min(lvl, len(c1.t_levels) - 1)
        assert set(c1.stencil(lvl).tolist()) <= set(c2.stencil(lvl).tolist())


# the three readers of a CSV table: grid functions, kernel profiles and
# modulus tables
TABLE_CALLERS = {
    "grid": lambda p: load_csv(p),
    "kernel": lambda p: parse_kernel(f"csv:{p}", 1),
    "modulus": lambda p: parse_modulus(f"csv:{p}"),
}


class TestReadTable:
    @pytest.mark.parametrize("caller", sorted(TABLE_CALLERS))
    @pytest.mark.parametrize("text, line", [
        ("0,0\n0.5,abc\n1,1\n", 2),
        ("0,0\nnan,0.5\n1,1\n", 2),
        ("0,0\n0.5,inf\n1,1\n", 2),
        ("0,0\n0.5,0.5,1\n1,1\n", 2),
        ("# t, w\n\nx,value\n", 4),
        ("", 1),
        ("0,0\nx,value\n1,1\n", 2),
    ], ids=["non-number", "nan", "inf", "ragged", "header-only", "empty", "header-mid"])
    def test_malformed_table_names_path_and_line(self, tmp_path, caller, text, line):
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{str(p)!r} line {line}:")):
            TABLE_CALLERS[caller](str(p))

    @pytest.mark.parametrize("caller", ["kernel", "modulus"])
    def test_header_comments_and_blank_lines_are_skipped(self, tmp_path, caller):
        rows = "0,0\n0.5,0.25\n1,1\n"
        plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
        plain.write_text(rows)
        headed.write_text("# a table\n\nt,w\n" + rows.replace("\n", "\n\n", 1))
        u = np.linspace(-0.5, 1.5, 41)
        a, b = (TABLE_CALLERS[caller](str(q)) for q in (plain, headed))
        if caller == "kernel":
            assert np.array_equal(a.profile(u), b.profile(u))
        else:
            assert np.array_equal(a(u[u > 0]), b(u[u > 0]))
