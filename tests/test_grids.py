import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsq.errors import ConfigError, GridError, ParameterError, ResolutionError
from lpsq.grids import (
    Box,
    GridFunction,
    build_cone,
    build_halfspace,
    load_binary,
    load_csv,
    parse_function,
    sample_function,
    save_binary,
    save_csv,
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
        with pytest.raises(GridError):
            sample_function(lambda x: np.where(x > 0, np.inf, 1.0), 1, 2.0, 0.5)

    def test_uneven_spacing_rejected(self):
        with pytest.raises(GridError):
            sample_function(lambda x: x, 1, 1.0, 0.3)

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

    def test_csv_nonuniform_spacing_is_config_error(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("x,value\n-0.75,1.0\n-0.25,2.0\n0.5,3.0\n0.75,4.0\n")
        with pytest.raises(ConfigError, match="uniformly spaced"):
            load_csv(str(p))

    def test_value_at(self):
        g = sample_function(lambda x: x, 1, 2.0, 0.5)
        assert g.value_at(0.3) == pytest.approx(0.25)  # cell center of [0.25, 0.75)


class TestBox:
    def test_dilate(self):
        b = Box((0.0,), (1.0,))
        d = b.dilate(3.0)
        assert d.lo == (-1.0,) and d.hi == (2.0,)

    def test_contains(self):
        b = Box((0.0, 0.0), (1.0, 1.0))
        assert b.contains_point((0.5, 0.0))
        assert not b.contains_point((1.0, 0.5))  # right-open


class TestCone:
    def test_offsets_example(self):
        c = build_cone(1.0, 1, 1.0, 1.0, None, 4, levels=np.array([2.0]))
        assert list(c.offsets[0]) == [-1, 0, 1]

    def test_aperture_monotone(self):
        c1 = build_cone(1.0, 1, 0.25, 0.5, 8.0, 4)
        c2 = c1.with_alpha(2.0)
        for o1, o2 in zip(c1.offsets, c2.offsets):
            assert set(o1.tolist()) <= set(o2.tolist())

    def test_cardinality(self):
        c = build_cone(4.0, 1, 1.0, 1.0, None, 4, levels=np.array([64.0]))
        count = len(c.offsets[0])
        assert 256 <= count <= 1024  # within factor 2 of 2 alpha t / h = 512

    def test_cardinality_2d(self):
        c = build_cone(2.0, 2, 1.0, 1.0, None, 4, levels=np.array([8.0]))
        target = math.pi * 16.0**2
        assert target / 2 <= len(c.offsets[0]) <= target * 2

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
        disc = sum(len(o) * h * c.log_weight for o in c.offsets)
        r = 2.0 ** (1.0 / 4)
        t_lo, t_hi = 8 * h, 8 * h * r ** len(c.t_levels)
        exact = 2 * al * (t_hi - t_lo)
        assert disc == pytest.approx(exact, rel=0.10)

    def test_halfspace_covers_lattice(self):
        hs = build_halfspace(1, 0.25, 0.5, 8.0, 2, 4.0)
        for j, t in enumerate(hs.t_levels):
            reach = max(abs(o) for o in hs.offsets[j]) * hs.h
            assert reach >= min(2 * 4.0, hs.max_radius) - 0.5

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_alpha_property(self, a, lvl):
        c1 = build_cone(float(a), 1, 0.5, 1.0, 16.0, 2)
        c2 = build_cone(float(a + 1), 1, 0.5, 1.0, 16.0, 2)
        lvl = min(lvl, c1.nlevels - 1)
        assert set(c1.offsets[lvl].tolist()) <= set(c2.offsets[lvl].tolist())
