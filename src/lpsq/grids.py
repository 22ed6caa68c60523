"""Uniform cell-centered grids and cone discretizations.

A GridFunction samples a real function at the centers of the cells of step h
tiling [-R, R]^n; sums against h^n give midpoint-rule integrals, and cells
nest exactly inside the anchored dyadic cubes used by the decomposition
machinery.  Functions are treated as identically zero outside the box.

A ConeGrid discretizes the upper half-space with geometric t-levels
(log-midpoint placement, ln r weight per level) and per-level offset
stencils |offset| < alpha * t.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, GridError, ParameterError, ResolutionError

__all__ = [
    "GridFunction",
    "Box",
    "sample_function",
    "parse_function",
    "ConeGrid",
    "build_cone",
    "build_halfspace",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
]

_BIN_MAGIC = b"LPGF"


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, lo/hi as length-n float tuples."""

    lo: tuple
    hi: tuple

    @property
    def n(self):
        return len(self.lo)

    @property
    def side(self):
        return self.hi[0] - self.lo[0]

    @property
    def center(self):
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def dilate(self, factor: float) -> "Box":
        c = self.center
        return Box(
            tuple(ci - factor * 0.5 * self.side for ci in c),
            tuple(ci + factor * 0.5 * self.side for ci in c),
        )

    def contains_point(self, x) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return all(lo <= xi < hi for lo, xi, hi in zip(self.lo, x, self.hi))


@dataclass(frozen=True)
class GridFunction:
    n: int
    R: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if self.n not in (1, 2):
            raise ParameterError(f"dimension must be 1 or 2, got {self.n}")
        if self.h <= 0:
            raise ParameterError("spacing h must be positive")
        ncells = self.ncells
        if abs(ncells * self.h - 2.0 * self.R) > 1e-9 * max(1.0, self.R):
            raise GridError(
                f"h={self.h} does not evenly divide the box [-{self.R}, {self.R}]"
            )
        if vals.shape != (ncells,) * self.n:
            raise GridError(f"values shape {vals.shape} != {(ncells,) * self.n}")
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise GridError(f"non-finite value at cell index {tuple(bad)}")

    @property
    def ncells(self) -> int:
        return int(round(2.0 * self.R / self.h))

    def axis_centers(self) -> np.ndarray:
        N = self.ncells
        return -self.R + (np.arange(N) + 0.5) * self.h

    def centers(self):
        """Cell-center coordinates, shape (N,) for n=1 or (N,N,2) for n=2."""
        c = self.axis_centers()
        if self.n == 1:
            return c
        X, Y = np.meshgrid(c, c, indexing="ij")
        return np.stack([X, Y], axis=-1)

    def norm_l1(self) -> float:
        return float(self.h**self.n * np.sum(np.abs(self.values)))

    def norm_l2(self) -> float:
        return float(math.sqrt(self.h**self.n * np.sum(self.values**2)))

    def norm_linf(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def norm_lp(self, p: float, weight: np.ndarray | None = None) -> float:
        dens = np.abs(self.values) ** p
        if weight is not None:
            dens = dens * weight
        return float((self.h**self.n * np.sum(dens)) ** (1.0 / p))

    def with_values(self, vals: np.ndarray) -> "GridFunction":
        return GridFunction(self.n, self.R, self.h, vals)

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            self.n == other.n
            and abs(self.R - other.R) < 1e-12
            and abs(self.h - other.h) < 1e-12
        )

    def index_of(self, x) -> tuple:
        """Cell index containing point x (x inside the box)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = np.floor((x + self.R) / self.h).astype(int)
        idx = np.clip(idx, 0, self.ncells - 1)
        return tuple(int(i) for i in idx)

    def value_at(self, x) -> float:
        return float(self.values[self.index_of(x)])

    def box(self) -> Box:
        return Box((-self.R,) * self.n, (self.R,) * self.n)


def _require_same_grid(*gfs: GridFunction):
    for g in gfs[1:]:
        if not gfs[0].same_grid(g):
            raise GridError("grid mismatch between operands")


def sample_function(fn: Callable, n: int, R: float, h: float) -> GridFunction:
    """Pointwise evaluation at cell centers; raises on non-finite values."""
    N = int(round(2.0 * R / h))
    if abs(N * h - 2.0 * R) > 1e-9 * max(1.0, R):
        raise GridError(f"h={h} must divide 2R={2 * R} evenly")
    c = -R + (np.arange(N) + 0.5) * h
    if n == 1:
        vals = np.asarray(fn(c), dtype=float)
    elif n == 2:
        X, Y = np.meshgrid(c, c, indexing="ij")
        vals = np.asarray(fn(X, Y), dtype=float)
    else:
        raise ParameterError("dimension must be 1 or 2")
    if not np.all(np.isfinite(vals)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(vals)))[0]
        loc = c[bad[0]] if n == 1 else (c[bad[0]], c[bad[1]])
        raise GridError(f"non-finite sample at {loc}")
    return GridFunction(n, R, h, vals)


def _radial(fn):
    def f1(x):
        return fn(np.abs(x))

    def f2(x, y):
        return fn(np.hypot(x, y))

    return f1, f2


def parse_function(spec: str, n: int, R: float, h: float) -> GridFunction:
    """Named analytic functions and CSV inputs for configs.

    ``gaussian[:sigma]``, ``bump:width``, ``hat[:width]``, ``box:halfwidth``,
    ``const:c``, ``csv:path``.
    """
    head, _, arg = spec.partition(":")
    if head == "csv":
        return load_csv(arg)
    if head == "gaussian":
        s = float(arg) if arg else 1.0
        fn = lambda r: np.exp(-((r / s) ** 2))
    elif head == "bump":
        wdt = float(arg) if arg else 1.0

        def fn(r):
            u = np.clip(r / wdt, 0.0, 1.0)
            with np.errstate(divide="ignore", over="ignore"):
                v = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u**2, 1e-300)), 0.0)
            return v * math.e  # normalized to 1 at the center
    elif head == "hat":
        wdt = float(arg) if arg else 1.0
        fn = lambda r: np.maximum(0.0, 1.0 - r / wdt)
    elif head == "box":
        a = float(arg) if arg else 1.0
        fn = lambda r: np.where(r <= a, 1.0, 0.0)
    elif head == "const":
        cval = float(arg) if arg else 1.0
        fn = lambda r: np.full_like(np.asarray(r, dtype=float), cval)
    else:
        raise ConfigError(f"unknown function id {spec!r}")
    f1, f2 = _radial(fn)
    return sample_function(f1 if n == 1 else f2, n, R, h)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def save_csv(gf: GridFunction, path: str) -> None:
    c = gf.axis_centers()
    with open(path, "w") as fh:
        if gf.n == 1:
            fh.write("x,value\n")
            for x, v in zip(c, gf.values):
                fh.write(f"{float(x)!r},{float(v)!r}\n")
        else:
            fh.write("x,y,value\n")
            for i, x in enumerate(c):
                for j, y in enumerate(c):
                    fh.write(f"{float(x)!r},{float(y)!r},{float(gf.values[i, j])!r}\n")


def _csv_spacing(path: str, x: np.ndarray) -> float:
    """Spacing of cell-center coordinates; raises unless uniform."""
    if x.size < 2:
        raise ConfigError(f"{path!r}: need at least two cell centers per axis")
    steps = np.diff(x)
    h = float(steps[0])
    if not h > 0 or np.max(np.abs(steps - h)) > 1e-6 * h:
        raise ConfigError(
            f"{path!r}: cell centers are not uniformly spaced "
            f"(steps between {np.min(steps):g} and {np.max(steps):g})"
        )
    return h


def load_csv(path: str) -> GridFunction:
    rows = np.genfromtxt(path, delimiter=",", skip_header=1)
    rows = np.atleast_2d(rows)
    if rows.shape[1] == 2:
        x, v = rows[:, 0], rows[:, 1]
        h = _csv_spacing(path, x)
        R = float(x[-1] + h / 2.0)
        return GridFunction(1, R, h, v)
    if rows.shape[1] == 3:
        x = np.unique(rows[:, 0])
        N = x.size
        h = _csv_spacing(path, x)
        if rows.shape[0] != N * N:
            raise ConfigError(f"{path!r}: {rows.shape[0]} rows for a {N}x{N} grid")
        R = float(x[-1] + h / 2.0)
        return GridFunction(2, R, h, rows[:, 2].reshape(N, N))
    raise ConfigError(f"{path!r}: expected 2 or 3 CSV columns")


def save_binary(gf: GridFunction, path: str) -> None:
    """Header: magic, n, R, h (little-endian), then float64 values."""
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<i d d", gf.n, gf.R, gf.h))
        fh.write(np.ascontiguousarray(gf.values, dtype="<f8").tobytes())


def load_binary(path: str) -> GridFunction:
    head = struct.Struct("<i d d")
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _BIN_MAGIC:
            raise ConfigError(f"{path!r} is not a grid-function file")
        raw = fh.read(head.size)
        if len(raw) != head.size:
            raise ConfigError(
                f"{path!r}: truncated header ({len(raw)} of {head.size} bytes)"
            )
        n, R, h = head.unpack(raw)
        data = fh.read()
    if n not in (1, 2) or not (math.isfinite(R) and R > 0 and math.isfinite(h) and h > 0):
        raise ConfigError(f"{path!r}: bad header n={n}, R={R}, h={h}")
    N = int(round(2.0 * R / h))
    if len(data) != 8 * N**n:
        raise ConfigError(
            f"{path!r}: {len(data)} value bytes, expected {8 * N**n} for "
            f"{N}^{n} float64 cells"
        )
    vals = np.frombuffer(data, dtype="<f8")
    return GridFunction(n, R, h, vals.reshape((N,) * n))


# ---------------------------------------------------------------------------
# cone discretization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeGrid:
    """Geometric t-levels with per-level integer offset stencils.

    Offsets are in cells; level j integrates over |y - x| < alpha * t_j.
    ``log_weight`` is ln(r) with r the level ratio 2^(1/q).
    """

    alpha: float
    n: int
    h: float
    t_levels: np.ndarray
    offsets: tuple
    log_weight: float
    max_radius: float

    @property
    def nlevels(self) -> int:
        return len(self.t_levels)

    def with_alpha(self, alpha: float) -> "ConeGrid":
        """Same levels and spacing, different aperture."""
        return build_cone(
            alpha, self.n, self.h, t_min=1.0, t_max=None, q=self._q(),
            levels=self.t_levels, max_radius=self.max_radius,
        )

    def _q(self) -> int:
        return int(round(math.log(2.0) / self.log_weight))


def _stencil(n: int, radius_cells_limit: float) -> np.ndarray:
    """Integer offsets m with |m| < radius_cells_limit (strict, Euclidean)."""
    k = int(math.ceil(radius_cells_limit)) - 1
    k = max(k, 0)
    if n == 1:
        m = np.arange(-k, k + 1)
        return m[np.abs(m) < radius_cells_limit]
    g = np.arange(-k, k + 1)
    MX, MY = np.meshgrid(g, g, indexing="ij")
    mask = MX**2 + MY**2 < radius_cells_limit**2
    return np.stack([MX[mask], MY[mask]], axis=-1)


def build_cone(
    alpha: float,
    n: int,
    h: float,
    t_min: float,
    t_max: float | None,
    q: int = 4,
    levels: np.ndarray | None = None,
    max_radius: float = math.inf,
) -> ConeGrid:
    """Cone discretization: levels at log-midpoints of [t_min, t_max].

    ``max_radius`` optionally caps the stencil radius (used by the
    half-space builder so huge apertures do not enumerate offsets past the
    lattice extent).
    """
    if alpha < 1.0:
        raise ParameterError(f"aperture alpha must be >= 1, got {alpha}")
    if q < 1:
        raise ParameterError("q (levels per octave) must be >= 1")
    if levels is None:
        if t_min <= 0 or t_max is None or t_max < t_min:
            raise ParameterError("need 0 < t_min <= t_max")
        L = max(1, int(round(q * math.log2(t_max / t_min))))
        r = 2.0 ** (1.0 / q)
        levels = t_min * r ** (np.arange(L) + 0.5)
    else:
        levels = np.asarray(levels, dtype=float)
    if alpha * float(levels[0]) < h:
        raise ResolutionError(
            f"alpha*t_min = {alpha * float(levels[0]):g} < h = {h:g}: "
            "lowest cone level has no nonzero offsets"
        )
    offs = tuple(
        _stencil(n, min(alpha * float(t), max_radius) / h) for t in levels
    )
    return ConeGrid(alpha, n, h, levels, offs, math.log(2.0) / q, max_radius)


def build_halfspace(
    n: int, h: float, t_min: float, t_max: float, q: int, extent: float
) -> ConeGrid:
    """Cone covering the whole lattice at every level (for g*-type sums)."""
    diam = 2.0 * extent * math.sqrt(n)
    alpha = max(1.0, diam / t_min)
    return build_cone(alpha, n, h, t_min, t_max, q, max_radius=diam + h)
