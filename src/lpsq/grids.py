"""Uniform cell-centered grids and cone discretizations.

A GridFunction samples a real function at the centers of the cells of step h
tiling [-R, R]^n; sums against h^n give midpoint-rule integrals, and cells
nest exactly inside the anchored dyadic cubes used by the decomposition
machinery.  Functions are treated as identically zero outside the box.
The cell count N = 2R / h has one rule, `_cell_count`: a non-finite or
uneven grid, or one of more cells than an array index holds, is a GridError.

A ConeGrid discretizes the upper half-space with geometric t-levels
(log-midpoint placement, ln r weight per level) and a radius rule: level j
integrates over the offsets |offset| < min(alpha t_j, max_radius), built on
demand by `ConeGrid.stencil`.

A box is its (2, n) corner array [lo, hi], and a list of boxes (a pool)
the (nb, 2, n) array of them.  Boxes reach the cells through one rule,
`cell_ranges`, which turns such an array into per-axis index ranges by the
cell-center rule, optionally of the 3-dilates (`three_dilate`, the one
dilate expression) snapped outward.  It is also the gate of every box,
before any work: input that is not an (nb, 2, n) array (ragged, of another
dimension) is a GridError, and non-numeric, non-finite corners or sides,
hi <= lo and pool boxes that are not cubes are ParameterErrors.  The Lerner
pool, the sparse pruning and A_S f group their boxes by the shape of those
ranges through one function, `shape_groups`.

Each input format has one reader here, and a malformed input is a
ConfigError: `read_text` (any file), `load_binary`, `read_json` (a JSON
object), `resolve_schema` (its typed keys) and `read_table` (every ``csv:``
table: grid functions, kernel profiles, modulus tables).  The table rule:
blank lines and whole-line ``#`` comments are skipped, and so is the first
remaining line when a field is not a number (a header); every other line
holds one of the allowed numbers of fields, the same in every line, each a
finite float; the error names the path and the line.  The schema rule: a
key maps to (type, default), a type being a Python type (an int passes as a
float, a bool as neither), a tuple of types, a set of string choices,
[type] for a nonempty list, or a dict, the schema of a nested object;
unknown, missing required and ill-typed keys are named.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, GridError, ParameterError, ResolutionError

__all__ = [
    "GridFunction",
    "sample_function",
    "parse_function",
    "ConeGrid",
    "build_cone",
    "build_halfspace",
    "save_csv",
    "load_csv",
    "save_binary",
    "load_binary",
    "prefix_sums",
    "box_sums",
    "range_sums",
    "three_dilate",
    "cell_ranges",
    "shape_groups",
]

_BIN_MAGIC = b"LPGF"


def _cell_count(n: int, R: float, h: float) -> int:
    """The cells per axis, N = 2R / h, of the n-D grid of half-width R and
    step h: the one cell-count rule.  R and h must be finite and positive,
    h must divide 2R within 1e-9 max(1, R), and the N^n cells must fit an
    array index; anything else is a `GridError`."""
    if not (math.isfinite(R) and R > 0 and math.isfinite(h) and h > 0):
        raise GridError(f"box half-width R={R} and spacing h={h} must be positive and finite")
    cells = 2.0 * R / h
    if not cells < sys.maxsize ** (1.0 / n):  # inf for an overflowing 2R / h
        raise GridError(f"the {n}-D grid of R={R}, h={h} has {cells:.6g} cells per "
                        "axis, past the array index range")
    N = int(round(cells))
    if abs(N * h - 2.0 * R) > 1e-9 * max(1.0, R):
        raise GridError(f"h={h} must divide 2R={2 * R} evenly")
    return N


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
        ncells = self.ncells
        if vals.shape != (ncells,) * self.n:
            raise GridError(f"values shape {vals.shape} != {(ncells,) * self.n}")
        if not np.all(np.isfinite(vals)):
            bad = np.argwhere(~np.isfinite(vals))[0]
            raise GridError(f"non-finite value at cell index {tuple(bad.tolist())}, "
                            f"center {tuple((-self.R + (bad + 0.5) * self.h).tolist())}")

    @property
    def ncells(self) -> int:
        return _cell_count(self.n, self.R, self.h)

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


def prefix_sums(a: np.ndarray) -> np.ndarray:
    """Cumulative sums of a along the axes 0, 1, ... in order, with a zero
    prepended on each axis: c[i, j] is the sum of a[:i, :j].  A boolean or
    integer array gives an exact integer table."""
    s = a
    for ax in range(a.ndim):
        s = np.cumsum(s, axis=ax)
    c = np.zeros(tuple(d + 1 for d in a.shape), dtype=s.dtype)
    c[(slice(1, None),) * a.ndim] = s
    return c


def box_sums(c: np.ndarray, L: int) -> np.ndarray:
    """The sums over every box of side L cells from a `prefix_sums` table c,
    by inclusion-exclusion: out[i, j] is the sum over [i, i + L) x [j, j + L).

    The corners go in the order ((c11 - c01) - c10) + c00 (axis 0 varying
    fastest), so the block sums of a subsampled table, box_sums(c[::b, ::b],
    1), are the same floats as the per-block differences of c."""
    out = None
    for corner in itertools.product((1, 0), repeat=c.ndim):
        corner = corner[::-1]
        term = c[tuple(slice(L, None) if hi else slice(None, d - L)
                       for hi, d in zip(corner, c.shape))]
        if out is None:
            out = term
        elif (c.ndim - sum(corner)) % 2:
            out = out - term
        else:
            out = out + term
    return out


def range_sums(c: np.ndarray, i0: np.ndarray, i1: np.ndarray) -> np.ndarray:
    """The sums over the boxes [i0[b], i1[b]) (per axis; (nb, n) index
    arrays within the table's range) from a `prefix_sums` table c, by
    inclusion-exclusion with the corners in the order of `box_sums`."""
    out = np.zeros(len(i0), dtype=c.dtype)
    for corner in itertools.product((1, 0), repeat=c.ndim):
        corner = corner[::-1]
        term = c[tuple((i1 if hi else i0)[:, ax] for ax, hi in enumerate(corner))]
        out = out - term if (c.ndim - sum(corner)) % 2 else out + term
    return out


# ---------------------------------------------------------------------------
# the cells of a box
# ---------------------------------------------------------------------------


def three_dilate(boxes: np.ndarray) -> np.ndarray:
    """The 3-dilates 3B of the boxes B of an (nb, 2, n) corner array, as
    one: the center -+ 3/2 times the axis-0 side on every axis."""
    lo, hi = boxes[:, 0], boxes[:, 1]
    c, half = 0.5 * (lo + hi), 3.0 * 0.5 * (hi[:, :1] - lo[:, :1])
    return np.stack((c - half, c + half), axis=1)


def cell_ranges(gf: GridFunction, boxes, dilate: bool = False, aligned: bool = False) -> tuple:
    """Per-axis [start, stop) index ranges, as (nb, n) integer arrays, of
    the cells of gf's lattice that the boxes select, ``boxes`` an (nb, 2, n)
    corner array (any array-like; an empty sequence is no box): the one
    rule from box corners to cells.

    A cell counts when its center lies in [lo, hi).  With ``dilate`` the
    boxes must be cubes, and the cells are those of their `three_dilate`
    3Q snapped outward, the convention for 3Q dilates: a cell counts when
    its center lies in [lo - h/2, hi + h/2) of 3Q, which for a
    lattice-aligned 3Q is the cells inside plus the left neighbour.
    Coordinates are taken in cell units and rounded to the lattice within
    1e-9, so one box shape selects the same number of cells wherever it
    sits; ``aligned`` requires every corner on a cell edge within that
    margin (`GridError` otherwise).  Ranges are not clipped to the grid,
    but a corner more than two box widths past it is moved to that
    distance, which selects the same cells, before the integer cast.

    Refused before any work: ragged input or an array of another shape
    than (nb, 2, gf.n) (`GridError`); corners that are not real numbers, a
    non-finite corner or side, hi <= lo on an axis and, with ``dilate``,
    sides that differ by more than 1e-9 relative or a 3-dilate that
    overflows (`ParameterError`).
    """
    try:
        b = np.asarray(boxes)
    except ValueError:
        raise GridError(f"ragged box corners; expected (boxes, 2, {gf.n}) on the "
                        f"{gf.n}-D grid") from None
    if b.ndim == 1 and b.size == 0:
        b = b.reshape(0, 2, gf.n)
    if b.ndim != 3 or b.shape[1:] != (2, gf.n):
        raise GridError(f"box corners of shape {b.shape}; expected (boxes, 2, {gf.n}) on "
                        f"the {gf.n}-D grid")
    if b.dtype.kind not in "iuf":
        raise ParameterError(f"box corners must be real numbers, got {b.dtype} values")
    b = b.astype(float, copy=False)
    N = gf.ncells
    with np.errstate(over="ignore", invalid="ignore"):
        side = b[:, 1] - b[:, 0]  # NaN or inf for a non-finite corner or side
        if not (side.min(initial=math.inf) > 0 and side.max(initial=0.0) < math.inf):
            if not np.isfinite(b).all():
                raise ParameterError("box corners must be finite")
            if (side <= 0).any():
                raise ParameterError("every box needs hi > lo on each axis")
            raise ParameterError("a box side overflows")
        if dilate:
            if gf.n > 1 and (np.abs(side - side[:, :1]) > 1e-9 * side[:, :1]).any():
                raise ParameterError("a box with unequal sides has no 3-dilate; "
                                     "pool boxes must be cubes")
            b = three_dilate(b)
            if not (b[:, 1] - b[:, 0]).max(initial=0.0) < math.inf:
                raise ParameterError("a box's 3-dilate overflows")
        x = (b + gf.R) / gf.h  # cell units
    # a corner two box widths (2N cells) past the grid selects what any
    # farther one does
    np.maximum(x, -2.0 * N, out=x)
    np.minimum(x, 3.0 * N, out=x)
    if aligned and np.abs(x - np.round(x)).max(initial=0.0) > 1e-9:
        raise GridError(f"a box is not lattice-aligned at h={gf.h}")
    # cell i is selected for lo - pad <= i + 1/2 < hi + pad (cell units),
    # pad = 1/2 with dilate
    x -= 0.5
    if dilate:
        x[:, 0] -= 0.5
        x[:, 1] += 0.5
    x -= 1e-9
    i = np.ceil(x, out=x).astype(np.intp)
    return i[:, 0], i[:, 1]


def shape_groups(i0: np.ndarray, i1: np.ndarray, j0: np.ndarray, j1: np.ndarray) -> list:
    """The boxes grouped by shape, for an outer range [i0, i1) and an inner
    one [j0, j1) per box ((nb, n) `cell_ranges`, unclipped, such as 3B and
    B): (key, rows) pairs, the key per axis (cells of the outer range,
    cells of the inner, offset of the inner in the outer) and rows the
    ascending indices of the boxes of that shape."""
    if not len(i0):
        return []
    keys = np.stack([i1 - i0, j1 - j0, j0 - i0], axis=-1).reshape(len(i0), -1)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.ravel()
    order = np.argsort(inv, kind="stable")
    ends = np.cumsum(np.bincount(inv)).tolist()
    keys = uniq.reshape(len(uniq), -1, 3).tolist()
    return [(tuple(map(tuple, key)), order[start:end])
            for key, start, end in zip(keys, [0] + ends, ends)]


def sample_function(fn: Callable, n: int, R: float, h: float) -> GridFunction:
    """Pointwise evaluation at cell centers.  A grid that `_cell_count`
    refuses is a GridError before any evaluation, and so, from
    `GridFunction`, is a non-finite sample."""
    if n not in (1, 2):
        raise ParameterError("dimension must be 1 or 2")
    c = -R + (np.arange(_cell_count(n, R, h)) + 0.5) * h
    if n == 1:
        vals = np.asarray(fn(c), dtype=float)
    else:
        X, Y = np.meshgrid(c, c, indexing="ij")
        vals = np.asarray(fn(X, Y), dtype=float)
    return GridFunction(n, R, h, vals)


def _radial(fn):
    def f1(x):
        return fn(np.abs(x))

    def f2(x, y):
        return fn(np.hypot(x, y))

    return f1, f2


def parse_function(spec: str, n: int, R: float, h: float) -> GridFunction:
    """Named analytic functions and CSV inputs for configs.

    ``gaussian[:sigma]``, ``bump[:width]``, ``hat[:width]``,
    ``box[:halfwidth]``, ``const[:c]`` (each argument 1 when left out),
    ``csv:path``, ``bin:path`` (a `save_binary` file, such as the grid
    outputs of ``eval`` and ``cz``).  An argument must be a finite number,
    and a width (gaussian, bump, hat, box) must be > 0; anything else is a
    ConfigError naming the id.
    """
    head, _, arg = spec.partition(":")
    if head == "csv":
        return load_csv(arg)
    if head == "bin":
        return load_binary(arg)
    if head not in ("gaussian", "bump", "hat", "box", "const"):
        raise ConfigError(f"unknown function id {spec!r}")
    try:
        a = float(arg) if arg else 1.0
    except ValueError:
        a = math.nan
    if not math.isfinite(a) or not (head == "const" or a > 0):
        need = "a finite number" if head == "const" else "a finite width > 0"
        raise ConfigError(f"function id {spec!r}: the argument must be {need}")
    if head == "gaussian":
        fn = lambda r: np.exp(-((r / a) ** 2))
    elif head == "bump":

        def fn(r):
            u = np.clip(r / a, 0.0, 1.0)
            with np.errstate(divide="ignore", over="ignore"):
                v = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u**2, 1e-300)), 0.0)
            return v * math.e  # normalized to 1 at the center
    elif head == "hat":
        fn = lambda r: np.maximum(0.0, 1.0 - r / a)
    elif head == "box":
        fn = lambda r: np.where(r <= a, 1.0, 0.0)
    else:
        fn = lambda r: np.full_like(np.asarray(r, dtype=float), a)
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


def load_csv(path: str) -> GridFunction:
    """The grid function of a `read_table` CSV of (x, value) or (x, y,
    value) rows in any order, as `save_csv` writes it: the x must be
    uniformly spaced cell centers, symmetric about 0 (the grid is
    [-R, R]^n), and each row a distinct cell of them."""
    rows = read_table(path, (2, 3))
    n = rows.shape[1] - 1
    x = np.unique(rows[:, 0])
    N = x.size
    steps = np.diff(x)
    if N < 2 or np.max(np.abs(steps - steps[0])) > 1e-6 * steps[0]:
        raise ConfigError(f"{path!r}: need at least two uniformly spaced cell centers "
                          f"per axis, got {N} with steps between {np.min(steps, initial=0):g} "
                          f"and {np.max(steps, initial=0):g}")
    h = float(steps[0])
    if abs(x[0] + x[-1]) > 1e-6 * h:
        raise ConfigError(f"{path!r}: cell centers {x[0]:g} .. {x[-1]:g} are not symmetric "
                          f"about 0; the grid is [-R, R]^{n}")
    if rows.shape[0] != N**n:
        raise ConfigError(f"{path!r}: {rows.shape[0]} rows for a {N}^{n} grid")
    cell = np.searchsorted(x, rows[:, 0])
    if n == 2:  # each value goes to the cell of its (x, y)
        j = np.minimum(np.searchsorted(x, rows[:, 1] - h / 2.0), N - 1)
        if not np.all(np.abs(rows[:, 1] - x[j]) <= 1e-6 * h):
            raise ConfigError(f"{path!r}: y values do not lie on the x cell centers")
        cell = cell * N + j
        if np.unique(cell).size != cell.size:
            raise ConfigError(f"{path!r}: a cell is listed twice")
    vals = np.empty(N**n)
    vals[cell] = rows[:, n]
    return GridFunction(n, float(x[-1] + h / 2.0), h, vals.reshape((N,) * n))


def save_binary(gf: GridFunction, path: str) -> None:
    """Header: magic, n, R, h (little-endian), then float64 values."""
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<i d d", gf.n, gf.R, gf.h))
        fh.write(np.ascontiguousarray(gf.values, dtype="<f8").tobytes())


def load_binary(path: str) -> GridFunction:
    """The grid function of a `save_binary` file; a file that cannot be
    read or does not hold one is a ConfigError, and a header grid that
    `_cell_count` refuses a GridError."""
    head = struct.Struct("<i d d")
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from None
    if blob[:4] != _BIN_MAGIC:
        raise ConfigError(f"{path!r} is not a grid-function file")
    raw, data = blob[4 : 4 + head.size], blob[4 + head.size :]
    if len(raw) != head.size:
        raise ConfigError(f"{path!r}: truncated header ({len(raw)} of {head.size} bytes)")
    n, R, h = head.unpack(raw)
    if n not in (1, 2):
        raise ConfigError(f"{path!r}: bad header n={n}")
    N = _cell_count(n, R, h)
    if len(data) != 8 * N**n:
        raise ConfigError(
            f"{path!r}: {len(data)} value bytes, expected {8 * N**n} for "
            f"{N}^{n} float64 cells"
        )
    vals = np.frombuffer(data, dtype="<f8")
    return GridFunction(n, R, h, vals.reshape((N,) * n))


def read_text(path: str) -> str:
    """The text of a file named by a config or id; a file that cannot be
    read (missing, a directory, no permission) or decoded is a
    ConfigError."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path!r}: not text ({exc.reason})") from None


def read_json(path: str) -> dict:
    """The JSON object in a file (`read_text`); text that does not parse,
    or holds another JSON value, is a ConfigError."""
    try:
        obj = json.loads(read_text(path))
    except ValueError as exc:
        raise ConfigError(f"{path!r} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path!r} does not hold a JSON object")
    return obj


def read_table(path: str, widths: tuple) -> np.ndarray:
    """The rows of a CSV table of numbers, by the table rule (module
    docstring), as a (rows, width) float array with width in ``widths``;
    the meaning of the numbers is the caller's to check."""
    rows, seen, line = [], False, 0
    for line, text in enumerate(read_text(path).splitlines(), 1):
        if not text.strip() or text.lstrip().startswith("#"):
            continue
        try:
            row = [float(x) for x in text.split(",")]
        except ValueError:
            row = None
        header, seen = not seen, True  # only the first line may be a header
        if row is None and header:
            continue
        allowed = (len(rows[0]),) if rows else widths
        if row is None or len(row) not in allowed:
            need = " or ".join({2: "two", 3: "three"}[w] for w in allowed)
            raise ConfigError(f"table {path!r} line {line}: expected {need} numbers, "
                              f"got {text!r}")
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"table {path!r} line {line}: non-finite number in {text!r}")
        rows.append(row)
    if not rows:
        raise ConfigError(f"table {path!r} line {line + 1}: expected a row of numbers, "
                          "got the end of the file")
    return np.array(rows)


def _kind_name(kind) -> str:
    if isinstance(kind, dict):
        return "an object"
    if isinstance(kind, list):
        inner = "objects" if isinstance(kind[0], dict) else _kind_name(kind[0])
        return f"a nonempty list of {inner}"
    if isinstance(kind, set):
        return f"one of {sorted(kind)}"
    if isinstance(kind, tuple):
        return " or ".join(t.__name__ for t in kind)
    return kind.__name__


def _typed(what: str, key: str, val, kind, nullable: bool):
    """val checked against a schema type, or a ConfigError naming the key."""
    if val is None and nullable:
        return None
    if isinstance(kind, dict):
        if isinstance(val, dict):
            return resolve_schema(kind, val, what, f"{key}.")
    elif isinstance(kind, list):
        if isinstance(val, list) and val:
            return [_typed(what, key, v, kind[0], False) for v in val]
    elif isinstance(kind, set):
        if isinstance(val, str) and val in kind:
            return val
    else:
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if type(val) in kinds:
            return val
        if float in kinds and type(val) is int and abs(val) <= sys.float_info.max:
            return float(val)
    raise ConfigError(f"{what} key {key!r}: {val!r} is not {_kind_name(kind)}")


def resolve_schema(schema: dict, given, what: str, prefix: str = "") -> dict:
    """Every key of a schema, typed, from a JSON object (of the kind
    ``what``; ``prefix`` is the path of a nested object) or the key's
    default, by the schema rule (module docstring).  A key whose default is
    None may be null, and one whose default is ``...`` is required."""
    if not isinstance(given, dict):
        raise ConfigError(f"{what}: expected a JSON object, got {type(given).__name__}")
    unknown = sorted(set(given) - set(schema))
    if unknown:
        raise ConfigError(f"unknown {what} keys {[prefix + key for key in unknown]}")
    out = {}
    for key, (kind, default) in schema.items():
        if default is ... and key not in given:
            raise ConfigError(f"{what}: missing key {prefix + key!r}")
        out[key] = _typed(what, prefix + key, given.get(key, default), kind, default is None)
    return out


# ---------------------------------------------------------------------------
# cone discretization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeGrid:
    """Geometric t-levels and the radius rule of their offset stencils.

    Level j integrates over |y - x| < min(alpha t_j, max_radius);
    `stencil` lists its offsets in cells.  ``log_weight`` is ln(r) with r
    the level ratio 2^(1/q).
    """

    alpha: float
    n: int
    h: float
    t_levels: np.ndarray
    log_weight: float
    max_radius: float

    def stencil(self, j: int) -> np.ndarray:
        """Integer offsets (cells) of level j."""
        lim = min(self.alpha * float(self.t_levels[j]), self.max_radius) / self.h
        return _stencil(self.n, lim)

    def apertures(self, alphas) -> list:
        """The apertures of an S_alpha list on these levels, as floats: at
        least one, each passing `_check_reach`; apertures below 1 are
        allowed."""
        alphas = [float(a) for a in alphas]
        if not alphas:
            raise ParameterError("S_alpha needs at least one alpha")
        for a in alphas:
            _check_reach(a, self.h, self.t_levels, self.max_radius)
        return alphas


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


def _check_reach(alpha: float, h: float, levels: np.ndarray, max_radius: float) -> None:
    """alpha is finite, so is the top level's radius min(alpha t_max,
    max_radius) in cells, and the lowest level's stencil reaches past
    offset 0: alpha t_min >= h.  A finite max_radius caps any finite alpha."""
    if not math.isfinite(alpha):
        raise ParameterError(f"aperture alpha must be finite, got {alpha}")
    cells = min(alpha * float(levels[-1]), max_radius) / h
    if not math.isfinite(cells):
        raise ParameterError(
            f"aperture alpha = {alpha:g} puts the top cone level's radius at {cells} "
            "cells; it must be finite")
    if alpha * float(levels[0]) < h:
        raise ResolutionError(
            f"alpha*t_min = {alpha * float(levels[0]):g} < h = {h:g}: "
            "lowest cone level has no nonzero offsets"
        )


def build_cone(
    alpha: float,
    n: int,
    h: float,
    t_min: float,
    t_max: float,
    q: int = 4,
    max_radius: float = math.inf,
) -> ConeGrid:
    """Cone discretization: levels at log-midpoints of [t_min, t_max].

    ``max_radius`` optionally caps the stencil radius (used by the
    half-space builder so huge apertures reach no further than the
    lattice).
    """
    if q < 1:
        raise ParameterError("q (levels per octave) must be >= 1")
    if not 0 < t_min <= t_max:
        raise ParameterError("need 0 < t_min <= t_max")
    L = max(1, int(round(q * math.log2(t_max / t_min))))
    r = 2.0 ** (1.0 / q)
    levels = t_min * r ** (np.arange(L) + 0.5)
    if not alpha >= 1.0:
        raise ParameterError(f"aperture alpha must be >= 1, got {alpha}")
    _check_reach(alpha, h, levels, max_radius)
    return ConeGrid(alpha, n, h, levels, math.log(2.0) / q, max_radius)


def build_halfspace(
    n: int, h: float, t_min: float, t_max: float, q: int, extent: float
) -> ConeGrid:
    """Cone covering the whole lattice at every level (for g*-type sums)."""
    if not 0 < t_min <= t_max:
        raise ParameterError("need 0 < t_min <= t_max")
    diam = 2.0 * extent * math.sqrt(n)
    alpha = max(1.0, diam / t_min)
    return build_cone(alpha, n, h, t_min, t_max, q, max_radius=diam + h)
