"""Dyadic cubes, Calderon-Zygmund decomposition, sparse families.

The dyadic lattice is anchored at coordinate 0 with base side 2R (the box
width), so generation g cubes have side 2R * 2^-g and generation log2(N)
cubes are single grid cells.  Cell counting is exact: every cube maps to an
integer index range, and all measure comparisons (CZ selection, sparseness,
stopping ratios) are integer arithmetic.  This one lattice is the only kind
of cube: the sparse bound runs over its cubes and their 3-dilates.

The tree is walked one generation at a time, as whole arrays and in n = 1
and 2 alike (`_generations`): the sums over all cubes of a generation are
the block sums of one prefix table (`grids.box_sums`).  The CZ selection
and the sparse share selection are one stopping-time walk
(`_stopping_cubes`) with different stopping rules, and `dyadic_cube_pool`
lists the cubes of every generation.  `sparse_construct` drops from that
pool, as corner arrays and before any `Box` is built, the boxes whose M_S
term cannot change its level set.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import operators as ops
from .errors import (
    ConfigError,
    ConstructionError,
    ContainmentError,
    GridError,
    ParameterError,
)
from .grids import (
    Box, ConeGrid, GridFunction, box_sums, load_binary, prefix_sums, range_sums,
    read_json, save_binary,
)
from .moduli import dini_constant

__all__ = [
    "Cube",
    "CZDecomposition",
    "SparseFamily",
    "cz_decompose",
    "sparse_construct",
    "verify_sparse",
    "sparse_rhs_eval",
    "dyadic_cube_pool",
]


@dataclass(frozen=True, order=True)
class Cube:
    """Cube of the dyadic lattice of base side ``base``.

    ``generation`` counts halvings from the base side and ``anchor`` indexes
    the cube in units of its own side.  ``shift`` names the lattice; only
    "standard" exists (any other value is a `ParameterError`), and family
    files record it.
    """

    n: int
    generation: int
    anchor: tuple = ()
    shift: str = "standard"
    base: float = 2.0

    def __post_init__(self):
        if self.shift != "standard":
            raise ParameterError(f"unknown lattice {self.shift!r}; only 'standard' exists")

    @property
    def side(self) -> float:
        return self.base * 2.0 ** (-self.generation)

    @property
    def lo(self) -> tuple:
        s = self.side
        return tuple(a * s for a in self.anchor)

    @property
    def hi(self) -> tuple:
        s = self.side
        return tuple(a + s for a in self.lo)

    @property
    def center(self) -> tuple:
        s = self.side
        return tuple(a + s / 2.0 for a in self.lo)

    def box(self) -> Box:
        return Box(self.lo, self.hi)

    def parent(self) -> "Cube":
        return Cube(self.n, self.generation - 1, tuple(a >> 1 for a in self.anchor),
                    "standard", self.base)

    def children(self) -> list:
        return [
            Cube(self.n, self.generation + 1,
                 tuple(2 * a + d for a, d in zip(self.anchor, ds)), "standard", self.base)
            for ds in itertools.product((0, 1), repeat=self.n)
        ]

    def contains(self, other: "Cube") -> bool:
        return all(
            sl <= ol and oh <= sh + 1e-12 * max(1.0, abs(sh))
            for sl, ol, oh, sh in zip(self.lo, other.lo, other.hi, self.hi)
        )

    def cell_range(self, gf: GridFunction) -> tuple:
        """Per-axis (start, stop) cell index ranges on gf's lattice; exact."""
        out = []
        for ax in range(self.n):
            lo = (self.lo[ax] + gf.R) / gf.h
            hi = (self.hi[ax] + gf.R) / gf.h
            i0 = int(round(lo))
            i1 = int(round(hi))
            if abs(lo - i0) > 1e-9 or abs(hi - i1) > 1e-9:
                raise GridError(f"cube {self} is not lattice-aligned at h={gf.h}")
            out.append((max(i0, 0), min(i1, gf.ncells)))
        return tuple(out)

    def ncells_inside(self, gf: GridFunction) -> int:
        r = self.cell_range(gf)
        total = 1
        for i0, i1 in r:
            total *= max(0, i1 - i0)
        return total


def _dyadic_root_cells(N: int) -> None:
    if N < 2 or N & (N - 1):
        raise GridError("dyadic machinery needs a power-of-two cell count >= 2")


def _generations(gf: GridFunction, g: int, lo, hi):
    """The dyadic generations g, g + 1, ... down to single cells, as arrays.

    Starts from the generation-g cubes with anchors in [lo, hi) per axis.
    Per generation it yields g, the anchors (per axis) of the cubes that
    meet the box, and their cell edges per axis, clipped to the box (one
    more edge than anchors): on generation g >= 1 blocks of N / 2^g cells.
    """
    N = gf.ncells
    while 2**g <= N:
        m = max(1, 2 ** (g - 1))  # the box holds the anchors [-m, m)
        anchors = [np.arange(max(a, -m), min(b, m)) for a, b in zip(lo, hi)]
        if any(A.size == 0 for A in anchors):
            return
        edges = [np.clip(np.append(A, A[-1] + 1) * (N / 2**g) + N // 2, 0, N)
                 .astype(np.intp) for A in anchors]
        yield g, anchors, edges
        lo, hi, g = [2 * a for a in lo], [2 * b for b in hi], g + 1


def _stopping_cubes(gf: GridFunction, table: np.ndarray, g: int, lo, hi, stop) -> list:
    """The maximal dyadic cubes below the start cubes on which stop holds.

    Walks `_generations` from generation g with the block sums of the
    `prefix_sums` table: a cube is picked where stop(g, sums, cells) holds
    and no ancestor was picked.  The walk goes on below the cubes that are
    neither picked nor empty (sum 0), and ends when none is left.  Returns
    (cube, cell slices) pairs in generation order, anchors lexicographic.
    """
    out = []
    live, prev = True, None
    for g, anchors, edges in _generations(gf, g, lo, hi):
        if prev is not None:  # each cube inherits its parent's state
            live = live[np.ix_(*[(A >> 1) - P[0] for A, P in zip(anchors, prev)])]
        sums = box_sums(table[np.ix_(*edges)], 1)
        cells = functools.reduce(np.multiply, np.ix_(*[np.diff(e) for e in edges]))
        pick = live & stop(g, sums, cells)
        for idx in zip(*np.nonzero(pick)):
            cube = Cube(gf.n, g, tuple(int(A[i]) for A, i in zip(anchors, idx)),
                        "standard", 2.0 * gf.R)
            out.append((cube, tuple(slice(e[i], e[i + 1]) for e, i in zip(edges, idx))))
        live = live & ~pick & (sums > 0)
        if not live.any():
            break
        prev = anchors
    return out


# ---------------------------------------------------------------------------
# Calderon-Zygmund decomposition
# ---------------------------------------------------------------------------


@dataclass
class CZDecomposition:
    rho: float
    good: GridFunction
    bad: list  # of (Cube, GridFunction)

    def reconstruct(self) -> np.ndarray:
        total = self.good.values.copy()
        for _, b in self.bad:
            total = total + b.values
        return total

    def save(self, dirpath: str) -> None:
        os.makedirs(dirpath, exist_ok=True)
        save_binary(self.good, os.path.join(dirpath, "good.bin"))
        manifest = {"rho": self.rho, "bad": []}
        for i, (q, b) in enumerate(self.bad):
            fname = f"bad_{i:04d}.bin"
            save_binary(b, os.path.join(dirpath, fname))
            manifest["bad"].append(
                {"file": fname, "generation": q.generation,
                 "anchor": list(q.anchor), "base": q.base}
            )
        with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, dirpath: str) -> "CZDecomposition":
        with open(os.path.join(dirpath, "manifest.json")) as fh:
            manifest = json.load(fh)
        good = load_binary(os.path.join(dirpath, "good.bin"))
        bad = []
        for entry in manifest["bad"]:
            b = load_binary(os.path.join(dirpath, entry["file"]))
            q = Cube(good.n, entry["generation"], tuple(entry["anchor"]),
                     "standard", entry["base"])
            bad.append((q, b))
        return cls(manifest["rho"], good, bad)


def cz_decompose(f: GridFunction, rho: float) -> CZDecomposition:
    """Maximal dyadic cubes with mean of |f| in (rho, 2^n rho].

    Walks the anchored lattice one generation at a time from the 2^n
    generation-1 cubes that tile the box (`_stopping_cubes`): the |f|-means
    of all live cubes of a generation are box sums of one prefix table, a
    live cube is selected where its mean exceeds rho, and the cubes neither
    selected nor empty stay live for the next generation.  g equals f off
    the cubes and the signed cube mean on each, b_j the mean-zero
    remainders.  Cubes come sorted: by generation, then anchor.
    """
    if not (math.isfinite(rho) and rho > 0):
        raise ParameterError(f"rho must be positive and finite, got {rho}")
    n, N = f.n, f.ncells
    _dyadic_root_cells(N)
    c = prefix_sums(np.abs(f.values))
    hn = f.h**n
    base = 2.0 * f.R
    # each anchored side-2R cube holds one generation-1 cube and straddles
    # the box; if the selection would have to pick one, the decomposition is
    # not representable on this grid
    floor = box_sums(c[(slice(None, None, N // 2),) * n], 1) * hn / base**n
    if floor.max() > rho:
        raise ParameterError(
            f"rho = {rho:g} is below the resolvable height {floor.max():g} "
            "for this box; the selection would need cubes beyond the sampled domain"
        )
    picked = _stopping_cubes(f, c, 1, (-1,) * n, (1,) * n,
                             lambda g, sums, _: sums * hn / (base * 2.0 ** (-g)) ** n > rho)
    good_vals = f.values.copy()
    bad = []
    for q, sl in picked:
        mean_signed = float(np.mean(f.values[sl]))
        bvals = np.zeros_like(f.values)
        bvals[sl] = f.values[sl] - mean_signed
        good_vals[sl] = mean_signed
        bad.append((q, f.with_values(bvals)))
    return CZDecomposition(rho, f.with_values(good_vals), bad)


# ---------------------------------------------------------------------------
# sparse families
# ---------------------------------------------------------------------------


@dataclass
class SparseFamily:
    eta: float
    root: Cube
    cubes: list  # of Cube, root included
    parent: dict = field(default_factory=dict)  # cube -> parent cube (in family)
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        idx = {c: i for i, c in enumerate(self.cubes)}
        base = self.root.base
        return {
            "eta": self.eta,
            "base": base,
            "n": self.root.n,
            "root": _cube_to_json(self.root),
            "cubes": [
                {**_cube_to_json(c), "parent": idx.get(self.parent.get(c), None)}
                for c in self.cubes
            ],
            "meta": self.meta,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, data: dict) -> "SparseFamily":
        """Inverse of `to_json`; a missing or ill-typed key is a ConfigError."""
        n = _json_field(data, "n", int, "family")
        if n not in (1, 2):
            raise ConfigError(f"family: n must be 1 or 2, got {n}")
        base = float(_json_field(data, "base", float, "family"))
        if not base > 0:
            raise ConfigError(f"family: base must be positive, got {base}")
        entries = _json_field(data, "cubes", list, "family")
        cubes = [_cube_from_json(e, n, base, f"cube {i}") for i, e in enumerate(entries)]
        root = _cube_from_json(_json_field(data, "root", dict, "family"), n, base, "root")
        parent = {}
        for i, (c, e) in enumerate(zip(cubes, entries)):
            p = _json_field(e, "parent", int, f"cube {i}", optional=True)
            if p is None:
                continue
            if not 0 <= p < len(cubes):
                raise ConfigError(f"cube {i}: parent index {p} out of range")
            parent[c] = cubes[p]
        eta = float(_json_field(data, "eta", float, "family"))
        meta = _json_field(data, "meta", dict, "family", optional=True)
        return cls(eta, root, cubes, parent, meta or {})

    @classmethod
    def load(cls, path: str) -> "SparseFamily":
        return cls.from_json(read_json(path))


def _cube_to_json(c: Cube) -> dict:
    """Generation, anchor and shift; every cube lies on the family's base."""
    return {"generation": c.generation, "anchor": list(c.anchor), "shift": c.shift}


def _json_field(obj, key: str, kind: type, where: str, optional: bool = False):
    """obj[key] checked against kind (int: not bool; float: any number)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    val = obj.get(key)
    if val is None:
        if optional:
            return None
        raise ConfigError(f"{where}: missing key {key!r}")
    kinds = (int, float) if kind is float else kind
    if not isinstance(val, kinds) or (kind in (int, float) and isinstance(val, bool)):
        raise ConfigError(f"{where}: {key!r} must be of type {kind.__name__}, got {val!r}")
    return val


_CUBE_KEYS = frozenset({"generation", "anchor", "shift", "parent"})


def _cube_from_json(e, n: int, base: float, where: str) -> Cube:
    gen = _json_field(e, "generation", int, where)
    anchor = _json_field(e, "anchor", list, where)
    shift = _json_field(e, "shift", str, where, optional=True) or "standard"
    unknown = sorted(set(e) - _CUBE_KEYS)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    if shift != "standard":
        raise ConfigError(f"{where}: unknown lattice {shift!r}; only 'standard' exists")
    if not all(isinstance(a, int) and not isinstance(a, bool) for a in anchor):
        raise ConfigError(f"{where}: anchor entries must be integers")
    if len(anchor) != n:
        raise ConfigError(f"{where}: anchor needs {n} entries, got {len(anchor)}")
    return Cube(n, gen, tuple(anchor), shift, base)


def verify_sparse(family: SparseFamily, eta: float | None = None):
    """Exact lattice check of |union of strict subcubes| <= (1-eta)|Q|.

    Returns (ok, worst_ratio, worst_cube).  Cell counting happens at the
    finest generation present in the family.  eta must lie in (0, 1]
    (`ParameterError` otherwise).
    """
    eta = family.eta if eta is None else eta
    if not 0 < eta <= 1:
        raise ParameterError(f"eta must lie in (0, 1], got {eta}")
    root = family.root
    gmax = max(c.generation for c in family.cubes)
    unit = root.generation  # cells counted relative to root at gmax
    cells_per_side = 2 ** (gmax - unit)

    def cell_span(c: Cube):
        if not root.contains(c):
            raise ContainmentError(f"{c} lies outside the root {root}")
        scale = 2 ** (gmax - c.generation)
        out = []
        for ax in range(c.n):
            a0 = c.anchor[ax] * scale - root.anchor[ax] * cells_per_side
            out.append((a0, a0 + scale))
        return out

    worst = 0.0
    worst_cube = None
    spans = {c: cell_span(c) for c in family.cubes}
    for q in family.cubes:
        qs = spans[q]
        mask = np.zeros((2 ** (gmax - q.generation),) * q.n, dtype=bool)
        for r in family.cubes:
            if r is q or not _span_inside(spans[r], qs) or r.generation <= q.generation:
                continue
            mask[tuple(slice(a0 - o0, a1 - o0) for (a0, a1), (o0, _) in zip(spans[r], qs))] = True
        ratio = int(mask.sum()) / mask.size
        if ratio > worst:
            worst = ratio
            worst_cube = q
    return worst <= (1.0 - eta) + 1e-12, worst, worst_cube


def _span_inside(inner, outer) -> bool:
    return all(o0 <= i0 and i1 <= o1 for (i0, i1), (o0, o1) in zip(inner, outer))


def dyadic_cube_pool(root: Cube, gf: GridFunction) -> list:
    """Every dyadic subcube of root that meets gf's box, down to single
    cells, as a Box, each followed by its 3-dilate (which may reach past the
    box).  Built one generation at a time from anchor arrays
    (`_generations`), with the float operations of `Cube.lo` / `Cube.hi`
    and `Box.dilate`; the order is by generation."""
    return _boxes(*_pool_corners(root, gf))


def _pool_corners(root: Cube, gf: GridFunction) -> tuple:
    """The (nb, n) arrays lo, hi of the boxes of `dyadic_cube_pool`."""
    _dyadic_root_cells(gf.ncells)
    if root.base != 2.0 * gf.R:
        raise GridError(f"{root} is not a cube of the dyadic lattice of base 2R = {2.0 * gf.R}")
    los, his = [], []
    for g, anchors, _ in _generations(gf, root.generation, root.anchor,
                                      [a + 1 for a in root.anchor]):
        side = root.base * 2.0 ** (-g)
        lo = np.stack(np.meshgrid(*anchors, indexing="ij"), axis=-1).reshape(-1, gf.n) * side
        hi = lo + side
        c, half = 0.5 * (lo + hi), 3.0 * 0.5 * (hi[:, :1] - lo[:, :1])
        # each cube followed by its 3-dilate
        los.append(np.stack([lo, c - half], axis=1).reshape(-1, gf.n))
        his.append(np.stack([hi, c + half], axis=1).reshape(-1, gf.n))
    if not los:
        return np.empty((0, gf.n)), np.empty((0, gf.n))
    return np.concatenate(los), np.concatenate(his)


def _boxes(lo: np.ndarray, hi: np.ndarray) -> list:
    return [Box(tuple(a), tuple(b)) for a, b in zip(lo.tolist(), hi.tolist())]


def _share_cubes(gf: GridFunction, e_mask: np.ndarray, node: Cube) -> list:
    """The maximal strict dyadic subcubes of node in which the cells of
    e_mask have a share above 2^{-n-1}, from an integer prefix table."""
    picked = _stopping_cubes(
        gf, prefix_sums(e_mask), node.generation + 1,
        [2 * a for a in node.anchor], [2 * a + 2 for a in node.anchor],
        lambda g, cnt, cells: cnt * 2 ** (gf.n + 1) > cells,
    )
    return [c for c, _ in picked]


# relative roundoff margin of the Lerner pool pruning in sparse_construct
_PRUNE_DELTA = 1e-6


def _lerner_keep(f: GridFunction, floc: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 gain: np.ndarray, thr0: float) -> np.ndarray:
    """Which boxes B = [lo, hi) of a node's pool can change its level set,
    as a boolean array: those with gain[0] ||g||_1 > (1 - delta) thr0 and
    H_B > (sqrt 2 - 1)(1 - delta) thr0, where g = floc on the 3B cells,
    gain is the evaluator's ``far_gain`` table and H_B is `_far_field`'s
    (see `sparse_construct`).  The l^1 norms come from one prefix table of
    |floc|; since H_B <= gain[0] ||floc - g||_1, H_B is taken only for the
    boxes whose l^1 bound does not already drop them."""
    N = f.ncells
    i0, i1 = ops._corner_ranges(f, lo, hi, snap_outward=True, factor=3.0)
    a = np.abs(floc)
    table = prefix_sums(a)
    g1 = range_sums(table, np.clip(i0, 0, N), np.clip(i1, 0, N))
    h1 = table[(-1,) * f.n] - g1
    cut = (1.0 - _PRUNE_DELTA) * thr0
    far = (math.sqrt(2.0) - 1.0) * cut
    keep = (gain[0] * g1 > cut) & (gain[0] * h1 > far)
    if keep.any():
        j0, j1 = ops._corner_ranges(f, lo[keep], hi[keep])
        keep[keep] = _far_field(a, gain, i0[keep], i1[keep], j0, j1) > far
    return keep


def _far_field(a: np.ndarray, gain: np.ndarray, i0: np.ndarray, i1: np.ndarray,
               j0: np.ndarray, j1: np.ndarray) -> np.ndarray:
    """H_B = sum over the cells y outside 3B of a(y) gain[d(y, B)] for each
    box, 3B the cells [i0, i1) and B the cells [j0, j1) per axis ((nb, n)
    arrays, unclipped), d the max-norm lattice distance from y to B's cells
    (an index past the table reads its last entry, which is no smaller).

    Boxes of one shape (per axis: cells of 3B, cells of B, offset of B in
    3B, the key of `operators._lerner_groups`) see one weight array w(y - i0),
    so their H_B are one correlation of a with w, taken by FFT at their 3B
    starts.  a is cropped to the hull of its nonzero cells, and its
    spectrum, of one length for every shape, serves all of them."""
    n = a.ndim
    nz = np.nonzero(a)
    y0 = np.array([ix.min() for ix in nz])
    na = np.array([ix.max() + 1 for ix in nz]) - y0
    I = i0 - y0
    imin = I.min(axis=0)
    # at index c of the convolution, w is taken at the offset u = y - i0
    us = [m - 1 - b - np.arange(m + e - b) for m, b, e in zip(na, imin, I.max(axis=0))]
    P = tuple(ops._fft_len(len(u)) for u in us)
    axes = tuple(range(n))
    spec = np.fft.rfftn(a[tuple(slice(y, y + m) for y, m in zip(y0, na))], P, axes=axes)
    keys = np.concatenate([i1 - i0, j1 - j0, j0 - i0], axis=1)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)

    def dist(start, size):  # from each offset u to the cells [start, start + size)
        return functools.reduce(np.maximum, np.ix_(*[
            np.maximum(np.maximum(b - u, u - (b + m - 1)), 0)
            for u, b, m in zip(us, start, size)]))

    out = np.empty(len(I))
    for key, sel in zip(uniq, (inv.ravel() == g for g in range(len(uniq)))):
        A, S, D = key[:n], key[n : 2 * n], key[2 * n :]
        w = np.where(dist((0,) * n, A) == 0, 0.0,
                     gain[np.minimum(dist(D, S), len(gain) - 1)])
        conv = np.fft.irfftn(spec * np.fft.rfftn(w, P, axes=axes), P, axes=axes)
        out[sel] = conv[tuple((I[sel] - imin + na - 1).T)]
    return out


def sparse_construct(
    k,
    f: GridFunction,
    q0: Cube,
    alpha: float,
    cone: ConeGrid,
    gamma="auto",
    gamma_budget: int = 60,
    method: str | None = None,
) -> SparseFamily:
    """Iterative stopping-time sparse family for S_alpha on the root cube.

    At each node P the level set E is where max(S_alpha f', M_S f') exceeds
    thr = sqrt(gamma) * (dini(w) dini(phi) + s2) * <|f'|>_{3P} with
    f' = f 1_{3P}; maximal dyadic subcubes with |cell E share| > 2^{-n-1}
    are selected by one generation walk (`_share_cubes`), the recursion
    continues on their (deduplicated, maximal) parents.  In auto
    mode gamma doubles per node until |E| <= 2^{-2n-2}|P| cells, which
    forces 1/2-sparseness of the output combinatorially.  gamma is "auto"
    or a finite positive number (the starting value), and gamma_budget (the
    doublings allowed per node) an int >= 1; anything else is a
    `ParameterError`.

    M_S runs over the node's `dyadic_cube_pool` less the boxes whose term
    cannot change E for any thr >= thr0, the first thr of the node (the
    one of its starting gamma).  For a pool box B let g = f' 1_{3B} and
    h = f' - g.  S is an l^2 sum of linear functionals, so Minkowski's
    inequality gives S u(x) <= sum_y |u(y)| Gamma(x - y), where
    Gamma(x - y) = S delta_y(x) is the point-mass profile of S and the
    evaluator's ``far_gain[l]`` is the max of Gamma over |v|_inf >= l.
    Hence S g <= far_gain[0] ||g||_1 everywhere (||u||_1 the plain sum of
    |u| over the cells) and, on B's cells,
    S h <= H_B = sum_{y outside 3B} |f'(y)| far_gain[d(y, B)], with d the
    max-norm lattice distance from y to B's cells.  B's term is
    sqrt(|S f'^2 - S g^2|), and B is dropped when
      - far_gain[0] ||g||_1 <= (1 - delta) thr0: then S g <= thr, so the
        term is at most S f' where S f' >= S g and at most S g <= thr
        elsewhere; or
      - H_B <= (sqrt 2 - 1)(1 - delta) thr0: since
        |S f'^2 - S g^2| <= S h (2 S f' + S h), the term on B is at most
        thr wherever S f' <= thr, and elsewhere S f' alone puts x in E.
    Both rules are implied by the plain l^1 rule on c^2 = sum_j meas_j
    |D_j| max |k_j|^2 >= far_gain[0]^2, so they keep no box that it drops.
    The l^1 norms come from one prefix table of |f'| over the 3B cells of
    `operators._corner_ranges`, and H_B from one FFT correlation of |f'|
    per box shape (`_far_field`).  delta = `_PRUNE_DELTA` covers roundoff.
    Gamma^2 is a window sum of k_j^2 by cumulative sums, as S^2 is of
    psi_t^2; against extended precision its error is below
    1e-12 far_gain[0] on the 1-D layouts up to N = 16384 and the 2-D ones
    up to N = 128.  The FFT correlation errs by about
    eps log2(P) far_gain[0] ||f'||_1.  Both stay below delta thr0 while
    ||f'||_1 far_gain[0] / thr0, at most far_gain[0] (3 side / h)^n /
    bracket, is below about 1e5; at the roots of those layouts it is
    4-650.  The node's own box always stays, as the cover that
    `lerner_maximal`'s domain check needs; its term is exactly 0, since 3P
    holds f'.  Pruning needs the evaluator's fast path: other kernels and
    ``method="direct"`` keep the full pool.  Where 3P covers the grid, f'
    is f and S f' is the S f taken for s2; M_S takes S f'^2 back from the
    evaluator (`SquareEvaluator.square_sum`), so each node computes S f'
    once.  The evaluator is the one `SquareEvaluator.of` keeps on k:
    constructions on one kernel object and layout build it once and share
    its kernel spectra, Gram table and Lerner block spectra.
    """
    if isinstance(f, (tuple, list)) or k.kind == "bilinear":
        raise ParameterError("bilinear sparse families are not implemented")
    if isinstance(gamma_budget, bool) or not isinstance(gamma_budget, int) or gamma_budget < 1:
        raise ParameterError(f"gamma_budget must be an int >= 1, got {gamma_budget!r}")
    if gamma != "auto":
        try:
            gamma = float(gamma)
        except (TypeError, ValueError):
            raise ParameterError(f"gamma must be 'auto' or a number, got {gamma!r}") from None
        if not (math.isfinite(gamma) and gamma > 0):
            raise ParameterError(f"gamma must be finite and positive, got {gamma}")
    N = f.ncells
    _dyadic_root_cells(N)
    cone_a = cone if cone.alpha == alpha else cone.with_alpha(alpha)
    evaluator = ops.SquareEvaluator.of(k, f, cone_a, method=method)
    wd = dini_constant(k.w_mod, 1e-6)
    pd = dini_constant(k.phi_mod, 1e-6)
    l2 = f.norm_l2()
    if l2 > 0:
        s_all = evaluator.eval_values(f.values)
        s2_est = f.with_values(s_all).norm_l2() / l2
    else:
        s_all, s2_est = None, 1.0
    bracket = wd * pd + s2_est
    hn = f.h**f.n
    gmax = int(math.log2(N))
    cubes = []
    parent_links = {}
    gamma_used = [1.0 if gamma == "auto" else gamma]

    def recurse(node: Cube, g_val: float):
        cubes.append(node)
        if node.generation >= gmax:
            return
        mask3 = ops._box_mask(f, node.box().dilate(3.0), snap_outward=True)
        floc = f.values * mask3
        if not np.any(floc):
            return
        avg3 = float(np.sum(np.abs(floc))) * hn / (3.0 * node.side) ** f.n
        # where 3P covers the grid, f' is f
        s_vals = s_all if mask3.all() else evaluator.eval_values(floc)
        lo, hi = _pool_corners(node, f)
        if evaluator.fast:
            kept = _lerner_keep(f, floc, lo, hi, evaluator.far_gain,
                                math.sqrt(g_val) * bracket * avg3)
            kept[:1] = True  # the node's own box, the cover
            lo, hi = lo[kept], hi[kept]
        ms = ops.lerner_maximal(
            k, f.with_values(floc), cone_a, "M_S", _boxes(lo, hi), method=method,
            domain=node.box(),
        )
        mtilde = np.maximum(s_vals, ms.values)
        nr = node.cell_range(f)
        nsl = tuple(slice(i0, i1) for i0, i1 in nr)
        node_cells = node.ncells_inside(f)
        target = node_cells // 2 ** (2 * f.n + 2)
        cur = g_val
        for _ in range(gamma_budget):
            thr = math.sqrt(cur) * bracket * avg3
            e_mask = np.zeros_like(f.values, dtype=bool)
            e_mask[nsl] = mtilde[nsl] > thr
            ne = int(e_mask.sum())
            if ne <= target:
                break
            cur *= 2.0
        else:
            raise ConstructionError(
                f"gamma doubling budget exhausted at {node}; residual |E| = "
                f"{ne} cells vs target {target}",
                residual=ne * hn,
            )
        gamma_used[0] = max(gamma_used[0], cur)
        if ne == 0:
            return
        parents = {c.parent() for c in _share_cubes(f, e_mask, node)}
        parents = [
            p for p in parents
            if not any(q is not p and q.contains(p) for q in parents)
        ]
        for p in sorted(parents):
            parent_links[p] = node
            recurse(p, cur)

    recurse(q0, gamma_used[0])
    return SparseFamily(
        0.5, q0, cubes, parent_links,
        meta={
            "gamma": gamma_used[0],
            "auto": gamma == "auto",
            "bracket": bracket,
            "alpha": alpha,
            "pool": "dyadic+3dilates",
        },
    )


def sparse_rhs_eval(family: SparseFamily, f, dilate: int = 3) -> GridFunction:
    """[ sum_P (prod_i <f_i>_{1, dP})^2 1_P ]^{1/2} on the grid."""
    if isinstance(f, (tuple, list)):
        fs = list(f)
    else:
        fs = [f]
    base = fs[0]
    hn = base.h**base.n
    acc = np.zeros_like(base.values)
    for c in family.cubes:
        prod = 1.0
        for gf in fs:
            if dilate == 1:
                r = c.cell_range(gf)
                sl = tuple(slice(i0, i1) for i0, i1 in r)
                tot = float(np.sum(np.abs(gf.values[sl]))) * hn
                avg = tot / c.side**gf.n
            else:
                b = c.box().dilate(float(dilate))
                mask = ops._box_mask(gf, b, snap_outward=True)
                tot = float(np.sum(np.abs(gf.values) * mask)) * hn
                avg = tot / (dilate * c.side) ** gf.n
            prod *= avg
        r = c.cell_range(base)
        sl = tuple(slice(i0, i1) for i0, i1 in r)
        acc[sl] += prod**2
    return base.with_values(np.sqrt(acc))
