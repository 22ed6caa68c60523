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
lists the cubes of every generation, with their 3-dilates, as one
(nb, 2, n) corner array.  A box is its (2, n) corners [lo, hi]
(`Cube.box`).  `sparse_construct` takes each node's pool from
`dyadic_cube_pool` and its cells once (one dilated and one plain
`grids.cell_ranges` call; row 0, the node, gives its 3P and P): the
pruning reads them, and the kept rows go to
`SquareEvaluator.lerner_values`.

Cubes reach their cells, and those of their 3-dilates, through
`grids.cell_ranges` alone, and the pruning's far field
(`SquareEvaluator.far_field`) groups its boxes by `grids.shape_groups`,
as the Lerner pool does.  `sparse_construct` and
`sparse_rhs_eval` refuse, before any work, cubes off f's lattice (of
another dimension or of a base other than 2R) and pairs on two grids;
`sparse_construct` also refuses a root that holds no cell of the grid.
A family file is read by `grids.read_json` and `grids.resolve_schema`;
`SparseFamily.from_json` adds only the range checks.
"""

from __future__ import annotations

import functools
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
    ConeGrid, GridFunction, box_sums, cell_ranges, prefix_sums, range_sums, read_json,
    resolve_schema, save_binary, three_dilate,
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

    def box(self) -> np.ndarray:
        """The cube's (2, n) corner array [lo, hi]."""
        return np.array([self.lo, self.hi], dtype=float)

    def parent(self) -> "Cube":
        return Cube(self.n, self.generation - 1, tuple(a >> 1 for a in self.anchor),
                    "standard", self.base)

    def contains(self, other: "Cube") -> bool:
        """Whether other, a cube of this lattice, is this cube or lies in
        it: its anchors d = other.generation - generation parents up."""
        d = other.generation - self.generation
        return d >= 0 and tuple(a >> d for a in other.anchor) == self.anchor

    def cell_range(self, gf: GridFunction) -> tuple:
        """Per-axis (start, stop) cell index ranges on gf's lattice, clipped
        to the grid: the `grids.cell_ranges` of the cube, whose corners must
        lie on cell edges (`GridError` otherwise)."""
        i0, i1 = cell_ranges(gf, [self.box()], aligned=True)
        return tuple((max(a, 0), min(b, gf.ncells))
                     for a, b in zip(i0[0].tolist(), i1[0].tolist()))


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
        """Inverse of `to_json`: the `grids.resolve_schema` of `_FAMILY`,
        then n in (1, 2), a positive finite base, generations in [0, 64], n
        anchor entries and parent indices in the list (ConfigError)."""
        d = resolve_schema(_FAMILY, data, "family")
        n, base = d["n"], d["base"]
        if n not in (1, 2) or not 0 < base < math.inf:
            raise ConfigError(f"family: need n = 1 or 2 and a positive finite base, "
                              f"got n = {n}, base = {base}")
        entries = [d["root"], *d["cubes"]]
        for i, e in enumerate(entries):
            if not (0 <= e["generation"] <= 64 and len(e["anchor"]) == n):
                raise ConfigError(f"family {'root' if i == 0 else f'cube {i - 1}'}: "
                                  f"generation must lie in [0, 64] and anchor hold {n} "
                                  f"entries, got {e['generation']} and {e['anchor']}")
        root, *cubes = (Cube(n, e["generation"], tuple(e["anchor"]), e["shift"], base)
                        for e in entries)
        links = [e["parent"] for e in d["cubes"]]
        if any(p is not None and not 0 <= p < len(cubes) for p in links):
            raise ConfigError(f"family: a parent index out of range in {links}")
        parent = {c: cubes[p] for c, p in zip(cubes, links) if p is not None}
        return cls(d["eta"], root, cubes, parent, d["meta"] or {})

    @classmethod
    def load(cls, path: str) -> "SparseFamily":
        return cls.from_json(read_json(path))


def _cube_to_json(c: Cube) -> dict:
    """Generation, anchor and shift; every cube lies on the family's base."""
    return {"generation": c.generation, "anchor": list(c.anchor), "shift": c.shift}


# the schema of a family file; a listed cube also names its parent's index,
# and "root" goes before "cubes", so a file missing both names the root
_CUBE = {"generation": (int, ...), "anchor": ([int], ...), "shift": ({"standard"}, "standard")}
_FAMILY = {"n": (int, ...), "base": (float, ...), "eta": (float, ...), "root": (_CUBE, ...),
           "cubes": ([{**_CUBE, "parent": (int, None)}], ...), "meta": (dict, None)}


def verify_sparse(family: SparseFamily, eta: float):
    """Exact lattice check of |union of strict subcubes| <= (1-eta)|Q|.

    Returns (ok, worst_ratio, worst_cube).  Dyadic cubes nest or are
    disjoint, so Q's strict subcubes cover the cells of its maximal ones r
    (no strict ancestor of r below Q is in the family): a share of
    sum_r 2^{n (gmax - g_r)} / 2^{n (gmax - g_Q)}, in integers at any depth.
    A cube outside the root is a `ContainmentError`; eta must lie in
    (0, 1] and the family must hold a cube (`ParameterError` otherwise).
    """
    if not 0 < eta <= 1:
        raise ParameterError(f"eta must lie in (0, 1], got {eta}")
    if not family.cubes:
        raise ParameterError("a sparse family needs at least one cube")
    root = family.root
    for c in family.cubes:
        if not root.contains(c):
            raise ContainmentError(f"{c} lies outside the root {root}")
    gmax = max(c.generation for c in family.cubes)
    worst = 0.0
    worst_cube = None
    for q in family.cubes:
        subs = {r for r in family.cubes if r.generation > q.generation and q.contains(r)}
        cells = 0
        for r in subs:
            p = r.parent()
            while p.generation > q.generation and p not in subs:
                p = p.parent()
            if p.generation == q.generation:  # no strict ancestor in subs
                cells += 2 ** (q.n * (gmax - r.generation))
        ratio = cells / 2 ** (q.n * (gmax - q.generation))
        if ratio > worst:
            worst = ratio
            worst_cube = q
    return worst <= (1.0 - eta) + 1e-12, worst, worst_cube


def _on_lattice(root: Cube, gf: GridFunction) -> None:
    """root is a cube of gf's dyadic lattice: of gf's dimension and base 2R
    (`GridError` otherwise)."""
    if root.n != gf.n or len(root.anchor) != gf.n:
        raise GridError(f"{root} is not a cube of the {gf.n}-D grid")
    if root.base != 2.0 * gf.R:
        raise GridError(f"{root} is not a cube of the dyadic lattice of base 2R = {2.0 * gf.R}")


def dyadic_cube_pool(root: Cube, gf: GridFunction) -> np.ndarray:
    """Every dyadic subcube of root that meets gf's box, down to single
    cells, each followed by its 3-dilate (which may reach past the box), as
    one (nb, 2, n) corner array.  Built one generation at a time from
    anchor arrays (`_generations`), with the float operations of `Cube.lo`
    / `Cube.hi` and `grids.three_dilate`; the order is by generation."""
    _dyadic_root_cells(gf.ncells)
    _on_lattice(root, gf)
    pool = [np.empty((0, 2, gf.n))]
    for g, anchors, _ in _generations(gf, root.generation, root.anchor,
                                      [a + 1 for a in root.anchor]):
        side = root.base * 2.0 ** (-g)
        lo = np.stack(np.meshgrid(*anchors, indexing="ij"), axis=-1).reshape(-1, gf.n) * side
        cubes = np.stack((lo, lo + side), axis=1)
        # each cube followed by its 3-dilate
        pool.append(np.stack((cubes, three_dilate(cubes)), axis=1).reshape(-1, 2, gf.n))
    return np.concatenate(pool)


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


def _lerner_keep(floc: np.ndarray, cells: tuple, ev: ops.SquareEvaluator,
                 thr0: float) -> np.ndarray:
    """Which boxes B of a node's pool can change its level set, as a
    boolean array: those with gain[0] ||g||_1 > (1 - delta) thr0 and
    H_B > (sqrt 2 - 1)(1 - delta) thr0, where g = floc on the 3B cells,
    gain is the evaluator's ``far_gain`` table and H_B is its `far_field`
    (see `sparse_construct`).  cells are the pool's (i0, i1, j0, j1): per
    box the `grids.cell_ranges` of 3B, snapped outward, and of B.  The
    l^1 norms come from one prefix table of |floc|; since
    H_B <= gain[0] ||floc - g||_1, H_B is taken only for the boxes whose
    l^1 bound does not already drop them."""
    i0, i1, j0, j1 = cells
    N = floc.shape[0]
    a = np.abs(floc)
    table = prefix_sums(a)
    g1 = range_sums(table, np.clip(i0, 0, N), np.clip(i1, 0, N))
    h1 = table[(-1,) * floc.ndim] - g1
    cut = (1.0 - _PRUNE_DELTA) * thr0
    far = (math.sqrt(2.0) - 1.0) * cut
    gain0 = ev.far_gain[0]
    keep = (gain0 * g1 > cut) & (gain0 * h1 > far)
    if keep.any():
        keep[keep] = ev.far_field(a, i0[keep], i1[keep], j0[keep], j1[keep]) > far
    return keep


# the gamma doublings sparse_construct allows per node
_GAMMA_BUDGET = 60


def sparse_construct(
    k,
    f: GridFunction,
    q0: Cube,
    alpha: float,
    cone: ConeGrid,
    gamma="auto",
    method: str | None = None,
) -> SparseFamily:
    """Iterative stopping-time sparse family for S_alpha on the root cube.

    alpha must be the cone's own aperture (`ParameterError` otherwise): the
    cone describes S_alpha, and alpha is recorded in the family's meta.

    At each node P the level set E is where max(S_alpha f', M_S f') exceeds
    thr = sqrt(gamma) * (dini(w) dini(phi) + s2) * <|f'|>_{3P} with
    f' = f 1_{3P}; maximal dyadic subcubes with |cell E share| > 2^{-n-1}
    are selected by one generation walk (`_share_cubes`), the recursion
    continues on their (deduplicated, maximal) parents.  In auto
    mode gamma doubles per node until |E| <= 2^{-2n-2}|P| cells, which
    forces 1/2-sparseness of the output combinatorially.  gamma is "auto"
    or a finite positive number (the starting value), anything else, a
    bool included, a `ParameterError`.  A node that needs more than
    `_GAMMA_BUDGET` doublings is a `ConstructionError` carrying the
    residual |E|.

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
    `grids.cell_ranges`, and H_B from one FFT correlation of |f'|
    per box shape (`SquareEvaluator.far_field`).  delta = `_PRUNE_DELTA` covers roundoff.
    Gamma^2 is a window sum of k_j^2 by cumulative sums, as S^2 is of
    psi_t^2; against extended precision its error is below
    1e-12 far_gain[0] on the 1-D layouts up to N = 16384 and the 2-D ones
    up to N = 128.  The FFT correlation errs by about
    eps log2(P) far_gain[0] ||f'||_1.  Both stay below delta thr0 while
    ||f'||_1 far_gain[0] / thr0, at most far_gain[0] (3 side / h)^n /
    bracket, is below about 1e5; at the roots of those layouts it is
    4-650.  The node's own box always stays, as the cover of the node's
    cells; its term is exactly 0, since 3P holds f'.  S and the pruning
    come from the evaluator that `SquareEvaluator.of` keeps on k, shared
    by constructions on one kernel object and layout; off its fast path
    (general linear kernels, ``method="direct"``) there is none: S is a
    `square_function` call and M_S a `lerner_maximal` call over the full
    pool.  S f' is read on P's cells alone, the only cells E reads.  Where
    3P covers the grid, f' is f and S f' is the S f taken for s2.  Any
    other node reads it after its M_S call, through
    `SquareEvaluator.box_square_sum`: the S f'^2 that M_S has just taken,
    else, f' vanishing off 3P, the Gram form of P's shape where the held
    table covers it, else one `square_sum`.  So each node computes S f' at
    most once, and a child whose kept pool leaves M_S nothing to take on
    the grid and whose shape the table covers takes no full-grid S.  A
    root that holds no cell of the grid is a `GridError`, before any work.
    """
    if isinstance(f, (tuple, list)) or k.kind == "bilinear":
        raise ParameterError("bilinear sparse families are not implemented")
    if isinstance(gamma, (bool, np.bool_)):
        # float(True) is 1.0, which would start the doubling from a flag
        raise ParameterError(f"gamma must be 'auto' or a number, got {gamma!r}")
    if gamma != "auto":
        try:
            gamma = float(gamma)
        except (TypeError, ValueError):
            raise ParameterError(f"gamma must be 'auto' or a number, got {gamma!r}") from None
        if not (math.isfinite(gamma) and gamma > 0):
            raise ParameterError(f"gamma must be finite and positive, got {gamma}")
    if alpha != cone.alpha:
        raise ParameterError(f"alpha = {alpha} is not the cone's aperture {cone.alpha}")
    N = f.ncells
    _dyadic_root_cells(N)
    _on_lattice(q0, f)
    if not all(a < f.R and -f.R < b for a, b in zip(q0.lo, q0.hi)):
        raise GridError(f"{q0} holds no cell of the grid [-{f.R}, {f.R}]^{f.n}")
    evaluator = ops.SquareEvaluator.of(k, f, cone, method=method)
    s_of = (evaluator.eval_values if evaluator is not None else
            lambda v: ops.square_function(k, f.with_values(v), cone, method=method).values)
    wd = dini_constant(k.w_mod, 1e-6)
    pd = dini_constant(k.phi_mod, 1e-6)
    l2 = f.norm_l2()
    if l2 > 0:
        s_all = s_of(f.values)
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
        pool = dyadic_cube_pool(node, f)
        # row 0 is the node itself: its 3P and P
        cells = (*cell_ranges(f, pool, dilate=True, snap_outward=True),
                 *cell_ranges(f, pool))
        i0, i1, j0, j1 = (c[0].tolist() for c in cells)
        w3 = tuple(slice(max(a, 0), min(b, N)) for a, b in zip(i0, i1))
        nsl = tuple(slice(max(a, 0), min(b, N)) for a, b in zip(j0, j1))
        mask3 = np.zeros(f.values.shape)
        mask3[w3] = 1.0
        floc = f.values * mask3
        if not np.any(floc):
            return
        avg3 = float(np.sum(np.abs(floc))) * hn / (3.0 * node.side) ** f.n
        if evaluator is not None:
            kept = _lerner_keep(floc, cells, evaluator, math.sqrt(g_val) * bracket * avg3)
            kept[0] = True  # the node's own box, the cover
            ms = evaluator.lerner_values(floc, tuple(c[kept] for c in cells))
        else:
            ms = ops.lerner_maximal(k, f.with_values(floc), cone, "M_S", pool,
                                    method=method, domain=node.box()).values
        # where 3P covers the grid, f' is f
        if mask3.all():
            s_node = s_all[nsl]
        elif evaluator is not None:
            s_node = np.sqrt(evaluator.box_square_sum(floc, tuple(c[0] for c in cells)))
        else:
            s_node = s_of(floc)[nsl]
        mtilde = np.maximum(s_node, ms[nsl])
        target = math.prod(sl.stop - sl.start for sl in nsl) // 2 ** (2 * f.n + 2)
        cur = g_val
        for _ in range(_GAMMA_BUDGET):
            thr = math.sqrt(cur) * bracket * avg3
            e_mask = np.zeros_like(f.values, dtype=bool)
            e_mask[nsl] = mtilde > thr
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
    """[ sum_P (prod_i <f_i>_{1, 3P})^2 1_P ]^{1/2} on the grid, for one
    input or a pair.  ``dilate`` must be 3, the dilate of the sparse bound
    (`ParameterError` otherwise).  Before any work the inputs must share one
    grid and every cube must lie on its dyadic lattice, of its dimension
    and base 2R (`GridError` otherwise).  The cells of 3P and P are the
    `grids.cell_ranges` of the family's corners."""
    if dilate != 3:
        raise ParameterError(f"the sparse bound averages over 3P, got dilate {dilate!r}")
    fs = list(f) if isinstance(f, (tuple, list)) else [f]
    base = fs[0]
    if not all(base.same_grid(g) for g in fs[1:]):
        raise GridError("the inputs must share one grid")
    for c in family.cubes:
        _on_lattice(c, base)
    N, hn = base.ncells, base.h**base.n
    boxes = [c.box() for c in family.cubes]
    i0, i1 = cell_ranges(base, boxes, dilate=True, snap_outward=True)
    j0, j1 = cell_ranges(base, boxes, aligned=True)
    mags = [np.abs(gf.values) for gf in fs]
    acc = np.zeros_like(base.values)
    for c, a0, a1, b0, b1 in zip(family.cubes, i0.tolist(), i1.tolist(), j0.tolist(),
                                 j1.tolist()):
        w3 = tuple(slice(max(a, 0), min(b, N)) for a, b in zip(a0, a1))
        prod = 1.0
        for mag in mags:
            prod *= float(np.sum(mag[w3])) * hn / (3 * c.side) ** base.n
        acc[tuple(slice(max(a, 0), min(b, N)) for a, b in zip(b0, b1))] += prod**2
    return base.with_values(np.sqrt(acc))
