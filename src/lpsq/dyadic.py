"""Dyadic cubes, shifted grids, Calderon-Zygmund decomposition, sparse families.

The dyadic lattice is anchored at coordinate 0 with base side 2R (the box
width), so generation g cubes have side 2R * 2^-g and generation log2(N)
cubes are single grid cells.  Cell counting is exact: every cube maps to an
integer index range, and all measure comparisons (CZ selection, sparseness,
stopping ratios) are integer arithmetic.

Shifted one-dimensional families are generated from the arithmetic
generators {[3j+k-1, 3j+k)} by closing under the adjacent-double/half rule
inside a window, with exact rational endpoints.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ConstructionError,
    ContainmentError,
    GridError,
    LpsqError,
    ParameterError,
)
from .grids import Box, ConeGrid, GridFunction, save_binary, load_binary

__all__ = [
    "Cube",
    "CZDecomposition",
    "SparseFamily",
    "shifted_family",
    "shifted_cover",
    "cz_decompose",
    "sparse_construct",
    "verify_sparse",
    "sparse_rhs_eval",
    "dyadic_cube_pool",
]


@dataclass(frozen=True, order=True)
class Cube:
    """Dyadic or shifted cube; generation counts halvings from the base side.

    For standard cubes the base is the root side (2R) and ``anchor`` indexes
    the cube in units of its own side.  Shifted family members carry exact
    rational ``lo``/``side`` instead (anchor-by-side does not stay integral
    under the adjacency closure); both expose the same float geometry.
    """

    n: int
    generation: int
    anchor: tuple = ()
    shift: str = "standard"
    base: float = 2.0
    lo_frac: tuple = None
    side_frac: Fraction = None

    @property
    def side(self) -> float:
        if self.side_frac is not None:
            return float(self.side_frac)
        return self.base * 2.0 ** (-self.generation)

    @property
    def lo(self) -> tuple:
        if self.lo_frac is not None:
            return tuple(float(a) for a in self.lo_frac)
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
        if self.shift != "standard":
            raise ParameterError("parent() is for standard dyadic cubes")
        return Cube(
            self.n, self.generation - 1,
            tuple(a >> 1 if a >= 0 else -((-a + 1) >> 1) for a in self.anchor),
            "standard", self.base,
        )

    def children(self) -> list:
        if self.shift != "standard":
            raise ParameterError("children() is for standard dyadic cubes")
        out = []
        if self.n == 1:
            for da in range(2):
                out.append(Cube(1, self.generation + 1, (2 * self.anchor[0] + da,),
                                "standard", self.base))
        else:
            for da in range(2):
                for db in range(2):
                    out.append(Cube(2, self.generation + 1,
                                    (2 * self.anchor[0] + da, 2 * self.anchor[1] + db),
                                    "standard", self.base))
        return out

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
    if N & (N - 1):
        raise GridError("dyadic machinery needs a power-of-two cell count")


# ---------------------------------------------------------------------------
# shifted grids
# ---------------------------------------------------------------------------


def shifted_family(
    k: int | tuple,
    gen_range: tuple = (-2, 2),
    window: tuple = (-8.0, 8.0),
    n: int = 1,
    max_iter: int = 200_000,
) -> list:
    """Closure of the shifted generators inside a window.

    1-D: minimal family containing the side-1 intervals [3j+k-1, 3j+k) and
    closed under "adjacent interval of double or half side sharing exactly
    one closure point", restricted to sides 2^-g for g in gen_range and to
    intervals meeting the window.  n = 2 takes k = (k1, k2) and forms
    products with equal sides.

    Generations follow the side = 2^-g convention here (base 1), so
    gen_range = (-2, 2) means sides 4 down to 1/4.
    """
    if n == 2:
        k1, k2 = k
        fam1 = shifted_family(k1, gen_range, window, 1, max_iter)
        fam2 = shifted_family(k2, gen_range, window, 1, max_iter)
        by_side1: dict = {}
        for c in fam1:
            by_side1.setdefault(c.side_frac, []).append(c)
        out = []
        for c in fam2:
            for c1 in by_side1.get(c.side_frac, ()):
                out.append(
                    Cube(2, c.generation, (), f"k={k1},{k2}", 1.0,
                         lo_frac=(c1.lo_frac[0], c.lo_frac[0]),
                         side_frac=c.side_frac)
                )
        return out
    if k not in (1, 2, 3):
        raise ParameterError("shift id k must be in {1, 2, 3}")
    g_lo, g_hi = gen_range
    win_lo = Fraction(window[0]).limit_denominator(10**9)
    win_hi = Fraction(window[1]).limit_denominator(10**9)

    def meets(lo: Fraction, side: Fraction) -> bool:
        return lo <= win_hi and lo + side > win_lo

    seed = []
    j = math.floor(float(win_lo)) // 3 - 2
    while 3 * j + k - 1 <= float(win_hi) + 1:
        lo = Fraction(3 * j + k - 1)
        if meets(lo, Fraction(1)) and g_lo <= 0 <= g_hi:
            seed.append((lo, Fraction(1)))
        j += 1
    family = set(seed)
    work = list(seed)
    iters = 0
    while work:
        iters += 1
        if iters > max_iter:
            raise ConstructionError(
                f"shifted-family closure did not reach a fixpoint in {max_iter} steps"
            )
        lo, side = work.pop()
        hi = lo + side
        for new_side in (2 * side, side / 2):
            g = -_log2_frac(new_side)
            if not g_lo <= g <= g_hi:
                continue
            for cand_lo in (hi, lo - new_side):
                cand = (cand_lo, new_side)
                if meets(*cand) and cand not in family:
                    family.add(cand)
                    work.append(cand)
    out = [
        Cube(1, -_log2_frac(side), (), f"k={k}", 1.0, lo_frac=(lo,), side_frac=side)
        for lo, side in sorted(family)
    ]
    return out


def _log2_frac(x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    if num & (num - 1) or den & (den - 1):
        raise ParameterError(f"side {x} is not a power of two")
    return num.bit_length() - den.bit_length()


def shifted_cover(lo: float, hi: float, families: dict) -> Cube | None:
    """Smallest member (over all provided families) containing [lo, hi]."""
    best = None
    for fam in families.values():
        for c in fam:
            if c.lo[0] <= lo and hi <= c.hi[0]:
                if best is None or c.side < best.side:
                    best = c
    return best


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


def _cube_sums(gf: GridFunction):
    """Prefix sums of |f| and f for O(1) cube sums."""
    a = np.abs(gf.values)
    s = gf.values
    if gf.n == 1:
        ca = np.concatenate([[0.0], np.cumsum(a)])
        cs = np.concatenate([[0.0], np.cumsum(s)])

        def abs_sum(r):
            (i0, i1), = r
            return ca[i1] - ca[i0]

        def sig_sum(r):
            (i0, i1), = r
            return cs[i1] - cs[i0]

        return abs_sum, sig_sum
    N = gf.ncells
    ca = np.zeros((N + 1, N + 1))
    cs = np.zeros((N + 1, N + 1))
    ca[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
    cs[1:, 1:] = np.cumsum(np.cumsum(s, axis=0), axis=1)

    def abs_sum(r):
        (i0, i1), (j0, j1) = r
        return ca[i1, j1] - ca[i0, j1] - ca[i1, j0] + ca[i0, j0]

    def sig_sum(r):
        (i0, i1), (j0, j1) = r
        return cs[i1, j1] - cs[i0, j1] - cs[i1, j0] + cs[i0, j0]

    return abs_sum, sig_sum


def cz_decompose(f: GridFunction, rho: float) -> CZDecomposition:
    """Maximal dyadic cubes with mean of |f| in (rho, 2^n rho].

    Descends the anchored lattice from cubes big enough that their mean is
    forced below rho ( f is zero outside its box), selecting a cube as soon
    as its |f|-mean exceeds rho; g equals f off the cubes and the signed
    cube mean on each, b_j the mean-zero remainders.
    """
    if rho <= 0:
        raise ParameterError("rho must be positive")
    N = f.ncells
    _dyadic_root_cells(N)
    abs_sum, _ = _cube_sums(f)
    hn = f.h**f.n
    base = 2.0 * f.R

    def mean_abs(cube: Cube) -> float:
        inside = cube.cell_range(f)
        return abs_sum(inside) * hn / cube.side**f.n

    # the anchored cubes of side 2R straddle the box; if the selection would
    # have to pick one, the decomposition is not representable on this grid
    if f.n == 1:
        super_cubes = [Cube(1, 0, (a,), "standard", base) for a in (-1, 0)]
        roots = [Cube(1, 1, (a,), "standard", base) for a in (-1, 0)]
    else:
        super_cubes = [
            Cube(2, 0, (a, b), "standard", base) for a in (-1, 0) for b in (-1, 0)
        ]
        roots = [
            Cube(2, 1, (a, b), "standard", base) for a in (-1, 0) for b in (-1, 0)
        ]
    floor_heights = [mean_abs(c) for c in super_cubes]
    if max(floor_heights) > rho:
        raise ParameterError(
            f"rho = {rho:g} is below the resolvable height {max(floor_heights):g} "
            "for this box; the selection would need cubes beyond the sampled domain"
        )
    gmax = int(math.log2(N))  # single-cell generation
    selected: list[Cube] = []
    stack = []
    for c in roots:
        if c.ncells_inside(f) == 0:
            continue
        m = mean_abs(c)
        if m > rho:
            selected.append(c)
        elif m > 0.0:
            stack.append(c)
    while stack:
        cube = stack.pop()
        if cube.generation >= gmax:
            continue
        for ch in cube.children():
            if ch.ncells_inside(f) == 0:
                continue
            m = mean_abs(ch)
            if m > rho:
                selected.append(ch)
            elif m > 0.0 and ch.generation < gmax:
                stack.append(ch)
    good_vals = f.values.copy()
    bad = []
    for q in sorted(selected):
        r = q.cell_range(f)
        sl = tuple(slice(i0, i1) for i0, i1 in r)
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
        return {
            "eta": self.eta,
            "base": self.root.base,
            "n": self.root.n,
            "root": {"generation": self.root.generation, "anchor": list(self.root.anchor)},
            "cubes": [
                {"generation": c.generation, "anchor": list(c.anchor),
                 "shift": c.shift,
                 "parent": idx.get(self.parent.get(c), None)}
                for c in self.cubes
            ],
            "meta": self.meta,
        }

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, data: dict) -> "SparseFamily":
        n = data["n"]
        base = data["base"]
        cubes = [
            Cube(n, e["generation"], tuple(e["anchor"]), e.get("shift", "standard"), base)
            for e in data["cubes"]
        ]
        root = Cube(n, data["root"]["generation"], tuple(data["root"]["anchor"]),
                    "standard", base)
        parent = {}
        for c, e in zip(cubes, data["cubes"]):
            if e.get("parent") is not None:
                parent[c] = cubes[e["parent"]]
        return cls(data["eta"], root, cubes, parent, data.get("meta", {}))

    @classmethod
    def load(cls, path: str) -> "SparseFamily":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def verify_sparse(family: SparseFamily, eta: float | None = None):
    """Exact lattice check of |union of strict subcubes| <= (1-eta)|Q|.

    Returns (ok, worst_ratio, worst_cube).  Cell counting happens at the
    finest generation present in the family.
    """
    eta = family.eta if eta is None else eta
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
        size = 2 ** (gmax - q.generation)
        if q.n == 1:
            mask = np.zeros(size, dtype=bool)
            for r in family.cubes:
                if r is q or not _span_inside(spans[r], qs) or r.generation <= q.generation:
                    continue
                (a0, a1), = spans[r]
                mask[a0 - qs[0][0] : a1 - qs[0][0]] = True
            covered = int(mask.sum())
            total = size
        else:
            mask = np.zeros((size, size), dtype=bool)
            for r in family.cubes:
                if r is q or not _span_inside(spans[r], qs) or r.generation <= q.generation:
                    continue
                (a0, a1), (b0, b1) = spans[r]
                mask[a0 - qs[0][0] : a1 - qs[0][0], b0 - qs[1][0] : b1 - qs[1][0]] = True
            covered = int(mask.sum())
            total = size * size
        ratio = covered / total
        if ratio > worst:
            worst = ratio
            worst_cube = q
    return worst <= (1.0 - eta) + 1e-12, worst, worst_cube


def _span_inside(inner, outer) -> bool:
    return all(o0 <= i0 and i1 <= o1 for (i0, i1), (o0, o1) in zip(inner, outer))


def dyadic_cube_pool(
    root: Cube, gf: GridFunction, min_cells: int = 1, include_dilates: bool = True
) -> list:
    """All dyadic subcubes of root (down to min_cells per side) as boxes,
    plus their 3-dilates clipped to nothing (dilates kept as-is)."""
    gmax = int(math.log2(gf.ncells))
    out = []
    stack = [root]
    while stack:
        c = stack.pop()
        r = c.cell_range(gf)
        cells = min(i1 - i0 for i0, i1 in r)
        if cells < min_cells:
            continue
        out.append(c.box())
        if include_dilates:
            out.append(c.box().dilate(3.0))
        if c.generation < gmax and cells > min_cells:
            stack.extend(c.children())
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
    sqrt(gamma) * (dini(w) dini(phi) + s2) * <|f'|>_{3P} with f' = f 1_{3P};
    maximal dyadic subcubes with |cell E share| > 2^{-n-1} are selected, the
    recursion continues on their (deduplicated, maximal) parents.  In auto
    mode gamma doubles per node until |E| <= 2^{-2n-2}|P| cells, which
    forces 1/2-sparseness of the output combinatorially.
    """
    from . import operators as ops
    from .moduli import dini_constant

    N = f.ncells
    _dyadic_root_cells(N)
    cone_a = cone if cone.alpha == alpha else cone.with_alpha(alpha)
    evaluator = ops.SquareEvaluator(k, f, cone_a, method=method)
    wd = dini_constant(k.w_mod, 1e-6)
    pd = dini_constant(k.phi_mod, 1e-6)
    l2 = f.norm_l2()
    if l2 > 0:
        s_all = evaluator.eval_values(f.values)
        s2_est = f.with_values(s_all).norm_l2() / l2
    else:
        s2_est = 1.0
    bracket = wd * pd + s2_est
    hn = f.h**f.n
    gmax = int(math.log2(N))
    cubes = []
    parent_links = {}
    gamma_used = [1.0 if gamma == "auto" else float(gamma)]

    def recurse(node: Cube, g_val: float, depth: int):
        cubes.append(node)
        if node.generation >= gmax:
            return
        mask3 = ops._box_mask(f, node.box().dilate(3.0), snap_outward=True)
        floc = f.values * mask3
        if not np.any(floc):
            return
        avg3 = float(np.sum(np.abs(floc))) * hn / (3.0 * node.side) ** f.n
        s_vals = evaluator.eval_values(floc)
        pool = dyadic_cube_pool(node, f)
        ms = ops.lerner_maximal(
            k, f.with_values(floc), cone_a, "M_S", pool, method=method,
            domain=node.box(), evaluator=evaluator,
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
        # maximal dyadic subcubes with strict cell-share > 2^{-n-1}
        e_sum, _ = _cube_sums(f.with_values(e_mask.astype(float)))
        share_thr = Fraction(1, 2 ** (f.n + 1))
        sel = []
        stack = [ch for ch in node.children()]
        while stack:
            c = stack.pop()
            cr = c.cell_range(f)
            cnt = int(round(e_sum(cr)))
            cells = c.ncells_inside(f)
            if cells == 0 or cnt == 0:
                continue
            if Fraction(cnt, cells) > share_thr:
                sel.append(c)
            elif c.generation < gmax:
                stack.extend(c.children())
        parents = {c.parent() for c in sel}
        parents = [
            p for p in parents
            if not any(q is not p and q.contains(p) for q in parents)
        ]
        for p in sorted(parents):
            parent_links[p] = node
            recurse(p, cur, depth + 1)

    recurse(q0, gamma_used[0], 0)
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
    from . import operators as ops

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
