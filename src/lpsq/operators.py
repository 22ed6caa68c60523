"""Discretized operator evaluations.

psi_t is the t-dilated kernel integral (midpoint rule on the input grid);
the square function integrates |psi_t f|^2 over the discrete cone
(h^n / t^n times ln r per stored point), g* uses the polynomially weighted
full half-space, and the maximal-operator family (Hardy-Littlewood, dyadic,
powered, and the two square-function localizations) runs over grid-aligned
cube pools.

The output lattice of an operator may be wider than the input box
(``out_R``); inputs are always treated as zero outside their box, while
psi_t values are computed honestly wherever the output needs them.

Kernels with a profile have an FFT fast path; the per-call ``method``
argument ("auto", "fft" or "direct") forces the direct-summation path (the
oracle gate compares the two).  Every full-grid linear convolution
(psi_t, the `SquareEvaluator` levels, g*'s weight sum) is a circular
convolution by numpy's rfftn / irfftn of one length rule, `_fft_len`: the
least 2^a 3^b 5^c that holds it.  Two paths keep powers of two: the Lerner
local-window blocks, on which the Gram cutoff `_gram_s_max` is tuned, and
the bilinear diagonal sums, whose input spectra serve every level of one
length, and powers of two leave the levels fewer distinct lengths.
`scipy.signal` is imported though nothing here calls it: perfbench's span table resolves ``scipy.signal.fftconvolve`` and
reports a module the program never imported as absent.
`SquareEvaluator` caches the per-level kernel spectra of one layout in
n = 1 and n = 2; `lerner_maximal` takes a caller's evaluator of the same
layout (``evaluator=``, as `sparse_construct` passes), so the full-grid
kernels are sampled once per layout.

g* sums, per level, the weight times |psi_t f|^2 over the offsets as a
product of spectra; levels of one stencil radius share one irfftn.  The
1-D Hardy-Littlewood maximal function is an exact max over all windows,
in blocks of window starts (`_hl_max_1d`).

A bilinear kernel with profile Phi(x - y1, x - y2) on a pair (f1, f2) in
1-D: psi_t is the sum over the input offsets d = a - b of the convolutions
of the kernel diagonals Phi_d with g_d[a] = f1[a] f2[a - d], summed in
frequency space; the g_d spectra are taken once per FFT length for all cone
levels (`_psi_t_bilinear_fft`).  The per-output-cell direct sum
`_psi_t_bilinear` is its oracle.

`lerner_maximal` on a linear convolution kernel with resolved method "fft"
evaluates every pool cube's S(f 1_{3Q}) only on Q, cubes grouped by their
cell shape, in n = 1 and n = 2 alike.  M_S on small cubes is one quadratic
form in f on 3Q per cube, with a level-summed Gram table cached on the
`SquareEvaluator`; other groups cost, per level, one batched n-D rfft of
the stacked 3Q windows (input on 3Q, output on Q +- K_j), then window sums.
``method="direct"`` and bilinear pairs run S once per pool cube; that loop
is the oracle of the batched path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import ndimage
from scipy import signal  # noqa: F401  not called; see the module docstring

from .errors import (
    CoverageError,
    DisjointnessError,
    GeometryError,
    GridError,
    ParameterError,
)
from .grids import Box, ConeGrid, GridFunction
from .kernels import KernelSpec, unit_cube_maximal
from .moduli import ModulusOfContinuity, dini_constant

__all__ = [
    "psi_t_apply",
    "square_function",
    "square_function_multi",
    "square_function_at",
    "g_star",
    "g_star_cascade_bound",
    "maximal",
    "lerner_maximal",
    "far_field_majorant",
    "marcinkiewicz_fw",
    "SquareEvaluator",
]

# temporaries of the chunked paths (the batched Lerner FFTs and Gram form,
# the Gram table, the bilinear FFT, the 1-D HL maximal blocks) hold at most
# this many doubles
_LERNER_CHUNK = 1 << 14


def _resolve_method(k: KernelSpec, method: str | None) -> str:
    m = method or "auto"
    if m not in ("auto", "fft", "direct"):
        raise ParameterError(f"unknown method {m!r}")
    if m == "auto":
        return "fft" if k.profile is not None else "direct"
    if m == "fft" and k.profile is None:
        raise ParameterError("fft path needs a kernel with a profile")
    return m


def _out_centers(f: GridFunction, out_R: float | None):
    R_out = f.R if out_R is None else float(out_R)
    pad = (R_out - f.R) / f.h
    pad_cells = int(round(pad))
    if pad_cells < 0 or abs(pad - pad_cells) > 1e-9:
        raise GridError("out_R must extend the box by a whole number of cells")
    M = f.ncells + 2 * pad_cells
    centers = -R_out + (np.arange(M) + 0.5) * f.h
    return R_out, M, centers


def _as_pair(f):
    if isinstance(f, (tuple, list)):
        if len(f) != 2:
            raise ParameterError("bilinear operators take a pair of inputs")
        f1, f2 = f
        if not f1.same_grid(f2):
            raise GridError("bilinear inputs must share one grid")
        return f1, f2
    return None


def _pair_method(k: KernelSpec, pair, method: str | None) -> str:
    """Resolved method of a bilinear evaluation on a pair of inputs."""
    if k.kind != "bilinear":
        raise ParameterError("pair input needs a bilinear kernel")
    if pair[0].n != k.n:
        raise GridError("kernel and grid dimensions differ")
    if k.n != 1:
        raise ParameterError("bilinear evaluation is implemented for n = 1")
    return _resolve_method(k, method)


def psi_t_apply(
    k: KernelSpec,
    f,
    t: float,
    out_R: float | None = None,
    method: str | None = None,
) -> GridFunction:
    """psi_t applied to f (or to a pair for bilinear kernels).

    Midpoint rule over the input lattice, evaluated at the output cell
    centers; prefactor 1/t^{n m} with the kernel arguments scaled by 1/t.
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    pair = _as_pair(f)
    if pair is not None:
        if _pair_method(k, pair, method) == "fft":
            return _psi_t_bilinear_fft(k, *pair, [(t, out_R)])[0]
        return _psi_t_bilinear(k, *pair, t, out_R)
    if k.kind == "bilinear":
        raise ParameterError("bilinear kernel needs a pair of inputs")
    if f.n != k.n:
        raise GridError("kernel and grid dimensions differ")
    if _resolve_method(k, method) == "fft":
        return _psi_t_conv_fft(k, f, t, out_R)
    return _psi_t_direct(k, f, t, out_R)


def _psi_t_direct(k, f, t, out_R):
    R_out, M, X = _out_centers(f, out_R)
    Z = f.axis_centers()
    scale = f.h**f.n / t**f.n
    if f.n == 1:
        mat = k.two_point(X[:, None] / t, Z[None, :] / t)
        vals = scale * (mat @ f.values)
        return GridFunction(1, R_out, f.h, vals)
    out = np.empty((M, M))
    for i, xi in enumerate(X):
        # one output row at a time keeps the kernel tensor 3-d
        mat = k.two_point(
            xi / t,
            X[:, None, None] / t,
            Z[None, :, None] / t,
            Z[None, None, :] / t,
        )
        out[i] = scale * np.tensordot(mat, f.values, axes=2)
    return GridFunction(2, R_out, f.h, out)


def _fft_len(n: int) -> int:
    """The least 5-smooth integer 2^a 3^b 5^c >= n: the FFT length of every
    full-grid linear convolution (psi_t, the evaluator's levels, g*'s
    weight sum)."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _conv_kernel(k, f: GridFunction, t: float, R_out: float, M: int) -> np.ndarray:
    """Profile samples times (h/t)^n at the cell offsets -(N-1) .. M-1 (per
    axis) from the input cells of f to the M-cell output lattice of
    [-R_out, R_out]^n."""
    h = f.h
    d = (np.arange(-(f.ncells - 1), M) * h + (f.R - R_out)) / t
    scale = (h / t) ** f.n
    if f.n == 1:
        return k.profile(d) * scale
    return k.profile(d[:, None], d[None, :]) * scale


def _psi_t_conv_fft(k, f, t, out_R):
    """psi_t of a convolution kernel: the linear convolution of f with
    `_conv_kernel`, as one circular convolution of length `_fft_len`."""
    R_out, M, _ = _out_centers(f, out_R)
    N, n = f.ncells, f.n
    P, axes = (_fft_len(M + N - 1),) * n, tuple(range(n))
    spec = (np.fft.rfftn(f.values, P, axes=axes)
            * np.fft.rfftn(_conv_kernel(k, f, t, R_out, M), P, axes=axes))
    conv = np.fft.irfftn(spec, P, axes=axes)
    return GridFunction(n, R_out, f.h, conv[(slice(N - 1, N - 1 + M),) * n])


def _psi_t_bilinear(k, f1, f2, t, out_R):
    R_out, M, X = _out_centers(f1, out_R)
    Z = f1.axis_centers()
    scale = f1.h**2 / t**2
    out = np.empty(M)
    v1 = f1.values
    v2 = f2.values
    nz1 = np.flatnonzero(v1)
    nz2 = np.flatnonzero(v2)
    if nz1.size == 0 or nz2.size == 0:
        return GridFunction(1, R_out, f1.h, np.zeros(M))
    Z1 = Z[nz1]
    Z2 = Z[nz2]
    w1 = v1[nz1]
    w2 = v2[nz2]
    for i, xi in enumerate(X):
        mat = k.psi(xi / t, Z1[:, None] / t, Z2[None, :] / t)
        out[i] = w1 @ mat @ w2
    return GridFunction(1, R_out, f1.h, scale * out)


def _psi_t_bilinear_fft(k, f1, f2, levels) -> list:
    """psi_t(f1, f2) at each (t, out_R) of levels, as a sum over the input
    offsets d = a - b of the 1-D convolutions Phi_d * g_d.

    Input cells a run over the hull [A0, A0 + L) of supp f1;
    g_d[a] = f1[a] f2[a - d] and Phi_d[p] = Phi(u_p, u_{p+d}) with
    u_p = (x_i - z_a) / t at p = i - a.  The d rows go in chunks of
    `_LERNER_CHUNK` doubles; the g_d spectra of a chunk serve every level of
    the same FFT length P, and each level takes one irfft.
    """
    N, h = f1.ncells, f1.h
    outs = [_out_centers(f1, out_R)[:2] for _, out_R in levels]
    nz1 = np.flatnonzero(f1.values)
    if nz1.size == 0 or not np.any(f2.values):
        return [GridFunction(1, R_out, h, np.zeros(M)) for R_out, M in outs]
    A0, L = int(nz1[0]), int(nz1[-1] + 1 - nz1[0])
    a = np.arange(A0, A0 + L)
    ds = np.arange(A0 - N + 1, A0 + L)
    sizes = [1 << (L + M - 2).bit_length() for _, M in outs]
    accs = [np.zeros(P // 2 + 1, dtype=complex) for P in sizes]
    for P in sorted(set(sizes)):
        mine = [j for j, Pj in enumerate(sizes) if Pj == P]
        step = max(1, _LERNER_CHUNK // P)
        for r0 in range(0, ds.size, step):
            d = ds[r0 : r0 + step, None]
            b = a - d
            g = np.where((b >= 0) & (b < N), f2.values[np.clip(b, 0, N - 1)], 0.0)
            g *= f1.values[a]
            live = np.any(g, axis=1)
            if not live.any():
                continue
            d = d[live]
            gf = np.fft.rfft(g[live], P)
            for j in mine:
                t, (R_out, M) = levels[j][0], outs[j]
                q = np.arange(-(L - 1), M) - A0  # p - A0
                shift = f1.R - R_out
                phi = k.profile((q * h + shift) / t, ((q + d) * h + shift) / t)
                accs[j] += np.sum(np.fft.rfft(phi, P) * gf, axis=0)
    return [
        GridFunction(1, R_out, h, np.fft.irfft(acc, P)[L - 1 : L - 1 + M] * (h / t) ** 2)
        for acc, P, (t, _), (R_out, M) in zip(accs, sizes, levels, outs)
    ]


# ---------------------------------------------------------------------------
# square functions
# ---------------------------------------------------------------------------


def _radius_cells(alpha: float, t: float, h: float, max_radius: float) -> int:
    lim = min(alpha * t, max_radius) / h
    return max(int(math.ceil(lim)) - 1, 0)


def _disc_rows(lim: float, n: int) -> list:
    """The strict stencil |m| < lim (cells) in n dimensions, the rule of
    `grids._stencil`, as rows (m', rx): the offsets m = (m1, *m') with
    |m1| <= rx."""
    r = max(math.ceil(lim) - 1, 0)
    rows = []
    for rest in itertools.product(range(-r, r + 1), repeat=n - 1):
        rem = lim * lim - sum(d * d for d in rest)
        if rem > 0:
            rows.append((rest, int(math.ceil(math.sqrt(rem))) - 1))
    return rows


def _window_rows(lim: float, n: int, K: int) -> list:
    """The `_disc_rows` of lim as index pairs (hi, lo) into the cumulative
    sums c, along the first of n axes with a zero prepended, of an array
    padded by K cells on each side, K at least the stencil radius:
    c[hi] - c[lo] is one row's window sum at every output cell.  Stops
    count from the end, so the pairs serve every output size and batch."""
    rows = []
    for rest, rx in _disc_rows(lim, n):
        cols = tuple(slice(K + d, d - K or None) for d in rest)
        rows.append(((..., slice(K + rx + 1, rx - K or None)) + cols,
                     (..., slice(K - rx, -(K + rx + 1))) + cols))
    return rows


def _window_sum(p_ext: np.ndarray, rows: list, K: int) -> np.ndarray:
    """sum of p_ext over a stencil, given by its `_window_rows`, around each
    output cell; the last n axes of p_ext are a (rectangular) output padded
    by K cells on each side, leading axes a batch.  One cumulative sum
    along the first of the n axes; each stencil row is then one difference
    of it."""
    n = len(rows[0][0]) - 1
    lead, E = p_ext.shape[:-n], p_ext.shape[-n:]
    out = np.zeros(lead + tuple(e - 2 * K for e in E))
    c = np.zeros(lead + (E[0] + 1,) + E[1:])
    np.cumsum(p_ext, axis=-n, out=c[(..., slice(1, None)) + (slice(None),) * (n - 1)])
    for hi, lo in rows:
        out += c[hi] - c[lo]
    return out


def _psi_levels(k, f, cone: ConeGrid, out_R, method, radii):
    """Yield (j, t, u_ext values, K_j) with u on the out lattice padded by K_j."""
    pair = _as_pair(f)
    base = pair[0] if pair else f
    R_out = base.R if out_R is None else float(out_R)
    levels = [(float(t), R_out + K * base.h) for t, K in zip(cone.t_levels, radii)]
    # one pass over the offset rows serves every level of a bilinear pair
    us = (_psi_t_bilinear_fft(k, *pair, levels)
          if pair is not None and _pair_method(k, pair, method) == "fft" else None)
    for j, (t, R_ext) in enumerate(levels):
        u = us[j] if us else psi_t_apply(k, f, t, out_R=R_ext, method=method)
        yield j, t, u.values, radii[j]


def square_function_multi(
    k: KernelSpec,
    f,
    cone: ConeGrid,
    alphas: Sequence[float],
    out_R: float | None = None,
    method: str | None = None,
) -> dict:
    """S_alpha f for several apertures, sharing the psi_t evaluations.

    The cone supplies the t-levels, spacing and stencil cap; stencil radii
    per aperture are rebuilt from |offset| < alpha * t so every aperture
    sees the same discretization otherwise.
    """
    pair = _as_pair(f)
    base = pair[0] if pair else f
    if base.h != cone.h:
        raise GridError("cone and grid spacing differ")
    n = base.n
    R_out = base.R if out_R is None else float(out_R)
    M = int(round(2.0 * R_out / base.h))
    alphas = list(alphas)
    acc = {a: np.zeros((M,) * n) for a in alphas}
    radii = [
        max(_radius_cells(a, float(t), base.h, cone.max_radius) for a in alphas)
        for t in cone.t_levels
    ]
    for j, t, u_ext, K in _psi_levels(k, f, cone, R_out, method, radii):
        p = u_ext**2
        meas = base.h**n / t**n * cone.log_weight
        for a in alphas:
            rows = _window_rows(min(a * t, cone.max_radius) / base.h, n, K)
            acc[a] += meas * _window_sum(p, rows, K)
    return {
        a: GridFunction(n, R_out, base.h, np.sqrt(acc[a])) for a in alphas
    }


def square_function(
    k: KernelSpec,
    f,
    cone: ConeGrid,
    out_R: float | None = None,
    method: str | None = None,
) -> GridFunction:
    """S_{alpha,psi} f on the output lattice (alpha from the cone)."""
    return square_function_multi(k, f, cone, [cone.alpha], out_R, method)[cone.alpha]


def square_function_at(k: KernelSpec, f, x, cone: ConeGrid) -> float:
    """Direct triple-sum evaluation of S f at one point (oracle path).

    Loops over stored cone points and input cells explicitly; independent
    of the window-sum/FFT machinery.
    """
    pair = _as_pair(f)
    base = pair[0] if pair else f
    n = base.n
    x = np.atleast_1d(np.asarray(x, dtype=float))
    total = 0.0
    for j, t in enumerate(cone.t_levels):
        t = float(t)
        offs = cone.stencil(j)
        if n == 1 and pair is None:
            ys = x[0] + offs * base.h
            Z = base.axis_centers()
            nz = np.flatnonzero(base.values)
            mat = k.two_point(ys[:, None] / t, Z[nz][None, :] / t)
            vals = (mat @ base.values[nz]) * base.h / t
        elif n == 1:
            ys = x[0] + offs * base.h
            vals = np.array(
                [_psi_t_bilinear_point(k, pair[0], pair[1], t, y) for y in ys]
            )
        else:
            ys = x[None, :] + offs * base.h
            vals = np.array([_psi_t_point(k, base, t, y) for y in ys])
        total += float(np.sum(vals**2)) * base.h**n / t**n * cone.log_weight
    return math.sqrt(total)


def _psi_t_point(k, f, t, y):
    Z = f.axis_centers()
    nz = np.nonzero(f.values)
    if f.n == 1:
        zz = Z[nz[0]]
        vals = k.two_point(np.full_like(zz, y[0]) / t, zz / t)
        return float(np.sum(vals * f.values[nz])) * f.h / t
    zz1 = Z[nz[0]]
    zz2 = Z[nz[1]]
    vals = k.two_point(
        np.full_like(zz1, y[0]) / t, np.full_like(zz2, y[1]) / t, zz1 / t, zz2 / t
    )
    return float(np.sum(vals * f.values[nz])) * f.h**2 / t**2


def _psi_t_bilinear_point(k, f1, f2, t, y):
    Z = f1.axis_centers()
    nz1 = np.flatnonzero(f1.values)
    nz2 = np.flatnonzero(f2.values)
    if nz1.size == 0 or nz2.size == 0:
        return 0.0
    mat = k.psi(y / t, Z[nz1][:, None] / t, Z[nz2][None, :] / t)
    return float(f1.values[nz1] @ mat @ f2.values[nz2]) * f1.h**2 / t**2


@dataclass(frozen=True)
class _Level:
    """One cone level on a layout.

    psi_t values are taken on the output lattice padded by K cells (Mx
    cells per axis) and the window sums run over the strict stencil radius
    ``lim`` (cells), whose `_window_rows` are ``rows``; ``meas`` is
    (h/t)^n ln r and ``nfft`` the `_fft_len` of the linear convolution
    from the N input cells to the Mx output cells.
    """

    t: float
    K: int
    Mx: int
    nfft: int
    lim: float
    rows: list
    meas: float


def _cone_levels(template: GridFunction, cone: ConeGrid, R_out: float) -> list:
    h = template.h
    n = template.n
    N = template.ncells
    M = int(round(2.0 * R_out / h))
    out = []
    for t in cone.t_levels:
        t = float(t)
        K = _radius_cells(cone.alpha, t, h, cone.max_radius)
        Mx = M + 2 * K
        lim = min(cone.alpha * t, cone.max_radius) / h
        out.append(_Level(
            t, K, Mx, _fft_len(Mx + N - 1), lim, _window_rows(lim, n, K),
            (h / t) ** n * cone.log_weight,
        ))
    return out


def _gram_s_max(levels, n: int, N: int) -> int:
    """The Q side (cells) up to which the batched M_S takes the Gram form:
    of 0 and the sides s <= N/4, the one that minimises the modelled
    multiply-adds of one M_S call on the layout's dyadic pool (the cubes of
    side l = N, N/2, ... cells and their 3-dilates, (N/l)^n of each).  Per
    cube (3Q side a = 3s + 1): s^n a^{2n} in the Gram form; per level,
    2.5 P^n log2 P^n (an rfft / irfft pair of FFT side P) plus the window
    sums in the FFT path.  The table costs sum_j |D_j| (4 s_max)^{2n} once."""
    disc = sum(2 * rx + 1 for lv in levels for _, rx in _disc_rows(lv.lim, n))

    def per_level(s, a):
        KP = ((lv.K, 1 << (a + s + 2 * lv.K - 2).bit_length()) for lv in levels)
        return sum(2.5 * n * P**n * math.log2(P) + (s + 2 * K) ** n
                   + 2 * (2 * K + 1) ** (n - 1) * s**n for K, P in KP)

    shapes = [(s, (N // l) ** n) for l in (N >> g for g in range(N.bit_length()))
              for s in (l, 3 * l)]
    costs = [(s, c * s**n * (3 * s + 1) ** (2 * n), c * per_level(s, 3 * s + 1))
             for s, c in shapes]
    return min({0} | {s for s, _ in shapes if 4 * s <= N},
               key=lambda m: (disc * (4 * m) ** (2 * n)
                              + sum(g if s <= m else t for s, g, t in costs), m))


class SquareEvaluator:
    """Repeated S_alpha evaluations of masked variants of one grid layout.

    Samples the per-level convolution kernels once (the expensive
    transcendental sampling) and keeps their spectra, in n = 1 and n = 2;
    each eval costs one forward FFT per distinct FFT size (`_fft_len` of
    the linear convolution) and one inverse FFT per level.
    Non-convolution kernels and ``method="direct"`` go through
    square_function on every eval.  The batched Lerner path
    (`_lerner_batched`) takes psi_t f and the S^2 window sums from it
    (`level_values`, `cone_sum`), and its Gram cutoff ``s_max``
    (`_gram_s_max`) and Gram table (`gram_table`); both depend on the
    layout only.
    """

    def __init__(self, k, template: GridFunction, cone: ConeGrid,
                 out_R: float | None = None, method: str | None = None):
        self.k = k
        self.cone = cone
        self.template = template
        self.R_out = template.R if out_R is None else float(out_R)
        self.method = method
        self.fast = k.kind == "convolution" and _resolve_method(k, method) == "fft"
        if not self.fast:
            return
        n = template.n
        self.M = int(round(2.0 * self.R_out / template.h))
        self.levels = _cone_levels(template, cone, self.R_out)
        self._spectra = [
            np.fft.rfftn(_conv_kernel(k, template, lv.t, self.R_out + lv.K * template.h,
                                      lv.Mx), (lv.nfft,) * n, axes=range(n))
            for lv in self.levels
        ]
        self.s_max = _gram_s_max(self.levels, n, template.ncells)
        self._gram = None

    def gram_table(self):
        """(A, lo, P): the level-summed Gram table of the M_S form, built on
        first use.  A[p, q] = sum_j meas_j sum_{m in D_j} k_j(m + p) k_j(m + q)
        over the offsets p, q in [lo, lo + P)^n (flat, C order), with
        lo = 1 - 2 s_max and P = 4 s_max; k_j(v) = Phi(v h / t_j) (h / t_j)^n
        and D_j is the window of `cone_sum`."""
        if self._gram is None:
            n, h = self.template.n, self.template.h
            lo, P = 1 - 2 * self.s_max, 4 * self.s_max
            A = np.zeros((P**n, P**n))
            step = max(1, _LERNER_CHUNK // P**n)
            for lv in self.levels:
                K = lv.K
                # B[i] = k_j(i - K + lo) per axis, so that the window of W at
                # m + K holds k_j(m + p) for every p of the box
                e = np.arange(lo - K, lo + P + K) * h / lv.t
                B = self.k.profile(*np.ix_(*(e,) * n)) * (h / lv.t) ** n
                W = np.lib.stride_tricks.sliding_window_view(B, (P,) * n)
                for rest, rx in _disc_rows(lv.lim, n):
                    col = W[(slice(K - rx, K + rx + 1),) + tuple(K + d for d in rest)]
                    for r0 in range(0, 2 * rx + 1, step):
                        T = col[r0 : r0 + step].reshape(-1, P**n)
                        A += lv.meas * (T.T @ T)
            self._gram = A, lo, P
        return self._gram

    def level_values(self, values: np.ndarray):
        """Yield (level, u) per cone level, u = psi_t of the grid function
        with these values on the output lattice padded by the level's K."""
        n = self.template.n
        N = self.template.ncells
        axes = range(n)
        vf_cache = {}
        for lv, kf in zip(self.levels, self._spectra):
            vf = vf_cache.get(lv.nfft)
            if vf is None:
                vf = vf_cache[lv.nfft] = np.fft.rfftn(values, (lv.nfft,) * n, axes=axes)
            conv = np.fft.irfftn(vf * kf, (lv.nfft,) * n, axes=axes)
            yield lv, conv[(slice(N - 1, N - 1 + lv.Mx),) * n]

    def cone_sum(self, lv: _Level, p: np.ndarray) -> np.ndarray:
        """Level lv's share of S^2: its measure times the window sums of p
        (given on the padded lattice) at each output cell."""
        return lv.meas * _window_sum(p, lv.rows, lv.K)

    def eval_values(self, values: np.ndarray) -> np.ndarray:
        """S_alpha of the grid function with these values; returns values."""
        if not self.fast:
            gf = self.template.with_values(values)
            return square_function(
                self.k, gf, self.cone, out_R=self.R_out, method=self.method
            ).values
        acc = np.zeros((self.M,) * self.template.n)
        for lv, u in self.level_values(values):
            acc += self.cone_sum(lv, u**2)
        return np.sqrt(acc)

    def eval(self, gf: GridFunction) -> GridFunction:
        return GridFunction(
            self.template.n, self.R_out, self.template.h, self.eval_values(gf.values)
        )


# ---------------------------------------------------------------------------
# g* and its cascade bound
# ---------------------------------------------------------------------------


def _check_lambda(k: KernelSpec, lam: float):
    least = 2.0 * k.m
    if lam <= least:
        raise ParameterError(f"lambda must exceed {least} for this kernel kind")


def g_star(
    k: KernelSpec,
    f,
    lam: float,
    halfspace: ConeGrid,
    out_R: float | None = None,
    method: str | None = None,
) -> GridFunction:
    """g*_lambda with weight (t/(t+|x-y|))^{n lambda} over the half-space.

    ``halfspace`` should be built with `build_halfspace` so each level's
    stencil covers the lattice.  Per level, psi_t f on the output lattice
    padded by K cells (one `psi_t_apply` call), then the weight sum over the
    offsets |m| <= K (in n = 2 also |m| h < min(alpha t, max_radius)) as a
    product of spectra of length `_fft_len(M + 2K)`.  The products of levels
    with the same K are summed in frequency space and take one irfftn.
    """
    _check_lambda(k, lam)
    pair = _as_pair(f)
    base = pair[0] if pair else f
    n, h = base.n, base.h
    R_out = base.R if out_R is None else float(out_R)
    M = int(round(2.0 * R_out / h))
    axes = tuple(range(n))
    radii = [
        _radius_cells(halfspace.alpha, float(t), h, halfspace.max_radius)
        for t in halfspace.t_levels
    ]
    specs = {}  # K -> summed spectrum of the level weight sums
    for j, t, u_ext, K in _psi_levels(k, f, halfspace, R_out, method, radii):
        P = (_fft_len(M + 2 * K),) * n
        g1 = np.arange(-K, K + 1)
        if n == 1:
            wgt = (t / (t + np.abs(g1) * h)) ** (n * lam)
        else:
            MX, MY = np.meshgrid(g1, g1, indexing="ij")
            dist = np.hypot(MX, MY) * h
            wgt = (t / (t + dist)) ** (n * lam)
            wgt[dist >= min(halfspace.alpha * t, halfspace.max_radius)] = 0.0
        meas = h**n / t**n * halfspace.log_weight
        term = meas * np.fft.rfftn(u_ext**2, P, axes=axes) * np.fft.rfftn(wgt, P, axes=axes)
        if K in specs:
            specs[K] += term
        else:
            specs[K] = term
    acc = np.zeros((M,) * n)
    for K, spec in specs.items():
        P = (_fft_len(M + 2 * K),) * n
        acc += np.fft.irfftn(spec, P, axes=axes)[(slice(2 * K, 2 * K + M),) * n]
    acc = np.maximum(acc, 0.0)
    return GridFunction(n, R_out, h, np.sqrt(acc))


def g_star_cascade_bound(
    k: KernelSpec,
    f,
    lam: float,
    halfspace: ConeGrid,
    n_terms: int = 9,
    out_R: float | None = None,
    method: str | None = None,
):
    """The cascade sum_k 2^{-k lambda n / 2} S_{2^{k+1}} f, k = 0..n_terms-1.

    Apertures share the half-space's levels and stencil cap, so the bound
    g* <= cascade holds discretely (the ring at distance ~2^k t carries
    weight <= 2^{-k n lambda}).  Returns (cascade GridFunction, terms dict).
    """
    _check_lambda(k, lam)
    pair = _as_pair(f)
    base = pair[0] if pair else f
    n = base.n
    alphas = [2.0 ** (i + 1) for i in range(n_terms)]
    terms = square_function_multi(k, f, halfspace, alphas, out_R, method)
    vals = sum(
        2.0 ** (-i * lam * n / 2.0) * terms[a].values for i, a in enumerate(alphas)
    )
    return GridFunction(n, terms[alphas[0]].R, base.h, vals), terms


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------


def _hl_max_1d(a: np.ndarray) -> np.ndarray:
    """The 1-D Hardy-Littlewood maximal function of a >= 0 over grid cubes:
    out[x] = max over the windows [i, j) containing x of (c[j] - c[i]) /
    (j - i), c the cumulative sums of a; windows of one cell give a itself.

    Window starts i go in blocks of about `_LERNER_CHUNK` pairs (i, j); per
    block, a reversed running max over j gives each start's best window
    ending past x, and a column max takes the best of the block's starts
    i <= x."""
    N = a.size
    c = np.concatenate([[0.0], np.cumsum(a)])
    out = a.copy()  # L = 1 windows
    i0 = 0
    while i0 < N - 1:
        i1 = min(N - 1, i0 + max(1, _LERNER_CHUNK // (N - i0)))
        i = np.arange(i0, i1)[:, None]
        j = np.arange(i0 + 1, N + 1)[None, :]  # column x - i0 holds end j = x + 1
        L = j - i
        avg = np.divide(c[j] - c[i], L, out=np.full(L.shape, -np.inf), where=L >= 2)
        best = np.maximum.accumulate(avg[:, ::-1], axis=1)[:, ::-1]
        best[L < 1] = -np.inf  # starts i > x
        np.maximum(out[i0:], best.max(axis=0), out=out[i0:])
        i0 = i1
    return out


def maximal(f: GridFunction, variant: str = "hl", kappa: float | None = None) -> GridFunction:
    """Hardy-Littlewood (grid cubes), dyadic (anchored at 0), or powered.

    hl: sup over grid-aligned cubes containing x, sides h..2R (in 1-D an
    exact blocked max over all windows, `_hl_max_1d`; in 2-D one
    maximum filter per side);
    dyadic: sup over the dyadic lattice anchored at coordinate 0;
    powered: M[|f|^kappa]^{1/kappa}.
    """
    if variant == "powered":
        if kappa is None or kappa <= 0:
            raise ParameterError("powered maximal needs kappa > 0")
        inner = maximal(f.with_values(np.abs(f.values) ** kappa), "hl")
        return f.with_values(inner.values ** (1.0 / kappa))
    a = np.abs(f.values)
    N = f.ncells
    if variant == "hl":
        if f.n == 1:
            out = _hl_max_1d(a)
        else:
            out = a.copy()  # L = 1 windows
            c = np.zeros((N + 1, N + 1))
            c[1:, 1:] = np.cumsum(np.cumsum(a, axis=0), axis=1)
            for L in range(2, N + 1):
                s = (
                    c[L:, L:] - c[:-L, L:] - c[L:, :-L] + c[:-L, :-L]
                ) / (L * L)
                pad = np.full((N, N), -np.inf)
                pad[: s.shape[0], : s.shape[1]] = s
                origin = (L - 1) // 2
                mx = ndimage.maximum_filter(
                    pad, size=(L, L), mode="constant", cval=-np.inf,
                    origin=(origin, origin),
                )
                out = np.maximum(out, mx)
        return f.with_values(out)
    if variant == "dyadic":
        out = np.zeros_like(a)
        gmax = int(math.log2(N)) if (N & (N - 1)) == 0 else None
        if gmax is None:
            raise GridError("dyadic maximal needs a power-of-two cell count")
        # generations with side <= box: blocks aligned to index 0
        for g in range(1, gmax + 1):
            blk = N // 2**g if 2**g <= N else None
            if blk is None or blk == 0:
                break
            if f.n == 1:
                means = a.reshape(2**g, blk).mean(axis=1)
                out = np.maximum(out, np.repeat(means, blk))
            else:
                means = a.reshape(2**g, blk, 2**g, blk).mean(axis=(1, 3))
                out = np.maximum(out, np.kron(means, np.ones((blk, blk))))
        # cubes larger than the box: each half/quadrant sits inside the
        # side-2R cube with that sign pattern; larger cubes only dilute
        if f.n == 1:
            out[: N // 2] = np.maximum(out[: N // 2], a[: N // 2].sum() / N)
            out[N // 2 :] = np.maximum(out[N // 2 :], a[N // 2 :].sum() / N)
        else:
            for si, sj in ((0, 0), (0, 1), (1, 0), (1, 1)):
                rows = slice(si * N // 2, (si + 1) * N // 2)
                cols = slice(sj * N // 2, (sj + 1) * N // 2)
                q = a[rows, cols].sum() / (N * N)
                out[rows, cols] = np.maximum(out[rows, cols], q)
        return f.with_values(out)
    raise ParameterError(f"unknown maximal variant {variant!r}")


# ---------------------------------------------------------------------------
# Lerner-type localized maximal operators
# ---------------------------------------------------------------------------


def _box_range(gf: GridFunction, box: Box, snap_outward: bool = False) -> tuple:
    """Per-axis (start, stop) index ranges of the cells a box selects.

    A cell counts when its center lies in [lo, hi) or, with
    ``snap_outward`` (the convention for 3Q dilates), in
    [lo - h/2, hi + h/2): for a lattice-aligned box that is the cells inside
    plus the left neighbour.  Coordinates are taken in cell units and
    rounded to the lattice within 1e-9 (as `Cube.cell_range`), so one box
    shape selects the same number of cells wherever it sits; ranges are not
    clipped to the grid.
    """
    # cell i is selected for lo - pad <= i + 1/2 < hi + pad (cell units)
    pad = 0.5 if snap_outward else 0.0
    out = []
    for ax in range(gf.n):
        lo = (box.lo[ax] + gf.R) / gf.h - 0.5 - pad
        hi = (box.hi[ax] + gf.R) / gf.h - 0.5 + pad
        i0 = int(math.ceil(lo - 1e-9))
        out.append((i0, int(math.ceil(hi - 1e-9))))
    return tuple(out)


def _box_ranges(gf: GridFunction, boxes: Sequence[Box], snap_outward: bool = False,
                factor: float | None = None) -> tuple:
    """`_box_range` of many boxes, dilated first as `Box.dilate(factor)` when
    a factor is given, by the same float operations: (start, stop) index
    arrays (nb, n)."""
    lo = np.array([b.lo for b in boxes], dtype=float)
    hi = np.array([b.hi for b in boxes], dtype=float)
    if factor is not None:  # the center -+ factor/2 times the axis-0 side
        c, half = 0.5 * (lo + hi), factor * 0.5 * (hi[:, :1] - lo[:, :1])
        lo, hi = c - half, c + half
    pad = 0.5 if snap_outward else 0.0
    i0 = np.ceil((lo + gf.R) / gf.h - 0.5 - pad - 1e-9).astype(np.intp)
    i1 = np.ceil((hi + gf.R) / gf.h - 0.5 + pad - 1e-9).astype(np.intp)
    return i0, i1


def _box_mask(gf: GridFunction, box: Box, snap_outward: bool = False) -> np.ndarray:
    """Indicator of the grid cells `_box_range` selects."""
    mask = np.zeros(gf.values.shape)
    mask[tuple(slice(max(i0, 0), max(i1, 0))
               for i0, i1 in _box_range(gf, box, snap_outward))] = 1.0
    return mask


def _lerner_groups(f: GridFunction, cube_pool: Sequence[Box], out: np.ndarray) -> dict:
    """The pool cubes of the batched paths, grouped by shape.

    Keys hold per axis (cells of 3Q, cells of Q, offset of Q in 3Q); values
    are the (nb, n) start cells of 3Q and of Q of the cubes of that shape.
    The ranges run past the grid, so one box shape has one key wherever it
    sits.  Cubes that select no grid cell are left out; where 3Q holds every
    nonzero cell of f, both variants are exactly 0 on Q, which is written
    into out here.
    """
    N = f.ncells
    i0, i1 = _box_ranges(f, cube_pool, snap_outward=True, factor=3.0)
    j0, j1 = _box_ranges(f, cube_pool)
    live = np.all(np.maximum(j0, 0) < np.minimum(j1, N), axis=1)
    zero = live.copy()
    for ax, ix in enumerate(np.nonzero(f.values)):
        if ix.size:
            zero &= (i0[:, ax] <= ix.min()) & (ix.max() < i1[:, ax])
    for c in np.flatnonzero(zero):
        qin = tuple(slice(max(a, 0), min(b, N)) for a, b in zip(j0[c], j1[c]))
        out[qin] = np.maximum(out[qin], 0.0)
    rest = np.flatnonzero(live & ~zero)
    keys = np.stack([i1 - i0, j1 - j0, j0 - i0], axis=-1)[rest]
    uniq, inv = np.unique(keys.reshape(rest.size, 3 * f.n), axis=0, return_inverse=True)
    sels = [rest[inv.ravel() == g] for g in range(len(uniq))]
    return {tuple(map(tuple, key.reshape(-1, 3).tolist())): (i0[sel], j0[sel])
            for key, sel in zip(uniq, sels)}


def _lerner_sup(out: np.ndarray, s_full2: np.ndarray, variant: str, batches) -> None:
    """out = max(out, the localized term) on Q within the grid for each
    cube of the batches (J, acc): J holds the (nb, n) start cells of Q, acc
    the (nb, cells of Q per axis) S(f 1_{3Q})^2 (M_S) or N_S^2 values."""
    N = out.shape[0]
    for J, acc in batches:
        nb, *s = acc.shape
        # per axis, the grid index of every entry of acc
        idx = [J[:, ax].reshape((nb,) + (1,) * len(s)) + local
               for ax, local in enumerate(np.indices(s))]
        keep = np.logical_and.reduce([(i >= 0) & (i < N) for i in idx])
        cells = tuple(i[keep] for i in idx)
        if variant == "M_S":
            val = np.sqrt(np.abs(s_full2[cells] - acc[keep]))
        else:
            val = np.sqrt(acc[keep])
        np.maximum.at(out, cells, val)


def _gram_takes(ev: SquareEvaluator, variant: str, key) -> bool:
    """Whether a group of this shape key takes the Gram form: M_S, Q at most
    s_max cells per axis and every offset d + e - c inside the table."""
    lo, hi = 1 - 2 * ev.s_max, 2 * ev.s_max
    return variant == "M_S" and all(
        s <= ev.s_max and d - a + 1 >= lo and d + s - 1 <= hi for a, s, d in key)


def _gram_form(ev: SquareEvaluator, key, fp: np.ndarray, I: np.ndarray) -> np.ndarray:
    """S(f 1_{3Q})^2 on Q for the cubes of one shape key, whose 3Q windows
    of fp start at the cells I (nb, n).

    At x = j0 + e the value is F^T A[p(e, .), p(e, .)] F with F = f on 3Q,
    p(e, c) = d + e - c per axis and A the evaluator's Gram table; the rows
    of several e go in one (nb, a^n) @ (a^n, ce a^n) matmul and a row dot.
    """
    A, lo, P = ev.gram_table()
    # r[e, c]: flat table index of the offset p(e, c)
    r = np.zeros((1, 1), dtype=np.intp)
    for a, s, d in key:
        ax = d - lo + np.arange(s)[:, None] - np.arange(a)[None, :]
        r = (r[:, None, :, None] * P + ax[None, :, None, :]).reshape(r.shape[0] * s, -1)
    ns, na = r.shape
    fw = np.lib.stride_tricks.sliding_window_view(fp, tuple(a for a, _, _ in key))
    out = np.empty((len(I), ns))
    ce = max(1, _LERNER_CHUNK // (na * na))
    for e0 in range(0, ns, ce):
        re = r[e0 : e0 + ce]
        G = A[re.T[:, :, None], re[None, :, :]].reshape(na, -1)
        step = max(1, _LERNER_CHUNK // G.shape[1])
        for b0 in range(0, len(I), step):
            F = fw[tuple(I[b0 : b0 + step].T)].reshape(-1, na)
            Y = (F @ G).reshape(len(F), -1, na)
            out[b0 : b0 + step, e0 : e0 + ce] = np.einsum("bec,bc->be", Y, F)
    return out.reshape(len(I), *(s for _, s, _ in key))


def _lerner_batched(ev: SquareEvaluator, f: GridFunction, variant: str,
                    cube_pool: Sequence[Box]) -> np.ndarray:
    """M_S / N_S of a convolution kernel, each cube evaluated on Q only.

    Cubes are grouped by their unclipped shape; f 1_{3Q} is read from a
    zero-padded f.  M_S groups that `_gram_takes` go to `_gram_form`.  Per
    level and other group, psi_t(f 1_{3Q}) on Q +- K is the linear
    convolution of the stacked 3Q windows with the profile sampled at the
    cell offsets from 3Q to Q +- K (one n-D rfft of it, one batched n-D
    rfft / irfft per chunk of cubes), then window sums run on Q.  N_S uses
    psi_t(f 1_{outside 3Q}) = psi_t f - psi_t(f 1_{3Q}); cells outside the
    grid are dropped.
    """
    n, N, h = f.n, f.ncells, f.h
    out = np.full((N,) * n, -np.inf)
    groups = _lerner_groups(f, cube_pool, out)
    if not groups:
        return out
    # zero pads that hold every 3Q window of f and every Q +- K window of u
    pf = pu = 0
    for key, (I, J) in groups.items():
        a, s, _ = np.array(key).T
        pf = max(pf, -I.min(), (I + a).max() - N)
        pu = max(pu, -J.min(), (J + s).max() - N)
    windows = np.lib.stride_tricks.sliding_window_view
    fp = np.pad(f.values, pf)
    levelled = {key: IJ for key, IJ in groups.items() if not _gram_takes(ev, variant, key)}
    accs = {key: np.zeros((len(I),) + tuple(s for _, s, _ in key)) if key in levelled
            else _gram_form(ev, key, fp, I + pf) for key, (I, _) in groups.items()}
    axes = tuple(range(1, n + 1))
    s_full2 = np.zeros((N,) * n)
    for lv, u_full in ev.level_values(f.values):
        K = lv.K
        if variant == "M_S":
            s_full2 += ev.cone_sum(lv, u_full**2)
        else:
            up = np.pad(u_full, pu)
        for key, (I, J) in levelled.items():
            es = (np.arange(d - K - a + 1, d + s + K) * h / lv.t for a, s, d in key)
            block = ev.k.profile(*np.ix_(*es)) * (h / lv.t) ** n
            P = tuple(1 << (a + s + 2 * K - 2).bit_length() for a, s, _ in key)
            kf = np.fft.rfftn(block, P, axes=range(n))
            fw = windows(fp, tuple(a for a, _, _ in key))
            if variant == "N_S":
                uw = windows(up, tuple(s + 2 * K for _, s, _ in key))
            crop = (slice(None),) + tuple(slice(a - 1, a + s + 2 * K - 1) for a, s, _ in key)
            step = max(1, _LERNER_CHUNK // math.prod(P))
            for b0 in range(0, len(I), step):
                Ib, Jb = I[b0 : b0 + step] + pf, J[b0 : b0 + step] + pu
                wf = np.fft.rfftn(fw[tuple(Ib.T)], P, axes=axes)
                U = np.fft.irfftn(wf * kf, P, axes=axes)[crop]
                if variant == "N_S":
                    U = uw[tuple(Jb.T)] - U
                accs[key][b0 : b0 + step] += lv.meas * _window_sum(U**2, lv.rows, K)
    _lerner_sup(out, s_full2, variant, [(J, accs[key]) for key, (_, J) in groups.items()])
    return out


def lerner_maximal(
    k: KernelSpec,
    f,
    cone: ConeGrid,
    variant: str,
    cube_pool: Sequence[Box],
    method: str | None = None,
    domain: Box | None = None,
    evaluator: SquareEvaluator | None = None,
) -> GridFunction:
    """M_S / N_S: sup over pool cubes containing x of the localized term.

    M_S: sqrt(|S f(x)^2 - S(f 1_{3Q})(x)^2|);  N_S: S(f 1_{R^n \\ 3Q})(x).
    The pool approximates the sup over all cubes; callers should record the
    pool kind alongside results.  With ``domain`` the coverage requirement
    (every point lies in some pool cube) applies only inside that box and
    the output is zero elsewhere.  ``evaluator`` may pass in a
    `SquareEvaluator` of the same kernel, cone and method on f's layout, so
    that its kernel spectra and Gram table are reused.  A linear convolution
    kernel with resolved method "fft" takes the batched path
    (`_lerner_batched`, M_S on small cubes by `_gram_form`), in n = 1 and
    n = 2; ``method="direct"`` and bilinear pairs evaluate S once per pool
    cube.
    """
    if variant not in ("M_S", "N_S"):
        raise ParameterError(f"unknown variant {variant!r}")
    if not cube_pool:
        raise CoverageError("empty cube pool")
    pair = _as_pair(f)
    base = pair[0] if pair else f
    ev = evaluator
    if evaluator is not None:
        t = evaluator.template
        if (pair is not None or evaluator.k is not k or evaluator.cone is not cone
                or _resolve_method(k, evaluator.method) != _resolve_method(k, method)
                or (t.n, t.R, t.h, evaluator.R_out) != (base.n, base.R, base.h, base.R)):
            raise ParameterError("evaluator does not match the kernel, cone, "
                                 "method or layout of this call")
    elif pair is None:
        ev = SquareEvaluator(k, base, cone, method=method)
    if ev is not None and ev.fast:
        out = _lerner_batched(ev, base, variant, cube_pool)
    else:
        out = _lerner_pool_loop(k, f, cone, variant, cube_pool, method, ev)
    if domain is not None:
        dom = _box_mask(base, domain).astype(bool)
        if np.any(out[dom] == -np.inf):
            uncovered = np.argwhere(dom & (out == -np.inf))
            raise CoverageError(
                f"{uncovered.shape[0]} domain cells covered by no pool cube, "
                f"first at index {tuple(uncovered[0])}"
            )
        out[~dom] = 0.0
    elif np.any(~np.isfinite(out)):
        uncovered = np.argwhere(out == -np.inf)
        raise CoverageError(
            f"{uncovered.shape[0]} cells covered by no pool cube, "
            f"first at index {tuple(uncovered[0])}"
        )
    return base.with_values(out)


def _lerner_pool_loop(k, f, cone, variant, cube_pool, method, ev) -> np.ndarray:
    """Sup over the pool of the localized term, one S evaluation per cube
    (through the evaluator ev of f's layout, or square_function for pairs)."""
    pair = _as_pair(f)
    base = pair[0] if pair else f
    if variant == "M_S":
        if pair is None:
            s_base = ev.eval_values(base.values)
        else:
            s_base = square_function(k, f, cone, method=method).values
    out = np.full(base.values.shape, -np.inf)

    def s_of(masked):
        if pair is None:
            return ev.eval_values(masked)
        m1 = pair[0].with_values(masked[0])
        m2 = pair[1].with_values(masked[1])
        return square_function(k, (m1, m2), cone, method=method).values

    for q in cube_pool:
        mask3 = _box_mask(base, q.dilate(3.0), snap_outward=True)
        if pair is None:
            inner = base.values * mask3
            outer = base.values * (1.0 - mask3)
        else:
            inner = (pair[0].values * mask3, pair[1].values * mask3)
            outer = (pair[0].values * (1.0 - mask3), pair[1].values * (1.0 - mask3))
        if variant == "M_S":
            s_in = s_of(inner)
            val = np.sqrt(np.abs(s_base**2 - s_in**2))
        else:
            val = s_of(outer)
        sel = _box_mask(base, q).astype(bool)
        out[sel] = np.maximum(out[sel], val[sel])
    return out


# ---------------------------------------------------------------------------
# far-field majorant and Marcinkiewicz function
# ---------------------------------------------------------------------------


def far_field_majorant(
    k: KernelSpec,
    b: GridFunction,
    cube: Box,
    x,
    k_max: int = 48,
) -> float:
    """Two-term far-field bound on S_1 of a mean-zero cube-supported bump.

    modulus-weighted near term: A dini(w) |x-c|^{-n} phi(2 sqrt(n) l / |x-c|)
    times ||b||_1, plus the ring sum over k of A 2^{-kn/2}
    (2^k l + |x-c|)^{-n} w(2^{k+2} l / (2^k l + |x-c|)) ||b||_1, truncated at
    ``k_max`` with the monotone geometric tail added.
    """
    n = b.n
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = np.asarray(cube.center, dtype=float)
    ell = cube.side
    dist = float(np.linalg.norm(x - c))
    if dist <= 64.0 * n * ell:
        raise GeometryError(
            f"|x - c(Q)| = {dist:g} must exceed 64 n l(Q) = {64 * n * ell:g}"
        )
    l1 = b.norm_l1()
    mean = float(np.sum(b.values)) * b.h**n
    if l1 > 0 and abs(mean) > 1e-10 * l1:
        raise ParameterError("b must have zero mean on its cube")
    if l1 == 0.0:
        return 0.0
    wd = dini_constant(k.w_mod, 1e-8)
    term1 = k.A * wd / dist**n * float(k.phi_mod(2.0 * math.sqrt(n) * ell / dist)) * l1
    ks = np.arange(1, k_max + 1, dtype=float)
    denom = (2.0**ks * ell + dist) ** n
    ring = float(
        np.sum(2.0 ** (-ks * n / 2.0) / denom
               * k.w_mod(2.0 ** (ks + 2.0) * ell / (2.0**ks * ell + dist)))
    )
    tail = (
        float(k.w_mod(1.0))
        / dist**n
        * 2.0 ** (-(k_max + 1) * n / 2.0)
        / (1.0 - 2.0 ** (-n / 2.0))
    )
    return term1 + k.A * (ring + tail) * l1


def marcinkiewicz_fw(
    w: ModulusOfContinuity,
    cubes: Sequence[tuple],
    x=None,
    grid: GridFunction | None = None,
):
    """Generalized Marcinkiewicz function of disjoint weighted cubes.

    ``cubes`` is a sequence of (center, half_side, weight) with weight >= 0;
    the value at x is sum_k weight_k M1_{Q(c_k, r_k)}(x) w(r_k/(r_k+|x-c_k|)).
    Evaluates at a single point ``x`` or on all centers of ``grid``.
    """
    parsed = []
    for c, r, lam in cubes:
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if lam < 0:
            raise ParameterError("cube weights must be nonnegative")
        if r <= 0:
            raise ParameterError("cube half-sides must be positive")
        parsed.append((c, float(r), float(lam)))
    for i in range(len(parsed)):
        for j in range(i + 1, len(parsed)):
            ci, ri, _ = parsed[i]
            cj, rj, _ = parsed[j]
            if np.all(np.abs(ci - cj) < ri + rj):
                raise DisjointnessError(f"cubes {i} and {j} overlap")
    if grid is not None:
        pts = grid.centers()
        if grid.n == 1:
            pts = pts[:, None]
        shape = grid.values.shape
    else:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        shape = pts.shape[:-1]
    total = np.zeros(pts.shape[:-1])
    for c, r, lam in parsed:
        if lam == 0.0:
            continue
        d = np.abs(pts - c) / r
        env = unit_cube_maximal(*[d[..., ax] for ax in range(d.shape[-1])])
        dist = np.linalg.norm(pts - c, axis=-1)
        total += lam * env * w(r / (r + dist))
    total = total.reshape(shape)
    if grid is not None:
        return grid.with_values(total)
    if total.shape == ():
        return float(total)
    return total

