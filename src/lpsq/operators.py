"""Discretized operator evaluations.

psi_t is the t-dilated kernel integral (midpoint rule on the input grid);
the square function integrates |psi_t f|^2 over the discrete cone, g* uses
the polynomially weighted full half-space, and the maximal operators
(Hardy-Littlewood and dyadic, and the localized square-function operator
M_S of the sparse construction) run over grid-aligned cubes.

Every entry point first reads its inputs through one gate, `_operands`: a
grid function, or the pair (f1, f2) of a bilinear kernel, as a tuple of k.m
inputs.  Before any work it refuses, each by a named error, a wrong number
of inputs, inputs on different grids or of another dimension than the
kernel, and a cone of another spacing or dimension than the grid.

S, g* and the `SquareEvaluator` read one level table, `_cone_levels`: per
cone level its t, its radius min(alpha t, max_radius), the pad K of the
psi_t lattice, the stencil rows and the measure (h/t)^n ln r per stored
point.  So g* and every S_alpha on one cone share levels, measure and
stencils.  The oracle `square_function_at` keeps its own stencil
(`ConeGrid.stencil`) and measure.

The output lattice of psi_t and `square_function_multi` may be wider than
the input box (``out_R``); inputs are always treated as zero outside their
box, while psi_t values are computed honestly wherever the output needs them.

Kernels with a profile have an FFT fast path, which the per-call ``method``
"auto" takes; "direct" forces the direct-summation path (the oracle gate
compares the two), and any other method is a `ParameterError`.  Every
full-grid linear convolution (psi_t, the cone levels, g*'s weight sum) is
a circular convolution by numpy's rfftn / irfftn of one length rule,
`_fft_len`: the least 2^a 3^b 5^c that holds it.  A single input's cone
levels on a convolution kernel are one stream, `_level_values`: one rfftn
of the input per distinct length, one irfftn per level.  The
`SquareEvaluator` and one-shot g* read it; one-shot S still takes one
`psi_t_apply` per level (`_psi_levels`), as perfbench's span table counts
one psi_t call per level of `square_function`.  Two paths
keep powers of two: the Lerner local-window blocks, on which the Gram
cutoff `_gram_s_max` is tuned, and the bilinear diagonal sums, whose input
spectra serve every level of one length, and powers of two leave the
levels fewer distinct lengths.
Nothing here calls scipy.  perfbench's span table pins
``scipy.signal.fftconvolve`` and reports a module the program never
imported as absent, so `scipy.signal` is registered in ``sys.modules``
through `importlib.util.LazyLoader`: finding its spec imports only the
top-level `scipy` package, and the module's own code runs when one of its
attributes is first read, which no lpsq code does.
`SquareEvaluator` is the FFT fast path of S on one layout (a convolution
kernel, method "auto"): its per-level kernel spectra in n = 1 and n = 2 and,
once used, its Gram table and the Lerner block spectra of every cube shape
it has seen.  `SquareEvaluator.of` keeps the evaluator of the last layout
on the kernel object (no state is process-global), or returns None off the
fast path; `lerner_maximal` and `sparse_construct` take theirs from it, so
a layout's kernels are sampled and transformed once per kernel object.

g* sums, per level, the weight times |psi_t f|^2 over the offsets as a
product of spectra, its offset geometry taken once per (K, radius);
levels of one pad K share one irfftn.  It streams each level's kernel
spectrum (`_kernel_spectra`) and drops it, where `SquareEvaluator.of` would
keep them all on the kernel for a layout used once.  The
1-D Hardy-Littlewood maximal function is the exact max over all windows,
found as the bridge between two persistent hull chains of the prefix sums
in O(N log N) (`_hl_max_1d`); the 2-D one takes, per window side, a
separable running max of the box means by doubling (`_window_max`).

A bilinear kernel with profile Phi(x - y1, x - y2) on a pair (f1, f2) in
1-D: psi_t is the sum over the input offsets d = a - b of the convolutions
of the kernel diagonals Phi_d with g_d[a] = f1[a] f2[a - d], summed in
frequency space; the g_d spectra are taken once per FFT length for all cone
levels (`_psi_t_bilinear_fft`).  The per-output-cell direct sum
`_psi_t_bilinear` is its oracle.

`lerner_maximal` computes M_S f(x), the sup over the pool cubes Q
containing x of |S f^2 - S(f 1_{3Q})^2|^{1/2}.  On a linear convolution
kernel with method "auto" it evaluates every pool cube's
S(f 1_{3Q}) only on Q, cubes grouped by their cell shape, in n = 1 and
n = 2 alike.  Small cubes take one quadratic form in f on 3Q per cube,
with a level-summed Gram table cached on the
`SquareEvaluator`; other groups cost, per FFT length and chunk of cubes,
one batched n-D rfft of the stacked 3Q windows, shared by the levels of
that length, and per level one irfft (output on Q +- K_j) and window sums.
``method="direct"``, general linear kernels and bilinear pairs run S once
per pool cube; that loop is the oracle of the batched path.
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CoverageError,
    DisjointnessError,
    GridError,
    ParameterError,
)
from .grids import Box, ConeGrid, GridFunction, box_sums, prefix_sums
from .kernels import KernelSpec, unit_cube_maximal
from .moduli import ModulusOfContinuity

__all__ = [
    "psi_t_apply",
    "square_function",
    "square_function_multi",
    "square_function_at",
    "g_star",
    "g_star_cascade_bound",
    "maximal",
    "lerner_maximal",
    "marcinkiewicz_fw",
    "SquareEvaluator",
]

if "scipy.signal" not in sys.modules:  # lazy: see the module docstring
    _spec = importlib.util.find_spec("scipy.signal")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules["scipy.signal"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["scipy.signal"])

# temporaries of the chunked paths (the batched Lerner FFTs and Gram form,
# the Gram table, the bilinear FFT) hold at most this many doubles
_LERNER_CHUNK = 1 << 14


def _resolve_method(k: KernelSpec, method: str | None) -> str:
    m = method or "auto"
    if m not in ("auto", "direct"):
        raise ParameterError(f"unknown method {m!r}")
    return "fft" if m == "auto" and k.profile is not None else "direct"


def _out_centers(f: GridFunction, out_R: float | None):
    R_out = f.R if out_R is None else float(out_R)
    pad = (R_out - f.R) / f.h
    pad_cells = int(round(pad)) if math.isfinite(pad) else -1
    if pad_cells < 0 or abs(pad - pad_cells) > 1e-9:
        raise GridError(f"out_R must be finite and extend the box by whole cells, got {out_R}")
    M = f.ncells + 2 * pad_cells
    centers = -R_out + (np.arange(M) + 0.5) * f.h
    return R_out, M, centers


def _operands(k: KernelSpec, f, cone: ConeGrid | None = None) -> tuple:
    """The inputs of an operator with kernel k as a tuple of k.m grid
    functions, (f,) or (f1, f2); a tuple of one is accepted for f.  Checks
    the count and the bilinear n = 1 (`ParameterError`), one shared grid,
    the kernel's dimension and the cone's spacing and n (`GridError`)."""
    fs = tuple(f) if isinstance(f, (tuple, list)) else (f,)
    if len(fs) != k.m:
        raise ParameterError(f"a {k.kind} kernel takes {k.m} input(s), got {len(fs)}")
    if not all(fs[0].same_grid(g) for g in fs[1:]):
        raise GridError("the inputs must share one grid")
    if fs[0].n != k.n:
        raise GridError("kernel and grid dimensions differ")
    if k.m == 2 and k.n != 1:
        raise ParameterError("bilinear evaluation is implemented for n = 1")
    if cone is not None and cone.h != fs[0].h:
        raise GridError("cone and grid spacing differ")
    if cone is not None and cone.n != fs[0].n:
        raise GridError("cone and grid dimensions differ")
    return fs


def psi_t_apply(
    k: KernelSpec,
    f,
    t: float,
    out_R: float | None = None,
    method: str | None = None,
) -> GridFunction:
    """psi_t applied to f (or to a pair for bilinear kernels) as read by
    `_operands`, for finite t > 0 and an out_R past f's box by whole cells.

    Midpoint rule over the input lattice, evaluated at the output cell
    centers; prefactor 1/t^{n m} with the kernel arguments scaled by 1/t.
    """
    fs = _operands(k, f)
    if not (math.isfinite(t) and t > 0):
        raise ParameterError(f"t must be finite and positive, got {t}")
    fast = _resolve_method(k, method) == "fft"
    if len(fs) == 2:
        return (_psi_t_bilinear_fft(k, *fs, [(t, out_R)])[0] if fast
                else _psi_t_bilinear(k, *fs, t, out_R))
    return (_psi_t_conv_fft if fast else _psi_t_direct)(k, fs[0], t, out_R)


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


def _window_rows(disc: list, K: int) -> list:
    """The stencil rows ``disc`` (`_disc_rows`) as index pairs (hi, lo)
    into the cumulative sums c, along the first of n axes with a zero
    prepended, of an array padded by K cells on each side, K at least the
    stencil radius: c[hi] - c[lo] is one row's window sum at every output
    cell.  Stops count from the end, so the pairs serve every output size
    and batch."""
    rows = []
    for rest, rx in disc:
        cols = tuple(slice(K + d, d - K or None) for d in rest)
        rows.append(((..., slice(K + rx + 1, rx - K or None)) + cols,
                     (..., slice(K - rx, -(K + rx + 1))) + cols))
    return rows


def _row_cumsum(p_ext: np.ndarray, n: int) -> np.ndarray:
    """The cumulative sums of p_ext along the first of its last n axes, with
    a zero prepended: the table that `_window_rows` index."""
    lead, E = p_ext.shape[:-n], p_ext.shape[-n:]
    c = np.zeros(lead + (E[0] + 1,) + E[1:])
    np.cumsum(p_ext, axis=-n, out=c[(..., slice(1, None)) + (slice(None),) * (n - 1)])
    return c


def _row_differences(c: np.ndarray, rows: list) -> np.ndarray:
    """The window sums of a stencil, given by its `_window_rows`, from the
    `_row_cumsum` table c: one difference per stencil row."""
    out = np.zeros(c[rows[0][0]].shape)
    for hi, lo in rows:
        out += c[hi] - c[lo]
    return out


def _window_sum(p_ext: np.ndarray, rows: list) -> np.ndarray:
    """sum of p_ext over a stencil, given by its `_window_rows`, around each
    output cell; the last n axes of p_ext are a (rectangular) output padded
    by K cells on each side, leading axes a batch.  One cumulative sum
    along the first of the n axes (`_row_cumsum`); each stencil row is then
    one difference of it (`_row_differences`).  Stencils padded by the same
    K can share the cumulative sum."""
    return _row_differences(_row_cumsum(p_ext, len(rows[0][0]) - 1), rows)


@dataclass(frozen=True)
class _Level:
    """One cone level on a layout: the one description of the cone that S,
    g* and the evaluator read.

    The level integrates over the offsets |m| h < ``radius`` =
    min(alpha t, max_radius), the strict stencil whose `_disc_rows` are
    ``disc`` (``size`` offsets) and whose `_window_rows` are ``rows``;
    psi_t values are taken on the output lattice padded by K cells, K the
    stencil's radius in cells (Mx cells per axis on the template's own
    lattice).  ``meas`` is (h/t)^n ln r and ``nfft`` the `_fft_len` of the
    linear convolution from the N input cells to the Mx output cells.
    """

    t: float
    radius: float
    K: int
    Mx: int
    nfft: int
    disc: list
    size: int
    rows: list
    meas: float


def _cone_levels(template: GridFunction, cone: ConeGrid, alpha: float) -> list:
    """The `_Level`s of the cone's t-levels at aperture alpha on the
    template's lattice: the only place where a cone becomes per-level
    radius, pad, stencil rows and measure.  No kernel is sampled."""
    h, n, N = template.h, template.n, template.ncells
    out = []
    shared = {}  # radius -> (disc, size, rows): the capped levels share them
    lens = {}  # Mx -> nfft
    for t in cone.t_levels:
        t = float(t)
        radius = min(alpha * t, cone.max_radius)
        K = max(math.ceil(radius / h) - 1, 0)
        if radius not in shared:
            disc = _disc_rows(radius / h, n)
            shared[radius] = disc, sum(2 * rx + 1 for _, rx in disc), _window_rows(disc, K)
        Mx = N + 2 * K
        if Mx not in lens:
            lens[Mx] = _fft_len(Mx + N - 1)
        out.append(_Level(t, radius, K, Mx, lens[Mx], *shared[radius],
                          (h / t) ** n * cone.log_weight))
    return out


def _level_values(values: np.ndarray, levels: list, spectra):
    """Yield (level, u) per `_Level`: u the psi_t values of the grid
    function with these values on its lattice padded by the level's K
    cells, by one rfftn of the values per distinct nfft and one irfftn per
    level.  ``spectra`` yields each level's kernel spectrum
    (`_kernel_spectra`): the evaluator passes its cached list, g* a
    stream."""
    n, N = values.ndim, values.shape[0]
    axes = range(n)
    spectra = iter(spectra)
    vf_cache = {}
    for lv in levels:
        vf = vf_cache.get(lv.nfft)
        if vf is None:
            vf = vf_cache[lv.nfft] = np.fft.rfftn(values, (lv.nfft,) * n, axes=axes)
        kf = next(spectra)
        conv = np.fft.irfftn(vf * kf, (lv.nfft,) * n, axes=axes)
        # no name holds a level's spectrum or transform past its use, so a
        # stream of spectra keeps one level's at a time
        del kf
        yield lv, conv[(slice(N - 1, N - 1 + lv.Mx),) * n]
        del conv


def _kernel_spectra(k, template: GridFunction, levels: list):
    """Yield each level's kernel spectrum for `_level_values`: the rfftn at
    lv.nfft of its `_conv_kernel`, sampled when the stream reaches the
    level; the `SquareEvaluator`'s spectra, without keeping them."""
    n, h = template.n, template.h
    for lv in levels:
        yield np.fft.rfftn(_conv_kernel(k, template, lv.t, template.R + lv.K * h, lv.Mx),
                           (lv.nfft,) * n, axes=range(n))


def _psi_levels(k, fs: tuple, levels: list, R_out: float, method):
    """Yield (level, u) as `_level_values` does, for the `_operands` tuple
    fs on the lattice of half-width R_out, by one `psi_t_apply` per level
    (one bilinear pass for a pair on the FFT path): the path of pairs,
    method "direct" and one-shot S, which perfbench's span table pins to
    one psi_t call per level."""
    outs = [(lv.t, R_out + lv.K * fs[0].h) for lv in levels]
    # one pass over the offset rows serves every level of a bilinear pair
    us = (_psi_t_bilinear_fft(k, *fs, outs)
          if len(fs) == 2 and _resolve_method(k, method) == "fft" else None)
    # a single input goes bare: perfbench's span table reads a tuple as a pair
    f = fs if len(fs) == 2 else fs[0]
    for j, (lv, (t, R_ext)) in enumerate(zip(levels, outs)):
        u = us[j] if us else psi_t_apply(k, f, t, out_R=R_ext, method=method)
        yield lv, u.values


def square_function_multi(
    k: KernelSpec,
    f,
    cone: ConeGrid,
    alphas: Sequence[float],
    out_R: float | None = None,
    method: str | None = None,
) -> dict:
    """S_alpha f for several apertures, sharing the psi_t evaluations.

    The inputs pass `_operands`; out_R pads as for psi_t (`_out_centers`).
    The levels are the cone's `_cone_levels` at the widest aperture, whose
    pad K every aperture shares; each aperture sums over its own stencil
    |offset| < min(alpha t, max_radius) with the level's measure.  Per
    level, the apertures of one such radius share one window sum.  The list
    must pass `ConeGrid.apertures`.
    """
    fs = _operands(k, f, cone)
    base = fs[0]
    n, h = base.n, base.h
    R_out, M, _ = _out_centers(base, out_R)
    alphas = cone.apertures(alphas)
    acc = {a: np.zeros((M,) * n) for a in alphas}
    widest = max(alphas)
    for lv, u in _psi_levels(k, fs, _cone_levels(base, cone, widest), R_out, method):
        c = _row_cumsum(u**2, n)  # all apertures pad by the same K
        by_radius = {}
        for a in alphas:
            by_radius.setdefault(min(a * lv.t, cone.max_radius), []).append(a)
        for radius, group in by_radius.items():
            rows = (lv.rows if radius == lv.radius
                    else _window_rows(_disc_rows(radius / h, n), lv.K))
            term = lv.meas * _row_differences(c, rows)
            for a in group:
                acc[a] += term
    return {a: GridFunction(n, R_out, h, np.sqrt(acc[a])) for a in alphas}


def square_function(
    k: KernelSpec,
    f,
    cone: ConeGrid,
    method: str | None = None,
) -> GridFunction:
    """S_{alpha,psi} f on f's lattice (alpha from the cone); a padded output
    is `square_function_multi`'s ``out_R``."""
    return square_function_multi(k, f, cone, [cone.alpha], method=method)[cone.alpha]


def square_function_at(k: KernelSpec, f, x, cone: ConeGrid) -> float:
    """Direct triple-sum evaluation of S f at one point (oracle path).

    Loops over stored cone points and input cells explicitly; independent
    of the window-sum/FFT machinery.  x has one finite coordinate per
    dimension (`ParameterError` otherwise).
    """
    fs = _operands(k, f, cone)
    base = fs[0]
    n = base.n
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise ParameterError(f"the point needs {n} coordinate(s), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ParameterError(f"the point must be finite, got {x.tolist()}")
    total = 0.0
    for j, t in enumerate(cone.t_levels):
        t = float(t)
        ys = x + cone.stencil(j).reshape(-1, n) * base.h  # (points, n)
        if len(fs) == 2:
            vals = np.array([_psi_t_bilinear_point(k, *fs, t, y) for y in ys[:, 0]])
        elif n == 1:
            Z = base.axis_centers()
            nz = np.flatnonzero(base.values)
            mat = k.two_point(ys / t, Z[nz][None, :] / t)
            vals = (mat @ base.values[nz]) * base.h / t
        else:
            vals = np.array([_psi_t_point(k, base, t, y) for y in ys])
        total += float(np.sum(vals**2)) * base.h**n / t**n * cone.log_weight
    return math.sqrt(total)


def _psi_t_point(k, f, t, y):
    Z = f.axis_centers()
    nz = np.nonzero(f.values)
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


def _gram_s_max(levels, n: int, N: int) -> int:
    """The Q side (cells) up to which the batched M_S takes the Gram form:
    of 0 and the sides s <= N/4, the one that minimises the modelled
    multiply-adds of one M_S call on the layout's dyadic pool (the cubes of
    side l = N, N/2, ... cells and their 3-dilates, (N/l)^n of each).  Per
    cube (3Q side a = 3s + 1): s^n a^{2n} in the Gram form; per level,
    2.5 P^n log2 P^n (an rfft / irfft pair of FFT side P) plus the window
    sums in the FFT path.  The table costs sum_j |D_j| (4 s_max)^{2n} once."""
    disc = sum(lv.size for lv in levels)

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


def _far_gain(gamma: np.ndarray) -> np.ndarray:
    """far[l] = max{gamma(v) : |v|_inf >= l} for l = 0, 1, ..., the offsets
    v (cells) centred in gamma's array: the max of each shell |v|_inf = l,
    then the running max from the outermost shell in."""
    shell = functools.reduce(np.maximum, np.ix_(*[np.abs(np.arange(m) - m // 2)
                                                  for m in gamma.shape]))
    far = np.zeros(shell.max() + 1)
    np.maximum.at(far, shell.ravel(), gamma.ravel())
    return np.maximum.accumulate(far[::-1])[::-1]


class SquareEvaluator:
    """Repeated S_alpha evaluations of masked variants of one grid layout,
    on its own lattice: the FFT fast path of a convolution kernel, only.

    Samples the per-level convolution kernels once (the expensive
    transcendental sampling) and keeps their spectra, in n = 1 and n = 2;
    each eval costs one forward FFT per distinct FFT size (`_fft_len` of
    the linear convolution) and one inverse FFT per level.  The constructor
    refuses any other kind of kernel (`ParameterError`), then reads the
    template through `_operands`, as square_function does: a cone or kernel
    of another spacing or dimension is a `GridError`.  `of` returns None
    for the other kernel kinds and for method "direct".

    The batched Lerner path (`_lerner_batched`) takes from it S f^2
    (`square_sum`), the level window sums (`cone_sum`), the Gram cutoff
    ``s_max`` (`_gram_s_max`) and Gram table (`gram_table`, built from one
    buffer of rows on first use) and the per-shape level block spectra
    (`lerner_plans`, built once per cube shape).  Levels, table and block
    spectra depend on the layout only and live as long as the evaluator;
    `of` keeps the evaluator of a layout on the kernel object.  The last
    S f^2 is held with a copy of its f, so M_S of the f whose S the caller
    has just taken reuses it.

    ``far_gain`` bounds S through the point-mass profile Gamma of S:
    Gamma(v)^2 = sum_j meas_j sum_{m in D_j} k_j(v + m)^2 is
    (S delta_y)^2 at an output cell x with x - y = v cells, taken by one
    `_window_sum` of k_j^2 per level over the level's own kernel samples,
    which hold every output-minus-input offset of the layout.  S is an l^2
    sum of linear functionals of g, so Minkowski's inequality gives
    S g(x) <= sum_y |g(y)| Gamma(x - y).  The evaluator keeps only
    far_gain[l] = max{Gamma(v) : |v|_inf >= l} (`_far_gain`): S g <=
    far_gain[0] sum |g| everywhere, and S g(x) <= sum_y |g(y)|
    far_gain[|x - y|_inf], which shrinks as the mass of g moves away from x.
    """

    def __init__(self, k, template: GridFunction, cone: ConeGrid):
        if k.kind != "convolution":
            raise ParameterError("the evaluator takes a convolution kernel")
        _operands(k, template, cone)
        self.k = k
        self.template = template
        n = template.n
        self.levels = _cone_levels(template, cone, cone.alpha)
        self._spectra = []
        gamma2 = 0.0
        for lv in self.levels:
            kern = _conv_kernel(k, template, lv.t, template.R + lv.K * template.h, lv.Mx)
            self._spectra.append(np.fft.rfftn(kern, (lv.nfft,) * n, axes=range(n)))
            gamma2 = gamma2 + lv.meas * _window_sum(kern**2, lv.rows)
        self.far_gain = _far_gain(np.sqrt(np.maximum(gamma2, 0.0)))
        self.s_max = _gram_s_max(self.levels, n, template.ncells)
        self._gram = None
        self._plans = {}
        self._held = None

    @classmethod
    def of(cls, k, template: GridFunction, cone: ConeGrid,
           method: str | None = None) -> SquareEvaluator | None:
        """The evaluator of this layout, or None off the fast path: the one
        held on k if it has the same cone values (alpha, n, h, log_weight,
        max_radius, t_levels) and template n, R and h, else a new one.  k
        holds one evaluator, the last one built here, so an equal cone built
        again finds it and no state outlives the kernel object."""
        if k.kind != "convolution" or _resolve_method(k, method) != "fft":
            return None
        key = (cone.alpha, cone.n, cone.h, cone.log_weight, cone.max_radius,
               np.asarray(cone.t_levels, dtype=float).tobytes(),
               template.n, template.R, template.h)
        ev = k._evaluator.get(key)
        if ev is None:
            ev = cls(k, template, cone)
            k._evaluator.clear()
            k._evaluator[key] = ev
        return ev

    def gram_table(self):
        """(A, lo, P): the level-summed Gram table of the M_S form, built on
        first use.  A[p, q] = sum_j meas_j sum_{m in D_j} k_j(m + p) k_j(m + q)
        over the offsets p, q in [lo, lo + P)^n (flat, C order), with
        lo = 1 - 2 s_max and P = 4 s_max; k_j(v) = Phi(v h / t_j) (h / t_j)^n
        and D_j is the window of `cone_sum`.

        The rows k_j(m + .) sqrt(meas_j), of every level j and offset m in
        D_j, fill one buffer of about `_LERNER_CHUNK` doubles; each full
        buffer adds buf^T buf to A."""
        if self._gram is None:
            n, h = self.template.n, self.template.h
            lo, P = 1 - 2 * self.s_max, 4 * self.s_max
            A = np.zeros((P**n, P**n))
            buf = np.empty((max(1, _LERNER_CHUNK // P**n), P**n))
            used = 0
            for lv in self.levels:
                K = lv.K
                # B[i] = k_j(i - K + lo) sqrt(meas_j) per axis, so that the
                # window of W at m + K holds the row of offset m
                e = np.arange(lo - K, lo + P + K) * h / lv.t
                B = self.k.profile(*np.ix_(*(e,) * n)) * ((h / lv.t) ** n * math.sqrt(lv.meas))
                W = np.lib.stride_tricks.sliding_window_view(B, (P,) * n)
                for rest, rx in lv.disc:
                    col = W[(slice(K - rx, K + rx + 1),) + tuple(K + d for d in rest)]
                    r0 = 0
                    while r0 < len(col):
                        rows = col[r0 : r0 + len(buf) - used]
                        buf[used : used + len(rows)].reshape(rows.shape)[...] = rows
                        used, r0 = used + len(rows), r0 + len(rows)
                        if used == len(buf):
                            A += buf.T @ buf
                            used = 0
            A += buf[:used].T @ buf[:used]
            self._gram = A, lo, P
        return self._gram

    def lerner_plans(self, keys) -> list:
        """Per shape key of `_lerner_batched` (as `_lerner_groups`), its
        level plan: the runs (P, [(j, spectrum, crop)]) of consecutive
        levels j of one FFT length P, per axis the power of two of
        a + s + 2 K_j - 1.  The spectrum is the n-D rfft at P of level j's
        profile block, sampled at the cell offsets d - a + 1 - K_j ..
        d + s - 1 + K_j from 3Q to Q +- K_j, and crop the slice of a
        batched irfft that holds Q +- K_j.

        Plans are built on first sight of a key and kept: the keys not seen
        before share one profile sample per level, on the union of their
        offset ranges, and each block is a slice of it."""
        new = [key for key in keys if key not in self._plans]
        if new:
            n, h = self.template.n, self.template.h
            arr = np.array(new)
            lo = (arr[..., 2] - arr[..., 0] + 1).min(axis=0)
            hi = (arr[..., 2] + arr[..., 1]).max(axis=0)
            runs = {key: [] for key in new}
            for j, lv in enumerate(self.levels):
                K = lv.K
                es = (np.arange(l - K, u + K) * h / lv.t for l, u in zip(lo, hi))
                prof = self.k.profile(*np.ix_(*es)) * (h / lv.t) ** n
                for key, plan in runs.items():
                    P = tuple(1 << (a + s + 2 * K - 2).bit_length() for a, s, _ in key)
                    block = prof[tuple(slice(d - a + 1 - l, d + s + 2 * K - l)
                                       for (a, s, d), l in zip(key, lo))]
                    crop = (slice(None),) + tuple(slice(a - 1, a + s + 2 * K - 1)
                                                  for a, s, _ in key)
                    entry = (j, np.fft.rfftn(block, P, axes=range(n)), crop)
                    if plan and plan[-1][0] == P:
                        plan[-1][1].append(entry)
                    else:
                        plan.append((P, [entry]))
            self._plans.update(runs)
        return [self._plans[key] for key in keys]

    def level_values(self, values: np.ndarray):
        """Yield (level, u) per cone level, u = psi_t of the grid function
        with these values on the output lattice padded by the level's K
        (`_level_values` on the cached kernel spectra)."""
        return _level_values(values, self.levels, self._spectra)

    def cone_sum(self, lv: _Level, p: np.ndarray) -> np.ndarray:
        """Level lv's share of S^2: its measure times the window sums of p
        (given on the padded lattice) at each output cell."""
        return lv.meas * _window_sum(p, lv.rows)

    def square_sum(self, values: np.ndarray) -> np.ndarray:
        """S_alpha^2 of the grid function with these values (fast path):
        the `cone_sum`s of the levels, added in level order, read-only.  The
        result is held with a copy of the values and returned again, not
        recomputed, for equal values.  Equal is `np.array_equal`, which
        takes -0.0 for 0.0; the two inputs give psi_t values that differ at
        most in the signs of zeros, so their S^2 are the same bits."""
        held = self._held
        if held is not None and np.array_equal(held[0], values):
            return held[1]
        acc = np.zeros((self.template.ncells,) * self.template.n)
        for lv, u in self.level_values(values):
            acc += self.cone_sum(lv, u**2)
        acc.setflags(write=False)
        self._held = (np.array(values, dtype=float), acc)
        return acc

    def eval_values(self, values: np.ndarray) -> np.ndarray:
        """S_alpha of the grid function with these values; returns values."""
        return np.sqrt(self.square_sum(values))


# ---------------------------------------------------------------------------
# g* and its cascade bound
# ---------------------------------------------------------------------------


def _check_lambda(k: KernelSpec, lam: float):
    least = 2.0 * k.m
    if not (math.isfinite(lam) and lam > least):
        raise ParameterError(
            f"lambda must be finite and exceed {least} for this kernel kind, got {lam}")


def g_star(
    k: KernelSpec,
    f,
    lam: float,
    halfspace: ConeGrid,
    method: str | None = None,
) -> GridFunction:
    """g*_lambda with weight (t/(t+|x-y|))^{n lambda} over the half-space,
    on f's lattice.

    ``halfspace`` should be built with `build_halfspace` so each level's
    stencil covers the lattice.  The levels are the half-space's
    `_cone_levels`, as for S: per level, psi_t f on f's lattice padded by
    K cells, then the weight sum over the offsets |m| <= K (in n = 2 also
    |m| h < the level's radius) with the level's measure, as a product of
    spectra of length `_fft_len(M + 2K)`.  The offset distances, the disc
    mask and that length are taken once per (K, radius); the products of
    levels with the same K are summed in frequency space and take one
    irfftn.  A single input on the FFT path reads `_level_values`, each
    level's kernel spectrum sampled when reached and then dropped, so
    nothing is kept on k; pairs and method "direct" take `_psi_levels`.
    """
    fs = _operands(k, f, halfspace)
    _check_lambda(k, lam)
    base = fs[0]
    n, h, M = base.n, base.h, base.ncells
    axes = tuple(range(n))
    levels = _cone_levels(base, halfspace, halfspace.alpha)
    if len(fs) == 1 and _resolve_method(k, method) == "fft":
        stream = _level_values(base.values, levels, _kernel_spectra(k, base, levels))
    else:
        stream = _psi_levels(k, fs, levels, base.R, method)
    geometry = {}  # (K, radius) -> (P, offset distances, outside the disc)
    specs = {}  # K -> (P, summed spectrum of the level weight sums)
    for lv, u in stream:
        t, K = lv.t, lv.K
        if (K, lv.radius) not in geometry:
            g1 = np.arange(-K, K + 1)
            if n == 1:
                dist = np.abs(g1) * h
            else:
                MX, MY = np.meshgrid(g1, g1, indexing="ij")
                dist = np.hypot(MX, MY) * h
            geometry[K, lv.radius] = ((_fft_len(M + 2 * K),) * n, dist,
                                      dist >= lv.radius if n == 2 else None)
        P, dist, outside = geometry[K, lv.radius]
        wgt = (t / (t + dist)) ** (n * lam)
        if outside is not None:
            wgt[outside] = 0.0
        term = lv.meas * np.fft.rfftn(u**2, P, axes=axes) * np.fft.rfftn(wgt, P, axes=axes)
        del u  # before the stream makes the next level's
        if K in specs:
            specs[K][1] += term
        else:
            specs[K] = [P, term]
    acc = np.zeros((M,) * n)
    for K, (P, spec) in specs.items():
        acc += np.fft.irfftn(spec, P, axes=axes)[(slice(2 * K, 2 * K + M),) * n]
    acc = np.maximum(acc, 0.0)
    return base.with_values(np.sqrt(acc))


# the apertures 2, 4, ..., 2^_CASCADE_TERMS of the cascade bound
_CASCADE_TERMS = 9


def g_star_cascade_bound(
    k: KernelSpec,
    f,
    lam: float,
    halfspace: ConeGrid,
    method: str | None = None,
):
    """The cascade sum_k 2^{-k lambda n / 2} S_{2^{k+1}} f on f's lattice,
    k = 0 .. `_CASCADE_TERMS` - 1.

    Apertures share the half-space's levels and stencil cap, so the bound
    g* <= cascade holds discretely (the ring at distance ~2^k t carries
    weight <= 2^{-k n lambda}).  Returns (cascade GridFunction, terms dict).
    The half-space must cap its stencils (`build_halfspace`): with an
    infinite ``max_radius`` the aperture 2^9 would pad each level by about
    2^9 t / h cells, so that is a `ParameterError`.
    """
    fs = _operands(k, f, halfspace)
    _check_lambda(k, lam)
    if not math.isfinite(halfspace.max_radius):
        raise ParameterError("cascade needs a capped half-space, see build_halfspace")
    alphas = [2.0 ** (i + 1) for i in range(_CASCADE_TERMS)]
    terms = square_function_multi(k, fs, halfspace, alphas, method=method)
    vals = sum(
        2.0 ** (-i * lam * fs[0].n / 2.0) * terms[a].values for i, a in enumerate(alphas)
    )
    return fs[0].with_values(vals), terms


# ---------------------------------------------------------------------------
# maximal operators
# ---------------------------------------------------------------------------


def _hull_chains(c: list) -> tuple:
    """Persistent hull chains of the points P_k = (k, c[k]), k = 0..N, by
    one monotone-chain stack pass each way: prv[k] is the vertex before k on
    the lower hull of P_0..P_k and nxt[k] the vertex after k on the upper
    hull of P_k..P_N (chain ends loop to themselves).  Collinear middle
    points are dropped, so every turn is strict."""
    N = len(c) - 1
    prv, nxt = [0] * (N + 1), [0] * (N + 1)
    for out, ks in ((prv, range(N + 1)), (nxt, range(N, -1, -1))):
        q = ks[0]  # the last vertex of the hull so far
        out[q] = q
        st = [q]
        for k in ks[1:]:
            ck, cq = c[k], c[q]
            # pop q while it is not strictly beyond the chord from the
            # vertex under it to P_k (below it for prv, above for nxt)
            while len(st) > 1:
                p = st[-2]
                if (cq - c[p]) * (k - q) < (ck - cq) * (q - p):
                    break
                st.pop()
                q, cq = p, c[p]
            out[k] = q
            st.append(k)
            q = k
    return np.array(prv), np.array(nxt)


def _tangent(c: np.ndarray, lifts: list, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Walk each chain from v while a step raises the slope of the segment
    to P_q; the vertex where the walk stops.  lifts[b] is the chain step
    taken 2^b times.  Along a hull chain seen from a point beyond its end,
    the raising steps come first, so the walk is a descent over the lifts.
    A step u -> w raises the slope iff (c_u - c_w)(q - u) > (c_q - c_u)(u - w),
    on either side of q; at a chain end w = u both sides are 0."""
    step, cq = lifts[0], c[q]

    def raises(u):
        w = step[u]
        cu = c[u]
        return (cu - c[w]) * (q - u) > (cq - cu) * (u - w)

    for up in reversed(lifts):
        u = up[v]
        v = np.where(raises(u), u, v)
    return np.where(raises(v), step[v], v)


def _hl_max_1d(a: np.ndarray) -> np.ndarray:
    """The 1-D Hardy-Littlewood maximal function of a >= 0 over grid cubes:
    out[x] = max over the windows [i, j) containing x of (c[j] - c[i]) /
    (j - i), c the cumulative sums of a; windows of one cell give a itself.

    That is the largest slope from a point P_i = (i, c[i]), i <= x, to a
    point P_j, j > x, reached as the bridge of `maximal`'s lemma between
    the lower chain of x and the upper chain of x + 1 (`_hull_chains`).
    From (x, x + 1), each round takes the best start for j, then the best
    end for that start (`_tangent`); a cell leaves once its round does not
    strictly raise the slope, since its pair is then a bridge.  Every
    comparison is by cross-multiplication.  A rounded product that compares
    greater implies the exact one, so each kept round strictly raises the
    exact ratio of the computed sums and the loop ends; no input tried took
    more than three raising rounds.
    """
    N = a.size
    c = np.concatenate([[0.0], np.cumsum(a)])
    prv, nxt = _hull_chains(c.tolist())
    lo, up = [prv], [nxt]
    for _ in range(N.bit_length() - 1):  # 2^bits - 1 >= N steps
        lo.append(lo[-1][lo[-1]])
        up.append(up[-1][up[-1]])
    x = np.arange(N)
    i, j = x.copy(), x + 1
    act = x  # the cells whose last round raised the slope
    while act.size:
        i2 = _tangent(c, lo, act, j[act])
        j2 = _tangent(c, up, act + 1, i2)
        ia, ja = i[act], j[act]
        better = (c[j2] - c[i2]) * (ja - ia) > (c[ja] - c[ia]) * (j2 - i2)
        act = act[better]
        i[act], j[act] = i2[better], j2[better]
    return np.maximum(a, (c[j] - c[i]) / (j - i))


def _window_max(m: np.ndarray, L: int, axis: int) -> np.ndarray:
    """The max over every window of L entries along ``axis``: entry i is
    the max of m[i : i + L], so that axis shrinks by L - 1.

    By doubling: the maxima over w entries give those over 2w as
    max(m[:-w], m[w:]); for w < L < 2w, two overlapping windows of w make
    one of L.  Max is exact, so each entry is the plain window max.
    """
    m = np.moveaxis(m, axis, 0)
    w = 1
    while 2 * w <= L:
        m = np.maximum(m[:-w], m[w:])
        w *= 2
    if w < L:
        m = np.maximum(m[: w - L], m[L - w :])
    return np.moveaxis(m, 0, axis)


def maximal(f: GridFunction, variant: str = "hl") -> GridFunction:
    """Hardy-Littlewood (grid cubes) or dyadic (anchored at 0) maximal of |f|.

    hl: sup over grid-aligned cubes containing x, sides h..2R.  In 1-D the
    exact max over all windows, `_hl_max_1d`: with c the prefix sums, the
    best window through x is the steepest segment from the lower hull of
    (i, c_i), i <= x, to the upper hull of (j, c_j), j > x.  Bridge lemma: a
    pair in which each end is the other's tangent point is that segment, as
    every prefix point lies on or above its line and every suffix point on
    or below.  Alternating pointer-doubling tangent searches along the two
    persistent hull chains reach such a pair for all x at once, O(N log N)
    per round.  In 2-D, per side L, the box means of one prefix table:
    cell x takes the max over the windows whose start lies within L - 1
    cells below it on each axis, a separable running max (`_window_max`)
    of the means padded with L - 1 cells of -inf on each side;
    dyadic: sup over the dyadic lattice anchored at coordinate 0, one
    generation at a time: the block means of a (2^g, N / 2^g)-per-axis
    reshape, repeated back onto the cells, in n = 1 and 2 alike.
    """
    a = np.abs(f.values)
    N = f.ncells
    if variant == "hl":
        if f.n == 1:
            out = _hl_max_1d(a)
        else:
            out = a.copy()  # L = 1 windows
            c = prefix_sums(a)
            for L in range(2, N + 1):
                m = box_sums(c, L) / (L * L)  # window starts 0 .. N - L per axis
                for ax in (1, 0):  # axis 0 last: its slices are whole rows
                    shape = list(m.shape)
                    shape[ax] = N + L - 1
                    pad = np.full(shape, -np.inf)
                    pad[(slice(None),) * ax + (slice(L - 1, N),)] = m
                    m = _window_max(pad, L, ax)
                out = np.maximum(out, m)
        return f.with_values(out)
    if variant == "dyadic":
        if N & (N - 1):
            raise GridError("dyadic maximal needs a power-of-two cell count")
        # generation g: blocks of N / 2^g cells aligned to index 0.  Single
        # cells are the last generation; a side-2R cube holds one block of
        # generation 1 and has its mean over 2^n, so it never raises the max
        out = a.copy()
        for g in range(1, N.bit_length() - 1):
            blk = N >> g
            means = a.reshape((2**g, blk) * f.n).mean(axis=tuple(range(1, 2 * f.n, 2)))
            for ax in range(f.n):
                means = means.repeat(blk, axis=ax)
            out = np.maximum(out, means)
        return f.with_values(out)
    raise ParameterError(f"unknown maximal variant {variant!r}")


# ---------------------------------------------------------------------------
# Lerner-type localized maximal operators
# ---------------------------------------------------------------------------


def _box_ranges(gf: GridFunction, boxes: Sequence[Box], snap_outward: bool = False,
                factor: float | None = None) -> tuple:
    """Per-axis (start, stop) index ranges of the cells each box selects, as
    (nb, n) arrays: `_corner_ranges` of the boxes' corners."""
    return _corner_ranges(gf, np.array([b.lo for b in boxes], dtype=float),
                          np.array([b.hi for b in boxes], dtype=float), snap_outward, factor)


def _corner_ranges(gf: GridFunction, lo: np.ndarray, hi: np.ndarray,
                   snap_outward: bool = False, factor: float | None = None) -> tuple:
    """Per-axis (start, stop) index ranges of the cells each box [lo, hi)
    selects, lo and hi (nb, n) arrays, as (nb, n) arrays; boxes are dilated
    first as `Box.dilate(factor)` when a factor is given, by the same float
    operations.

    A cell counts when its center lies in [lo, hi) or, with
    ``snap_outward`` (the convention for 3Q dilates), in
    [lo - h/2, hi + h/2): for a lattice-aligned box that is the cells inside
    plus the left neighbour.  Coordinates are taken in cell units and
    rounded to the lattice within 1e-9 (as `Cube.cell_range`), so one box
    shape selects the same number of cells wherever it sits; ranges are not
    clipped to the grid.
    """
    if factor is not None:  # the center -+ factor/2 times the axis-0 side
        c, half = 0.5 * (lo + hi), factor * 0.5 * (hi[:, :1] - lo[:, :1])
        lo, hi = c - half, c + half
    # cell i is selected for lo - pad <= i + 1/2 < hi + pad (cell units)
    pad = 0.5 if snap_outward else 0.0
    i0 = np.ceil((lo + gf.R) / gf.h - 0.5 - pad - 1e-9).astype(np.intp)
    i1 = np.ceil((hi + gf.R) / gf.h - 0.5 + pad - 1e-9).astype(np.intp)
    return i0, i1


def _box_mask(gf: GridFunction, box: Box, snap_outward: bool = False) -> np.ndarray:
    """Indicator of the grid cells `_box_ranges` selects for one box."""
    i0, i1 = _box_ranges(gf, [box], snap_outward)
    mask = np.zeros(gf.values.shape)
    mask[tuple(slice(max(a, 0), max(b, 0)) for a, b in zip(i0[0], i1[0]))] = 1.0
    return mask


def _lerner_groups(f: GridFunction, cube_pool: Sequence[Box], out: np.ndarray) -> dict:
    """The pool cubes of the batched paths, grouped by shape.

    Keys hold per axis (cells of 3Q, cells of Q, offset of Q in 3Q); values
    are the (nb, n) start cells of 3Q and of Q of the cubes of that shape.
    The ranges run past the grid, so one box shape has one key wherever it
    sits.  Cubes that select no grid cell are left out; where 3Q holds every
    nonzero cell of f, M_S is exactly 0 on Q, which is written into out
    here.
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


def _lerner_sup(out: np.ndarray, s_full2: np.ndarray, batches) -> None:
    """out = max(out, sqrt(|S f^2 - S(f 1_{3Q})^2|)) on Q within the grid for
    each cube of the batches (J, acc): J holds the (nb, n) start cells of Q,
    acc the (nb, cells of Q per axis) S(f 1_{3Q})^2 values."""
    N = out.shape[0]
    for J, acc in batches:
        nb, *s = acc.shape
        # per axis, the grid index of every entry of acc
        idx = [J[:, ax].reshape((nb,) + (1,) * len(s)) + local
               for ax, local in enumerate(np.indices(s))]
        keep = np.logical_and.reduce([(i >= 0) & (i < N) for i in idx])
        cells = tuple(i[keep] for i in idx)
        np.maximum.at(out, cells, np.sqrt(np.abs(s_full2[cells] - acc[keep])))


def _gram_takes(ev: SquareEvaluator, key) -> bool:
    """Whether a group of this shape key takes the Gram form: Q at most
    s_max cells per axis and every offset d + e - c inside the table."""
    lo, hi = 1 - 2 * ev.s_max, 2 * ev.s_max
    return all(s <= ev.s_max and d - a + 1 >= lo and d + s - 1 <= hi for a, s, d in key)


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


def _lerner_batched(ev: SquareEvaluator, f: GridFunction,
                    cube_pool: Sequence[Box]) -> np.ndarray:
    """M_S of a convolution kernel, each cube's S(f 1_{3Q})^2 evaluated on
    Q only.

    Cubes are grouped by their unclipped shape; f 1_{3Q} is read from a
    zero-padded f.  Groups that `_gram_takes` go to `_gram_form`.  For
    every other group, psi_t(f 1_{3Q}) on Q +- K_j is the linear
    convolution of the stacked 3Q windows with level j's profile block,
    sampled at the cell offsets from 3Q to Q +- K_j; `SquareEvaluator.cone_sum`
    then takes the window sums on Q.  The block spectra come from the
    evaluator's `lerner_plans`, which keeps them per shape key, so a shape
    seen by an earlier call on the layout costs no profile sample and no
    block transform.  The loops run group -> FFT length P -> chunk of
    cubes -> level: per run of consecutive levels of one P and chunk, one
    batched n-D rfft of the windows and one irfft per level, and each
    cube's terms are added in level order.  S f^2 comes from
    `SquareEvaluator.square_sum`; cells outside the grid are dropped.
    """
    n, N = f.n, f.ncells
    out = np.full((N,) * n, -np.inf)
    groups = _lerner_groups(f, cube_pool, out)
    if not groups:
        return out
    # a zero pad that holds every 3Q window of f
    pf = 0
    for key, (I, _) in groups.items():
        a = np.array(key)[:, 0]
        pf = max(pf, -I.min(), (I + a).max() - N)
    fp = np.pad(f.values, pf)
    levelled = {key: I for key, (I, _) in groups.items() if not _gram_takes(ev, key)}
    accs = {key: np.zeros((len(I),) + tuple(s for _, s, _ in key)) if key in levelled
            else _gram_form(ev, key, fp, I + pf) for key, (I, _) in groups.items()}
    axes = tuple(range(1, n + 1))
    for (key, I), plan in zip(levelled.items(), ev.lerner_plans(list(levelled))):
        fw = np.lib.stride_tricks.sliding_window_view(fp, tuple(a for a, _, _ in key))
        for P, run in plan:
            step = max(1, _LERNER_CHUNK // math.prod(P))
            for b0 in range(0, len(I), step):
                wf = np.fft.rfftn(fw[tuple((I[b0 : b0 + step] + pf).T)], P, axes=axes)
                for j, kf, crop in run:
                    U = np.fft.irfftn(wf * kf, P, axes=axes)[crop]
                    accs[key][b0 : b0 + step] += ev.cone_sum(ev.levels[j], U**2)
    _lerner_sup(out, ev.square_sum(f.values),
                [(J, accs[key]) for key, (_, J) in groups.items()])
    return out


def lerner_maximal(
    k: KernelSpec,
    f,
    cone: ConeGrid,
    variant: str,
    cube_pool: Sequence[Box],
    method: str | None = None,
    domain: Box | None = None,
) -> GridFunction:
    """M_S f(x): the sup over the pool cubes Q containing x of
    sqrt(|S f(x)^2 - S(f 1_{3Q})(x)^2|).

    ``variant`` must be "M_S", the one localized operator, else
    `ParameterError`.  The pool approximates the sup over all cubes;
    callers should record the pool kind alongside results.  Every cell of
    ``domain`` (default: f's own box) must lie in some pool cube, else
    `CoverageError`; the output is zero outside it.  A linear convolution
    kernel with method "auto" takes the batched path
    (`_lerner_batched`), in n = 1 and n = 2, through the evaluator
    `SquareEvaluator.of` keeps on k, so that repeated calls on one layout
    share its kernel spectra, Gram table and block spectra.  Anything else
    takes `_lerner_pool_loop`, one S per pool cube.
    """
    fs = _operands(k, f, cone)
    if variant != "M_S":
        raise ParameterError(f"unknown variant {variant!r}; M_S is the one localized operator")
    if not cube_pool:
        raise CoverageError("empty cube pool")
    base = fs[0]
    ev = SquareEvaluator.of(k, base, cone, method=method)
    out = (_lerner_batched(ev, base, cube_pool) if ev is not None
           else _lerner_pool_loop(k, fs, cone, cube_pool, method))
    dom = _box_mask(base, base.box() if domain is None else domain).astype(bool)
    uncovered = np.argwhere(dom & (out == -np.inf))
    if uncovered.size:
        raise CoverageError(
            f"{uncovered.shape[0]} domain cells covered by no pool cube, "
            f"first at index {tuple(uncovered[0])}"
        )
    out[~dom] = 0.0
    return base.with_values(out)


def _lerner_pool_loop(k, f, cone, cube_pool, method) -> np.ndarray:
    """M_S with one `square_function` call per pool cube, for a single
    input and a pair alike: the oracle of `_lerner_batched`."""
    fs = _operands(k, f, cone)

    def s_of(values):
        masked = tuple(g.with_values(v) for g, v in zip(fs, values))
        return square_function(k, masked, cone, method=method).values

    s_full2 = s_of([g.values for g in fs]) ** 2
    out = np.full(fs[0].values.shape, -np.inf)
    for q in cube_pool:
        mask3 = _box_mask(fs[0], q.dilate(3.0), snap_outward=True)
        val = np.sqrt(np.abs(s_full2 - s_of([g.values * mask3 for g in fs]) ** 2))
        sel = _box_mask(fs[0], q).astype(bool)
        out[sel] = np.maximum(out[sel], val[sel])
    return out


# ---------------------------------------------------------------------------
# Marcinkiewicz function
# ---------------------------------------------------------------------------


def marcinkiewicz_fw(
    w: ModulusOfContinuity,
    cubes: Sequence[tuple],
    grid: GridFunction,
) -> GridFunction:
    """Generalized Marcinkiewicz function of disjoint weighted cubes on the
    cell centers of ``grid``.

    ``cubes`` is a sequence of (center, half_side, weight) with weight >= 0;
    the value at x is sum_k weight_k M1_{Q(c_k, r_k)}(x) w(r_k/(r_k+|x-c_k|)).
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
    pts = grid.centers().reshape(-1, grid.n)
    total = np.zeros(pts.shape[:-1])
    for c, r, lam in parsed:
        if lam == 0.0:
            continue
        d = np.abs(pts - c) / r
        env = unit_cube_maximal(*d.T)
        dist = np.linalg.norm(pts - c, axis=-1)
        total += lam * env * w(r / (r + dist))
    return grid.with_values(total.reshape(grid.values.shape))

