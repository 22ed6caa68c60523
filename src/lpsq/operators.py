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
kernel, and a cone of another spacing or dimension than the grid.  Boxes
(the pool and domain of `lerner_maximal`) are corner arrays, (nb, 2, n)
and (2, n), and pass the one box rule, `grids.cell_ranges`, which gates
them the same way.

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
compares the two), and any other method is a `ParameterError`.  The linear
FFT paths sample the profile through one lattice sampler,
`_profile_sample`, at the offsets j h / t, j = -c .. c per axis, and
`_place` scales that sample into a block: a kernel that declares its
parity (`KernelSpec.parity`) is evaluated on the quadrant j >= 0 once,
scaled into the output array and mirrored there with its signs
(`_mirror`, in place), so an ``ex`` kernel costs half the profile points
in 1-D and a quarter in 2-D.  `_conv_kernel` (psi_t, S, g*) takes the
block, by `_profile_block`, in the leading corner of its level's
zero-padded (nfft,)^n FFT buffer, which rfftn transforms as it is: per
level one sample, and no mirrored, scaled or padded copy.  The
`SquareEvaluator` keeps each level's sample, so its FFT buffers, the Gram
table and the Lerner block spectra are all placed from one sample per
level.
The oracles (method "direct", `square_function_at`) sample the profile
pointwise and never mirror.  Every
full-grid linear convolution (psi_t, the cone levels, g*'s weight sum) is
a circular convolution by numpy's rfftn / irfftn of one length rule,
`_fft_len`: the least 2^a 3^b 5^c that holds it.  A single input's cone
levels on a convolution kernel are one stream, `_level_values`: one rfftn
of the input per distinct length, held one at a time, and one irfftn per
level.  The `SquareEvaluator` and one-shot g* read it; one-shot S still takes one
`psi_t_apply` per level (`_psi_levels`), as perfbench's span table counts
one psi_t call per level of `square_function`.  Two paths
keep powers of two: the Lerner local-window blocks, whose lengths the
Lerner path choice models (`SquareEvaluator._fft_cost`), and the
bilinear diagonal sums, whose input
spectra serve every level of one length, and powers of two leave the
levels fewer distinct lengths.
Nothing here calls scipy.  perfbench's span table pins
``scipy.signal.fftconvolve`` and reports a module the program never
imported as absent, so `scipy.signal` is registered in ``sys.modules``
through `importlib.util.LazyLoader`: finding its spec imports only the
top-level `scipy` package, and the module's own code runs when one of its
attributes is first read, which no lpsq code does.
`SquareEvaluator` is the FFT fast path of S on one layout (a convolution
kernel, method "auto"): its per-level profile samples and kernel spectra in
n = 1 and n = 2 and, once used, its Gram table and the Lerner block spectra
of every cube shape it has seen.  `SquareEvaluator.of` keeps the evaluator
of the last layout on the kernel object (no state is process-global), or
returns None off the fast path; `lerner_maximal` and `sparse_construct`
take theirs from it, so a layout's kernels are sampled and transformed once
per kernel object.

g* sums, per level, the weight times |psi_t f|^2 over the offsets as a
product of spectra, its offset geometry taken once per (K, radius) and its
weight, even in each axis, on one quadrant of the offsets, mirrored in its
own zero-padded FFT buffer; levels of one pad K share one irfftn.  It
streams each level's kernel spectrum (`_kernel_spectra`) and drops it,
where `SquareEvaluator.of` would keep them all on the kernel for a layout
used once.  The 1-D Hardy-Littlewood maximal function is the exact max
over all windows, found as the bridge between two persistent hull chains
of the prefix sums in O(N log N) (`_hl_max_1d`); the 2-D one takes, per
window side, a separable running max of the box means by doubling
(`_window_max`).

A bilinear kernel with profile Phi(x - y1, x - y2) on a pair (f1, f2) in
1-D: psi_t is the sum over the input offsets d = a - b of the convolutions
of the kernel diagonals Phi_d with g_d[a] = f1[a] f2[a - d], summed in
frequency space; the g_d spectra are taken once per FFT length and chunk of
|d| for all cone levels (`_psi_t_bilinear_fft`).  A kernel that declares
its parity samples the rows Phi(j h / t, (j + |d|) h / t) once per chunk
and level and reads row -d as the reflection of row +d (`_pair_rows`), so
on a support that spans the box it samples about half the points of both
rows.  The per-output-cell direct sum `_psi_t_bilinear` is its oracle.

`lerner_maximal` computes M_S f(x), the sup over the pool cubes Q
containing x of |S f^2 - S(f 1_{3Q})^2|^{1/2}.  The cells of every Q and
3Q are taken once from its corner array (`pool_cells`), and both paths
read them.  On a linear convolution kernel with method "auto" the batched
pass, `SquareEvaluator.lerner_values`, evaluates every pool cube's
S(f 1_{3Q}) only on Q, cubes grouped by their cell shape, in n = 1 and
n = 2 alike, against the S f^2 its caller passes.  `sparse_construct`
hands it the cells its pruning took and S f'^2 on the node, which it takes
first, from the same engine below the root
(`SquareEvaluator.box_square_sum`, one group of one cube).
Groups of cubes that the level-summed Gram table on the `SquareEvaluator`
covers take one quadratic form in f on 3Q per cube; each call chooses,
from its own groups, whether the table grows to cover more
(`SquareEvaluator._gram_choice`).  The other groups
cost, per FFT length and chunk of cubes, one batched n-D rfft of the
stacked 3Q windows, shared by the levels of that length, and per level one
irfft (output on Q +- K_j) and window sums.
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
from .grids import (
    ConeGrid, GridFunction, box_sums, cell_ranges, prefix_sums, shape_groups,
)
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
# the Gram table, the bilinear FFT's rows of d and its one profile sample
# per chunk of |d| and level) hold at most about this many doubles
_LERNER_CHUNK = 1 << 14
# the least rows of one Gram table panel (`_Panels`), and the most
# columns of one product of the table's Delta: builds time the same at
# 128 as at 256 or less (2-D N = 128 side 8: 0.44 against 0.48 s, one
# CPU) and hold half the temporaries
_GRAM_PANEL = 128
# the two constants of the Lerner path model (`SquareEvaluator._gram_choice`),
# in BLAS multiply-adds: one numpy call, and one FFT flop (a transform of P
# points is 2.5 P log2 P of them).  Fitted by nonnegative least squares of
# the relative error to 131 timed pieces: the FFT-path and Gram-form groups
# of 6 sparse-1d and 6 sparse-2d calls and of the first 1-D N = 4096 and
# 2-D N = 64 ladder calls, and 19 tables of sides 1-48; one CPU of a
# 2-vCPU host, Python 3.11.7, numpy 2.4.6.  A multiply-add read 0.050 ns,
# a call 4.6 us (93,000) and an FFT flop 0.24 ns (4.9).  With the rounded
# constants below the modelled over measured time has quartiles 0.64 /
# 0.84 / 1.10, and lies in 0.16-2.3 for every piece.
_CALL = 90000.0
_FFT_FLOP = 5.0


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


def _mirror(out: np.ndarray, c: int, signs) -> np.ndarray:
    """Fill the leading (2c+1)^n corner of out, the offsets -c .. c per
    axis, from its quadrant of offsets 0 .. c, in place, with one sign per
    axis: the value at an offset with coordinate i negated is signs[i]
    times the value at the offset.  The last axis goes first, while the
    block is a quadrant high, so the reversed copies within rows cover half
    the block and the others move whole rows; nothing is allocated."""
    n = out.ndim
    for ax in reversed(range(n)):
        # the axes after ax are full, those before it still hold 0 .. c
        head, tail = (slice(c, 2 * c + 1),) * ax, (slice(2 * c + 1),) * (n - 1 - ax)
        dst = out[head + (slice(c),) + tail]
        src = out[head + (slice(2 * c, c, -1),) + tail]
        if signs[ax] < 0:
            np.negative(src, out=dst)
        else:
            dst[...] = src
    return out


def _profile_sample(k, c: int, h: float, t: float) -> np.ndarray:
    """k.profile, unscaled, at the offsets j h / t per axis: the one lattice
    sampler of the linear FFT paths.  j runs over the quadrant 0 .. c for a
    kernel with a declared parity, which `_place` mirrors, and over the
    whole block -c .. c for any other."""
    e = np.arange(-c if k.parity is None else 0, c + 1) * h / t
    return k.profile(*np.ix_(*(e,) * k.n))


def _place(sample: np.ndarray, parity, c: int, scale: float = 1.0,
           size: int | None = None) -> np.ndarray:
    """scale times the block of offsets -c .. c per axis of a
    `_profile_sample` of half-width at least c, in the leading (2c+1)^n
    corner of a (size,)^n array, zero elsewhere (size 2c + 1 by default),
    so an FFT buffer is filled in place.  A quadrant sample is cut to
    0 .. c, scaled into the buffer and mirrored there (`_mirror`); a whole
    one is cut to its middle -c .. c.  Cutting a wider sample of the same
    offsets gives the same bits."""
    n, w = sample.ndim, 2 * c + 1
    size = w if size is None else size
    out = (np.empty if size == w else np.zeros)((size,) * n)
    if parity is None:
        mid = sample.shape[0] // 2
        np.multiply(sample[(slice(mid - c, mid + c + 1),) * n], scale,
                    out=out[(slice(w),) * n])
        return out
    np.multiply(sample[(slice(c + 1),) * n], scale, out=out[(slice(c, w),) * n])
    return _mirror(out, c, parity)


def _profile_block(k, c: int, h: float, t: float, scale: float = 1.0,
                   size: int | None = None) -> np.ndarray:
    """scale times k.profile at the offsets j h / t, j = -c .. c per axis,
    in the leading corner of a (size,)^n buffer: `_place` of a fresh
    `_profile_sample`, the one-shot paths' block."""
    return _place(_profile_sample(k, c, h, t), k.parity, c, scale, size)


def _conv_kernel(k, f: GridFunction, t: float, M: int, size: int | None = None) -> np.ndarray:
    """Profile samples times (h/t)^n at the cell offsets from the N input
    cells of f to the M-cell output lattice centred on f's box (M - N even):
    -c .. c per axis with c = N - 1 + (M - N) / 2, by `_profile_block`.
    Given the FFT length ``size``, the block comes zero-padded to
    (size,)^n, the buffer that rfftn transforms as it is."""
    return _profile_block(k, f.ncells - 1 + (M - f.ncells) // 2, f.h, t,
                          (f.h / t) ** f.n, size)


def _psi_t_conv_fft(k, f, t, out_R):
    """psi_t of a convolution kernel: the linear convolution of f with
    `_conv_kernel`, as one circular convolution of length `_fft_len`."""
    R_out, M, _ = _out_centers(f, out_R)
    N, n = f.ncells, f.n
    P, axes = (_fft_len(M + N - 1),) * n, tuple(range(n))
    spec = (np.fft.rfftn(f.values, P, axes=axes)
            * np.fft.rfftn(_conv_kernel(k, f, t, M, P[0]), P, axes=axes))
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


def _pair_rows(k, plus, minus, lo: int, hi: int, h: float, t: float) -> np.ndarray:
    """The profile rows Phi(j h / t, (j + d) h / t), j = lo .. hi, of one
    chunk of `_psi_t_bilinear_fft`: the offsets d = +D for D in plus, then
    d = -D for D in minus.

    A kernel that declares a parity samples each |d| once, at the columns j
    of the hull of those its signs need: since Phi(-u, -v) = sigma Phi(u, v),
    sigma the product of the parity, row -D at j is sigma times row +D at
    -j, a reversed slice of the sample.  Any other kernel samples the rows
    as they are, in the same order, so the two agree to the bit."""
    if k.parity is None:
        j = np.arange(lo, hi + 1)
        return k.profile(j * h / t, (j + np.concatenate([plus, -minus])[:, None]) * h / t)
    D = plus if plus.size else minus
    cols = [(lo, hi)] * bool(plus.size) + [(-hi, -lo)] * bool(minus.size)
    u0 = min(c0 for c0, _ in cols)
    j = np.arange(u0, max(c1 for _, c1 in cols) + 1)
    sample = k.profile(j * h / t, (j + D[:, None]) * h / t)
    out = np.empty((plus.size + minus.size, hi - lo + 1))
    if plus.size:
        out[: plus.size] = sample[:, lo - u0 : hi - u0 + 1]
    if minus.size:  # the rows of minus are the last ones of D
        np.multiply(sample[D.size - minus.size :, -hi - u0 : -lo - u0 + 1][:, ::-1],
                    math.prod(k.parity), out=out[plus.size :])
    return out


def _offset_groups(f1, f2, A0: int, L: int) -> list:
    """The input offsets d = a - b at which some a in [A0, A0 + L) and b pair
    a nonzero of f1 with one of f2, as groups (s, D) of |d|, D sorted: s = 3
    holds the D whose +D and -D both pair, s = 2 those where only +D does
    and s = 1 those where only -D does.  d = 0 reads as either sign, so it
    joins a one-sign group if there is one, else the two-sign group when the
    columns of +D and -D coincide (`_pair_rows`), else it stands alone."""
    N = f1.ncells
    # pairs[i]: whether the offset A0 - N + 1 + i pairs two nonzeros
    pairs = np.convolve(f1.values[A0 : A0 + L] != 0, f2.values[::-1] != 0)

    def pairing(d):
        i = d + N - 1 - A0
        return (i >= 0) & (i < pairs.size) & pairs[np.clip(i, 0, pairs.size - 1)]

    D = np.arange(max(N - 1 - A0, A0 + L - 1) + 1)
    signs = 2 * pairing(D) + (pairing(-D) & (D > 0))  # 2: +D pairs, 1: -D pairs
    if signs[0]:
        # the columns of +D and -D coincide iff the support is centred
        taken = set(signs[1:].tolist())
        signs[0] = 2 if 2 in taken else 1 if 1 in taken else 3 if N - L == 2 * A0 else 2
    return [(s, D[signs == s]) for s in (3, 2, 1) if np.any(signs == s)]


def _psi_t_bilinear_fft(k, f1, f2, levels) -> list:
    """psi_t(f1, f2) at each (t, out_R) of levels, as a sum over the input
    offsets d = a - b of the 1-D convolutions Phi_d * g_d.

    Input cells a run over the hull [A0, A0 + L) of supp f1;
    g_d[a] = f1[a] f2[a - d], and Phi_d at x_i - z_a = j h is
    Phi(j h / t, (j + d) h / t).  The offsets with g_d not zero go in groups
    by the signs of d they take (`_offset_groups`) and, within a group, in
    chunks of |d| of at most `_LERNER_CHUNK` doubles of rows at FFT length
    P.  The g_d spectra of a chunk serve every level of length P; per level
    the chunk's rows are sampled once (`_pair_rows`) and take one rfft, and
    each level takes one irfft in the end.
    """
    N, h = f1.ncells, f1.h
    outs = [_out_centers(f1, out_R)[:2] for _, out_R in levels]
    nz1 = np.flatnonzero(f1.values)
    if nz1.size == 0 or not np.any(f2.values):
        return [GridFunction(1, R_out, h, np.zeros(M)) for R_out, M in outs]
    A0, L = int(nz1[0]), int(nz1[-1] + 1 - nz1[0])
    a = np.arange(A0, A0 + L)
    groups = _offset_groups(f1, f2, A0, L)
    sizes = [1 << (L + M - 2).bit_length() for _, M in outs]
    accs = [np.zeros(P // 2 + 1, dtype=complex) for P in sizes]
    for P in sorted(set(sizes)):
        mine = [j for j, Pj in enumerate(sizes) if Pj == P]
        step = max(1, _LERNER_CHUNK // P)  # rows of d per chunk
        for s, Ds in groups:
            per = max(1, step // (1 + (s == 3)))  # |d| per chunk
            for r0 in range(0, Ds.size, per):
                Dc = Ds[r0 : r0 + per]
                # the rows +D, then -D (d = 0 once)
                cp = Dc if s & 2 else Dc[:0]
                cm = (Dc[Dc > 0] if s & 2 else Dc) if s & 1 else Dc[:0]
                d = np.concatenate([cp, -cm])[:, None]
                b = a - d
                g = np.where((b >= 0) & (b < N), f2.values[np.clip(b, 0, N - 1)], 0.0)
                g *= f1.values[a]
                gf = np.fft.rfft(g, P)
                for lv in mine:
                    t, M = levels[lv][0], outs[lv][1]
                    pad = (M - N) // 2  # x_i - z_a = j h at the column j + L - 1 + A0 + pad
                    phi = _pair_rows(k, cp, cm, -(L - 1 + A0 + pad), N - 1 - A0 + pad, h, t)
                    accs[lv] += np.sum(np.fft.rfft(phi, P) * gf, axis=0)
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
    cells, by one irfftn per level.  ``spectra`` yields each level's kernel
    spectrum (`_kernel_spectra`): the evaluator passes its cached list, g*
    a stream.

    One input spectrum is held, that of the last nfft: `build_cone` gives
    the levels in ascending t, so nfft never decreases and each distinct
    nfft takes one rfftn of the values.  Any other level order is served
    as well, at one more rfftn per change of nfft."""
    n, N = values.ndim, values.shape[0]
    axes = range(n)
    spectra = iter(spectra)
    held = (None, None)  # (nfft, input spectrum)
    for lv in levels:
        if held[0] != lv.nfft:
            held = None  # the old spectrum goes before the new one is made
            held = lv.nfft, np.fft.rfftn(values, (lv.nfft,) * n, axes=axes)
        kf = next(spectra)
        conv = np.fft.irfftn(held[1] * kf, (lv.nfft,) * n, axes=axes)
        # no name holds a level's spectrum or transform past its use, so a
        # stream of spectra keeps one level's at a time
        del kf
        yield lv, conv[(slice(N - 1, N - 1 + lv.Mx),) * n]
        del conv


def _kernel_spectra(k, template: GridFunction, levels: list):
    """Yield each level's kernel spectrum for `_level_values`: the rfftn at
    lv.nfft of its `_conv_kernel`, sampled when the stream reaches the
    level; the `SquareEvaluator`'s spectra, without keeping them."""
    for lv in levels:
        yield np.fft.rfftn(_conv_kernel(k, template, lv.t, lv.Mx, lv.nfft),
                           (lv.nfft,) * template.n, axes=range(template.n))


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


def _far_gain(gamma: np.ndarray) -> np.ndarray:
    """far[l] = max{gamma(v) : |v|_inf >= l} for l = 0, 1, ..., the offsets
    v (cells) centred in gamma's array: the max of each shell |v|_inf = l,
    then the running max from the outermost shell in."""
    shell = functools.reduce(np.maximum, np.ix_(*[np.abs(np.arange(m) - m // 2)
                                                  for m in gamma.shape]))
    far = np.zeros(shell.max() + 1)
    np.maximum.at(far, shell.ravel(), gamma.ravel())
    return np.maximum.accumulate(far[::-1])[::-1]


class _Panels:
    """Rows of ``width`` entries stacked into one reused panel of
    max(`_GRAM_PANEL`, `_LERNER_CHUNK` // width) rows, each with a sign:
    ``add`` copies a block of rows in, and each full panel, and at
    ``close`` the part-full last one, goes to ``take(rows, signs)`` before
    the panel is filled again."""

    def __init__(self, width: int, take):
        self.buf = np.empty((max(_GRAM_PANEL, _LERNER_CHUNK // width), width))
        self.signs = np.empty(len(self.buf))
        self.used, self.take = 0, take

    def add(self, block: np.ndarray, sign: float = 1.0) -> None:
        r0 = 0
        while r0 < len(block):
            rows = block[r0 : r0 + len(self.buf) - self.used]
            self.buf[self.used : self.used + len(rows)].reshape(rows.shape)[...] = rows
            self.signs[self.used : self.used + len(rows)] = sign
            self.used, r0 = self.used + len(rows), r0 + len(rows)
            if self.used == len(self.buf):
                self.close()

    def close(self) -> None:
        if self.used:
            self.take(self.buf[: self.used], self.signs[: self.used])
            self.used = 0


class SquareEvaluator:
    """Repeated S_alpha evaluations of masked variants of one grid layout,
    on its own lattice: the FFT fast path of a convolution kernel, only.

    Samples the per-level convolution kernels once (the expensive
    transcendental sampling, `_profile_sample` at the offsets of
    `_conv_kernel`: one quadrant per level for a kernel that declares its
    parity, the whole block otherwise) and keeps, in n = 1 and n = 2, each
    level's unscaled sample and the spectrum of its zero-padded FFT
    buffer, placed and mirrored from that sample (`_place`); each eval
    costs one forward FFT per distinct FFT size (`_fft_len` of the linear
    convolution) and one inverse FFT per level.  Every other block the
    evaluator uses, its Gram table rows and its Lerner block spectra, is
    placed from a slice of the same samples (`_block`), so after the
    constructor no call on the layout samples the profile again; a level's
    sample is taken anew, wider, only for offsets past it, which a user
    pool of `lerner_maximal` with cubes above half the grid's side can ask
    for.  Slices of one sample are the bits of a sample of their own.  The
    constructor refuses any other kind of kernel (`ParameterError`), then
    reads the template through `_operands`, as square_function does: a cone
    or kernel of another spacing or dimension is a `GridError`.  `of` returns None
    for the other kernel kinds and for method "direct".

    S(f 1_{3Q})^2 on Q has one engine, `_box_sums`, over groups of cubes of
    one shape: the batched M_S pass (`lerner_values`, over the pool cubes'
    cells) compares its values with the S f^2 its caller passes, and
    `box_square_sum` runs it on one box's group.  It reads the level window
    sums (`cone_sum`), the Gram table (`gram_table`, exact sums on one face
    of the table and two boundary terms per disc row for the rest) and the
    per-shape level block spectra (`lerner_plans`, built once per cube
    shape).  Each call picks its path per group of one cube shape: a group
    whose least table side (`_gram_side`) the held table covers takes the
    Gram form, and the table grows, built anew at a larger side, only when
    this call's modelled saving on the groups it would add pays for the new
    table (`_gram_choice`, which reads `_table_cost`, `_fft_cost` and
    `_gram_cost`); the other groups take the FFT path.  The held table never
    shrinks, so after a full-pool call the pruned pools of
    `dyadic.sparse_construct` find their small cubes covered.  Levels, table
    and block spectra depend on the layout only and live as long as the
    evaluator; `of` keeps the evaluator of a layout on the kernel object, so
    the table side that serves a group, and with it the last bits of M_S,
    depends on the calls made before on that kernel.  No state of the
    evaluator depends on an input f.

    ``far_gain`` bounds S through the point-mass profile Gamma of S:
    Gamma(v)^2 = sum_j meas_j sum_{m in D_j} k_j(v + m)^2 is
    (S delta_y)^2 at an output cell x with x - y = v cells, taken by one
    `_window_sum` of k_j^2 per level over the level's own kernel samples
    (the block in the corner of its FFT buffer), which hold every
    output-minus-input offset of the layout.  S is an l^2
    sum of linear functionals of g, so Minkowski's inequality gives
    S g(x) <= sum_y |g(y)| Gamma(x - y).  The evaluator keeps only
    far_gain[l] = max{Gamma(v) : |v|_inf >= l} (`_far_gain`): S g <=
    far_gain[0] sum |g| everywhere, and S g(x) <= sum_y |g(y)|
    far_gain[|x - y|_inf], which shrinks as the mass of g moves away from x.
    `far_field` takes that bound for the mass outside 3B on B's cells, the
    term the sparse pruning of `dyadic.sparse_construct` reads.
    """

    def __init__(self, k, template: GridFunction, cone: ConeGrid):
        if k.kind != "convolution":
            raise ParameterError("the evaluator takes a convolution kernel")
        _operands(k, template, cone)
        self.k = k
        self.template = template
        n = template.n
        self.levels = _cone_levels(template, cone, cone.alpha)
        # per level the unscaled `_profile_sample` that every block is cut from
        self._samples, self._spectra = [None] * len(self.levels), []
        gamma2 = 0.0
        for j, lv in enumerate(self.levels):
            # the block of `_conv_kernel`, in its zero-padded FFT buffer
            buf = self._block(j, template.ncells - 1 + lv.K, (template.h / lv.t) ** n, lv.nfft)
            self._spectra.append(np.fft.rfftn(buf, (lv.nfft,) * n, axes=range(n)))
            # the block is the buffer's leading (Mx + N - 1)^n corner
            kern = buf[(slice(lv.Mx + template.ncells - 1),) * n]
            gamma2 = gamma2 + lv.meas * _window_sum(kern**2, lv.rows)
        self.far_gain = _far_gain(np.sqrt(np.maximum(gamma2, 0.0)))
        self._gram = None
        self._plans = {}
        self._fft_model = {}

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

    def _block(self, j: int, c: int, scale: float, size: int | None = None) -> np.ndarray:
        """Level j's profile block of offsets -c .. c per axis, times scale,
        in the leading corner of a (size,)^n buffer: `_place` of the level's
        kept `_profile_sample`.  The sample is taken anew, wider, only when
        it holds less than c, which no block of the evaluator's own layout
        asks for."""
        held = self._samples[j]
        if held is None or (held.shape[0] // 2 if self.k.parity is None
                            else held.shape[0] - 1) < c:
            held = self._samples[j] = _profile_sample(self.k, c, self.template.h,
                                                      self.levels[j].t)
        return _place(held, self.k.parity, c, scale, size)

    def gram_side(self) -> int:
        """The side of the Gram table held, 0 before the first is built."""
        return 0 if self._gram is None else self._gram[2] // 4

    def gram_table(self, side: int):
        """(A, lo, P): the level-summed Gram table of the M_S form, of at
        least this side.  A[p, q] = sum_j meas_j sum_{m in D_j} k_j(m + p)
        k_j(m + q) over the offsets p, q in [lo, lo + P)^n (flat, C order),
        with lo = 1 - 2 m and P = 4 m for a table of side m; k_j(v) =
        Phi(v h / t_j) (h / t_j)^n and D_j is the window of `cone_sum`.
        A held table of a smaller side is dropped and the table built anew
        at this side; a larger one is returned as it is.

        Built by the shift identity along axis 0, the axis of the disc
        rows: moving p and q together by one cell e_0 moves each row of D_j
        by one cell, so A[p + e_0, q + e_0] = A[p, q] + Delta[p, q] with
        Delta[p, q] = sum_j meas_j sum_rows (k_j(r+ + p) k_j(r+ + q) -
        k_j(r- + p) k_j(r- + q)), r+ = (rx + 1, d) and r- = (-rx, d) the
        cells that enter and leave the row (d, rx) of D_j.  The rows
        sqrt(meas_j) k_j(m + .) are windows of level j's block of offsets
        1 - 2 m - K_j .. 2 m + K_j (`_block`, placed from the constructor's
        sample, which holds them for every side m < N / 2).  Three steps:
          - the face p_0 = lo, exactly: in 1-D one `np.correlate` per
            level; in 2-D the window rows stacked in `_Panels`, and each
            panel's P^{n-1} columns of p_0 = lo times the panel;
          - Delta as U^T (s U) over the panels of end rows U with signs s,
            in blocks of q_0 for the p_0 <= q_0 that the steps read, added
            into A shifted by e_0 on both sides;
          - P - 1 steps A[p_0 + 1, :, q_0 + 1, :] += A[p_0, :, q_0, :] over
            q_0 >= p_0, in the (P, P^{n-1}, P, P^{n-1}) view of A, which
            fill A on and above its diagonal; the entries below it are
            copied from those above, so A is exactly symmetric.
        Besides A, the build holds panels of at most max(`_GRAM_PANEL`,
        `_LERNER_CHUNK` // width) rows and a product of at most
        max(`_GRAM_PANEL`, P^{n-1}) columns."""
        if self.gram_side() < side:
            self._gram = None  # the old table goes before the new one is made
            n, h = self.template.n, self.template.h
            lo, P = 1 - 2 * side, 4 * side
            F = P ** (n - 1)  # the entries of a face p_0 = const
            A = np.zeros((P * F, P * F))
            T = A.reshape(P, F, P, F)
            face = np.zeros((F, P * F))
            # Delta lands on A[p + e_0, q + e_0]; an end row holds the
            # p_0 < lo + P - 1 that the steps read, and a product w values
            # of q_0
            inner = T[1:, :, 1:, :]
            w = max(1, _GRAM_PANEL // F)

            def delta(U, s):
                S = np.multiply(U, s[:, None], out=signed[: len(U)])
                for q0 in range(0, P - 1, w):
                    q1 = min(q0 + w, P - 1)
                    X = np.matmul(U[:, : q1 * F].T, S[:, q0 * F : q1 * F],
                                  out=prod[: q1 * F * (q1 - q0) * F].reshape(q1 * F, -1))
                    np.add(inner[:q1, :, q0:q1], X.reshape(q1, F, q1 - q0, F),
                           out=inner[:q1, :, q0:q1])

            ends = _Panels((P - 1) * F, delta)
            signed, prod = np.empty_like(ends.buf), np.empty((P - 1) * F * w * F)
            if n > 1:  # the window rows of the face
                rows = _Panels(P * F, lambda U, s: np.add(face, U[:, :F].T @ U, out=face))
            for j, lv in enumerate(self.levels):
                K = lv.K
                # B[i] = k_j(i - K + lo) sqrt(meas_j) per axis, so that the
                # window of W at m + K holds the row of offset m; the
                # offsets lo - K .. lo + P + K - 1 are 1 - c .. c
                c = 2 * side + K
                B = self._block(j, c, (h / lv.t) ** n * math.sqrt(lv.meas))[
                    (slice(1, None),) * n]
                # the end rows at m_0 = rx + 1 and m_0 = -rx, at p_0 < lo + P - 1
                if n == 1:
                    (_, rx), = lv.disc
                    face[0] += np.correlate(B[K - rx : K + rx + P], B[K - rx : K + rx + 1],
                                            "valid")
                    ends.add(B[None, K + rx + 1 : K + rx + P], 1.0)
                    ends.add(B[None, K - rx : K - rx + P - 1], -1.0)
                    continue
                W = np.lib.stride_tricks.sliding_window_view(B, (P,) * n)
                for rest, rx in lv.disc:
                    rows.add(W[(slice(K - rx, K + rx + 1),) + tuple(K + d for d in rest)])
                # every disc row's ends at once: the row of m_0 = rx + 1 is
                # the window at m_0 = rx moved one cell
                rests, rx = zip(*lv.disc)
                at = tuple(K + np.array(d) for d in zip(*rests))
                ends.add(W[(K + np.array(rx),) + at][:, 1:], 1.0)
                ends.add(W[(K - np.array(rx),) + at][:, :-1], -1.0)
            if n > 1:
                rows.close()
            ends.close()
            T[0] = face.reshape(F, P, F)
            # the steps fill q_0 >= p_0, which holds every entry on or above
            # the diagonal of A
            for p0 in range(1, P):
                T[p0, :, p0:] += T[p0 - 1, :, p0 - 1 : -1]
            # the entries below the diagonal from those above it, by blocks
            # of 64 rows; a diagonal block keeps its upper triangle
            for i in range(0, P * F, 64):
                A[i : i + 64, :i] = A[:i, i : i + 64].T
                D = A[i : i + 64, i : i + 64]
                D[...] = np.triu(D) + np.triu(D, 1).T
            self._gram = A, lo, P
        return self._gram

    def _table_cost(self, side: int) -> float:
        """Modelled cost of `gram_table` at this side, as it builds, in the
        units of the path model:
          - the face: in 1-D one correlation per level ((2 rx + 1) P
            multiply-adds, at 3 each); in 2-D every window row copied into
            a panel (P^n entries, at 3 FFT flops each) and multiplied by its
            face (P^{n-1} P^n multiply-adds);
          - Delta: the entries of its products above the diagonal, in
            blocks of q_0 (`gram_table`), at 0.5 multiply-adds an end row
            and 20 FFT flops a panel, for the add into A; two calls per
            panel and block;
          - the P^{2n} entries of A that the steps and the mirror write (4
            FFT flops each), and half a call per step and mirror block;
          - two calls per level and, in 2-D, one per disc row.
        The rates were fitted to 36 timed builds of sides 1-192 (1-D
        N = 512, 4096 and 16384, 2-D N = 8-128; one CPU); the modelled over
        measured times of 35 of them lie in 0.55-1.07, quartiles 0.84 /
        0.94 / 0.96."""
        n = self.template.n
        P = 4 * side
        F = P ** (n - 1)
        w = max(1, _GRAM_PANEL // F)
        blocks = [min(q0 + w, P - 1) for q0 in range(0, P - 1, w)]
        upper = sum(q1 * (q1 - q0) for q0, q1 in zip(range(0, P - 1, w), blocks)) * F * F
        rows = sum(lv.size for lv in self.levels)
        ends = 2 * sum(len(lv.disc) for lv in self.levels)
        panels = -(-ends // max(_GRAM_PANEL, _LERNER_CHUNK // ((P - 1) * F)))
        calls = 2 * len(self.levels) + 2 * panels * len(blocks) + (P + P * F / 64) / 2
        cost = (0.5 * ends + 20 * _FFT_FLOP * panels) * upper + 4 * _FFT_FLOP * (P * F) ** 2
        if n == 1:
            cost += 3 * rows * P
        else:
            cost += rows * P * F * (F + 3 * _FFT_FLOP)
            calls += ends // 2
        return calls * _CALL + cost

    def _fft_cost(self, key, nb: int) -> float:
        """Modelled cost of a group of nb cubes of this shape key on the
        FFT path of `lerner_values`, as it runs: per FFT length P and chunk
        of cubes one batched window rfft, per level and chunk one batched
        irfft, the spectrum product, the squares and one `cone_sum` (a call
        per stencil row), and, for a key that `lerner_plans` has not seen,
        one block rfft per level.  A transform of P points costs
        2.5 P log2 P FFT flops, and an elementwise pass one FFT flop per
        entry.  The cold-plan charge, four calls and one block transform
        per level, covers the block transforms alone: the blocks are
        placed from the samples the constructor kept, so a new key samples
        no profile."""
        model = self._fft_model.get(key)
        if model is None:
            runs, plan = {}, 0.0
            q = math.prod(s for _, s, _ in key)
            for lv in self.levels:
                P = math.prod(1 << (a + s + 2 * lv.K - 2).bit_length() for a, s, _ in key)
                fft = 2.5 * P * math.log2(P)
                # per run (chunk size, calls per chunk, FFT flops per cube)
                step, calls, flops = runs.get(P, (max(1, _LERNER_CHUNK // P), 1, fft))
                U = math.prod(s + 2 * lv.K for _, s, _ in key)
                runs[P] = (step, calls + 6 + len(lv.rows),
                           flops + fft + P + 3 * U + 2 * len(lv.rows) * q)
                plan += 4 * _CALL + _FFT_FLOP * fft
            model = self._fft_model[key] = list(runs.values()), plan
        runs, plan = model
        return (sum(-(-nb // step) * calls * _CALL + nb * flops * _FFT_FLOP
                    for step, calls, flops in runs)
                + (plan if key not in self._plans else 0.0))

    def _gram_choice(self, groups: dict) -> int:
        """The Gram table side that this `lerner_values` call runs with.

        A group whose `_gram_side` the held table covers takes the Gram
        form.  Among the larger sides s with 4 s <= N that some group
        needs, the one whose modelled saving on this call's groups (their
        `_fft_cost` less their `_gram_cost`, for every group that a table
        of side s covers and the held one does not) most exceeds its
        `_table_cost` is built; if none pays for its table, the held side
        stays.  The choice reads only the layout, this call's groups and
        the held side, so calls made in a fixed order repeat it."""
        held = self.gram_side()
        gain = {}
        for key, (I, _) in groups.items():
            side = _gram_side(key)
            if held < side and 4 * side <= self.template.ncells:
                gain[side] = (gain.get(side, 0.0) + self._fft_cost(key, len(I))
                              - _gram_cost(key, len(I)))
        best, best_net, saved = held, 0.0, 0.0
        for side in sorted(gain):
            saved += gain[side]
            net = saved - self._table_cost(side)
            if net > best_net:
                best, best_net = side, net
        return best

    def lerner_plans(self, keys) -> list:
        """Per shape key of `lerner_values` (as `_lerner_groups`), its
        level plan: the runs (P, [(j, spectrum, crop)]) of consecutive
        levels j of one FFT length P, per axis the power of two of
        a + s + 2 K_j - 1.  The spectrum is the n-D rfft at P of level j's
        profile block at the cell offsets d - a + 1 - K_j .. d + s - 1 + K_j
        from 3Q to Q +- K_j, and crop the slice of a batched irfft that
        holds Q +- K_j.

        Plans are built on first sight of a key and kept: the keys not seen
        before share one block per level, placed from the level's kept
        sample (`_block`) over the union of their offset ranges, and each
        key's block is a slice of it.  The sample holds every offset of a
        cube of at most half the grid's side; a wider cube's offsets grow
        it once."""
        new = [key for key in keys if key not in self._plans]
        if new:
            n, h = self.template.n, self.template.h
            arr = np.array(new)
            lo = (arr[..., 2] - arr[..., 0] + 1).min(axis=0)
            hi = (arr[..., 2] + arr[..., 1]).max(axis=0)
            runs = {key: [] for key in new}
            for j, lv in enumerate(self.levels):
                K = lv.K
                # the offsets [lo - K, hi + K) per axis, cut from the block
                # of the largest |offset| c
                c = int(max(np.abs(lo - K).max(), np.abs(hi + K - 1).max()))
                prof = self._block(j, c, (h / lv.t) ** n)[
                    tuple(slice(l - K + c, u + K + c) for l, u in zip(lo, hi))]
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
        the `cone_sum`s of the levels, added in level order."""
        acc = np.zeros((self.template.ncells,) * self.template.n)
        for lv, u in self.level_values(values):
            acc += self.cone_sum(lv, u**2)
        return acc

    def box_square_sum(self, values: np.ndarray, box) -> np.ndarray:
        """S_alpha(f 1_{3B})^2 on one box B's cells within the grid, f the
        grid function with these values: `_box_sums` of B's shape group
        alone, tiny negative values, which roundoff leaves, read 0.  That
        is S f^2 on B wherever f vanishes off 3B.  box is (i0, i1, j0, j1),
        one row of `pool_cells`: the cells of 3B, snapped outward, and of
        B per axis, unclipped."""
        N = self.template.ncells
        i0, i1, j0, j1 = (np.asarray(c) for c in box)
        key = tuple(zip(*(x.tolist() for x in (i1 - i0, j1 - j0, j0 - i0))))
        acc = self._box_sums(values, {key: (i0[None], j0[None])})[key][0]
        inner = tuple(map(slice, np.maximum(-j0, 0).tolist(), (np.minimum(j1, N) - j0).tolist()))
        return np.maximum(acc[inner], 0.0)

    def eval_values(self, values: np.ndarray) -> np.ndarray:
        """S_alpha of the grid function with these values; returns values."""
        return np.sqrt(self.square_sum(values))

    def far_field(self, a: np.ndarray, i0: np.ndarray, i1: np.ndarray, j0: np.ndarray,
                  j1: np.ndarray) -> np.ndarray:
        """H_B = sum over the cells y outside 3B of a(y) far_gain[d(y, B)]
        for each box, a >= 0 on the grid, 3B the cells [i0, i1) and B the
        cells [j0, j1) per axis ((nb, n) arrays, unclipped), d the max-norm
        lattice distance from y to B's cells (an index past the table reads
        its last entry, which is no smaller).

        Boxes of one shape (per axis: cells of 3B, cells of B, offset of B
        in 3B, the key of `grids.shape_groups`) see one weight array
        w(y - i0), so their H_B are one correlation of a with w, taken by
        FFT at their 3B starts.  a is cropped to the hull of its nonzero
        cells, and its spectrum, of one length for every shape, serves all
        of them."""
        gain, n = self.far_gain, a.ndim
        nz = np.nonzero(a)
        y0 = np.array([ix.min() for ix in nz])
        na = np.array([ix.max() + 1 for ix in nz]) - y0
        I = i0 - y0
        imin = I.min(axis=0)
        # at index c of the convolution, w is taken at the offset u = y - i0
        us = [m - 1 - b - np.arange(m + e - b) for m, b, e in zip(na, imin, I.max(axis=0))]
        P = tuple(_fft_len(len(u)) for u in us)
        axes = tuple(range(n))
        spec = np.fft.rfftn(a[tuple(slice(y, y + m) for y, m in zip(y0, na))], P, axes=axes)

        def dist(start, size):  # from each offset u to the cells [start, start + size)
            return functools.reduce(np.maximum, np.ix_(*[
                np.maximum(np.maximum(b - u, u - (b + m - 1)), 0)
                for u, b, m in zip(us, start, size)]))

        out = np.empty(len(I))
        for key, sel in shape_groups(i0, i1, j0, j1):
            A, S, D = zip(*key)
            w = np.where(dist((0,) * n, A) == 0, 0.0,
                         gain[np.minimum(dist(D, S), len(gain) - 1)])
            conv = np.fft.irfftn(spec * np.fft.rfftn(w, P, axes=axes), P, axes=axes)
            out[sel] = conv[tuple((I[sel] - imin + na - 1).T)]
        return out

    def _box_sums(self, values: np.ndarray, groups: dict) -> dict:
        """S(f 1_{3Q})^2 on Q's cells, per group of `_lerner_groups` (shape
        key -> the (nb, n) start cells of 3Q and of Q): key -> an (nb, cells
        of Q per axis) array, cells outside the grid included.

        f 1_{3Q} is read from a zero-padded f.  `_gram_choice` sets the
        table side of the call, growing the table if it pays, and the groups
        that side covers go to `_gram_form`.  For every other group,
        psi_t(f 1_{3Q}) on Q +- K_j is the linear convolution of the stacked
        3Q windows with level j's profile block at the cell offsets from 3Q
        to Q +- K_j; `cone_sum` then takes the window sums on Q.  The block
        spectra come from `lerner_plans`, kept per shape key, so a shape
        seen by an earlier call on the layout costs no block transform.
        The loops run group -> FFT length P -> chunk of cubes -> level: per
        run of consecutive levels of one P and chunk, one batched n-D rfft
        of the windows and one irfft per level, and each cube's terms are
        added in level order."""
        n, N = self.template.n, self.template.ncells
        # a zero pad that holds every 3Q window of f
        pf = 0
        for key, (I, _) in groups.items():
            a = np.array(key)[:, 0]
            pf = max(pf, -I.min(), (I + a).max() - N)
        fp = np.pad(values, pf)
        side = self._gram_choice(groups)
        self.gram_table(side)  # builds only when the choice grew the side
        levelled = {key: I for key, (I, _) in groups.items() if _gram_side(key) > side}
        accs = {key: np.zeros((len(I),) + tuple(s for _, s, _ in key)) if key in levelled
                else _gram_form(self, key, fp, I + pf) for key, (I, _) in groups.items()}
        axes = tuple(range(1, n + 1))
        for (key, I), plan in zip(levelled.items(), self.lerner_plans(list(levelled))):
            fw = np.lib.stride_tricks.sliding_window_view(fp, tuple(a for a, _, _ in key))
            for P, run in plan:
                step = max(1, _LERNER_CHUNK // math.prod(P))
                for b0 in range(0, len(I), step):
                    wf = np.fft.rfftn(fw[tuple((I[b0 : b0 + step] + pf).T)], P, axes=axes)
                    for j, kf, crop in run:
                        U = np.fft.irfftn(wf * kf, P, axes=axes)[crop]
                        accs[key][b0 : b0 + step] += self.cone_sum(self.levels[j], U**2)
        return accs

    def lerner_values(self, values: np.ndarray, cells: tuple, s2: np.ndarray) -> np.ndarray:
        """M_S of the grid function f with these values over the pool cubes
        of cells (i0, i1, j0, j1), as `pool_cells`; a cell that no cube
        covers reads -inf.  s2 is S f^2 on the grid (such as `square_sum`
        of the values), read only on the cubes' cells within it.  Cubes are
        grouped by their unclipped shape (`_lerner_groups`), their
        S(f 1_{3Q})^2 on Q taken by `_box_sums` and compared with s2 by
        `_lerner_sup`; cells outside the grid are dropped."""
        n, N = self.template.n, self.template.ncells
        out = np.full((N,) * n, -np.inf)
        groups = _lerner_groups(values, cells, out)
        if groups:
            accs = self._box_sums(values, groups)
            _lerner_sup(out, s2, [(J, accs[key]) for key, (_, J) in groups.items()])
        return out


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
    mask and that length are taken once per (K, radius), on the quadrant of
    offsets 0 .. K; each level's weight is computed there, in the corner of
    a zero-padded buffer of the FFT length, and mirrored in place
    (`_mirror`, even in each axis).  The products of
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
            # the weight is even in each axis: one quadrant, offsets 0 .. K
            g1 = np.arange(K + 1)
            dist = g1 * h if n == 1 else np.hypot(*np.ix_(g1, g1)) * h
            geometry[K, lv.radius] = ((_fft_len(M + 2 * K),) * n, dist,
                                      dist >= lv.radius if n == 2 else None)
        P, dist, outside = geometry[K, lv.radius]
        # the weight's quadrant goes straight into its zero-padded FFT buffer
        wgt = np.zeros(P)
        quad = wgt[(slice(K, 2 * K + 1),) * n]
        np.power(t / (t + dist), n * lam, out=quad)
        if outside is not None:
            quad[outside] = 0.0
        _mirror(wgt, K, (1,) * n)
        term = lv.meas * np.fft.rfftn(u**2, P, axes=axes) * np.fft.rfftn(wgt, P, axes=axes)
        # no name holds this level's arrays while the stream makes the next
        # level's (as in `_level_values`)
        del u, wgt, quad
        if K in specs:
            specs[K][1] += term
        else:
            specs[K] = [P, term]
        del term
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


def pool_cells(f: GridFunction, cube_pool) -> tuple:
    """(i0, i1, j0, j1): per pool cube Q of the (nb, 2, n) corner array
    the `grids.cell_ranges` of 3Q, snapped outward, and of Q, as (nb, n)
    arrays, unclipped: the cells of `lerner_maximal`'s pool and of each
    node's pool in `dyadic.sparse_construct`."""
    return (*cell_ranges(f, cube_pool, dilate=True), *cell_ranges(f, cube_pool))


def _lerner_groups(values: np.ndarray, cells: tuple, out: np.ndarray) -> dict:
    """The pool cubes of `SquareEvaluator.lerner_values`, grouped by shape.

    cells are the pool's (i0, i1, j0, j1), as `pool_cells`.  Keys are those of
    `grids.shape_groups`, per axis (cells of 3Q, cells of Q, offset of Q in
    3Q); values are the (nb, n) start cells of 3Q and of Q of the cubes of
    that shape.  The ranges run past the grid, so one box shape has one key
    wherever it sits.  Cubes that select no grid cell are left out; where
    3Q holds every nonzero cell of f (these values), M_S is exactly 0 on
    Q, which is written into out here.
    """
    N = values.shape[0]
    i0, i1, j0, j1 = cells
    live = np.all(np.maximum(j0, 0) < np.minimum(j1, N), axis=1)
    zero = live.copy()
    for ax, ix in enumerate(np.nonzero(values)):
        if ix.size:
            zero &= (i0[:, ax] <= ix.min()) & (ix.max() < i1[:, ax])
    for c in np.flatnonzero(zero):
        qin = tuple(slice(max(a, 0), min(b, N)) for a, b in zip(j0[c], j1[c]))
        out[qin] = np.maximum(out[qin], 0.0)
    rest = np.flatnonzero(live & ~zero)
    return {key: (i0[rest[sel]], j0[rest[sel]])
            for key, sel in shape_groups(i0[rest], i1[rest], j0[rest], j1[rest])}


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


def _gram_side(key) -> int:
    """The least Gram table side that serves a group of this shape key:
    per axis, the table's offsets 1 - 2 side .. 2 side hold every offset
    d + e - c from a cell c of 3Q to a cell e of Q."""
    return max(max(-(-(a - d) // 2), -(-(d + s - 1) // 2)) for a, s, d in key)


def _gram_cost(key, nb: int) -> float:
    """Modelled cost of `_gram_form` on nb cubes of this shape key: the
    strided copy of G, F @ G and the row dots of every cube
    (multiply-adds), and the calls of its chunk loops.  A chunk of G that
    fits `_LERNER_CHUNK` is copied at one FFT flop an entry and read from
    cache.  A larger one, one e row of a^{2n} entries (2-D sides >= 4), is
    memory-bound: its copy costs 8 FFT flops an entry and every chunk of
    cubes reads it again at 4 (about 2 and 1 ns an entry, timed on one
    CPU with the 2-D N = 128 ladder groups of sides 6-16, whose modelled
    over measured times then lie in 0.74-1.14)."""
    last, ns = key[-1][1], math.prod(s for _, s, _ in key)
    na = math.prod(a for a, _, _ in key)
    ce = min(last, max(1, _LERNER_CHUNK // (na * na)))
    chunks = ns // last * -(-last // ce)  # of G, each read by `passes` chunks of cubes
    passes = -(-nb // max(1, _LERNER_CHUNK // (ce * na)))
    calls = 4 + chunks * (4 + 5 * passes)
    big = na * na > _LERNER_CHUNK
    return (calls * _CALL + ns * na * nb * (na + 1)
            + ns * na * na * _FFT_FLOP * ((8 + 4 * passes) if big else 1))


def _gram_form(ev: SquareEvaluator, key, fp: np.ndarray, I: np.ndarray) -> np.ndarray:
    """S(f 1_{3Q})^2 on Q for the cubes of one shape key, whose 3Q windows
    of fp start at the cells I (nb, n).

    At x = j0 + e the value is F^T A[p(e, .), p(e, .)] F with F = f on 3Q,
    p(e, c) = d + e - c per axis and A the evaluator's Gram table.  Per
    axis p moves by +1 with e and by -1 with c, so G[e, c, c'] =
    A[p(e, c), p(e, c')] is a strided view of A, and a chunk of it is
    copied out by strides, not gathered by index; the rows of several e go
    in one (nb, a^n) @ (a^n, ce a^n) matmul and a row dot.
    """
    A, lo, P = ev.gram_table(_gram_side(key))
    n = len(key)
    a, s = tuple(x for x, _, _ in key), tuple(x for _, x, _ in key)
    na = math.prod(a)
    T = A.reshape((P,) * (2 * n))
    sp, sq = T.strides[:n], T.strides[n:]
    # the view starts at p(0, 0) = d - lo on both sides; _gram_side keeps
    # every p(e, c) inside the table
    G = np.lib.stride_tricks.as_strided(
        T[tuple(slice(d - lo, None) for _, _, d in key) * 2], s + a + a,
        tuple(x + y for x, y in zip(sp, sq)) + tuple(-x for x in sp) + tuple(-y for y in sq),
        writeable=False)
    # a chunk: one run of e along the last axis, its c axes first
    order = tuple(range(1, n + 1)) + (0,) + tuple(range(n + 1, 2 * n + 1))
    fw = np.lib.stride_tricks.sliding_window_view(fp, a)
    out = np.empty((len(I),) + s)
    ce = max(1, _LERNER_CHUNK // (na * na))
    for lead in np.ndindex(s[:-1]):
        for e0 in range(0, s[-1], ce):
            Gc = G[lead + (slice(e0, e0 + ce),)].transpose(order).reshape(na, -1)
            step = max(1, _LERNER_CHUNK // Gc.shape[1])
            for b0 in range(0, len(I), step):
                F = fw[tuple(I[b0 : b0 + step].T)].reshape(-1, na)
                Y = (F @ Gc).reshape(len(F), -1, na)
                out[(slice(b0, b0 + step),) + lead + (slice(e0, e0 + ce),)] = np.einsum(
                    "bec,bc->be", Y, F)
    return out


def lerner_maximal(
    k: KernelSpec,
    f,
    cone: ConeGrid,
    variant: str,
    cube_pool,
    method: str | None = None,
    domain=None,
) -> GridFunction:
    """M_S f(x): the sup over the pool cubes Q containing x of
    sqrt(|S f(x)^2 - S(f 1_{3Q})(x)^2|).

    ``variant`` must be "M_S", the one localized operator, else
    `ParameterError`.  ``cube_pool`` is an (nb, 2, n) corner array (such
    as `dyadic_cube_pool`) and ``domain`` one (2, n) box [lo, hi] (such as
    `Cube.box`), any array-like.  The pool approximates the sup over all
    cubes; callers should record the pool kind alongside results.  Before
    any work the pool (with its 3-dilates) and the domain pass the box
    rule `grids.cell_ranges`, whose named errors they raise, and an empty
    pool is a `CoverageError`.  Every cell of ``domain`` (default: f's own
    box) must lie in some pool cube, else `CoverageError`; the output is
    zero outside it.  A linear convolution kernel with method "auto" takes
    the batched path (`SquareEvaluator.lerner_values`), in n = 1 and
    n = 2, through the evaluator `SquareEvaluator.of` keeps on k, so that
    repeated calls on one layout share its kernel spectra, Gram table and
    block spectra.
    Anything else takes `_lerner_pool_loop`, one S per pool cube.
    """
    fs = _operands(k, f, cone)
    if variant != "M_S":
        raise ParameterError(f"unknown variant {variant!r}; M_S is the one localized operator")
    base = fs[0]
    if domain is None:
        domain = [(-base.R,) * base.n, (base.R,) * base.n]
    cells = pool_cells(base, cube_pool)
    (d0,), (d1,) = cell_ranges(base, [domain])
    if not len(cells[0]):
        raise CoverageError("empty cube pool")
    dom = np.zeros(base.values.shape, dtype=bool)
    dom[tuple(slice(max(a, 0), max(b, 0)) for a, b in zip(d0.tolist(), d1.tolist()))] = True
    ev = SquareEvaluator.of(k, base, cone, method=method)
    out = (ev.lerner_values(base.values, cells, ev.square_sum(base.values)) if ev is not None
           else _lerner_pool_loop(k, fs, cone, cells, method))
    uncovered = np.argwhere(dom & (out == -np.inf))
    if uncovered.size:
        raise CoverageError(
            f"{uncovered.shape[0]} domain cells covered by no pool cube, "
            f"first at index {tuple(uncovered[0])}"
        )
    out[~dom] = 0.0
    return base.with_values(out)


def _lerner_pool_loop(k, f, cone, cells, method) -> np.ndarray:
    """M_S with one `square_function` call per pool cube, for a single
    input and a pair alike, the cubes given by their `pool_cells` cells:
    the oracle of `SquareEvaluator.lerner_values`."""
    fs = _operands(k, f, cone)

    def s_of(values):
        masked = tuple(g.with_values(v) for g, v in zip(fs, values))
        return square_function(k, masked, cone, method=method).values

    s_full2 = s_of([g.values for g in fs]) ** 2
    out = np.full(fs[0].values.shape, -np.inf)
    i0, i1, j0, j1 = np.clip(cells, 0, fs[0].ncells)
    for a0, a1, b0, b1 in zip(i0, i1, j0, j1):
        if np.any(b1 <= b0):  # Q selects no grid cell
            continue
        w3 = tuple(slice(a, b) for a, b in zip(a0, a1))
        q = tuple(slice(a, b) for a, b in zip(b0, b1))
        masked = []
        for g in fs:
            v = np.zeros_like(g.values)
            v[w3] = g.values[w3]
            masked.append(v)
        val = np.sqrt(np.abs(s_full2[q] - s_of(masked)[q] ** 2))
        out[q] = np.maximum(out[q], val)
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

