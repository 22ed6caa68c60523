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

Convolution-kind kernels have an FFT fast path; the per-call ``method``
argument ("auto", "fft" or "direct") forces the direct-summation path (the
oracle gate compares the two).  `SquareEvaluator` caches the per-level
kernel spectra of one layout in n = 1 and n = 2; `lerner_maximal` takes a
caller's evaluator of the same layout (``evaluator=``, as `sparse_construct`
passes), so the kernels are sampled once per layout.

`lerner_maximal` on a linear convolution kernel in 1-D with resolved method
"fft" evaluates every pool cube's S(f 1_{3Q}) only on Q: cubes are grouped
by their cell shape, and each group costs one Toeplitz matmul per level
(input on 3Q, output on Q +- K_j) followed by window sums.  Every other
case (``method="direct"``, bilinear pairs, n = 2) runs S once per pool cube;
that loop is the oracle of the batched path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy import ndimage, signal

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

def _resolve_method(k: KernelSpec, method: str | None) -> str:
    m = method or "auto"
    if m not in ("auto", "fft", "direct"):
        raise ParameterError(f"unknown method {m!r}")
    if m == "auto":
        return "fft" if k.kind == "convolution" else "direct"
    if m == "fft" and k.kind != "convolution":
        raise ParameterError("fft path only applies to convolution kernels")
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
        if k.kind != "bilinear":
            raise ParameterError("pair input needs a bilinear kernel")
        return _psi_t_bilinear(k, *pair, t, out_R)
    if k.kind == "bilinear":
        raise ParameterError("bilinear kernel needs a pair of inputs")
    if f.n != k.n:
        raise GridError("kernel and grid dimensions differ")
    meth = _resolve_method(k, method)
    if meth == "fft":
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


def _psi_t_conv_fft(k, f, t, out_R):
    R_out, M, X = _out_centers(f, out_R)
    N = f.ncells
    shift = f.R - R_out  # in_center - out_center offset
    m = np.arange(-(N - 1), M)
    scale = f.h**f.n / t**f.n
    if f.n == 1:
        kern = k.profile((m * f.h + shift) / t) * scale
        vals = signal.fftconvolve(f.values, kern)[N - 1 : N - 1 + M]
        return GridFunction(1, R_out, f.h, vals)
    d = (m * f.h + shift) / t
    kern = k.profile(d[:, None], d[None, :]) * scale
    vals = signal.fftconvolve(f.values, kern)[N - 1 : N - 1 + M, N - 1 : N - 1 + M]
    return GridFunction(2, R_out, f.h, vals)


def _psi_t_bilinear(k, f1, f2, t, out_R):
    R_out, M, X = _out_centers(f1, out_R)
    Z = f1.axis_centers()
    n = f1.n
    scale = f1.h ** (2 * n) / t ** (2 * n)
    if n != 1:
        raise ParameterError("bilinear evaluation is implemented for n = 1")
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


# ---------------------------------------------------------------------------
# square functions
# ---------------------------------------------------------------------------


def _radius_cells(alpha: float, t: float, h: float, max_radius: float) -> int:
    lim = min(alpha * t, max_radius) / h
    return max(int(math.ceil(lim)) - 1, 0)


def _window_sum_1d(p_ext: np.ndarray, r: int, M: int, K: int) -> np.ndarray:
    """sum of p_ext over [i+K-r, i+K+r] for each output cell i."""
    c = np.concatenate([[0.0], np.cumsum(p_ext)])
    i0 = K - r
    return c[i0 + np.arange(M) + 2 * r + 1] - c[i0 + np.arange(M)]

def _window_sum_2d(p_ext: np.ndarray, lim: float, r: int, M: int, K: int) -> np.ndarray:
    """sum of p_ext over the strict disc |m| < lim around each output cell."""
    out = np.zeros((M, M))
    c = np.concatenate(
        [np.zeros((1, p_ext.shape[1])), np.cumsum(p_ext, axis=0)], axis=0
    )
    for dy in range(-r, r + 1):
        rem = lim * lim - dy * dy
        if rem <= 0:
            continue
        rx = int(math.ceil(math.sqrt(rem))) - 1
        if rx < 0:
            continue
        cols = slice(K + dy, K + dy + M)
        i0 = K - rx
        rows = c[i0 + 2 * rx + 1 : i0 + 2 * rx + 1 + M, cols] - c[i0 : i0 + M, cols]
        out += rows
    return out


def _psi_levels(k, f, cone: ConeGrid, out_R, method, radii):
    """Yield (j, t, u_ext values, K_j) with u on the out lattice padded by K_j."""
    pair = _as_pair(f)
    base = pair[0] if pair else f
    R_out = base.R if out_R is None else float(out_R)
    for j, t in enumerate(cone.t_levels):
        K = radii[j]
        R_ext = R_out + K * base.h
        u = psi_t_apply(k, f, float(t), out_R=R_ext, method=method)
        yield j, float(t), u.values, K


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
            r = _radius_cells(a, t, base.h, cone.max_radius)
            if n == 1:
                w = _window_sum_1d(p, r, M, K)
            else:
                lim = min(a * t, cone.max_radius) / base.h
                w = _window_sum_2d(p, lim, r, M, K)
            acc[a] += meas * w
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
        offs = cone.offsets[j]
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
    ``lim`` (cells); ``meas`` is (h/t)^n ln r.
    """

    t: float
    K: int
    Mx: int
    nfft: int
    lim: float
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
        out.append(_Level(
            t, K, Mx, 1 << (Mx + N - 2).bit_length(),
            min(cone.alpha * t, cone.max_radius) / h,
            (h / t) ** n * cone.log_weight,
        ))
    return out


def _level_kernel(k, template: GridFunction, R_out: float, lv: _Level) -> np.ndarray:
    """Profile samples times (h/t)^n at the offsets -(N-1) .. Mx-1 (per axis)
    from the input cells to the output lattice padded by K."""
    h = template.h
    shift = template.R - (R_out + lv.K * h)
    d = (np.arange(-(template.ncells - 1), lv.Mx) * h + shift) / lv.t
    scale = (h / lv.t) ** template.n
    if template.n == 1:
        return k.profile(d) * scale
    return k.profile(d[:, None], d[None, :]) * scale


class SquareEvaluator:
    """Repeated S_alpha evaluations of masked variants of one grid layout.

    Samples the per-level convolution kernels once (the expensive
    transcendental sampling) and keeps their spectra, in n = 1 and n = 2,
    and in n = 1 the samples too; each eval costs one forward FFT per
    distinct FFT size (the least power of two that holds the linear
    convolution) and one inverse FFT per level.  Non-convolution kernels and
    ``method="direct"`` go through square_function on every eval.
    """

    def __init__(self, k, template: GridFunction, cone: ConeGrid,
                 out_R: float | None = None, method: str | None = None):
        self.k = k
        self.cone = cone
        self.template = template
        self.R_out = template.R if out_R is None else float(out_R)
        self.method = method
        meth = _resolve_method(k, method) if k.kind != "bilinear" else "direct"
        self.fast = k.kind == "convolution" and meth == "fft"
        if not self.fast:
            return
        n = template.n
        self.M = int(round(2.0 * self.R_out / template.h))
        self.levels = _cone_levels(template, cone, self.R_out)
        kernels = [_level_kernel(k, template, self.R_out, lv) for lv in self.levels]
        self._spectra = [
            np.fft.rfftn(kern, (lv.nfft,) * n, axes=range(n))
            for lv, kern in zip(self.levels, kernels)
        ]
        # the batched 1-D Lerner path slices its Toeplitz blocks from the
        # samples; in 2-D nothing reads them (they cost ~0.6 MB peak RSS)
        self.kernels = kernels if n == 1 else None

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
        if self.template.n == 1:
            return lv.meas * _window_sum_1d(p, lv.K, self.M, lv.K)
        return lv.meas * _window_sum_2d(p, lv.lim, lv.K, self.M, lv.K)

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
    stencil covers the lattice.
    """
    _check_lambda(k, lam)
    pair = _as_pair(f)
    base = pair[0] if pair else f
    n = base.n
    R_out = base.R if out_R is None else float(out_R)
    M = int(round(2.0 * R_out / base.h))
    acc = np.zeros((M,) * n)
    radii = [
        _radius_cells(halfspace.alpha, float(t), base.h, halfspace.max_radius)
        for t in halfspace.t_levels
    ]
    for j, t, u_ext, K in _psi_levels(k, f, halfspace, R_out, method, radii):
        p = u_ext**2
        meas = base.h**n / t**n * halfspace.log_weight
        if n == 1:
            m = np.arange(-K, K + 1)
            wgt = (t / (t + np.abs(m) * base.h)) ** (n * lam)
            acc += meas * signal.fftconvolve(p, wgt, mode="valid")
        else:
            g1 = np.arange(-K, K + 1)
            MX, MY = np.meshgrid(g1, g1, indexing="ij")
            dist = np.hypot(MX, MY) * base.h
            wgt = (t / (t + dist)) ** (n * lam)
            lim = min(halfspace.alpha * t, halfspace.max_radius)
            wgt[dist >= lim] = 0.0
            acc += meas * signal.fftconvolve(p, wgt, mode="valid")
    acc = np.maximum(acc, 0.0)
    return GridFunction(n, R_out, base.h, np.sqrt(acc))


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


def _right_aligned_max_1d(arr: np.ndarray, L: int) -> np.ndarray:
    # window [i-L+1, i]: scipy's window is [i - origin - L//2, ...]
    origin = (L - 1) // 2
    return ndimage.maximum_filter1d(arr, size=L, mode="constant", cval=-np.inf,
                                    origin=origin)


def maximal(f: GridFunction, variant: str = "hl", kappa: float | None = None) -> GridFunction:
    """Hardy-Littlewood (grid cubes), dyadic (anchored at 0), or powered.

    hl: sup over grid-aligned cubes containing x, sides h..2R;
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
        out = a.copy()  # L = 1 windows
        if f.n == 1:
            c = np.concatenate([[0.0], np.cumsum(a)])
            for L in range(2, N + 1):
                avg = (c[L:] - c[:-L]) / L
                pad = np.full(N, -np.inf)
                pad[: avg.size] = avg
                out = np.maximum(out, _right_aligned_max_1d(pad, L))
        else:
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
    shape selects the same number of cells wherever it sits; ranges are
    clipped to the grid.
    """
    # cell i is selected for lo - pad <= i + 1/2 < hi + pad (cell units)
    pad = 0.5 if snap_outward else 0.0
    out = []
    for ax in range(gf.n):
        lo = (box.lo[ax] + gf.R) / gf.h - 0.5 - pad
        hi = (box.hi[ax] + gf.R) / gf.h - 0.5 + pad
        i0 = int(math.ceil(lo - 1e-9))
        i1 = int(math.ceil(hi - 1e-9))
        out.append((min(max(i0, 0), gf.ncells), min(max(i1, 0), gf.ncells)))
    return tuple(out)


def _box_mask(gf: GridFunction, box: Box, snap_outward: bool = False) -> np.ndarray:
    """Indicator of the cells `_box_range` selects."""
    mask = np.zeros(gf.values.shape)
    mask[tuple(slice(i0, i1) for i0, i1 in _box_range(gf, box, snap_outward))] = 1.0
    return mask


# temporaries of the batched Lerner path hold at most this many doubles
_LERNER_CHUNK = 1 << 14


def _lerner_batched_1d(ev: SquareEvaluator, f: GridFunction, variant: str,
                       cube_pool: Sequence[Box]) -> np.ndarray:
    """M_S / N_S of a 1-D convolution kernel, each cube evaluated on Q only.

    psi_t(f 1_{3Q}) on Q +- K_j is T_j @ f[3Q], where the Toeplitz block
    T_j is a slice of the evaluator's level-j kernel samples and depends
    only on the cube's shape (cells of 3Q, cells of Q, offset of Q in 3Q);
    cubes of one shape share T_j and one matmul per level.  N_S uses
    psi_t(f 1_{outside 3Q}) = psi_t f - psi_t(f 1_{3Q}).  Where f vanishes
    outside 3Q both variants are exactly 0 on Q.
    """
    values = f.values
    N = f.ncells
    out = np.full(N, -np.inf)
    nnz = np.concatenate([[0], np.cumsum(values != 0)])
    groups: dict = {}
    for q in cube_pool:
        ((j0, j1),) = _box_range(f, q)
        if j1 <= j0:
            continue
        ((i0, i1),) = _box_range(f, q.dilate(3.0), snap_outward=True)
        if nnz[i1] - nnz[i0] == nnz[-1]:
            out[j0:j1] = np.maximum(out[j0:j1], 0.0)
            continue
        groups.setdefault((i1 - i0, j1 - j0, j0 - i0), []).append((i0, j0))
    # sub-batches keep f[3Q] within the chunk size; its rows are reversed so
    # that T's rows are forward slices of the kernel samples
    batches = []
    for (a, s, d), cubes in groups.items():
        step = max(1, _LERNER_CHUNK // a)
        for b0 in range(0, len(cubes), step):
            i0s, j0s = (np.array(c) for c in zip(*cubes[b0 : b0 + step]))
            F = values[i0s[None, :] + np.arange(a - 1, -1, -1)[:, None]]
            batches.append((a, s, d, j0s, F, np.zeros((s, j0s.size))))
    if not batches:
        return out
    s_full2 = np.zeros(N)
    for (lv, u_full), kern in zip(ev.level_values(values), ev.kernels):
        K = lv.K
        if variant == "M_S":
            s_full2 += ev.cone_sum(lv, u_full**2)
        for a, s, d, j0s, F, acc in batches:
            nb = j0s.size
            # row r of T (output cell j0 - K + r), columns reversed, is
            # kern[r + d + N - a : r + d + N]
            rows_T = np.lib.stride_tricks.sliding_window_view(kern, a)
            off = d + N - a
            nrows = s + 2 * K
            step = max(1, _LERNER_CHUNK // max(a, nb))
            lower = np.zeros((s, nb))
            upper = np.empty((s, nb))
            run = np.zeros(nb)
            for r0 in range(0, nrows, step):
                r1 = min(nrows, r0 + step)
                C = np.ascontiguousarray(rows_T[off + r0 : off + r1]) @ F
                if variant == "N_S":
                    rows = j0s[None, :] + np.arange(r0, r1)[:, None]
                    np.subtract(u_full[rows], C, out=C)
                # in place: prefix sums C[r0+1 .. r1] of U^2 down the rows
                np.square(C, out=C)
                np.cumsum(C, axis=0, out=C)
                C += run
                run = C[-1]
                x0, x1 = max(1, r0 + 1), min(s, r1 + 1)
                if x0 < x1:
                    lower[x0:x1] = C[x0 - r0 - 1 : x1 - r0 - 1]
                x0, x1 = max(0, r0 - 2 * K), min(s, r1 - 2 * K)
                if x0 < x1:
                    upper[x0:x1] = C[x0 + 2 * K - r0 : x1 + 2 * K - r0]
            acc += lv.meas * (upper - lower)
    for a, s, d, j0s, F, acc in batches:
        for col, j0 in enumerate(j0s):
            if variant == "M_S":
                val = np.sqrt(np.abs(s_full2[j0 : j0 + s] - acc[:, col]))
            else:
                val = np.sqrt(acc[:, col])
            out[j0 : j0 + s] = np.maximum(out[j0 : j0 + s], val)
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
    that its kernel samples are reused.  A linear convolution kernel in 1-D
    with resolved method "fft" takes the batched path
    (`_lerner_batched_1d`); everything else evaluates S once per pool cube.
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
    if ev is not None and ev.fast and base.n == 1:
        out = _lerner_batched_1d(ev, base, variant, cube_pool)
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


@lru_cache(maxsize=128)
def _dini_cached(mod: ModulusOfContinuity) -> float:
    return dini_constant(mod, tol=1e-8)


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
    wd = _dini_cached(k.w_mod)
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

