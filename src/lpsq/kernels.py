"""Kernel constructors and numerical verification of their decay/regularity.

Kernels come in three kinds: a convolution profile phi(u), a general linear
kernel psi(x, y), or a bilinear kernel psi(x, y1, y2).  A bilinear kernel
that depends only on x - y1 and x - y2 also carries its profile Phi(u, v),
psi(x, y1, y2) = Phi(x - y1, x - y2), which the bilinear FFT path of
`operators.psi_t_apply` samples.  The size and smoothness checks divide the
kernel expression by the reference envelope (maximal-function factor times
modulus factors, constant set to 1) over a log-spaced sample plan, so the
reported max ratio is the empirically fitted size constant.

Coordinate convention: callables take one positional array per coordinate,
so a 1-D profile is phi(x), a 2-D one phi(x1, x2), a 1-D bilinear kernel
psi(x, y1, y2), and so on.  All are vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, GeometryError, ParameterError
from .moduli import (
    ModulusOfContinuity,
    log_modulus,
    logsplit_moduli,
    power_modulus,
)

__all__ = [
    "KernelSpec",
    "ConditionReport",
    "SamplePlan",
    "example_kernel",
    "bilinear_example_kernel",
    "parse_kernel",
    "unit_cube_maximal",
    "kernel_condition_check",
]


@dataclass(frozen=True)
class KernelSpec:
    kind: str  # "convolution" | "linear" | "bilinear"
    n: int
    A: float
    w_mod: ModulusOfContinuity
    phi_mod: ModulusOfContinuity
    profile: Callable | None = None  # phi(u); bilinear: Phi(x - y1, x - y2)
    psi: Callable | None = None
    name: str = ""
    params: dict = field(default_factory=dict)
    # the Lerner plan of the last fast-path layout this kernel evaluated:
    # layout key -> `operators.SquareEvaluator` (see `SquareEvaluator.of`)
    _evaluator: dict = field(default_factory=dict, init=False, compare=False,
                             hash=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("convolution", "linear", "bilinear"):
            raise ParameterError(f"unknown kernel kind {self.kind!r}")
        if self.n not in (1, 2):
            raise ParameterError("dimension must be 1 or 2")
        if self.A < 0:
            raise ParameterError("size constant A must be nonnegative")
        if self.kind == "convolution" and self.profile is None:
            raise ParameterError("convolution kernel needs a profile")
        if self.kind == "linear" and self.profile is not None:
            raise ParameterError("a linear kernel takes psi, not a profile")
        if self.kind != "convolution" and self.psi is None:
            raise ParameterError(f"{self.kind} kernel needs psi")

    @property
    def m(self) -> int:
        return 2 if self.kind == "bilinear" else 1

    def two_point(self, *coords):
        """psi(x, y) as arrays; for convolution this is profile(x - y)."""
        if self.kind == "bilinear":
            raise ParameterError("two_point is for linear/convolution kernels")
        xs, ys = coords[: self.n], coords[self.n :]
        if self.kind == "convolution":
            return self.profile(*[np.asarray(x) - np.asarray(y) for x, y in zip(xs, ys)])
        return self.psi(*coords)


@dataclass
class ConditionReport:
    max_ratio: float
    argmax_location: tuple
    samples_checked: int
    flagged: bool
    growth_ratio: float | None = None
    ratio_infinite: bool = False


# ---------------------------------------------------------------------------
# example kernels
# ---------------------------------------------------------------------------


def _norm_sq(*coords):
    s = np.zeros_like(np.asarray(coords[0], dtype=float))
    for c in coords:
        s = s + np.asarray(c, dtype=float) ** 2
    return s


def _sin_log_profile(kappa: float, n: int):
    def profile(*coords):
        r2 = _norm_sq(*coords)
        return np.sin(coords[0]) / (
            (1.0 + r2) ** (n / 2.0) * np.log(2.0 + r2) ** kappa
        )

    return profile


def _deriv_log_profile(kappa: float, n: int):
    # d/dx1 of (1+|x|^2)^{-(n-1)/2} log^{-kappa}(2+|x|^2), closed form
    def profile(*coords):
        r2 = _norm_sq(*coords)
        L = np.log(2.0 + r2)
        lead = (1.0 + r2) ** (-(n - 1) / 2.0) * L ** (-kappa)
        bracket = kappa / ((2.0 + r2) * L) + (n - 1) / (2.0 * (1.0 + r2))
        return -2.0 * np.asarray(coords[0], dtype=float) * lead * bracket

    return profile


def example_kernel(kernel_id: str, params: dict, n: int) -> KernelSpec:
    """The three reference convolution kernels.

    ex1: sin(x1) / ((1+|x|^2)^{n/2} log^k(2+|x|^2)), moduli w = phi =
         log^{-k/2}(2+1/t).  Needs k > 1 for integrability; the size and
         smoothness conditions additionally need k > 2.
    ex2: the ex1 profile with the split moduli w = log^{b-k}(1+1/t),
         phi = log^{-b}(1+1/t); needs k > 2, b > 1, k - b > 1.
    ex3: the x1-derivative profile with the ex1 moduli; needs k > 2.
    """
    kappa = float(params.get("kappa", 0.0))
    if kernel_id == "ex1":
        if not kappa > 1.0:
            raise ParameterError("ex1 requires kappa > 1")
        w = phi = log_modulus(kappa)
        return KernelSpec(
            "convolution", n, 1.0, w, phi,
            profile=_sin_log_profile(kappa, n),
            name=f"ex1:kappa={kappa:g}", params={"kappa": kappa},
        )
    if kernel_id == "ex2":
        beta = float(params.get("beta", 0.0))
        w, phi = logsplit_moduli(kappa, beta)  # enforces the strict parameter set
        return KernelSpec(
            "convolution", n, 1.0, w, phi,
            profile=_sin_log_profile(kappa, n),
            name=f"ex2:kappa={kappa:g},beta={beta:g}",
            params={"kappa": kappa, "beta": beta},
        )
    if kernel_id == "ex3":
        if not kappa > 2.0:
            raise ParameterError("ex3 requires kappa > 2")
        w = phi = log_modulus(kappa)
        return KernelSpec(
            "convolution", n, 1.0, w, phi,
            profile=_deriv_log_profile(kappa, n),
            name=f"ex3:kappa={kappa:g}", params={"kappa": kappa},
        )
    raise ConfigError(f"unknown example kernel id {kernel_id!r}")


def bilinear_example_kernel(kappa: float = 3.0, n: int = 1) -> KernelSpec:
    """Bilinear kernel with joint decay in |x-y1| + |x-y2|.

    psi(x, y1, y2) = sin(x1-y1_1) (1+s2)^{-n} log^{-kappa}(2+s2) with
    s2 = |x-y1|^2 + |x-y2|^2, so |psi| <= 4^n (1+|x-y1|+|x-y2|)^{-2n}
    w(1/(1+...)) with the log-type modulus below.  It depends on x - y1 and
    x - y2 only: the profile is Phi(u, v) = psi(x, x - u, x - v).
    """
    if not kappa > 1.0:
        raise ParameterError("bi1 requires kappa > 1")
    m = 2

    def profile(*coords):
        u = coords[:n]
        v = coords[n:]
        s2 = _norm_sq(*u) + _norm_sq(*v)
        return np.sin(u[0]) / ((1.0 + s2) ** (n * m / 2.0) * np.log(2.0 + s2) ** kappa)

    def psi(*coords):
        x = coords[:n]
        y1 = coords[n : 2 * n]
        y2 = coords[2 * n :]
        return profile(*[np.asarray(a) - np.asarray(b) for a, b in zip(x, y1)],
                       *[np.asarray(a) - np.asarray(b) for a, b in zip(x, y2)])

    w = phi = log_modulus(2.0 * kappa)
    return KernelSpec(
        "bilinear", n, 1.0, w, phi, profile=profile, psi=psi,
        name=f"bi1:kappa={kappa:g}", params={"kappa": kappa},
    )


def _csv_profile_kernel(path: str, n: int, w: ModulusOfContinuity | None) -> KernelSpec:
    if n != 1:
        raise ConfigError("CSV convolution profiles are 1-D")
    rows = np.genfromtxt(path, delimiter=",")
    rows = rows[~np.isnan(rows).any(axis=1)]
    xs = rows[:, 0]
    vs = rows[:, 1]
    order = np.argsort(xs)
    xs, vs = xs[order], vs[order]
    profile = lambda x: np.interp(x, xs, vs, left=0.0, right=0.0)
    mod = w or power_modulus(1.0)
    return KernelSpec(
        "convolution", 1, 1.0, mod, mod, profile=profile,
        name=f"csv:{path}", params={"kappa": 2.0},
    )


def parse_kernel(spec: str, n: int, w: ModulusOfContinuity | None = None,
                 phi: ModulusOfContinuity | None = None) -> KernelSpec:
    """Kernel from a config id: ``ex1:kappa=3``, ``ex2:kappa=3,beta=1.5``,
    ``ex3:kappa=3``, ``bi1:kappa=3``, ``csv:path``."""
    head, _, arg = spec.partition(":")
    if head == "csv":
        return _csv_profile_kernel(arg, n, w)
    params = {}
    if arg:
        for piece in arg.split(","):
            key, _, val = piece.partition("=")
            try:
                params[key.strip()] = float(val)
            except ValueError as exc:
                raise ConfigError(f"bad kernel parameter {piece!r} in {spec!r}") from exc
    try:
        if head in ("ex1", "ex2", "ex3"):
            return example_kernel(head, params, n)
        if head == "bi1":
            return bilinear_example_kernel(params.get("kappa", 3.0), n)
    except ParameterError as exc:
        raise ConfigError(f"bad kernel id {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown kernel id {spec!r}")


# ---------------------------------------------------------------------------
# maximal-function envelope of the unit cube
# ---------------------------------------------------------------------------


def _overlap_max(a, s):
    """Best 1-D overlap of a length-s interval pinned to a point at distance
    a+1 from the center of [-1, 1] (a = max(0, d-1))."""
    return np.minimum(np.minimum(s, 2.0), np.maximum(0.0, s - a))


def unit_cube_maximal(*dists):
    """M 1_{Q(0,1)} at per-axis distances |y_i - x_i| (cube maximal).

    1-D closed form min(1, 2/(1+d)).  In 2-D the per-axis optimal placements
    are independent, so only the side s of the square needs choosing; with
    a1 <= a2 the ratio is (s-a1)(s-a2)/s^2 (increasing) up to s = a1 + 2,
    2 (s-a2)/s^2 (peak at s = 2 a2) up to s = a2 + 2, then 4/s^2, so the
    maximum is attained in {2, a1 + 2, a2 + 2, 2 max(a1, a2)}.
    """
    if len(dists) == 1:
        d = np.abs(np.asarray(dists[0], dtype=float))
        return np.minimum(1.0, 2.0 / (1.0 + d))
    a1 = np.maximum(0.0, np.abs(np.asarray(dists[0], dtype=float)) - 1.0)
    a2 = np.maximum(0.0, np.abs(np.asarray(dists[1], dtype=float)) - 1.0)
    # 2 max(a1, a2) below 2 is never the peak; the floor keeps s > 0
    sides = (np.full_like(a1, 2.0), a1 + 2.0, a2 + 2.0,
             np.maximum(2.0 * np.maximum(a1, a2), 2.0))
    return np.max([_overlap_max(a1, s) * _overlap_max(a2, s) / s**2 for s in sides],
                  axis=0)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplePlan:
    """Log-spaced sampling of separations and increments."""

    r_min: float = 1e-2
    r_max: float = 1e3
    n_r: int = 48
    n_h: int = 10
    n_dir: int = 6
    n_base: int = 4
    seed: int = 0

    def radii(self, r_max=None):
        return np.geomspace(self.r_min, r_max or self.r_max, self.n_r)

    def h_fracs(self):
        return np.geomspace(1e-3, 0.9, self.n_h)

    def directions(self, n, rng):
        if n == 1:
            return np.array([[1.0], [-1.0]])
        ang = rng.uniform(0.0, 2.0 * math.pi, self.n_dir)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def bases(self, n, rng):
        return rng.uniform(-2.0, 2.0, size=(self.n_base, n))


def _envelope_linear(k: KernelSpec, x, y, r):
    dists = [np.abs(np.asarray(yc) - np.asarray(xc)) for xc, yc in zip(
        np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0))]
    return unit_cube_maximal(*dists) * k.w_mod(1.0 / (1.0 + r))


def _eval_two_point(k: KernelSpec, x, y):
    coords = tuple(np.moveaxis(x, -1, 0)) + tuple(np.moveaxis(y, -1, 0))
    return k.two_point(*coords)


def _eval_bilinear(k: KernelSpec, x, y1, y2):
    coords = (
        tuple(np.moveaxis(x, -1, 0))
        + tuple(np.moveaxis(y1, -1, 0))
        + tuple(np.moveaxis(y2, -1, 0))
    )
    return k.psi(*coords)


def _max_ratio_once(k, mode, plan, gamma, r_max):
    rng = np.random.default_rng(plan.seed)
    n = k.n
    bases = plan.bases(n, rng)
    dirs = plan.directions(n, rng)
    rs = plan.radii(r_max)
    num_list, den_list, locs = [], [], []

    if mode == "log_ratio":
        if gamma is None or not 0.0 < gamma <= 1.0:
            raise ParameterError("log_ratio mode needs gamma in (0, 1]")
        r = rs[:, None]
        hfrac = plan.h_fracs()[None, :]
        habs = hfrac * r / 2.0
        q = (
            np.minimum(1.0, habs**gamma)
            / np.log(2.0 + r)
            * np.log(2.0 + (1.0 + r) / habs)
        )
        idx = np.unravel_index(np.argmax(q), q.shape)
        return (
            float(q[idx]),
            (float(r[idx[0], 0]), float(habs[idx])),
            int(q.size),
            False,
        )

    if k.kind == "bilinear":
        for b in bases:
            for e1 in dirs:
                for e2 in dirs:
                    r1 = rs[:, None]
                    r2 = rs[None, :]
                    x = np.broadcast_to(b, r1.shape + (n,)) * np.ones(r2.shape)[..., None]
                    y1 = b - r1[..., None] * e1
                    y2 = b - r2[..., None] * e2
                    y1, y2 = np.broadcast_arrays(y1, y2)
                    x = np.broadcast_to(b, y1.shape).copy()
                    rsum = r1 + r2 + np.zeros_like(r1 * r2)
                    den = (1.0 + rsum) ** (-n * k.m) * k.w_mod(1.0 / (1.0 + rsum))
                    if mode == "size":
                        num = np.abs(_eval_bilinear(k, x, y1, y2))
                    else:
                        rmax_pair = np.maximum(r1, r2) + np.zeros_like(rsum)
                        for hf in plan.h_fracs():
                            habs = hf * rmax_pair / 2.0
                            hvec = habs[..., None] * dirs[0]
                            if mode == "smooth_x":
                                num = np.abs(
                                    _eval_bilinear(k, x, y1, y2)
                                    - _eval_bilinear(k, x + hvec, y1, y2)
                                )
                            elif mode == "smooth_y":
                                num = np.abs(
                                    _eval_bilinear(k, x, y1, y2)
                                    - _eval_bilinear(k, x, y1 + hvec, y2)
                                )
                            else:
                                raise ParameterError(f"unknown mode {mode!r}")
                            d = den * k.phi_mod(habs / (1.0 + rsum))
                            num_list.append(num.ravel())
                            den_list.append(d.ravel())
                            locs.append(np.stack([rsum, habs], -1).reshape(-1, 2))
                        continue
                    num_list.append(num.ravel())
                    den_list.append(den.ravel())
                    locs.append(np.stack([r1 + 0 * r2, r2 + 0 * r1], -1).reshape(-1, 2))
    else:
        for b in bases:
            for e in dirs:
                y = b - rs[:, None] * e
                x = np.broadcast_to(b, y.shape).copy()
                den0 = _envelope_linear(k, x, y, rs)
                if mode == "size":
                    num = np.abs(_eval_two_point(k, x, y))
                    num_list.append(num)
                    den_list.append(den0)
                    locs.append(np.stack([rs, 0 * rs], -1))
                elif mode in ("smooth_x", "smooth_y"):
                    for hf in plan.h_fracs():
                        habs = hf * rs / 2.0
                        hvec = habs[:, None] * dirs[0]
                        if mode == "smooth_x":
                            num = np.abs(
                                _eval_two_point(k, x, y) - _eval_two_point(k, x + hvec, y)
                            )
                        else:
                            num = np.abs(
                                _eval_two_point(k, x, y) - _eval_two_point(k, x, y + hvec)
                            )
                        d = den0 * k.phi_mod(habs / (1.0 + rs))
                        num_list.append(num)
                        den_list.append(d)
                        locs.append(np.stack([rs, habs], -1))
                else:
                    raise ParameterError(f"unknown mode {mode!r}")

    num = np.concatenate(num_list)
    den = np.concatenate(den_list)
    loc = np.concatenate(locs)
    inf_mask = (den == 0.0) & (num > 0.0)
    ratio_infinite = bool(np.any(inf_mask))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0.0, num / np.where(den > 0, den, 1.0), 0.0)
    i = int(np.argmax(ratio))
    return float(ratio[i]), tuple(float(v) for v in loc[i]), int(ratio.size), ratio_infinite


def kernel_condition_check(
    k: KernelSpec,
    mode: str,
    plan: SamplePlan | None = None,
    gamma: float | None = None,
    extend_check: bool = True,
    samples: tuple | None = None,
) -> ConditionReport:
    """Fitted constant for one kernel condition over a sample plan.

    mode: ``size``, ``smooth_x``, ``smooth_y`` or ``log_ratio``.  Reports
    max |kernel expression| / reference envelope (A = 1).  With
    ``extend_check`` the plan is rerun with a 10x larger range and the
    growth of the max beyond 1.2x flags an unbounded ratio.

    ``samples`` optionally supplies explicit (x, y, h) arrays for the smooth
    modes; these are validated against |h| < |x-y|/2 and a GeometryError is
    raised on violation.
    """
    plan = plan or SamplePlan()
    if samples is not None:
        x, y, h = (np.asarray(a, dtype=float) for a in samples)
        r = np.linalg.norm(x - y, axis=-1)
        habs = np.linalg.norm(h, axis=-1)
        if np.any(habs >= r / 2.0):
            raise GeometryError("sample violates |h| < |x-y|/2")
        num = np.abs(_eval_two_point(k, x, y) - _eval_two_point(k, x + h, y))
        den = _envelope_linear(k, x, y, r) * k.phi_mod(habs / (1.0 + r))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
        i = int(np.argmax(ratio))
        return ConditionReport(
            float(ratio[i]), (float(r[i]), float(habs[i])), int(ratio.size), False
        )

    mr, loc, cnt, rinf = _max_ratio_once(k, mode, plan, gamma, plan.r_max)
    growth = None
    if extend_check:
        mr_ext, loc_ext, cnt2, rinf2 = _max_ratio_once(
            k, mode, plan, gamma, plan.r_max * 10.0
        )
        growth = mr_ext / mr if mr > 0 else (math.inf if mr_ext > 0 else 1.0)
        cnt += cnt2
        rinf = rinf or rinf2
        if mr_ext > mr:
            mr, loc = mr_ext, loc_ext
    flagged = growth is not None and growth > 1.2
    return ConditionReport(mr, loc, cnt, flagged, growth, rinf)
