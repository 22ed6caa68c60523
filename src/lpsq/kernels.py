"""Kernel constructors and numerical verification of their decay/regularity.

Kernels come in three kinds: a convolution profile phi(u), a general linear
kernel psi(x, y), or a bilinear kernel psi(x, y1, y2).  A bilinear kernel
that depends only on x - y1 and x - y2 also carries its profile Phi(u, v),
psi(x, y1, y2) = Phi(x - y1, x - y2), which the bilinear FFT path of
`operators.psi_t_apply` samples.

`kernel_condition_check` is one sampler for every kind: a geometry per kind
yields blocks of log-spaced sample points (y = x - r e, or y_i = x - r_i e_i)
with their separation, increment reach and size envelope (maximal-function
factor times modulus factor, constant 1), and one loop divides the kernel, or
its increment as x or the first y moves, by the envelope.  The max ratio is
the empirically fitted constant A.

A ``csv:`` profile is read by `grids.read_table`, the one CSV reader.

Coordinate convention: callables take one positional array per coordinate,
so a 1-D profile is phi(x), a 2-D one phi(x1, x2), a 1-D bilinear kernel
psi(x, y1, y2), and so on.  All are vectorized over numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, ParameterError
from .grids import read_table
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
    """A kernel with its size constant A and moduli w and phi.

    A convolution or bilinear kernel may declare its ``parity``, one sign
    s_i per profile coordinate (n of them for a convolution profile, n m = 2n for a
    bilinear Phi(u, v)) with profile(u) = s_i profile(u') for u' the point u
    with coordinate i negated.  The lattice sampler of `operators`
    (`_profile_block`) then evaluates one quadrant of a convolution profile
    and mirrors it; the bilinear FFT path (`_pair_rows`) reads only the
    point reflection Phi(-u, -v) = sigma Phi(u, v), sigma the product of the
    signs, and samples each offset row of |d| once for both signs of d.
    The ``ex`` kernels and ``bi1`` are odd in the first coordinate and even
    in the others; None (``csv:`` profiles, kernels built by hand) declares
    nothing and is sampled everywhere.
    """

    kind: str  # "convolution" | "linear" | "bilinear"
    n: int
    A: float
    w_mod: ModulusOfContinuity
    phi_mod: ModulusOfContinuity
    profile: Callable | None = None  # phi(u); bilinear: Phi(x - y1, x - y2)
    psi: Callable | None = None
    name: str = ""
    parity: tuple | None = None  # one sign per profile coordinate, or None
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
        if self.parity is not None:
            if self.kind == "linear":
                raise ParameterError(
                    "only a convolution kernel or a bilinear kernel declares a parity")
            # a tuple keeps the kernel hashable
            dims = self.n * self.m
            if not isinstance(self.parity, tuple) or len(self.parity) != dims:
                raise ParameterError(
                    f"parity needs a tuple of {dims} sign(s), got {self.parity!r}")
            # a bool could be read as "odd", which is the sign -1, not True
            if not all(type(s) is int and s in (-1, 1) for s in self.parity):
                raise ParameterError(
                    f"parity entries must be the ints -1 or 1, got {self.parity!r}")

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
    samples_checked: int
    flagged: bool
    growth_ratio: float


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

    All three are odd in x1 and even in the other coordinates, which their
    ``parity`` declares.
    """
    kappa = float(params.get("kappa", 0.0))
    odd_x1 = (-1,) + (1,) * (n - 1)
    if kernel_id == "ex1":
        if not kappa > 1.0:
            raise ParameterError("ex1 requires kappa > 1")
        w = phi = log_modulus(kappa)
        return KernelSpec("convolution", n, 1.0, w, phi, profile=_sin_log_profile(kappa, n),
                          name=f"ex1:kappa={kappa:g}", parity=odd_x1)
    if kernel_id == "ex2":
        beta = float(params.get("beta", 0.0))
        w, phi = logsplit_moduli(kappa, beta)  # enforces the strict parameter set
        return KernelSpec("convolution", n, 1.0, w, phi, profile=_sin_log_profile(kappa, n),
                          name=f"ex2:kappa={kappa:g},beta={beta:g}", parity=odd_x1)
    if kernel_id == "ex3":
        if not kappa > 2.0:
            raise ParameterError("ex3 requires kappa > 2")
        w = phi = log_modulus(kappa)
        return KernelSpec("convolution", n, 1.0, w, phi, profile=_deriv_log_profile(kappa, n),
                          name=f"ex3:kappa={kappa:g}", parity=odd_x1)
    raise ConfigError(f"unknown example kernel id {kernel_id!r}")


def bilinear_example_kernel(kappa: float = 3.0, n: int = 1) -> KernelSpec:
    """Bilinear kernel with joint decay in |x-y1| + |x-y2|.

    psi(x, y1, y2) = sin(x1-y1_1) (1+s2)^{-n} log^{-kappa}(2+s2) with
    s2 = |x-y1|^2 + |x-y2|^2, so |psi| <= 4^n (1+|x-y1|+|x-y2|)^{-2n}
    w(1/(1+...)) with w = phi = log^{-kappa/2}(2+1/t), split as for ex1: the
    smoothness envelope carries w phi ~ log^{-kappa}, the decay of the
    increments.  Needs kappa > 1 for integrability; the moduli are Dini only
    for kappa > 2.  It depends on x - y1 and x - y2 only: the profile is
    Phi(u, v) = psi(x, x - u, x - v), odd in u_1 and even in the other
    coordinates, as its ``parity`` declares.
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

    w = phi = log_modulus(kappa)
    return KernelSpec("bilinear", n, 1.0, w, phi, profile=profile, psi=psi,
                      name=f"bi1:kappa={kappa:g}", parity=(-1,) + (1,) * (2 * n - 1))


def _csv_profile_kernel(path: str, n: int) -> KernelSpec:
    """The 1-D convolution kernel ``csv:path``: its `grids.read_table` rows
    (x, k(x)) sorted by x, linear between them and 0 past them, with
    ``power:1`` moduli."""
    if n != 1:
        raise ConfigError("CSV convolution profiles are 1-D")
    rows = read_table(path, (2,))
    xs, vs = rows[np.argsort(rows[:, 0])].T
    profile = lambda x: np.interp(x, xs, vs, left=0.0, right=0.0)
    mod = power_modulus(1.0)
    return KernelSpec("convolution", 1, 1.0, mod, mod, profile=profile, name=f"csv:{path}")


def parse_kernel(spec: str, n: int) -> KernelSpec:
    """Kernel from a config id: ``ex1:kappa=3``, ``ex2:kappa=3,beta=1.5``,
    ``ex3:kappa=3``, ``bi1:kappa=3``, ``csv:path`` (1-D, ``power:1`` moduli)."""
    head, _, arg = spec.partition(":")
    if head == "csv":
        return _csv_profile_kernel(arg, n)
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

    def radii(self, r_max):
        return np.geomspace(self.r_min, r_max, self.n_r)

    def h_fracs(self):
        return np.geomspace(1e-3, 0.9, self.n_h)

    def directions(self, n, rng):
        if n == 1:
            return np.array([[1.0], [-1.0]])
        ang = rng.uniform(0.0, 2.0 * math.pi, self.n_dir)
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    def bases(self, n, rng):
        return rng.uniform(-2.0, 2.0, size=(self.n_base, n))


def _linear_blocks(k: KernelSpec, bases, dirs, rs):
    """Per (base, direction): x = b, y = b - r e at the radii r."""
    for b in bases:
        for e in dirs:
            y = b - rs[:, None] * e
            x = np.broadcast_to(b, y.shape)
            dists = np.moveaxis(np.abs(y - x), -1, 0)
            yield (x, y), rs, rs, unit_cube_maximal(*dists) * k.w_mod(1.0 / (1.0 + rs))


def _bilinear_blocks(k: KernelSpec, bases, dirs, rs):
    """Per (base, direction pair): x = b, y_i = b - r_i e_i on the radius grid
    r1 x r2; the separation is r1 + r2, the increment reach max(r1, r2)."""
    r1, r2 = rs[:, None], rs[None, :]
    rsum = r1 + r2
    env = (1.0 + rsum) ** (-k.n * k.m) * k.w_mod(1.0 / (1.0 + rsum))
    for b in bases:
        for e1 in dirs:
            for e2 in dirs:
                y1, y2 = np.broadcast_arrays(b - r1[..., None] * e1, b - r2[..., None] * e2)
                yield (np.broadcast_to(b, y1.shape), y1, y2), rsum, np.maximum(r1, r2), env


def _evaluate(k: KernelSpec, points):
    coords = tuple(c for p in points for c in np.moveaxis(p, -1, 0))
    return k.psi(*coords) if k.kind == "bilinear" else k.two_point(*coords)


_MOVED = {"size": None, "smooth_x": 0, "smooth_y": 1}


def _max_ratio_once(k, mode, plan, r_max):
    """(max ratio, sample count) of one mode at radii up to r_max.

    smooth_x moves x and smooth_y the first y, by h e with e the first plan
    direction and |h| = hf * reach / 2 for each h fraction hf.
    """
    rng = np.random.default_rng(plan.seed)
    bases = plan.bases(k.n, rng)
    dirs = plan.directions(k.n, rng)
    blocks = _bilinear_blocks if k.kind == "bilinear" else _linear_blocks
    moved = _MOVED[mode]
    nums, dens = [], []
    for points, r, reach, env in blocks(k, bases, dirs, plan.radii(r_max)):
        val = _evaluate(k, points)
        if moved is None:
            nums.append(np.abs(val).ravel())
            dens.append(env.ravel())
            continue
        for hf in plan.h_fracs():
            habs = hf * reach / 2.0
            step = list(points)
            step[moved] = points[moved] + habs[..., None] * dirs[0]
            nums.append(np.abs(val - _evaluate(k, step)).ravel())
            dens.append((env * k.phi_mod(habs / (1.0 + r))).ravel())
    num, den = np.concatenate(nums), np.concatenate(dens)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(den > 0.0, num / np.where(den > 0, den, 1.0), 0.0)
    return float(np.max(ratio)), int(ratio.size)


def kernel_condition_check(
    k: KernelSpec, mode: str, plan: SamplePlan | None = None
) -> ConditionReport:
    """Fitted constant for one kernel condition over a sample plan.

    mode: ``size``, ``smooth_x`` or ``smooth_y``.  Reports the max of
    |kernel expression| / reference envelope (A = 1) over the plan and over
    the plan rerun with a 10x larger radius range; a growth of the max
    beyond 1.2x between the two flags an unbounded ratio, and so does a max
    or a growth that is not finite (an inf or NaN kernel value).
    """
    if mode not in _MOVED:
        raise ParameterError(f"unknown mode {mode!r}")
    plan = plan or SamplePlan()
    mr, cnt = _max_ratio_once(k, mode, plan, plan.r_max)
    mr_ext, cnt_ext = _max_ratio_once(k, mode, plan, plan.r_max * 10.0)
    top = float(np.max([mr, mr_ext]))  # NaN when either is
    growth = mr_ext / mr if mr > 0 else (math.inf if mr_ext > 0 else 1.0)
    return ConditionReport(top, cnt + cnt_ext, not (growth <= 1.2 and math.isfinite(top)),
                           growth)
