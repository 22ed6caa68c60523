"""Moduli of continuity and their Dini-type constants.

A modulus of continuity here is an increasing nonnegative function on (0, 1],
extended constantly past 1.  The central quantity is

    dini(w) = integral_0^1 w(t)/t dt + w(1),

computed after the substitution t = e^{-u}, which removes the 1/t
singularity exactly:  integral_0^1 w(t)/t dt = integral_0^inf w(e^{-u}) du.

Each built-in modulus carries its tail law, w(e^{-v}) in closed form up to
a bracketed error, and its integrals past a cut U come from it:

- ``power:delta`` is e^{-delta v} exactly, so its integrals are exact.
- ``log:kappa`` is (v + eps)^{-p} with p = kappa/2 and 0 < eps <= 2 e^{-v},
  and the ``logsplit`` pair is (v + eps)^{-q} with 0 < eps <= e^{-v}.  Past
  U the integrand lies between (v + eps_max(U))^{-p} and v^{-p}, whose
  integrals agree to about e^{-U} relative.

An integral of such a modulus is one composite Simpson rule on the body
[0, U], U = 40 (one vectorised evaluation), plus the bracketed tail; the
body is empty where the bracket alone meets the tolerance, as for the power
modulus.  The verdicts come from the exponent: (v + eps)^{-p} is Dini iff
p > 1 and log-Dini iff p > 2.  The same path takes the shifted Dini
integrals of the inequality suite (items c, d, the ring sum and the far
ring).  Table moduli and user callbacks have no tail law: they use the
windowed engine, adaptive Simpson on doubling windows with heuristic
convergence and divergence tests.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    MonotonicityError,
    ParameterError,
    QuadratureBudgetError,
)
from .grids import read_text

__all__ = [
    "ModulusOfContinuity",
    "power_modulus",
    "log_modulus",
    "logsplit_moduli",
    "table_modulus",
    "parse_modulus",
    "dini_constant",
    "dini_integral",
    "log_dini_integral",
    "dini_inequality_suite",
    "SuiteItem",
]


def _pow_primitive(p: float, v: float) -> float:
    """An antiderivative of v^{-p} on v > 0, taking its limits at 0 and inf."""
    if v == math.inf:
        return math.inf if p <= 1.0 else 0.0
    if v == 0.0:
        return -math.inf if p >= 1.0 else 0.0
    if p == 1.0:
        return math.log(v)
    return v ** (1.0 - p) / (1.0 - p)


def _pow_integral(p: float, a: float, b: float) -> float:
    """integral_a^b v^{-p} dv, 0 <= a <= b <= inf."""
    return _pow_primitive(p, b) - _pow_primitive(p, a)


@dataclass(frozen=True)
class ExpTail:
    """Tail law w(e^{-v}) = e^{-rate v}, exact: the power modulus t^rate."""

    rate: float

    def finite(self, log_weight: bool) -> bool:
        return True

    def integral(self, a: float, b: float, log_weight: bool = False):
        """(lo, hi) = integral_a^b w(e^{-v}) dv, times v when log_weight."""
        r = self.rate

        def minus_primitive(v):
            if v == math.inf:
                return 0.0
            e = math.exp(-r * v)
            return (v / r + 1.0 / r**2) * e if log_weight else e / r

        val = minus_primitive(a) - minus_primitive(b)
        return val, val

    def root(self, m: int) -> "ExpTail":
        """The law of w^{1/m}."""
        return ExpTail(self.rate / m)


@dataclass(frozen=True)
class LogTail:
    """Tail law w(e^{-v}) = (v + eps(v))^{-p} with 0 < eps(v) <= c e^{-v}.

    On v >= a, (v + c e^{-a})^{-p} <= w(e^{-v}) <= v^{-p}, and both ends
    integrate in closed form.  Dini iff p > 1, log-Dini iff p > 2.
    """

    p: float
    c: float

    def finite(self, log_weight: bool) -> bool:
        return self.p > (2.0 if log_weight else 1.0)

    def integral(self, a: float, b: float, log_weight: bool = False):
        """(lo, hi) bracketing integral_a^b w(e^{-v}) dv, times v when
        log_weight; 0 <= a <= b <= inf, and (inf, inf) on a divergent tail."""
        if b == math.inf and not self.finite(log_weight):
            return math.inf, math.inf
        p, d = self.p, self.c * math.exp(-a)
        if log_weight:
            # v (v + d)^{-p} = (x - d) x^{-p} with x = v + d
            hi = _pow_integral(p - 1.0, a, b)
            lo = _pow_integral(p - 1.0, a + d, b + d) - d * _pow_integral(p, a + d, b + d)
        else:
            hi = _pow_integral(p, a, b)
            lo = _pow_integral(p, a + d, b + d)
        return lo, hi

    def root(self, m: int) -> "LogTail":
        """The law of w^{1/m}."""
        return LogTail(self.p / m, self.c)


@dataclass(frozen=True)
class ModulusOfContinuity:
    """Nonnegative increasing function on (0,1], constant past 1.

    ``fn`` is only ever evaluated on (0, 1]; __call__ clamps larger
    arguments to 1, which enforces the extension convention for every
    modulus, including user-supplied callbacks.  ``fn_exp``, when given,
    evaluates w(e^{-u}) directly so deep tails (u beyond exp underflow)
    stay exact; the built-in constructors supply it, and with it ``tail``,
    the closed-form law of w(e^{-v}) that the Dini integrals use past
    their cut.  `dini_constant` memoizes its results per tol on the modulus
    (successes only).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    fn_exp: Callable[[np.ndarray], np.ndarray] | None = None
    tail: ExpTail | LogTail | None = None
    _dini: dict = field(default_factory=dict, init=False, compare=False,
                        hash=False, repr=False)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t <= 0.0):
            raise ParameterError(f"modulus {self.name!r} evaluated at t <= 0")
        out = np.asarray(self.fn(np.minimum(t, 1.0)), dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    def at_exp(self, u):
        """w(e^{-u}); u may be any real, u <= 0 gives w(1)."""
        u = np.asarray(u, dtype=float)
        if self.fn_exp is not None:
            out = np.asarray(self.fn_exp(np.maximum(u, 0.0)), dtype=float)
        else:
            t = np.exp(-np.minimum(u, 700.0))
            t = np.maximum(t, 1e-300)
            out = np.asarray(self.fn(np.minimum(t, 1.0)), dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def dini_path(self) -> str:
        """How the Dini integrals of this modulus are taken: "exact_tail"
        (body rule plus the closed-form tail) or "windowed"."""
        return "windowed" if self.tail is None else "exact_tail"


def _check_monotone(w: ModulusOfContinuity, samples: int = 256) -> None:
    """Spot-check monotonicity on geometric sample points in (0, 1]."""
    t = np.geomspace(1e-12, 1.0, samples)
    v = w(t)
    if np.any(v < -1e-15):
        raise MonotonicityError(f"modulus {w.name!r} takes negative values")
    dv = np.diff(v)
    if np.any(dv < -1e-12 * max(1.0, float(np.max(np.abs(v))))):
        i = int(np.argmin(dv))
        raise MonotonicityError(
            f"modulus {w.name!r} decreases between t={t[i]:.3e} and t={t[i + 1]:.3e}"
        )


def _log2p_exp(u):
    """log(2 + e^u) without overflow."""
    u = np.asarray(u, dtype=float)
    small = u < 30.0
    return np.where(small, np.log(2.0 + np.exp(np.minimum(u, 30.0))),
                    u + np.log1p(2.0 * np.exp(-np.maximum(u, 30.0))))


def _log1p_exp(u):
    """log(1 + e^u) without overflow."""
    u = np.asarray(u, dtype=float)
    small = u < 30.0
    return np.where(small, np.log1p(np.exp(np.minimum(u, 30.0))),
                    u + np.log1p(np.exp(-np.maximum(u, 30.0))))


def power_modulus(delta: float) -> ModulusOfContinuity:
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"power modulus needs 0 < delta <= 1, got {delta}")
    return ModulusOfContinuity(
        f"power:{delta:g}",
        lambda t: t**delta,
        fn_exp=lambda u: np.exp(-np.minimum(delta * u, 745.0)),
        tail=ExpTail(delta),
    )


def log_modulus(kappa: float) -> ModulusOfContinuity:
    """w(t) = log^{-kappa/2}(2 + 1/t); Dini iff kappa > 2, log-Dini iff
    kappa > 4.  log(2 + e^v) = v + eps with 0 < eps <= 2 e^{-v}."""
    return ModulusOfContinuity(
        f"log:{kappa:g}",
        lambda t: np.log(2.0 + 1.0 / t) ** (-kappa / 2.0),
        fn_exp=lambda u: _log2p_exp(u) ** (-kappa / 2.0),
        tail=LogTail(kappa / 2.0, 2.0),
    )


def logsplit_moduli(kappa: float, beta: float):
    """The pair (w, phi) = (log^{beta-kappa}(1+1/t), log^{-beta}(1+1/t)).

    log1p(e^v) = v + eps with 0 < eps <= e^{-v}."""
    if not (kappa > 2.0 and beta > 1.0 and kappa - beta > 1.0):
        raise ParameterError(
            f"logsplit needs kappa > 2, beta > 1, kappa - beta > 1; "
            f"got kappa={kappa}, beta={beta}"
        )
    w = ModulusOfContinuity(
        f"logsplit:{kappa:g},{beta:g}",
        lambda t: np.log1p(1.0 / t) ** (beta - kappa),
        fn_exp=lambda u: _log1p_exp(u) ** (beta - kappa),
        tail=LogTail(kappa - beta, 1.0),
    )
    phi = ModulusOfContinuity(
        f"logsplit-phi:{kappa:g},{beta:g}",
        lambda t: np.log1p(1.0 / t) ** (-beta),
        fn_exp=lambda u: _log1p_exp(u) ** (-beta),
        tail=LogTail(beta, 1.0),
    )
    return w, phi


def table_modulus(path: str, name: str | None = None) -> ModulusOfContinuity:
    """Modulus interpolated linearly from a two-column CSV (t, w(t))."""
    ts, vs = [], []
    for row in csv.reader(read_text(path).splitlines()):
        if not row or row[0].lstrip().startswith("#"):
            continue
        ts.append(float(row[0]))
        vs.append(float(row[1]))
    order = np.argsort(ts)
    ts = np.asarray(ts, dtype=float)[order]
    vs = np.asarray(vs, dtype=float)[order]
    if ts.size < 2:
        raise ConfigError(f"table modulus {path!r} needs at least two rows")
    m = ModulusOfContinuity(name or f"csv:{path}", lambda t: np.interp(t, ts, vs))
    _check_monotone(m)
    return m


def parse_modulus(spec: str) -> ModulusOfContinuity:
    """Build a modulus from a config id.

    Known forms: ``power:delta``, ``log:kappa``, ``logsplit:kappa,beta``
    (the w part of the pair), ``logsplit-phi:kappa,beta``, ``csv:path``.
    """
    head, _, arg = spec.partition(":")
    try:
        if head == "power":
            return power_modulus(float(arg))
        if head == "log":
            return log_modulus(float(arg))
        if head in ("logsplit", "logsplit-phi"):
            kappa, beta = (float(s) for s in arg.split(","))
            w, phi = logsplit_moduli(kappa, beta)
            return w if head == "logsplit" else phi
        if head == "csv":
            return table_modulus(arg)
    except (ValueError, ParameterError) as exc:
        raise ConfigError(f"bad modulus id {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown modulus id {spec!r}")


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------


def _adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 48) -> float:
    """Adaptive Simpson with Richardson correction on [a, b]."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * eps:
            return left + right + delta / 15.0
        return recurse(x0, xm, f0, fl, f1, left, eps / 2.0, depth - 1) + recurse(
            xm, x2, f1, fr, f2, right, eps / 2.0, depth - 1
        )

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


@dataclass
class QuadratureResult:
    """Windowed-quadrature outcome with the per-doubling truncated values."""

    value: float
    converged: bool
    diverged: bool
    levels: list[float] = field(default_factory=list)  # value at U0 * 2^k

    def __float__(self):
        return self.value


def _windowed_integral(
    g: Callable[[float], float],
    tol: float,
    u0: float = 8.0,
    max_doublings: int = 60,
    grow_limit: float = 1.5,
) -> QuadratureResult:
    """integral_0^inf g(u) du by adaptive Simpson on doubling windows.

    Stops when the monotone window bound and geometric tail extrapolation
    both fall below tol/10.  Flags divergence when the truncated value grows
    by more than ``grow_limit`` between the last two doublings.
    """
    total = _adaptive_simpson(g, 0.0, u0, tol / 4.0)
    levels = [total]
    u = u0
    prev_inc = None
    for _ in range(max_doublings):
        inc = _adaptive_simpson(g, u, 2.0 * u, tol / 8.0)
        u *= 2.0
        total += inc
        levels.append(total)
        # monotone bound for the next window: |g| decreasing => g(u) * u
        window_bound = abs(g(u)) * u
        ratio = inc / prev_inc if prev_inc not in (None, 0.0) else None
        if window_bound < tol / 10.0 or abs(inc) < tol / 20.0:
            tail = 0.0
            if ratio is not None and 0.0 < ratio < 0.95:
                tail = inc * ratio / (1.0 - ratio)
            return QuadratureResult(total + tail, True, False, levels)
        prev_inc = inc
    # budget exhausted: divergence is judged on the final two doublings
    diverged = (
        len(levels) >= 3
        and levels[-3] > 0
        and levels[-2] > 0
        and levels[-1] > grow_limit * levels[-2]
        and levels[-2] > grow_limit * levels[-3]
    )
    return QuadratureResult(total, False, diverged, levels)


_CUT = 40.0  # length of the body [v0, v0 + _CUT] in v = log(1/t)
_PANELS = 4000  # Simpson panels on the body: 8,001 points
_MAX_PANELS = 64000


def _simpson_body(g, a: float, b: float, tol: float):
    """Composite Simpson on [a, b] for a vectorised g: (panel integrals,
    error estimate).  The estimate is |S_h - S_2h| / 15 from the same
    samples; the panels double, up to _MAX_PANELS, while it exceeds tol."""
    m = _PANELS
    while True:
        y = np.asarray(g(np.linspace(a, b, 2 * m + 1)), dtype=float)
        h = (b - a) / (2 * m)
        panels = h / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2])
        coarse = 2.0 * h / 3.0 * (y[:-4:4] + 4.0 * y[2:-2:4] + y[4::4])
        err = abs(float(panels.sum()) - float(coarse.sum())) / 15.0
        if err <= tol or m >= _MAX_PANELS:
            return panels, err
        m *= 2


def _tail_integral(
    w: ModulusOfContinuity,
    tol: float,
    s: float = 0.0,
    log_weight: bool = False,
    damped: bool = False,
    doublings: int = 0,
) -> QuadratureResult:
    """integral_0^inf F(u) w(e^{-(u - s)}) du for a modulus with a tail law,
    with F(u) = 1, u (log_weight, s = 0 only) or 1 - e^{-u} (damped).

    In v = u - s the part v < 0 is w(1) integral_0^s F, in closed form; the
    body [v0, U] from v0 = max(-s, 0) is one `_simpson_body`, and past U the
    tail law's bracket, times the range of F there, gives the rest.  U is
    v0 itself where that bracket already meets tol, else v0 + _CUT.  The
    verdict is the law's: a divergent tail is ``diverged``, whatever the
    truncated values.  ``levels`` are the truncated values at
    v0 + 8 * 2^k, up to the first past U when the integral is finite and
    for k <= ``doublings`` when it diverges.
    """
    law = w.tail
    finite = law.finite(log_weight)
    v0 = max(-s, 0.0)
    head = 0.0
    if s > 0.0:
        head = float(w(1.0)) * (s + math.expm1(-s) if damped else s)

    def bracket(a, b):
        lo, hi = law.integral(a, b, log_weight)
        return (-math.expm1(-(a + s)) * lo if damped else lo), hi

    cut, err, edges, cum = v0, 0.0, None, None
    lo, hi = bracket(v0, math.inf) if finite else (0.0, math.inf)
    if hi - lo > tol / 4.0:
        cut = v0 + _CUT
        if log_weight:
            g = lambda v: v * w.at_exp(v)
        elif damped:
            g = lambda v: -np.expm1(-(v + s)) * w.at_exp(v)
        else:
            g = w.at_exp
        panels, err = _simpson_body(g, v0, cut, tol / 2.0)
        edges = np.linspace(v0, cut, panels.size + 1)
        cum = np.concatenate([[0.0], np.cumsum(panels)])

    def truncated(x):
        val = head
        if cum is not None:
            val += float(np.interp(min(x, cut), edges, cum))
        if x > cut:
            val += 0.5 * sum(bracket(cut, x))
        return val

    levels = []
    for k in range(doublings + 1):
        x = v0 + 8.0 * 2.0**k
        levels.append(truncated(x))
        if finite and x >= cut:
            break
    if not finite:
        return QuadratureResult(levels[-1], False, True, levels)
    lo, hi = bracket(cut, math.inf)
    return QuadratureResult(truncated(math.inf), err + 0.5 * (hi - lo) <= tol, False,
                            levels)


def dini_integral(
    w: ModulusOfContinuity,
    tol: float = 1e-8,
    log_weight: bool = False,
    max_doublings: int = 60,
) -> QuadratureResult:
    """Truncated integral_0^1 w(t)/t dt, optionally with the log(1/t) weight.

    In the u = log(1/t) variable this is integral_0^inf w(e^{-u}) du
    (times u when log_weight).  A modulus with a tail law takes the body
    rule plus its closed-form tail (`_tail_integral`), and its verdict is
    exact; any other the windowed engine.  The result carries the
    per-doubling truncated values at 8 * 2^k so callers can witness
    divergence directly.
    """
    if w.tail is not None:
        return _tail_integral(w, tol, log_weight=log_weight, doublings=max_doublings)
    if log_weight:
        g = lambda u: u * float(w.at_exp(u))
    else:
        g = lambda u: float(w.at_exp(u))
    return _windowed_integral(g, tol, max_doublings=max_doublings)


def log_dini_integral(w: ModulusOfContinuity, tol: float = 1e-8, **kw) -> QuadratureResult:
    return dini_integral(w, tol, log_weight=True, **kw)


def dini_constant(w: ModulusOfContinuity, tol: float = 1e-8) -> float:
    """integral_0^1 w(t)/t dt + w(1), with absolute error <= tol.

    For the built-in moduli the integral is a composite Simpson body on
    [0, 40] in u = log(1/t) plus the closed-form tail past it, whose
    bracket is far below tol; the power modulus t^delta gives 1/delta + 1
    exactly.  Their verdict comes from the exponent: log^{-p}-type decay
    is Dini iff p > 1, so ``log:kappa`` is Dini iff kappa > 2.  Table
    moduli and callbacks take the windowed engine (`dini_integral`).

    Raises MonotonicityError on a failed increasing spot-check,
    DivergenceError when the integral diverges (by the exponent, or for
    the windowed engine when the truncated integral keeps growing), and
    QuadratureBudgetError (carrying the partial value) when the tolerance
    is not met within the refinement budget.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    if tol in w._dini:
        return w._dini[tol]
    _check_monotone(w)
    res = dini_integral(w, tol)
    if res.diverged:
        raise DivergenceError(
            f"Dini integral of {w.name!r} diverges (truncated value {res.value:.6g})",
            partial=res.value,
        )
    if not res.converged:
        raise QuadratureBudgetError(
            f"Dini integral of {w.name!r} did not meet tol={tol:g} within budget "
            f"(partial value {res.value:.6g})",
            partial=res.value,
        )
    w._dini[tol] = res.value + float(w(1.0))
    return w._dini[tol]


def _shifted_dini(w: ModulusOfContinuity, s: float, tol: float,
                  damped: bool = False) -> QuadratureResult:
    """integral_0^inf F(u) w(e^{-(u - s)}) du, F = 1 or 1 - e^{-u} (damped):
    the Dini integral of w on (0, e^s], for the suite items."""
    if w.tail is not None:
        return _tail_integral(w, tol, s, damped=damped)
    if damped:
        return _windowed_integral(
            lambda u: float(w.at_exp(u - s)) * (1.0 - math.exp(-u)), tol)
    return _windowed_integral(lambda u: float(w.at_exp(u - s)), tol)


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------


@dataclass
class SuiteItem:
    name: str
    lhs: float
    reference: float
    ratio: float


def _log_ratio_max(r_max: float) -> float:
    """max of min(1, h^{1/2}) log(2 + (1+r)/h) / log(2 + r) over 48 log-spaced
    r in [1e-2, r_max] and h = c r / 2 for 10 log-spaced c in [1e-3, 0.9]."""
    r = np.geomspace(1e-2, r_max, 48)[:, None]
    h = np.geomspace(1e-3, 0.9, 10)[None, :] * r / 2.0
    return float(np.max(np.minimum(1.0, h**0.5) / np.log(2.0 + r) * np.log(2.0 + (1.0 + r) / h)))


def dini_inequality_suite(
    w: ModulusOfContinuity,
    alpha: float = 1.0,
    n: int = 1,
    m_shift: int = 2,
    tol: float = 1e-8,
) -> dict[str, SuiteItem]:
    """Numerically evaluate the auxiliary Dini estimates as fitted ratios.

    Items (a)-(e) plus the ring sum, the far-ring integral and the log
    ratio.  Each entry reports the truncated left-hand side, the reference
    right-hand side (the known bound with implicit constant 1), and
    lhs/reference.  The log ratio (`_log_ratio_max`, reference 1) reads no
    modulus; a growth of its max beyond 1.2x as the radius range goes from
    1e3 to 1e4 is a DivergenceError.

    All integrals are reduced to one-dimensional u-substituted forms; the
    ring sum collapses to a k-independent radial integral times an exact
    geometric factor, so its tail is exact.  The ring and far-ring items
    do not depend on the cube side ell, so it is not a parameter.
    """
    if alpha < 1.0:
        raise ParameterError("alpha must be >= 1")
    if n not in (1, 2):
        raise ParameterError("dimension must be 1 or 2")
    if m_shift < 1:
        raise ParameterError("m_shift must be a positive integer")

    dini = dini_constant(w, tol=max(min(tol, 1e-6), 1e-8))
    la = math.log(2.0 + alpha)
    out: dict[str, SuiteItem] = {}

    def add(name, lhs, ref):
        if not math.isfinite(lhs):
            raise DivergenceError(f"suite item {name} diverged", partial=lhs, item=name)
        out[name] = SuiteItem(name, lhs, ref, lhs / ref if ref > 0 else math.inf)

    # (a)  ( int_0^inf [ (1+t)^{-n} w(4t/(t+1)) ]^2 dt/t )^{1/2}   vs  dini
    # substitute t = e^v, v over R; evaluated in log space so deep tails
    # (where e^v under/overflows) stay exact.
    def log1p_exp(v):
        return math.log1p(math.exp(v)) if v < 30 else v + math.log1p(math.exp(-v))

    def ga(v):
        lp = log1p_exp(v)
        # w(4 e^v / (1+e^v)) = w(e^{-(lp - v - log 4)})
        return (math.exp(-n * lp) * float(w.at_exp(lp - v - math.log(4.0)))) ** 2

    val = _windowed_integral(lambda u: ga(-u), tol).value + _windowed_integral(ga, tol).value
    add("a", math.sqrt(val), dini)

    # (b)  int_0^inf [ (t+1)^{-n} w((1+alpha) t) ]^2 dt/t   vs  log(2+alpha) dini^2
    def gb(v):
        lp = log1p_exp(v)
        return (math.exp(-n * lp) * float(w.at_exp(-v - math.log(1.0 + alpha)))) ** 2

    val = _windowed_integral(lambda u: gb(-u), tol).value + _windowed_integral(gb, tol).value
    add("b", val, la * dini**2)

    # (c)  sum_{k>=1} w((1+alpha)/2^{k+1})   vs  log(2+alpha) dini
    # truncated at k_max; the remainder is bounded by the integral
    # comparison (1/log 2) int_0^{a} w(s)/s ds with a = (1+alpha)/2^{k_max+1}.
    k_max = 200
    ks = np.arange(1, k_max + 1, dtype=float)
    s = float(np.sum(w((1.0 + alpha) * np.exp2(-(ks + 1.0)))))
    a_tail = (1.0 + alpha) / 2.0 ** (k_max + 1)
    tail_res = _shifted_dini(w, math.log(a_tail), max(tol, 1e-7))
    if tail_res.diverged or not tail_res.converged:
        raise DivergenceError("suite item c: tail bound fails", partial=s, item="c")
    add("c", s + tail_res.value / math.log(2.0), la * dini)

    # (d)  int_0^alpha w(t)/t dt   vs  log(2+alpha) dini
    res = _shifted_dini(w, math.log(alpha), tol)
    if res.diverged:
        raise DivergenceError("suite item d diverged", partial=res.value, item="d")
    add("d", res.value, la * dini)

    # (e)  dini(w)  vs  dini(w^{1/m})^m; the root may fail the Dini
    # condition (then the inequality is trivial and the reference is inf).
    # The root of a tail law is a tail law (log:kappa -> log:kappa/m), so
    # that verdict is exact for the built-in moduli.
    root = ModulusOfContinuity(
        f"{w.name}^(1/{m_shift})",
        lambda t: np.asarray(w.fn(t)) ** (1.0 / m_shift),
        fn_exp=None if w.fn_exp is None
        else (lambda u: np.asarray(w.fn_exp(u)) ** (1.0 / m_shift)),
        tail=None if w.tail is None else w.tail.root(m_shift),
    )
    root_res = dini_integral(root, tol=min(tol, 1e-8), max_doublings=40)
    if root_res.converged and not root_res.diverged:
        ref_e = (root_res.value + float(root(1.0))) ** m_shift
    else:
        ref_e = math.inf
    out["e"] = SuiteItem("e", dini, ref_e, dini / ref_e if math.isfinite(ref_e) else 0.0)

    # ring sum: sum_k 2^{-kn/2} J_n(m), J scale-invariant in ell and k.
    # n=1: J = 2 int_0^inf w(2^m e^{-v}) dv
    # n=2: J = 2 pi int_0^inf w(2^m e^{-v}) (1 - e^{-v}) dv
    surf = 2.0 if n == 1 else 2.0 * math.pi
    res = _shifted_dini(w, m_shift * math.log(2.0), tol, damped=n == 2)
    if res.diverged or not res.converged:
        raise DivergenceError(
            "suite item ring_sum diverged", partial=res.value, item="ring_sum"
        )
    geo = 2.0 ** (-n / 2.0) / (1.0 - 2.0 ** (-n / 2.0))
    add("ring_sum", geo * surf * res.value, dini)

    # far ring: int_{|x-c|>32 n ell} |x-c|^{-n} w(2 sqrt(n) ell / |x-c|) dx
    # radialized and substituted s = 2 sqrt(n) ell / r: a w-Dini integral on
    # (0, s_max] with s_max = sqrt(n)/(16 n); independent of ell.
    s_max = 2.0 * math.sqrt(n) / (32.0 * n)
    res = _shifted_dini(w, math.log(s_max), tol)
    if res.diverged or not res.converged:
        raise DivergenceError(
            "suite item far_ring diverged", partial=res.value, item="far_ring"
        )
    add("far_ring", surf * res.value, dini)

    lr, lr_ext = _log_ratio_max(1e3), _log_ratio_max(1e4)
    if lr_ext / lr > 1.2:
        raise DivergenceError("suite item log_ratio diverged", partial=lr_ext,
                              item="log_ratio")
    add("log_ratio", max(lr, lr_ext), 1.0)
    return out
