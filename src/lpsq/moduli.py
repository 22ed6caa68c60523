"""Moduli of continuity and their Dini-type constants.

A modulus of continuity here is an increasing nonnegative function on (0, 1],
extended constantly past 1.  The central quantity is

    dini(w) = integral_0^1 w(t)/t dt + w(1),

computed after the substitution t = e^{ -u }, which removes the 1/t
singularity exactly:  integral_0^1 w(t)/t dt = integral_0^inf w(e^{-u}) du.
The same windowed engine evaluates the auxiliary one-dimensional integrals
and sums that calibrate kernel estimates (items (a)-(e) of the inequality
suite, the ring sum and the far-ring integral).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DivergenceError,
    MonotonicityError,
    ParameterError,
    QuadratureBudgetError,
)

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


@dataclass(frozen=True)
class ModulusOfContinuity:
    """Nonnegative increasing function on (0,1], constant past 1.

    ``fn`` is only ever evaluated on (0, 1]; __call__ clamps larger
    arguments to 1, which enforces the extension convention for every
    modulus, including user-supplied callbacks.  ``fn_exp``, when given,
    evaluates w(e^{-u}) directly so deep tails (u beyond exp underflow)
    stay exact; the built-in constructors supply it.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    declared_increasing: bool = True
    fn_exp: Callable[[np.ndarray], np.ndarray] | None = None

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
    )


def log_modulus(kappa: float) -> ModulusOfContinuity:
    """w(t) = log^{-kappa/2}(2 + 1/t); Dini iff kappa > 2."""
    return ModulusOfContinuity(
        f"log:{kappa:g}",
        lambda t: np.log(2.0 + 1.0 / t) ** (-kappa / 2.0),
        fn_exp=lambda u: _log2p_exp(u) ** (-kappa / 2.0),
    )


def logsplit_moduli(kappa: float, beta: float):
    """The pair (w, phi) = (log^{beta-kappa}(1+1/t), log^{-beta}(1+1/t))."""
    if not (kappa > 2.0 and beta > 1.0 and kappa - beta > 1.0):
        raise ParameterError(
            f"logsplit needs kappa > 2, beta > 1, kappa - beta > 1; "
            f"got kappa={kappa}, beta={beta}"
        )
    w = ModulusOfContinuity(
        f"logsplit:{kappa:g},{beta:g}",
        lambda t: np.log1p(1.0 / t) ** (beta - kappa),
        fn_exp=lambda u: _log1p_exp(u) ** (beta - kappa),
    )
    phi = ModulusOfContinuity(
        f"logsplit-phi:{kappa:g},{beta:g}",
        lambda t: np.log1p(1.0 / t) ** (-beta),
        fn_exp=lambda u: _log1p_exp(u) ** (-beta),
    )
    return w, phi


def table_modulus(path: str, name: str | None = None) -> ModulusOfContinuity:
    """Modulus interpolated linearly from a two-column CSV (t, w(t))."""
    ts, vs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
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
    tail_estimate: float = 0.0

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
            return QuadratureResult(total + tail, True, False, levels, tail)
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


def dini_integral(
    w: ModulusOfContinuity,
    tol: float = 1e-8,
    log_weight: bool = False,
    max_doublings: int = 60,
) -> QuadratureResult:
    """Truncated integral_0^1 w(t)/t dt, optionally with the log(1/t) weight.

    In the u = log(1/t) variable this is integral_0^inf w(e^{-u}) du
    (times u when log_weight).  The result carries the per-doubling
    truncated values so callers can witness divergence directly.
    """
    if log_weight:
        g = lambda u: u * float(w.at_exp(u))
    else:
        g = lambda u: float(w.at_exp(u))
    return _windowed_integral(g, tol, max_doublings=max_doublings)


def log_dini_integral(w: ModulusOfContinuity, tol: float = 1e-8, **kw) -> QuadratureResult:
    return dini_integral(w, tol, log_weight=True, **kw)


def dini_constant(w: ModulusOfContinuity, tol: float = 1e-8) -> float:
    """integral_0^1 w(t)/t dt + w(1), with absolute error <= tol.

    Raises MonotonicityError on a failed increasing spot-check,
    DivergenceError when the truncated integral keeps growing, and
    QuadratureBudgetError (carrying the partial value) when the doubling
    budget runs out before the tail test passes.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
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
    return res.value + float(w(1.0))


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------


@dataclass
class SuiteItem:
    name: str
    lhs: float
    reference: float
    ratio: float


def _halfline_integral(g, tol: float) -> QuadratureResult:
    return _windowed_integral(g, tol)


def dini_inequality_suite(
    w: ModulusOfContinuity,
    alpha: float = 1.0,
    n: int = 1,
    ell: float = 1.0,
    m_shift: int = 2,
    tol: float = 1e-8,
) -> dict[str, SuiteItem]:
    """Numerically evaluate the auxiliary Dini estimates as fitted ratios.

    Items (a)-(e) plus the ring sum and the far-ring integral.  Each entry
    reports the truncated left-hand side, the reference right-hand side
    (the known bound with implicit constant 1), and lhs/reference.

    All integrals are reduced to one-dimensional u-substituted forms; the
    ring sum collapses to a k-independent radial integral times an exact
    geometric factor, so its tail is exact.
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

    val = _halfline_integral(lambda u: ga(-u), tol).value + _halfline_integral(ga, tol).value
    add("a", math.sqrt(val), dini)

    # (b)  int_0^inf [ (t+1)^{-n} w((1+alpha) t) ]^2 dt/t   vs  log(2+alpha) dini^2
    def gb(v):
        lp = log1p_exp(v)
        return (math.exp(-n * lp) * float(w.at_exp(-v - math.log(1.0 + alpha)))) ** 2

    val = _halfline_integral(lambda u: gb(-u), tol).value + _halfline_integral(gb, tol).value
    add("b", val, la * dini**2)

    # (c)  sum_{k>=1} w((1+alpha)/2^{k+1})   vs  log(2+alpha) dini
    # truncated at k_max; the remainder is bounded by the integral
    # comparison (1/log 2) int_0^{a} w(s)/s ds with a = (1+alpha)/2^{k_max+1}.
    k_max = 200
    ks = np.arange(1, k_max + 1, dtype=float)
    s = float(np.sum(w((1.0 + alpha) * np.exp2(-(ks + 1.0)))))
    a_tail = (1.0 + alpha) / 2.0 ** (k_max + 1)
    tail_res = _halfline_integral(
        lambda u: float(w.at_exp(u - math.log(a_tail))), max(tol, 1e-7)
    )
    if tail_res.diverged or not tail_res.converged:
        raise DivergenceError("suite item c: tail bound fails", partial=s, item="c")
    add("c", s + tail_res.value / math.log(2.0), la * dini)

    # (d)  int_0^alpha w(t)/t dt   vs  log(2+alpha) dini
    res = _halfline_integral(lambda u: float(w.at_exp(u - math.log(alpha))), tol)
    if res.diverged:
        raise DivergenceError("suite item d diverged", partial=res.value, item="d")
    add("d", res.value, la * dini)

    # (e)  dini(w)  vs  dini(w^{1/m})^m; the root may fail the Dini
    # condition (then the inequality is trivial and the reference is inf)
    root = ModulusOfContinuity(
        f"{w.name}^(1/{m_shift})",
        lambda t: np.asarray(w.fn(t)) ** (1.0 / m_shift),
        fn_exp=None if w.fn_exp is None
        else (lambda u: np.asarray(w.fn_exp(u)) ** (1.0 / m_shift)),
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
    two_m = 2.0**m_shift

    def ring_integrand(v):
        wv = float(w.at_exp(v - math.log(two_m)))
        if n == 1:
            return 2.0 * wv
        return 2.0 * math.pi * wv * (1.0 - math.exp(-v))

    res = _halfline_integral(ring_integrand, tol)
    if res.diverged or not res.converged:
        raise DivergenceError(
            "suite item ring_sum diverged", partial=res.value, item="ring_sum"
        )
    geo = 2.0 ** (-n / 2.0) / (1.0 - 2.0 ** (-n / 2.0))
    add("ring_sum", geo * res.value, dini)

    # far ring: int_{|x-c|>32 n ell} |x-c|^{-n} w(2 sqrt(n) ell / |x-c|) dx
    # radialized and substituted s = 2 sqrt(n) ell / r: a w-Dini integral on
    # (0, s_max] with s_max = sqrt(n)/(16 n); independent of ell.
    s_max = 2.0 * math.sqrt(n) / (32.0 * n)
    surf = 2.0 if n == 1 else 2.0 * math.pi
    res = _halfline_integral(lambda u: float(w.at_exp(u - math.log(s_max))), tol)
    if res.diverged or not res.converged:
        raise DivergenceError(
            "suite item far_ring diverged", partial=res.value, item="far_ring"
        )
    add("far_ring", surf * res.value, dini)

    del ell  # scale-invariant; kept in the signature for interface parity
    return out
