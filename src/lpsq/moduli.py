"""Moduli of continuity and their Dini-type constants.

A modulus of continuity here is an increasing nonnegative function on (0, 1],
extended constantly past 1.  The central quantity is

    dini(w) = integral_0^1 w(t)/t dt + w(1),

computed after the substitution t = e^{-u}, which removes the 1/t
singularity exactly:  integral_0^1 w(t)/t dt = integral_0^inf w(e^{-u}) du.

Every modulus carries its tail law, w(e^{-v}) in closed form up to a
bracketed error for v >= start, and its integrals past a cut come from it:

- ``power:delta`` is e^{-delta v} exactly, from v = 0.
- ``log:kappa`` is (v + eps)^{-p} with p = kappa/2 and 0 < eps <= 2 e^{-v},
  and the ``logsplit`` pair is (v + eps)^{-q} with 0 < eps <= e^{-v}, from
  v = 0.  Past U the integrand lies between (v + eps_max(U))^{-p} and
  v^{-p}, whose integrals agree to about e^{-U} relative.
- a ``csv:`` table (`grids.read_table`), linear between its knots, is
  c + beta t below its least positive knot t_lo, so c + beta e^{-v}
  exactly from v = log(1/t_lo).

There is one quadrature engine, `dini_integral`: a composite Simpson rule
on the body [v0, U], U = max(v0 + 40, start) (one vectorised evaluation),
plus the closed-form bracket of the tail law past U; the body is empty
where the bracket alone meets the tolerance, as for the power modulus.
The verdicts are the law's, hence exact: (v + eps)^{-p} is Dini iff p > 1
and log-Dini iff p > 2, and a table is Dini iff c = w(0+) = 0.  With a
bounded increasing weight the same engine takes every integral of the
inequality suite.
"""

from __future__ import annotations

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
from .grids import read_table

__all__ = [
    "ModulusOfContinuity",
    "power_modulus",
    "log_modulus",
    "logsplit_moduli",
    "table_modulus",
    "parse_modulus",
    "dini_constant",
    "dini_integral",
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
    """Tail law w(e^{-v}) = floor + scale e^{-rate v} for v >= start, exact:
    the power modulus t^rate, and a table (rate 1), c + beta t below its
    least positive knot.  Dini and log-Dini iff the floor is 0; the
    integrals of a law with a floor diverge, so they are never taken."""

    rate: float
    scale: float = 1.0
    floor: float = 0.0
    start: float = 0.0

    def finite(self, log_weight: bool) -> bool:
        return self.floor == 0.0

    def integral(self, a: float, b: float, log_weight: bool = False):
        """(lo, hi) = integral_a^b w(e^{-v}) dv, times v when log_weight;
        start <= a <= b <= inf, no floor."""
        r = self.rate

        def minus_primitive(v):
            if v == math.inf:
                return 0.0
            e = math.exp(-r * v)
            return (v / r + 1.0 / r**2) * e if log_weight else e / r

        val = self.scale * (minus_primitive(a) - minus_primitive(b))
        return val, val

    def power(self, q: float) -> "ExpTail":
        """The law of w^q (with a floor, only its divergent verdict holds)."""
        return ExpTail(self.rate * q, self.scale**q, self.floor**q, self.start)


@dataclass(frozen=True)
class LogTail:
    """Tail law w(e^{-v}) = (v + eps(v))^{-p} with 0 < eps(v) <= c e^{-v},
    for v >= 0.

    On v >= a, (v + c e^{-a})^{-p} <= w(e^{-v}) <= v^{-p}, and both ends
    integrate in closed form.  Dini iff p > 1, log-Dini iff p > 2.
    """

    p: float
    c: float
    start = 0.0

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

    def power(self, q: float) -> "LogTail":
        """The law of w^q."""
        return LogTail(self.p * q, self.c)


@dataclass(frozen=True)
class ModulusOfContinuity:
    """Nonnegative increasing function on (0,1], constant past 1.

    ``fn`` is only ever evaluated on (0, 1]; __call__ clamps larger
    arguments to 1, which enforces the extension convention.  ``fn_exp``
    evaluates w(e^{-u}) for u >= 0 directly, so deep tails (u beyond exp
    underflow) stay exact, and ``tail`` is the closed-form law of w(e^{-v})
    that the Dini integrals use past their cut.  ``kinks`` are the v > 0
    where w(e^{-v}) is not smooth (a table's knots), at which the
    quadrature body is split.  `dini_constant` memoizes its results per tol
    on the modulus (successes only).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    fn_exp: Callable[[np.ndarray], np.ndarray]
    tail: ExpTail | LogTail
    kinks: tuple = ()
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
        out = np.asarray(self.fn_exp(np.maximum(u, 0.0)), dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    def power(self, q: float) -> "ModulusOfContinuity":
        """w^q, with the law of w^q as its tail."""
        return ModulusOfContinuity(
            f"{self.name}^{q:g}",
            lambda t: np.asarray(self.fn(t)) ** q,
            lambda u: np.asarray(self.fn_exp(u)) ** q,
            self.tail.power(q),
            self.kinks,
        )


def _check_monotone(w: ModulusOfContinuity) -> None:
    """Spot-check monotonicity on 256 geometric sample points in (0, 1]."""
    t = np.geomspace(1e-12, 1.0, 256)
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


def table_modulus(path: str) -> ModulusOfContinuity:
    """Modulus ``csv:<path>``, linear between the rows (t, w(t)) of a CSV
    table (`grids.read_table`: finite numbers, an optional header).

    Knots need t > 0, but for a leading (0, w(0+)) row.  Below its least
    positive knot t_lo the table is c + beta t, with c = w(0+) (the first
    value, and beta = 0, when there is no t = 0 row), so its tail law is
    c + beta e^{-v} from v = log(1/t_lo).  It is increasing iff its knot
    values do not decrease, which is checked exactly.
    """
    name = f"csv:{path}"
    table = read_table(path, (2,))
    if len(table) < 2:
        raise ConfigError(f"table modulus {path!r} needs at least two rows")
    ts, vs = table[np.lexsort(table.T[::-1])].T  # by t, then by w
    if ts[0] < 0.0 or np.any(ts[1:] <= 0.0):
        raise ConfigError(f"table modulus {path!r}: knots need t > 0, but for a "
                          f"leading (0, w(0+)) row")
    if vs[0] < 0.0:
        raise MonotonicityError(f"modulus {name!r} takes negative values")
    dv = np.diff(vs)
    if np.any(dv < 0.0):
        i = int(np.argmin(dv))
        raise MonotonicityError(
            f"modulus {name!r} decreases between t={ts[i]:.6g} and t={ts[i + 1]:.6g}"
        )
    k = int(ts[0] == 0.0)  # the least positive knot
    law = ExpTail(1.0, float((vs[k] - vs[0]) / ts[k]), float(vs[0]),
                  max(-math.log(ts[k]), 0.0))
    return ModulusOfContinuity(name, lambda t: np.interp(t, ts, vs),
                               lambda u: np.interp(np.exp(-u), ts, vs), law,
                               tuple(-np.log(ts[(ts > 0.0) & (ts < 1.0)])))


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


@dataclass
class QuadratureResult:
    """Outcome of `dini_integral`: the value, or on divergence the integral
    through the body cut."""

    value: float
    converged: bool
    diverged: bool

    def __float__(self):
        return self.value


_CUT = 40.0  # length of the body [v0, v0 + _CUT] in v = log(1/t)
_PANELS = 4000  # Simpson panels on the body: 8,001 points
_MAX_PANELS = 64000


def _simpson_body(g, a: float, b: float, tol: float, kinks=()):
    """Composite Simpson on [a, b] for a vectorised g, split at its kinks
    in (a, b) into smooth pieces: (panel integrals, error estimate).  A
    piece of length L gets an even number of panels, about m L / (b - a),
    and m panels in all; the estimate is |S_h - S_2h| / 15 from the same
    samples, and m doubles, up to _MAX_PANELS, while it exceeds tol."""
    edges = np.array([a, *sorted(k for k in kinks if a < k < b), b])
    m = _PANELS
    while True:
        counts = 2 * np.maximum(np.rint(m * np.diff(edges) / (2.0 * (b - a))), 1).astype(int)
        x = np.concatenate([np.linspace(e0, e1, 2 * c + 1)[:-1]
                            for e0, e1, c in zip(edges, edges[1:], counts)] + [[b]])
        y = np.asarray(g(x), dtype=float)
        h = np.repeat(np.diff(edges) / (2 * counts), counts)
        panels = h / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2])
        coarse = 2.0 * h[::2] / 3.0 * (y[:-4:4] + 4.0 * y[2:-2:4] + y[4::4])
        err = abs(float(panels.sum()) - float(coarse.sum())) / 15.0
        if err <= tol or m >= _MAX_PANELS:
            return panels, err
        m *= 2


def dini_integral(
    w: ModulusOfContinuity,
    tol: float = 1e-8,
    log_weight: bool = False,
    v0: float = 0.0,
    weight: Callable[[np.ndarray], np.ndarray] | None = None,
) -> QuadratureResult:
    """integral_{v0}^inf F(v) w(e^{-v}) dv for v0 >= 0, with F = 1, v
    (log_weight) or ``weight``, a vectorised increasing function with
    values in (0, 1].  With F = 1 this is the Dini integral of w on
    (0, e^{-v0}] in v = log(1/t), and with F = v its log-Dini integral.

    The body [v0, U] is one `_simpson_body`, and past U the tail law's
    bracket, its lower end times weight(U), gives the rest.  U is v0
    itself where the law holds from v0 and that bracket already meets tol,
    else max(v0 + _CUT, start).  The verdict is the law's: a divergent
    tail is ``diverged``, and ``value`` is then the integral through U.
    """
    law = w.tail
    finite = law.finite(log_weight)

    def bracket(a):
        lo, hi = law.integral(a, math.inf, log_weight)
        return (lo if weight is None else float(weight(a)) * lo), hi

    cut, err, body = v0, 0.0, 0.0
    lo, hi = bracket(v0) if finite and v0 >= law.start else (0.0, math.inf)
    if hi - lo > tol / 4.0:
        cut = max(v0 + _CUT, law.start)
        if log_weight:
            g = lambda v: v * w.at_exp(v)
        elif weight is None:
            g = w.at_exp
        else:
            g = lambda v: weight(v) * w.at_exp(v)
        panels, err = _simpson_body(g, v0, cut, tol / 2.0, w.kinks)
        body = float(np.cumsum(panels)[-1])
    if not finite:
        return QuadratureResult(body, False, True)
    lo, hi = bracket(cut)
    return QuadratureResult(body + 0.5 * (lo + hi), err + 0.5 * (hi - lo) <= tol, False)


def dini_constant(w: ModulusOfContinuity, tol: float = 1e-8) -> float:
    """integral_0^1 w(t)/t dt + w(1), with absolute error <= tol.

    The integral is a composite Simpson body on [0, U] in u = log(1/t),
    U = 40 or the start of a table's tail law, plus the closed-form tail
    past it (`dini_integral`), whose bracket is far below tol; the power
    modulus t^delta gives 1/delta + 1 exactly.  The verdict comes from the
    tail law: log^{-p}-type decay is Dini iff p > 1, so ``log:kappa`` is
    Dini iff kappa > 2, and a table iff w(0+) = 0.

    Raises MonotonicityError on a failed increasing spot-check,
    DivergenceError when the tail law diverges (carrying the integral
    through the body cut), and QuadratureBudgetError (carrying the partial
    value) when the tolerance is not met within the refinement budget.
    """
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
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
) -> dict[str, SuiteItem]:
    """Numerically evaluate the auxiliary Dini estimates as fitted ratios.

    Items (a)-(e) plus the ring sum, the far-ring integral and the log
    ratio.  Each entry reports the truncated left-hand side, the reference
    right-hand side (the known bound with implicit constant 1), and
    lhs/reference.  The log ratio (`_log_ratio_max`, reference 1) reads no
    modulus; a growth of its max beyond 1.2x as the radius range goes from
    1e3 to 1e4 is a DivergenceError.

    Every integral is restated in u = log(1/s) for the argument s of w:
    the part where s >= 1 (w = w(1)) is closed-form, the rest one
    `dini_integral` with a bounded increasing weight.  The ring sum
    collapses to a k-independent radial integral times an exact geometric
    factor.  The ring and far-ring items do not depend on the cube side
    ell, so it is not a parameter.  Integrals meet tol 1e-8 (item (c)'s
    tail 1e-7).
    """
    if alpha < 1.0:
        raise ParameterError("alpha must be >= 1")
    if n not in (1, 2):
        raise ParameterError("dimension must be 1 or 2")

    dini = dini_constant(w)
    la = math.log(2.0 + alpha)
    w1 = float(w(1.0))
    out: dict[str, SuiteItem] = {}

    def add(name, lhs, ref):
        if not math.isfinite(lhs):
            raise DivergenceError(f"suite item {name} diverged", partial=lhs, item=name)
        out[name] = SuiteItem(name, lhs, ref, lhs / ref if ref > 0 else math.inf)

    def integral(name, mod=w, tol=1e-8, **kw):
        res = dini_integral(mod, tol, **kw)
        if res.diverged or not res.converged:
            raise DivergenceError(f"suite item {name} diverged", partial=res.value,
                                  item=name)
        return res.value

    def h_tail(t0):
        """integral_{t0}^inf (1+t)^{-2n} dt/t"""
        return math.log1p(1.0 / t0) - sum(1.0 / (k * (1.0 + t0) ** k) for k in range(1, 2 * n))

    # (a)  ( int_0^inf [ (1+t)^{-n} w(4t/(t+1)) ]^2 dt/t )^{1/2}   vs  dini
    # s = 4t/(1+t) = e^{-u} on t < 1/3:  (1 - s/4)^{2n-1} w(s)^2 ds/s
    sq = w.power(2.0)
    val = w1**2 * h_tail(1.0 / 3.0) + integral(
        "a", sq, weight=lambda u: (1.0 - np.exp(-u) / 4.0) ** (2 * n - 1))
    add("a", math.sqrt(val), dini)

    # (b)  int_0^inf [ (t+1)^{-n} w((1+alpha) t) ]^2 dt/t   vs  log(2+alpha) dini^2
    # s = (1+alpha) t = e^{-u} on t < 1/(1+alpha):  (1 + s/(1+alpha))^{-2n} w(s)^2 ds/s
    val = w1**2 * h_tail(1.0 / (1.0 + alpha)) + integral(
        "b", sq, weight=lambda u: (1.0 + np.exp(-u) / (1.0 + alpha)) ** (-2 * n))
    add("b", val, la * dini**2)

    # (c)  sum_{k>=1} w((1+alpha)/2^{k+1})   vs  log(2+alpha) dini
    # truncated at k_max; the remainder is bounded by the integral
    # comparison (1/log 2) int_0^{a} w(s)/s ds with a = (1+alpha)/2^{k_max+1}.
    k_max = 200
    ks = np.arange(1, k_max + 1, dtype=float)
    s = float(np.sum(w((1.0 + alpha) * np.exp2(-(ks + 1.0)))))
    a_tail = (1.0 + alpha) / 2.0 ** (k_max + 1)
    rest = integral("c", tol=1e-7, v0=-math.log(a_tail))
    add("c", s + rest / math.log(2.0), la * dini)

    # (d)  int_0^alpha w(t)/t dt   vs  log(2+alpha) dini
    add("d", w1 * math.log(alpha) + integral("d"), la * dini)

    # (e)  dini(w)  vs  dini(w^{1/m})^m, m = 2; the root may fail the Dini
    # condition (then the inequality is trivial and the reference is inf).
    # The root of a tail law is a tail law (log:kappa -> log:kappa/m), so
    # that verdict is exact.
    root = w.power(0.5)
    root_res = dini_integral(root)
    ref_e = (root_res.value + float(root(1.0))) ** 2 if root_res.converged else math.inf
    out["e"] = SuiteItem("e", dini, ref_e, dini / ref_e if math.isfinite(ref_e) else 0.0)

    # ring sum: sum_k 2^{-kn/2} J_n(m), m = 2, J scale-invariant in ell and k.
    # n=1: J = 2 int_0^inf w(2^m e^{-v}) dv
    # n=2: J = 2 pi int_0^inf w(2^m e^{-v}) (1 - e^{-v}) dv
    # w = w(1) on v < sm = m log 2; past it v = sm + u
    surf = 2.0 if n == 1 else 2.0 * math.pi
    sm = 2 * math.log(2.0)
    if n == 1:
        val = w1 * sm + integral("ring_sum")
    else:
        val = w1 * (sm + math.expm1(-sm)) + integral(
            "ring_sum", weight=lambda u: -np.expm1(-(u + sm)))
    geo = 2.0 ** (-n / 2.0) / (1.0 - 2.0 ** (-n / 2.0))
    add("ring_sum", geo * surf * val, dini)

    # far ring: int_{|x-c|>32 n ell} |x-c|^{-n} w(2 sqrt(n) ell / |x-c|) dx
    # radialized and substituted s = 2 sqrt(n) ell / r: a w-Dini integral on
    # (0, s_max] with s_max = sqrt(n)/(16 n); independent of ell.
    s_max = 2.0 * math.sqrt(n) / (32.0 * n)
    add("far_ring", surf * integral("far_ring", v0=-math.log(s_max)), dini)

    lr, lr_ext = _log_ratio_max(1e3), _log_ratio_max(1e4)
    if lr_ext / lr > 1.2:
        raise DivergenceError("suite item log_ratio diverged", partial=lr_ext,
                              item="log_ratio")
    add("log_ratio", max(lr, lr_ext), 1.0)
    return out
