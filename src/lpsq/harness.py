"""Verification campaigns: weak-type profiles, aperture scaling, domination,
weighted bounds, and the self-verifying fit reports they produce.

Inequalities with implicit constants are reported as fitted constants with
stability criteria; only exact identities carry hard tolerances.  A
FitReport stores the raw ratios next to the tolerances so pass/fail can be
recomputed from the report alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ParameterError
from .grids import ConeGrid, GridFunction
from .kernels import KernelSpec
from .operators import _cone_levels, _operands, square_function, square_function_multi
from .weights import WeightVector

__all__ = [
    "FitReport",
    "lattice_superlevel_measure",
    "weak_type_profile",
    "aperture_scaling_check",
    "weighted_norm_check",
    "kolmogorov_check",
]


@dataclass
class FitReport:
    name: str
    fitted: dict = field(default_factory=dict)
    samples: list = field(default_factory=list)  # rows of (label, value)
    tolerances: dict = field(default_factory=dict)

    def check_items(self):
        """(label, ok) per declared tolerance; recomputed from stored data."""
        out = []
        for key, (target, tol) in self.tolerances.items():
            val = self.fitted.get(key)
            if val is None:
                out.append((key, False))
            elif target is None:  # finiteness / upper bound in tol
                out.append((key, math.isfinite(val) and (tol is None or val <= tol)))
            else:
                out.append((key, abs(val - target) <= tol))
        return out

    def rows(self):
        yield ("report", self.name)
        for key, val in sorted(self.fitted.items()):
            yield (f"fitted:{key}", val)
        for label, val in self.samples:
            yield (label, val)
        for label, ok in self.check_items():
            yield (f"pass:{label}", int(ok))


def lattice_superlevel_measure(gf: GridFunction, rho: float) -> float:
    """|{x : f(x) > rho}| counting cells whose center value exceeds rho."""
    return float(np.count_nonzero(gf.values > rho)) * gf.h**gf.n


def weak_type_profile(
    sf: GridFunction,
    f_norm: float,
    exponent: float,
    rho_grid,
    refined: tuple | None = None,
) -> FitReport:
    """sup over the rho grid of rho^exponent |{Sf > rho}| / f_norm.

    ``refined`` optionally supplies (Sf, f_norm) at a finer resolution; the
    report then carries the stability ratio between the two sups.
    """
    rho_grid = np.asarray(rho_grid, dtype=float)
    if (rho_grid.size == 0 or not np.all(np.isfinite(rho_grid)) or np.any(rho_grid <= 0)
            or np.any(np.diff(rho_grid) <= 0)):
        raise ParameterError("rho grid must be nonempty, finite, positive and increasing")
    vals = np.array(
        [r**exponent * lattice_superlevel_measure(sf, r) / f_norm for r in rho_grid]
    )
    i = int(np.argmax(vals))
    rep = FitReport(
        "weak_type_profile",
        fitted={"sup": float(vals[i]), "argmax_rho": float(rho_grid[i])},
        samples=[(f"rho={r:g}", float(v)) for r, v in zip(rho_grid, vals)],
    )
    rep.tolerances["sup"] = (None, None)  # finiteness
    if refined is not None:
        sf2, f_norm2 = refined
        vals2 = np.array(
            [r**exponent * lattice_superlevel_measure(sf2, r) / f_norm2 for r in rho_grid]
        )
        s1, s2 = float(vals[i]), float(np.max(vals2))
        ratio = s2 / s1 if s1 > 0 else (1.0 if s2 == 0 else math.inf)
        rep.fitted["stability"] = max(ratio, 1.0 / ratio) if ratio > 0 else math.inf
        rep.tolerances["stability"] = (None, 2.0)
    return rep


# relative tolerance of the L2 aperture identity
_APERTURE_TOL = 0.05


def aperture_scaling_check(
    k: KernelSpec,
    f,
    alphas,
    norm: str,
    cone: ConeGrid,
    method: str | None = None,
) -> FitReport:
    """norm "l2": ||S_a f||_2^2 / ||S_1 f||_2^2 against a^n (`_APERTURE_TOL`
    relative); "weak": the log-log slope of the weak sups over 24 heights
    from peak/200 to the peak, the max of S_a f over the apertures.  The
    output lattice is padded by one cell past the stencil of the top level
    at the widest aperture (its `_cone_levels` radius, alpha_max t_max or
    the cone's max_radius), so every cone section is fully counted.  A
    pair's weak profile takes ||f1||_1 ||f2||_1 and the exponent 1/2.
    """
    fs = _operands(k, f, cone)
    base = fs[0]
    alphas = cone.apertures(alphas)
    want = sorted(set(alphas) | {1.0})
    out_R = base.R + (_cone_levels(base, cone, max(want))[-1].K + 1) * base.h
    ss = square_function_multi(k, fs, cone, want, out_R=out_R, method=method)
    rep = FitReport(f"aperture_{norm}")
    if norm == "l2":
        n1 = ss[1.0].norm_l2() ** 2
        for a in alphas:
            ratio = ss[a].norm_l2() ** 2 / n1
            rep.fitted[f"ratio_alpha_{a:g}"] = ratio
            rep.tolerances[f"ratio_alpha_{a:g}"] = (a**base.n, _APERTURE_TOL * a**base.n)
        return rep
    if norm == "weak":
        peak = max(ss[a].norm_linf() for a in alphas)
        rho_grid = np.geomspace(peak / 200.0, peak, 24)
        fnorm = math.prod(g.norm_l1() for g in fs)
        expo = 1 / len(fs)
        sups = []
        for a in alphas:
            p = weak_type_profile(ss[a], fnorm, expo, rho_grid)
            sups.append(p.fitted["sup"])
            rep.samples.append((f"profile_alpha_{a:g}", p.fitted["sup"]))
        la = np.log(alphas)
        ls = np.log(sups)
        slope = float(np.polyfit(la, ls, 1)[0])
        rep.fitted["exponent"] = slope
        rep.tolerances["exponent"] = (None, base.n + 0.5)
        return rep
    raise ParameterError(f"unknown norm {norm!r}")


def weighted_norm_check(
    k: KernelSpec,
    f,
    wv: WeightVector,
    cone: ConeGrid,
    method: str | None = None,
) -> FitReport:
    """||S_alpha f||_{L^p(nu)} / prod ||f_i||_{L^{p_i}(w_i)} (finiteness
    only), alpha the cone's.  S is on f's lattice, so every input must be
    on the weights' grid (`GridError` otherwise, before S is taken), and
    there must be one weight per input (`ParameterError`)."""
    fs = _operands(k, f, cone)
    if len(wv.weights) != len(fs):
        raise ParameterError(
            f"weighted norm: {len(fs)} input(s) need as many weights, got {len(wv.weights)}")
    nu = wv.nu()
    if not all(gf.same_grid(nu) for gf in fs):
        raise GridError("weighted norm: inputs and weights are on different grids")
    s = square_function(k, fs, cone, method=method)
    lhs = s.norm_lp(wv.p, weight=nu.values)
    rhs = 1.0
    for gf, w, pi in zip(fs, wv.weights, wv.exponents):
        rhs *= gf.norm_lp(pi, weight=w.values)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    rep = FitReport("weighted_norm", fitted={"ratio": ratio, "lhs": lhs, "rhs": rhs})
    rep.tolerances["ratio"] = (None, None)
    return rep


def kolmogorov_check(
    sf: GridFunction, f_l1: float, sets: list, weak_norm: float
) -> FitReport:
    """h^n sum_E sqrt(Sf) <= C sqrt(weak_norm |E| ||f||_1) over given sets.

    ``sets`` are boolean masks on sf's lattice; the fitted constant is the
    max ratio over the sets.
    """
    hn = sf.h**sf.n
    ratios = []
    for i, mask in enumerate(sets):
        e_meas = float(np.count_nonzero(mask)) * hn
        if e_meas == 0:
            continue
        lhs = hn * float(np.sum(np.sqrt(np.abs(sf.values[mask]))))
        rhs = math.sqrt(weak_norm * e_meas * f_l1)
        ratios.append(lhs / rhs)
    rep = FitReport(
        "kolmogorov",
        fitted={"C": max(ratios) if ratios else 0.0},
        samples=[(f"set_{i}", r) for i, r in enumerate(ratios)],
    )
    rep.tolerances["C"] = (None, None)
    return rep
