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

from .errors import ParameterError
from .grids import ConeGrid, GridFunction, build_cone
from .kernels import KernelSpec
from .operators import square_function, square_function_multi
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
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.check_items())

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
        details={"exponent": exponent, "degenerate": bool(np.all(vals == 0.0))},
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


def aperture_scaling_check(
    k: KernelSpec,
    f,
    alphas,
    norm: str = "l2",
    cone: ConeGrid | None = None,
    tol: float = 0.05,
    rho_grid=None,
    method: str | None = None,
) -> FitReport:
    """L2: ||S_a f||_2^2 / ||S_1 f||_2^2 against a^n; weak: log-log slope.

    For the L2 identity the output lattice is padded by alpha_max * t_max
    (at most the cone's max_radius), so every cone section is fully counted.
    """
    base = f[0] if isinstance(f, (tuple, list)) else f
    if cone is None:
        cone = build_cone(1.0, base.n, base.h, 2 * base.h, 2 * base.R, 4)
    alphas = cone.apertures(alphas)
    want = sorted(set(alphas) | {1.0})
    t_max = float(cone.t_levels[-1])
    pad = min(max(want) * t_max, cone.max_radius)
    out_R = base.R + int(math.ceil(pad / base.h)) * base.h
    ss = square_function_multi(k, f, cone, want, out_R=out_R, method=method)
    rep = FitReport(f"aperture_{norm}", details={"alphas": alphas, "out_R": out_R})
    if norm == "l2":
        n1 = ss[1.0].norm_l2() ** 2
        for a in alphas:
            ratio = ss[a].norm_l2() ** 2 / n1
            rep.fitted[f"ratio_alpha_{a:g}"] = ratio
            rep.tolerances[f"ratio_alpha_{a:g}"] = (a**base.n, tol * a**base.n)
        return rep
    if norm == "weak":
        if rho_grid is None:
            peak = max(ss[a].norm_linf() for a in alphas)
            rho_grid = np.geomspace(peak / 200.0, peak, 24)
        fnorm = base.norm_l1() if not isinstance(f, (tuple, list)) else (
            f[0].norm_l1() * f[1].norm_l1()
        )
        expo = 1.0 if not isinstance(f, (tuple, list)) else 0.5
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
    alpha: float,
    cone: ConeGrid,
    method: str | None = None,
) -> FitReport:
    """||S_alpha f||_{L^p(nu)} / prod ||f_i||_{L^{p_i}(w_i)} (finiteness only)."""
    fs = list(f) if isinstance(f, (tuple, list)) else [f]
    base = fs[0]
    s = square_function(
        k, f if len(fs) > 1 else fs[0],
        cone if cone.alpha == alpha else cone.with_alpha(alpha),
        method=method,
    )
    nu = wv.nu()
    p = wv.p
    if s.same_grid(nu):
        lhs = s.norm_lp(p, weight=nu.values)
    else:
        lhs = _weighted_norm_mismatched(s, nu, p)
    rhs = 1.0
    for gf, w, pi in zip(fs, wv.weights, wv.exponents):
        rhs *= gf.norm_lp(pi, weight=w.values)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else math.inf)
    rep = FitReport(
        "weighted_norm",
        fitted={"ratio": ratio, "lhs": lhs, "rhs": rhs},
        details={"p": p, "alpha": alpha},
    )
    rep.tolerances["ratio"] = (None, None)
    return rep


def _weighted_norm_mismatched(s: GridFunction, nu: GridFunction, p: float) -> float:
    # operator output may live on a padded lattice; weight applies on the box
    if s.ncells < nu.ncells:
        raise ParameterError("weight grid exceeds the operator output grid")
    extra = (s.ncells - nu.ncells) // 2
    sl = (slice(extra, extra + nu.ncells),) * s.n
    dens = np.abs(s.values[sl]) ** p * nu.values
    return float((s.h**s.n * np.sum(dens)) ** (1.0 / p))


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
