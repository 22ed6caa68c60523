"""Command-line verification campaigns.

Subcommands: ``dini``, ``kernel-check``, ``eval``, ``cz``, ``sparse``,
``verify`` (weak | aperture | domination | weighted | marcinkiewicz |
sparse), ``bench``.  Every run merges defaults, an optional JSON config
(--config) and command-line overrides, executes the campaign, writes
``summary.json`` plus per-campaign CSV tables into the output directory,
and exits nonzero naming the failing item if any check fails.

Identical config + seed produce byte-identical outputs.  LPSQ_THREADS
controls the worker count for independent campaign items; --oracle (config
``"oracle": true``) sets the evaluation method to "direct", which every
operator call of the run receives.  Unknown config keys are errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import operators as ops
from .dyadic import (
    Cube,
    SparseFamily,
    cz_decompose,
    shifted_family,
    sparse_construct,
    sparse_rhs_eval,
    verify_sparse,
)
from .errors import ConfigError, LpsqError
from .grids import (
    GridFunction,
    build_cone,
    build_halfspace,
    parse_function,
    save_binary,
    save_csv,
)
from .harness import (
    FitReport,
    aperture_scaling_check,
    weak_type_profile,
    weighted_norm_check,
)
from .kernels import (
    SamplePlan,
    fourier_decay_profile,
    kernel_condition_check,
    parse_kernel,
)
from .moduli import dini_constant, dini_inequality_suite, parse_modulus
from .operators import g_star, marcinkiewicz_fw, maximal, square_function
from .weights import WeightVector, apvec_constant

DEFAULTS = {
    "n": 1,
    "R": 8.0,
    "h": 1.0 / 16,
    "alpha": 1.0,
    "lambda": 3.0,
    "kernel": "ex1:kappa=3",
    "modulus": "power:1",
    "function": "gaussian",
    "function2": None,
    "cone": {"tmin": None, "tmax": None, "q": 4},
    "rho_grid": None,
    "seed": 0,
    "tol": 1e-8,
    "out_dir": "out",
    "gamma": "auto",
    "mode": None,
    "eta": 0.5,
    "op": "s",
    "kind": "linear",
    "p": 2.0,
    "weight": "power:0.5",
    "family": None,
    "alphas": [1.0, 2.0, 4.0],
    "rho": None,
    "suite": None,
    "gamma_log": None,
}
# config keys that are not settings of their own: the campaign name (config
# files run by cli_run) and the --oracle switch, which sets cfg["method"]
_EXTRA_KEYS = {"campaign", "oracle"}


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("LPSQ_THREADS", "1")))
    except ValueError:
        return 1


def _pmap(fn, items):
    nw = _threads()
    if nw == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=nw) as ex:
        return list(ex.map(fn, items))


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(path: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write("label,value\n")
        for label, val in rows:
            fh.write(f"{label},{_fmt(val)}\n")


def _write_summary(out_dir: str, summary: dict) -> str:
    path = os.path.join(out_dir, "summary.json")
    with open(path, "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1, default=_fmt)
    return path


def _read_config(path: str) -> dict:
    """The JSON object of a config file, checked against the known keys."""
    with open(path) as fh:
        try:
            user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path!r} is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError(f"{path!r}: the config must be a JSON object")
    unknown = sorted(set(user) - set(DEFAULTS) - _EXTRA_KEYS)
    if unknown:
        raise ConfigError(f"{path!r}: unknown config keys {unknown}")
    cone = user.get("cone", {})
    if not isinstance(cone, dict) or set(cone) - set(DEFAULTS["cone"]):
        raise ConfigError(
            f"{path!r}: \"cone\" takes only the keys {sorted(DEFAULTS['cone'])}"
        )
    return user


def _load_config(args) -> dict:
    cfg = dict(DEFAULTS)
    if args.config:
        user = _read_config(args.config)
        cone = dict(cfg["cone"])
        cone.update(user.get("cone", {}))
        cfg.update(user)
        cfg["cone"] = cone
    for key, val in vars(args).items():
        if key in ("config", "campaign", "func") or val is None:
            continue
        cfg["lambda" if key == "lam" else key] = val
    cfg["method"] = "direct" if cfg.pop("oracle", None) else "auto"
    return cfg


def _grid_cfg(cfg):
    n, R, h = int(cfg["n"]), float(cfg["R"]), float(cfg["h"])
    return n, R, h


def _cone_cfg(cfg, alpha=None):
    n, R, h = _grid_cfg(cfg)
    c = cfg["cone"]
    tmin = c.get("tmin") or 2 * h
    tmax = c.get("tmax") or 2 * R
    q = int(c.get("q") or 4)
    return build_cone(float(alpha or cfg["alpha"]), n, h, float(tmin), float(tmax), q)


def _function(cfg, key="function"):
    n, R, h = _grid_cfg(cfg)
    return parse_function(cfg[key], n, R, h)


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def _campaign_dini(cfg, out_dir):
    mod = parse_modulus(cfg["modulus"])
    val = dini_constant(mod, float(cfg["tol"]))
    print(repr(round(val, 9)))
    rows = [("dini_constant", val)]
    items = [{"name": "dini_finite", "pass": math.isfinite(val), "value": val}]
    if cfg.get("suite"):
        suite = dini_inequality_suite(mod, float(cfg["alpha"]), int(cfg["n"]))
        for name, item in suite.items():
            rows.append((f"suite_{name}_lhs", item.lhs))
            rows.append((f"suite_{name}_ratio", item.ratio))
            items.append(
                {"name": f"suite_{name}", "pass": math.isfinite(item.ratio),
                 "value": item.ratio}
            )
    _write_csv(os.path.join(out_dir, "dini.csv"), rows)
    return items


def _campaign_kernel_check(cfg, out_dir):
    n = int(cfg["n"])
    k = parse_kernel(cfg["kernel"], n)
    modes = [cfg["mode"]] if cfg["mode"] else ["size", "smooth_x", "smooth_y"]
    plan = SamplePlan(seed=int(cfg["seed"]))
    rows, items = [], []
    gamma = cfg.get("gamma_log")

    def one(mode):
        if mode == "log_ratio":
            return mode, kernel_condition_check(
                k, mode, plan, gamma=float(gamma or 0.5)
            )
        return mode, kernel_condition_check(k, mode, plan)

    for mode, rep in _pmap(one, modes):
        rows += [
            (f"{mode}_max_ratio", rep.max_ratio),
            (f"{mode}_growth", rep.growth_ratio),
            (f"{mode}_samples", rep.samples_checked),
        ]
        items.append(
            {"name": f"kernel_{mode}", "pass": not rep.flagged,
             "value": rep.max_ratio}
        )
    _write_csv(os.path.join(out_dir, "kernel_check.csv"), rows)
    return items


def _campaign_eval(cfg, out_dir):
    n = int(cfg["n"])
    k = parse_kernel(cfg["kernel"], n)
    bilinear = cfg["kind"] == "bilinear"
    f = _function(cfg)
    arg = (f, _function(cfg, "function2")) if bilinear else f
    if bilinear and cfg["function2"] is None:
        raise ConfigError("bilinear eval needs function2")
    if cfg["op"] == "s":
        cone = _cone_cfg(cfg)
        out = square_function(k, arg, cone, method=cfg["method"])
        name = "square_function"
    elif cfg["op"] == "gstar":
        nn, R, h = _grid_cfg(cfg)
        c = cfg["cone"]
        hs = build_halfspace(nn, h, float(c.get("tmin") or 2 * h),
                             float(c.get("tmax") or 2 * R), int(c.get("q") or 4), R)
        out = g_star(k, arg, float(cfg["lambda"]), hs, method=cfg["method"])
        name = "g_star"
    else:
        raise ConfigError(f"unknown op {cfg['op']!r}")
    save_binary(out, os.path.join(out_dir, f"{name}.bin"))
    save_csv(out, os.path.join(out_dir, f"{name}.csv"))
    rows = [
        ("l1", out.norm_l1()), ("l2", out.norm_l2()), ("linf", out.norm_linf()),
    ]
    _write_csv(os.path.join(out_dir, f"{name}_norms.csv"), rows)
    return [{"name": name, "pass": True, "value": out.norm_l2()}]


def _campaign_cz(cfg, out_dir):
    f = _function(cfg)
    rho = float(cfg.get("rho") or 1.0)
    d = cz_decompose(f, rho)
    d.save(os.path.join(out_dir, "cz"))
    resid = float(np.max(np.abs(d.reconstruct() - f.values))) if f.values.size else 0.0
    items = [
        {"name": "cz_reconstruct", "pass": resid <= 1e-12, "value": resid},
        {"name": "cz_cubes", "pass": True, "value": len(d.bad)},
    ]
    rows = [("rho", rho), ("n_cubes", len(d.bad)), ("residual", resid)]
    for i, (q, b) in enumerate(d.bad):
        rows.append((f"cube_{i}_lo", q.lo[0]))
        rows.append((f"cube_{i}_side", q.side))
        rows.append((f"cube_{i}_bmass", b.norm_l1()))
    _write_csv(os.path.join(out_dir, "cz.csv"), rows)
    return items


def _root_cube(cfg) -> Cube:
    n, R, h = _grid_cfg(cfg)
    anchor = (0,) * n
    return Cube(n, 1, anchor, "standard", 2.0 * R)


def _campaign_sparse(cfg, out_dir):
    n, R, h = _grid_cfg(cfg)
    k = parse_kernel(cfg["kernel"], n)
    f = _function(cfg)
    cone = _cone_cfg(cfg)
    q0 = _root_cube(cfg)
    fam = sparse_construct(k, f, q0, float(cfg["alpha"]), cone, cfg["gamma"],
                           method=cfg["method"])
    path = os.path.join(out_dir, "sparse_family.json")
    fam.save(path)
    ok, worst, _ = verify_sparse(fam, float(cfg["eta"]))
    s = square_function(k, f, cone if cone.alpha == float(cfg["alpha"])
                        else cone.with_alpha(float(cfg["alpha"])),
                        method=cfg["method"])
    rhs = sparse_rhs_eval(fam, f, dilate=3)
    (sl,) = [tuple(slice(i0, i1) for i0, i1 in q0.cell_range(f))]
    ratio = s.values[sl] / np.maximum(rhs.values[sl], 1e-300)
    fitted_c = float(np.max(ratio))
    rows = [
        ("cubes", len(fam.cubes)), ("gamma", fam.meta["gamma"]),
        ("worst_ratio", worst), ("fitted_C", fitted_c),
    ]
    _write_csv(os.path.join(out_dir, "sparse.csv"), rows)
    return [
        {"name": "sparse_verified", "pass": ok, "value": worst},
        {"name": "sparse_domination_C", "pass": math.isfinite(fitted_c),
         "value": fitted_c},
    ]


def _campaign_verify(cfg, out_dir):
    mode = cfg["mode"]
    if mode == "sparse":
        if not cfg["family"]:
            raise ConfigError("verify sparse needs --family")
        fam = SparseFamily.load(cfg["family"])
        ok, worst, worst_cube = verify_sparse(fam, float(cfg["eta"]))
        _write_csv(os.path.join(out_dir, "verify_sparse.csv"),
                   [("worst_ratio", worst), ("ok", int(ok))])
        return [{"name": "sparse_eta", "pass": ok, "value": worst}]
    n, R, h = _grid_cfg(cfg)
    k = parse_kernel(cfg["kernel"], n)
    if mode == "aperture":
        f = _function(cfg)
        rep = aperture_scaling_check(
            k, f, [float(a) for a in cfg["alphas"]], "l2", _cone_cfg(cfg, 1.0),
            method=cfg["method"],
        )
        _write_csv(os.path.join(out_dir, "verify_aperture.csv"), list(rep.rows()))
        checks = dict(rep.check_items())
        return [
            {"name": key, "pass": checks.get(key, True), "value": val}
            for key, val in sorted(rep.fitted.items())
        ]
    if mode == "weak":
        f = _function(cfg)
        cone = _cone_cfg(cfg)
        s = square_function(k, f, cone, method=cfg["method"])
        f2 = parse_function(cfg["function"], n, R, h / 2.0)
        cone2 = build_cone(cone.alpha, n, h / 2.0, float(cone.t_levels[0]) / 2,
                           float(cone.t_levels[-1]), cone._q())
        s2 = square_function(k, f2, cone2, method=cfg["method"])
        peak = s.norm_linf()
        rho_grid = cfg["rho_grid"] or list(np.geomspace(peak / 100, peak * 0.99, 16))
        rep = weak_type_profile(s, f.norm_l1(), 1.0, rho_grid,
                                refined=(s2, f2.norm_l1()))
        _write_csv(os.path.join(out_dir, "verify_weak.csv"), list(rep.rows()))
        return [
            {"name": "weak_sup_finite", "pass": math.isfinite(rep.fitted["sup"]),
             "value": rep.fitted["sup"]},
            {"name": "weak_stability", "pass": rep.fitted["stability"] <= 2.0,
             "value": rep.fitted["stability"]},
        ]
    if mode == "domination":
        return _campaign_sparse(cfg, out_dir)
    if mode == "weighted":
        if n != 1:
            raise ConfigError("weighted verify is 1-D")
        f = _function(cfg)
        if not cfg["weight"].startswith("power:"):
            raise ConfigError("weighted verify takes a power:a weight id")
        expo = float(cfg["weight"].split(":")[1])
        from .grids import sample_function

        wgrid = sample_function(lambda x: np.abs(x) ** expo + 1e-12, 1, R, h)
        wv = WeightVector([wgrid], [float(cfg["p"])])
        rng = np.random.default_rng(int(cfg["seed"]))
        cone = _cone_cfg(cfg)

        def one(i):
            vals = rng.standard_normal(f.ncells) * np.exp(
                -np.abs(f.axis_centers()) / 2.0
            )
            g = f.with_values(vals)
            return weighted_norm_check(k, g, wv, float(cfg["alpha"]), cone,
                                       method=cfg["method"]).fitted["ratio"]

        ratios = [one(i) for i in range(10)]
        med = float(np.median(ratios))
        spread = max(ratios) / med if med > 0 else math.inf
        rows = [("apvec", apvec_constant(wv))] + [
            (f"ratio_{i}", r) for i, r in enumerate(ratios)
        ] + [("spread", spread)]
        _write_csv(os.path.join(out_dir, "verify_weighted.csv"), rows)
        return [{"name": "weighted_spread", "pass": spread <= 4.0, "value": spread}]
    if mode == "marcinkiewicz":
        rng = np.random.default_rng(int(cfg["seed"]))
        w = parse_modulus(cfg["modulus"])
        f = _function(cfg)

        def one(i):
            cubes = _random_disjoint_cubes(rng, n, R, 20)
            F = marcinkiewicz_fw(w, cubes, grid=f)
            lhs = F.norm_l2() ** 2
            rhs = sum(lam**2 * (2 * r) ** n for _, r, lam in cubes)
            return lhs / rhs if rhs > 0 else 0.0

        cs = [one(i) for i in range(20)]
        med = float(np.median(cs))
        spread = max(cs) / med if med > 0 else math.inf
        _write_csv(os.path.join(out_dir, "verify_marcinkiewicz.csv"),
                   [(f"C_{i}", c) for i, c in enumerate(cs)] + [("spread", spread)])
        return [{"name": "marcinkiewicz_spread", "pass": spread <= 4.0,
                 "value": spread}]
    raise ConfigError(f"unknown verify mode {mode!r}")


def _random_disjoint_cubes(rng, n, R, count):
    cubes = []
    tries = 0
    while len(cubes) < count and tries < 10_000:
        tries += 1
        r = float(rng.uniform(0.05, 0.4))
        c = tuple(rng.uniform(-R * 0.9, R * 0.9, n))
        lam = float(rng.uniform(0.1, 2.0))
        disjoint = all(
            max(abs(ci - cj) for ci, cj in zip(c, c2)) >= r + rj
            for c2, rj, _ in cubes
        )
        if disjoint:
            cubes.append((c, r, lam))
    return cubes


def _campaign_bench(cfg, out_dir):
    n = int(cfg["n"])
    k = parse_kernel(cfg["kernel"], n)
    f = _function(cfg)
    cone = _cone_cfg(cfg)
    rows = []
    t0 = time.perf_counter()
    ops.psi_t_apply(k, f, 1.0, method=cfg["method"])
    rows.append(("psi_t_seconds", time.perf_counter() - t0))
    t0 = time.perf_counter()
    square_function(k, f, cone, method=cfg["method"])
    rows.append(("square_function_seconds", time.perf_counter() - t0))
    t0 = time.perf_counter()
    maximal(f, "hl")
    rows.append(("maximal_hl_seconds", time.perf_counter() - t0))
    _write_csv(os.path.join(out_dir, "bench.csv"), rows)
    return [{"name": "bench", "pass": True, "value": rows[1][1]}]


CAMPAIGNS = {
    "dini": _campaign_dini,
    "kernel-check": _campaign_kernel_check,
    "eval": _campaign_eval,
    "cz": _campaign_cz,
    "sparse": _campaign_sparse,
    "verify": _campaign_verify,
    "bench": _campaign_bench,
}


def cli_run(config_path: str) -> int:
    """Run the campaign named in a config file; returns the exit status."""
    campaign = _read_config(config_path).get("campaign")
    if campaign not in CAMPAIGNS:
        raise ConfigError(f"unknown campaign {campaign!r} in {config_path}")
    ns = argparse.Namespace(config=config_path, campaign=campaign, func=None)
    cfg = _load_config(ns)
    return _execute(campaign, cfg)


def _execute(campaign: str, cfg: dict) -> int:
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    try:
        items = CAMPAIGNS[campaign](cfg, out_dir)
    except LpsqError as exc:
        _write_summary(out_dir, {
            "campaign": campaign, "error": str(exc), "passed": False,
            "seed": cfg.get("seed"),
        })
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passed = all(it["pass"] for it in items)
    _write_summary(out_dir, {
        "campaign": campaign,
        "items": items,
        "passed": passed,
        "seed": cfg.get("seed"),
        "threads": _threads(),
    })
    if not passed:
        failing = ", ".join(it["name"] for it in items if not it["pass"])
        print(f"FAIL: {failing}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lpsq",
        description="Cone square-function verification campaigns",
    )
    ap.add_argument("--config", help="JSON config file")
    ap.add_argument("--out-dir", dest="out_dir")
    ap.add_argument("--oracle", action="store_true", default=None,
                    help="force the direct-summation path")
    sub = ap.add_subparsers(dest="campaign", required=True)

    def common(p):
        p.add_argument("--kernel")
        p.add_argument("--modulus")
        p.add_argument("--function")
        p.add_argument("--function2")
        p.add_argument("--n", type=int)
        p.add_argument("--R", type=float)
        p.add_argument("--h", type=float)
        p.add_argument("--alpha", type=float)
        p.add_argument("--lam", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--tol", type=float)
        p.add_argument("--gamma")
        p.add_argument("--eta", type=float)
        p.add_argument("--rho", type=float)
        p.add_argument("--p", type=float)
        p.add_argument("--weight")

    p = sub.add_parser("dini", help="Dini constant of a modulus")
    common(p)
    p.add_argument("--suite", action="store_true", default=None)

    p = sub.add_parser("kernel-check", help="size/smoothness condition ratios")
    common(p)
    p.add_argument("--mode", choices=["size", "smooth_x", "smooth_y", "log_ratio"])
    p.add_argument("--gamma-log", dest="gamma_log", type=float)

    p = sub.add_parser("eval", help="evaluate an operator to grid files")
    common(p)
    p.add_argument("--op", choices=["s", "gstar"])
    p.add_argument("--kind", choices=["linear", "bilinear"])

    p = sub.add_parser("cz", help="Calderon-Zygmund decomposition")
    common(p)

    p = sub.add_parser("sparse", help="sparse family construction")
    common(p)

    p = sub.add_parser("verify", help="verification campaigns")
    common(p)
    p.add_argument("mode", choices=[
        "weak", "aperture", "domination", "weighted", "marcinkiewicz", "sparse",
    ])
    p.add_argument("--family")
    p.add_argument("--alphas", type=float, nargs="+")

    p = sub.add_parser("bench", help="timings of core operators")
    common(p)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _load_config(args)
        return _execute(args.campaign, cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
