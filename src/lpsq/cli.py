"""Command-line verification campaigns.

Subcommands: ``dini`` (--suite adds the inequality suite; a modulus whose
Dini integral diverges fails ``dini_finite``), ``kernel-check``
(--mode size | smooth_x | smooth_y; all three by default), ``eval`` (--op s |
gstar, --kind linear | bilinear), ``cz``, ``sparse`` and ``verify`` (weak |
aperture | weighted | marcinkiewicz | sparse).  Every run writes
``summary.json`` plus per-campaign CSV tables into the output directory and
exits 0 when every check passes, 1 naming the failing items, and 2 on a
config or parameter error.

``verify weak`` reports the exact weak (1,1) sup over every height
rho > 0, sup_rho rho |{Sf > rho}| / ||f||_1, and its stability against a
re-sample of ``--function`` at h/2, so it needs an analytic id (a ``csv:``
or ``bin:`` file is a ConfigError) and a nonzero input (a ParameterError
otherwise, as for ``verify aperture``); ``verify weighted`` does not read
``--function``: its ten random inputs are drawn on the weight's lattice of
the run's R and h.  Its ``--weight power:a`` is |x|^a, an A_p
weight in 1-D iff -1 < a < p - 1; an exponent outside that range is a
ConfigError, as the weighted bound assumes A_p.

`SCHEMA` is the one table of settings: each key's type and default.
`_load_config` resolves a run's settings once, in the order defaults, JSON
config (--config), command-line flags, by `grids.resolve_schema` (a
ConfigError names the key) and fills the defaults that depend on
other keys: the cone's t_min = 2h and t_max = 2R, only where unset.  Ranges
are checked by the library calls.  Unknown config keys are errors.  The
campaign is always the subcommand: a config file holds settings only.

Identical config + seed produce byte-identical outputs.  --oracle (config
``"oracle": true``) sets the evaluation method to "direct", which every
operator call of the run receives.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .dyadic import (
    Cube,
    SparseFamily,
    cz_decompose,
    sparse_construct,
    sparse_rhs_eval,
    verify_sparse,
)
from .errors import ConfigError, DivergenceError, GridError, LpsqError
from .grids import (
    build_cone,
    build_halfspace,
    parse_function,
    read_json,
    resolve_schema,
    sample_function,
    save_binary,
    save_csv,
)
from .harness import (
    aperture_scaling_check,
    weak_type_profile,
    weighted_norm_check,
)
from .kernels import (
    SamplePlan,
    kernel_condition_check,
    parse_kernel,
)
from .moduli import dini_constant, dini_inequality_suite, parse_modulus
from .operators import g_star, marcinkiewicz_fw, square_function
from .weights import WeightVector, apvec_constant

_CHECK_MODES = ("size", "smooth_x", "smooth_y")
_VERIFY_MODES = ("weak", "aperture", "weighted", "marcinkiewicz", "sparse")

# key -> (type, default), as `grids.resolve_schema` reads it.  A key whose
# default is None may be null.
SCHEMA = {
    "out_dir": (str, "out"),
    "oracle": (bool, False),
    "n": (int, 1),
    "R": (float, 8.0),
    "h": (float, 1.0 / 16),
    "alpha": (float, 1.0),
    "lambda": (float, 3.0),
    "kernel": (str, "ex1:kappa=3"),
    "modulus": (str, "power:1"),
    "function": (str, "gaussian"),
    "function2": (str, None),
    # tmin and tmax left null are 2h and 2R
    "cone": ({"tmin": (float, None), "tmax": (float, None), "q": (int, 4)}, {}),
    "seed": (int, 0),
    "tol": (float, 1e-8),
    "gamma": ((str, float), "auto"),
    "mode": (set(_CHECK_MODES + _VERIFY_MODES), None),
    "eta": (float, 0.5),
    "op": ({"s", "gstar"}, "s"),
    "kind": ({"linear", "bilinear"}, "linear"),
    "p": (float, 2.0),
    "weight": (str, "power:0.5"),
    "family": (str, None),
    "alphas": ([float], [1.0, 2.0, 4.0]),
    "rho": (float, 1.0),
    "suite": (bool, False),
}


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


def _load_config(args) -> dict:
    """The settings of a run: defaults, then the config file, then the flags."""
    given = read_json(args.config) if args.config else {}
    given.update((key, val) for key, val in vars(args).items()
                 if key in SCHEMA and val is not None)
    cfg = resolve_schema(SCHEMA, given, "config")
    cone = cfg["cone"]
    if cone["tmin"] is None:
        cone["tmin"] = 2 * cfg["h"]
    if cone["tmax"] is None:
        cone["tmax"] = 2 * cfg["R"]
    cfg["method"] = "direct" if cfg.pop("oracle") else "auto"
    return cfg


def _cone_cfg(cfg, alpha):
    c = cfg["cone"]
    return build_cone(alpha, cfg["n"], cfg["h"], c["tmin"], c["tmax"], c["q"])


def _function(cfg, key="function"):
    return parse_function(cfg[key], cfg["n"], cfg["R"], cfg["h"])


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def _campaign_dini(cfg, out_dir):
    """The Dini constant and, with ``suite``, the inequality suite.  A
    modulus whose Dini integral diverges is a verdict, not an error: the
    failed `dini_finite` item carries the truncated integral, and the suite
    is skipped."""
    mod = parse_modulus(cfg["modulus"])
    try:
        val, finite = dini_constant(mod, cfg["tol"]), True
    except DivergenceError as exc:
        val, finite = exc.partial, False
    print(repr(round(val, 9)))
    rows = [("dini_constant", val)]
    items = [{"name": "dini_finite", "pass": finite, "value": val}]
    if cfg["suite"] and finite:
        suite = dini_inequality_suite(mod, cfg["alpha"], cfg["n"])
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
    k = parse_kernel(cfg["kernel"], cfg["n"])
    modes = _CHECK_MODES if cfg["mode"] is None else [cfg["mode"]]
    plan = SamplePlan(seed=cfg["seed"])
    rows, items = [], []
    for mode in modes:
        rep = kernel_condition_check(k, mode, plan)
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
    k = parse_kernel(cfg["kernel"], cfg["n"])
    bilinear = cfg["kind"] == "bilinear"
    if bilinear and cfg["function2"] is None:
        raise ConfigError("bilinear eval needs function2")
    f = _function(cfg)
    arg = (f, _function(cfg, "function2")) if bilinear else f
    if cfg["op"] == "s":
        out = square_function(k, arg, _cone_cfg(cfg, cfg["alpha"]), method=cfg["method"])
        name = "square_function"
    else:
        c = cfg["cone"]
        hs = build_halfspace(cfg["n"], cfg["h"], c["tmin"], c["tmax"], c["q"], cfg["R"])
        out = g_star(k, arg, cfg["lambda"], hs, method=cfg["method"])
        name = "g_star"
    save_binary(out, os.path.join(out_dir, f"{name}.bin"))
    save_csv(out, os.path.join(out_dir, f"{name}.csv"))
    rows = [
        ("l1", out.norm_l1()), ("l2", out.norm_l2()), ("linf", out.norm_linf()),
    ]
    _write_csv(os.path.join(out_dir, f"{name}_norms.csv"), rows)
    return [{"name": name, "pass": True, "value": out.norm_l2()}]


def _campaign_cz(cfg, out_dir):
    f = _function(cfg)
    rho = cfg["rho"]
    d = cz_decompose(f, rho)
    d.save(os.path.join(out_dir, "cz"))
    resid = float(np.max(np.abs(d.reconstruct() - f.values))) if f.values.size else 0.0
    items = [
        {"name": "cz_reconstruct", "pass": resid <= 1e-12, "value": resid},
        {"name": "cz_cubes", "pass": True, "value": len(d.bad)},
    ]
    rows = [("rho", rho), ("n_cubes", len(d.bad)), ("residual", resid)]
    for i, (q, b) in enumerate(d.bad):
        if q.n == 1:
            rows.append((f"cube_{i}_lo", q.lo[0]))
        else:
            rows += [(f"cube_{i}_lo_{axis}", x) for axis, x in zip("xy", q.lo)]
        rows.append((f"cube_{i}_side", q.side))
        rows.append((f"cube_{i}_bmass", b.norm_l1()))
    _write_csv(os.path.join(out_dir, "cz.csv"), rows)
    return items


def _campaign_sparse(cfg, out_dir):
    n = cfg["n"]
    k = parse_kernel(cfg["kernel"], n)
    f = _function(cfg)
    cone = _cone_cfg(cfg, cfg["alpha"])
    q0 = Cube(n, 1, (0,) * n, "standard", 2.0 * cfg["R"])
    fam = sparse_construct(k, f, q0, cfg["alpha"], cone, cfg["gamma"],
                           method=cfg["method"])
    path = os.path.join(out_dir, "sparse_family.json")
    fam.save(path)
    ok, worst, _ = verify_sparse(fam, cfg["eta"])
    s = square_function(k, f, cone, method=cfg["method"])
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
        ok, worst, worst_cube = verify_sparse(fam, cfg["eta"])
        _write_csv(os.path.join(out_dir, "verify_sparse.csv"),
                   [("worst_ratio", worst), ("ok", int(ok))])
        return [{"name": "sparse_eta", "pass": ok, "value": worst}]
    n, R, h = cfg["n"], cfg["R"], cfg["h"]
    k = parse_kernel(cfg["kernel"], n)
    if mode == "aperture":
        f = _function(cfg)
        rep = aperture_scaling_check(
            k, f, cfg["alphas"], "l2", _cone_cfg(cfg, 1.0),
            method=cfg["method"],
        )
        _write_csv(os.path.join(out_dir, "verify_aperture.csv"), list(rep.rows()))
        checks = dict(rep.check_items())
        return [
            {"name": key, "pass": checks.get(key, True), "value": val}
            for key, val in sorted(rep.fitted.items())
        ]
    if mode == "weak":
        if cfg["function"].partition(":")[0] in ("csv", "bin"):
            raise ConfigError(
                "verify weak re-samples its input at h/2, so it needs an analytic "
                f"--function id, not the file {cfg['function']!r}")
        f = _function(cfg)
        cone = _cone_cfg(cfg, cfg["alpha"])
        s = square_function(k, f, cone, method=cfg["method"])
        f2 = parse_function(cfg["function"], n, R, h / 2.0)
        c = cfg["cone"]  # the config's rule from tmin/2 keeps the original levels
        cone2 = build_cone(cfg["alpha"], n, h / 2.0, c["tmin"] / 2, c["tmax"], c["q"])
        s2 = square_function(k, f2, cone2, method=cfg["method"])
        rep = weak_type_profile(s, f.norm_l1(), 1.0, refined=(s2, f2.norm_l1()))
        _write_csv(os.path.join(out_dir, "verify_weak.csv"), list(rep.rows()))
        checks = dict(rep.check_items())
        return [{"name": name, "pass": checks[key], "value": rep.fitted[key]}
                for name, key in (("weak_sup_finite", "sup"), ("weak_stability", "stability"))]
    if mode == "weighted":
        if n != 1:
            raise ConfigError("weighted verify is 1-D")
        head, _, arg = cfg["weight"].partition(":")
        try:
            expo = float(arg) if head == "power" else None
        except ValueError:
            expo = None
        if expo is None:
            raise ConfigError(f"weighted verify takes a power:a weight id, not {arg!r}")
        if not -1.0 < expo < cfg["p"] - 1.0:
            raise ConfigError(f"|x|^{expo:g} is not an A_p weight at p = {cfg['p']:g}: "
                              "power:a needs -1 < a < p - 1")
        wgrid = sample_function(lambda x: np.abs(x) ** expo + 1e-12, 1, R, h)
        wv = WeightVector([wgrid], [cfg["p"]])
        rng = np.random.default_rng(cfg["seed"])
        cone = _cone_cfg(cfg, cfg["alpha"])

        def one(i):
            vals = rng.standard_normal(wgrid.ncells) * np.exp(
                -np.abs(wgrid.axis_centers()) / 2.0
            )
            g = wgrid.with_values(vals)
            return weighted_norm_check(k, g, wv, cone, method=cfg["method"]).fitted["ratio"]

        ratios = [one(i) for i in range(10)]
        med = float(np.median(ratios))
        spread = max(ratios) / med if med > 0 else math.inf
        rows = [("apvec", apvec_constant(wv))] + [
            (f"ratio_{i}", r) for i, r in enumerate(ratios)
        ] + [("spread", spread)]
        _write_csv(os.path.join(out_dir, "verify_weighted.csv"), rows)
        return [{"name": "weighted_spread", "pass": spread <= 4.0, "value": spread}]
    if mode == "marcinkiewicz":
        rng = np.random.default_rng(cfg["seed"])
        w = parse_modulus(cfg["modulus"])
        f = _function(cfg)
        # the cubes are drawn over the config's box and F integrated on f's
        # grid, so a file input must be on the config's grid (as `same_grid`)
        if f.n != n or abs(f.R - R) >= 1e-12 or abs(f.h - h) >= 1e-12:
            raise GridError(f"--function {cfg['function']!r} is on the {f.n}-D grid "
                            f"R={f.R}, h={f.h}, not the config's {n}-D R={R}, h={h}")

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


CAMPAIGNS = {
    "dini": _campaign_dini,
    "kernel-check": _campaign_kernel_check,
    "eval": _campaign_eval,
    "cz": _campaign_cz,
    "sparse": _campaign_sparse,
    "verify": _campaign_verify,
}


def _error_exit(out_dir: str, campaign: str, seed, exc: LpsqError) -> int:
    """Write the error summary and return exit status 2."""
    os.makedirs(out_dir, exist_ok=True)
    _write_summary(out_dir, {
        "campaign": campaign, "error": str(exc), "passed": False, "seed": seed,
    })
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _execute(campaign: str, cfg: dict) -> int:
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    try:
        items = CAMPAIGNS[campaign](cfg, out_dir)
    except LpsqError as exc:
        return _error_exit(out_dir, campaign, cfg["seed"], exc)
    passed = all(it["pass"] for it in items)
    _write_summary(out_dir, {
        "campaign": campaign,
        "items": items,
        "passed": passed,
        "seed": cfg["seed"],
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
        for key in ("kernel", "modulus", "function", "function2", "n", "R", "h",
                    "alpha", "seed", "tol", "eta", "rho", "p", "weight"):
            p.add_argument(f"--{key}", type=SCHEMA[key][0])
        p.add_argument("--lam", dest="lambda", type=float)
        p.add_argument("--gamma")

    p = sub.add_parser("dini", help="Dini constant of a modulus")
    common(p)
    p.add_argument("--suite", action="store_true", default=None)

    p = sub.add_parser("kernel-check", help="size/smoothness condition ratios")
    common(p)
    p.add_argument("--mode", choices=_CHECK_MODES)

    p = sub.add_parser("eval", help="evaluate an operator to grid files")
    common(p)
    p.add_argument("--op", choices=sorted(SCHEMA["op"][0]))
    p.add_argument("--kind", choices=sorted(SCHEMA["kind"][0]))

    p = sub.add_parser("cz", help="Calderon-Zygmund decomposition")
    common(p)

    p = sub.add_parser("sparse", help="sparse family construction")
    common(p)

    p = sub.add_parser("verify", help="verification campaigns")
    common(p)
    p.add_argument("mode", choices=_VERIFY_MODES)
    p.add_argument("--family")
    p.add_argument("--alphas", type=float, nargs="+")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        # the settings did not load: the summary goes to the flags' out dir
        return _error_exit(args.out_dir or SCHEMA["out_dir"][1], args.campaign,
                           args.seed, exc)
    return _execute(args.campaign, cfg)


if __name__ == "__main__":
    sys.exit(main())
