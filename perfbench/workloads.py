"""Workload definitions: seeded inputs, operations, output checks, oracles.

Every input comes from `spikes`: 8 signed spikes of amplitude 1-50 on a
0.01 Gaussian noise floor.  Unlike the smooth ``gaussian`` default, this
gives sparse families with several nodes and gamma doublings, so the
stopping-time recursion is exercised.  The program only ever sees the
generated GridFunctions and the files written from them.

The ``lpsq`` package is passed in as ``lp`` and its functions are looked up
at call time, so the traced run's wrappers on the package namespace see
every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess

import numpy as np

REL_TOL = 1e-10  # fast path against the direct-summation oracle
CZ_TOL = 1e-12   # absolute CZ reconstruction error
KERNEL = "ex1:kappa=3"
SPARSE_ETA = 0.5


def spikes(lp, seed: int, salt: int, n: int, R: float, h: float):
    """Seeded GridFunction: 8 signed spikes (|a| in [1, 50]) on 0.01 noise."""
    rng = np.random.default_rng([seed, salt])
    N = int(round(2.0 * R / h))
    vals = 0.01 * rng.standard_normal((N,) * n)
    cells = rng.integers(0, N, size=(8, n))
    amps = rng.uniform(1.0, 50.0, 8) * rng.choice([-1.0, 1.0], 8)
    for cell, a in zip(cells, amps):
        vals[tuple(cell)] += a
    return lp.GridFunction(n, R, h, vals)


def digest_array(values) -> str:
    """Short digest of an array rounded to 9 significant digits."""
    text = np.char.mod("%.9e", np.asarray(values, dtype=float).ravel())
    return hashlib.sha256(",".join(text.tolist()).encode()).hexdigest()[:16]


def rel_err(fast, ref) -> float:
    fast, ref = np.asarray(fast, dtype=float), np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    return float(np.max(np.abs(fast - ref))) / max(scale, 1e-300)


def _cone(lp, n: int, R: float, h: float, alpha: float = 1.0):
    return lp.build_cone(alpha, n, h, 2 * h, 2 * R, 4)


def _halfspace(lp, n: int, R: float, h: float):
    return lp.build_halfspace(n, h, 2 * h, 2 * R, 4, R)


def _finite(out) -> str | None:
    return None if np.all(np.isfinite(out.values)) else "non-finite output"


# ---------------------------------------------------------------------------
# sparse-1d / sparse-2d
# ---------------------------------------------------------------------------


class Sparse:
    """sparse_construct -> verify_sparse -> sparse_rhs_eval on one root cube.

    Each pass runs ``per_pass`` instances in slots 0..per_pass-1, and pass p
    gives slot i the seeded instance ``p * per_pass + i``.  A run thus
    covers a fresh instance per slot and pass: the cost of one instance
    hinges on the family its input gives (+-20% between seeds), so the
    slot means over many instances keep a run's figures from hinging on a
    few.  Sizes are kept small for the same reason: many short instances
    per run rather than one or two long ones.
    """

    imports = "lpsq"
    cycle = False
    clock_kind = "array"  # how clock.py scales its operations' times

    def __init__(self, n: int, per_pass: int):
        self.n = n
        # 1-D N = 512: 2-8 node families, gamma 4-16, ~2.5 s per instance;
        # 2-D 16x16: 1-2 node families, ~1 s per instance
        self.R, self.h = (8.0, 1.0 / 32) if n == 1 else (4.0, 1.0 / 2)
        self.per_pass = per_pass
        # reduced instance for the oracle check (direct path under a second)
        self.small = (8.0, 1.0 / 4) if n == 1 else (4.0, 1.0)

    def root(self, lp, R: float):
        return lp.Cube(self.n, 1, (0,) * self.n, "standard", 2.0 * R)

    def build(self, lp, seed: int, ctx: dict) -> dict:
        n, R, h = self.n, self.R, self.h
        first = ctx.get("pass", 0) * self.per_pass
        return {
            "k": lp.parse_kernel(KERNEL, n),
            "fs": {first + i: spikes(lp, seed, first + i, n, R, h)
                   for i in range(self.per_pass)},
            "cone": _cone(lp, n, R, h),
            "q0": self.root(lp, R),
        }

    def ops(self, lp, st: dict, rep: int = 0) -> list:
        def sparse(f):
            fam = lp.sparse_construct(st["k"], f, st["q0"], 1.0, st["cone"],
                                      "auto", method="auto")
            ok, worst, _ = lp.verify_sparse(fam, SPARSE_ETA)
            rhs = lp.sparse_rhs_eval(fam, f, 3)
            return fam, ok, worst, rhs

        return [(f"sparse.{i}", f"sparse.i{salt}", lambda f=f: sparse(f))
                for i, (salt, f) in enumerate(st["fs"].items())]

    def check(self, lp, st: dict, name: str, out) -> str | None:
        fam, ok, worst, rhs = out
        if not ok:
            return f"verify_sparse failed: worst ratio {worst}"
        if fam.root != st["q0"] or not all(st["q0"].contains(c) for c in fam.cubes):
            return "family cube outside the root"
        return _finite(rhs)

    def digest(self, name: str, out) -> str:
        fam, ok, worst, rhs = out
        cubes = [[c.generation, list(c.anchor)] for c in fam.cubes]
        head = json.dumps([cubes, fam.meta["gamma"], worst], sort_keys=True)
        return hashlib.sha256(head.encode()).hexdigest()[:8] + digest_array(rhs.values)[:8]

    def oracles(self, lp, seed: int) -> list:
        """(name, thunk -> relative error) on a reduced instance."""
        n = self.n
        R, h = self.small
        k = lp.parse_kernel(KERNEL, n)
        f = spikes(lp, seed, 100, n, R, h)
        cone = _cone(lp, n, R, h)
        q0 = self.root(lp, R)

        def s_err():
            return rel_err(*[lp.square_function(k, f, cone, method=m).values
                             for m in ("auto", "direct")])

        def ms_err():
            pool = lp.dyadic_cube_pool(q0, f)
            return rel_err(*[lp.lerner_maximal(k, f, cone, "M_S", pool, method=m,
                                               domain=q0.box()).values
                             for m in ("auto", "direct")])

        return [("S", s_err), ("M_S", ms_err)]


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _hl_brute(vals: np.ndarray) -> np.ndarray:
    """sup over grid-aligned cubes inside the box containing each cell."""
    a = np.abs(vals)
    N = a.shape[0]
    out = np.zeros_like(a)
    for L in range(1, N + 1):
        for i in range(N - L + 1):
            if a.ndim == 1:
                out[i:i + L] = np.maximum(out[i:i + L], a[i:i + L].mean())
                continue
            for j in range(N - L + 1):
                blk = (slice(i, i + L), slice(j, j + L))
                out[blk] = np.maximum(out[blk], a[blk].mean())
    return out


class Operators:
    """One-shot library calls, each on its own seeded input and layout."""

    imports = "lpsq"
    cycle = False
    clock_kind = "array"
    LAM = 3.0
    # op -> (kind, n, full-size (R, h), reduced (R, h) for the oracle)
    CALLS = {
        "s-1d": ("s", 1, (8.0, 1 / 256), (8.0, 1 / 16)),
        "gstar-1d": ("gstar", 1, (8.0, 1 / 256), (8.0, 1 / 4)),
        "cascade-1d": ("cascade", 1, (8.0, 1 / 256), (8.0, 1 / 4)),
        "maximal-1d": ("hl", 1, (8.0, 1 / 256), (8.0, 1 / 4)),
        "cz-1d": ("cz", 1, (8.0, 1 / 256), None),  # exact check at full size
        "s-2d": ("s", 2, (4.0, 1 / 8), (4.0, 1 / 2)),
        "gstar-2d": ("gstar", 2, (4.0, 1 / 8), (4.0, 1.0)),
        "maximal-2d": ("hl", 2, (4.0, 1 / 8), (4.0, 1.0)),
        "bilinear-s": ("bilinear", 1, (8.0, 1 / 8), (8.0, 1 / 2)),
    }

    def _instance(self, lp, seed: int, salt: int, kind: str, n: int, R: float, h: float):
        """(kernel, input, layout) for one call; layouts are built here, untimed."""
        if kind == "bilinear":
            f = (spikes(lp, seed, salt, n, R, h), spikes(lp, seed, salt + 1000, n, R, h))
            return lp.parse_kernel("bi1:kappa=3", n), f, _cone(lp, n, R, h)
        f = spikes(lp, seed, salt, n, R, h)
        if kind in ("hl", "cz"):
            return None, f, None
        layout = _cone(lp, n, R, h) if kind == "s" else _halfspace(lp, n, R, h)
        return lp.parse_kernel(KERNEL, n), f, layout

    def _apply(self, lp, kind: str, k, f, layout, method: str):
        if kind in ("s", "bilinear"):
            return lp.square_function(k, f, layout, method=method)
        if kind == "gstar":
            return lp.g_star(k, f, self.LAM, layout, method=method)
        if kind == "cascade":
            return lp.g_star_cascade_bound(k, f, self.LAM, layout, method=method)[0]
        if kind == "hl":
            return lp.maximal(f, "hl")
        # rho twice the mean of |f| over the side-2R super cubes, so resolvable
        return lp.cz_decompose(f, 2.0 * f.norm_l1() / (2.0 * f.R) ** f.n)

    def build(self, lp, seed: int, ctx: dict) -> dict:
        return {name: self._instance(lp, seed, salt, kind, n, *full)
                for salt, (name, (kind, n, full, _)) in enumerate(self.CALLS.items())}

    def ops(self, lp, st: dict, rep: int = 0) -> list:
        def call(name):
            k, f, layout = st[name]
            return self._apply(lp, self.CALLS[name][0], k, f, layout, "auto")

        return [(name, name, lambda name=name: call(name)) for name in self.CALLS]

    def check(self, lp, st: dict, name: str, out) -> str | None:
        f = st[name][1]
        if name == "cz-1d":
            resid = float(np.max(np.abs(out.reconstruct() - f.values)))
            return None if resid <= CZ_TOL else f"CZ reconstruction error {resid:g}"
        if name.startswith("maximal") and np.any(out.values < np.abs(f.values)):
            return "maximal function below |f|"
        return _finite(out)

    def digest(self, name: str, out) -> str:
        if name == "cz-1d":
            return digest_array([[q.generation, q.anchor[0]] for q, _ in out.bad]
                                or [0])[:8] + digest_array(out.good.values)[:8]
        return digest_array(out.values)

    def oracles(self, lp, seed: int) -> list:
        """Each call family against its oracle at a reduced size: direct
        summation for linear calls, square_function_at at seeded points for
        the bilinear one, brute force for the maximal function."""

        def err(salt, name):
            kind, n, _, small = self.CALLS[name]
            k, f, layout = self._instance(lp, seed, 200 + salt, kind, n, *small)
            if kind == "hl":
                return rel_err(lp.maximal(f, "hl").values, _hl_brute(f.values))
            fast = self._apply(lp, kind, k, f, layout, "auto").values
            if kind != "bilinear":
                return rel_err(fast, self._apply(lp, kind, k, f, layout, "direct").values)
            cells = np.random.default_rng([seed, 302]).choice(fast.size, 3, replace=False)
            point = [lp.square_function_at(k, f, x, layout)
                     for x in f[0].axis_centers()[cells]]
            return rel_err(fast[cells], point)

        return [(name, lambda salt=salt, name=name: err(salt, name))
                for salt, (name, spec) in enumerate(self.CALLS.items())
                if spec[3] is not None]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# campaign slug -> arguments after ``python -m lpsq.cli --out-dir DIR``
CAMPAIGNS = {
    "dini-suite": ["dini", "--suite"],
    "kernel-check": ["kernel-check"],
    "eval": ["eval"],
    "eval-gstar": ["eval", "--op", "gstar"],
    "eval-gstar-2d": ["eval", "--n", "2", "--R", "4", "--h", "0.125", "--op", "gstar"],
    "cz": ["cz"],
    "verify-weak": ["verify", "weak"],
    "verify-aperture": ["verify", "aperture"],
    "verify-weighted": ["verify", "weighted"],
    "verify-marcinkiewicz": ["verify", "marcinkiewicz"],
    "verify-sparse": ["verify", "sparse"],  # --family added at run time
}
CLI_TIMEOUT_S = 60


def output_digest(out_dir: str) -> str:
    """Digest of summary.json and every CSV under a campaign's output dir."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(out_dir)):
        dirs.sort()
        for name in sorted(files):
            if name == "summary.json" or name.endswith(".csv"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, out_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class Cli:
    """Fresh ``python -m lpsq.cli`` processes, one campaign at a time.

    Set-up imports ``lpsq.cli`` (the import every campaign pays) and writes
    the family file that ``verify sparse`` reads.  An untraced pass cycles
    through the campaigns until its time is up; each repeat writes to a
    directory of its own, so repeats of a campaign can be compared byte
    for byte.
    """

    imports = "lpsq.cli"
    cycle = True
    clock_kind = "process"

    def build(self, lp, seed: int, ctx: dict) -> dict:
        f = spikes(lp, seed, 0, 1, 8.0, 1 / 4)
        fam = lp.sparse_construct(lp.parse_kernel(KERNEL, 1), f,
                                  lp.Cube(1, 1, (0,), "standard", 16.0), 1.0,
                                  _cone(lp, 1, 8.0, 1 / 4), "auto", method="auto")
        os.makedirs(ctx["work"], exist_ok=True)
        family = os.path.join(ctx["work"], "family.json")
        fam.save(family)
        return {"seed": seed, "family": family, "ctx": ctx}

    def ops(self, lp, st: dict, rep: int = 0) -> list:
        ctx = st["ctx"]

        def campaign(slug):
            out_dir = os.path.join(ctx["work"], f"{slug}.r{rep}")
            args = ["--out-dir", out_dir] + CAMPAIGNS[slug] + ["--seed", str(st["seed"])]
            if slug == "verify-sparse":
                args += ["--family", st["family"]]
            if ctx["trace"]:
                spans_file = os.path.join(ctx["work"], f"{slug}.spans.json")
                cmd = [ctx["python"], ctx["worker"], "--cli-child", spans_file, "--"] + args
            else:
                cmd = [ctx["python"], "-m", "lpsq.cli"] + args
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S, env=ctx["env"], cwd=ctx["root"])
            return proc.returncode, out_dir, proc.stderr[-500:]

        return [(slug, slug, lambda slug=slug: campaign(slug)) for slug in CAMPAIGNS]

    def check(self, lp, st: dict, name: str, out) -> str | None:
        code, out_dir, err = out
        if code != 0:
            return f"exit status {code}: {err.strip()}"
        with open(os.path.join(out_dir, "summary.json")) as fh:
            if json.load(fh).get("passed") is not True:
                return "summary.json does not say passed"
        return None

    def digest(self, name: str, out) -> str:
        return output_digest(out[1])

    def oracles(self, lp, seed: int) -> list:
        return []


WORKLOADS = {
    "sparse-1d": Sparse(1, per_pass=2),
    "sparse-2d": Sparse(2, per_pass=4),
    "operators": Operators(),
    "cli": Cli(),
}
