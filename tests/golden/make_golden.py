"""The committed output corpus, in three files.

``operators.json`` holds digests of S, g*, the cascade bound, the CZ
decomposition (its bad cubes, as generation and anchor, and the
reconstruction good + sum of b_j), the `SquareEvaluator`'s kernel spectra
and ``far_gain``, and the bilinear S and g*, on perfbench's ``spikes``
inputs at two seeds.  ``sparse.json`` holds
digests of the families (cubes, parent links and meta) that
`sparse_construct` builds on the inputs of perfbench's ``sparse-1d`` and
``sparse-2d`` workloads at two seeds and salts 0-3, and on the larger 1-D
N = 1024 and 2-D N = 32 layouts whose families hold child nodes, and of
the full-pool M_S and the Gram table it leaves on the evaluator, at the
reduced sizes of those workloads' oracles.  ``campaigns.json`` holds
the exit status and the digests of summary.json and of every CSV that
``lpsq.cli.main`` writes, at seed 3, for each campaign of perfbench's
``cli`` workload, for ``lpsq sparse`` and for the ``csv:`` routes: a table
modulus for ``dini``, a kernel profile for ``kernel-check`` and ``eval``,
and a 1-D and a 2-D grid function for ``eval``.

    PYTHONPATH=src python tests/golden/make_golden.py          # rewrite the files
    PYTHONPATH=src python tests/golden/make_golden.py --check  # exit 1 if one differs

Each array gets two digests: ``exact`` hashes its bytes, ``rounded`` its
values rounded as perfbench's `digest_array` rounds them (``%.9e``).  An
output file's ``exact`` digest hashes its bytes, and its ``rounded`` one
its text with every decimal fraction so rounded.  A reordered
floating-point sum moves the first and, almost always, not the second.  A change that moves a digest regenerates the file with this
script and names each moved digest in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import lpsq  # noqa: E402
from lpsq.cli import main as cli_main  # noqa: E402
from workloads import CAMPAIGNS, KERNEL, WORKLOADS, Cli, digest_array, spikes  # noqa: E402

CORPUS = os.path.join(HERE, "operators.json")
SPARSE_CORPUS = os.path.join(HERE, "sparse.json")
CAMPAIGN_CORPUS = os.path.join(HERE, "campaigns.json")
SALTS = range(4)  # the sparse families per seed; the full-pool M_S takes salt 100
CAMPAIGN_SEED = 3
# a decimal fraction or exponent form, not part of a word
_FRACTION = re.compile(r"(?<![\w.])-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)(?![\w.])")
SEEDS = (0, 7919)
LAM = 3.0  # g* of one input; a pair needs lambda > 4
LAM_PAIR = 5.0
# (R, h) per case: reduced sizes of perfbench's operators workload
LINEAR = {1: (8.0, 1 / 16), 2: (4.0, 1 / 4)}
BILINEAR = (8.0, 1 / 4)
# (R, h) per n: sparse layouts larger than the workloads', 1-D N = 1024 and
# 2-D N = 32, whose families hold child nodes of several sides
LARGE_SPARSE = {1: (8.0, 1 / 64), 2: (4.0, 1 / 4)}


def digests(values) -> dict:
    """The exact and the rounded digest of a real or complex array."""
    a = np.ascontiguousarray(values)
    if np.iscomplexobj(a):
        a = a.view(float)  # real and imaginary parts interleaved
    return {"exact": hashlib.sha256(a.tobytes()).hexdigest()[:16],
            "rounded": digest_array(a)}


def _layouts(n: int, R: float, h: float):
    """perfbench's cone and half-space of one size."""
    return (lpsq.build_cone(1.0, n, h, 2 * h, 2 * R, 4),
            lpsq.build_halfspace(n, h, 2 * h, 2 * R, 4, R))


def corpus() -> dict:
    """Case name -> digests of its output array."""
    out = {}
    for n, (R, h) in LINEAR.items():
        k = lpsq.parse_kernel("ex1:kappa=3", n)
        cone, hs = _layouts(n, R, h)
        for seed in SEEDS:
            f = spikes(lpsq, seed, 0, n, R, h)
            tag = f"n{n}/seed{seed}"
            out[f"{tag}/S"] = lpsq.square_function(k, f, cone).values
            out[f"{tag}/g_star"] = lpsq.g_star(k, f, LAM, hs).values
            out[f"{tag}/cascade"] = lpsq.g_star_cascade_bound(k, f, LAM, hs)[0].values
            # rho as perfbench's cz case: twice the mean of |f| over the box
            cz = lpsq.cz_decompose(f, 2.0 * f.norm_l1() / (2.0 * R) ** n)
            out[f"{tag}/cz/bad_cubes"] = np.array([[q.generation, *q.anchor] for q, _ in cz.bad])
            out[f"{tag}/cz/reconstruction"] = cz.reconstruct()
        # the evaluator's arrays depend on the layout only
        ev = lpsq.SquareEvaluator(k, f, cone)
        out[f"n{n}/evaluator/spectra"] = np.concatenate([s.ravel() for s in ev._spectra])
        out[f"n{n}/evaluator/far_gain"] = ev.far_gain
    R, h = BILINEAR
    kb = lpsq.parse_kernel("bi1:kappa=3", 1)
    cone, hs = _layouts(1, R, h)
    for seed in SEEDS:
        pair = (spikes(lpsq, seed, 0, 1, R, h), spikes(lpsq, seed, 1000, 1, R, h))
        out[f"bilinear/seed{seed}/S"] = lpsq.square_function(kb, pair, cone).values
        out[f"bilinear/seed{seed}/g_star"] = lpsq.g_star(kb, pair, LAM_PAIR, hs).values
    return {name: digests(v) for name, v in out.items()}


def sparse_corpus() -> dict:
    """Case name -> digests of a sparse family or of a full-pool M_S and
    Gram table.  Per workload and seed one kernel object serves the salts
    in order, as a perfbench pass does, so the evaluator and its Gram
    table carry over from one construction to the next."""
    out = {}
    for name in ("sparse-1d", "sparse-2d"):
        wl = WORKLOADS[name]
        n = wl.n
        for seed in SEEDS:
            st = wl.build(lpsq, seed, {})
            for salt in SALTS:
                fam = lpsq.sparse_construct(st["k"], spikes(lpsq, seed, salt, n, wl.R, wl.h),
                                            st["q0"], 1.0, st["cone"], "auto", method="auto")
                text = json.dumps(fam.to_json(), sort_keys=True)
                out[f"{name}/seed{seed}/salt{salt}/family"] = file_digests(text.encode())
            R, h = wl.small
            k = lpsq.parse_kernel(KERNEL, n)
            f = spikes(lpsq, seed, 100, n, R, h)
            cone = lpsq.build_cone(1.0, n, h, 2 * h, 2 * R, 4)
            q0 = wl.root(lpsq, R)
            ms = lpsq.lerner_maximal(k, f, cone, "M_S", lpsq.dyadic_cube_pool(q0, f),
                                     domain=q0.box()).values
            out[f"{name}/seed{seed}/full_pool_M_S"] = digests(ms)
            table = lpsq.SquareEvaluator.of(k, f, cone)._gram
            out[f"{name}/seed{seed}/gram_table"] = digests(
                table[0] if table is not None else np.zeros(0))
    for n, (R, h) in LARGE_SPARSE.items():
        N = round(2 * R / h)
        cone = lpsq.build_cone(1.0, n, h, 2 * h, 2 * R, 4)
        q0 = lpsq.Cube(n, 1, (0,) * n, "standard", 2 * R)
        for seed in SEEDS:
            k = lpsq.parse_kernel(KERNEL, n)
            for salt in SALTS:
                fam = lpsq.sparse_construct(k, spikes(lpsq, seed, salt, n, R, h), q0, 1.0,
                                            cone, "auto", method="auto")
                text = json.dumps(fam.to_json(), sort_keys=True)
                out[f"sparse-{n}d-N{N}/seed{seed}/salt{salt}/family"] = file_digests(
                    text.encode())
    return out


def file_digests(data: bytes) -> dict:
    """The exact digest of a file's bytes and the rounded one of its text."""
    text = _FRACTION.sub(lambda m: f"{float(m.group()):.9e}", data.decode())
    return {"exact": hashlib.sha256(data).hexdigest()[:16],
            "rounded": hashlib.sha256(text.encode()).hexdigest()[:16]}


def _write_inputs(d: str) -> dict:
    """The ``csv:`` input files, from exact float arithmetic: a table
    modulus, a kernel profile with a header row, and 1-D and 2-D grid
    functions as `save_csv` writes them."""
    paths = {name: os.path.join(d, f"{name}.csv") for name in ("modulus", "profile", "f1", "f2")}
    with open(paths["modulus"], "w") as fh:
        fh.write("0,0\n0.125,0.25\n0.25,0.4\n0.5,0.7\n1,1\n")
    with open(paths["profile"], "w") as fh:
        fh.write("x,k\n" + "".join(f"{x!r},{x / (1 + x * x)!r}\n"
                                    for x in (0.25 * i for i in range(-16, 17))))
    lpsq.save_csv(lpsq.sample_function(lambda x: 1 / (1 + x * x), 1, 4.0, 0.25), paths["f1"])
    lpsq.save_csv(lpsq.sample_function(lambda x, y: 1 / (1 + x * x + y * y), 2, 2.0, 0.25),
                  paths["f2"])
    return paths


def _campaign_args(d: str) -> dict:
    """Case name -> the arguments after ``--out-dir DIR``."""
    paths = _write_inputs(d)
    family = Cli().build(lpsq, CAMPAIGN_SEED, {"work": d})["family"]
    cases = {f"cli/{slug}": list(args) for slug, args in CAMPAIGNS.items()}
    cases["cli/verify-sparse"] += ["--family", family]
    cases["sparse"] = ["sparse"]
    cases["csv/dini"] = ["dini", "--modulus", f"csv:{paths['modulus']}"]
    cases["csv/kernel-check"] = ["kernel-check", "--kernel", f"csv:{paths['profile']}"]
    cases["csv/eval-kernel"] = ["eval", "--kernel", f"csv:{paths['profile']}"]
    cases["csv/eval-1d"] = ["eval", "--function", f"csv:{paths['f1']}", "--R", "4",
                            "--h", "0.25"]
    cases["csv/eval-2d"] = ["eval", "--n", "2", "--function", f"csv:{paths['f2']}",
                            "--R", "2", "--h", "0.25"]
    return cases


def campaign_corpus() -> dict:
    """Case name -> the exit status and the digests of summary.json and
    every CSV of one in-process ``lpsq.cli.main`` run."""
    out = {}
    with tempfile.TemporaryDirectory() as d:
        for case, args in _campaign_args(d).items():
            out_dir = os.path.join(d, case.replace("/", "-"))
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli_main(["--out-dir", out_dir, *args, "--seed", str(CAMPAIGN_SEED)])
            entry = {"exit": code}
            for base, _, files in os.walk(out_dir):
                for name in files:
                    if name == "summary.json" or name.endswith(".csv"):
                        path = os.path.join(base, name)
                        with open(path, "rb") as fh:
                            entry[os.path.relpath(path, out_dir)] = file_digests(fh.read())
            out[case] = entry
    return out


def render(table: dict) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def main(argv) -> int:
    files = ((CORPUS, render(corpus())), (SPARSE_CORPUS, render(sparse_corpus())),
             (CAMPAIGN_CORPUS, render(campaign_corpus())))
    if "--check" in argv:
        differs = []
        for path, text in files:
            with open(path) as fh:
                if fh.read() != text:
                    differs.append(os.path.basename(path))
        print(f"corpus differs: {', '.join(differs)}" if differs else "corpus matches")
        return 1 if differs else 0
    for path, text in files:
        with open(path, "w") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
