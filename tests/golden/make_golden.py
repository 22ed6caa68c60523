"""The operators half of the committed output corpus: digests of S, g*, the
cascade bound, the `SquareEvaluator`'s kernel spectra and ``far_gain``, and
the bilinear S and g*, on perfbench's ``spikes`` inputs at two seeds.

    PYTHONPATH=src python tests/golden/make_golden.py          # rewrite the file
    PYTHONPATH=src python tests/golden/make_golden.py --check  # exit 1 if it differs

Each array gets two digests: ``exact`` hashes its bytes, ``rounded`` its
values rounded as perfbench's `digest_array` rounds them (``%.9e``).  A
reordered floating-point sum moves the first and, almost always, not the
second.  A change that moves a digest regenerates the file with this
script and names each moved digest in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
for _path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import lpsq  # noqa: E402
from workloads import digest_array, spikes  # noqa: E402

CORPUS = os.path.join(HERE, "operators.json")
SEEDS = (0, 7919)
LAM = 3.0  # g* of one input; a pair needs lambda > 4
LAM_PAIR = 5.0
# (R, h) per case: reduced sizes of perfbench's operators workload
LINEAR = {1: (8.0, 1 / 16), 2: (4.0, 1 / 4)}
BILINEAR = (8.0, 1 / 4)


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


def render(table: dict) -> str:
    return json.dumps(table, indent=1, sort_keys=True) + "\n"


def main(argv) -> int:
    text = render(corpus())
    if "--check" in argv:
        with open(CORPUS) as fh:
            same = fh.read() == text
        print("corpus matches" if same else "corpus differs")
        return 0 if same else 1
    with open(CORPUS, "w") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
