"""One pass of a workload in a fresh interpreter; prints one JSON report line.

    python perfbench/worker.py --workload W --seed S --t0 T --work DIR
        [--pass P] [--budget SECS] [--mode run|trace|setup] [--oracle]
        [--spans-out FILE]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, ``import lpsq`` and input
construction.  ``--pass`` selects the pass's seeded inputs where a workload
draws fresh ones per pass.  ``run`` times the operation list (for a cycling
workload, repeated while the next operation fits in ``--budget``), then
checks every output outside the timed region; ``trace`` does the same under
the span wrappers and writes the raw spans to FILE; ``setup`` stops once
the inputs are ready.  ``--oracle`` adds the workload's fast-path-against-oracle checks.

    python perfbench/worker.py --cli-child SPANS -- <lpsq.cli arguments>

runs one CLI campaign under the span wrappers and writes its spans and
per-layer metrics to SPANS; the exit status is the campaign's.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import resource
import sys
import time
import traceback

import clock
import spans
import workloads


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _cli_child(spans_file: str, argv: list) -> int:
    import lpsq.cli

    rec = spans.Recorder()
    with spans.Tracing(rec) as tr:
        with rec.span("perfbench.campaign"):
            code = lpsq.cli.main(argv)
    metrics = spans.layer_metrics(spans.span_stats(rec.spans), rec.counters)
    with open(spans_file, "w") as fh:
        json.dump({"metrics": metrics, "absent": tr.absent, "spans": rec.spans}, fh)
    return code


def run_ops(wl, lp, st, rec=None, budget: float | None = None) -> tuple:
    """Run the operation list once, or for a cycling workload with a budget,
    again and again while the next operation's last time still fits.

    Each operation is bracketed by reference-loop timings (clock.py).
    Returns (seconds in operations, [(name, key, secs, ref, out, error)]) with
    ``ref`` the mean reference times around the operation; ``key`` names
    the input, so equal keys must give equal outputs.
    """
    results = []
    last = {}
    t_run = time.perf_counter()
    ref_prev = clock.reference()
    rep = 0
    while True:
        for name, key, fn in wl.ops(lp, st, rep):
            if rep and time.perf_counter() - t_run + last[name] > budget:
                return sum(r[2] for r in results), results
            t0 = time.perf_counter()
            try:
                with rec.span(f"perfbench.op.{name}") if rec else contextlib.nullcontext():
                    out = fn()
                err = None
            except Exception as exc:  # an operation that raises is a failed operation
                out, err = None, f"{type(exc).__name__}: {exc}"
            last[name] = time.perf_counter() - t0
            ref_next = clock.reference()
            results.append((name, key, last[name], clock.mean(ref_prev, ref_next), out, err))
            ref_prev = ref_next
        rep += 1
        if not (getattr(wl, "cycle", False) and budget is not None):
            return sum(r[2] for r in results), results


def check_ops(wl, lp, st, results) -> list:
    """Per-operation report: time, output check and digest (untimed)."""
    report = []
    for name, key, secs, ref, out, err in results:
        digest = None
        if err is None:
            try:
                err = wl.check(lp, st, key, out)
                digest = wl.digest(key, out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        report.append({"name": name, "key": key, "s": secs, "ref": ref,
                       "error": err, "digest": digest})
    return report


def run_oracles(wl, lp, seed: int) -> dict:
    """name -> {"err", "ok"}; a check that raises has failed."""
    out = {}
    try:
        checks = wl.oracles(lp, seed)
    except Exception as exc:
        return {"set-up": {"err": f"{type(exc).__name__}: {exc}", "ok": False}}
    for name, thunk in checks:
        try:
            err = thunk()
            out[name] = {"err": err, "ok": err <= workloads.REL_TOL}
        except Exception as exc:
            out[name] = {"err": f"{type(exc).__name__}: {exc}", "ok": False}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, default=0)
    ap.add_argument("--budget", type=float, help="seconds a cycling workload may run")
    ap.add_argument("--mode", choices=["run", "trace", "setup"], default="run")
    ap.add_argument("--oracle", action="store_true")
    ap.add_argument("--spans-out", help="trace mode: where the raw spans go")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    importlib.import_module(wl.imports)  # before any wrapper is installed
    lp = sys.modules["lpsq"]
    ctx = {
        "trace": args.mode == "trace", "work": args.work, "root": os.getcwd(),
        "python": sys.executable, "worker": os.path.abspath(__file__),
        "env": dict(os.environ), "pass": args.pass_index,
    }
    rec = spans.Recorder() if args.mode == "trace" else None
    with spans.Tracing(rec) if rec else contextlib.nullcontext() as tracing:
        with rec.span("perfbench.setup") if rec else contextlib.nullcontext():
            st = wl.build(lp, args.seed, ctx)
        report = {"setup_s": time.monotonic() - args.t0, "setup_ref": clock.reference()}
        if args.mode != "setup":
            run_s, results = run_ops(wl, lp, st, rec, args.budget)
            report["run_s"] = run_s
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            report["peak_rss_mb"] = _peak_rss_mb(who)
    if args.mode != "setup":
        report["ops"] = check_ops(wl, lp, st, results)
    if args.mode == "trace":
        parts = [spans.layer_metrics(spans.span_stats(rec.spans), rec.counters)]
        absent = set(tracing.absent)
        raw = {"spans": rec.spans, "campaigns": {}}
        for name in workloads.CAMPAIGNS if args.workload == "cli" else ():
            path = os.path.join(args.work, f"{name}.spans.json")
            if not os.path.exists(path):  # the campaign crashed; its check says so
                continue
            with open(path) as fh:
                child = json.load(fh)
            parts.append(child["metrics"])
            absent.update(child["absent"])
            raw["campaigns"][name] = child["spans"]
        report["layers"] = spans.merge_layer_metrics(parts)
        report["absent"] = sorted(absent)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(raw, fh)
    if args.oracle:
        report["oracle"] = run_oracles(wl, lp, args.seed)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 2 and sys.argv[1] == "--cli-child":
        sep = sys.argv.index("--")
        sys.exit(_cli_child(sys.argv[2], sys.argv[sep + 1:]))
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
