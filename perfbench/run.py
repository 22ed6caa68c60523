"""Benchmark of the lpsq package, run from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (closed loop, one client, one operation in flight):

    sparse-1d  sparse_construct -> verify_sparse -> sparse_rhs_eval, 1-D N=512,
               two seeded instances per pass, fresh ones each pass
    sparse-2d  the same pipeline in 2-D at 16x16, four instances per pass
    operators  one-shot S, g*, cascade, maximal, CZ and bilinear S calls
    cli        fresh ``python -m lpsq.cli`` processes, one campaign at a time

A run is a sequence of passes.  Each pass is a fresh interpreter
(perfbench/worker.py) that imports the package, builds the seeded inputs and
runs the workload's operation list, so interpreter start and import are paid
the way users pay them.  Passes repeat while another one fits in
``--seconds`` (at least MIN_PASSES run); the cli workload instead runs one
pass that cycles through the campaigns for the time left after its set-up
samples.  Every output is checked outside the timed region, and outputs of
the same input (a campaign's repeats, the two passes of a traced run) must
have equal digests.

``--trace 0`` prints the end-to-end metrics: setup_s is the median over the
run's set-up samples; each operation's time is the median over its repeats
(the mean over the instances, slot by slot, where a workload draws fresh
inputs per pass), run_s is their sum and op_p50_s their median; peak_rss_mb
is the median over passes.  Times are scaled to a nominal host speed by
reference loops run around each of them, with the run pinned to one CPU
(see clock.py); the raw wall times are in the details line.
``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics of the traced pass; see perfbench/spans.py.

The last stdout line is the JSON result; the line before it holds details:
per-operation times and digests, oracle errors, failure fraction, versions,
nproc and load average.  The workload seed only reaches the program as
generated inputs.  DEFAULT_SEED is the seed for everyday runs;
HELD_OUT_SEED is kept for confirming a claimed gain on unseen inputs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import clock  # noqa: E402
import spans  # noqa: E402
from workloads import CAMPAIGNS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 7919
SETUP_SAMPLES = 3
MIN_PASSES = 3
CHECK_RESERVE_S = 1.0  # output checks after a cycling pass's budget
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, every child included
WORK_DIR = ".perfbench_out"

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    out = spans.layer_metric_units()
    out["cli.import_s"] = "s"
    for slug in CAMPAIGNS:
        out[f"cli.campaign_s.{slug}"] = "s"
    out["trace.overhead_frac"] = "ratio"
    return out


class BenchError(Exception):
    pass


class Runner:
    """Spawns workers one at a time inside the run's deadline."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.t_start = time.monotonic()
        self.work = os.path.join(root, WORK_DIR, f"{workload}-s{seed}-p{os.getpid()}")
        env = dict(os.environ)
        env.pop("LPSQ_THREADS", None)  # the CLI default: one worker thread
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t_start)

    def _run(self, cmd: list) -> subprocess.CompletedProcess:
        timeout = self.remaining()
        if timeout <= 1.0:
            raise BenchError("run deadline reached")
        # a process group of its own, so a timeout also ends the worker's CLI children
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=self.env, cwd=self.root,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired as exc:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{cmd[:4]} exceeded the run deadline") from exc
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)

    def spans_path(self) -> str:
        """Raw spans of the latest traced run of this workload and seed."""
        return os.path.join(self.root, WORK_DIR, f"spans-{self.workload}-s{self.seed}.json")

    def spawn(self, mode: str, oracle: bool = False, pass_index: int = 0,
              budget: float | None = None) -> dict:
        work = os.path.join(self.work, f"pass{self.count}")
        self.count += 1
        os.makedirs(work, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--work", work, "--mode", mode, "--pass", str(pass_index)]
        if oracle:
            cmd.append("--oracle")
        if budget is not None:
            cmd += ["--budget", repr(budget)]
        if mode == "trace":
            cmd += ["--spans-out", self.spans_path()]
        ref = clock.reference()
        proc = self._run(cmd + ["--t0", repr(time.monotonic())])
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr[-2000:]}")
        report = json.loads(lines[-1])
        # set-up is bracketed by this reference and the worker's, taken once ready
        report["setup_scaled_s"] = clock.scaled(
            report["setup_s"], clock.mean(ref, report["setup_ref"]), "process")
        return report

    def import_s(self) -> float:
        """Median fresh ``import lpsq.cli`` minus median bare interpreter start."""
        def timed(code):
            t0 = time.perf_counter()
            proc = self._run([sys.executable, "-c", code])
            if proc.returncode != 0:
                raise BenchError(f"python -c {code!r} failed: {proc.stderr[-500:]}")
            return time.perf_counter() - t0

        bare = [timed("pass") for _ in range(IMPORT_SAMPLES)]
        full = [timed("import lpsq.cli") for _ in range(IMPORT_SAMPLES)]
        return statistics.median(full) - statistics.median(bare)


def assess(passes: list) -> dict:
    """Failures, determinism and oracle verdicts over a run's passes."""
    first = {}
    attempted = failed = 0
    errors = []
    for p in passes:
        for op in p.get("ops", ()):
            attempted += 1
            ref = first.setdefault(op["key"], op["digest"])
            error = op["error"]
            if error is None and op["digest"] != ref:
                error = f"digest {op['digest']} differs from first pass {ref}"
            if error is not None:
                failed += 1
                errors.append(f"{op['name']}: {error}")
    oracle = {}
    for p in passes:
        oracle.update(p.get("oracle", {}))
    bad_oracle = [k for k, v in oracle.items() if not v["ok"]]
    errors += [f"oracle {k}: {oracle[k]['err']}" for k in bad_oracle]
    return {
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and not bad_oracle and attempted > 0,
        "errors": errors, "oracle": oracle,
        "digests": first,
    }


def run_untraced(runner: Runner, seconds: float) -> tuple:
    t0 = time.monotonic()
    setups = []
    passes = []
    if WORKLOADS[runner.workload].cycle:
        while len(setups) < SETUP_SAMPLES - 1:
            setups.append(runner.spawn("setup"))
        left = seconds - (time.monotonic() - t0)
        budget = left - statistics.median(p["setup_s"] for p in setups) - CHECK_RESERVE_S
        passes.append(runner.spawn("run", oracle=True, budget=max(budget, 0.0)))
    else:
        while True:
            t_pass = time.monotonic()
            passes.append(runner.spawn("run", oracle=not passes, pass_index=len(passes)))
            last = time.monotonic() - t_pass
            elapsed = time.monotonic() - t0
            if len(passes) >= MIN_PASSES and elapsed + last > seconds:
                break
            if last > runner.remaining() / 2:
                break
    setups += passes
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("setup"))
    kind = WORKLOADS[runner.workload].clock_kind
    op_times, op_keys = {}, {}
    for p in passes:
        for op in p["ops"]:
            op_times.setdefault(op["name"], []).append(clock.scaled(op["s"], op["ref"], kind))
            op_keys.setdefault(op["name"], set()).add(op["key"])
    # an operation's repeats on one input are reduced to their median, so a
    # burst of host load in one repeat moves no figure; a slot fed fresh
    # instances takes their mean, the expected cost of a seeded instance,
    # which a median would not give when the costs fall in two clusters
    # (families of one node and of several)
    op_costs = [statistics.median(v) if len(op_keys[name]) == 1 else statistics.fmean(v)
                for name, v in op_times.items()]
    metrics = {
        "setup_s": statistics.median(p["setup_scaled_s"] for p in setups),
        "run_s": sum(op_costs),
        "op_p50_s": statistics.median(op_costs),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    details = {"passes": len(passes), "ops_timed": sum(map(len, op_times.values())),
               "setup_wall_s": [p["setup_s"] for p in setups],
               "setup_ref": [p["setup_ref"] for p in setups],
               "pass_run_wall_s": [p["run_s"] for p in passes],
               "wall_s": time.monotonic() - t0}
    return passes, metrics, details


def run_traced(runner: Runner) -> tuple:
    ref = runner.spawn("run", oracle=True)
    traced = runner.spawn("trace")
    metrics = dict(traced["layers"])
    cli_times = ({op["name"]: clock.scaled(op["s"], op["ref"], "process") for op in ref["ops"]}
                 if runner.workload == "cli" else {})
    for slug in CAMPAIGNS:
        metrics[f"cli.campaign_s.{slug}"] = cli_times.get(slug, 0.0)
    metrics["cli.import_s"] = runner.import_s()
    metrics["trace.overhead_frac"] = traced["run_s"] / ref["run_s"] - 1.0
    details = {"run_s_untraced": ref["run_s"], "run_s_traced": traced["run_s"],
               "absent": traced["absent"], "spans_file": runner.spans_path()}
    return [ref, traced], metrics, details


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "loadavg": list(os.getloadavg())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lpsq", "__init__.py")):
        print("run from the root of an lpsq checkout (src/lpsq not found)", file=sys.stderr)
        return 2
    # installed users run from .pyc files; compile before anything is timed
    if not (compileall.compile_dir(os.path.join(root, "src"), quiet=1)
            and compileall.compile_dir(HERE, quiet=1)):
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2

    # one CPU for the run and all its children, so that each timing and the
    # reference loops around it run on the same vCPU (see clock.py)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    runner = Runner(root, args.workload, args.seed)
    env_before = environment()
    try:
        if args.trace:
            passes, metrics, details = run_traced(runner)
            units = per_layer_units()
        else:
            passes, metrics, details = run_untraced(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    verdict = assess(passes)
    details.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env_before, "loadavg_after": list(os.getloadavg()),
        "fail_frac": verdict["failed"] / verdict["attempted"],
        "op_wall_ref": [[op["key"], op["s"], op["ref"]] for p in passes for op in p["ops"]],
        "digests": verdict["digests"], "oracle": verdict["oracle"],
        "errors": verdict["errors"],
    })
    print(json.dumps(details, sort_keys=True))
    result = {
        "correct": verdict["correct"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
