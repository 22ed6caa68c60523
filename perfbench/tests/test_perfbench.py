"""Tests of the benchmark's own machinery (generator, spans, wrappers, verdicts)."""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import lpsq  # noqa: E402
import lpsq.cli  # noqa: E402
import lpsq.harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_deterministic_per_seed():
    a = workloads.spikes(lpsq, 3, 0, 1, 8.0, 1 / 64)
    b = workloads.spikes(lpsq, 3, 0, 1, 8.0, 1 / 64)
    c = workloads.spikes(lpsq, 4, 0, 1, 8.0, 1 / 64)
    d = workloads.spikes(lpsq, 3, 1, 1, 8.0, 1 / 64)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert not np.array_equal(a.values, d.values)
    two = workloads.spikes(lpsq, 3, 0, 2, 4.0, 1 / 4)
    assert two.values.shape == (32, 32)
    assert np.array_equal(two.values, workloads.spikes(lpsq, 3, 0, 2, 4.0, 1 / 4).values)
    # spikes of amplitude >= 1 stand above the 0.01 noise floor
    assert 1 <= int(np.sum(np.abs(a.values) > 0.5)) <= 8


def test_self_time_arithmetic_on_synthetic_spans():
    synthetic = [
        # id, parent, name, start, end
        [0, None, "a", 0.0, 10.0],
        [1, 0, "b", 1.0, 4.0],
        [2, 1, "c", 2.0, 3.0],
        [3, 0, "a", 5.0, 9.0],   # recursive call of a
        [4, 3, "c", 6.0, 6.5],
        [5, None, "c", 11.0, 12.0],
    ]
    st = spans.span_stats(synthetic)
    assert st["a"]["calls"] == 2
    assert st["a"]["total_s"] == pytest.approx(10.0)          # outermost a only
    assert st["a"]["self_s"] == pytest.approx((10 - 3 - 4) + (4 - 0.5))
    assert st["b"] == pytest.approx({"calls": 1, "total_s": 3.0, "self_s": 2.0})
    assert st["c"] == pytest.approx({"calls": 3, "total_s": 2.5, "self_s": 2.5})


def test_union_length_merges_overlaps_and_clips():
    assert spans._union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5.0)
    assert spans._union_length([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert spans._union_length([], 0, 10) == 0.0


def _bindings():
    return {
        "operators.psi_t_apply": lpsq.operators.psi_t_apply,
        "lpsq.psi_t_apply": lpsq.psi_t_apply,
        "cli.g_star": lpsq.cli.g_star,
        "harness.square_function_multi": lpsq.harness.square_function_multi,
        "eval_values": lpsq.operators.SquareEvaluator.__dict__["eval_values"],
        "rfft": np.fft.rfft,
        "parse_kernel": lpsq.parse_kernel,
        "build_cone": lpsq.grids.build_cone,
    }


def test_wrappers_are_installed_and_restored():
    before = _bindings()
    rec = spans.Recorder()
    with pytest.raises(RuntimeError):
        with spans.Tracing(rec) as tr:
            during = _bindings()
            k = lpsq.parse_kernel("ex1:kappa=3", 1)
            f = workloads.spikes(lpsq, 0, 0, 1, 8.0, 1 / 4)
            cone = lpsq.build_cone(1.0, 1, f.h, 2 * f.h, 16.0, 4)
            lpsq.square_function(k, f, cone, method="auto")
            raise RuntimeError("the run fails; wrappers must still go")
    assert tr.absent == []
    assert all(during[key] is not before[key] for key in before)
    assert _bindings() == before
    st = spans.span_stats(rec.spans)
    assert st["operators.psi_t"]["calls"] == len(cone.t_levels)
    assert st["kernels.profile"]["calls"] == len(cone.t_levels)
    assert st["operators.square_function"]["calls"] == 1
    assert st["grids.cone"]["calls"] == 1
    assert rec.counters["kernels.profile.points"] > 0


def test_missing_target_is_reported_absent(monkeypatch):
    targets = dict(spans.SPAN_TARGETS)
    targets["operators.g_star"] = [("lpsq.operators", "no_such_function")]
    monkeypatch.setattr(spans, "SPAN_TARGETS", targets)
    rec = spans.Recorder()
    with spans.Tracing(rec) as tr:
        pass
    assert tr.absent == ["lpsq.operators.no_such_function"]
    metrics = spans.layer_metrics(spans.span_stats(rec.spans), rec.counters)
    assert metrics["operators.g_star.calls"] == 0


class _FakeWorkload:
    cycle = False

    def ops(self, lp, st, rep=0):
        def boom():
            raise ValueError("no")

        return [("ok", "ok", lambda: 1.0), ("raises", "raises", boom),
                ("wrong", "wrong", lambda: -1.0)]

    def check(self, lp, st, name, out):
        return None if out > 0 else "negative output"

    def digest(self, name, out):
        return repr(out)


def test_failing_operations_count_in_fail_frac():
    wl = _FakeWorkload()
    run_s, results = worker.run_ops(wl, None, {})
    ops = worker.check_ops(wl, None, {}, results)
    verdict = run.assess([{"ops": ops}])
    assert verdict["attempted"] == 3
    assert verdict["failed"] == 2
    assert verdict["correct"] is False
    assert any("ValueError" in e for e in verdict["errors"])


class _CyclingWorkload:
    cycle = True

    def ops(self, lp, st, rep=0):
        return [("a", "a", lambda: rep), ("b", "b", lambda: rep)]


def test_cycling_workload_repeats_within_budget_only():
    wl = _CyclingWorkload()
    _, once = worker.run_ops(wl, None, {})
    assert [r[0] for r in once] == ["a", "b"]
    _, none_left = worker.run_ops(wl, None, {}, budget=0.0)
    assert [r[0] for r in none_left] == ["a", "b"]  # the first cycle always runs
    _, cycled = worker.run_ops(wl, None, {}, budget=0.5)  # each op adds a reference loop
    assert len(cycled) > 2
    assert [r[4] for r in cycled[:4]] == [0, 0, 1, 1]
    assert all(min(r[3]) > 0 for r in cycled)  # the reference times around each op


def test_digest_drift_between_passes_is_a_failure():
    p1 = {"ops": [{"name": "x", "key": "x", "s": 1.0, "error": None, "digest": "aa"}]}
    p2 = {"ops": [{"name": "x", "key": "x", "s": 1.0, "error": None, "digest": "bb"}]}
    p3 = {"ops": [{"name": "x", "key": "y", "s": 1.0, "error": None, "digest": "bb"}]}
    assert run.assess([p1, dict(p1)])["correct"] is True
    assert run.assess([p1, p3])["correct"] is True  # another input, another output
    verdict = run.assess([p1, p2])
    assert (verdict["attempted"], verdict["failed"], verdict["correct"]) == (2, 1, False)
    oracle_bad = {"ops": [], "oracle": {"S": {"err": 1e-3, "ok": False}}}
    assert run.assess([p1, oracle_bad])["correct"] is False


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
