"""Span recording and per-layer wrappers for the traced benchmark run.

Wrappers are installed from outside the package: every ``lpsq`` module
attribute bound to a wrapped function (the package re-exports names, and
``cli`` / ``harness`` import several by name) is replaced for the traced run
alone and restored afterwards.  A target that no longer exists is reported
as absent and its metrics read 0; the run goes on.

Spans carry (id, parent id, name, start, end) and stay in memory until the
run ends.  Per layer the run reports ``.calls``, ``.total_s`` (outermost
spans of that name, so a recursive call is not counted twice) and
``.self_s`` (duration minus the part covered by direct child spans).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import time
import tracemalloc
from contextlib import contextmanager

# span name -> wrapped targets as (module, attribute path)
SPAN_TARGETS = {
    "operators.psi_t": [("lpsq.operators", "psi_t_apply")],
    "operators.evaluator": [("lpsq.operators", "SquareEvaluator.eval_values")],
    "operators.square_function": [("lpsq.operators", "square_function_multi")],
    "operators.lerner": [("lpsq.operators", "lerner_maximal")],
    "operators.g_star": [("lpsq.operators", "g_star")],
    "operators.cascade": [("lpsq.operators", "g_star_cascade_bound")],
    "operators.maximal": [("lpsq.operators", "maximal")],
    "kernels.check": [("lpsq.kernels", "kernel_condition_check")],
    "grids.cone": [("lpsq.grids", "build_cone")],
    "grids.sample": [("lpsq.grids", "sample_function")],
    "dyadic.sparse": [("lpsq.dyadic", "sparse_construct")],
    "dyadic.pool": [("lpsq.dyadic", "dyadic_cube_pool")],
    "dyadic.verify": [("lpsq.dyadic", "verify_sparse")],
    "dyadic.rhs": [("lpsq.dyadic", "sparse_rhs_eval")],
    "dyadic.cz": [("lpsq.dyadic", "cz_decompose")],
    "moduli.dini": [("lpsq.moduli", "dini_constant"),
                    ("lpsq.moduli", "dini_inequality_suite")],
    "weights.apvec": [("lpsq.weights", "apvec_constant")],
    "harness.check": [("lpsq.harness", name) for name in (
        "weak_type_profile", "aperture_scaling_check",
        "weighted_norm_check", "kolmogorov_check")],
}
# psi_t_apply on a pair of inputs is the bilinear layer
PAIR_SPAN = "operators.psi_t_pair"
PROFILE_SPAN = "kernels.profile"
SPAN_NAMES = sorted(list(SPAN_TARGETS) + [PAIR_SPAN, PROFILE_SPAN])

# FFT entry points counted (not timed) as operators.fft.{calls,points}
FFT_TARGETS = [("numpy.fft", name) for name in ("rfft", "irfft", "rfftn", "irfftn")]
FFT_TARGETS.append(("scipy.signal", "fftconvolve"))

COUNTERS = {
    "operators.lerner.pool_cubes": "count",
    "operators.fft.calls": "count",
    "operators.fft.points": "count",
    "kernels.profile.points": "count",
    "grids.cone.alloc_mb": "MB",
    "dyadic.sparse.nodes": "count",
    "dyadic.sparse.gamma_doublings": "count",
    "dyadic.pool.cubes": "count",
    "dyadic.cz.cubes": "count",
}
MAX_COUNTERS = {"grids.cone.alloc_mb"}  # peak over calls, not a sum


def layer_metric_units() -> dict:
    """Per-layer metric name -> unit, for every span and counter."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.total_s"] = "s"
        out[f"{name}.self_s"] = "s"
    out.update(COUNTERS)
    return out


class Recorder:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end]
        self.counters = {}
        self._stack = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, name, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec[4] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if name in MAX_COUNTERS:
            self.counters[name] = max(self.counters.get(name, 0.0), value)
        else:
            self.counters[name] = self.counters.get(name, 0) + value


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_stats(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} from (id, parent, name, start, end)."""
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)
    stats = {}
    for sid, parent, name, start, end in spans:
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        dur = end - start
        kids = [(c[3], c[4]) for c in children.get(sid, ())]
        st["self_s"] += dur - _union_length(kids, start, end)
        anc = parent
        while anc is not None and by_id[anc][2] != name:
            anc = by_id[anc][1]
        if anc is None:
            st["total_s"] += dur
    return stats


def layer_metrics(stats: dict, counters: dict) -> dict:
    """Flat per-layer metric values (0 for layers the run did not reach)."""
    out = {}
    for name in SPAN_NAMES:
        st = stats.get(name, {})
        out[f"{name}.calls"] = st.get("calls", 0)
        out[f"{name}.total_s"] = st.get("total_s", 0.0)
        out[f"{name}.self_s"] = st.get("self_s", 0.0)
    for name in COUNTERS:
        out[name] = counters.get(name, 0)
    return out


def merge_layer_metrics(parts) -> dict:
    """Combine the flat metrics of independent traced processes."""
    out = {}
    for part in parts:
        for key, val in part.items():
            if key in MAX_COUNTERS:
                out[key] = max(out.get(key, 0.0), val)
            else:
                out[key] = out.get(key, 0) + val
    return out


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------


def _resolve(modname: str, path: str):
    """(owner, attribute, object) for module attribute path, or None."""
    owner = sys.modules.get(modname)  # never import what the program did not
    if owner is None:
        return None
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if obj is None:
        return None
    return owner, attr, obj


def _bindings(owner, attr, obj):
    """Every place the object is bound: its owner plus lpsq modules by name."""
    sites = [(owner, attr)]
    if isinstance(owner, type):
        return sites
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "lpsq" or modname.startswith("lpsq.")):
            continue
        for name, val in list(vars(mod).items()):
            if val is obj and (mod, name) != (owner, attr):
                sites.append((mod, name))
    return sites


def _is_pair(args) -> bool:
    return len(args) > 1 and isinstance(args[1], (tuple, list))


def _post(name: str, rec: Recorder, args, kwargs, result) -> None:
    """Counters taken from a wrapped call's arguments and result."""
    if name == "operators.lerner":
        pool = kwargs.get("cube_pool", args[4] if len(args) > 4 else ())
        rec.count("operators.lerner.pool_cubes", len(pool))
    elif name == "dyadic.sparse":
        rec.count("dyadic.sparse.nodes", len(result.cubes))
        rec.count("dyadic.sparse.gamma_doublings", round(math.log2(result.meta["gamma"])))
    elif name == "dyadic.pool":
        rec.count("dyadic.pool.cubes", len(result))
    elif name == "dyadic.cz":
        rec.count("dyadic.cz.cubes", len(result.bad))


def _span_wrapper(name: str, fn, rec: Recorder):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        span = PAIR_SPAN if name == "operators.psi_t" and _is_pair(args) else name
        if span == "grids.cone":
            return _cone_wrapper(fn, rec, args, kwargs)
        with rec.span(span):
            result = fn(*args, **kwargs)
        _post(span, rec, args, kwargs, result)
        return result

    return wrapped


def _cone_wrapper(fn, rec: Recorder, args, kwargs):
    # tracemalloc runs only inside the outermost cone build
    own = not tracemalloc.is_tracing()
    if own:
        tracemalloc.start()
    try:
        with rec.span("grids.cone"):
            result = fn(*args, **kwargs)
        if own:
            rec.count("grids.cone.alloc_mb", tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        if own:
            tracemalloc.stop()
    return result


def _fft_wrapper(fn, rec: Recorder):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        rec.count("operators.fft.calls", 1)
        rec.count("operators.fft.points", out.size)
        return out

    return wrapped


def _profile_wrapper(fn, rec: Recorder):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with rec.span(PROFILE_SPAN):
            out = fn(*args, **kwargs)
        rec.count("kernels.profile.points", getattr(out, "size", 1))
        return out

    return wrapped


def _parse_kernel_wrapper(fn, rec: Recorder):
    """Kernels come back with their profile (or psi) recorded as kernels.profile."""
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        k = fn(*args, **kwargs)
        field = "profile" if k.profile is not None else "psi"
        return dataclasses.replace(k, **{field: _profile_wrapper(getattr(k, field), rec)})

    return wrapped


class Tracing:
    """Installs every wrapper on entry and restores the originals on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.absent = []
        self._saved = []

    def _patch(self, modname: str, path: str, make) -> None:
        found = _resolve(modname, path)
        if found is None:
            self.absent.append(f"{modname}.{path}")
            return
        owner, attr, obj = found
        new = make(obj)
        for site, name in _bindings(owner, attr, obj):
            self._saved.append((site, name, obj))
            setattr(site, name, new)

    def __enter__(self):
        try:
            for span, targets in SPAN_TARGETS.items():
                for modname, path in targets:
                    self._patch(modname, path,
                                lambda fn, s=span: _span_wrapper(s, fn, self.rec))
            for modname, path in FFT_TARGETS:
                self._patch(modname, path, lambda fn: _fft_wrapper(fn, self.rec))
            self._patch("lpsq.kernels", "parse_kernel",
                        lambda fn: _parse_kernel_wrapper(fn, self.rec))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            site, name, obj = self._saved.pop()
            setattr(site, name, obj)

    def __exit__(self, *exc):
        self.restore()
        return False
