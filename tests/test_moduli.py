import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpsq.errors import (
    ConfigError,
    DivergenceError,
    MonotonicityError,
    ParameterError,
)
from lpsq import moduli
from lpsq.moduli import (
    ExpTail,
    ModulusOfContinuity,
    _log_ratio_max,
    dini_constant,
    dini_inequality_suite,
    dini_integral,
    log_modulus,
    logsplit_moduli,
    parse_modulus,
    power_modulus,
    table_modulus,
)

from conftest import exp_substituted_quad


def _decreasing():
    """1 - t, with its exact law 1 - e^{-v}: fails the increasing check."""
    return ModulusOfContinuity("bad", lambda t: 1.0 - t, lambda u: -np.expm1(-u),
                               ExpTail(1.0, -1.0, 1.0))


def _write_table(tmp_path, rows, name="w.csv"):
    path = tmp_path / name
    path.write_text("\n".join(",".join(map(str, row)) for row in rows))
    return str(path)


class TestDiniConstant:
    def test_linear_modulus(self):
        assert dini_constant(power_modulus(1.0), 1e-8) == pytest.approx(2.0, abs=1e-8)

    def test_sqrt_modulus(self):
        assert dini_constant(power_modulus(0.5), 1e-8) == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan])
    def test_tol_not_positive_is_refused(self, tol):
        """NaN fails ``tol > 0`` as 0 and negatives do: refused before any
        quadrature, not reported as a missed tolerance."""
        with pytest.raises(ParameterError, match="tol must be positive"):
            dini_constant(power_modulus(1.0), tol)

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.25, 0.1])
    def test_power_closed_form(self, delta):
        got = dini_constant(power_modulus(delta), 1e-8)
        assert got == pytest.approx(1.0 / delta + 1.0, abs=1e-7)

    def test_example1_modulus_matches_quad_oracle(self):
        # oracle: scipy quad with exponential tail substitution
        w = log_modulus(3.0)
        f = lambda u: float(w.at_exp(u))
        oracle = exp_substituted_quad(f) + float(w(1.0))
        got = dini_constant(w, 1e-8)
        assert got == pytest.approx(oracle, abs=1e-6)

    def test_example1_modulus_kappa4(self):
        w = log_modulus(4.0)
        oracle = exp_substituted_quad(lambda u: float(w.at_exp(u))) + float(w(1.0))
        assert dini_constant(w, 1e-8) == pytest.approx(oracle, abs=1e-6)

    def test_constant_modulus_diverges(self):
        # law 1 + 0 e^{-v}: a floor, so divergent; partial is int_0^40 1 du
        w = ModulusOfContinuity("const", lambda t: np.ones_like(np.asarray(t)),
                                lambda u: np.ones_like(u), ExpTail(1.0, 0.0, 1.0))
        with pytest.raises(DivergenceError) as exc:
            dini_constant(w, 1e-8)
        assert exc.value.partial == pytest.approx(40.0, rel=1e-12)

    def test_non_monotone_rejected(self):
        w = _decreasing()
        with pytest.raises(MonotonicityError):
            dini_constant(w, 1e-8)

    def test_bad_tol(self):
        with pytest.raises(ParameterError):
            dini_constant(power_modulus(1.0), 0.0)

    def test_memo_per_modulus_and_tol(self, monkeypatch):
        import dataclasses

        from lpsq import moduli
        from lpsq.dyadic import Cube, sparse_construct
        from lpsq.grids import GridFunction, build_cone
        from lpsq.kernels import parse_kernel

        runs = []
        body = moduli._simpson_body
        monkeypatch.setattr(moduli, "_simpson_body",
                            lambda *a, **kw: runs.append(1) or body(*a, **kw))
        k = parse_kernel("ex1:kappa=3", 1)
        f = GridFunction(1, 4.0, 0.25, np.random.default_rng(2).standard_normal(32))
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        fams = [sparse_construct(k, f, Cube(1, 1, (0,), "standard", 8.0), 1.0, cone)
                for _ in range(2)]
        assert fams[0].cubes == fams[1].cubes
        assert len(runs) == len({id(k.w_mod), id(k.phi_mod)})
        # a replaced modulus starts empty and recomputes the same bits;
        # another tol is computed afresh
        w = k.w_mod
        fresh = dataclasses.replace(w)
        assert fresh._dini == {} and 1e-6 in w._dini
        assert dini_constant(fresh, 1e-6) == dini_constant(w, 1e-6)
        before = len(runs)
        dini_constant(w, 1e-7)
        assert len(runs) == before + 1

    def test_errors_not_memoized(self):
        w = _decreasing()
        for _ in range(2):
            with pytest.raises(MonotonicityError):
                dini_constant(w, 1e-8)
        assert w._dini == {}

    def test_monotone_in_modulus(self):
        # w1 <= w2 pointwise => dini(w1) <= dini(w2) + 2 tol
        d1 = dini_constant(power_modulus(1.0), 1e-8)
        d2 = dini_constant(power_modulus(0.5), 1e-8)
        assert d1 <= d2 + 2e-8  # t <= sqrt(t) on (0,1]


class TestLogDini:
    def test_kappa3_grows_without_bound(self):
        # the log-weighted integral at kappa=3: finite Dini but log-Dini
        # fails; the partial value is the integral through the body cut
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        res = dini_integral(log_modulus(3.0), 1e-8, log_weight=True)
        assert res.diverged and not res.converged
        oracle = mp.quad(lambda u: u * mp.log(2 + mp.exp(u)) ** mp.mpf(-1.5),
                         mp.linspace(0, 40, 41))
        assert res.value == pytest.approx(float(oracle), abs=1e-9)

    def test_kappa3_plain_dini_still_finite(self):
        res = dini_integral(log_modulus(3.0), 1e-8)
        assert res.converged and not res.diverged


class TestExactTails:
    """Closed-form tails of the built-in moduli: exact constants and verdicts."""

    # Dini constant of log:kappa, integral plus w(1), from mpmath on [0, 60]
    # with 61 breakpoints plus the tail 60^{1-p}/(p-1) (error below 2e-26)
    REFERENCE = {2.05: 41.4880801415189, 2.2: 11.4611605560798,
                 2.5: 5.41026975865664, 3.0: 3.33317417752173,
                 4.0: 2.20222001946358, 8.0: 1.19084643274464}

    @pytest.mark.parametrize("kappa", sorted(REFERENCE))
    def test_log_constant_matches_reference(self, kappa):
        w = log_modulus(kappa)
        assert dini_constant(w, 1e-8) == pytest.approx(self.REFERENCE[kappa], abs=1e-9)

    @pytest.mark.parametrize("kappa", [2.05, 2.2, 3.0, 4.5, 8.0])
    def test_mpmath_oracle(self, kappa):
        # finite body plus the exact tail, never quad to infinity
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        p = mp.mpf(kappa) / 2
        g = lambda u: mp.log(2 + mp.exp(u)) ** (-p)
        U = mp.mpf(60)
        body = mp.quad(g, mp.linspace(0, U, 61))
        tail = U ** (1 - p) / (p - 1)  # |error| <= 2 e^{-60} 60^{-p}
        oracle = float(body + tail + mp.log(3) ** (-p))
        assert dini_constant(log_modulus(kappa), 1e-8) == pytest.approx(oracle, abs=1e-9)
        if kappa > 4.0:  # the log-Dini integral, exact tail U^{2-p}/(p-2)
            body = mp.quad(lambda u: u * g(u), mp.linspace(0, U, 61))
            oracle = float(body + U ** (2 - p) / (p - 2))
            res = dini_integral(log_modulus(kappa), 1e-8, log_weight=True)
            assert res.converged and res.value == pytest.approx(oracle, abs=1e-8)

    def test_logsplit_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for w, q in zip(logsplit_moduli(3.0, 1.4), (1.6, 1.4)):
            q = mp.mpf(q)
            g = lambda u: mp.log(1 + mp.exp(u)) ** (-q)
            body = mp.quad(g, mp.linspace(0, 60, 61))
            oracle = float(body + mp.mpf(60) ** (1 - q) / (q - 1) + mp.log(2) ** (-q))
            assert dini_constant(w, 1e-8) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.3, 0.1])
    def test_power_is_exact(self, delta):
        assert dini_constant(power_modulus(delta), 1e-8) == 1.0 / delta + 1.0
        res = dini_integral(power_modulus(delta), log_weight=True)
        assert res.converged and res.value == pytest.approx(1.0 / delta**2, rel=1e-15)

    def test_log_dini_verdicts(self):
        res = dini_integral(log_modulus(4.0), log_weight=True)
        assert res.diverged and not res.converged
        res = dini_integral(log_modulus(4.5), log_weight=True)
        assert res.converged and not res.diverged
        assert res.value == pytest.approx(3.9177785944053, abs=1e-8)
        res = dini_integral(log_modulus(3.0), log_weight=True)
        assert res.diverged and not res.converged

    @pytest.mark.parametrize("kappa", [2.0, 1.9, 1.2])
    def test_dini_at_kappa_le_2_diverges(self, kappa):
        with pytest.raises(DivergenceError) as exc:
            dini_constant(log_modulus(kappa), 1e-6)
        assert math.isfinite(exc.value.partial)

    def test_partial_is_truncated_integral(self):
        # a divergent tail law: the value is the integral over [0, 40]
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        res = dini_integral(log_modulus(2.0), 1e-8)
        assert res.diverged and not res.converged
        oracle = mp.quad(lambda u: 1 / mp.log(2 + mp.exp(u)), mp.linspace(0, 40, 41))
        assert res.value == pytest.approx(float(oracle), abs=1e-9)

    def test_fresh_modulus_is_fast(self):
        import time

        for kappa in sorted(self.REFERENCE):
            w = log_modulus(kappa)
            t0 = time.perf_counter()
            dini_constant(w, 1e-8)
            assert time.perf_counter() - t0 < 0.05  # about 1 ms; 2 ms target

    def test_table_constant_is_segment_sum(self, tmp_path):
        """sqrt(t) on 64 knots over a (1e-12, 0) floor: the Dini constant of
        the interpolant is sum_i a_i log(t_i+1/t_i) + b_i (t_i+1 - t_i),
        with w = a_i + b_i t on each segment, plus w(1)."""
        ts = np.concatenate([[1e-12], np.geomspace(1e-10, 1.0, 64)])
        vs = np.concatenate([[0.0], np.sqrt(ts[1:])])
        w = table_modulus(_write_table(tmp_path, zip(ts, vs)))
        b = np.diff(vs) / np.diff(ts)
        a = vs[:-1] - b * ts[:-1]
        exact = float(np.sum(a * np.log(ts[1:] / ts[:-1]) + b * np.diff(ts))) + 1.0
        assert dini_constant(w, 1e-8) == pytest.approx(exact, abs=1e-10)
        assert dini_integral(w, log_weight=True).converged
        # the same table over a (1e-12, 1e-6) floor is not Dini, nor log-Dini
        vs[0] = 1e-6
        floored = table_modulus(_write_table(tmp_path, zip(ts, vs), "f.csv"))
        with pytest.raises(DivergenceError):
            dini_constant(floored)
        assert dini_integral(floored, log_weight=True).diverged

    def test_table_with_zero_row_is_linear_below(self, tmp_path):
        # (0, 0) then w(t) = t: the law is e^{-v} from log(1e4) on, exact
        ts = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 64)])
        w = table_modulus(_write_table(tmp_path, zip(ts, ts)))
        assert w.tail == ExpTail(1.0, 1.0, 0.0, -math.log(1e-4))
        assert dini_constant(w, 1e-8) == pytest.approx(2.0, abs=1e-10)
        assert w.at_exp(800.0) == 0.0 and w.at_exp(-1.0) == 1.0

    def test_table_rejects_bad_rows(self, tmp_path):
        for rows in ([(0.1,), (0.5, 0.5), (1, 1)], [(0, 0), (1, 1, 2)],
                     [("x", 0), (1, 1)], [(1, 1)]):
            with pytest.raises(ConfigError):
                table_modulus(_write_table(tmp_path, rows))
        # t <= 0 only for one leading (0, w(0+)) row
        for rows in ([(-0.1, 0), (1, 1)], [(0, 0), (0, 0.1), (1, 1)]):
            with pytest.raises(ConfigError, match="t > 0"):
                table_modulus(_write_table(tmp_path, rows))
        # finite knots: the table reader refuses the line
        for rows in ([("nan", 0), (1, 1)], [(0.5, "inf"), (1, 1)]):
            with pytest.raises(ConfigError, match="line 1: non-finite"):
                table_modulus(_write_table(tmp_path, rows))

    def test_table_monotonicity_is_exact(self, tmp_path):
        # a dip between two samples of any geometric spot-check
        rows = [(0, 0), (0.5, 1), (0.5001, 0.2), (0.5002, 1), (1, 1)]
        with pytest.raises(MonotonicityError, match="t=0.5 and t=0.5001"):
            table_modulus(_write_table(tmp_path, rows))
        with pytest.raises(MonotonicityError, match="negative"):
            table_modulus(_write_table(tmp_path, [(0, -1), (1, 1)]))

    def test_suite_root_verdict_is_exact(self):
        # e: the root of log:3 is log:1.5 (not Dini), of log:8 log:4 (Dini)
        assert dini_inequality_suite(log_modulus(3.0))["e"].reference == math.inf
        rep = dini_inequality_suite(log_modulus(8.0))["e"]
        assert rep.reference == pytest.approx(self.REFERENCE[4.0] ** 2, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_suite_shifted_integrals_match_mpmath(self, n):
        """Items c, d, ring_sum and far_ring of log:4 (w = log^{-2}(2 + 1/t))
        against mpmath on their integrands in v = log(1/t): a finite body
        plus the exact tail int_V^inf v^{-2} dv = 1/V (error below e^{-V})."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        alpha, m = 2, 2
        w = lambda t: mp.log(2 + 1 / min(t, mp.mpf(1))) ** -2

        def dini_from(v0, F=lambda v: 1):  # int_{v0}^inf F(v) w(e^{-v}) dv, F -> 1
            V = v0 + 60
            return mp.quad(lambda v: F(v) * w(mp.exp(-v)), mp.linspace(v0, V, 61)) + 1 / V

        rep = dini_inequality_suite(log_modulus(4.0), alpha=alpha, n=n)
        a_tail = mp.mpf(1 + alpha) / 2**201
        c = (sum(w((1 + alpha) / mp.mpf(2) ** (k + 1)) for k in range(1, 201))
             + dini_from(-mp.log(a_tail)) / mp.log(2))
        d = w(1) * mp.log(alpha) + dini_from(0)
        surf = 2 if n == 1 else 2 * mp.pi
        sm = m * mp.log(2)  # w(2^m e^{-v}) = w(1) for v < sm
        F = (lambda v: 1) if n == 1 else (lambda v: -mp.expm1(-v))
        ring = (mp.quad(lambda v: F(v) * w(1), [0, sm])
                + dini_from(0, lambda u: F(u + sm)))
        geo = 2 ** (-mp.mpf(n) / 2) / (1 - 2 ** (-mp.mpf(n) / 2))
        far = surf * dini_from(-mp.log(2 * mp.sqrt(n) / (32 * n)))
        for name, oracle in (("c", c), ("d", d), ("ring_sum", geo * surf * ring),
                             ("far_ring", far)):
            assert rep[name].lhs == pytest.approx(float(oracle), rel=1e-10), name

    def test_kappa_2_2_suite_runs(self):
        rep = dini_inequality_suite(log_modulus(2.2), alpha=2.0, n=2)
        assert all(math.isfinite(i.ratio) for i in rep.values())
        assert rep["d"].lhs < rep["d"].reference


class TestNoAdaptiveQuadrature:
    """Every integral is one vectorised body evaluation plus a closed-form
    tail: the modulus is sampled by a handful of `at_exp` calls."""

    @pytest.fixture
    def at_exp_calls(self, monkeypatch):
        calls = []
        at_exp = ModulusOfContinuity.at_exp
        monkeypatch.setattr(ModulusOfContinuity, "at_exp",
                            lambda self, u: calls.append(np.size(u)) or at_exp(self, u))
        return calls

    def test_sparse_construct_fresh_kernel(self, at_exp_calls):
        from lpsq.dyadic import Cube, sparse_construct
        from lpsq.grids import GridFunction, build_cone
        from lpsq.kernels import parse_kernel

        k = parse_kernel("ex1:kappa=3", 1)
        f = GridFunction(1, 4.0, 0.25, np.random.default_rng(5).standard_normal(32))
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        sparse_construct(k, f, Cube(1, 1, (0,), "standard", 8.0), 1.0, cone)
        assert 1e-6 in k.w_mod._dini
        assert at_exp_calls == [8001]  # w = phi: one body of 8,001 points

    def test_suite_log3_n2(self, at_exp_calls):
        dini_inequality_suite(log_modulus(3.0), n=2)
        assert len(at_exp_calls) <= 20


class TestExtensionConvention:
    def test_constant_past_one(self):
        w = log_modulus(3.0)
        assert w(1.0) == pytest.approx(w(7.3))
        assert w(1.0) == pytest.approx(float(w(np.array([2.0, 100.0]))[1]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            power_modulus(0.5)(0.0)

    @given(st.floats(min_value=1e-9, max_value=1.0),
           st.floats(min_value=1e-9, max_value=1.0))
    @settings(max_examples=50)
    def test_monotone_samples(self, t1, t2):
        w = log_modulus(3.0)
        lo, hi = min(t1, t2), max(t1, t2)
        assert w(lo) <= w(hi) + 1e-15


class TestSuite:
    def test_item_c_linear_alpha1(self):
        rep = dini_inequality_suite(power_modulus(1.0), alpha=1.0)
        assert rep["c"].lhs == pytest.approx(1.0, abs=1e-9)

    def test_item_d_linear_alpha_e(self):
        rep = dini_inequality_suite(power_modulus(1.0), alpha=math.e)
        assert rep["d"].lhs == pytest.approx(2.0, abs=1e-7)

    def test_item_e_linear_m2(self):
        rep = dini_inequality_suite(power_modulus(1.0), alpha=1.0)
        assert rep["e"].lhs == pytest.approx(2.0, abs=1e-7)
        assert rep["e"].reference == pytest.approx(9.0, abs=1e-6)
        assert rep["e"].lhs <= rep["e"].reference

    def test_item_a_linear_closed_form(self):
        # int_0^{1/3} 16t/(1+t)^4 dt + int_{1/3}^inf dt/(t(1+t)^2) = log 4 - 1/3
        rep = dini_inequality_suite(power_modulus(1.0), alpha=1.0, n=1)
        assert rep["a"].lhs == pytest.approx(math.sqrt(math.log(4.0) - 1.0 / 3.0),
                                             abs=1e-9)

    def test_item_b_linear_closed_form(self):
        # alpha=1: 4 int_0^{1/2} t/(1+t)^2 dt + int_{1/2}^inf dt/(t(1+t)^2)
        ref = 4.0 * (math.log(1.5) + 2.0 / 3.0 - 1.0) + (math.log(3.0) - 2.0 / 3.0)
        rep = dini_inequality_suite(power_modulus(1.0), alpha=1.0, n=1)
        assert rep["b"].lhs == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("spec", ["log:2.2", "log:8", "power:0.5"])
    def test_items_a_b_match_mpmath(self, spec, n):
        """Items a and b in their own variable t against mpmath: on
        t < t0, where the argument of w is below 1, t = e^{-u} and a
        finite body plus the exact tail; past t0 w = w(1) and quad to inf."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        alpha, U = 2, 60
        head, _, arg = spec.partition(":")
        x = mp.mpf(arg)
        w = ((lambda s: mp.log(2 + 1 / s) ** (-x / 2)) if head == "log"
             else (lambda s: s**x))
        rep = dini_inequality_suite(parse_modulus(spec), alpha=alpha, n=n)
        # (name, argument of w, where it reaches 1, log of its limit ratio to t)
        for name, arg_of, t0, c in (
                ("a", lambda t: 4 * t / (1 + t), mp.mpf(1) / 3, mp.log(4)),
                ("b", lambda t: (1 + alpha) * t, mp.mpf(1) / (1 + alpha), mp.log(1 + alpha))):
            g = lambda u: ((1 + mp.exp(-u)) ** -n * w(arg_of(mp.exp(-u)))) ** 2
            body = mp.quad(g, mp.linspace(-mp.log(t0), U, 61))
            # past U, g = (u - c + O(e^{-u}))^{-x} for log, O(e^{-2 x u}) for power
            tail = (U - c) ** (1 - x) / (x - 1) if head == "log" else 0
            outer = w(1) ** 2 * mp.quad(lambda t: (1 + t) ** (-2 * n) / t, [t0, 1, mp.inf])
            val = body + tail + outer
            want = float(mp.sqrt(val) if name == "a" else val)
            assert rep[name].lhs == pytest.approx(want, abs=1e-9), name

    def test_item_e_inequality_all_moduli(self):
        for w in (power_modulus(1.0), power_modulus(0.5), log_modulus(3.0)):
            rep = dini_inequality_suite(w, alpha=2.0)
            assert rep["e"].lhs <= rep["e"].reference * (1 + 1e-9)

    def test_all_ratios_finite(self):
        for w in (power_modulus(0.5), log_modulus(3.0)):
            rep = dini_inequality_suite(w, alpha=4.0, n=1)
            for item in rep.values():
                assert math.isfinite(item.ratio)

    def test_far_ring_linear_closed_form(self):
        # n=1: 2 int_0^{1/16} w(s)/s ds = 2/16 for w = t
        rep = dini_inequality_suite(power_modulus(1.0), alpha=1.0, n=1)
        assert rep["far_ring"].lhs == pytest.approx(0.125, abs=1e-8)

    def test_n2_runs(self):
        rep = dini_inequality_suite(power_modulus(1.0), alpha=2.0, n=2)
        assert all(math.isfinite(i.ratio) for i in rep.values())

    def test_bad_alpha(self):
        with pytest.raises(ParameterError):
            dini_inequality_suite(power_modulus(1.0), alpha=0.5)

    def test_log_ratio_bounded(self):
        # min(1, h^{1/2}) log(2 + (1+r)/h) <= C log(2 + r), whatever the modulus
        items = [dini_inequality_suite(w)["log_ratio"]
                 for w in (power_modulus(1.0), log_modulus(3.0))]
        assert items[0] == items[1]
        assert items[0].reference == 1.0
        assert 1.0 < items[0].ratio < 1.2
        assert _log_ratio_max(1e4) <= 1.2 * _log_ratio_max(1e3)

    def test_log_ratio_growth_diverges(self, monkeypatch):
        # a max that grows past 1.2x with the radius range is unbounded
        monkeypatch.setattr(moduli, "_log_ratio_max", lambda r_max: r_max)
        with pytest.raises(DivergenceError) as err:
            dini_inequality_suite(power_modulus(1.0))
        assert err.value.item == "log_ratio"


class TestParse:
    def test_power_id(self):
        assert dini_constant(parse_modulus("power:0.5")) == pytest.approx(3.0, abs=1e-7)

    def test_log_id(self):
        w = parse_modulus("log:3")
        assert w.name == "log:3"

    def test_logsplit_pair(self):
        w = parse_modulus("logsplit:3,1.4")
        phi = parse_modulus("logsplit-phi:3,1.4")
        # w has the smaller decay exponent kappa-beta=1.6 vs beta=1.4
        assert float(w(0.01)) < float(phi(0.01))

    def test_logsplit_constraints(self):
        with pytest.raises(ParameterError):
            logsplit_moduli(3.0, 0.9)  # beta <= 1
        with pytest.raises(ParameterError):
            logsplit_moduli(2.2, 1.5)  # kappa - beta <= 1
        with pytest.raises(ConfigError):
            parse_modulus("logsplit:2.2,1.5")

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            parse_modulus("nope:1")

    def test_csv_modulus(self, tmp_path):
        path = tmp_path / "w.csv"
        ts = np.geomspace(1e-4, 1.0, 64)
        path.write_text("\n".join(f"{t},{t**0.5}" for t in ts))
        w = table_modulus(str(path))
        assert float(w(0.25)) == pytest.approx(0.5, rel=1e-3)
        # flat below the table floor: not Dini
        with pytest.raises(DivergenceError):
            dini_constant(w)
