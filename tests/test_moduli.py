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
    ModulusOfContinuity,
    _log_ratio_max,
    dini_constant,
    dini_inequality_suite,
    dini_integral,
    log_dini_integral,
    log_modulus,
    logsplit_moduli,
    parse_modulus,
    power_modulus,
    table_modulus,
)

from conftest import exp_substituted_quad


class TestDiniConstant:
    def test_linear_modulus(self):
        assert dini_constant(power_modulus(1.0), 1e-8) == pytest.approx(2.0, abs=1e-8)

    def test_sqrt_modulus(self):
        assert dini_constant(power_modulus(0.5), 1e-8) == pytest.approx(3.0, abs=1e-8)

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
        w = ModulusOfContinuity("const", lambda t: np.ones_like(np.asarray(t)))
        with pytest.raises(DivergenceError) as exc:
            dini_constant(w, 1e-8)
        assert exc.value.partial is not None

    def test_non_monotone_rejected(self):
        w = ModulusOfContinuity("bad", lambda t: 1.0 - t)
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
        w = ModulusOfContinuity("bad", lambda t: 1.0 - t)
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
        # the log-weighted integral at kappa=3: finite Dini but log-Dini fails
        res = log_dini_integral(log_modulus(3.0), 1e-8, max_doublings=24)
        assert res.diverged or not res.converged
        lv = res.levels
        assert len(lv) >= 3
        assert lv[-1] / lv[-3] >= 1.8  # keeps growing over two doublings

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
        assert w.dini_path == "exact_tail"
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
            res = log_dini_integral(log_modulus(kappa), 1e-8)
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
        res = log_dini_integral(power_modulus(delta))
        assert res.converged and res.value == pytest.approx(1.0 / delta**2, rel=1e-15)

    def test_log_dini_verdicts(self):
        res = log_dini_integral(log_modulus(4.0))
        assert res.diverged and not res.converged
        res = log_dini_integral(log_modulus(4.5))
        assert res.converged and not res.diverged
        assert res.value == pytest.approx(3.9177785944053, abs=1e-8)
        res = log_dini_integral(log_modulus(3.0))
        assert res.diverged and not res.converged

    @pytest.mark.parametrize("kappa", [2.0, 1.9, 1.2])
    def test_dini_at_kappa_le_2_diverges(self, kappa):
        with pytest.raises(DivergenceError) as exc:
            dini_constant(log_modulus(kappa), 1e-6)
        assert math.isfinite(exc.value.partial)

    def test_levels_are_truncated_values(self):
        # levels[k] is the integral over [0, 8 * 2^k]; past the body cut it
        # is the body plus the closed-form piece, and the growth of a
        # divergent tail is its exact one: int_X^{2X} u^{-1} du = log 2
        res = dini_integral(log_modulus(2.0), 1e-8, max_doublings=30)
        assert res.diverged and len(res.levels) == 31
        steps = np.diff(res.levels[3:])
        assert np.allclose(steps, math.log(2.0), atol=1e-12)
        w = log_modulus(3.0)
        res = dini_integral(w, 1e-8)
        assert res.levels == sorted(res.levels) and res.levels[-1] < res.value
        assert res.value + float(w(1.0)) == pytest.approx(3.33317417752173, abs=1e-9)

    def test_fresh_modulus_is_fast(self):
        import time

        for kappa in sorted(self.REFERENCE):
            w = log_modulus(kappa)
            t0 = time.perf_counter()
            dini_constant(w, 1e-8)
            assert time.perf_counter() - t0 < 0.05  # about 1 ms; 2 ms target

    def test_table_modulus_keeps_windowed_path(self, tmp_path):
        path = tmp_path / "w.csv"
        ts = np.geomspace(1e-4, 1.0, 64)
        path.write_text("\n".join(f"{t},{t}" for t in ts))
        w = table_modulus(str(path))
        assert w.tail is None and w.dini_path == "windowed"

    def test_suite_root_verdict_is_exact(self):
        # e: the root of log:3 is log:1.5 (not Dini), of log:8 log:4 (Dini)
        assert dini_inequality_suite(log_modulus(3.0), m_shift=2)["e"].reference == math.inf
        rep = dini_inequality_suite(log_modulus(8.0), m_shift=2)["e"]
        assert rep.reference == pytest.approx(self.REFERENCE[4.0] ** 2, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_suite_shifted_integrals_match_windowed(self, n):
        """Items c, d, ring_sum and far_ring on the exact path against the
        windowed engine on the same modulus without its tail law."""
        import dataclasses

        w = log_modulus(4.0)
        bare = dataclasses.replace(w, tail=None)
        exact = dini_inequality_suite(w, alpha=2.0, n=n)
        windowed = dini_inequality_suite(bare, alpha=2.0, n=n)
        for name in ("c", "d", "ring_sum", "far_ring"):
            assert exact[name].lhs == pytest.approx(windowed[name].lhs, rel=1e-6)

    def test_kappa_2_2_suite_runs(self):
        rep = dini_inequality_suite(log_modulus(2.2), alpha=2.0, n=2)
        assert all(math.isfinite(i.ratio) for i in rep.values())
        assert rep["d"].lhs < rep["d"].reference


class TestNoAdaptiveQuadrature:
    def test_sparse_construct_fresh_kernel(self, monkeypatch):
        """A sparse construction on a freshly parsed ex1 kernel takes its
        Dini constants from the closed-form tails: no adaptive Simpson."""
        from lpsq.dyadic import Cube, sparse_construct
        from lpsq.grids import GridFunction, build_cone
        from lpsq.kernels import parse_kernel

        calls = []
        simpson = moduli._adaptive_simpson
        monkeypatch.setattr(moduli, "_adaptive_simpson",
                            lambda *a, **kw: calls.append(1) or simpson(*a, **kw))
        k = parse_kernel("ex1:kappa=3", 1)
        f = GridFunction(1, 4.0, 0.25, np.random.default_rng(5).standard_normal(32))
        cone = build_cone(1.0, 1, f.h, 2 * f.h, 2 * f.R, 4)
        sparse_construct(k, f, Cube(1, 1, (0,), "standard", 8.0), 1.0, cone)
        assert 1e-6 in k.w_mod._dini
        assert calls == []


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
        rep = dini_inequality_suite(power_modulus(1.0), alpha=1.0, m_shift=2)
        assert rep["e"].lhs == pytest.approx(2.0, abs=1e-7)
        assert rep["e"].reference == pytest.approx(9.0, abs=1e-6)
        assert rep["e"].lhs <= rep["e"].reference

    def test_item_a_linear_closed_form(self):
        # int_0^{1/3} 16t/(1+t)^4 dt + int_{1/3}^inf dt/(t(1+t)^2) = log 4 - 1/3
        rep = dini_inequality_suite(power_modulus(1.0), alpha=1.0, n=1)
        assert rep["a"].lhs == pytest.approx(math.sqrt(math.log(4.0) - 1.0 / 3.0),
                                             abs=1e-6)

    def test_item_b_linear_closed_form(self):
        # alpha=1: 4 int_0^{1/2} t/(1+t)^2 dt + int_{1/2}^inf dt/(t(1+t)^2)
        ref = 4.0 * (math.log(1.5) + 2.0 / 3.0 - 1.0) + (math.log(3.0) - 2.0 / 3.0)
        rep = dini_inequality_suite(power_modulus(1.0), alpha=1.0, n=1)
        assert rep["b"].lhs == pytest.approx(ref, abs=1e-6)

    @pytest.mark.parametrize("m", [2, 3])
    def test_item_e_inequality_all_moduli(self, m):
        for w in (power_modulus(1.0), power_modulus(0.5), log_modulus(3.0)):
            rep = dini_inequality_suite(w, alpha=2.0, m_shift=m)
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
