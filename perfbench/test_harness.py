"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import metrics  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from metrics import Attempt  # noqa: E402


class TestPercentiles:
    def test_p99_once_ten_samples_lie_beyond_it(self):
        xs = list(range(1, 1001))
        assert metrics.tail_percentile(xs) == (99.0, 990)

    def test_highest_percentile_with_ten_beyond_for_fewer_samples(self):
        xs = list(range(1, 101))
        p, v = metrics.tail_percentile(xs)
        assert (p, v) == (90.0, 90)
        assert sum(x > v for x in xs) == 10

    def test_order_does_not_matter(self):
        xs = [5, 1, 4, 2, 3] * 10
        assert metrics.tail_percentile(xs) == metrics.tail_percentile(sorted(xs))

    def test_never_below_the_median(self):
        xs = list(range(1, 16))
        assert metrics.tail_percentile(xs) == (50.0, 8)

    def test_nearest_rank(self):
        assert metrics.nearest_rank([1, 2, 3, 4], 50.0) == 2
        assert metrics.nearest_rank([1, 2, 3, 4], 100.0) == 4
        assert metrics.nearest_rank([7], 1.0) == 7


class TestSelfTime:
    def test_synthetic_span_tree(self):
        ticks = iter([0, 10, 20, 30, 40, 50, 60, 100])
        t = tracing.Tracer(clock=lambda: next(ticks))
        t.enter("root")  # 0
        t.enter("a")  # 10
        t.enter("b")  # 20
        t.exit()  # 30
        t.exit()  # 40
        t.enter("c")  # 50
        t.exit()  # 60
        t.exit()  # 100
        assert t.spans["root"] == [1, 100, 60]
        assert t.spans["a"] == [1, 30, 20]
        assert t.spans["b"] == [1, 10, 10]
        assert t.spans["c"] == [1, 10, 10]
        assert sum(rec[2] for rec in t.spans.values()) == 100

    def test_repeated_names_accumulate(self):
        ticks = iter([0, 1, 3, 4, 7, 10])
        t = tracing.Tracer(clock=lambda: next(ticks))
        t.enter("root")
        for _ in range(2):
            t.enter("leaf")
            t.exit()
        t.exit()
        assert t.spans["leaf"] == [2, 5, 5]
        assert t.spans["root"] == [1, 10, 5]

    def test_wrap_closes_the_span_when_the_call_raises(self):
        t = tracing.Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            t.wrap("boom", boom)()
        assert t.count("boom") == 1
        assert t._stack == []


class TestFailureAccounting:
    def test_failed_operations_leave_latencies_but_not_time(self):
        attempts = [
            Attempt(10, 1, 0),
            Attempt(20, 1, 0),
            Attempt(30, 1, 0),
            Attempt(10_000, 1, 1),
        ]
        s = metrics.summarize(attempts, wall_s=2.0)
        assert (s.attempted, s.failed) == (4, 1)
        assert s.completed_per_s == 1.5  # 3 completed over the whole 2 s
        assert s.p50_ns == 20
        assert s.samples == 3
        assert s.tail_ns == 20  # the median: too few samples for a tail

    def test_grid_with_some_failed_cells_keeps_its_latency(self):
        s = metrics.summarize([Attempt(5, 90, 2), Attempt(7, 90, 90)], wall_s=1.0)
        assert (s.attempted, s.failed, s.samples) == (180, 92, 1)
        assert s.completed_per_s == 88.0
        assert s.p50_ns == 5


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


class TestCalibration:
    def make(self, kernel_ns):
        """A calibration whose kernel calls take the given times in turn."""
        clock = FakeClock()
        durations = iter(kernel_ns)

        def run_kernel():
            clock.now += next(durations)

        return clock, calibrate.Calibration(clock=clock, run_kernel=run_kernel)

    def test_scale_is_ref_over_the_mean_kernel_time_nearby(self):
        clock, cal = self.make([1_000_000, 3_000_000, 4_000_000])
        cal.sample(2)  # mid times 0.5 ms and 2.5 ms
        clock.now = 10 * calibrate.WINDOW_NS
        cal.sample(1)  # far away: outside the window of an early operation
        assert cal.durations == [1_000_000, 3_000_000, 4_000_000]
        assert cal.scale(4_000_000, 5_000_000) == calibrate.REF_NS / 2_000_000

    def test_long_operations_look_twice_their_duration_away(self):
        clock, cal = self.make([1_000_000, 3_000_000])
        cal.sample(1)  # mid time 0.5 ms
        clock.now = 5 * calibrate.WINDOW_NS // 2
        cal.sample(1)
        t0 = 2 * calibrate.WINDOW_NS  # the first sample is 2 windows before
        assert cal.scale(t0, t0 + 1) == calibrate.REF_NS / 3_000_000
        assert cal.scale(t0, t0 + calibrate.WINDOW_NS) == calibrate.REF_NS / 2_000_000

    def test_nearest_samples_when_none_in_the_window(self):
        clock, cal = self.make([2_000_000, 4_000_000])
        cal.sample(1)
        clock.now = 100 * calibrate.WINDOW_NS
        cal.sample(1)
        mid = 50 * calibrate.WINDOW_NS
        assert cal.scale(mid, mid + 1) == calibrate.REF_NS / 3_000_000

    def test_samples_are_due_every_interval_and_burst_after_long_operations(self):
        clock, cal = self.make([0] * 100)
        cal.maybe_sample()
        assert len(cal.times) == 3
        clock.now += calibrate.EVERY_NS - 1
        cal.maybe_sample()
        assert len(cal.times) == 3
        clock.now += 1
        cal.maybe_sample()
        assert len(cal.times) == 4
        clock.now += 1000 * calibrate.EVERY_NS  # one long operation
        cal.maybe_sample()
        assert len(cal.times) == 4 + calibrate.MAX_BURST

    def test_kernel_is_deterministic(self):
        assert calibrate.kernel() == calibrate.kernel()


class TestErrorScores:
    def test_digits_lost(self):
        assert metrics.digits_lost(0.0) == 0.0
        assert metrics.digits_lost(metrics.EPS) == pytest.approx(0.30103, abs=1e-5)
        assert metrics.digits_lost(5.0) == metrics.digits_lost(1.0)

    def test_within_tolerance_allows_one_ulp(self):
        assert metrics.within_tolerance(1.0, 1.0 + 2**-52, 0.0, False)
        assert not metrics.within_tolerance(1.0, 1.0 + 2**-50, 0.0, False)
        assert metrics.within_tolerance(1.0, 1.0 + 1e-11, 1e-10, True)
        assert not metrics.within_tolerance(1.0, 1.0 + 1e-9, 1e-10, True)


class TestOracle:
    def test_self_checks(self):
        for name, err in oracle.self_checks():
            assert err < 1e-30, name

    def test_survival_polynomials_from_the_defining_expression(self):
        # min at theta = 0 is s1*s2; max is s1 + s2 - s1*s2
        p = oracle.survival_polynomial("min", 0.0)
        assert p == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        p = oracle.survival_polynomial("max", 0.0)
        assert p == [[0, 1, 0], [1, -1, 0], [0, 0, 0]]

    def test_marginal_closed_forms(self):
        import mpmath

        var, cte, mot = oracle.reference("pareto", "x1", 3.0, 4.0, 2.0, 0.0, 0.9)
        with mpmath.workdps(60):
            q = 2 * (1 - mpmath.mpf(0.9)) ** (-mpmath.mpf(1) / 3)
            assert abs(var / q - 1) < 1e-30
            assert abs(cte / (q * 1.5) - 1) < 1e-30


class TestLayerTracing:
    def test_counts_solver_evaluations_and_restores_bindings(self):
        from copula_risk import extremes, tables

        original = extremes.solve_increasing
        portfolio = tables.build_portfolio("exp", "min", 0.5)
        plain = extremes.extreme_report(portfolio, "min", 0.9)
        t = tracing.Tracer()
        with tracing.layer_tracing(t):
            traced = extremes.extreme_report(portfolio, "min", 0.9)
        assert traced == plain
        assert extremes.solve_increasing is original
        assert t.counts["numerics.solves"] == 3  # VaR, again inside CTE, MoT
        assert t.counts["numerics.solve_evals"] == t.count("mixtures.cdf") > 0
