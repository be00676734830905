"""Layer tracing from outside the program.

The tracer keeps a stack of open spans and, per span name, the number of
spans, their inclusive time and their self time (inclusive time minus the
part covered by child spans). Counters are recorded at the same
boundaries. Layers are traced by rebinding the names that the importing
modules look up at call time, so no line of the program changes; every
rebinding is undone on exit.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Span stack with per-name counts, inclusive and self times (ns)."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: dict[str, list[int]] = {}  # name -> [count, incl, self]
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, time covered by children]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0])

    def exit(self) -> int:
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        rec = self.spans.setdefault(name, [0, 0, 0])
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def count(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[0]

    def incl_ns(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[1]

    def self_ns(self, name: str) -> int:
        return self.spans.get(name, (0, 0, 0))[2]


def _size(x) -> int:
    return getattr(x, "size", 1)


@contextmanager
def layer_tracing(tracer: Tracer):
    """Rebind the program's layer boundaries to traced wrappers, then restore."""
    from copula_risk import aggregate, cli, extremes, marginals, mc_oracle
    from copula_risk._mixtures import ExpTermMixture, ParetoTermMixture

    t = tracer

    def counted_f(f):
        """Count the solver's function evaluations; time mixture CDFs as spans."""
        if isinstance(getattr(f, "__self__", None), (ExpTermMixture, ParetoTermMixture)):
            def g(x):
                t.counts["numerics.solve_evals"] += 1
                t.enter("mixtures.cdf")
                try:
                    return f(x)
                finally:
                    t.exit()
        else:
            def g(x):
                t.counts["numerics.solve_evals"] += 1
                return f(x)
        return g

    def solver(fn, is_solve):
        def traced(f, *args, **kwargs):
            if is_solve:
                t.counts["numerics.solves"] += 1
            t.enter("numerics.solve")
            try:
                return fn(counted_f(f), *args, **kwargs)
            except Exception:
                t.counts["numerics.solve_failures"] += 1
                raise
            finally:
                t.exit()

        return traced

    def counting(name, fn, counter, size_of):
        def traced(*args, **kwargs):
            t.counts[counter] += size_of(*args, **kwargs)
            t.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                t.exit()

        return traced

    patches = [
        (extremes, "expand_bracket", lambda fn: solver(fn, False)),
        (extremes, "solve_increasing", lambda fn: solver(fn, True)),
        (aggregate, "expand_bracket", lambda fn: solver(fn, False)),
        (aggregate, "solve_increasing", lambda fn: solver(fn, True)),
        (aggregate, "quad_tail", lambda fn: t.wrap("numerics.quad", fn)),
        (aggregate, "_quad_finite", lambda fn: t.wrap("numerics.quad", fn)),
        (marginals, "quantile", lambda fn: counting(
            "marginals.quantile", fn, "marginals.quantile_values",
            lambda m, p: _size(p))),
        (mc_oracle, "quantile", lambda fn: counting(
            "marginals.quantile", fn, "marginals.quantile_values",
            lambda m, p: _size(p))),
        (mc_oracle, "conditional_quantile", lambda fn: counting(
            "copula.conditional_quantile", fn, "copula.cq_pairs",
            lambda c, w, u: _size(w))),
        (cli, "sample_pairs", lambda fn: counting(
            "mc_oracle.sample", fn, "mc_oracle.pairs",
            lambda p, n, seed, stream=0: n)),
        (cli, "_order_stat_estimate", lambda fn: t.wrap("mc_oracle.estimate", fn)),
        (cli, "_tail_mean_estimate", lambda fn: t.wrap("mc_oracle.estimate", fn)),
        (cli, "compute_measure", lambda fn: t.wrap("tables.compute_measure", fn)),
        (cli, "_verify_cells", lambda fn: t.wrap("cli.verify_cells", fn)),
        (cli, "_emit", lambda fn: t.wrap("cli.emit", fn)),
    ]
    saved = []
    try:
        for module, name, make in patches:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, make(original))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
