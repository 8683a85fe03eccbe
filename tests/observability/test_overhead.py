"""Guard: observability must be near-free when nobody is observing.

Instrumented code defaults its ``metrics`` argument to the shared
:data:`NULL_REGISTRY`, so the cost of disabled observability is exactly
the cost of the no-op calls the hot paths make.  This test counts how
many instrument calls one engine run actually issues, times that many
no-op calls directly, and asserts they amount to under 5% of the run's
wall time.  Each timed run gets its own copy of the graph, so it sweeps
every root rather than replaying sweeps memoised on the graph.
"""

import copy
import time

import numpy as np

from repro.gpusim import Device
from repro.observability import NULL_REGISTRY, MetricsRegistry


class CallCountingRegistry(MetricsRegistry):
    """Counts every instrument invocation an instrumented run makes."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def inc(self, name, value=1.0, /, **labels):
        self.calls += 1
        super().inc(name, value, **labels)

    def set_gauge(self, name, value, /, **labels):
        self.calls += 1
        super().set_gauge(name, value, **labels)

    def observe(self, name, value, /, **labels):
        self.calls += 1
        super().observe(name, value, **labels)

    def span(self, name, /, **labels):
        self.calls += 1
        return super().span(name, **labels)

    def record(self, kind, /, **fields):
        self.calls += 1
        super().record(kind, **fields)


def _median_runtime(fn, repeats=5):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[repeats // 2]


def test_disabled_registry_overhead_under_5_percent(small_sw):
    device = Device()
    roots = np.arange(16)

    counting = CallCountingRegistry()
    device.run_bc(small_sw, strategy="hybrid", roots=roots, metrics=counting)
    n_calls = counting.calls
    assert n_calls > 0  # the run really is instrumented

    clones = iter([copy.deepcopy(small_sw) for _ in range(5)])
    runtime = _median_runtime(
        lambda: device.run_bc(next(clones), strategy="hybrid", roots=roots))

    def noop_burst():
        inc = NULL_REGISTRY.inc
        observe = NULL_REGISTRY.observe
        span = NULL_REGISTRY.span
        record = NULL_REGISTRY.record
        # Same call mix shape as the hot paths: mostly counters, some
        # histograms and decision events, a few spans.
        for _ in range(n_calls):
            inc("engine.levels", 1.0, stage="forward", strategy="we")
        for _ in range(n_calls // 4):
            observe("engine.frontier_size", 17.0)
        for _ in range(n_calls // 4):
            record("decision.step", root=0, depth=3, applies_to_depth=4,
                   previous="work-efficient", strategy="work-efficient",
                   policy="hybrid", rule="|Δfrontier|=17 <= alpha=768",
                   q_curr=17, q_next=34, delta_frontier=17,
                   alpha=768, beta=512)
        for _ in range(4):
            with span("device.run_bc", strategy="hybrid"):
                pass

    noop_cost = _median_runtime(noop_burst)
    assert noop_cost < 0.05 * runtime, (
        f"{n_calls} no-op instrument calls cost {noop_cost * 1e3:.2f} ms "
        f"against a {runtime * 1e3:.2f} ms engine run "
        f"({100 * noop_cost / runtime:.1f}% > 5%)"
    )
