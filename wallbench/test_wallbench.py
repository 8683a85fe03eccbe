"""Tests of the benchmark's own arithmetic and wiring.

Run from the checkout root: ``python3 -m pytest wallbench -q``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import types

import numpy as np
import pytest

from stats import (
    min_samples_for,
    percentile,
    quartile_spread,
    reuse_ratio,
    self_time,
    tail_percentile,
    union_length,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
SRC = os.path.join(CHECKOUT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)


# -- percentiles -------------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


@pytest.mark.parametrize("p, n", [(50.0, 20), (90.0, 100), (95.0, 200),
                                  (99.0, 1000), (99.9, 10000)])
def test_min_samples_for_is_the_first_admitting_count(p, n):
    assert min_samples_for(p) == n
    assert tail_percentile(n) == p
    assert (tail_percentile(n - 1) or 0.0) < p


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    xs = list(rng.exponential(size=137))
    for p in (0, 10, 50, 90, 99, 100):
        assert percentile(xs, p) == pytest.approx(np.percentile(xs, p))


def test_quartile_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)
    assert quartile_spread([5.0]) == 0.0
    assert quartile_spread([0.0, 0.0, 0.0]) == 0.0


# -- intervals ---------------------------------------------------------------
def test_union_length_counts_overlap_once():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 4)]) == 3.0
    assert union_length([(0, 3), (1, 2)]) == 3.0          # nested
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0  # overlapping


def test_self_time_subtracts_union_of_children():
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(1, 3), (5, 6)]) == 7
    # Overlapping children are one busy interval, not two.
    assert self_time(0, 10, [(1, 4), (2, 5)]) == 6
    # A child reaching outside the span only counts inside it.
    assert self_time(2, 10, [(0, 4), (9, 12)]) == 5
    assert self_time(0, 10, [(11, 12)]) == 10


def test_speed_factor_uses_the_median_of_samples_around_an_op():
    from speed import REFERENCE_S, WINDOW, SpeedGauge

    g = SpeedGauge()
    assert WINDOW == 9
    g.samples = [REFERENCE_S] * 5 + [2 * REFERENCE_S] * 10
    assert g.factor(0) == pytest.approx(1.0)        # samples 0..4
    assert g.factor(5) == pytest.approx(1 / 2)      # 1..9: five of 2x
    assert g.factor(14) == pytest.approx(1 / 2)     # 10..14
    assert g.sample() > 0 and len(g.samples) == 16


def test_reuse_ratio():
    assert reuse_ratio(0, 0) == 0.0
    assert reuse_ratio(8, 48) == pytest.approx(1 / 6)
    assert reuse_ratio(5, 5) == 1.0


# -- tracer ------------------------------------------------------------------
def test_layer_metrics_busy_and_self_time_from_spans():
    from tracer import Tracer

    t = Tracer()
    # run_bc [0, 10] > run_root [1, 9] > forward [2, 5]; a second
    # run_root [9.5, 9.8] with no children.
    t.spans = [
        ["gpusim.run_bc", 0.0, 10.0, -1, "j"],
        ["bc.engine", 1.0, 9.0, 0, "j"],
        ["bc.forward", 2.0, 5.0, 1, "j"],
        ["bc.engine", 9.5, 9.8, 0, "j"],
    ]
    m = t.layer_metrics()
    assert m["gpusim.run_bc.calls"] == (1, "count")
    assert m["gpusim.run_bc.self_s"][0] == pytest.approx(10 - 8 - 0.3)
    assert m["bc.engine.s"][0] == pytest.approx(8.3)
    assert m["bc.accumulate.self_s"][0] == pytest.approx(8.3 - 3.0)
    assert m["bc.forward.calls"] == (1, "count")
    assert m["bc.fold.calls"] == (0, "count")
    assert t.layer_metrics(skip_job="j")["bc.engine.s"][0] == 0.0


def test_reuse_hooks_count_distinct_graph_root_pairs():
    from tracer import Tracer

    t = Tracer()
    g, h = object(), object()
    fwd = types.SimpleNamespace(levels=[0, 1, 2])
    # Six strategies over the same 8 roots of one graph.
    for _ in range(5):
        for r in range(8):
            t._on_forward((g, r), {}, fwd)
    t._on_batched((g, np.arange(8)), {}, None)
    t._on_fold((h,), {}, None)
    t._on_fold((h,), {}, None)
    m = t.layer_metrics()
    assert m["bc.traversal.reuse"][0] == pytest.approx(1 / 6)
    assert m["bc.forward.levels"][0] == 40 * 3
    assert m["bc.fold.reuse"][0] == pytest.approx(1 / 2)


def test_tracer_wraps_library_calls_and_restores_them():
    import repro.bc.frontier
    from repro.gpusim import GTX_TITAN, Device
    from repro.graph.generators import figure1_graph
    from tracer import Tracer

    original = repro.bc.frontier.forward_sweep
    original_run_bc = Device.run_bc
    g = figure1_graph()
    roots = np.arange(3)
    t = Tracer().install()
    try:
        t.job = "two-strategies"
        for strategy in ("work-efficient", "edge-parallel"):
            Device(GTX_TITAN).run_bc(g, strategy=strategy, roots=roots,
                                     fold=False)
    finally:
        t.uninstall()
    assert repro.bc.frontier.forward_sweep is original
    assert Device.__dict__["run_bc"] is original_run_bc
    m = t.layer_metrics()
    assert m["gpusim.run_bc.calls"][0] == 2
    assert m["bc.forward.calls"][0] == 6
    assert m["bc.traversal.reuse"][0] == pytest.approx(1 / 2)
    assert m["bc.fold.calls"][0] == 0
    assert m["gpusim.sim_cycles"][0] > 0
    # Every forward sweep ran inside a run_root inside run_bc.
    names = {i: s[0] for i, s in enumerate(t.spans)}
    for name, _, _, parent, job in t.spans:
        assert job == "two-strategies"
        if name == "bc.forward":
            assert names[parent] == "bc.engine"
    # Once uninstalled, calls leave no spans.
    count = len(t.spans)
    Device(GTX_TITAN).run_bc(g, strategy="work-efficient", roots=roots)
    assert len(t.spans) == count


# -- workloads and the benchmark file ---------------------------------------
def test_job_roots_follow_the_documented_rule():
    from repro.graph.generators import make_dataset
    from repro.service import JobSpec
    from repro.service.scheduler import sample_roots
    from workloads import job_roots

    g = make_dataset("smallworld", scale_factor=1024, seed=0)
    for seed in (0, 7, 123456):
        spec = JobSpec(graph="smallworld", roots=4, seed=seed)
        assert np.array_equal(job_roots(g.num_vertices, seed, 4),
                              sample_roots(g, spec))


def test_benchmark_json_matches_the_code():
    from run import END_TO_END, per_layer_names
    from workloads import WORKLOADS

    with open(os.path.join(CHECKOUT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for w in doc["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        per_layer_names()
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
