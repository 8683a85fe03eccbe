"""Unit tests for the per-root engine (values + cost replay + traces)."""

import math

import numpy as np
import pytest

from repro.bc.brandes import brandes_reference
from repro.bc.engine import Sweep, charge_levels, run_root
from repro.bc.frontier import forward_sweep
from repro.bc.policies import (
    EDGE_PARALLEL,
    GPU_FAN,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
)
from repro.errors import StrategyError
from repro.graph.build import from_edges
from repro.gpusim.cost import CostModel

COSTS = CostModel()
CHUNK = 256


def full_bc(g, policy_factory, **kw):
    bc = np.zeros(g.num_vertices)
    traces = []
    for s in range(g.num_vertices):
        traces.append(run_root(g, s, bc, policy_factory(), COSTS, CHUNK, **kw))
    if g.undirected:
        bc /= 2.0
    return bc, traces


class TestValues:
    # Fixed/hybrid policy value equivalence is covered per device
    # strategy in tests/bc/test_differential.py; only policies the
    # matrix does not drive (frontier guard, raw gpu-fan) stay here.
    def test_guard_matches_reference(self, fig1):
        bc, _ = full_bc(fig1, lambda: FrontierGuardPolicy(min_frontier=2))
        assert np.allclose(bc, brandes_reference(fig1))

    def test_gpu_fan_needs_device_chunk(self, fig1):
        bc = np.zeros(9)
        with pytest.raises(StrategyError):
            run_root(fig1, 0, bc, FixedPolicy(GPU_FAN), COSTS, CHUNK)

    def test_gpu_fan_values(self, fig1):
        bc, _ = full_bc(fig1, lambda: FixedPolicy(GPU_FAN), device_chunk=1024)
        assert np.allclose(bc, brandes_reference(fig1))


class TestTraces:
    def test_forward_levels_match_bfs(self, fig1):
        bc = np.zeros(9)
        tr = run_root(fig1, 3, bc, FixedPolicy(WORK_EFFICIENT), COSTS, CHUNK)
        sizes = tr.vertex_frontier_sizes()
        # root; neighbours {1,3,5,6}; then {2,7}; then {8,9} (paper labels).
        assert sizes.tolist() == [1, 4, 2, 2]
        assert tr.max_depth == 3

    def test_edge_frontier_sums_degrees(self, star):
        bc = np.zeros(7)
        tr = run_root(star, 1, bc, FixedPolicy(WORK_EFFICIENT), COSTS, CHUNK)
        assert tr.edge_frontier_sizes().tolist() == [1, 6, 5]

    def test_backward_levels_skip_deepest_and_root(self, path5):
        bc = np.zeros(5)
        tr = run_root(path5, 0, bc, FixedPolicy(WORK_EFFICIENT), COSTS, CHUNK)
        back = [lv.depth for lv in tr.levels if lv.stage == "backward"]
        assert back == [3, 2, 1]

    def test_cycles_positive_and_total(self, fig1):
        bc = np.zeros(9)
        tr = run_root(fig1, 0, bc, FixedPolicy(WORK_EFFICIENT), COSTS, CHUNK)
        assert all(lv.cycles > 0 for lv in tr.levels)
        assert tr.cycles == pytest.approx(sum(lv.cycles for lv in tr.levels))

    def test_strategy_recorded_per_level(self, small_sw):
        bc = np.zeros(small_sw.num_vertices)
        tr = run_root(small_sw, 0, bc, FrontierGuardPolicy(min_frontier=10),
                      COSTS, CHUNK)
        by_depth = tr.strategy_by_depth()
        for depth, size in enumerate(tr.vertex_frontier_sizes().tolist()):
            if depth:
                expect = EDGE_PARALLEL if size >= 10 else WORK_EFFICIENT
                assert by_depth[depth] == expect

    def test_backward_reuses_forward_strategy(self, small_sw):
        bc = np.zeros(small_sw.num_vertices)
        tr = run_root(small_sw, 0, bc, HybridPolicy(alpha=2, beta=10),
                      COSTS, CHUNK)
        by_depth = {lv.depth: lv.strategy for lv in tr.levels
                    if lv.stage == "forward"}
        for lv in tr.levels:
            if lv.stage == "backward":
                assert lv.strategy == by_depth[lv.depth]

    def test_strategies_used_order(self, small_sw):
        bc = np.zeros(small_sw.num_vertices)
        tr = run_root(small_sw, 0, bc, HybridPolicy(alpha=2, beta=10),
                      COSTS, CHUNK)
        used = tr.strategies_used()
        assert used[0] == WORK_EFFICIENT  # hybrid always starts WE
        assert set(used) <= {WORK_EFFICIENT, EDGE_PARALLEL}


class TestReplay:
    def test_replay_is_run_roots_trace(self, small_sw):
        """run_root's trace is exactly the replay of its own sweep."""
        policy = HybridPolicy(alpha=2, beta=10)
        tr = run_root(small_sw, 5, np.zeros(small_sw.num_vertices), policy,
                      COSTS, CHUNK)
        replay = charge_levels(
            small_sw, Sweep(small_sw, forward_sweep(small_sw, 5)),
            policy, COSTS, CHUNK)
        assert replay.root == 5
        assert replay.levels == tr.levels

    def test_one_sweep_charged_under_every_policy(self, small_sw):
        """The replay reads levels only: one traversal prices every
        strategy, and the levels come back untouched."""
        fwd = forward_sweep(small_sw, 0)
        before = [lv.copy() for lv in fwd.levels]
        we, ep = (charge_levels(small_sw, Sweep(small_sw, fwd),
                                FixedPolicy(s), COSTS, CHUNK)
                  for s in (WORK_EFFICIENT, EDGE_PARALLEL))
        assert [lv.frontier_size for lv in we.levels] == \
            [lv.frontier_size for lv in ep.levels]
        assert we.cycles != ep.cycles
        assert all(np.array_equal(a, b) for a, b in zip(before, fwd.levels))


def literal_level_cycles(costs, stage, strategy, g, frontier, chunk,
                         device_chunk):
    """One level priced with a plain per-level loop: the kernels' cost
    formulas written out, independent of the whole-sweep pricer."""
    deg = (g.indptr[frontier + 1] - g.indptr[frontier]).astype(np.float64)
    n, m = g.num_vertices, g.num_directed_edges
    f, ef = frontier.size, deg.sum()

    def rows(d):
        short = np.minimum(d, costs.stream_threshold)
        return short * costs.edge_scattered + (d - short) * costs.edge_streamed

    def serial(r):
        if not costs.imbalance:
            return float(r.sum()) / chunk
        total = 0.0
        for i in range(0, r.size, chunk):
            total += float(r[i:i + chunk].max())
        return total

    if strategy == WORK_EFFICIENT and stage == "forward":
        c = serial(rows(deg)) + math.ceil(f / chunk) * costs.queue_op * 2
        if costs.enqueue == "prefix-sum":
            c += (ef / chunk * costs.prefix_scan_factor
                  * math.log2(max(ef, 2.0)))
        return (c + costs.launch) * costs.cycle_scale
    if strategy == WORK_EFFICIENT:
        c = serial(rows(deg)) * 0.8 + math.ceil(f / chunk) * costs.queue_op
        return (c + costs.launch) * costs.cycle_scale
    if strategy == VERTEX_PARALLEL:
        masked = np.zeros(n)
        masked[frontier] = deg
        work = serial(rows(masked))
        if stage == "backward":
            work *= 0.8
        c = math.ceil(n / chunk) * costs.vertex_check + work
        return (c + costs.launch) * costs.cycle_scale
    if strategy == EDGE_PARALLEL:
        c = math.ceil(m / chunk) * costs.edge_coalesced
        c += ef / chunk * costs.atomic
        return (c + costs.launch) * costs.cycle_scale
    c = math.ceil(m / device_chunk) * costs.edge_coalesced
    c += ef / device_chunk * costs.atomic
    c += costs.launch * costs.gpu_fan_sync_multiplier
    return c * costs.cycle_scale


def _pricing_sweeps():
    """``(name, graph, root, target weights)``: a one-vertex sweep (an
    isolated root, no backward levels), a two-level star, a deep road
    sweep and a folded Kronecker core with its target weights."""
    from repro.bc.preprocess import fold_degree_one
    from repro.graph.generators import kronecker_graph, road_network

    fold = fold_degree_one(kronecker_graph(8, edge_factor=8, seed=5))
    assert not fold.is_identity
    return [
        ("isolated", from_edges([(0, 1)], num_vertices=3), 2, None),
        ("two-level", from_edges([(0, i) for i in range(1, 6)]), 0, None),
        ("road", road_network(300, seed=11), 0, None),
        ("folded-core", fold.core, 0, fold.core_weights),
    ]


class TestWholeSweepPricing:
    """Every (stage, strategy) table priced for a whole sweep in one
    call equals, exactly, the same sweep priced level by level."""

    COST_MODELS = {"default": CostModel(),
                   "no-imbalance": CostModel().without_imbalance(),
                   "prefix-sum": CostModel(enqueue="prefix-sum")}

    @pytest.mark.parametrize("cost_name", sorted(COST_MODELS))
    @pytest.mark.parametrize("name,g,root,weights", _pricing_sweeps(),
                             ids=[c[0] for c in _pricing_sweeps()])
    def test_tables_equal_per_level_loop(self, cost_name, name, g, root,
                                         weights):
        costs = self.COST_MODELS[cost_name]
        sweep = Sweep(g, forward_sweep(g, root), weights)
        s, ends = sweep.s, sweep.ends
        if name == "isolated":
            assert ends.tolist() == [0, 1]
        if name == "two-level":
            assert ends.size == 3
        for strategy in (WORK_EFFICIENT, EDGE_PARALLEL, VERTEX_PARALLEL,
                         GPU_FAN):
            for stage in ("forward", "backward"):
                table = sweep.cycles(g, costs, stage, strategy, CHUNK, 1024)
                want = [literal_level_cycles(costs, stage, strategy, g,
                                             s[ends[d]:ends[d + 1]], CHUNK,
                                             1024)
                        for d in range(ends.size - 1)]
                assert table.tolist() == want, (stage, strategy)

    def test_replayed_trace_reads_the_tables(self, small_sw):
        """A hybrid replay's levels carry the tables' entries exactly,
        backward levels under their forward strategy."""
        sweep = Sweep(small_sw, forward_sweep(small_sw, 5))
        tr = charge_levels(small_sw, sweep, HybridPolicy(alpha=2, beta=10),
                           COSTS, CHUNK)
        assert len(tr.strategies_used()) == 2
        for lv in tr.levels:
            table = sweep.cycles(small_sw, COSTS, lv.stage, lv.strategy,
                                 CHUNK, None)
            assert lv.cycles == table[lv.depth]
        assert tr.cycles == sum(lv.cycles for lv in tr.levels)

    def test_errors_kept(self, path5):
        sweep = Sweep(path5, forward_sweep(path5, 0))
        with pytest.raises(StrategyError):
            sweep.cycles(path5, COSTS, "forward", GPU_FAN, CHUNK, None)
        with pytest.raises(ValueError):
            sweep.cycles(path5, CostModel(enqueue="magic"), "forward",
                         WORK_EFFICIENT, CHUNK, None)
        with pytest.raises(StrategyError):
            sweep.cycles(path5, COSTS, "forward", "batched", CHUNK, 1024)


class TestReplayAllocations:
    def test_fixed_replay_keeps_no_object_per_level(self):
        """With metrics disabled, a replayed root is a handful of column
        arrays however deep its sweep: the blocks a replay leaves
        allocated do not grow with the level count."""
        import tracemalloc

        retained = {}
        for n in (200, 2000):
            g = from_edges([(i, i + 1) for i in range(n - 1)])
            sweep = Sweep(g, forward_sweep(g, 0))
            policy = FixedPolicy(WORK_EFFICIENT)
            charge_levels(g, sweep, policy, COSTS, CHUNK)  # prices tables
            tracemalloc.start()
            try:
                before = tracemalloc.take_snapshot()
                trace = charge_levels(g, sweep, policy, COSTS, CHUNK)
                after = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
            assert trace.depths.size == 2 * n - 2
            retained[n] = sum(s.count_diff
                              for s in after.compare_to(before, "filename"))
        assert retained[2000] < 100
        assert retained[2000] <= retained[200] + 10


class TestCostCharging:
    def test_edge_parallel_charges_all_edges_every_level(self, path5):
        """The O(n^2+m) signature: EP cost per level is ~constant in the
        frontier, WE cost tracks the frontier."""
        bc = np.zeros(5)
        tr = run_root(path5, 0, bc, FixedPolicy(EDGE_PARALLEL), COSTS, CHUNK)
        fwd_cycles = tr.forward_cycles()
        assert np.allclose(fwd_cycles, fwd_cycles[0], rtol=0.2)

    def test_edge_parallel_pays_per_level(self, path5, star):
        """Same edge work, different depth: EP's cost is proportional
        to the level count (the O(n^2 + m) traversal), so the 5-level
        path costs far more than the 2-level star per edge."""
        bc1 = np.zeros(5)
        path_tr = run_root(path5, 0, bc1, FixedPolicy(EDGE_PARALLEL),
                           COSTS, CHUNK)
        bc2 = np.zeros(7)
        star_tr = run_root(star, 0, bc2, FixedPolicy(EDGE_PARALLEL),
                           COSTS, CHUNK)
        path_levels = len(path_tr.levels)
        star_levels = len(star_tr.levels)
        assert path_levels > 2 * star_levels
        assert path_tr.cycles > 2 * star_tr.cycles

    def test_vertex_parallel_pays_vertex_checks(self):
        """Vertex-parallel scans all n vertices every level; on a
        high-diameter graph with tiny frontiers that dwarfs the
        work-efficient cost once n is far above the chunk width."""
        from repro.graph.generators import road_network

        g = road_network(20_000, seed=1)
        n = g.num_vertices
        bc1 = np.zeros(n)
        vp = run_root(g, 0, bc1, FixedPolicy(VERTEX_PARALLEL), COSTS, CHUNK)
        bc2 = np.zeros(n)
        we = run_root(g, 0, bc2, FixedPolicy(WORK_EFFICIENT), COSTS, CHUNK)
        assert vp.cycles > 2 * we.cycles


class TestSweepMemo:
    """Traverse once, charge many: one sweep per (graph, root, target
    weights), shared by every strategy and every later run."""

    @staticmethod
    def count_sweeps(monkeypatch) -> list:
        import repro.bc.engine as engine

        calls = []
        original = engine.forward_sweep

        def counted(g, source, *args, **kwargs):
            calls.append((id(g), int(source)))
            return original(g, source, *args, **kwargs)

        monkeypatch.setattr(engine, "forward_sweep", counted)
        return calls

    def test_grid_strategies_sweep_each_root_once(self, small_sw,
                                                  monkeypatch):
        from repro.bc.api import betweenness_centrality
        from repro.bench.grid import STRATEGY_NAMES
        from repro.gpusim import Device

        calls = self.count_sweeps(monkeypatch)
        roots = np.arange(0, small_sw.num_vertices, 10)
        device = Device()
        expect = betweenness_centrality(small_sw, sources=roots, fold=False)
        for _ in range(2):
            for strategy in STRATEGY_NAMES:
                run = device.run_bc(small_sw, strategy=strategy, roots=roots,
                                    alpha=2, beta=10, n_samps=roots.size // 2,
                                    fold=False)
                np.testing.assert_allclose(run.bc, expect, rtol=1e-12,
                                           atol=1e-12)
        assert sorted(calls) == sorted({(id(small_sw), int(r))
                                        for r in roots})

    def test_memo_stays_in_budget_and_exact(self, small_sw, monkeypatch):
        import repro.bc.engine as engine
        from repro.bc.api import betweenness_centrality
        from repro.gpusim import Device

        calls = self.count_sweeps(monkeypatch)
        memo = engine.sweep_memo(small_sw)
        Device().run_bc(small_sw, strategy="work-efficient", roots=[0],
                        fold=False)
        budget = 3 * memo.nbytes + 1  # three sweeps of this graph
        monkeypatch.setattr(engine, "SWEEP_MEMO_BYTES", budget)
        roots = np.arange(small_sw.num_vertices)
        expect = betweenness_centrality(small_sw, sources=roots, fold=False)
        for strategy in ("work-efficient", "hybrid", "edge-parallel"):
            run = Device().run_bc(small_sw, strategy=strategy, roots=roots,
                                  alpha=2, beta=10, fold=False)
            np.testing.assert_allclose(run.bc, expect, rtol=1e-12,
                                       atol=1e-12)
            assert memo.nbytes <= budget
            assert 0 < len(memo.entries) < roots.size
            assert memo.nbytes == sum(sweep.nbytes
                                      for sweep, _ in memo.entries.values())
        assert len(calls) > roots.size  # evicted roots were swept again

    @pytest.mark.parametrize("folded_first", [True, False],
                             ids=["folded-first", "core-first"])
    def test_folded_and_unfolded_core_never_share(self, small_kron,
                                                  folded_first):
        from repro.bc.api import betweenness_centrality
        from repro.bc.engine import sweep_memo
        from repro.bc.preprocess import fold_degree_one
        from repro.gpusim import Device

        fold = fold_degree_one(small_kron)
        assert not fold.is_identity
        core = fold.core
        roots = fold.core_vertices[:12]
        core_roots = fold.core_index[roots]
        runs = {
            "folded": lambda: Device().run_bc(
                small_kron, strategy="work-efficient", roots=roots,
                fold=True).bc,
            "core": lambda: Device().run_bc(
                core, strategy="work-efficient", roots=core_roots,
                fold=False).bc,
        }
        expect = {
            "folded": betweenness_centrality(small_kron, sources=roots,
                                             fold=False),
            "core": betweenness_centrality(core, sources=core_roots,
                                           fold=False),
        }
        order = ["folded", "core"] if folded_first else ["core", "folded"]
        for name in order * 2:
            np.testing.assert_allclose(runs[name](), expect[name],
                                       rtol=1e-12, atol=1e-12)
        memo = sweep_memo(core)
        assert len(memo.entries) == 2 * roots.size
        weights = {id(sweep.weights) for sweep, _ in memo.entries.values()}
        assert weights == {id(None), id(fold.core_weights)}

    def test_verified_runs_bypass_the_memo(self, small_sw, monkeypatch):
        """A verified run sweeps and checks its roots afresh on every
        call, warm graph or not, and leaves the memo as it found it."""
        from repro.bc.api import betweenness_centrality
        from repro.bc.engine import sweep_memo
        from repro.gpusim import Device
        from repro.observability import MetricsRegistry
        from repro.verify import VerificationPolicy

        calls = self.count_sweeps(monkeypatch)
        roots = np.arange(12)
        device = Device()
        expect = betweenness_centrality(small_sw, sources=roots, fold=False)
        device.run_bc(small_sw, strategy="work-efficient", roots=roots[:6],
                      fold=False)
        memo = sweep_memo(small_sw)
        before = dict(memo.entries)
        sampled = sum(VerificationPolicy("sampled").checks_root(r)
                      for r in roots)
        assert 0 < sampled < roots.size
        for verify, checks in (("sampled", sampled), ("sampled", sampled),
                               ("paranoid", roots.size)):
            calls.clear()
            metrics = MetricsRegistry()
            run = device.run_bc(small_sw, strategy="hybrid", roots=roots,
                                alpha=2, beta=10, fold=False, verify=verify,
                                metrics=metrics)
            np.testing.assert_allclose(run.bc, expect, rtol=1e-12,
                                       atol=1e-12)
            assert len(calls) == roots.size, verify
            assert metrics.counter("verify.checks",
                                   invariant="root").value == checks
            assert memo.entries == before

    def test_pickles_and_deep_copies_start_without_a_memo(self, fig1):
        import copy
        import pickle

        from repro.bc.engine import sweep_memo
        from repro.gpusim import Device

        Device().run_bc(fig1, strategy="work-efficient", roots=[0, 1])
        assert len(sweep_memo(fig1).entries) == 2
        for clone in (pickle.loads(pickle.dumps(fig1)), copy.deepcopy(fig1)):
            assert clone.digest() == fig1.digest()
            assert not sweep_memo(clone).entries
