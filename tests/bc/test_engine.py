"""Unit tests for the per-root engine (values + cost replay + traces)."""

import numpy as np
import pytest

from repro.bc.brandes import brandes_reference
from repro.bc.engine import charge_levels, run_root
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
        fwd = tr.forward_levels()
        for prev, lv in zip(fwd, fwd[1:]):
            expect = (EDGE_PARALLEL if lv.frontier_size >= 10
                      else WORK_EFFICIENT)
            assert lv.strategy == expect

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
        replay = charge_levels(small_sw, forward_sweep(small_sw, 5).levels,
                               policy, COSTS, CHUNK)
        assert replay.root == 5
        assert replay.levels == tr.levels

    def test_one_sweep_charged_under_every_policy(self, small_sw):
        """The replay reads levels only: one traversal prices every
        strategy, and the levels come back untouched."""
        fwd = forward_sweep(small_sw, 0)
        before = [lv.copy() for lv in fwd.levels]
        we, ep = (charge_levels(small_sw, fwd.levels, FixedPolicy(s),
                                COSTS, CHUNK)
                  for s in (WORK_EFFICIENT, EDGE_PARALLEL))
        assert [lv.frontier_size for lv in we.levels] == \
            [lv.frontier_size for lv in ep.levels]
        assert we.cycles != ep.cycles
        assert all(np.array_equal(a, b) for a, b in zip(before, fwd.levels))


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
