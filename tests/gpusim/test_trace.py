"""Unit tests for trace containers."""

import numpy as np

from repro.gpusim.trace import KERNELS, STAGES, LevelTrace, RootTrace, RunTrace


def _lv(depth, stage, strategy="work-efficient", f=1, ef=2, cycles=10.0):
    return LevelTrace(depth=depth, stage=stage, strategy=strategy,
                      frontier_size=f, edge_frontier=ef, cycles=cycles)


def from_levels(root, levels):
    """A columnar trace holding ``levels`` (the inverse of ``.levels``)."""
    return RootTrace(root, [lv.depth for lv in levels],
                     [STAGES.index(lv.stage) for lv in levels],
                     [KERNELS.index(lv.strategy) for lv in levels],
                     [lv.frontier_size for lv in levels],
                     [lv.edge_frontier for lv in levels],
                     [lv.cycles for lv in levels])


class TestRootTrace:
    def test_cycles_sum(self):
        rt = from_levels(0, [_lv(0, "forward", cycles=5),
                                       _lv(1, "forward", cycles=7),
                                       _lv(1, "backward", cycles=3)])
        assert rt.cycles == 15

    def test_cycles_sum_left_to_right(self):
        """The total is the execution-order float sum, as makespans
        were always charged."""
        cycles = [1e16, 1.0, -1e16, 1.0]
        rt = from_levels(0, [_lv(d, "forward", cycles=c)
                                       for d, c in enumerate(cycles)])
        assert rt.cycles == ((1e16 + 1.0) - 1e16) + 1.0

    def test_max_depth_forward_only(self):
        rt = from_levels(0, [_lv(0, "forward"), _lv(1, "forward"),
                                       _lv(1, "backward")])
        assert rt.max_depth == 1

    def test_empty(self):
        rt = from_levels(0, [])
        assert rt.max_depth == 0 and rt.cycles == 0
        assert rt.levels == [] and rt.strategy_by_depth() == {}

    def test_series(self):
        rt = from_levels(0, [_lv(0, "forward", f=1, ef=3, cycles=4),
                                       _lv(1, "forward", f=5, ef=9, cycles=8),
                                       _lv(1, "backward", f=5, ef=9,
                                           cycles=2)])
        assert rt.vertex_frontier_sizes().tolist() == [1, 5]
        assert rt.edge_frontier_sizes().tolist() == [3, 9]
        assert rt.forward_cycles().tolist() == [4, 8]

    def test_strategies_used_dedup(self):
        rt = from_levels(0, [
            _lv(0, "forward", strategy="work-efficient"),
            _lv(1, "forward", strategy="edge-parallel"),
            _lv(2, "forward", strategy="work-efficient")])
        assert rt.strategies_used() == ["work-efficient", "edge-parallel"]

    def test_levels_view_round_trips(self):
        rows = [_lv(0, "forward", f=1, ef=3, cycles=4.5),
                _lv(1, "forward", strategy="edge-parallel", f=5, ef=9),
                _lv(1, "backward", strategy="edge-parallel", f=5, ef=9)]
        rt = from_levels(3, rows)
        assert rt.levels == rows and rt.depths.size == 3
        assert rt.strategy_by_depth() == {0: "work-efficient",
                                          1: "edge-parallel"}

    def test_sweep_layout(self):
        """Forward depths 0..L-1, then backward L-2..1 under their
        forward strategy."""
        rt = RootTrace.sweep(9, [0, 1, 1, 0], [1, 4, 6, 2], [3, 8, 9, 2],
                             [10.0, 20.0, 30.0, 40.0], [1.0, 2.0, 3.0, 4.0])
        assert rt.depths.tolist() == [0, 1, 2, 3, 2, 1]
        assert rt.stages.tolist() == [0, 0, 0, 0, 1, 1]
        assert rt.kernels.tolist() == [0, 1, 1, 0, 1, 1]
        assert rt.frontiers.tolist() == [1, 4, 6, 2, 6, 4]
        assert rt.level_cycles.tolist() == [10, 20, 30, 40, 3, 2]
        one = RootTrace.sweep(9, [0], [1], [0], [5.0], [7.0])
        assert one.levels == [_lv(0, "forward", f=1, ef=0, cycles=5.0)]


class TestRunTrace:
    def test_totals(self):
        run = RunTrace()
        for i in range(3):
            run.roots.append(from_levels(
                i, [_lv(0, "forward", cycles=10)]))
        assert run.total_root_cycles == 30
        assert run.max_depths().tolist() == [0, 0, 0]
