"""Unit tests for the kernel cost model."""

import numpy as np
import pytest

from repro.gpusim.cost import DEFAULT_COSTS, CostModel

C = CostModel(cycle_scale=1.0)  # unit-scale for arithmetic checks
CHUNK = 256


class TestRowCycles:
    def test_short_row_scattered(self):
        w = C._row_cycles(np.array([4]))
        assert w[0] == 4 * C.edge_scattered

    def test_long_row_streams(self):
        deg = 1000
        w = C._row_cycles(np.array([deg]))
        expect = C.stream_threshold * C.edge_scattered + \
            (deg - C.stream_threshold) * C.edge_streamed
        assert w[0] == expect

    def test_streaming_is_sublinear_in_scatter_terms(self):
        # A hub is slower than a leaf, but far cheaper than
        # scattered-per-edge (the Table I kron effect).
        hub = C._row_cycles(np.array([10_000]))[0]
        assert hub < 10_000 * C.edge_scattered
        assert hub > 10_000 * C.edge_streamed


class TestWorkEfficientCosts:
    def test_scales_with_frontier(self):
        small = C.we_forward(np.full(10, 4), CHUNK)
        large = C.we_forward(np.full(10_000, 4), CHUNK)
        assert large > 10 * small

    def test_empty_frontier_is_launch_only(self):
        assert C.we_forward(np.array([]), CHUNK) == C.launch

    def test_imbalance_penalty(self):
        """One hub in a chunk of leaves costs the hub's row time —
        disabling imbalance drops to the mean (the ablation)."""
        deg = np.ones(CHUNK, dtype=np.int64)
        deg[0] = 3000
        with_imb = C.we_forward(deg, CHUNK)
        without = C.without_imbalance().we_forward(deg, CHUNK)
        assert with_imb > 10 * without

    def test_backward_cheaper_than_forward(self):
        deg = np.full(1000, 8)
        assert C.we_backward(deg, CHUNK) < C.we_forward(deg, CHUNK)


class TestFractionalCosts:
    """Chunk maxima are summed as floats: a fractional per-edge charge
    is never floored on the load-imbalance path."""

    def test_scattered_charge_kept(self):
        c = CostModel(cycle_scale=1, edge_scattered=2.5, launch=0, queue_op=0)
        assert c.we_forward([1], CHUNK) == 2.5
        assert c.we_backward([1], CHUNK) == 2.0
        assert c.vp_forward(1, [1], CHUNK) == 2.5 + c.vertex_check

    def test_streamed_charge_kept(self):
        c = CostModel(cycle_scale=1, edge_streamed=4.5, launch=0, queue_op=0)
        assert c.we_forward([33], CHUNK) == 516.5
        assert c.we_forward([33], CHUNK) == \
            c.without_imbalance().we_forward([33], 1)


class TestEdgeParallelCosts:
    def test_independent_of_frontier(self):
        a = C.ep_forward(100_000, 10, CHUNK)
        b = C.ep_forward(100_000, 10, CHUNK)
        assert a == b

    def test_scales_with_edges(self):
        assert C.ep_forward(1_000_000, 0, CHUNK) > 9 * C.ep_forward(100_000, 0, CHUNK)

    def test_atomic_term(self):
        assert C.ep_forward(1000, 1000, CHUNK) > C.ep_forward(1000, 0, CHUNK)


class TestVertexParallelCosts:
    def test_pays_all_vertex_checks(self):
        none = C.vp_forward(1_000_000, np.array([]), CHUNK)
        assert none >= 1_000_000 / CHUNK * C.vertex_check

    def test_more_expensive_than_we_for_same_frontier(self):
        deg = np.full(100, 5)
        masked = np.zeros(100_000)
        masked[:100] = 5
        assert C.vp_forward(100_000, masked, CHUNK) > C.we_forward(deg, CHUNK)


class TestGPUFan:
    def test_global_sync_penalty(self):
        ep = C.ep_forward(1000, 0, CHUNK)
        gf = C.gpu_fan_forward(1000, 0, CHUNK)
        assert gf > ep  # same work, far costlier barrier

    def test_device_chunk_speeds_edges(self):
        one_sm = C.gpu_fan_forward(10_000_000, 0, 256)
        whole = C.gpu_fan_forward(10_000_000, 0, 256 * 14)
        assert whole < one_sm

    def test_backward_equals_forward(self):
        from repro.gpusim.cost import Levels

        lv = Levels.one(np.full(10, 3))._replace(num_directed_edges=5000)
        assert C.level_cycles("backward", "gpu-fan", lv, 256, 1024) == \
            C.level_cycles("forward", "gpu-fan", lv, 256, 1024)
        assert C.level_cycles("forward", "gpu-fan", lv, 256, 1024)[0] == \
            C.gpu_fan_forward(5000, 30, 1024)


class TestCrossoverShapes:
    """The calibration facts the paper's results rest on."""

    def test_small_frontier_prefers_work_efficient(self):
        # A road-network-like level: 20 frontier vertices of degree 2
        # in a 240k-directed-edge graph.
        we = C.we_forward(np.full(20, 2), CHUNK)
        ep = C.ep_forward(240_000, 40, CHUNK)
        assert we < ep / 5

    def test_huge_frontier_prefers_edge_parallel(self):
        # A small-world peak level: half the graph in the frontier.
        rng = np.random.default_rng(0)
        deg = rng.poisson(10, size=50_000) + 1
        we = C.we_forward(deg, CHUNK)
        ep = C.ep_forward(int(deg.sum() * 2), int(deg.sum()), CHUNK)
        assert ep < we

    def test_cycle_scale_is_uniform(self):
        """Scaling cycles must not change any method ratio."""
        c1 = CostModel(cycle_scale=1.0)
        c2 = CostModel(cycle_scale=100.0)
        deg = np.full(100, 7)
        ratio_we = c2.we_forward(deg, CHUNK) / c1.we_forward(deg, CHUNK)
        ratio_ep = c2.ep_forward(5000, 100, CHUNK) / c1.ep_forward(5000, 100, CHUNK)
        assert ratio_we == pytest.approx(100.0)
        assert ratio_ep == pytest.approx(100.0)

    def test_default_cycle_scale(self):
        assert DEFAULT_COSTS.cycle_scale == 100.0


class TestEnqueueModes:
    def test_prefix_sum_charges_scan(self):
        import numpy as np

        deg = np.full(2000, 10)
        cas = CostModel(cycle_scale=1.0, enqueue="cas")
        scan = CostModel(cycle_scale=1.0, enqueue="prefix-sum")
        assert scan.we_forward(deg, CHUNK) > cas.we_forward(deg, CHUNK)

    def test_unknown_mode_rejected(self):
        import numpy as np
        import pytest

        bad = CostModel(enqueue="magic")
        with pytest.raises(ValueError):
            bad.we_forward(np.array([1, 2]), CHUNK)

    def test_backward_unaffected_by_enqueue(self):
        import numpy as np

        deg = np.full(100, 5)
        cas = CostModel(cycle_scale=1.0, enqueue="cas")
        scan = CostModel(cycle_scale=1.0, enqueue="prefix-sum")
        assert cas.we_backward(deg, CHUNK) == scan.we_backward(deg, CHUNK)
