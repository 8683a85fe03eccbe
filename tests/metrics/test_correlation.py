"""Unit tests for Pearson correlation and Table I helpers."""

import math

import numpy as np
import pytest

from repro.gpusim.trace import RootTrace
from repro.metrics.correlation import frontier_time_correlations, pearson


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_uncorrelated_orthogonal(self):
        # Constructed zero-correlation series.
        assert pearson([1, 2, 3, 4], [1, -1, -1, 1]) == pytest.approx(0.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x, y = rng.random(50), rng.random(50)
        assert pearson(x, y) == pytest.approx(np.corrcoef(x, y)[0, 1])

    def test_degenerate_constant(self):
        assert math.isnan(pearson([1, 1, 1], [1, 2, 3]))

    def test_too_short(self):
        assert math.isnan(pearson([1], [2]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])


class TestFrontierTimeCorrelations:
    def _trace(self):
        frontiers, edges = [1, 4, 12, 3], [4, 12, 30, 8]
        return RootTrace.sweep(7, [0] * 4, frontiers, edges,
                               [10.0 * f for f in frontiers], [1.0] * 4)

    def test_row(self):
        row = frontier_time_correlations(self._trace(), graph_name="g")
        assert row.graph == "g" and row.root == 7
        assert row.num_levels == 4
        # Cycles were built as 10*frontier: perfect vertex correlation.
        assert row.rho_vertex_time == pytest.approx(1.0)
        assert row.rho_edge_time < 1.0

    def test_backward_levels_excluded(self):
        row = frontier_time_correlations(self._trace())
        assert row.num_levels == 4  # not 6
