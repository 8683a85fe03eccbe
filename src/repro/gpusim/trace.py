"""Execution traces produced by the simulated kernels.

A root's trace is columnar: one array per field, one entry per kernel
iteration (one BFS level, one stage) in execution order — forward
levels ``0 .. D``, then backward levels ``D - 1 .. 1``.  The columns
carry the vertex-frontier size (Figure 3), the edge-frontier size
(Table I), the strategy that processed the level (hybrid switching
behaviour), and the cycles charged — which is what Table I correlates
frontier sizes against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["LevelTrace", "RootTrace", "RunTrace", "STAGES", "KERNELS"]

#: Stage codes of :attr:`RootTrace.stages`.
STAGES = ("forward", "backward")
#: Strategy codes of :attr:`RootTrace.kernels`.
KERNELS = ("work-efficient", "edge-parallel", "vertex-parallel", "gpu-fan",
           "batched")


class LevelTrace(NamedTuple):
    """One kernel iteration (one BFS level, one stage): a row view of a
    :class:`RootTrace`, for inspection; pricing never builds one."""

    depth: int
    stage: str  # "forward" or "backward"
    strategy: str  # one of KERNELS
    frontier_size: int
    edge_frontier: int
    cycles: float


class RootTrace:
    """All iterations of one BC root (shortest paths + accumulation), as
    columns: ``depths``, ``stages`` (codes into :data:`STAGES`),
    ``kernels`` (codes into :data:`KERNELS`), ``frontiers``,
    ``edge_frontiers`` and ``level_cycles``."""

    __slots__ = ("root", "depths", "stages", "kernels", "frontiers",
                 "edge_frontiers", "level_cycles", "cycles")

    def __init__(self, root: int, depths, stages, kernels, frontiers,
                 edge_frontiers, level_cycles):
        self.root = int(root)
        self.depths = np.asarray(depths, dtype=np.int64)
        self.stages = np.asarray(stages, dtype=np.int8)
        self.kernels = np.asarray(kernels, dtype=np.int8)
        self.frontiers = np.asarray(frontiers, dtype=np.int64)
        self.edge_frontiers = np.asarray(edge_frontiers, dtype=np.int64)
        self.level_cycles = np.asarray(level_cycles, dtype=np.float64)
        #: Total cycles this root cost on its SM: the levels' cycles
        #: summed left to right, in execution order (a running sum, not
        #: NumPy's pairwise ``sum``, so totals match a level-by-level
        #: charge bit for bit).
        self.cycles = (float(np.cumsum(self.level_cycles)[-1])
                       if self.level_cycles.size else 0.0)

    @classmethod
    def sweep(cls, root: int, kernels, frontiers, edge_frontiers,
              forward_cycles, backward_cycles) -> "RootTrace":
        """Lay out one sweep of ``L`` levels: forward depths ``0 .. L-1``,
        then backward depths ``L-2 .. 1`` (the deepest level has no
        successors and the root contributes nothing), each backward
        level under its forward strategy.  Every argument is per depth;
        ``backward_cycles`` is read at depths ``1 .. L-2`` only."""
        L = len(kernels)
        order = np.concatenate((np.arange(L), np.arange(L - 2, 0, -1)))
        return cls(root, order, np.repeat((0, 1), (L, order.size - L)),
                   np.asarray(kernels)[order], np.asarray(frontiers)[order],
                   np.asarray(edge_frontiers)[order],
                   np.concatenate((forward_cycles,
                                   np.asarray(backward_cycles)[order[L:]])))

    @property
    def levels(self) -> list:
        """Row view: one :class:`LevelTrace` per iteration."""
        return [LevelTrace(d, STAGES[s], KERNELS[k], f, e, c)
                for d, s, k, f, e, c in zip(
                    self.depths.tolist(), self.stages.tolist(),
                    self.kernels.tolist(), self.frontiers.tolist(),
                    self.edge_frontiers.tolist(), self.level_cycles.tolist())]

    @property
    def _forward(self) -> np.ndarray:
        return self.stages == 0

    @property
    def max_depth(self) -> int:
        """Deepest forward level (the BFS depth Algorithm 5 samples)."""
        forward = self.depths[self._forward]
        return int(forward.max()) if forward.size else 0

    def vertex_frontier_sizes(self) -> np.ndarray:
        """Vertex-frontier series for this root (Figure 3)."""
        return self.frontiers[self._forward]

    def edge_frontier_sizes(self) -> np.ndarray:
        """Edge-frontier series for this root (Table I)."""
        return self.edge_frontiers[self._forward]

    def forward_cycles(self) -> np.ndarray:
        """Per-forward-level cycle series (Table I's elapsed times)."""
        return self.level_cycles[self._forward]

    def strategies_used(self) -> list:
        """Distinct strategies across levels, in first-use order."""
        return list(dict.fromkeys(KERNELS[k] for k in self.kernels.tolist()))

    def strategy_by_depth(self) -> dict:
        """``{depth: strategy}`` over the forward sweep — the recorded
        strategy sequence the decision-trace audit is verified against
        (backward levels reuse the forward level's strategy by
        construction, so the forward map is the whole story)."""
        forward = self._forward
        return {d: KERNELS[k] for d, k in zip(
            self.depths[forward].tolist(), self.kernels[forward].tolist())}


@dataclass
class RunTrace:
    """A whole device run: per-root traces plus schedule outcome."""

    roots: list = field(default_factory=list)  # list[RootTrace]
    makespan_cycles: float = 0.0
    sm_cycles: np.ndarray | None = None  # per-SM busy cycles

    @property
    def total_root_cycles(self) -> float:
        """Sum of per-root costs (ignores scheduling; = serial time)."""
        return float(sum(rt.cycles for rt in self.roots))

    def max_depths(self) -> np.ndarray:
        """Per-root max BFS depths (what Algorithm 5's median inspects)."""
        return np.array([rt.max_depth for rt in self.roots], dtype=np.int64)
