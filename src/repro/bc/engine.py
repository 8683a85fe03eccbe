"""Per-root execution engine: one value path plus a pure cost replay.

Every strategy computes identical values — the strategies differ only
in the thread-to-work assignment being costed — so one call to
:func:`run_root` splits a root into three steps:

1. **Sweep** — :func:`~repro.bc.frontier.forward_sweep`, the exact
   level-synchronous BFS with path counting, strategy-free.
2. **Replay** — :func:`charge_levels` walks the sweep's levels once and
   charges each under the strategy the policy selected for that
   iteration (forward, then backward under the same per-depth
   strategy), recording the policy's ``decision.*`` events.  It never
   touches values.
3. **Accumulate** — :func:`~repro.bc.accumulation.dependency_accumulation`,
   the same Stage 2 :func:`~repro.bc.betweenness_centrality` runs.

Correctness is therefore verified once against the serial reference
and literal kernel re-implementations, while performance comparisons
come from the charged cycles.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import StrategyError
from ..graph.csr import CSRGraph
from ..gpusim.cost import CostModel
from ..gpusim.trace import LevelTrace, RootTrace
from ..observability.registry import NULL_REGISTRY
from .accumulation import dependency_accumulation
from .frontier import forward_sweep
from .policies import (
    EDGE_PARALLEL,
    GPU_FAN,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    Policy,
)

__all__ = ["run_root", "charge_levels", "record_level"]


class _Level(NamedTuple):
    """What a kernel's charge reads about one level."""

    g: CSRGraph
    frontier: np.ndarray
    degrees: np.ndarray  # degree of each frontier vertex
    ef: int  # edge frontier: sum of ``degrees``
    chunk: int
    device_chunk: int | None

    def masked(self) -> np.ndarray:
        """Per-vertex degrees, zero off the frontier (what a
        vertex-parallel kernel's n threads see)."""
        masked = np.zeros(self.g.num_vertices, dtype=np.int64)
        masked[self.frontier] = self.degrees
        return masked


#: The one cost dispatch: cycles of one level, keyed by
#: ``(stage, strategy)``.
_CHARGES = {
    ("forward", WORK_EFFICIENT):
        lambda c, x: c.we_forward(x.degrees, x.chunk),
    ("backward", WORK_EFFICIENT):
        lambda c, x: c.we_backward(x.degrees, x.chunk),
    ("forward", EDGE_PARALLEL):
        lambda c, x: c.ep_forward(x.g.num_directed_edges, x.ef, x.chunk),
    ("backward", EDGE_PARALLEL):
        lambda c, x: c.ep_backward(x.g.num_directed_edges, x.ef, x.chunk),
    ("forward", VERTEX_PARALLEL):
        lambda c, x: c.vp_forward(x.g.num_vertices, x.masked(), x.chunk),
    ("backward", VERTEX_PARALLEL):
        lambda c, x: c.vp_backward(x.g.num_vertices, x.masked(), x.chunk),
    ("forward", GPU_FAN):
        lambda c, x: c.gpu_fan_forward(x.g.num_directed_edges, x.ef,
                                       x.device_chunk),
    ("backward", GPU_FAN):
        lambda c, x: c.gpu_fan_backward(x.g.num_directed_edges, x.ef,
                                        x.device_chunk),
}


def record_level(trace: RootTrace, level: LevelTrace, metrics) -> None:
    """Append ``level`` to ``trace`` and count it in the per-level
    ``engine.*`` series — the one recorder for engine levels and the
    device's batched frontier-matrix levels alike."""
    stage, strategy = level.stage, level.strategy
    trace.add(level)
    metrics.inc("engine.levels", stage=stage, strategy=strategy)
    metrics.inc("engine.frontier_vertices", level.frontier_size, stage=stage)
    metrics.inc("engine.frontier_edges", level.edge_frontier, stage=stage)
    metrics.inc("engine.cycles", level.cycles, stage=stage, strategy=strategy)
    if stage == "forward":
        metrics.observe("engine.frontier_size", level.frontier_size,
                        stage=stage)


def charge_levels(
    g: CSRGraph,
    levels: list,
    policy: Policy,
    costs: CostModel,
    chunk: int,
    device_chunk: int | None = None,
    metrics=NULL_REGISTRY,
) -> RootTrace:
    """Replay one exact traversal's ``levels`` under ``policy``.

    Forward, level ``d`` is charged under the strategy in force, then
    the policy decides the strategy of level ``d + 1`` from ``|levels[d]|``
    and ``|levels[d + 1]|`` (Algorithm 4's inputs); a ``decision.step``
    event is recorded only when a next level exists.  Backward, levels
    ``len - 2 .. 1`` are charged under their forward strategy (the
    deepest level has no successors and the root contributes nothing).
    Pure cost: no value is computed or changed.
    """
    root = int(levels[0][0])
    deg = g.degrees
    trace = RootTrace(root=root)
    by_depth: list = []

    def charge(depth: int, stage: str, strategy: str) -> None:
        frontier = levels[depth]
        fdeg = deg[frontier]
        x = _Level(g, frontier, fdeg, int(fdeg.sum()), chunk, device_chunk)
        try:
            cost = _CHARGES[stage, strategy]
        except KeyError:
            raise StrategyError(f"unknown strategy {strategy!r}") from None
        if strategy == GPU_FAN and device_chunk is None:
            raise StrategyError("gpu-fan strategy requires device_chunk")
        record_level(trace, LevelTrace(
            depth=depth, stage=stage, strategy=strategy,
            frontier_size=int(frontier.size), edge_frontier=x.ef,
            cycles=cost(costs, x)), metrics)

    initial = policy.initial_decision()
    metrics.record("decision.initial", root=root,
                   applies_to_depth=0, strategy=initial.strategy,
                   policy=initial.policy, rule=initial.rule,
                   **initial.inputs)
    strategy = initial.strategy
    for depth in range(len(levels)):
        charge(depth, "forward", strategy)
        by_depth.append(strategy)
        q_next = levels[depth + 1].size if depth + 1 < len(levels) else 0
        if q_next > 0:
            # The decision taken after level `depth` governs level
            # `depth + 1`; an empty next frontier ends the sweep, so
            # there is no decision to take.
            decision = policy.decide(strategy, int(levels[depth].size),
                                     int(q_next))
            metrics.record("decision.step", root=root, depth=depth,
                           applies_to_depth=depth + 1,
                           previous=strategy, strategy=decision.strategy,
                           policy=decision.policy, rule=decision.rule,
                           **decision.inputs)
            strategy = decision.strategy
    for depth in range(len(levels) - 2, 0, -1):
        charge(depth, "backward", by_depth[depth])
    return trace


def run_root(
    g: CSRGraph,
    source: int,
    bc: np.ndarray,
    policy: Policy,
    costs: CostModel,
    chunk: int,
    device_chunk: int | None = None,
    metrics=None,
    observer=None,
    source_weight: float = 1.0,
    target_weights: np.ndarray | None = None,
) -> RootTrace:
    """Process one BC root under ``policy``, charging ``costs``:
    sweep, replay the cost, accumulate.

    Parameters
    ----------
    bc:
        Shared accumulator; this root's dependencies are added in place
        (the per-GPU partial score vector of Section V-D).
    chunk:
        Effective concurrent threads of one SM (thread block width the
        serialisation model chunks against).
    device_chunk:
        Device-wide concurrency, required for the ``gpu-fan`` strategy
        (all SMs cooperate on a single root).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; records
        per-level ``engine.*`` counters (frontier/edge counts, cycles,
        strategy chosen per level) and ``decision.*`` trace events (the
        policy's per-iteration strategy selections with their full α/β
        inputs, consumed by :mod:`repro.observability.trace`).  Defaults
        to the no-op registry, so uninstrumented runs pay nothing.
    observer:
        Optional hook with ``after_forward(fwd)`` and
        ``after_accumulation(fwd, delta)`` methods, called after the
        forward sweep and after dependency accumulation (before the
        dependencies are folded into ``bc``).  Used by the SDC
        verification layer to inject faults into, and run ABFT checks
        over, this root's intermediate state.
    source_weight / target_weights:
        Weighted-traversal parameters for degree-1 folded cores (see
        :mod:`repro.bc.preprocess`): each target vertex counts
        ``target_weights[t]`` times during accumulation, and the whole
        dependency vector is scaled by ``source_weight`` (the root's
        absorbed subtree weight) before it is folded into ``bc``.  The
        defaults reproduce the classic unweighted traversal exactly.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    fwd = forward_sweep(g, source)
    trace = charge_levels(g, fwd.levels, policy, costs, chunk, device_chunk,
                          metrics)
    if observer is not None:
        observer.after_forward(fwd)
    delta = dependency_accumulation(g, fwd, target_weights=target_weights)
    if source_weight != 1.0:
        delta *= source_weight
    if observer is not None:
        observer.after_accumulation(fwd, delta)
    bc += delta
    metrics.inc("engine.roots")
    metrics.observe("engine.root_cycles", trace.cycles)
    return trace
