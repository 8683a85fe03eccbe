"""Per-root execution engine: one value path plus a pure cost replay.

Every strategy computes identical values — the strategies differ only
in the thread-to-work assignment being costed — so one call to
:func:`run_root` splits a root into three steps:

1. **Sweep** — :func:`~repro.bc.frontier.forward_sweep`, the exact
   level-synchronous BFS with path counting, strategy-free.
2. **Accumulate** — :func:`~repro.bc.accumulation.dependency_accumulation`,
   the same Stage 2 :func:`~repro.bc.betweenness_centrality` runs.
3. **Replay** — :func:`charge_levels` asks the policy for every
   depth's strategy (recording its ``decision.*`` events), reads each
   level's cycles from whole-sweep tables priced in one vectorised
   call per (stage, strategy) — forward, then backward under the same
   per-depth strategy — and returns a columnar
   :class:`~repro.gpusim.trace.RootTrace`.  It never touches values.

Traverse once, charge many: steps 1 and 2 depend only on the graph, the
root and the target weights, so their outcome is kept as a
:class:`Sweep` in a per-graph memo (:data:`SWEEP_MEMO_BYTES`, least
recently used first).  Every later strategy, and every later run on the
same graph, only replays cost over it.  A run with an observer (SDC
injections planned or verification on) bypasses the memo: it sweeps
every root afresh, so bit-flips never reach a shared entry and every
check runs against a real traversal.

Correctness is therefore verified once against the serial reference
and literal kernel re-implementations, while performance comparisons
come from the charged cycles.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..graph.csr import CSRGraph
from ..gpusim.cost import CostModel, Levels
from ..gpusim.trace import KERNELS, STAGES, RootTrace
from ..observability.registry import NULL_REGISTRY
from .accumulation import dependency_accumulation
from .frontier import ForwardResult, forward_sweep
from .policies import FixedPolicy, Policy

__all__ = ["run_root", "charge_levels", "record_trace", "Sweep",
           "sweep_memo", "SWEEP_MEMO_BYTES"]

#: Byte budget of one graph's sweep memo: every array its entries hold,
#: cycle tables included.  Sized from the paper grid's working set, 8
#: roots per graph and pass: kron at 1/64 takes about 180 KB per root
#: (1.45 MB), luxembourg.osm at 1/64 about 26 KB.
SWEEP_MEMO_BYTES = 2 << 20


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class Sweep:
    """One root's exact traversal, as values and cost replay need it.

    ``s`` and ``ends`` are the paper's ``S`` and ``ends`` arrays (the
    visit order and each depth's offsets into it), ``ef`` each depth's
    edge frontier, ``delta`` the root's dependencies under ``weights``
    (``None`` until :meth:`keep`).  Cycles are priced for every depth at
    once on first use, one float table per pricing context.  Every
    array is read-only: a memoised sweep is shared by every later run.
    """

    __slots__ = ("s", "ends", "ef", "delta", "weights", "_tables")

    def __init__(self, g: CSRGraph, fwd: ForwardResult, weights=None):
        index = np.int32 if g.num_vertices < 2**31 else np.int64
        self.s = _frozen(fwd.s_array().astype(index, copy=False))
        self.ends = _frozen(fwd.ends())
        indptr = g.indptr
        self.ef = _frozen(np.add.reduceat(indptr[self.s + 1]
                                          - indptr[self.s], self.ends[:-1]))
        self.weights = weights
        self.delta = None
        self._tables: dict = {}

    def keep(self, delta: np.ndarray) -> None:
        """Attach the root's dependencies (frozen) before the sweep is
        memoised."""
        self.delta = _frozen(delta)

    @property
    def nbytes(self) -> int:
        arrays = [self.s, self.ends, self.ef, *self._tables.values()]
        if self.delta is not None:
            arrays.append(self.delta)
        return sum(a.nbytes for a in arrays)

    def cycles(self, g: CSRGraph, costs: CostModel, stage: str,
               strategy: str, chunk: int,
               device_chunk: int | None) -> np.ndarray:
        """Per-depth cycles of ``stage`` under ``strategy``: the whole
        table priced in one call on first use, then read back."""
        context = (stage, strategy, costs, chunk, device_chunk)
        table = self._tables.get(context)
        if table is None:
            indptr = g.indptr
            levels = Levels(self.ends, self.s,
                            indptr[self.s + 1] - indptr[self.s], self.ef,
                            g.num_vertices, g.num_directed_edges)
            table = self._tables[context] = _frozen(costs.level_cycles(
                stage, strategy, levels, chunk, device_chunk))
        return table


class _SweepMemo:
    """One graph's sweeps by (root, target weights), least recently
    used first, within :data:`SWEEP_MEMO_BYTES`."""

    def __init__(self):
        #: ``(root, id(weights)) -> (sweep, bytes accounted)``; a sweep
        #: holds its weights, so the id stays unique while it lives.
        self.entries: OrderedDict = OrderedDict()
        self.nbytes = 0

    def __reduce__(self):
        # A process-local cache: pickles and deep copies of a graph
        # start with an empty memo.
        return (_SweepMemo, ())

    def get(self, root: int, weights) -> Sweep | None:
        hit = self.entries.get((root, id(weights)))
        return None if hit is None else hit[0]

    def put(self, root: int, sweep: Sweep) -> None:
        """Insert or refresh ``sweep`` as most recent, re-account its
        bytes (its cycle tables grow as it is charged) and evict the
        least recent entries beyond the budget."""
        key = (root, id(sweep.weights))
        old = self.entries.pop(key, None)
        if old is not None:
            self.nbytes -= old[1]
        size = sweep.nbytes
        self.entries[key] = (sweep, size)
        self.nbytes += size
        while self.nbytes > SWEEP_MEMO_BYTES:
            _, (_, size) = self.entries.popitem(last=False)
            self.nbytes -= size


def sweep_memo(g: CSRGraph) -> _SweepMemo:
    """``g``'s sweep memo, created on first use and kept on the frozen
    graph like its digest and fold."""
    memo = g.__dict__.get("_sweeps")
    if memo is None:
        memo = _SweepMemo()
        object.__setattr__(g, "_sweeps", memo)
    return memo


def record_trace(trace: RootTrace, metrics) -> None:
    """Count ``trace``'s levels in the ``engine.*`` series, one call
    per (stage, strategy) present — the one recorder for engine roots
    and the device's batched frontier-matrix batches alike."""
    if not metrics.enabled:
        return
    stages, k = trace.stages, len(KERNELS)
    group = stages * k + trace.kernels
    levels = np.bincount(group, minlength=2 * k)
    cycles = np.bincount(group, weights=trace.level_cycles, minlength=2 * k)
    for key in np.flatnonzero(levels).tolist():
        labels = {"stage": STAGES[key // k], "strategy": KERNELS[key % k]}
        metrics.inc("engine.levels", levels[key], **labels)
        metrics.inc("engine.cycles", cycles[key], **labels)
    for code in np.unique(stages).tolist():
        at = stages == code
        metrics.inc("engine.frontier_vertices", trace.frontiers[at].sum(),
                    stage=STAGES[code])
        metrics.inc("engine.frontier_edges", trace.edge_frontiers[at].sum(),
                    stage=STAGES[code])
    metrics.observe_many("engine.frontier_size",
                         trace.frontiers[stages == 0], stage="forward")


def _decide(policy: Policy, sizes: list, root: int, metrics) -> list:
    """The policy's strategy for every depth, recording the pinned
    ``decision.*`` events.  Level ``d``'s successor is decided from the
    sizes of levels ``d`` and ``d + 1`` (Algorithm 4's inputs); a
    ``decision.step`` is taken only when a next level exists."""
    initial = policy.initial_decision()
    if metrics.keeps_events:
        metrics.record("decision.initial", root=root,
                       applies_to_depth=0, strategy=initial.strategy,
                       policy=initial.policy, rule=initial.rule,
                       **initial.inputs)
    strategy = initial.strategy
    by_depth = [strategy]
    for depth in range(len(sizes) - 1):
        decision = policy.decide(strategy, sizes[depth], sizes[depth + 1])
        if metrics.keeps_events:
            metrics.record("decision.step", root=root, depth=depth,
                           applies_to_depth=depth + 1, previous=strategy,
                           strategy=decision.strategy,
                           policy=decision.policy, rule=decision.rule,
                           **decision.inputs)
        strategy = decision.strategy
        by_depth.append(strategy)
    return by_depth


def charge_levels(
    g: CSRGraph,
    sweep: Sweep,
    policy: Policy,
    costs: CostModel,
    chunk: int,
    device_chunk: int | None = None,
    metrics=NULL_REGISTRY,
) -> RootTrace:
    """Replay one exact traversal (``sweep``, of ``g``) under ``policy``.

    The policy picks every depth's strategy first (a fixed policy
    recording no events skips that loop); each forward level is then
    charged under its strategy, and backward levels ``len - 2 .. 1``
    under their forward strategy (the deepest level has no successors
    and the root contributes nothing).  Each (stage, strategy) table is
    priced for the whole sweep in one call per pricing context and read
    from ``sweep`` on every later replay.  Pure cost: no value is
    computed or changed.
    """
    sizes = np.diff(sweep.ends)
    root = int(sweep.s[0])
    if isinstance(policy, FixedPolicy) and not metrics.keeps_events:
        by_depth = [policy.strategy]
    else:
        by_depth = _decide(policy, sizes.tolist(), root, metrics)
    used = list(dict.fromkeys(by_depth))
    pick = (np.zeros(sizes.size, np.intp) if len(used) == 1
            else np.array([used.index(s) for s in by_depth]))
    forward, backward = (np.choose(pick, [
        sweep.cycles(g, costs, stage, s, chunk, device_chunk) for s in used])
        for stage in STAGES)
    kernels = np.array([KERNELS.index(s) for s in used], np.int8)[pick]
    trace = RootTrace.sweep(root, kernels, sizes, sweep.ef, forward,
                            backward)
    record_trace(trace, metrics)
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
    sweep and accumulate (or reuse the memoised :class:`Sweep`), then
    replay the cost.

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
        Optional :class:`~repro.observability.MetricsRegistry`; adds the
        root's levels to the ``engine.*`` series (frontier/edge counts,
        cycles, levels per strategy), once per root, and records
        ``decision.*`` trace events (the policy's per-iteration strategy
        selections with their full α/β inputs, consumed by
        :mod:`repro.observability.trace`).  Defaults to the no-op
        registry, so uninstrumented runs pay nothing.
    observer:
        Optional hook with ``after_forward(fwd)`` and
        ``after_accumulation(fwd, delta)`` methods, called after the
        forward sweep and after dependency accumulation (before the
        dependencies are folded into ``bc``).  Used by the SDC
        verification layer to inject faults into, and run ABFT checks
        over, this root's intermediate state.  An observed root is
        swept afresh and neither reads nor writes ``g``'s sweep memo.
    source_weight / target_weights:
        Weighted-traversal parameters for degree-1 folded cores (see
        :mod:`repro.bc.preprocess`): each target vertex counts
        ``target_weights[t]`` times during accumulation, and the whole
        dependency vector is scaled by ``source_weight`` (the root's
        absorbed subtree weight) before it is folded into ``bc``.  The
        defaults reproduce the classic unweighted traversal exactly.
        The memo keys a sweep by ``(source, target_weights)`` object
        identity, so folded and unfolded traversals of one core never
        share an entry.
    """
    if metrics is None:
        metrics = NULL_REGISTRY
    source = int(source)
    memo = sweep_memo(g) if observer is None else None
    sweep = None if memo is None else memo.get(source, target_weights)
    fwd = None
    if sweep is None:
        fwd = forward_sweep(g, source)
        sweep = Sweep(g, fwd, target_weights)
    trace = charge_levels(g, sweep, policy, costs, chunk, device_chunk,
                          metrics)
    if fwd is None:
        delta = sweep.delta
    else:
        if observer is not None:
            observer.after_forward(fwd)
        delta = dependency_accumulation(g, fwd,
                                        target_weights=target_weights)
    if memo is not None:
        if fwd is not None:
            sweep.keep(delta)
        memo.put(source, sweep)
    if source_weight != 1.0:
        delta = source_weight * delta  # a memoised delta stays unscaled
    if observer is not None:
        observer.after_accumulation(fwd, delta)
    bc += delta
    if metrics.enabled:
        metrics.inc("engine.roots")
        metrics.observe("engine.root_cycles", trace.cycles)
    return trace
