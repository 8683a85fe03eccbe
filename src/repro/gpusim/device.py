"""Simulated GPU device: scheduling, memory checking, BC runs.

The device reproduces the execution structure of the paper's CUDA
implementations:

* **Coarse + fine parallelism** (Jia et al. layout, used by the
  vertex-/edge-parallel baselines and all of the paper's methods): one
  thread block per SM, each block processing BC roots one at a time and
  pulling the next root when it finishes — modelled as greedy list
  scheduling of per-root cycle costs onto ``num_sms`` SMs; the run's
  simulated time is the makespan.
* **Fine-grained only** (GPU-FAN): the whole device cooperates on one
  root at a time, so the simulated time is the *sum* of per-root costs
  (with device-wide concurrency per level and costlier global sync).

Before running, the device "allocates" every data structure the chosen
strategy needs; GPU-FAN's O(n^2) predecessor matrix therefore raises
:class:`~repro.errors.DeviceOutOfMemoryError` at the same scales the
paper reports it failing (Figure 5).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..bc.policies import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_MIN_FRONTIER,
    EDGE_PARALLEL,
    GPU_FAN,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
)
from ..bc.preprocess import FoldPlan, FoldResult, plan_fold
from ..bc.sampling import DEFAULT_GAMMA, DEFAULT_N_SAMPS, classification_record
from ..errors import GraphFormatError, SilentCorruptionError, StrategyError
from ..graph.csr import CSRGraph
from ..observability.registry import NULL_REGISTRY
from ..verify import RootChecker, VerificationPolicy
from .cost import DEFAULT_COSTS, CostModel
from .memory import DeviceMemoryModel, strategy_footprint
from .spec import GTX_TITAN, GPUSpec
from .trace import KERNELS, RootTrace, RunTrace

__all__ = ["Device", "DeviceRun", "STRATEGIES"]

#: Strategy names accepted by :meth:`Device.run_bc`.
STRATEGIES = (
    WORK_EFFICIENT,
    EDGE_PARALLEL,
    VERTEX_PARALLEL,
    "hybrid",
    "sampling",
    "batched",
    GPU_FAN,
)


@dataclass
class DeviceRun:
    """Result of one simulated BC run."""

    bc: np.ndarray
    trace: RunTrace
    cycles: float
    seconds: float
    strategy: str
    spec: GPUSpec
    num_vertices: int
    num_edges: int
    roots: np.ndarray
    memory_report: dict = field(default_factory=dict)
    sampling_chose_edge_parallel: bool | None = None
    #: Cycles that do NOT scale with the root count when extrapolating
    #: (the sampling method's fixed classification phase).
    fixed_cycles: float = 0.0
    #: How many of ``roots`` were consumed by that fixed phase.
    fixed_roots: int = 0
    #: Roots each steady-state trace entry covers: 1 everywhere except
    #: the ``batched`` strategy, whose trace entries are whole batches.
    roots_per_trace: int = 1
    #: Degree-1 fold applied to this run (None when folding was off or
    #: the fold was the identity) — carries the digest the service
    #: layer keys results under.
    fold: FoldResult | None = None

    @property
    def num_roots(self) -> int:
        return int(self.roots.size)

    def teps(self) -> float:
        """Traversed edges per second for the roots actually run:
        ``m * k / t`` (Eq. 4 restricted to k sources)."""
        if self.seconds <= 0:
            return float("inf")
        return self.num_edges * self.num_roots / self.seconds

    def mteps(self) -> float:
        """:meth:`teps` in millions."""
        return self.teps() / 1e6

    def extrapolated_seconds(self, total_roots: int | None = None) -> float:
        """Estimated time for a run over ``total_roots`` sources
        (default: all n).

        Steady-state roots scale by their measured per-root mean over
        the device's SMs — valid because per-root cost is near-uniform
        within one component (paper Sections IV-C, V-D) — while the
        sampling method's classification phase is charged once as a
        fixed cost, exactly as in a real full-n run.
        """
        total = self.num_vertices if total_roots is None else int(total_roots)
        steady = [rt.cycles for rt in self.trace.roots[self.fixed_roots:]]
        if not steady:
            # Everything ran in the fixed phase; fall back to makespan
            # scaling over the whole sample.
            if self.num_roots == 0:
                return 0.0
            return self.seconds * total / self.num_roots
        mean = float(np.mean(steady))
        remaining = max(0, total - self.fixed_roots)
        # GPU-FAN dedicates the whole device to each root, so roots do
        # not overlap across SMs, and a batched trace entry is a whole
        # device-cooperative batch; every other layout processes
        # num_sms roots concurrently.
        if self.strategy in ("gpu-fan", "batched"):
            concurrency = max(1, int(self.roots_per_trace))
        else:
            concurrency = self.spec.num_sms
        cycles = self.fixed_cycles + remaining * mean / concurrency
        return self.spec.seconds(cycles)

    def extrapolated_teps(self, total_roots: int | None = None) -> float:
        """TEPS (Eq. 4) of the extrapolated ``total_roots``-source run."""
        t = self.extrapolated_seconds(total_roots)
        total = self.num_vertices if total_roots is None else int(total_roots)
        if t <= 0:
            return float("inf")
        return self.num_edges * total / t

    def extrapolated_mteps(self, total_roots: int | None = None) -> float:
        """:meth:`extrapolated_teps` in millions (Table III units)."""
        return self.extrapolated_teps(total_roots) / 1e6


class _RunObserver:
    """Threads SDC injection and ABFT verification through one run.

    Implements the engine's observer protocol (``after_forward`` /
    ``after_accumulation``): immediately after the forward sweep it
    fires any planned ``sigma``/``dist`` bit-flips for the current root
    position, after accumulation any ``delta`` flips — corruption
    strikes the *intermediate* arrays, exactly where a resident-memory
    upset would — then runs the policy's per-root invariant suite.  An
    observed run sweeps every root afresh, bypassing the engine's sweep
    memo.  On the bare device path a violation raises
    :class:`~repro.errors.SilentCorruptionError`; there is no recovery
    story below the resilient driver, so a poisoned result must not be
    returned as healthy.
    """

    def __init__(self, device: "Device", plan: FoldPlan,
                 policy: VerificationPolicy, metrics):
        self.device = device
        #: The run's fold plan: traversed graph plus the weights the
        #: per-root checks must account for on folded cores.
        self.plan = plan
        self.policy = policy
        self.checker = RootChecker(policy, metrics) if policy.enabled else None
        self.metrics = metrics
        #: Sum of every accepted root's dependencies — the reference the
        #: final partial-BC checksum is validated against.
        self.expected_sum = 0.0
        self._pos = 0
        self._events: list = []

    def _apply(self, events, site: str, arr: np.ndarray) -> None:
        hits = [ev for ev in events if ev.site == site]
        if not hits:
            return
        from ..resilience.faults import apply_sdc

        for ev in hits:
            apply_sdc(ev, arr, seed=self.device._sdc_seed())
            self.metrics.inc("verify.faults_injected", site=site)

    def after_forward(self, fwd) -> None:
        self._events = list(self.device._sdc_events(self._pos))
        self._apply(self._events, "sigma", fwd.sigma)
        self._apply(self._events, "dist", fwd.distances)

    def after_accumulation(self, fwd, delta: np.ndarray) -> None:
        self._apply(self._events, "delta", delta)
        self._events = []
        self._pos += 1
        if self.checker is not None and self.policy.checks_root(fwd.source):
            t0 = time.perf_counter()
            violations = self.checker.check_root(
                self.plan.graph, fwd, delta,
                target_weights=self.plan.target_weights,
                source_weight=self.plan.source_weight(fwd.source))
            self.metrics.inc("verify.overhead_seconds",
                             time.perf_counter() - t0)
            if violations:
                self.metrics.inc("verify.corruption_detected", layer="device")
                raise SilentCorruptionError(violations, root=fwd.source)
        self.expected_sum += float(delta.sum())

    def finish(self, bc: np.ndarray) -> None:
        """Partial-BC injection + unit checksum, once per run (called
        before the undirected halving so the checksum reference and the
        vector are in the same units)."""
        self._apply(self.device._sdc_partial_events(), "partial", bc)
        if self.checker is not None:
            t0 = time.perf_counter()
            violations = self.checker.check_partial(bc, self.expected_sum)
            self.metrics.inc("verify.overhead_seconds",
                             time.perf_counter() - t0)
            if violations:
                self.metrics.inc("verify.corruption_detected", layer="device")
                raise SilentCorruptionError(violations)


def _list_schedule(costs_per_root, num_workers: int):
    """Greedy in-order list scheduling; returns (makespan, per-worker)."""
    workers = [0.0] * max(1, int(num_workers))
    heap = [(0.0, i) for i in range(len(workers))]
    heapq.heapify(heap)
    for c in costs_per_root:
        load, i = heapq.heappop(heap)
        load += float(c)
        workers[i] = load
        heapq.heappush(heap, (load, i))
    return max(workers), np.asarray(workers)


class _Schedule(NamedTuple):
    """One run's schedule, as :meth:`Device._run` returns it."""

    #: Per-root traces plus the makespan and per-SM loads.
    trace: RunTrace
    #: Makespan of the sampling/batched classification phase.
    fixed_cycles: float
    #: Roots that phase consumed.
    fixed_roots: int
    #: Its outcome (edge-parallel / batched chosen); None without one.
    chose: bool | None


class Device:
    """A simulated GPU executing betweenness-centrality runs."""

    #: Multiplier on the run's simulated cycles; ``1.0`` on a healthy
    #: device.  :class:`repro.resilience.FaultyDevice` sets it per rank
    #: to model stragglers.
    straggler_factor: float = 1.0

    def __init__(self, spec: GPUSpec = GTX_TITAN, costs: CostModel = DEFAULT_COSTS):
        self.spec = spec
        self.costs = costs

    def _inject_faults(self, g: CSRGraph, roots: np.ndarray) -> None:
        """Fault-injection hook called at the top of :meth:`run_bc`.

        No-op on a healthy device; :class:`repro.resilience.FaultyDevice`
        overrides it to raise planned :class:`~repro.errors.RankFailure`
        or :class:`~repro.errors.DeviceOutOfMemoryError` faults."""

    # -- silent-corruption hooks (overridden by FaultyDevice) ----------
    def _sdc_pending(self) -> bool:
        """Whether any planned ``sdc`` events target this device."""
        return False

    def _sdc_events(self, root_pos: int) -> list:
        """Planned per-root bit-flips for the ``root_pos``-th root of
        this run (consumed on return)."""
        return []

    def _sdc_partial_events(self) -> list:
        """Planned bit-flips against this device's partial BC vector."""
        return []

    def _sdc_seed(self) -> int:
        """Seed the SDC victim-selection RNG derives from."""
        return 0

    # ------------------------------------------------------------------
    def run_bc(
        self,
        g: CSRGraph,
        strategy: str = "sampling",
        roots=None,
        *,
        alpha: int = DEFAULT_ALPHA,
        beta: int = DEFAULT_BETA,
        n_samps: int = DEFAULT_N_SAMPS,
        gamma: float = DEFAULT_GAMMA,
        min_frontier: int = DEFAULT_MIN_FRONTIER,
        batch_size: int = 64,
        strict_reader: bool = False,
        check_memory: bool = True,
        metrics=None,
        verify="off",
        fold: bool = True,
    ) -> DeviceRun:
        """Run BC on the device under ``strategy``.

        Parameters
        ----------
        roots:
            Sources to process (all vertices by default).  Experiments
            on large graphs pass a sample and extrapolate via
            :meth:`DeviceRun.extrapolated_seconds`.
        alpha, beta:
            Hybrid thresholds (Algorithm 4); defaults 768 / 512.
        n_samps, gamma, min_frontier:
            Sampling parameters (Algorithm 5); defaults 512 / 4 / 512.
        batch_size:
            Roots per frontier-matrix step of the ``batched`` strategy
            (Sarıyüce-style multi-source traversal; reference [33]).
            The strategy classifies depth with its first ``n_samps``
            roots exactly like Algorithm 5 and routes the remainder
            through whole-device batch traversals only when the sampled
            median depth is below the ``gamma`` cutoff (small-diameter
            graphs — dense frontiers, BLAS-shaped work); deep graphs
            fall back to per-root work-efficient traversal.
            ``n_samps < 0``, ``batch_size < 1`` and ``min_frontier < 0``
            raise :class:`~repro.errors.StrategyError` before any
            traversal, whatever the strategy.
        fold:
            ``True`` (default) applies the degree-1 folding preprocess
            before traversal (exact — see :mod:`repro.bc.preprocess`;
            computed once per graph and memoised); ``False`` traverses
            the original graph.  Identity folds (directed or
            pendant-free graphs) take the legacy path unchanged.  When
            a non-trivial fold is active every strategy traverses the
            residual core (weighted traversals; per-root host
            traversals for explicit ``roots``), trace entries are in
            core vertex ids, and
            :meth:`DeviceRun.extrapolated_seconds` extrapolates in
            core-traversal units.
        strict_reader:
            Model the Jia et al. reference reader, which rejects graphs
            containing isolated vertices (Section V-B) — only honoured
            for the vertex-/edge-parallel baselines.
        check_memory:
            Allocate all device structures first and raise
            :class:`DeviceOutOfMemoryError` if they exceed capacity.
        metrics:
            Optional :class:`~repro.observability.MetricsRegistry`.
            Records ``device.*`` series (roots, cycles, makespan, bytes
            allocated) plus every root's levels in the ``engine.*``
            series, inside a ``device.run_bc`` span, and the run's
            decision-trace events (``run.params``, per-level
            ``decision.*``, the sampling classification).  Export the
            finished trace with :func:`repro.observability.run_profile`
            (kernel profile) or
            :func:`repro.observability.trace_document` (decision audit)
            — one run, two exporters.
        verify:
            A :class:`~repro.verify.VerificationPolicy`, a mode string
            (``"off"``/``"sampled"``/``"paranoid"``), or ``None``.
            When enabled, each root's forward/accumulation state passes
            the ABFT invariant suite and the final partial BC vector is
            checksummed; a violation raises
            :class:`~repro.errors.SilentCorruptionError`.
        """
        if metrics is None:
            metrics = NULL_REGISTRY
        if strategy not in STRATEGIES:
            raise StrategyError(
                f"unknown strategy {strategy!r}; known: {STRATEGIES}"
            )
        for name, value, low in (("n_samps", n_samps, 0),
                                 ("batch_size", batch_size, 1),
                                 ("min_frontier", min_frontier, 0)):
            if value < low:
                raise StrategyError(f"{name} must be >= {low}, got {value}")
        n = g.num_vertices
        full_run = roots is None
        if roots is None:
            roots = np.arange(n, dtype=np.int64)
        else:
            roots = np.asarray(roots, dtype=np.int64).ravel()
            if roots.size and (roots.min() < 0 or roots.max() >= n):
                raise IndexError("roots out of range")

        self._inject_faults(g, roots)

        if strict_reader and strategy in (EDGE_PARALLEL, VERTEX_PARALLEL):
            isolated = g.isolated_vertices()
            if isolated.size:
                raise GraphFormatError(
                    f"reference reader cannot load graphs with isolated "
                    f"vertices ({isolated.size} present)"
                )

        # -- degree-1 folding: pick the graph the kernels traverse -----
        plan = plan_fold(g, None if full_run else roots, fold)
        run_g, fold_result = plan.graph, plan.fold

        memory_report: dict = {}
        if check_memory:
            mem = DeviceMemoryModel(capacity=self.spec.memory_bytes)
            # Hybrid and sampling run the work-efficient structures.
            footprint = strategy_footprint(
                run_g, (WORK_EFFICIENT if strategy in ("hybrid", "sampling")
                        else strategy),
                num_blocks=self.spec.num_sms, batch_size=batch_size,
            )
            for what, nbytes in footprint.items():
                mem.alloc(nbytes, what)
            memory_report = mem.report()

        bc = np.zeros(run_g.num_vertices, dtype=np.float64)

        verify_policy = VerificationPolicy.coerce(verify)
        observer = None
        if verify_policy.enabled or self._sdc_pending():
            observer = _RunObserver(self, plan, verify_policy, metrics)

        params = {"strategy": strategy, "device": self.spec.name,
                  "num_vertices": int(n), "num_edges": int(g.num_edges),
                  "num_roots": int(roots.size)}
        if strategy == "hybrid":
            params.update(alpha=int(alpha), beta=int(beta))
        elif strategy == "sampling":
            params.update(n_samps=int(n_samps), gamma=float(gamma),
                          min_frontier=int(min_frontier))
        elif strategy == "batched":
            params.update(n_samps=int(n_samps), gamma=float(gamma),
                          batch_size=int(batch_size))
        if fold_result is not None:
            params.update(folded=True,
                          core_vertices=int(run_g.num_vertices),
                          folded_vertices=int(fold_result.num_folded),
                          fold_rounds=int(fold_result.rounds),
                          fold_digest=fold_result.digest(),
                          core_traversals=int(plan.roots.size))
        metrics.record("run.params", **params)

        if strategy == "hybrid":
            policy = HybridPolicy(alpha, beta)
        elif strategy == "sampling":
            policy = FrontierGuardPolicy(min_frontier)
        else:
            policy = FixedPolicy(WORK_EFFICIENT if strategy == "batched"
                                 else strategy)
        with metrics.span("device.run_bc", strategy=strategy,
                          device=self.spec.name):
            run = self._run(plan, bc, strategy, policy, n_samps=int(n_samps),
                            gamma=gamma, batch_size=int(batch_size),
                            metrics=metrics, observer=observer)
            if observer is not None:
                observer.finish(bc)

        trace, fixed_cycles = run.trace, run.fixed_cycles
        makespan = trace.makespan_cycles
        bc = plan.finish(bc)
        slow = float(self.straggler_factor)
        if slow != 1.0:
            makespan *= slow
            fixed_cycles *= slow
            trace.makespan_cycles = makespan
        if g.undirected:
            bc /= 2.0
        metrics.inc("device.runs", strategy=strategy)
        metrics.inc("device.roots", roots.size, strategy=strategy)
        metrics.inc("device.cycles", makespan, strategy=strategy)
        metrics.inc("device.bytes_allocated",
                    sum(memory_report.values()), strategy=strategy)
        metrics.set_gauge("device.makespan_cycles", makespan, strategy=strategy)
        metrics.set_gauge("device.sim_seconds", self.spec.seconds(makespan),
                          strategy=strategy)
        for rt in trace.roots:
            metrics.observe("device.root_cycles", rt.cycles, strategy=strategy)
        return DeviceRun(
            bc=bc,
            trace=trace,
            cycles=makespan,
            seconds=self.spec.seconds(makespan),
            strategy=strategy,
            spec=self.spec,
            num_vertices=n,
            num_edges=g.num_edges,
            roots=roots,
            memory_report=memory_report,
            sampling_chose_edge_parallel=run.chose,
            fixed_cycles=fixed_cycles,
            fixed_roots=run.fixed_roots,
            roots_per_trace=int(batch_size) if strategy == "batched" else 1,
            fold=fold_result,
        )

    # ------------------------------------------------------------------
    def _run(self, plan: FoldPlan, bc: np.ndarray, strategy: str, policy,
             *, n_samps: int, gamma: float, batch_size: int, metrics,
             observer) -> "_Schedule":
        """The one runner: every strategy's roots, scheduled.

        1. ``sampling``/``batched`` first classify the graph: the first
           ``n_samps`` roots run work-efficient, list-scheduled on the
           SMs as the run's fixed phase, and their median depth decides
           (Algorithm 5).  ``policy`` — the sampling strategy's frontier
           guard — then runs the remaining roots only if the median
           picked edge-parallel; otherwise they stay work-efficient.
        2. ``batched`` on a small-diameter graph routes the remaining
           roots through whole-device frontier-matrix traversals,
           ``batch_size`` roots per step, summed; a batch whose path
           counts overflow is retried per root (list-scheduled
           alongside).  Runs carrying an SDC/verification observer,
           whose ABFT suite is per-root by construction, stay per-root.
        3. Otherwise each root runs through :func:`~repro.bc.engine.run_root`,
           list-scheduled on ``num_sms`` SMs (Jia et al.'s coarse layout)
           or summed for GPU-FAN (whole device per root).
        """
        # Deferred: the engine imports the cost model's types, so a
        # module-level import here would close an import cycle.
        from ..bc.engine import run_root

        g, roots, num_sms = plan.graph, plan.roots, self.spec.num_sms
        chunk = self.spec.concurrent_threads_per_sm
        device_chunk = self.spec.total_threads
        trace = RunTrace()

        def per_root(s, policy) -> float:
            rt = run_root(g, int(s), bc, policy, self.costs, chunk,
                          device_chunk=device_chunk, metrics=metrics,
                          observer=observer,
                          source_weight=plan.source_weight(s),
                          target_weights=plan.target_weights)
            trace.roots.append(rt)
            return rt.cycles

        fixed_cycles, k, chose = 0.0, 0, None
        if strategy in ("sampling", "batched"):
            k = min(n_samps, roots.size)
            we = FixedPolicy(WORK_EFFICIENT)
            fixed_cycles, _ = _list_schedule(
                [per_root(s, we) for s in roots[:k]], num_sms)
            classification = classification_record(
                [rt.max_depth for rt in trace.roots], g.num_vertices,
                gamma=gamma)
            chose = classification["chose_edge_parallel"]
            if strategy == "sampling":
                metrics.inc("device.sampling_classifications",
                            chose=EDGE_PARALLEL if chose else WORK_EFFICIENT)
                metrics.record("decision.sampling",
                               min_frontier=policy.min_frontier,
                               **classification)
                if not chose:
                    policy = we
            else:
                chose = chose and observer is None
                metrics.inc("device.batched_classifications",
                            chose="batched" if chose else WORK_EFFICIENT)
                metrics.record("decision.batched", batch_size=batch_size,
                               verified_per_root=observer is not None,
                               **classification)
        rest = roots[k:]

        if strategy == "batched" and chose and rest.size:
            from ..bc.batched import _adjacency, batched_dependencies
            from ..bc.engine import record_trace

            A = _adjacency(g)
            serial_cycles, retry_cycles = 0.0, []
            for lo in range(0, rest.size, batch_size):
                batch = rest[lo:lo + batch_size]
                rep = int(batch[0])
                levels = []  # (frontier pairs, edge pairs) per depth
                try:
                    delta = batched_dependencies(
                        g, batch, A=A, target_weights=plan.target_weights,
                        on_level=lambda _, *pairs: levels.append(pairs))
                except FloatingPointError:
                    # Deep traversal overflowed the dense path counts;
                    # the per-root engine rescales sigma per level.
                    metrics.inc("batched.overflow_retries")
                    retry_cycles += [per_root(s, policy) for s in batch]
                    continue
                # Backward levels mirror the forward ones (each level
                # scans its own rows' edges, transposed product).
                pairs, epairs = np.array(levels).T
                cycles = self.costs.batched_cycles(epairs, device_chunk)
                rt = RootTrace.sweep(rep, np.full(pairs.size, KERNELS.index(
                    "batched")), pairs, epairs, cycles, cycles)
                record_trace(rt, metrics)
                # Decision audit: one record per executed forward level
                # (the batch's representative root carries the trace).
                metrics.record("decision.initial", root=rep,
                               applies_to_depth=0, strategy="batched",
                               policy="batched",
                               rule=f"sampled median depth "
                                    f"{classification['median_depth']} <= "
                                    f"cutoff — {int(batch.size)} roots per "
                                    f"frontier-matrix step",
                               batch_roots=int(batch.size),
                               median_depth=classification["median_depth"],
                               depth_cutoff=classification["depth_cutoff"])
                for depth in range(1, pairs.size):
                    metrics.record("decision.step", root=rep,
                                   depth=depth - 1, applies_to_depth=depth,
                                   previous="batched",
                                   strategy="batched", policy="batched",
                                   rule="batch advances one "
                                        "frontier-matrix step",
                                   batch_roots=int(batch.size))
                trace.roots.append(rt)
                serial_cycles += rt.cycles
                metrics.inc("engine.roots", batch.size)
                bc += plan.weighted_sum(batch, delta)
            # Batches own the whole device sequentially; any overflow
            # retries run per-SM alongside.
            makespan = serial_cycles + _list_schedule(retry_cycles,
                                                      num_sms)[0]
            per_sm = np.full(num_sms, makespan)
        else:
            cycles = [per_root(s, policy) for s in rest]
            if strategy == GPU_FAN:
                makespan = float(sum(cycles))
                per_sm = np.full(num_sms, makespan)
            else:
                makespan, per_sm = _list_schedule(cycles, num_sms)
        trace.makespan_cycles = fixed_cycles + makespan
        trace.sm_cycles = per_sm
        return _Schedule(trace, fixed_cycles, k, chose)
