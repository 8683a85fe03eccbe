"""The three workloads: what each generates from its seed, how one timed
operation runs, and how its outputs are checked.

Every workload drives public entry points only — the service path
through ``BCClient(InProcessTransport(BCService(...)))`` and the
library path through ``Device(GTX_TITAN).run_bc`` — and checks every
output, untimed, against ``repro.betweenness_centrality(g,
sources=roots, fold=False)``.  Load comes from one process with one
client and no worker threads: a closed loop, each operation submitted
only after the previous one finished.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import time

import numpy as np

import repro
from repro.client import BCClient, InProcessTransport, derive_job_id
from repro.errors import ReproError
from repro.gpusim import GTX_TITAN, Device
from repro.graph import generators
from repro.harness.runner import ExperimentConfig, pick_roots
from repro.observability import MetricsRegistry
from repro.service import DONE, BCService, JobSpec
from stats import min_samples_for

#: A service result or BC vector matches when it is within this much of
#: the reference, relative to the reference's largest score (measured
#: agreement is about 1e-12).
TOLERANCE = 1e-9

#: Strategies the service workloads cycle through.
SERVICE_STRATEGIES = ("sampling", "work-efficient", "hybrid",
                      "edge-parallel")


@dataclasses.dataclass
class Op:
    """One timed operation's outcome."""

    latency: float
    ok: bool
    roots: int = 0
    #: Edges traversed (edges x roots) and simulated seconds, for the
    #: simulated MTEPS.
    edges: float = 0.0
    sim_seconds: float = 0.0
    #: ``(reference key, values)`` for the correctness gate.
    output: tuple | None = None
    error: str | None = None
    #: The host speed gauge sample taken before the op, and the factor
    #: that scales ``latency`` to the reference host speed (speed.py).
    gauge_index: int = 0
    factor: float = 1.0

    @property
    def scaled(self) -> float:
        return self.latency * self.factor


def _seed_base(seed: int, stream: int) -> int:
    """A per-workload base for job seeds, drawn from the workload seed."""
    rng = np.random.default_rng([int(seed), stream])
    return int(rng.integers(1 << 20, 1 << 30))


def job_roots(num_vertices: int, seed: int, roots: int) -> np.ndarray:
    """The root set :class:`JobSpec` documents: ``roots`` vertices drawn
    without replacement from ``seed``, sorted.  Derived here, not read
    back from the service, so the gate also catches a service that ran
    the wrong roots."""
    rng = np.random.default_rng(int(seed))
    k = min(int(roots), num_vertices)
    return np.sort(rng.choice(num_vertices, size=k, replace=False))


def max_error(values, reference) -> float:
    """Largest deviation from ``reference``, relative to its scale."""
    scale = max(1.0, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(np.asarray(values) - reference))) / scale


def mismatched(ops, reference) -> list:
    """Indices of ops whose output is off ``reference(key)``."""
    return [i for i, op in enumerate(ops) if op.output is not None
            and max_error(op.output[1], reference(op.output[0])) > TOLERANCE]


def counter_total(metrics, name: str) -> float:
    """Sum of a registry counter over all its label sets."""
    return sum(c.value for c in metrics.counters() if c.name == name)


class ServiceWorkload:
    """Closed loop, one client: submit a job, let the service run its
    queue, wait for the job and read its result."""

    name = ""
    why = ""
    graph = ""
    scale_factor = 0
    roots = 0
    #: Operations per second of ``--seconds`` on the reference host:
    #: every run of a given length does the same work, so later
    #: operations, which can cost more as service state grows, weigh
    #: the same in every run.
    ops_per_s = 1.0
    service_kwargs: dict = {}

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.base = _seed_base(seed, 1)
        self.service = None
        self.client = None
        self.graph_obj = None
        self._opened = 0
        self._references: dict = {}

    def op_count(self, seconds: float) -> int:
        """Jobs in a run of ``seconds``; at least enough for a p90."""
        return max(min_samples_for(90), math.ceil(seconds * self.ops_per_s))

    def params(self) -> dict:
        return {"graph": self.graph, "scale_factor": self.scale_factor,
                "roots_per_job": self.roots, "loop": "closed, 1 client",
                "strategies": list(SERVICE_STRATEGIES),
                "jobs_per_run_second": self.ops_per_s, **self.service_kwargs}

    # -- phases -----------------------------------------------------------
    def setup(self) -> None:
        """Build the graph and open a service on a fresh directory."""
        self.graph_obj = generators.make_dataset(
            self.graph, scale_factor=self.scale_factor, seed=0)
        root = os.path.join(self.workdir, f"service-{self._opened}")
        self._opened += 1
        self.service = BCService(root, **self.service_kwargs)
        self.client = BCClient(InProcessTransport(self.service))

    def job_spec(self, seed: int, strategy: str,
                 tenant: str = "default") -> JobSpec:
        return JobSpec(graph=self.graph, scale_factor=self.scale_factor,
                       roots=self.roots, seed=seed, strategy=strategy,
                       tenant=tenant)

    def warmup(self) -> None:
        """One job per strategy on seeds no timed job uses; this also
        loads the graph into the service."""
        for k, strategy in enumerate(SERVICE_STRATEGIES):
            self._run_job(self.job_spec(self.base - 1 - k, strategy))

    def next_spec(self, i: int) -> JobSpec:
        raise NotImplementedError

    def op(self, i: int, tracer=None) -> Op:
        spec = self.next_spec(i)
        if tracer is not None:
            tracer.job = derive_job_id(spec)
        return self._run_job(spec)

    def _run_job(self, spec: JobSpec) -> Op:
        t0 = time.perf_counter()
        try:
            job_id = self.client.submit(spec)
            self.service.run_pending()
            status = self.client.wait(job_id)
            hit = (self.client.result(job_id) if status["state"] == DONE
                   else None)
        except (ReproError, TimeoutError) as exc:
            return Op(latency=time.perf_counter() - t0, ok=False,
                      error=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if hit is None:
            return Op(latency=latency, ok=False,
                      error=f"job ended {status['state']}: "
                            f"{status.get('error')}")
        values, meta = hit
        k = min(int(spec.roots), self.graph_obj.num_vertices)
        return Op(latency=latency, ok=bool(meta.get("exact")), roots=k,
                  edges=float(self.graph_obj.num_edges) * k,
                  sim_seconds=float(meta.get("sim_seconds", 0.0)),
                  output=((int(spec.seed), int(spec.roots)), values),
                  error=None if meta.get("exact") else "inexact result")

    # -- gate -------------------------------------------------------------
    def reference(self, key) -> np.ndarray:
        ref = self._references.get(key)
        if ref is None:
            roots = job_roots(self.graph_obj.num_vertices, *key)
            ref = repro.betweenness_centrality(self.graph_obj, sources=roots,
                                               fold=False)
            self._references[key] = ref
        return ref

    def check(self, ops) -> list:
        return mismatched(ops, self.reference)

    def decision_failures(self) -> list:
        return []

    # -- per-layer counts the service keeps itself -------------------------
    def counters(self) -> dict:
        m = self.service.metrics
        return {"service.cache.evictions": counter_total(
                    m, "service.cache.evicted"),
                "service.results_healed": counter_total(
                    m, "service.results_healed"),
                "service.deduped": counter_total(m, "service.deduped"),
                "client.retries": float(self.client.report["retries"])}

    def end_state(self) -> dict:
        usage = self.service.disk_usage()
        return {"telemetry.events_bytes": float(usage["events"]),
                "service.disk_bytes": float(sum(usage.values()))}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            shutil.rmtree(self.service.root, ignore_errors=True)
            self.service = None


class ServiceKron(ServiceWorkload):
    name = "service-kron"
    why = ("fold-bound service path: cold-cache jobs on a Kronecker graph, "
           "where degree-1 folding dominates job wall time")
    graph = "kron_g500-logn20"
    scale_factor = 256
    roots = 8
    ops_per_s = 8.0

    def next_spec(self, i: int) -> JobSpec:
        # Every job a distinct seed: the result cache never hits.
        return self.job_spec(self.base + i,
                             SERVICE_STRATEGIES[i % len(SERVICE_STRATEGIES)])


class ServiceChurn(ServiceWorkload):
    name = "service-churn"
    why = ("writes beside reads: half the submits repeat earlier content "
           "under small journal and cache budgets that rotate, compact "
           "and evict")
    graph = "smallworld"
    scale_factor = 1024
    roots = 4
    ops_per_s = 150.0
    tenants = ("t0", "t1", "t2")
    #: Every ``repeat_every``-th submit repeats earlier content; a
    #: fixed pattern rather than a coin flip, so the share is the same
    #: in every run.
    repeat_every = 2
    service_kwargs = {"journal_max_segment_bytes": 16384,
                      "journal_keep_terminal": 8,
                      "cache_max_bytes": 32768}

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self._rng = np.random.default_rng([int(seed), 2])
        self._history: list = []

    def params(self) -> dict:
        return {**super().params(), "tenants": len(self.tenants),
                "repeat_every": self.repeat_every}

    def next_spec(self, i: int) -> JobSpec:
        tenant = self.tenants[i % len(self.tenants)]
        if self._history and i % self.repeat_every == 1:
            prior = self._history[int(self._rng.integers(
                len(self._history)))]
            # Same content, so a dedupe hit; the tenant is not content.
            return dataclasses.replace(prior, tenant=tenant)
        fresh = len(self._history)
        spec = self.job_spec(self.base + i, SERVICE_STRATEGIES[
            fresh % len(SERVICE_STRATEGIES)], tenant)
        self._history.append(spec)
        return spec


class GridPaper:
    """Library path, paper configuration (no folding): every strategy
    over two graphs on the same roots, one ``Device.run_bc`` call per
    operation."""

    name = "grid-paper"
    why = ("engine-bound library path in the paper's configuration: six "
           "strategies re-traverse the same roots on a road and a "
           "Kronecker graph")
    graphs = ("luxembourg.osm", "kron_g500-logn20")
    strategies = ("work-efficient", "edge-parallel", "vertex-parallel",
                  "hybrid", "sampling", "batched")
    scale_factor = 64
    roots = 8
    ops_per_s = 10.0

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.cfg = ExperimentConfig(scale_factor=self.scale_factor)
        self.n_samps = self.roots // 2
        self.cells = [(g, s) for g in self.graphs for s in self.strategies]
        self.device = None
        self.graph_objs: dict = {}
        self._orders: dict = {}
        self._references: dict = {}
        self._decisions: list = []

    def params(self) -> dict:
        return {"graphs": list(self.graphs), "scale_factor":
                self.scale_factor, "strategies": list(self.strategies),
                "roots_per_pass": self.roots, "n_samps": self.n_samps,
                "alpha": self.cfg.alpha, "beta": self.cfg.beta,
                "min_frontier": self.cfg.min_frontier, "fold": False,
                "calls_per_run_second": self.ops_per_s}

    def op_count(self, seconds: float) -> int:
        """Whole passes over the grid, at least enough calls for a p90."""
        calls = max(min_samples_for(90), math.ceil(seconds * self.ops_per_s))
        return -(-calls // len(self.cells)) * len(self.cells)

    def setup(self) -> None:
        self.device = Device(GTX_TITAN)
        self.graph_objs = {name: generators.make_dataset(
            name, scale_factor=self.scale_factor, seed=0)
            for name in self.graphs}
        # Each pass takes the next disjoint slice of one seeded sample,
        # so no (graph, root) pair repeats across passes.
        rng = np.random.default_rng([self.seed, 3])
        self._orders = {
            name: rng.permutation(pick_roots(g, g.num_vertices,
                                             seed=self.seed))
            for name, g in self.graph_objs.items()}

    def pass_roots(self, graph: str, p: int) -> np.ndarray:
        order = self._orders[graph]
        start = (p % (order.size // self.roots)) * self.roots
        return np.sort(order[start:start + self.roots])

    def _run(self, graph: str, strategy: str, p: int) -> Op:
        g = self.graph_objs[graph]
        roots = self.pass_roots(graph, p)
        kwargs = {}
        if strategy == "hybrid":
            kwargs = {"alpha": self.cfg.alpha, "beta": self.cfg.beta}
        elif strategy == "sampling":
            kwargs = {"n_samps": self.n_samps,
                      "min_frontier": self.cfg.min_frontier}
        elif strategy == "batched":
            kwargs = {"n_samps": self.n_samps}
        metrics = (MetricsRegistry() if strategy in ("hybrid", "sampling")
                   else None)
        t0 = time.perf_counter()
        try:
            run = self.device.run_bc(g, strategy=strategy, roots=roots,
                                     metrics=metrics, fold=False, **kwargs)
        except ReproError as exc:
            return Op(latency=time.perf_counter() - t0, ok=False,
                      error=f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if metrics is not None:
            self._decisions.append((graph, strategy, p, metrics.events))
        return Op(latency=latency, ok=True, roots=int(roots.size),
                  edges=float(g.num_edges) * roots.size,
                  sim_seconds=float(run.seconds),
                  output=((graph, p), run.bc))

    def warmup(self) -> None:
        for graph, strategy in self.cells:
            self._run(graph, strategy, 0)
        self._decisions.clear()

    def op(self, i: int, tracer=None) -> Op:
        graph, strategy = self.cells[i % len(self.cells)]
        p = 1 + i // len(self.cells)  # pass 0 is the warm-up
        if tracer is not None:
            tracer.job = f"{graph}/{strategy}#{p}"
        return self._run(graph, strategy, p)

    def reference(self, key) -> np.ndarray:
        ref = self._references.get(key)
        if ref is None:
            graph, p = key
            ref = repro.betweenness_centrality(
                self.graph_objs[graph], sources=self.pass_roots(graph, p),
                fold=False)
            self._references[key] = ref
        return ref

    def check(self, ops) -> list:
        return mismatched(ops, self.reference)

    def decision_failures(self) -> list:
        """Algorithms 4 and 5 must fire as at paper scale: hybrid
        switches to edge-parallel on kron, sampling classifies kron as
        edge-parallel and luxembourg as work-efficient."""
        kron = self.graphs[1]
        failures = []
        for graph, strategy, p, events in self._decisions:
            if strategy == "hybrid" and graph == kron:
                fired = any(ev["event"] == "decision.step"
                            and ev["previous"] != "edge-parallel"
                            and ev["strategy"] == "edge-parallel"
                            for ev in events)
                want = "hybrid switched to edge-parallel"
            elif strategy == "sampling":
                chose = [ev["chose_edge_parallel"] for ev in events
                         if ev["event"] == "decision.sampling"]
                fired = chose == [graph == kron]
                want = ("sampling chose " + ("edge-parallel" if graph == kron
                                              else "work-efficient"))
            else:
                continue
            if not fired:
                failures.append(f"pass {p} {graph}: expected {want}")
        return failures

    def counters(self) -> dict:
        return {}

    def end_state(self) -> dict:
        return {}

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (ServiceKron, ServiceChurn, GridPaper)}
