"""Kernel cost model: cycles charged per BFS/accumulation iteration.

The model charges exactly the quantities the paper's analysis reasons
about (Sections III and IV):

* **Edge-parallel** kernels touch *every* directed edge on *every*
  iteration with perfectly coalesced, perfectly balanced accesses —
  cheap per edge, but the work is O(m) per level regardless of how few
  edges actually matter.
* **Work-efficient** kernels touch only the frontier's edges, but the
  per-thread work equals the vertex's out-degree, so a chunk of ``T``
  concurrent threads is as slow as its highest-degree member
  (warp/block serialisation); accesses are queue-driven gathers
  (scattered), and queue insertion costs an atomic CAS + append
  (Algorithm 2, lines 5-7).
* **Vertex-parallel** kernels additionally pay a per-vertex depth check
  on all n vertices every level (the O(n^2 + m) traversal).
* Every level costs one kernel launch / device-wide barrier.

Each (stage, strategy) formula is written once, vectorised over every
level of a sweep (:meth:`CostModel.level_cycles`, one call per sweep);
the per-level methods (``we_forward`` etc.) apply the same formula to a
single level.  Cycles are those of ONE thread block (one SM) processing
a level of one root, except the GPU-FAN and batched variants, which
cooperate across the whole device (``device_chunk``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .._util import segment_max_sums
from ..errors import StrategyError

__all__ = ["CostModel", "DEFAULT_COSTS", "Levels"]


class Levels(NamedTuple):
    """What pricing reads about a run of BFS levels, laid out as the
    paper's ``S``/``ends`` arrays (Algorithms 2 and 3): level ``d`` is
    ``vertices[ends[d]:ends[d + 1]]``."""

    ends: np.ndarray
    vertices: np.ndarray  # S: vertex ids in visit order
    degrees: np.ndarray  # out-degree of each entry of ``vertices``
    ef: np.ndarray  # per-level edge frontier (sum of its degrees)
    num_vertices: int = 0
    num_directed_edges: int = 0

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.ends)

    @classmethod
    def one(cls, degrees) -> "Levels":
        """A single level whose frontier has the given degrees."""
        degrees = np.asarray(degrees)
        return cls(np.array([0, degrees.size]), np.arange(degrees.size),
                   degrees, np.array([degrees.sum()]))



@dataclass(frozen=True)
class CostModel:
    """Cycle charges for the kernel primitives.

    Attributes
    ----------
    edge_coalesced:
        Cycles per edge inspection in the edge-parallel layout
        (streaming, fully coalesced).
    edge_scattered:
        Cycles per edge traversal through a queue-driven gather
        (uncoalesced neighbour list access), including the atomic
        traffic of discovery/path-counting.  Applies to the first
        ``stream_threshold`` edges of a thread's row.
    edge_streamed:
        Cycles per edge beyond ``stream_threshold`` in one thread's
        row: a long adjacency list is contiguous in CSR, so a single
        thread walking it hits full cache lines and pipelines its loads
        — hubs are slow, but not ``edge_scattered``-per-edge slow.
    stream_threshold:
        Row length beyond which a thread's traversal reaches streaming
        throughput.
    atomic:
        Cycles per atomic operation (CAS on ``d``, atomicAdd on sigma or
        the queue tail) in the *edge-parallel* layout, where colliding
        updates from many threads are the norm.
    queue_op:
        Cycles per queue element copy (Q_next -> Q_curr, S append).
    enqueue:
        How discovered vertices enter Q_next: ``"cas"`` (the paper's
        choice — an atomicAdd on the queue tail per discovery, folded
        into the scattered per-edge charge) or ``"prefix-sum"``
        (Merrill et al.'s cooperative enqueue).  The paper rejects the
        prefix sum because at per-SM granularity *every* SM must scan
        its whole candidate set independently (Section IV-A); the
        ``prefix-sum`` variant charges exactly that scan so the
        trade-off can be reproduced (benchmarks/test_ablation.py).
    prefix_scan_factor:
        Cycles per scanned element per scan pass in prefix-sum mode.
    vertex_check:
        Cycles per per-vertex "is it in this depth?" check
        (vertex-parallel only).
    launch:
        Fixed cycles per iteration.  The per-SM methods run one
        persistent block per SM, so an iteration boundary is only a
        block-level ``__syncthreads()`` plus loop bookkeeping — tens of
        cycles, not a kernel launch.
    gpu_fan_sync_multiplier:
        GPU-FAN synchronises *all* thread blocks between iterations
        (fine-grained-only parallelism requires a device-wide barrier,
        i.e. a kernel relaunch costing microseconds), which is orders
        of magnitude costlier than the single-block sync above.
    imbalance:
        If False, chunk serialisation is disabled (each chunk charged
        its mean instead of its max) — the ablation knob showing why
        scale-free graphs punish the work-efficient method.
    cycle_scale:
        Uniform multiplier applied to every per-iteration cost.  The
        structural model above counts work units; real irregular
        kernels are additionally DRAM-latency- and occupancy-bound
        (hundreds of cycles per dependent gather that 256 resident
        threads only partially hide).  A uniform factor leaves every
        ratio the paper reports untouched while bringing absolute
        simulated times within the right order of magnitude, which
        matters wherever simulated kernel time is balanced against
        real-world fixed costs (the cluster model's setup and
        communication terms, Figure 6 / Table IV).
    """

    edge_coalesced: float = 2.0
    edge_scattered: float = 16.0
    edge_streamed: float = 4.0
    stream_threshold: int = 32
    atomic: float = 6.0
    queue_op: float = 4.0
    enqueue: str = "cas"
    prefix_scan_factor: float = 3.0
    vertex_check: float = 1.0
    launch: float = 50.0
    gpu_fan_sync_multiplier: float = 60.0
    imbalance: bool = True
    cycle_scale: float = 100.0

    # -- helpers ------------------------------------------------------
    def _row_cycles(self, degrees: np.ndarray) -> np.ndarray:
        """Per-thread cycles to traverse a row of each given length:
        scattered cost up to ``stream_threshold`` edges, streaming cost
        beyond (long CSR rows are contiguous)."""
        deg = np.asarray(degrees, dtype=np.float64)
        short = np.minimum(deg, self.stream_threshold)
        long = deg - short
        return short * self.edge_scattered + long * self.edge_streamed

    def _serialized(self, lv: Levels, blocks: np.ndarray,
                    chunk: int) -> np.ndarray:
        """Per-level chunked execution time of the levels' threads,
        ``blocks`` naming each thread's chunk within its level (see
        module doc)."""
        rows = self._row_cycles(lv.degrees)
        level = np.repeat(np.arange(lv.sizes.size), lv.sizes)
        if self.imbalance:
            return segment_max_sums(rows, level, blocks, lv.sizes.size)
        return np.bincount(level, weights=rows,
                           minlength=lv.sizes.size) / chunk

    # -- whole sweeps: one vectorised formula per (stage, strategy) ----
    def level_cycles(self, stage: str, strategy: str, lv: Levels, chunk: int,
                     device_chunk: int | None = None) -> np.ndarray:
        """Cycles of every level of ``lv`` processed by ``strategy`` in
        ``stage`` (``"forward"`` or ``"backward"``), one float per level."""
        backward = stage == "backward"
        if strategy == "work-efficient":
            return self._work_efficient(lv, chunk, backward)
        if strategy == "vertex-parallel":
            return self._vertex_parallel(lv, chunk, backward)
        if strategy == "edge-parallel":
            return self._edge_scan(lv.num_directed_edges, lv.ef, chunk, 1.0)
        if strategy == "gpu-fan":
            if device_chunk is None:
                raise StrategyError("gpu-fan strategy requires device_chunk")
            return self._edge_scan(lv.num_directed_edges, lv.ef, device_chunk,
                                   self.gpu_fan_sync_multiplier)
        raise StrategyError(f"unknown strategy {strategy!r}")

    def _work_efficient(self, lv: Levels, chunk: int,
                        backward: bool) -> np.ndarray:
        """Algorithms 2 and 3: each level's frontier, in queue order,
        runs in chunks of ``chunk`` threads."""
        position = np.arange(lv.degrees.size) - np.repeat(lv.ends[:-1],
                                                          lv.sizes)
        serial = self._serialized(lv, position // chunk, chunk)
        passes = -(-lv.sizes // chunk)
        if backward:
            # Atomic-free successor scan, then read the S segment.
            cycles = serial * 0.8 + passes * self.queue_op
        else:
            # Q_next -> Q_curr copy and S append.
            cycles = serial + passes * self.queue_op * 2
            if self.enqueue == "prefix-sum":
                # Cooperative enqueue: this SM alone scans every
                # candidate edge of the level (one flag per inspected
                # edge), paying O(edge_frontier / chunk) scan passes —
                # the overhead the paper measured and rejected.
                ef = lv.ef.astype(np.float64)
                scans = np.array([math.log2(max(e, 2.0)) for e in ef.tolist()])
                cycles = cycles + ef / chunk * self.prefix_scan_factor * scans
            elif self.enqueue != "cas":
                raise ValueError(f"unknown enqueue mode {self.enqueue!r}")
        return (cycles + self.launch) * self.cycle_scale

    def _vertex_parallel(self, lv: Levels, chunk: int,
                         backward: bool) -> np.ndarray:
        """Jia et al.: every vertex is checked each level, and frontier
        vertices traverse their edges in place, in chunks of consecutive
        vertex ids (no queue)."""
        serial = self._serialized(lv, lv.vertices // chunk, chunk)
        if backward:
            serial = serial * 0.8
        cycles = -(-lv.num_vertices // chunk) * self.vertex_check + serial
        return (cycles + self.launch) * self.cycle_scale

    def _edge_scan(self, num_directed_edges: int, ef, chunk: int,
                   sync: float) -> np.ndarray:
        """Jia et al. / GPU-FAN layout: scan every edge, relax the useful
        ones (``ef`` per level; atomic in both stages, Section IV-A).
        GPU-FAN runs it on the whole device (``chunk`` = device
        concurrency) behind a ``sync``-times costlier global barrier."""
        cycles = -(-num_directed_edges // chunk) * self.edge_coalesced
        cycles = cycles + np.asarray(ef) / chunk * self.atomic
        return (cycles + self.launch * sync) * self.cycle_scale

    # -- one level: the whole-sweep formulas on a single level ---------
    def we_forward(self, frontier_degrees: np.ndarray, chunk: int) -> float:
        """One shortest-path-calculation level, work-efficient kernel."""
        return float(self._work_efficient(
            Levels.one(frontier_degrees), chunk, False)[0])

    def we_backward(self, level_degrees: np.ndarray, chunk: int) -> float:
        """One dependency-accumulation level (atomic-free successor scan)."""
        return float(self._work_efficient(
            Levels.one(level_degrees), chunk, True)[0])

    def ep_forward(self, num_directed_edges: int, useful_edges: int,
                   chunk: int) -> float:
        """One forward level: scan all edges, relax the useful ones."""
        return float(self._edge_scan(num_directed_edges, [useful_edges],
                                     chunk, 1.0)[0])

    def vp_forward(self, num_vertices: int, masked_degrees: np.ndarray,
                   chunk: int) -> float:
        """One forward level: every vertex checked, frontier vertices
        traverse their edges in-place (no queue).  ``masked_degrees``
        holds each vertex's degree, zero off the frontier."""
        masked = np.asarray(masked_degrees)
        frontier = np.flatnonzero(masked)
        lv = Levels(np.array([0, frontier.size]), frontier, masked[frontier],
                    np.array([masked.sum()]), num_vertices)
        return float(self._vertex_parallel(lv, chunk, False)[0])

    def gpu_fan_forward(self, num_directed_edges: int, useful_edges: int,
                        device_chunk: int) -> float:
        """GPU-FAN forward level: whole device on one root, global sync."""
        return float(self._edge_scan(num_directed_edges, [useful_edges],
                                     device_chunk,
                                     self.gpu_fan_sync_multiplier)[0])

    # -- batched multi-source (Sarıyüce et al., reference [33]) --------
    def batched_cycles(self, edge_pairs, device_chunk: int) -> np.ndarray:
        """Frontier-matrix levels of a root batch, forward or backward,
        one per entry of ``edge_pairs`` (the edge frontier summed over
        the batch's rows at that level).

        The ``(k, n) x (n, n)`` product (transposed backward) streams
        each active row's edges exactly once — an edge scan with no
        atomics (path counts accumulate inside the product) — and the
        whole device cooperates, so one launch covers the batch.
        """
        return self._edge_scan(np.asarray(edge_pairs), 0, device_chunk, 1.0)

    # -- variants ------------------------------------------------------
    def without_imbalance(self) -> "CostModel":
        """Ablation variant with chunk serialisation disabled."""
        return replace(self, imbalance=False)


#: Default constants, calibrated so the paper's cross-over shapes hold
#: (see benchmarks/test_ablation.py and EXPERIMENTS.md).
DEFAULT_COSTS = CostModel()
