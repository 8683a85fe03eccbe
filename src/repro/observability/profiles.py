"""Kernel profiles: a :class:`DeviceRun`'s trace as an exportable dict.

A profile (schema ``repro.profile/v1``) is the on-disk form of what the
paper's figures are drawn from: per root, per BFS level — depth, stage,
strategy chosen, vertex-frontier size (Figure 3), edge-frontier size
(Table I) and charged cycles (Table I's elapsed times) — plus the run's
schedule outcome (makespan, per-SM busy cycles) and the memory ledger.

Everything in a profile is *simulated* and therefore deterministic for
a fixed graph/seed/strategy; wall-clock measurements belong in the
``timing`` key added by the CLI, never in the profile body.  The test
suite asserts byte-identical re-runs and exact agreement between the
exported level rows and the in-memory :class:`RunTrace`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # type-only: keeps this package dependency-free so the
    # instrumented modules (bc.engine, gpusim.device, ...) can import it
    # without a cycle.
    from ..gpusim.device import DeviceRun
    from ..gpusim.spec import GPUSpec
    from ..gpusim.trace import RootTrace, RunTrace

__all__ = [
    "PROFILE_SCHEMA",
    "level_rows",
    "root_profile",
    "trace_profile",
    "spec_profile",
    "run_profile",
]

PROFILE_SCHEMA = "repro.profile/v1"


def level_rows(rt: RootTrace) -> list:
    """One dict per kernel iteration of ``rt``."""
    return [{"depth": lv.depth, "stage": lv.stage, "strategy": lv.strategy,
             "frontier": lv.frontier_size, "edge_frontier": lv.edge_frontier,
             "cycles": lv.cycles} for lv in rt.levels]


def root_profile(rt: RootTrace) -> dict:
    return {
        "root": int(rt.root),
        "cycles": float(rt.cycles),
        "max_depth": int(rt.max_depth),
        "levels": level_rows(rt),
    }


def trace_profile(trace: RunTrace) -> dict:
    return {
        "makespan_cycles": float(trace.makespan_cycles),
        "total_root_cycles": float(trace.total_root_cycles),
        "sm_cycles": (None if trace.sm_cycles is None
                      else [float(c) for c in trace.sm_cycles]),
        "kernels": [root_profile(rt) for rt in trace.roots],
    }


def spec_profile(spec: GPUSpec) -> dict:
    return {
        "name": spec.name,
        "num_sms": int(spec.num_sms),
        "clock_hz": float(spec.clock_hz),
        "memory_bytes": int(spec.memory_bytes),
        "concurrent_threads_per_sm": int(spec.concurrent_threads_per_sm),
        "compute_capability": spec.compute_capability,
    }


def run_profile(run: DeviceRun, graph=None) -> dict:
    """Full ``repro.profile/v1`` document for one device run.

    Parameters
    ----------
    graph:
        Optional :class:`~repro.graph.csr.CSRGraph`; adds a ``graph``
        section (name/size/direction) to the document.
    """
    doc = {
        "schema": PROFILE_SCHEMA,
        "device": spec_profile(run.spec),
        "run": {
            "strategy": run.strategy,
            "num_vertices": int(run.num_vertices),
            "num_edges": int(run.num_edges),
            "num_roots": int(run.num_roots),
            "roots": [int(r) for r in run.roots],
            "cycles": float(run.cycles),
            "sim_seconds": float(run.seconds),
            "mteps": float(run.mteps()),
            "fixed_cycles": float(run.fixed_cycles),
            "fixed_roots": int(run.fixed_roots),
            "sampling_chose_edge_parallel": run.sampling_chose_edge_parallel,
            "memory_bytes": {k: int(v) for k, v in
                             sorted(run.memory_report.items())},
        },
        "trace": trace_profile(run.trace),
    }
    if graph is not None:
        doc["graph"] = {
            "name": graph.name or "",
            "num_vertices": int(graph.num_vertices),
            "num_edges": int(graph.num_edges),
            "undirected": bool(graph.undirected),
        }
    return doc
