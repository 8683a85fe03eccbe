"""The benchmark grid: every device strategy over the Table II sample.

One dataset per structural class (scale-free, mesh, Kronecker with
isolated vertices, road, small-world) × the five trackable strategies.
The document body (schema ``repro.bench/v1``) is *simulated* and
therefore byte-deterministic for a fixed config — makespan cycles,
simulated seconds, MTEPS, per-level totals — so perf diffs against it
are exact; wall-clock measurements of the Python harness itself live
under the single ``timing`` key the caller may attach.  Each root is
swept once per dataset and its traversal reused by every later
strategy (:mod:`repro.bc.engine`'s sweep memo), so the ``timing`` of
the first strategy per dataset includes the shared sweeps and the
later ones are cost replays.

The sampling strategy's run is configured so Algorithm 5's decision is
actually *exercised*, not just recorded: ``n_samps`` defaults to half
the benchmarked roots (:func:`default_n_samps`), leaving a non-empty
phase 2 that runs under the chosen method.  With the historical default
(512 samples > 16 roots) every root was consumed by the classification
phase, so ``sampling_chose_edge_parallel`` described a choice that never
ran a single root — and the per-row ``sampling_median_depth`` /
``sampling_depth_cutoff`` audit fields were unrecoverable.
"""

from __future__ import annotations

import numpy as np

from ..graph.generators import make_dataset
from ..gpusim import GTX_TITAN, Device
from ..observability import MetricsRegistry

__all__ = [
    "BENCH_SCHEMA",
    "DATASET_NAMES",
    "STRATEGY_NAMES",
    "default_n_samps",
    "run_bench_grid",
]

BENCH_SCHEMA = "repro.bench/v1"

#: One dataset per structural class, small enough for laptop CI.
DATASET_NAMES = (
    "caidaRouterLevel",   # scale-free
    "delaunay_n20",       # mesh
    "kron_g500-logn20",   # scale-free, isolated vertices
    "luxembourg.osm",     # road, high diameter
    "smallworld",         # small world
)

#: Strategies benchmarked (gpu-fan excluded: its O(n^2) predecessor
#: matrix is the Figure 5 failure mode, not a baseline to track).
STRATEGY_NAMES = (
    "work-efficient",
    "edge-parallel",
    "vertex-parallel",
    "hybrid",
    "sampling",
    "batched",
)


def default_n_samps(roots: int) -> int:
    """Sampling-phase size for a ``roots``-root benchmark run: half the
    roots (min 2), so the classified method actually processes the
    other half."""
    return max(2, int(roots) // 2)


def _sampling_decision(metrics: MetricsRegistry) -> dict | None:
    """The run's recorded Algorithm 5 classification event, if any
    (the ``batched`` strategy records the same depth rule under its own
    event name)."""
    for ev in metrics.events:
        if ev["event"] in ("decision.sampling", "decision.batched"):
            return ev
    return None


def run_bench_grid(
    scale_factor: int = 1024,
    roots: int = 16,
    seed: int = 0,
    n_samps: int | None = None,
    device: Device | None = None,
    datasets=DATASET_NAMES,
    strategies=STRATEGY_NAMES,
    wall_clock=None,
    include_service: bool = True,
    fold: bool = True,
):
    """Run the benchmark grid; returns ``(document, wall_per_run)``.

    Parameters
    ----------
    n_samps:
        Sampling-phase size for the ``sampling`` and ``batched``
        strategies (both classify via Algorithm 5's depth rule);
        defaults to :func:`default_n_samps` so the classification
        decision governs a non-empty steady phase.
    device:
        The device to benchmark (a fresh GTX Titan by default); tests
        inject a straggler-slowed device to prove the regression gate
        fires.
    wall_clock:
        Zero-argument wall-time source (defaults to
        ``time.perf_counter``); wall times are reported out-of-band in
        ``wall_per_run``, never in the document body.
    include_service:
        Also run the service load-generator scenarios
        (:func:`repro.service.service_bench_rows`) and append their
        ``dataset="service-load"`` rows, putting p50/p99 latency,
        throughput and shed rate under the same regression ratchet as
        kernel makespans.
    fold:
        Degree-1 folding preprocess (default on, matching
        :meth:`~repro.gpusim.Device.run_bc`); ``False`` reproduces the
        pre-fold baseline for before/after comparisons.  Each row
        reports the traversed core size either way.
    """
    if wall_clock is None:
        import time

        wall_clock = time.perf_counter
    if device is None:
        device = Device(GTX_TITAN)
    if n_samps is None:
        n_samps = default_n_samps(roots)
    results = []
    wall_per_run = {}
    for name in datasets:
        g = make_dataset(name, scale_factor=scale_factor, seed=seed)
        rng = np.random.default_rng(seed)
        sample = np.sort(rng.choice(g.num_vertices,
                                    size=min(roots, g.num_vertices),
                                    replace=False))
        for strategy in strategies:
            metrics = MetricsRegistry()
            kwargs = ({"n_samps": int(n_samps)}
                      if strategy in ("sampling", "batched") else {})
            t0 = wall_clock()
            run = device.run_bc(g, strategy=strategy, roots=sample,
                                metrics=metrics, fold=fold, **kwargs)
            wall_per_run[f"{name}/{strategy}"] = wall_clock() - t0
            levels = sum(rt.depths.size for rt in run.trace.roots)
            decision = _sampling_decision(metrics)
            results.append({
                "dataset": name,
                "strategy": strategy,
                "num_vertices": int(g.num_vertices),
                "num_edges": int(g.num_edges),
                "core_vertices": (int(run.fold.core.num_vertices)
                                  if run.fold is not None
                                  else int(g.num_vertices)),
                "folded_vertices": (int(run.fold.num_folded)
                                    if run.fold is not None else 0),
                "num_roots": int(run.num_roots),
                "makespan_cycles": float(run.cycles),
                "sim_seconds": float(run.seconds),
                "mteps": float(run.mteps()),
                "extrapolated_mteps": float(run.extrapolated_mteps()),
                "levels_traced": int(levels),
                "bytes_allocated": int(sum(run.memory_report.values())),
                "sampling_chose_edge_parallel":
                    run.sampling_chose_edge_parallel,
                "sampling_median_depth":
                    None if decision is None else decision["median_depth"],
                "sampling_depth_cutoff":
                    None if decision is None else decision["depth_cutoff"],
            })
    if include_service:
        # Imported here, not at module top: bench is a dependency of the
        # service's load model, so the import must stay one-directional
        # at module-load time.
        from ..service.loadgen import service_bench_rows

        t0 = wall_clock()
        service_rows = service_bench_rows(seed=seed)
        wall_per_run["service-load"] = wall_clock() - t0
        results.extend(service_rows)
    doc = {
        "schema": BENCH_SCHEMA,
        "config": {
            "device": device.spec.name,
            "scale_factor": int(scale_factor),
            "roots": int(roots),
            "n_samps": int(n_samps),
            "seed": int(seed),
            "fold": bool(fold),
        },
        "results": results,
    }
    return doc, wall_per_run
