"""Figure 4 — work-efficient / hybrid / sampling speedups over the
edge-parallel baseline.

Reproduction targets (Section IV-C's discussion of the figure):

* on road networks and meshes (af_shell, delaunay, luxembourg) *all*
  three methods beat edge-parallel by around an order of magnitude,
  with the pure work-efficient method fastest (the adaptive methods
  pay "the cost of generality");
* on the scale-free and small-world graphs, work-efficient alone is at
  or below edge-parallel parity, while hybrid and sampling are at
  parity or slightly better.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...gpusim.device import Device
from ..runner import ExperimentConfig, load_suite_graph, pick_roots, timed_run
from ..tables import format_table

__all__ = ["GRAPHS", "Figure4Row", "Figure4Result", "run", "render"]

GRAPHS = ["af_shell9", "caidaRouterLevel", "cnr-2000", "com-amazon",
          "delaunay_n20", "loc-gowalla", "luxembourg.osm", "smallworld"]

METHODS = ("work-efficient", "hybrid", "sampling")


@dataclass(frozen=True)
class Figure4Row:
    graph: str
    edge_parallel_seconds: float
    seconds: dict  # method -> simulated seconds

    def speedup(self, method: str) -> float:
        t = self.seconds[method]
        if t == 0:
            return float("inf")
        return self.edge_parallel_seconds / t


@dataclass(frozen=True)
class Figure4Result:
    rows: tuple

    def row(self, name: str) -> Figure4Row:
        for r in self.rows:
            if r.graph == name:
                return r
        raise KeyError(name)


def run(cfg: ExperimentConfig | None = None, names=None) -> Figure4Result:
    cfg = cfg or ExperimentConfig()
    device = Device(cfg.gpu)
    rows = []
    for name in (names or GRAPHS):
        g = load_suite_graph(name, cfg)
        roots = pick_roots(g, cfg.root_sample, seed=cfg.seed)
        ep = timed_run(device, g, "edge-parallel", roots)
        seconds = {}
        for method in METHODS:
            kwargs = {}
            if method == "sampling":
                kwargs["n_samps"] = max(1, roots.size // 3)
                kwargs["min_frontier"] = cfg.min_frontier
            elif method == "hybrid":
                kwargs["alpha"] = cfg.alpha
                kwargs["beta"] = cfg.beta
            run_ = timed_run(device, g, method, roots, **kwargs)
            seconds[method] = run_.extrapolated_seconds()
        rows.append(Figure4Row(graph=name,
                               edge_parallel_seconds=ep.extrapolated_seconds(),
                               seconds=seconds))
    return Figure4Result(rows=tuple(rows))


def render(result: Figure4Result | None = None,
           cfg: ExperimentConfig | None = None) -> str:
    r = run(cfg) if result is None else result
    rows = [
        (row.graph,
         f"{row.speedup('work-efficient'):.2f}x",
         f"{row.speedup('hybrid'):.2f}x",
         f"{row.speedup('sampling'):.2f}x")
        for row in r.rows
    ]
    return format_table(
        ["Graph", "Work-efficient", "Hybrid", "Sampling"],
        rows,
        title="Figure 4 — speedup over the edge-parallel baseline",
    )
