"""Table III — MTEPS of the edge-parallel baseline vs. the sampling
method across eight graphs.

The paper reports per-graph MTEPS for both methods, the per-graph
speedup, and a 2.71x geometric-mean speedup overall.  The reproduction
target: sampling wins by ~an order of magnitude on the high-diameter
graphs (af_shell9, delaunay, luxembourg — the paper sees 13.3x, 10.2x,
8.3x), and is roughly at parity (1.0-1.6x) on the scale-free and
small-world graphs, with a geometric mean in the low single digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...gpusim.device import Device
from ..runner import ExperimentConfig, load_suite_graph, pick_roots, timed_run
from ..tables import format_table

__all__ = ["GRAPHS", "Table3Row", "Table3Result", "run", "render"]

#: The eight graphs of Table III (the suite minus rgg and kron, which
#: the Jia et al. reference code cannot read — Section V-B).
GRAPHS = ["af_shell9", "caidaRouterLevel", "cnr-2000", "com-amazon",
          "delaunay_n20", "loc-gowalla", "luxembourg.osm", "smallworld"]


@dataclass(frozen=True)
class Table3Row:
    graph: str
    edge_parallel_mteps: float
    sampling_mteps: float

    @property
    def speedup(self) -> float:
        if self.edge_parallel_mteps == 0:
            return float("inf")
        return self.sampling_mteps / self.edge_parallel_mteps


@dataclass(frozen=True)
class Table3Result:
    rows: tuple

    @property
    def geomean_speedup(self) -> float:
        vals = [r.speedup for r in self.rows if r.speedup > 0]
        if not vals:
            return float("nan")
        return math.exp(sum(math.log(v) for v in vals) / len(vals))

    def row(self, name: str) -> Table3Row:
        for r in self.rows:
            if r.graph == name:
                return r
        raise KeyError(name)


def run(cfg: ExperimentConfig | None = None, names=None) -> Table3Result:
    cfg = cfg or ExperimentConfig()
    device = Device(cfg.gpu)
    rows = []
    for name in (names or GRAPHS):
        g = load_suite_graph(name, cfg)
        roots = pick_roots(g, cfg.root_sample, seed=cfg.seed)
        ep = timed_run(device, g, "edge-parallel", roots)
        # The sampling phase classifies from the first roots it is
        # given; cap n_samps below the sample so phase 2 exists, and
        # extrapolate to a full-n run so the fixed classification cost
        # amortises exactly as it does in the paper (512 of n roots).
        samp = timed_run(device, g, "sampling", roots,
                         n_samps=max(1, roots.size // 3),
                         min_frontier=cfg.min_frontier)
        rows.append(Table3Row(
            graph=name,
            edge_parallel_mteps=ep.extrapolated_mteps(),
            sampling_mteps=samp.extrapolated_mteps(),
        ))
    return Table3Result(rows=tuple(rows))


def render(result: Table3Result | None = None,
           cfg: ExperimentConfig | None = None) -> str:
    r = run(cfg) if result is None else result
    rows = [
        (row.graph, f"{row.edge_parallel_mteps:.2f}",
         f"{row.sampling_mteps:.2f}", f"{row.speedup:.2f}x")
        for row in r.rows
    ]
    rows.append(("Geometric mean", "", "", f"{r.geomean_speedup:.2f}x"))
    return format_table(
        ["Graph", "Edge-parallel (MTEPS)", "Sampling (MTEPS)", "Speedup"],
        rows,
        title="Table III — edge-parallel vs sampling performance",
    )
