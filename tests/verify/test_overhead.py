"""Guard: ``--verify=sampled`` must stay cheap enough to leave on.

The acceptance bar from the verification-layer design: over the full
BENCH_baseline grid (every Table II dataset x every strategy, at the
benchmark scale), running with sampled verification costs at most 15%
more wall time than running with verification off.  The sampled
invariant suite is O(n) per checked root plus a vectorised structure
spot-check, so in practice the ratio is far below the bar; the test
exists to catch a regression that sneaks per-edge or per-vertex Python
loops back into the hot path.
"""

import time

import numpy as np
import pytest

from repro.gpusim import Device
from repro.graph.generators.suite import make_dataset

pytestmark = pytest.mark.sdc

DATASETS = [
    "caidaRouterLevel",
    "delaunay_n20",
    "kron_g500-logn20",
    "luxembourg.osm",
    "smallworld",
]
#: Timed off/sampled pairs; the guard asserts on their median ratio.
PAIRS = 7

STRATEGIES = [
    "edge-parallel",
    "hybrid",
    "sampling",
    "vertex-parallel",
    "work-efficient",
]


def _grid_seconds(graphs, verify):
    roots = np.arange(16)
    t0 = time.perf_counter()
    for g in graphs:
        for strategy in STRATEGIES:
            Device().run_bc(g, strategy=strategy, roots=roots,
                            check_memory=False, verify=verify)
    return time.perf_counter() - t0


def test_sampled_verification_overhead_within_15_percent():
    """Timed as alternating ``off``/``sampled`` pairs (which mode runs
    first alternates too), asserting on the median per-pair ratio: the
    two grids of a pair run back to back, so host-speed drift between
    pairs cancels, and one noisy pair cannot fail the guard."""
    graphs = [make_dataset(name, scale_factor=1024, seed=0)
              for name in DATASETS]
    _grid_seconds(graphs, "off")  # warm caches before timing
    ratios, offs, sampleds = [], [], []
    for i in range(PAIRS):
        if i % 2:
            sampled = _grid_seconds(graphs, "sampled")
            off = _grid_seconds(graphs, "off")
        else:
            off = _grid_seconds(graphs, "off")
            sampled = _grid_seconds(graphs, "sampled")
        ratios.append(sampled / off)
        offs.append(off)
        sampleds.append(sampled)
    ratio = float(np.median(ratios))
    assert ratio <= 1.15, (
        f"sampled verification costs {100 * (ratio - 1):.1f}% over "
        f"verify=off across the BENCH grid (median of {PAIRS} pairs; "
        f"median {np.median(sampleds) * 1e3:.0f} ms vs "
        f"{np.median(offs) * 1e3:.0f} ms; pair ratios "
        f"{', '.join(f'{r:.2f}' for r in ratios)}); budget is 15%"
    )
