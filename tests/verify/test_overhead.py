"""Guard: ``--verify=sampled`` must stay cheap enough to leave on.

The acceptance bar from the verification-layer design: over the full
BENCH_baseline grid (every Table II dataset x every strategy, at the
benchmark scale), the sampled checks cost at most 15% on top of the
run they check.  The sampled invariant suite is O(n) per checked root
plus a vectorised structure spot-check, so in practice the share is far
below the bar; the test exists to catch a regression that sneaks
per-edge or per-vertex Python loops back into the hot path.

A verified run sweeps every root afresh (it bypasses the engine's sweep
memo), while an unverified run on a warm graph only replays memoised
sweeps; timing one against the other would measure the memo, not the
checks.  So the guard times the checks inside each sampled run — the
observer's ``verify.overhead_seconds`` — against the rest of that run.
"""

import time

import numpy as np
import pytest

from repro.gpusim import Device
from repro.graph.generators.suite import make_dataset
from repro.observability.registry import NullRegistry

pytestmark = pytest.mark.sdc

DATASETS = [
    "caidaRouterLevel",
    "delaunay_n20",
    "kron_g500-logn20",
    "luxembourg.osm",
    "smallworld",
]
#: Timed sampled grids; the guard asserts on their median share.
GRIDS = 7

STRATEGIES = [
    "edge-parallel",
    "hybrid",
    "sampling",
    "vertex-parallel",
    "work-efficient",
]


class CheckClock(NullRegistry):
    """The null registry, except that it sums the time the run observer
    spends in the ABFT checks (``verify.overhead_seconds``)."""

    def __init__(self):
        super().__init__()
        self.seconds = 0.0

    def inc(self, name, value=1.0, /, **labels):
        if name == "verify.overhead_seconds":
            self.seconds += value


def _sampled_grid(graphs):
    """(wall seconds, seconds inside the checks) of one sampled grid."""
    roots = np.arange(16)
    clock = CheckClock()
    t0 = time.perf_counter()
    for g in graphs:
        for strategy in STRATEGIES:
            Device().run_bc(g, strategy=strategy, roots=roots,
                            check_memory=False, verify="sampled",
                            metrics=clock)
    return time.perf_counter() - t0, clock.seconds


def test_sampled_verification_overhead_within_15_percent():
    """Median over several grids of the checks' share: the checks and
    the run they check are timed together, so host-speed drift cancels,
    and one noisy grid cannot fail the guard."""
    graphs = [make_dataset(name, scale_factor=1024, seed=0)
              for name in DATASETS]
    _sampled_grid(graphs)  # warm caches before timing
    shares, walls, checks = [], [], []
    for _ in range(GRIDS):
        wall, checked = _sampled_grid(graphs)
        assert checked > 0  # the sampled roots really were checked
        shares.append(checked / (wall - checked))
        walls.append(wall)
        checks.append(checked)
    share = float(np.median(shares))
    assert share <= 0.15, (
        f"sampled verification costs {100 * share:.1f}% on top of the "
        f"runs it checks across the BENCH grid (median of {GRIDS} grids; "
        f"median {np.median(checks) * 1e3:.0f} ms of checks in "
        f"{np.median(walls) * 1e3:.0f} ms; grid shares "
        f"{', '.join(f'{r:.2f}' for r in shares)}); budget is 15%"
    )
