"""Vectorised dependency accumulation (Stage 2, Algorithm 3).

Implements the atomic-free successor-checking scheme: each vertex ``w``
at depth ``depth`` scans its *neighbours* (there is no predecessor
array — the space/recompute trade-off of Green & Bader adopted by the
paper) and sums contributions from those at ``depth + 1``:

    delta[w] = sum_{v in nbrs(w), d[v] = d[w]+1} sigma[w]/sigma[v] * (1 + delta[v])

Levels are processed deepest-first; vertices on the deepest level have
no successors, so the sweep starts one level up (Algorithm 2, line 12),
and depth 0 (the root) is skipped since a root never contributes to its
own score.
"""

from __future__ import annotations

import numpy as np

from .._util import concat_ranges
from ..graph.csr import CSRGraph
from .frontier import ForwardResult

__all__ = ["dependency_accumulation", "accumulate_level"]


def accumulate_level(
    g: CSRGraph,
    level: np.ndarray,
    distances: np.ndarray,
    sigma: np.ndarray,
    delta: np.ndarray,
    sigma_ratio_scale: float = 1.0,
    target_weights: np.ndarray | None = None,
) -> None:
    """Compute ``delta`` for all vertices of one level, in place.

    ``sigma_ratio_scale`` corrects for per-level sigma rescaling: when
    the successors' stored sigmas were divided by ``f`` during the
    forward sweep, the true ratio ``sigma_w / sigma_v`` equals the
    stored ratio divided by ``f`` (pass ``1 / f``).

    ``target_weights`` generalises the ``1 +`` endpoint term: vertex
    ``v`` counts as ``target_weights[v]`` targets instead of one.  The
    degree-1 folding transform (:mod:`repro.bc.preprocess`) uses this
    to make one core vertex stand for its whole absorbed subtree;
    ``None`` keeps the classic unit-weight accumulation.
    """
    if level.size == 0:
        return
    indptr, adj = g.indptr, g.adj
    starts = indptr[level]
    counts = indptr[level + 1] - starts
    nbrs = adj[concat_ranges(starts, counts)]
    owner = np.repeat(np.arange(level.size, dtype=np.int64), counts)
    depth_here = distances[level[0]]
    succ = distances[nbrs] == depth_here + 1
    if not np.any(succ):
        return
    nbrs = nbrs[succ]
    owner = owner[succ]
    endpoint = 1.0 if target_weights is None else target_weights[nbrs]
    contrib = (endpoint + delta[nbrs]) / sigma[nbrs]
    acc = np.zeros(level.size, dtype=np.float64)
    np.add.at(acc, owner, contrib)
    delta[level] = sigma[level] * acc * sigma_ratio_scale


def dependency_accumulation(
    g: CSRGraph,
    fwd: ForwardResult,
    target_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Run Stage 2 for one root; returns the ``delta`` array.

    The caller accumulates ``bc += delta`` (``delta[source]`` is always
    zero because depth 0 is never processed).  This is the only
    accumulation loop: the engine charges the backward levels' cost
    separately, from ``fwd.levels``.

    Parameters
    ----------
    target_weights:
        Optional per-vertex target multiplicities (see
        :func:`accumulate_level`); ``None`` means unit weights.
    """
    n = g.num_vertices
    delta = np.zeros(n, dtype=np.float64)
    scales = fwd.level_scales
    # Start one level above the deepest (its vertices have no successors).
    for depth in range(len(fwd.levels) - 2, 0, -1):
        level = fwd.levels[depth]
        ratio_scale = 1.0
        if scales is not None and depth + 1 < scales.size:
            ratio_scale = 1.0 / scales[depth + 1]
        accumulate_level(g, level, fwd.distances, fwd.sigma, delta,
                         sigma_ratio_scale=ratio_scale,
                         target_weights=target_weights)
    return delta
