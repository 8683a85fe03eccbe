"""Public betweenness-centrality entry point.

:func:`betweenness_centrality` computes exact (or source-subset) BC
values with the vectorised level-synchronous engine — no cost model,
no simulated device — and is the API example applications build on.
For simulated-GPU performance experiments use
:meth:`repro.gpusim.Device.run_bc`, which returns the same values plus
timing/traces.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from .accumulation import dependency_accumulation
from .brandes import normalize_bc
from .frontier import forward_sweep
from .preprocess import plan_fold

__all__ = ["betweenness_centrality", "bc_single_source_dependencies"]


def bc_single_source_dependencies(g: CSRGraph, source: int) -> np.ndarray:
    """Dependency vector ``delta_s`` for one root (Eq. 2 summed over
    successors); ``BC = sum over roots of delta_s`` (Eq. 3)."""
    fwd = forward_sweep(g, int(source))
    return dependency_accumulation(g, fwd)


def betweenness_centrality(
    g: CSRGraph,
    sources=None,
    normalized: bool = False,
    fold: bool = True,
) -> np.ndarray:
    """Exact betweenness centrality of every vertex.

    Parameters
    ----------
    g:
        Input graph.  For undirected graphs each unordered pair is
        counted once (scores halved), matching NetworkX and Figure 1.
    sources:
        Iterable of roots to accumulate; defaults to all vertices (the
        exact O(mn) computation).  A subset yields the *unscaled*
        partial sum — see :func:`repro.bc.approx.approximate_bc` for
        the rescaled estimator.  An *empty* subset returns the zero
        vector: this is what a zero-root rank contributes in the
        distributed decomposition (:mod:`repro.cluster.distributed`,
        :mod:`repro.resilience`).  Out-of-range roots raise
        ``IndexError`` up front rather than failing mid-traversal.
    normalized:
        Divide by the maximum possible score (Section II-B).
    fold:
        ``True`` (default) applies the degree-1 folding preprocess
        (exact to float round-off — see :mod:`repro.bc.preprocess`);
        ``False`` traverses the original graph.  The fold is computed
        once per graph and memoised.  Identity folds (directed or
        pendant-free graphs) take the classic unfolded path
        automatically.

    Returns
    -------
    ``float64`` array of length ``g.num_vertices``.

    Examples
    --------
    >>> from repro.graph.generators import figure1_graph
    >>> bc = betweenness_centrality(figure1_graph())
    >>> int(np.argmax(bc))  # paper vertex 4 (0-indexed: 3)
    3
    """
    n = g.num_vertices
    roots = None
    if sources is not None:
        roots = np.asarray(sources, dtype=np.int64).ravel()
        if roots.size == 0:
            return np.zeros(n, dtype=np.float64)
        if roots.min() < 0 or roots.max() >= n:
            raise IndexError(f"roots out of range [0, {n})")

    # Unfolded plans traverse ``g`` itself with unit weights, so this
    # is the classic Brandes sum over roots.
    plan = plan_fold(g, roots, fold)
    acc = np.zeros(plan.graph.num_vertices, dtype=np.float64)
    for s in plan.roots:
        fwd = forward_sweep(plan.graph, int(s))
        acc += plan.source_weight(s) * dependency_accumulation(
            plan.graph, fwd, target_weights=plan.target_weights)
    bc = plan.finish(acc)
    if g.undirected:
        bc /= 2.0
    if normalized:
        bc = normalize_bc(bc, n, undirected=g.undirected, copy=False)
    return bc
