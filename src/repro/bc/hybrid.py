"""Hybrid strategy selection (Algorithm 4).

The hybrid method keeps whatever strategy is in force until the vertex
frontier *changes* by more than ``alpha`` elements between iterations;
at that point it re-selects: edge-parallel when the upcoming frontier
exceeds ``beta`` vertices, work-efficient otherwise.  See
:class:`repro.bc.policies.HybridPolicy` for the decision rule itself;
this module re-exports the paper's defaults and adds a standalone helper
mirroring the pseudocode for testability.
"""

from __future__ import annotations

from .policies import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    EDGE_PARALLEL,
    WORK_EFFICIENT,
    HybridPolicy,
)

__all__ = ["DEFAULT_ALPHA", "DEFAULT_BETA", "select_strategy",
           "HybridPolicy"]


def select_strategy(
    current: str,
    q_curr_len: int,
    q_next_len: int,
    alpha: int = DEFAULT_ALPHA,
    beta: int = DEFAULT_BETA,
) -> str:
    """Algorithm 4 as a pure function.

    >>> select_strategy("work-efficient", 10, 20)
    'work-efficient'
    >>> select_strategy("work-efficient", 10, 2000)
    'edge-parallel'
    >>> select_strategy("edge-parallel", 5000, 100)
    'work-efficient'
    """
    q_change = abs(int(q_next_len) - int(q_curr_len))
    if q_change <= alpha:
        return current
    return EDGE_PARALLEL if int(q_next_len) > beta else WORK_EFFICIENT
