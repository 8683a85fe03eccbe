"""Pinned simulated traces: every strategy's cycles, schedule and
decision events on small graphs, compared against a stored fixture.

The fixture ``trace_pin.json`` holds, per run, the makespan, the
sampling/batched fixed phase, the per-SM loads, every root's cycles,
forward strategy sequence and level count, and the full
``metrics.events`` list.  Cycles compare with ``rel=1e-12``; everything
else must match exactly.  Rewrite the fixture only for a deliberate
change to the cost model or the decision rules::

    PYTHONPATH=src python tests/gpusim/test_trace_pin.py
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from repro.graph.build import from_edges
from repro.graph.generators import kronecker_graph, road_network
from repro.gpusim import Device
from repro.gpusim.device import STRATEGIES
from repro.observability import MetricsRegistry

FIXTURE = Path(__file__).with_name("trace_pin.json")


def _overflow_graph():
    """Deep wide-path graph whose path counts overflow the batched
    float64 sweep (the same graph as ``tests/bc/test_batched.py``)."""
    edges = []
    prev = [0]
    nxt = 1
    for _ in range(380):
        layer = list(range(nxt, nxt + 8))
        nxt += 8
        edges.extend((p, q) for p in prev for q in layer)
        prev = layer
    return from_edges(edges)


def _graphs():
    # kron: small diameter, sampling picks edge-parallel and the
    # hybrid policy switches; road: high diameter, work-efficient.
    return {"kron": kronecker_graph(11, edge_factor=8, seed=5),
            "road": road_network(100, seed=11)}


def _cases():
    """``(case id, graph name, run_bc kwargs)`` for every pinned run."""
    cases = []
    for gname, nroots, n_samps in (("kron", 6, 3), ("road", 3, 2)):
        for strategy in STRATEGIES:
            for fold in (True, False):
                cases.append((f"{gname}-{strategy}-fold{int(fold)}", gname,
                              dict(strategy=strategy, fold=fold,
                                   n_samps=n_samps, batch_size=2,
                                   roots=("spread", nroots))))
    # Batched under verification: the per-root fallback.
    cases.append(("kron-batched-verify", "kron",
                  dict(strategy="batched", fold=True, n_samps=3,
                       batch_size=2, verify="sampled",
                       roots=("spread", 6))))
    # Batched frontier-matrix overflow: a mid-depth sample root picks
    # batched, then the end-to-end root overflows and is retried.
    cases.append(("overflow-batched", "overflow",
                  dict(strategy="batched", fold=False, n_samps=1,
                       gamma=100.0, batch_size=1, roots=[1513, 0])))
    return cases


def _roots(g, spec):
    if isinstance(spec, tuple):
        _, k = spec
        return np.arange(0, g.num_vertices, g.num_vertices // k)[:k]
    return np.asarray(spec, dtype=np.int64)


def _run(graphs, gname, kwargs):
    g = graphs[gname]
    kwargs = dict(kwargs)
    roots = _roots(g, kwargs.pop("roots"))
    metrics = MetricsRegistry()
    run = Device().run_bc(g, roots=roots, metrics=metrics, **kwargs)
    return {
        "makespan": run.cycles,
        "fixed_cycles": run.fixed_cycles,
        "fixed_roots": run.fixed_roots,
        "sampling_chose_edge_parallel": run.sampling_chose_edge_parallel,
        "sm_cycles": [float(c) for c in run.trace.sm_cycles],
        "roots": [[int(rt.root), rt.cycles,
                   {str(d): s for d, s in rt.strategy_by_depth().items()},
                   len(rt.levels)] for rt in run.trace.roots],
        "events": json.loads(json.dumps(metrics.events)),
    }


def _all_graphs():
    graphs = _graphs()
    graphs["overflow"] = _overflow_graph()
    return graphs


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def graphs():
    return _all_graphs()


def _approx(values):
    return pytest.approx(values, rel=1e-12, abs=0.0)


def test_fixture_covers_every_case(pinned):
    assert sorted(pinned) == sorted(cid for cid, _, _ in _cases())


@pytest.mark.parametrize("cid,gname,kwargs", _cases(),
                         ids=[c[0] for c in _cases()])
def test_trace_matches_pin(pinned, graphs, cid, gname, kwargs):
    got, want = _run(graphs, gname, kwargs), copy.deepcopy(pinned[cid])
    # Cycles to 1e-12 relative; everything else exactly.
    for key in ("makespan", "fixed_cycles", "sm_cycles"):
        assert got.pop(key) == _approx(want.pop(key)), key
    assert [r[1] for r in got["roots"]] == _approx([r[1] for r in want["roots"]])
    for r in got["roots"] + want["roots"]:
        del r[1]
    assert got == want


def test_pins_exercise_every_branch(pinned):
    """The pinned runs cover what they are meant to: both sampling
    outcomes, a hybrid switch, the verified batched fallback and the
    overflow retry."""
    assert pinned["kron-sampling-fold0"]["sampling_chose_edge_parallel"]
    assert pinned["road-sampling-fold0"]["sampling_chose_edge_parallel"] is False
    hybrid = {s for r in pinned["kron-hybrid-fold1"]["roots"]
              for s in r[2].values()}
    assert hybrid == {"work-efficient", "edge-parallel"}
    verify = [e for e in pinned["kron-batched-verify"]["events"]
              if e["event"] == "decision.batched"]
    assert verify[0]["verified_per_root"] is True
    overflow = pinned["overflow-batched"]
    assert overflow["sampling_chose_edge_parallel"] is True
    assert all(set(r[2].values()) == {"work-efficient"}
               for r in overflow["roots"])


if __name__ == "__main__":
    graphs = _all_graphs()
    doc = {cid: _run(graphs, gname, kwargs) for cid, gname, kwargs in _cases()}
    FIXTURE.write_text(json.dumps(doc, separators=(",", ":"), sort_keys=True)
                       + "\n")
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes, {len(doc)} runs)")
