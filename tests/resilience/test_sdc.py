"""Acceptance grid for the silent-data-corruption layer.

The contract under ``verify=paranoid``: for every single injected
bit-flip — any site, any victim rank, any root position — the run is
either detected-and-repaired (``exact`` and bitwise-close to fault-free
Brandes) or explicitly degraded (``exact`` is False and the corruption
is surfaced in the report).  Never silently wrong.
"""

import numpy as np
import pytest

from repro.bc.brandes import brandes_reference
from repro.errors import SilentCorruptionError
from repro.graph.generators import watts_strogatz
from repro.gpusim import Device
from repro.observability import MetricsRegistry
from repro.resilience import (
    SDC,
    FaultEvent,
    FaultPlan,
    FaultyDevice,
    resilient_distributed_bc,
)

pytestmark = pytest.mark.sdc

NUM_RANKS = 3
PER_ROOT_SITES = ("sigma", "delta", "dist")


@pytest.fixture(scope="module")
def graph():
    return watts_strogatz(32, k=4, p=0.1, seed=3)


@pytest.fixture(scope="module")
def reference(graph):
    return brandes_reference(graph)


def _run(graph, plan, verify="paranoid", **kwargs):
    return resilient_distributed_bc(
        graph, NUM_RANKS, fault_plan=plan, verify=verify, seed=0, **kwargs)


def _assert_repaired_or_surfaced(run, reference):
    if run.exact:
        assert run.corruption_detected > 0, (
            "fault injected but nothing detected and result claims exact")
        np.testing.assert_allclose(run.values, reference, rtol=1e-6, atol=1e-9)
    else:
        assert run.degraded_roots > 0 or run.corrupted_reduce, (
            "inexact result without a surfaced degradation cause")


class TestExhaustiveSingleCorruption:
    """Every fault site x victim rank x root position, default bit."""

    @pytest.mark.parametrize("rank", range(NUM_RANKS))
    @pytest.mark.parametrize("root_index", range(3))
    @pytest.mark.parametrize("site", PER_ROOT_SITES)
    def test_per_root_sites(self, graph, reference, site, rank, root_index):
        plan = FaultPlan.sdc(rank, site=site, root_index=root_index)
        run = _run(graph, plan)
        _assert_repaired_or_surfaced(run, reference)
        assert run.corruption_detected >= 1
        assert run.roots_requarantined >= 1
        assert any(i.kind == SDC for i in run.incidents)

    @pytest.mark.parametrize("rank", range(NUM_RANKS))
    def test_partial_site(self, graph, reference, rank):
        run = _run(graph, FaultPlan.sdc(rank, site="partial"))
        _assert_repaired_or_surfaced(run, reference)
        # A corrupted unit partial cannot be attributed to one root, so
        # the whole unit is quarantined and recomputed.
        assert run.roots_requarantined >= 1

    @pytest.mark.parametrize("rank", range(NUM_RANKS))
    def test_reduce_site(self, graph, reference, rank):
        run = _run(graph, FaultPlan.sdc(rank, site="reduce"))
        _assert_repaired_or_surfaced(run, reference)
        assert run.reduce_retries >= 1
        assert not run.corrupted_reduce

    # A flip can zero sigma outright (e.g. bit 62 of 2.0), making the
    # corrupted accumulation divide by zero before detection kicks in.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bit", [40, 55, 62])
    @pytest.mark.parametrize("site", PER_ROOT_SITES)
    def test_bit_positions(self, graph, reference, site, bit):
        plan = FaultPlan.sdc(1, site=site, root_index=1, bit=bit)
        run = _run(graph, plan)
        _assert_repaired_or_surfaced(run, reference)


class TestVerifyOffIsSilentlyWrong:
    """The vulnerability the layer exists to close: without
    verification the same flip passes through and the run still claims
    to be exact."""

    def test_delta_flip_undetected(self, graph, reference):
        run = _run(graph, FaultPlan.sdc(0, site="delta"), verify="off")
        assert run.exact
        assert run.corruption_detected == 0
        assert not np.allclose(run.values, reference)

    def test_reduce_flip_undetected(self, graph, reference):
        run = _run(graph, FaultPlan.sdc(0, site="reduce"), verify="off")
        assert run.exact
        assert not np.allclose(run.values, reference)


class TestDegradationSurfaced:
    def test_exhausted_reduce_budget_is_flagged(self, graph, reference):
        # Every reduce attempt is corrupted and the retry budget is
        # zero: the run must refuse to claim exactness.
        plan = FaultPlan((FaultEvent(SDC, 0, site="reduce", times=5),))
        run = _run(graph, plan, max_retries=0)
        assert run.corrupted_reduce
        assert not run.exact
        assert "corruption" in run.summary()

    def test_summary_mentions_verification(self, graph):
        run = _run(graph, FaultPlan.sdc(0, site="delta"))
        assert "paranoid" in run.summary()
        assert run.verification == "paranoid"


class TestDevicePath:
    """The simulated device detects the same corruptions in-kernel."""

    @pytest.mark.parametrize("site", PER_ROOT_SITES + ("partial",))
    def test_faulty_device_raises(self, graph, site):
        plan = FaultPlan.sdc(0, site=site)
        device = FaultyDevice(rank=0, faults=plan.start(seed=0))
        with pytest.raises(SilentCorruptionError) as err:
            device.run_bc(graph, roots=np.arange(8), check_memory=False,
                          verify="paranoid")
        assert err.value.violations

    def test_clean_device_paranoid_matches_reference(self, graph, reference):
        got = Device().run_bc(graph, roots=np.arange(graph.num_vertices),
                              check_memory=False, verify="paranoid").bc
        np.testing.assert_allclose(got, reference)

    def test_faulty_device_verify_off_is_silently_wrong(self, graph,
                                                        reference):
        plan = FaultPlan.sdc(0, site="delta")
        device = FaultyDevice(rank=0, faults=plan.start(seed=0))
        got = device.run_bc(graph, roots=np.arange(graph.num_vertices),
                            check_memory=False).bc
        assert not np.allclose(got, reference)

    @pytest.mark.parametrize("verify", ["paranoid", "off"])
    def test_observed_runs_leave_the_sweep_memo_alone(self, verify):
        """Bit-flips strike a fresh sweep, never a memoised one: an
        observed run adds, replaces and mutates no memo entry, and the
        clean pass after it stays exact."""
        from repro.bc.engine import sweep_memo

        g = watts_strogatz(32, k=4, p=0.1, seed=3)
        clean = Device().run_bc(g, roots=np.arange(8), check_memory=False,
                                fold=False)
        memo = sweep_memo(g)
        before = dict(memo.entries)
        plan = FaultPlan(tuple(FaultEvent(SDC, 0, site=site, root_index=i)
                               for i, site in enumerate(("sigma", "delta"))))
        device = FaultyDevice(rank=0, faults=plan.start(seed=0))
        roots = np.arange(2, 14)  # memoised roots first, then new ones
        if verify == "paranoid":
            with pytest.raises(SilentCorruptionError):
                device.run_bc(g, roots=roots, check_memory=False,
                              verify=verify, fold=False)
        else:
            got = device.run_bc(g, roots=roots, check_memory=False,
                                fold=False).bc
            assert not np.allclose(got, brandes_reference(g, sources=roots))
        assert memo.entries == before
        again = Device().run_bc(g, roots=np.arange(8), check_memory=False,
                                fold=False)
        np.testing.assert_array_equal(again.bc, clean.bc)
        np.testing.assert_allclose(again.bc,
                                   brandes_reference(g, sources=range(8)))
        for sweep, _ in memo.entries.values():
            arrays = [sweep.s, sweep.ends, sweep.ef, sweep.delta,
                      *sweep._tables.values()]
            assert not any(a.flags.writeable for a in arrays)
            with pytest.raises(ValueError):
                sweep.delta[0] = 1.0


def test_metrics_counters_threaded(graph):
    metrics = MetricsRegistry()
    run = resilient_distributed_bc(
        graph, NUM_RANKS, fault_plan=FaultPlan.sdc(1, site="sigma"),
        verify="paranoid", seed=0, metrics=metrics)
    assert run.exact
    counters = {c["name"] for c in metrics.export()["counters"]}
    assert "verify.faults_injected" in counters
    assert "verify.corruption_detected" in counters
    assert "resilience.roots_requarantined" in counters
    assert "verify.overhead_seconds" in counters
