"""Kernel-profile export: trace fidelity, CLI, and byte-determinism."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graph.generators.suite import make_dataset
from repro.gpusim import Device
from repro.observability import MetricsRegistry, dumps, run_profile


@pytest.fixture
def device_run(small_sw):
    metrics = MetricsRegistry()
    # Small thresholds, so the hybrid roots mix strategies.
    run = Device().run_bc(small_sw, strategy="hybrid",
                          roots=np.arange(12), metrics=metrics,
                          alpha=2, beta=10)
    return small_sw, run, metrics


class TestRunProfile:
    def test_levels_match_trace_exactly(self, device_run):
        """Acceptance: every exported level row equals the in-memory
        RunTrace — frontier sizes, stages, strategies, cycles."""
        _, run, _ = device_run
        doc = run_profile(run)
        assert len(doc["trace"]["kernels"]) == len(run.trace.roots)
        for kernel, rt in zip(doc["trace"]["kernels"], run.trace.roots):
            assert kernel["root"] == rt.root
            assert kernel["cycles"] == rt.cycles
            assert len(kernel["levels"]) == len(rt.levels)
            for row, lv in zip(kernel["levels"], rt.levels):
                assert row["depth"] == lv.depth
                assert row["stage"] == lv.stage
                assert row["strategy"] == lv.strategy
                assert row["frontier"] == lv.frontier_size
                assert row["edge_frontier"] == lv.edge_frontier
                assert row["cycles"] == lv.cycles

    def test_forward_frontiers_match_metrics_counters(self, device_run):
        """The engine.* counters and the frontier-size histogram and the
        trace describe the same sweep, forward and backward, on the
        per-root engine (hybrid, whose roots mix strategies) and on the
        batched frontier-matrix path alike."""
        from repro.observability.registry import Histogram

        _, hybrid, hybrid_metrics = device_run
        g = make_dataset("kron_g500-logn20", scale_factor=1024)
        batched_metrics = MetricsRegistry()
        batched = Device().run_bc(g, strategy="batched",
                                  roots=np.arange(16), n_samps=4,
                                  batch_size=4, metrics=batched_metrics)
        assert batched.sampling_chose_edge_parallel  # the batches ran
        assert any(len(rt.strategies_used()) > 1 for rt in hybrid.trace.roots)
        for run, metrics in ((hybrid, hybrid_metrics),
                             (batched, batched_metrics)):
            (hist,) = [h for h in metrics.histograms()
                       if h.name == "engine.frontier_size"]
            want = Histogram("engine.frontier_size", {}, hist.buckets)
            for rt in run.trace.roots:
                for lv in rt.levels:
                    if lv.stage == "forward":
                        want.observe(lv.frontier_size)
            assert hist.labels == {"stage": "forward"}
            assert (hist.counts, hist.count, hist.total) == \
                (want.counts, want.count, want.total)
            for stage in ("forward", "backward"):
                levels = [lv for rt in run.trace.roots for lv in rt.levels
                          if lv.stage == stage]

                def total(name, stage=stage, metrics=metrics):
                    return sum(c.value for c in metrics.counters()
                               if c.name == name
                               and c.labels.get("stage") == stage)

                assert total("engine.levels") == len(levels)
                assert total("engine.frontier_vertices") == sum(
                    lv.frontier_size for lv in levels)
                assert total("engine.frontier_edges") == sum(
                    lv.edge_frontier for lv in levels)
                assert total("engine.cycles") == pytest.approx(
                    sum(lv.cycles for lv in levels))

    def test_run_and_device_sections(self, device_run):
        g, run, _ = device_run
        doc = run_profile(run, graph=g)
        assert doc["schema"] == "repro.profile/v1"
        assert doc["run"]["strategy"] == "hybrid"
        assert doc["run"]["roots"] == list(range(12))
        assert doc["device"]["name"] == run.spec.name
        assert doc["graph"]["num_vertices"] == g.num_vertices
        assert doc["trace"]["makespan_cycles"] == run.cycles

    def test_profile_body_is_json_stable(self, device_run):
        g, run, _ = device_run
        a = dumps(run_profile(run, graph=g))
        b = dumps(run_profile(run, graph=g))
        assert a == b


class TestProfileCommand:
    ARGS = ["profile", "--graph", "kron_g500-logn20",
            "--scale-factor", "8192", "--roots", "4"]

    def test_writes_profile_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "profile.json"
        mout = tmp_path / "metrics.json"
        rc = main(self.ARGS + ["--out", str(out),
                               "--metrics-out", str(mout)])
        assert rc == 0
        assert "makespan cycles" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.profile/v1"
        assert doc["run"]["num_roots"] == 4
        assert doc["trace"]["kernels"]
        metrics = json.loads(mout.read_text())
        assert metrics["schema"] == "repro.observability/v1"
        names = {c["name"] for c in metrics["counters"]}
        assert {"device.runs", "device.roots", "engine.levels",
                "engine.frontier_vertices"} <= names

    def test_rerun_is_byte_identical_outside_timing(self, tmp_path, capsys):
        """Determinism: two profile runs differ only under "timing"."""
        docs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            assert main(self.ARGS + ["--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        capsys.readouterr()
        assert docs[0] != docs[1] or docs[0]["timing"] == docs[1]["timing"]
        for doc in docs:
            doc.pop("timing")
        assert dumps(docs[0]).encode() == dumps(docs[1]).encode()

    def test_metrics_out_on_experiment_command(self, tmp_path, capsys):
        mout = tmp_path / "m.json"
        assert main(["figure1", "--metrics-out", str(mout)]) == 0
        capsys.readouterr()
        doc = json.loads(mout.read_text())
        assert {"name": "cli.experiments_rendered",
                "labels": {"name": "figure1"}, "value": 1.0} \
            in doc["counters"]
        assert doc["timing"]["spans"][0]["name"] == "experiment"
