"""Wall-clock, layer-by-layer benchmark of the BC service and library.

Run from the root of a source checkout::

    python3 wallbench/run.py --workload service-kron --seed 1 \\
        --seconds 20 --trace 0

A run does a fixed amount of work per ``--seconds`` (each workload's
``ops_per_s``), so every run of a seed does the same operations.
``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice, each for half the time — once
untraced, once with every layer's public functions wrapped in spans —
prints both sets of end-to-end numbers with the difference as tracing
overhead, writes the spans to
``.wallbench/spans-<workload>-seed<seed>.jsonl`` and reports the
per-layer metrics.  Either way the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

from speed import REFERENCE_S, SpeedGauge
from stats import MIN_TAIL_SAMPLES, percentile, quartile_spread, \
    tail_percentile
from tracer import COUNT_METRICS, SPAN_METRICS, Tracer

#: Set-ups per run, ``setup_s`` being their median: at least the first
#: number, and more until they took the second number of seconds (a
#: set-up of a few milliseconds is mostly noise), but never more than
#: the third.
SETUP_REPEATS = (3, 1.0, 500)

#: Operation seconds between two samples of the host speed gauge.
GAUGE_EVERY = 0.05

#: End-to-end metrics scaled to the reference host speed.
SCALED = ("setup_s", "job_p50_s", "job_p90_s", "jobs_per_s", "roots_per_s")

#: End-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("jobs_per_s", "1/s"),
    ("roots_per_s", "1/s"),
    ("sim_mteps", "MTEPS"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics the workload itself reports (name, unit), beside
#: the tracer's span and count metrics.
WORKLOAD_METRICS = (
    ("service.cache.evictions", "count"),
    ("service.results_healed", "count"),
    ("service.dedupe_ratio", "ratio"),
    ("client.retries", "count"),
    ("telemetry.events_bytes", "bytes"),
    ("service.disk_bytes", "bytes"),
    ("bench.ops", "count"),
    ("bench.ops.wall_s", "s"),
)


def per_layer_names() -> list:
    """``(name, unit)`` of every per-layer metric, in report order."""
    return ([(m, u) for m, u, _, _ in SPAN_METRICS] + list(COUNT_METRICS)
            + list(WORKLOAD_METRICS))


def import_program(checkout: str) -> None:
    """Put the checkout's ``src`` first on the path and import it; exit
    non-zero when the checkout holds no program."""
    src = os.path.join(checkout, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"error: no program source under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"error: imported repro from {repro.__file__}, not {src}")


class Phase:
    """One set-up, warm-up and timed loop of a workload."""

    def __init__(self, workload, seconds: float, tracer=None):
        self.workload = workload
        #: ``(seconds, speed factor)`` per set-up.
        self.setups: list = []
        self.ops: list = []
        self.gauge = SpeedGauge()
        self._since_gauge = GAUGE_EVERY
        if tracer is not None:
            tracer.job = "setup"
            tracer.install()
        try:
            least, budget, most = SETUP_REPEATS
            while len(self.setups) < most and (
                    len(self.setups) < least
                    or sum(t for t, _ in self.setups) < budget):
                if self.setups:
                    workload.close()
                self.setups.append(self._timed(workload.setup)[1:])
            if tracer is not None:
                tracer.active = False
            workload.warmup()
            before = workload.counters()
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter()
            for i in range(workload.op_count(seconds)):
                op, _, gauge_index = self._timed(
                    lambda: workload.op(i, tracer))
                op.gauge_index = gauge_index
                self.ops.append(op)
            self.elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.gauge.sample()
        self.setups = [(t, self.gauge.factor(i)) for t, i in self.setups]
        for op in self.ops:
            op.factor = self.gauge.factor(op.gauge_index)
        after = workload.counters()
        self.counters = {k: after[k] - before[k] for k in after}
        self.end_state = workload.end_state()
        self.mismatches = workload.check(self.ops)
        self.decision_failures = workload.decision_failures()
        workload.close()

    def _timed(self, fn):
        """``(result, seconds, gauge sample index)`` of ``fn()``, taking
        a gauge sample first when one is due."""
        if self._since_gauge >= GAUGE_EVERY:
            self.gauge.sample()
            self._since_gauge = 0.0
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        self._since_gauge += elapsed
        return result, elapsed, len(self.gauge.samples) - 1

    @property
    def failed(self) -> int:
        bad = set(self.mismatches)
        return sum(1 for i, op in enumerate(self.ops)
                   if not op.ok or i in bad)

    @property
    def correct(self) -> bool:
        return not self.mismatches and not self.decision_failures

    def end_to_end(self, scaled: bool = True) -> dict:
        """``{metric: (value, samples, spread)}``; the times, and rates
        over them, at reference host speed unless ``scaled`` is false.

        Rates are over the closed loop's busy time, the sum of operation
        latencies."""
        lat = [op.scaled if scaled else op.latency for op in self.ops]
        setup = [t * f if scaled else t for t, f in self.setups]
        n = len(lat)
        done = [op for op in self.ops if op.ok]
        busy = sum(lat)
        sim_s = sum(op.sim_seconds for op in self.ops)
        rates = [1.0 / x for x in lat]
        root_rates = [op.roots / x for op, x in zip(self.ops, lat)]
        return {
            "setup_s": (statistics.median(setup), len(setup),
                        quartile_spread(setup)),
            "job_p50_s": (percentile(lat, 50), n, quartile_spread(lat)),
            "job_p90_s": (percentile(lat, 90), n, quartile_spread(lat)),
            "jobs_per_s": (len(done) / busy, n, quartile_spread(rates)),
            "roots_per_s": (sum(op.roots for op in done) / busy, n,
                            quartile_spread(root_rates)),
            "sim_mteps": ((sum(op.edges for op in self.ops) / sim_s / 1e6
                           if sim_s else 0.0), n, 0.0),
            "ok_frac": ((n - self.failed) / n, n, 0.0),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, 1, 0.0),
        }

    def per_layer(self, tracer) -> dict:
        """``{metric: value}`` from the traced run."""
        values = {m: v for m, (v, _) in tracer.layer_metrics().items()}
        submits = sum(1 for s in tracer.spans if s[0] == "service.submit")
        values.update({
            "service.cache.evictions":
                self.counters.get("service.cache.evictions", 0.0),
            "service.results_healed":
                self.counters.get("service.results_healed", 0.0),
            "service.dedupe_ratio":
                (self.counters.get("service.deduped", 0.0) / submits
                 if submits else 0.0),
            "client.retries": self.counters.get("client.retries", 0.0),
            "telemetry.events_bytes":
                self.end_state.get("telemetry.events_bytes", 0.0),
            "service.disk_bytes":
                self.end_state.get("service.disk_bytes", 0.0),
            "bench.ops": len(self.ops),
            "bench.ops.wall_s": sum(op.latency for op in self.ops),
        })
        return values

    def report_failures(self) -> None:
        errors = [op.error for op in self.ops if op.error]
        for err in errors[:5]:
            print(f"  failed op: {err}")
        if self.mismatches:
            print(f"  {len(self.mismatches)} outputs differ from the "
                  f"reference (first at op {self.mismatches[0]})")
        for msg in self.decision_failures[:5]:
            print(f"  decision check: {msg}")


def print_end_to_end(phase, traced=None) -> None:
    """Each end-to-end metric with its samples and their spread; the
    times both at reference host speed and as measured.  With a traced
    phase, its numbers beside the untraced ones and the difference as
    tracing overhead."""
    e2e, raw = phase.end_to_end(), phase.end_to_end(scaled=False)
    other = traced.end_to_end() if traced is not None else None
    print(f"  {'metric':<14}{'value':>12}{'as measured':>13} {'unit':<6}"
          f"{'n':>6}{'iqr/median':>11}"
          + (f"{'traced':>12}{'tracing overhead':>18}" if other else ""))
    for name, unit in END_TO_END:
        value, n, spread = e2e[name]
        measured = f"{raw[name][0]:>13.6g}" if name in SCALED else " " * 13
        line = (f"  {name:<14}{value:>12.6g}{measured} {unit:<6}{n:>6}"
                f"{spread:>11.3f}")
        if other:
            tv = other[name][0]
            delta = (tv - value) / value if value else 0.0
            line += f"{tv:>12.6g}{delta:>+17.1%}"
        print(line)


def print_per_layer(values: dict, timed: dict) -> None:
    """Each metric, and for span times the share of operation wall time
    spent in that layer during the timed loop (set-up left out)."""
    ops_wall = values["bench.ops.wall_s"]
    print(f"  {'metric':<32}{'value':>14} {'unit':<7}"
          f"{'share of op wall':>17}")
    for name, unit in per_layer_names():
        v = values[name]
        share = (f"{timed[name][0] / ops_wall:>16.1%}"
                 if name in timed and unit == "s" and ops_wall else "")
        print(f"  {name:<32}{v:>14.6g} {unit:<7}{share}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    checkout = os.getcwd()
    import_program(checkout)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"known: {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    out_dir = os.path.join(checkout, ".wallbench")
    workdir = os.path.join(out_dir,
                           f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    # A traced run splits its time between the untraced and the traced
    # phase, so it takes about as long as an untraced run.
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        untraced = Phase(cls(args.seed, workdir), seconds)
        phases = [untraced]
        tracer = None
        if args.trace:
            tracer = Tracer()
            phases.append(Phase(cls(args.seed, workdir), seconds, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wl = untraced.workload
    print(f"wallbench {wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"  why: {wl.why}")
    print(f"  params: {json.dumps(wl.params(), sort_keys=True)}")
    n = len(untraced.ops)
    print(f"  ran {n} operations in {untraced.elapsed:.2f} s; highest "
          f"percentile with {MIN_TAIL_SAMPLES}+ samples beyond it: "
          f"p{tail_percentile(n):g}")
    gauge = untraced.gauge.samples
    print(f"  host speed gauge: median {statistics.median(gauge) * 1e3:.3f} "
          f"ms over {len(gauge)} samples, reference "
          f"{REFERENCE_S * 1e3:.3f} ms, spread {quartile_spread(gauge):.3f}")
    print("end-to-end (value: at reference host speed, see speed.py):")
    print_end_to_end(untraced, phases[1] if tracer else None)
    for ph in phases:
        ph.report_failures()

    if tracer is None:
        e2e = untraced.end_to_end()
        metrics = {name: {"value": e2e[name][0], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        traced = phases[1]
        layer = traced.per_layer(tracer)
        print("per-layer (traced run):")
        print_per_layer(layer, tracer.layer_metrics(skip_job="setup"))
        spans_path = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        print(f"  {len(tracer.spans)} spans written to "
              f"{os.path.relpath(spans_path, checkout)}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in per_layer_names()}
    print(json.dumps({
        "correct": all(ph.correct for ph in phases),
        "attempted": sum(len(ph.ops) for ph in phases),
        "failed": sum(ph.failed for ph in phases),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
