"""The ``repro.events/v1`` lifecycle event stream.

One file, ``events.jsonl``, next to the service journal, same framing
(``<crc32 hex> <canonical single-line JSON>\\n``).  Each event body
carries:

``event``
    Event kind.  Journal-derived kinds (``service-open``, ``submit``,
    ``shed``, ``attempt-start``, ``backoff``, ``done``, ``fail``,
    ``cancel``, ``breaker``) additionally carry ``jseq`` — the sequence
    number of the journal record they mirror.  Scheduler-decision kinds
    (``sched.dispatch``, ``sched.retry``, ``sched.redispatch``,
    ``sched.deadline-degrade`` …) and client-visible kinds
    (``dedupe``) have no ``jseq``: they narrate, the journal decides.
``seq``
    Strictly increasing event number across the file's whole life.
``t``
    *Simulated* seconds on the scheduler clock at emit time.  Never a
    wall-clock reading — this is what makes two identical seeded runs
    byte-identical, the property the CI telemetry job compares.
``trace_id``
    :func:`trace_id_for` of the job's spec — a pure function of the
    content key, so a ``derive_job_id``-deduped resubmit (and a client
    retry after a shed) lands on the *same* trace without any id
    riding the spool ticket or the journal.

**Exactly-once discipline.**  Events are emitted immediately *after*
their journal record is durable (via :attr:`JobJournal.on_append`), so
a crash can only ever lose the event, never duplicate it.  On reopen,
:meth:`TelemetryLog.reconcile` diffs the journal's sequence numbers
against the events' ``jseq`` set and synthesises exactly the missing
ones (their ``t`` is reopen time — occurrence time died with the
process).  Duplicates are impossible by construction: one journal
record, at most one live emit, and reconcile only fills holes.

**Telemetry never fails the service.**  An event append that hits an
injected ``ENOSPC`` is *dropped* (counted in ``telemetry.dropped``) and
repaired by the next reopen's reconcile; a
:class:`~repro.service.storage.SimulatedCrash` propagates, because
nothing may survive its own process death.
"""

from __future__ import annotations

import json
import os
import zlib

from ..observability.clock import SpanClock
from ..observability.registry import NULL_REGISTRY

# NOTE: nothing from repro.service is imported at module level — the
# daemon imports this package, so a top-level import back into
# repro.service would be circular.  JobSpec/ServiceStorage are pulled
# in lazily where needed.

__all__ = [
    "EVENTS_SCHEMA",
    "TelemetryLog",
    "decode_event_line",
    "encode_event",
    "read_events",
    "trace_id_for",
    "verify_events",
]

EVENTS_SCHEMA = "repro.events/v1"

#: Journal record kinds and the event kind each is mirrored as.
_JOURNAL_EVENTS = {
    "open": "service-open",
    "submit": "submit",
    "shed": "shed",
    "start": "attempt-start",
    "requeue": "backoff",
    "done": "done",
    "fail": "fail",
    "cancel": "cancel",
    "breaker": "breaker",
}


def trace_id_for(spec) -> str:
    """The job's trace id: ``tr`` + 16 hex chars of its content key.

    A pure function of *what the job computes* (job id and tenant are
    excluded by :meth:`~repro.service.jobs.JobSpec.content_key`), so
    every resubmission of the same query — a client retry after a shed,
    a ``derive_job_id``-deduped double-send, a recovery re-run — joins
    the one trace.  Accepts a :class:`JobSpec` or its dict form.
    """
    if isinstance(spec, dict):
        from ..service.jobs import JobSpec

        spec = JobSpec.from_dict(spec)
    return "tr" + spec.content_key()[:16]


def encode_event(event: dict) -> str:
    """One event line; same framing as the journal (crc32 + canonical
    JSON) so the two artifacts share torn-tail/rot semantics."""
    body = json.dumps(event, sort_keys=True, separators=(",", ":"))
    if "\n" in body:
        raise ValueError("event bodies must be single-line")
    return f"{zlib.crc32(body.encode('utf-8')) & 0xFFFFFFFF:08x} {body}\n"


def decode_event_line(line: str) -> dict:
    """Inverse of :func:`encode_event`; raises ``ValueError`` on any
    framing/checksum problem (caller classifies torn tail vs rot)."""
    if not line.endswith("\n"):
        raise ValueError("event not newline-terminated (torn write)")
    raw = line[:-1]
    if len(raw) < 10 or raw[8] != " ":
        raise ValueError("bad framing: expected '<crc8> <json>'")
    crc_hex, body = raw[:8], raw[9:]
    try:
        crc = int(crc_hex, 16)
    except ValueError:
        raise ValueError(f"bad checksum field {crc_hex!r}")
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if crc != actual:
        raise ValueError(
            f"checksum mismatch: recorded {crc_hex}, actual {actual:08x}")
    try:
        event = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ValueError(f"checksummed body is not JSON: {exc}")
    if not isinstance(event, dict) or "event" not in event:
        raise ValueError("event body must be an object with an 'event'")
    return event


def read_events(path):
    """Every intact event of one stream; returns ``(events, torn_tail)``.

    Mirrors :func:`~repro.service.journal.read_journal`: a broken last
    line is a torn write (dropped, flagged), broken interior lines are
    at-rest damage — but unlike the journal the stream is *advisory*,
    so interior rot skips the line (counted per caller via
    :func:`verify_events`) instead of refusing to read."""
    if not os.path.exists(path):
        return [], False
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    events, torn = [], False
    for i, line in enumerate(lines):
        try:
            events.append(decode_event_line(line))
        except ValueError:
            if i == len(lines) - 1:
                torn = True
    return events, torn


def verify_events(path, journal_records=None) -> dict:
    """Invariant check over one event stream.

    * event ``seq`` strictly increasing (append-only, no duplicates);
    * ``jseq`` values unique (a journal record is mirrored at most
      once — the exactly-once half the crash grid asserts);
    * with ``journal_records``: every journal sequence number has its
      event (the no-loss half; holds after any clean reopen, because
      reconcile back-fills).

    Returns ``{"ok", "events", "torn_tail", "problems"}``.
    """
    events, torn = read_events(path)
    problems = []
    last_seq = 0
    jseqs = []
    for ev in events:
        seq = ev.get("seq")
        if not isinstance(seq, int) or seq <= last_seq:
            problems.append(f"event seq not increasing at {seq!r}")
        else:
            last_seq = seq
        if "jseq" in ev:
            jseqs.append(ev["jseq"])
    if len(jseqs) != len(set(jseqs)):
        dupes = sorted({j for j in jseqs if jseqs.count(j) > 1})
        problems.append(f"duplicate jseq(s): {dupes}")
    if journal_records is not None:
        missing = [r["seq"] for r in journal_records
                   if r.get("seq") not in set(jseqs)]
        if missing:
            problems.append(f"journal seq(s) with no event: {missing}")
    return {"ok": not problems, "events": len(events),
            "torn_tail": bool(torn), "problems": problems}


class TelemetryLog:
    """Durable, deterministic lifecycle event stream (module docs).

    Parameters
    ----------
    path:
        The stream file (``<service root>/events.jsonl``).
    storage:
        The service's :class:`ServiceStorage` — event appends are
        durable writes and must share the fault/crash chokepoint.
    clock:
        The scheduler's :class:`SpanClock`; only its deterministic
        ``sim_seconds`` is ever read.
    """

    def __init__(self, path, *, storage=None,
                 clock: SpanClock | None = None, metrics=None):
        self.path = str(path)
        if storage is None:
            from ..service.storage import ServiceStorage

            storage = ServiceStorage()
        self.storage = storage
        self.clock = clock if clock is not None else SpanClock()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        #: Events dropped because the disk refused the append (repaired
        #: by the next reopen's reconcile).
        self.dropped = 0
        self.events, torn = read_events(self.path)
        if torn:
            self._truncate_torn()
        self._seq = (self.events[-1]["seq"] + 1) if self.events else 1
        #: job id -> trace id, learned from submit/shed events/records.
        self._trace: dict = {}
        #: job id -> phase accounting (see :meth:`_job`).
        self._jobs: dict = {}
        for ev in self.events:
            self._fold(ev)

    # -- internals -----------------------------------------------------
    def _truncate_torn(self) -> None:
        """Drop the torn (never-acknowledged) tail line, exactly like
        the journal's active-segment reopen."""
        with open(self.path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.readlines()
        keep = 0
        for line in lines[:-1]:
            keep += len(line.encode("utf-8"))
        with open(self.path, "r+b") as fh:
            fh.truncate(keep)
            fh.flush()
            os.fsync(fh.fileno())
        self.metrics.inc("telemetry.torn_truncated")

    def _now(self) -> float:
        return round(float(self.clock.sim_seconds), 9)

    def _job(self, job_id: str) -> dict:
        return self._jobs.setdefault(job_id, {
            "queued": 0.0, "backoff": 0.0, "ready_t": 0.0,
            "terminal": False,
        })

    def _fold(self, ev: dict) -> None:
        """Rebuild per-job accounting from an already-durable event (on
        reopen) without re-emitting it."""
        kind = ev.get("event")
        job_id = ev.get("job_id")
        if ev.get("trace_id") and job_id:
            self._trace[job_id] = ev["trace_id"]
        if not job_id:
            return
        if kind == "submit":
            st = self._job(job_id)
            if st["terminal"]:  # resubmit after terminal failure
                st = {"queued": 0.0, "backoff": 0.0,
                      "ready_t": 0.0, "terminal": False}
                self._jobs[job_id] = st
            st["ready_t"] = float(ev.get("t", 0.0))
        elif kind == "attempt-start":
            self._job(job_id)["queued"] += float(ev.get("queue_wait", 0.0))
        elif kind == "backoff":
            st = self._job(job_id)
            st["backoff"] += float(ev.get("delay", 0.0))
            st["ready_t"] = float(ev.get("t", 0.0))
        elif kind in ("done", "fail", "cancel", "shed"):
            self._job(job_id)["terminal"] = True

    def trace_for(self, job_id) -> str | None:
        """The trace id this job's submit/shed established (if seen)."""
        return self._trace.get(job_id)

    # -- emission ------------------------------------------------------
    def emit(self, kind: str, *, jseq: int | None = None, **fields):
        """Append one event (durable, fsynced); returns it, or ``None``
        when the disk refused and the event was dropped."""
        event = {"event": str(kind), "seq": self._seq, "t": self._now()}
        if jseq is not None:
            event["jseq"] = int(jseq)
        event.update(fields)
        try:
            self.storage.append_line(self.path, encode_event(event),
                                     "journal")
        except OSError:
            # Advisory stream: never fail the service over telemetry.
            # A lost jseq event is back-filled by the next reconcile.
            self.dropped += 1
            self.metrics.inc("telemetry.dropped", kind=str(kind))
            return None
        self._seq += 1
        self.events.append(event)
        self.metrics.inc("telemetry.events", kind=str(kind))
        return event

    # -- journal mirroring ---------------------------------------------
    def on_journal_record(self, rec: dict):
        """Mirror one just-durable journal record as its lifecycle event
        (wired to :attr:`JobJournal.on_append`; also the reconcile
        path).  Returns the emitted event or ``None``."""
        kind = rec.get("kind")
        seq = rec.get("seq")
        if kind == "open":
            return self.emit("service-open", jseq=seq)
        if kind in ("submit", "shed"):
            job = rec.get("job") or {}
            job_id = str(job.get("job_id", ""))
            try:
                trace = trace_id_for(job)
            except Exception:
                trace = None
            if trace and job_id:
                self._trace[job_id] = trace
            common = {
                "trace_id": trace, "job_id": job_id,
                "tenant": job.get("tenant"), "graph": job.get("graph"),
                "strategy": job.get("strategy"),
                "roots": job.get("roots"),
            }
            if kind == "submit":
                st = self._job(job_id)
                if st["terminal"]:  # another attempt after terminal state
                    self._jobs[job_id] = st = {
                        "queued": 0.0, "backoff": 0.0,
                        "ready_t": 0.0, "terminal": False}
                st["ready_t"] = self._now()
                return self.emit("submit", jseq=seq,
                                 mode=rec.get("mode"), **common)
            self._job(job_id)["terminal"] = True
            return self.emit("shed", jseq=seq, reason=rec.get("reason"),
                             **common)
        job_id = str(rec.get("job_id", ""))
        trace = self._trace.get(job_id)
        if kind == "start":
            st = self._job(job_id)
            st["terminal"] = False
            queue_wait = round(max(0.0, self._now() - st["ready_t"]), 9)
            st["queued"] += queue_wait
            return self.emit("attempt-start", jseq=seq, trace_id=trace,
                             job_id=job_id, attempt=rec.get("attempt"),
                             device=rec.get("device"),
                             queue_wait=queue_wait)
        if kind == "requeue":
            st = self._job(job_id)
            delay = round(float(rec.get("delay") or 0.0), 9)
            st["backoff"] += delay
            st["ready_t"] = self._now()
            return self.emit("backoff", jseq=seq, trace_id=trace,
                             job_id=job_id, attempt=rec.get("attempt"),
                             delay=delay, reason=rec.get("reason"))
        if kind in ("done", "fail"):
            st = self._job(job_id)
            st["terminal"] = True
            compute = round(float(rec.get("sim_seconds") or 0.0), 9)
            phases = {"queued": round(st["queued"], 9),
                      "backoff": round(st["backoff"], 9),
                      "compute": compute}
            e2e = round(phases["queued"] + phases["backoff"] + compute, 9)
            if kind == "done":
                return self.emit("done", jseq=seq, trace_id=trace,
                                 job_id=job_id, exact=rec.get("exact"),
                                 degraded_reason=rec.get("degraded_reason"),
                                 device=rec.get("device"),
                                 samples=rec.get("samples"),
                                 phases=phases, e2e=e2e)
            return self.emit("fail", jseq=seq, trace_id=trace,
                             job_id=job_id,
                             error_kind=rec.get("error_kind"),
                             error=rec.get("error"),
                             phases=phases, e2e=e2e)
        if kind == "cancel":
            self._job(job_id)["terminal"] = True
            return self.emit("cancel", jseq=seq, trace_id=trace,
                             job_id=job_id, reason=rec.get("reason"))
        if kind == "breaker":
            return self.emit("breaker", jseq=seq,
                             graph_key=rec.get("graph_key"),
                             strategy=rec.get("strategy"),
                             state=rec.get("state"),
                             failures=rec.get("failures"))
        # Forward compatibility: an unknown journal kind still gets a
        # covering event, so the no-missing-events invariant holds.
        return self.emit("journal-record", jseq=seq, kind=kind)

    def reconcile(self, journal_records) -> int:
        """Back-fill the event for every journal record that has none
        (crash between the journal append and the event append, or an
        event dropped on a full disk).  Returns events synthesised.

        Must run at service open, *before* the live
        ``on_append`` hook is wired, with the full replayed journal
        chain — order is journal order, so per-job phase accounting
        resumes exactly where the previous process left it."""
        seen = {ev["jseq"] for ev in self.events if "jseq" in ev}
        # Learn every trace id first: a trailing `done` may need the
        # trace of a `submit` that is already event-covered.
        for rec in journal_records:
            if rec.get("kind") in ("submit", "shed"):
                job = rec.get("job") or {}
                job_id = str(job.get("job_id", ""))
                if job_id and job_id not in self._trace:
                    try:
                        self._trace[job_id] = trace_id_for(job)
                    except Exception:
                        pass
        synthesised = 0
        for rec in journal_records:
            if rec.get("seq") in seen:
                continue
            if self.on_journal_record(rec) is not None:
                synthesised += 1
        if synthesised:
            self.metrics.inc("telemetry.reconciled", float(synthesised))
        return synthesised

    # -- accounting ----------------------------------------------------
    def total_bytes(self) -> int:
        try:
            return os.path.getsize(self.path)
        except OSError:
            return 0
