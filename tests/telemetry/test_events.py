"""The repro.events/v1 stream: framing, durability, exactly-once."""

from __future__ import annotations

import os

import pytest

from repro.observability import MetricsRegistry
from repro.resilience.faults import ActiveFaults, FaultPlan
from repro.service import DONE, BCService, JobSpec
from repro.service.storage import ServiceStorage
from repro.telemetry import (
    TelemetryLog,
    decode_event_line,
    encode_event,
    read_events,
    trace_id_for,
    verify_events,
)

pytestmark = pytest.mark.telemetry


def spec(i=1, **kw):
    kw.setdefault("job_id", f"j{i:06d}")
    kw.setdefault("graph", "smallworld")
    kw.setdefault("scale_factor", 512)
    kw.setdefault("strategy", "sampling")
    kw.setdefault("roots", 4)
    kw.setdefault("seed", i)
    return JobSpec(**kw)


# -- framing ------------------------------------------------------------
def test_encode_decode_roundtrip():
    ev = {"event": "submit", "seq": 3, "t": 0.25, "job_id": "j1"}
    assert decode_event_line(encode_event(ev)) == ev


def test_decode_rejects_bad_checksum_and_framing():
    line = encode_event({"event": "done", "seq": 1, "t": 0.0})
    with pytest.raises(ValueError):
        decode_event_line(line[:-1])            # no newline: torn
    with pytest.raises(ValueError):
        decode_event_line("0" * 8 + " {}\n")    # body without 'event'
    corrupt = line.replace("done", "fail")      # crc no longer matches
    with pytest.raises(ValueError):
        decode_event_line(corrupt)


def test_read_events_drops_torn_tail_keeps_interior(tmp_path):
    path = tmp_path / "events.jsonl"
    lines = [encode_event({"event": "a", "seq": i, "t": 0.0})
             for i in (1, 2, 3)]
    path.write_text("".join(lines) + lines[0][: len(lines[0]) // 2])
    events, torn = read_events(str(path))
    assert torn and [e["seq"] for e in events] == [1, 2, 3]


def test_missing_file_is_empty_stream(tmp_path):
    events, torn = read_events(str(tmp_path / "none.jsonl"))
    assert events == [] and torn is False
    assert verify_events(str(tmp_path / "none.jsonl"))["ok"]


# -- trace ids ----------------------------------------------------------
def test_trace_id_pure_function_of_content():
    a = spec(1)
    # Same content under a different job id / tenant: same trace.
    b = spec(1, job_id="other", tenant="acme")
    assert trace_id_for(a) == trace_id_for(b.to_dict())
    assert trace_id_for(a).startswith("tr") and len(trace_id_for(a)) == 18
    assert trace_id_for(spec(2)) != trace_id_for(a)


# -- emission / reopen --------------------------------------------------
def test_emit_seq_monotone_across_reopen(tmp_path):
    path = str(tmp_path / "events.jsonl")
    log = TelemetryLog(path)
    log.emit("a")
    log.emit("b", jseq=1)
    log2 = TelemetryLog(path)
    ev = log2.emit("c")
    assert ev["seq"] == 3
    assert verify_events(path)["ok"]


def test_torn_tail_truncated_on_reopen(tmp_path):
    path = tmp_path / "events.jsonl"
    log = TelemetryLog(str(path))
    log.emit("a")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("deadbeef {\"event\"")          # torn mid-write
    log2 = TelemetryLog(str(path))
    assert [e["event"] for e in log2.events] == ["a"]
    events, torn = read_events(str(path))       # file itself repaired
    assert not torn and len(events) == 1


def test_torn_tail_truncate_is_fsynced(tmp_path, monkeypatch):
    path = tmp_path / "events.jsonl"
    TelemetryLog(str(path)).emit("a")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("deadbeef {\"event\"")          # torn mid-write
    synced = []
    real_fsync = os.fsync

    def spy(fd):
        st = os.fstat(fd)
        synced.append((st.st_ino, st.st_size))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    TelemetryLog(str(path))
    st = os.stat(path)
    # The file was fsynced after the truncate, at its repaired length.
    assert (st.st_ino, st.st_size) in synced


def test_enospc_drops_event_and_counts(tmp_path):
    path = str(tmp_path / "events.jsonl")
    storage = ServiceStorage(
        faults=ActiveFaults(FaultPlan.parse("enospc:0@journal")))
    metrics = MetricsRegistry()
    log = TelemetryLog(path, storage=storage, metrics=metrics)
    assert log.emit("a") is None
    assert log.dropped == 1
    ok = log.emit("b")                          # fault consumed; next lands
    assert ok is not None and ok["seq"] == 1    # dropped seq not consumed
    assert [e["event"] for e in read_events(path)[0]] == ["b"]


def test_reconcile_backfills_missing_and_never_duplicates(tmp_path):
    path = str(tmp_path / "events.jsonl")
    records = [
        {"kind": "open", "seq": 1},
        {"kind": "submit", "seq": 2, "job": spec(1).to_dict(),
         "mode": "admit"},
        {"kind": "start", "seq": 3, "job_id": "j000001", "attempt": 1,
         "device": "dev0"},
        {"kind": "done", "seq": 4, "job_id": "j000001", "exact": True,
         "degraded_reason": None, "sim_seconds": 0.5, "device": "dev0"},
    ]
    log = TelemetryLog(path)
    log.on_journal_record(records[0])
    log.on_journal_record(records[1])           # seq 3, 4 never mirrored

    log2 = TelemetryLog(path)
    assert log2.reconcile(records) == 2
    res = verify_events(path, journal_records=records)
    assert res["ok"], res["problems"]
    # The back-filled done event knows its trace id via the submit
    # record even though that submit was already event-covered.
    done = [e for e in read_events(path)[0] if e["event"] == "done"][0]
    assert done["trace_id"] == trace_id_for(spec(1))
    # A second reconcile is a no-op: exactly-once, not at-least-once.
    log3 = TelemetryLog(path)
    assert log3.reconcile(records) == 0


def test_verify_catches_duplicate_jseq_and_nonmonotone_seq(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(
        encode_event({"event": "a", "seq": 1, "t": 0.0, "jseq": 1})
        + encode_event({"event": "b", "seq": 1, "t": 0.0, "jseq": 1}))
    res = verify_events(str(path))
    assert not res["ok"]
    assert any("jseq" in p for p in res["problems"])
    assert any("seq not increasing" in p for p in res["problems"])


# -- service integration ------------------------------------------------
def run_service(root):
    with BCService(root) as svc:
        svc.submit(spec(1))
        svc.submit(spec(2, faults="fail:0@compute+1"))
        svc.run_pending()
        records = list(svc.journal.records)
    return records


def test_stream_covers_every_journal_record(tmp_path):
    records = run_service(tmp_path / "svc")
    res = verify_events(str(tmp_path / "svc" / "events.jsonl"),
                        journal_records=records)
    assert res["ok"], res["problems"]


def test_two_identical_runs_are_byte_identical(tmp_path):
    run_service(tmp_path / "a")
    run_service(tmp_path / "b")
    a = (tmp_path / "a" / "events.jsonl").read_bytes()
    b = (tmp_path / "b" / "events.jsonl").read_bytes()
    assert a == b and a  # simulated clock only: deterministic streams


def test_restart_reconciles_and_stays_exactly_once(tmp_path):
    root = tmp_path / "svc"
    run_service(root)
    # Model the worst crash: the whole event stream lost, journal intact.
    os.remove(root / "events.jsonl")
    with BCService(root) as svc:
        res = verify_events(str(root / "events.jsonl"),
                            journal_records=svc.journal.records)
        assert res["ok"], res["problems"]


def test_telemetry_never_fails_the_service(tmp_path):
    # Every telemetry append hits ENOSPC; jobs must still run to DONE.
    # The journal shares the 'journal' fault target, so the full disk
    # is wired onto the telemetry log's storage alone.
    svc = BCService(tmp_path / "svc")
    svc.telemetry.storage = ServiceStorage(
        faults=ActiveFaults(FaultPlan.parse("enospc:0@journalx1000")))
    svc.submit(spec(1))
    svc.run_pending()
    assert svc.jobs["j000001"].state == DONE
    assert svc.telemetry.dropped > 0
    svc.close()
    # And the next open heals every hole the full disk tore.
    with BCService(tmp_path / "svc") as svc2:
        res = verify_events(str(tmp_path / "svc" / "events.jsonl"),
                            journal_records=svc2.journal.records)
        assert res["ok"], res["problems"]
