"""Tests for the correlated JSON-lines event log."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    EventLog,
    current_event_log,
    current_run_id,
    emit,
    new_run_id,
    read_events,
)


class TestEventLog:
    def test_every_event_carries_the_run_id(self) -> None:
        log = EventLog(run_id="run-test")
        log.emit("a")
        log.emit("b", x=1)
        assert [e["run_id"] for e in log.events()] == ["run-test", "run-test"]

    def test_run_id_generated_when_omitted(self) -> None:
        assert EventLog().run_id.startswith("run-")
        assert new_run_id() != new_run_id()

    def test_seq_is_monotonic_and_len_counts_all(self) -> None:
        log = EventLog(buffer=2)
        for _ in range(5):
            log.emit("tick")
        assert len(log) == 5
        assert [e["seq"] for e in log.events()] == [4, 5]  # ring kept tail

    def test_kind_filter_and_limit(self) -> None:
        log = EventLog()
        log.emit("a")
        log.emit("b")
        log.emit("a")
        assert [e["seq"] for e in log.events("a")] == [1, 3]
        assert [e["seq"] for e in log.events(limit=1)] == [3]

    def test_buffer_must_be_positive(self) -> None:
        with pytest.raises(ObservabilityError, match="buffer"):
            EventLog(buffer=0)

    def test_numpy_fields_serialize(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("solve", residual=np.float64(0.5), n=np.int64(7))
        event = read_events(path)[0]
        assert event["residual"] == 0.5
        assert event["n"] == 7

    def test_jsonl_round_trip(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        with EventLog(path, run_id="run-rt") as log:
            log.emit("start", stage="rank")
            log.emit("end")
        events = read_events(path)
        assert [e["kind"] for e in events] == ["start", "end"]
        assert all(e["run_id"] == "run-rt" for e in events)

    def test_torn_trailing_line_is_skipped(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("whole")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"kind": "torn", "ru')  # crash mid-write
        events = read_events(path)
        assert [e["kind"] for e in events] == ["whole"]

    def test_lines_that_are_not_events_are_skipped(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.emit("first")
        with path.open("ab") as fh:
            fh.write(b'[1]\n3\n"text"\nnull\n\xff\xfe{"kind": "bad"}\n')
        with EventLog(path) as log:
            log.emit("last")
        events = read_events(path)
        assert all(isinstance(e, dict) for e in events)
        assert [e["kind"] for e in events] == ["first", "last"]

    def test_close_is_idempotent(self, tmp_path) -> None:
        log = EventLog(tmp_path / "events.jsonl")
        log.close()
        log.close()


class TestAmbientEmit:
    def test_emit_is_noop_without_active_log(self) -> None:
        assert current_event_log() is None
        assert current_run_id() is None
        assert emit("orphan") is None

    def test_activate_routes_module_level_emit(self) -> None:
        log = EventLog(run_id="run-amb")
        with log.activate():
            assert current_event_log() is log
            assert current_run_id() == "run-amb"
            event = emit("inside", x=1)
        assert event is not None and event["run_id"] == "run-amb"
        assert current_event_log() is None
        assert [e["kind"] for e in log.events()] == ["inside"]

    def test_activation_nests_and_restores(self) -> None:
        outer, inner = EventLog(run_id="run-o"), EventLog(run_id="run-i")
        with outer.activate():
            with inner.activate():
                assert current_run_id() == "run-i"
            assert current_run_id() == "run-o"

    def test_activation_does_not_leak_into_threads(self) -> None:
        log = EventLog()
        seen: list[object] = []

        def worker() -> None:
            seen.append(current_event_log())
            with log.activate():
                emit("from-thread")

        with log.activate():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        # Fresh threads start without the ambient log (contextvars do not
        # propagate) and must re-activate inside the thread body.
        assert seen == [None]
        assert [e["kind"] for e in log.events()] == ["from-thread"]

    def test_concurrent_emits_are_not_lost(self) -> None:
        log = EventLog(buffer=10_000)

        def hammer() -> None:
            with log.activate():
                for _ in range(200):
                    emit("tick")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 800
        assert sorted(e["seq"] for e in log.events()) == list(range(1, 801))

    def test_file_lines_are_valid_json(self, tmp_path) -> None:
        path = tmp_path / "events.jsonl"
        with EventLog(path) as log, log.activate():
            emit("a", nested={"x": [1, 2]}, text='quo"te')
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line)


class TestAuditEvents:
    def test_violations_emit_on_the_active_log(self) -> None:
        from repro.audit.invariants import InvariantViolation, record_violations

        log = EventLog()
        violation = InvariantViolation(
            invariant="row_stochastic", subject="T'", message="row 3", value=0.1
        )
        with log.activate():
            record_violations([violation], strict=False, warn=False)
        (event,) = log.events("audit_violation")
        assert event["invariant"] == "row_stochastic"
        assert event["run_id"] == log.run_id
        assert event["strict"] is False
