"""Structured JSON-lines event log with run correlation IDs.

One :class:`EventLog` records everything that *happened* during a run —
pipeline stages, solver starts/stops, fallbacks, checkpoint saves and
resumes, snapshot publishes, serving state transitions — as one JSON
object per line, each stamped with a monotone sequence number and the
log's **run id**.  The run id is generated once at pipeline or service
start and rides on every event, so a single ``run_id`` stitches a solve
together from admission to snapshot publish across layers and threads.

Layers below the pipeline never hold a log reference: they call the
module-level :func:`emit`, which writes to the *ambient* log installed
by :meth:`EventLog.activate` (a :mod:`contextvars` variable, mirroring
:func:`repro.observability.tracing.span`).  With no active log the call
is a dict lookup and a ``None`` check — effectively free, so
instrumentation can stay unconditional.

Context variables do not cross thread boundaries: a component that owns
worker threads (the serving updater) re-activates its log inside the
thread body instead of relying on ambience.

Event schema (every event)::

    {"run_id": "run-8f13…", "seq": 17, "ts": 1754650000.123,
     "kind": "solve_end", ...kind-specific fields}

``ts`` is wall-clock epoch seconds; ``seq`` is unique and ordered per
log (not per thread).  Kind-specific fields are flat JSON scalars; numpy
scalars are coerced, anything else falls back to ``repr``.

Examples
--------
>>> log = EventLog(run_id="run-test")
>>> with log.activate():
...     _ = emit("stage_start", stage="rank")
>>> log.events()[0]["kind"]
'stage_start'
>>> log.events()[0]["run_id"]
'run-test'
>>> emit("orphan") is None   # no active log: a no-op
True
"""

from __future__ import annotations

import io
import json
import threading
import time
import uuid
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Callable, Iterator

from ..errors import ObservabilityError

__all__ = [
    "EventLog",
    "new_run_id",
    "emit",
    "current_event_log",
    "current_run_id",
    "read_events",
]


def new_run_id() -> str:
    """A fresh correlation id (``run-`` + 12 hex chars)."""
    return "run-" + uuid.uuid4().hex[:12]


def _json_default(value: object) -> object:
    """Coerce non-JSON values: numpy scalars to numbers, rest to repr."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    if isinstance(value, Path):
        return str(value)
    return repr(value)


class EventLog:
    """Thread-safe JSON-lines event sink for one run.

    Parameters
    ----------
    path:
        File to append events to (one JSON object per line).  ``None``
        keeps events in memory only — the ring buffer still fills, so
        the scrape endpoint and tests can read them.
    run_id:
        Correlation id stamped on every event; generated when omitted.
    buffer:
        How many recent events the in-memory ring buffer retains.
    clock:
        Wall-clock source (injectable for tests).
    """

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        run_id: str | None = None,
        buffer: int = 4096,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if int(buffer) < 1:
            raise ObservabilityError(f"buffer must be >= 1, got {buffer!r}")
        self.run_id = run_id or new_run_id()
        self.path = None if path is None else Path(path)
        self._clock = clock
        self._seq = 0
        self._lock = threading.Lock()
        self._buffer: deque[dict] = deque(maxlen=int(buffer))
        self._file: io.TextIOWrapper | None = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")

    def emit(self, kind: str, **fields: object) -> dict:
        """Record one event; returns the event dict (already stamped)."""
        with self._lock:
            self._seq += 1
            event: dict = {
                "run_id": self.run_id,
                "seq": self._seq,
                "ts": self._clock(),
                "kind": str(kind),
            }
            event.update(fields)
            self._buffer.append(event)
            if self._file is not None:
                self._file.write(
                    json.dumps(event, default=_json_default, sort_keys=False)
                    + "\n"
                )
                self._file.flush()
        return event

    def events(
        self, kind: str | None = None, *, limit: int | None = None
    ) -> list[dict]:
        """Recent events (oldest first), optionally filtered by kind."""
        with self._lock:
            out = list(self._buffer)
        if kind is not None:
            out = [e for e in out if e["kind"] == kind]
        if limit is not None:
            out = out[-int(limit):]
        return out

    def __len__(self) -> int:
        """Events emitted so far (including any rotated out of the buffer)."""
        with self._lock:
            return self._seq

    def close(self) -> None:
        """Flush and close the backing file (idempotent)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @contextmanager
    def activate(self) -> Iterator["EventLog"]:
        """Install this log as the ambient sink for :func:`emit`.

        Ambience is per-thread (a context variable): worker threads must
        re-activate inside the thread body.
        """
        token = _active_log.set(self)
        try:
            yield self
        finally:
            _active_log.reset(token)


_active_log: ContextVar[EventLog | None] = ContextVar(
    "repro_active_event_log", default=None
)


def current_event_log() -> EventLog | None:
    """The ambient log installed by :meth:`EventLog.activate`, if any."""
    return _active_log.get()


def current_run_id() -> str | None:
    """Run id of the ambient event log (``None`` when none is active)."""
    log = _active_log.get()
    return None if log is None else log.run_id


def emit(kind: str, **fields: object) -> dict | None:
    """Emit against the ambient log; a no-op returning ``None`` without one."""
    log = _active_log.get()
    if log is None:
        return None
    return log.emit(kind, **fields)


def read_events(path: str | Path) -> list[dict]:
    """Parse a JSON-lines event file back into event dicts.

    Torn trailing lines (a crash mid-write) are skipped, never raised:
    an event log must stay readable after the process it described died.
    So is every other line that is not one event — bytes that are not
    UTF-8, and valid JSON that is not an object — so the result is
    always a list of dicts.
    """
    out: list[dict] = []
    for line in Path(path).read_bytes().splitlines():
        try:
            event = json.loads(line.decode("utf-8"))
        except ValueError:  # UnicodeDecodeError or JSONDecodeError
            continue
        if isinstance(event, dict):
            out.append(event)
    return out
