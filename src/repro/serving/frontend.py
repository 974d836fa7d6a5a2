"""Asyncio front door for the replicated serving fleet.

:class:`FrontDoor` is the single address clients talk to.  It runs an
asyncio TCP server on a dedicated thread, speaks the same
newline-delimited JSON protocol as the replicas, and per request:

* **balances** — reads rotate round-robin over the ACTIVE replicas;
* **batches** — singleton ``score``/``percentile`` reads arriving within
  one linger window coalesce into a single backend request (pre-batched
  ``ids`` requests pass straight through);
* **meets deadlines** — every read carries a per-op deadline budget
  (:class:`~repro.config.SLOParams`); a read that cannot be answered in
  budget returns a typed ``DeadlineExceededError`` response instead of
  hanging its caller, and every read's burn ratio (elapsed / budget) is
  recorded;
* **hedges** — when the first attempt has been outstanding longer than
  the tracked p95 attempt latency (with a configured floor), a backup
  request fires on a second replica; the first response wins, and the
  loser is abandoned to drain in the background (its latency still
  feeds the outlier detector, a transport failure still evicts);
* **bounds retries** — retries and hedges draw from a token-bucket
  retry budget, so a fleet-wide outage degrades into fast typed
  failures instead of a retry storm;
* **evicts** — a replica that times out or drops its connection moves
  ACTIVE → EVICTED and the read retries on another replica; a replica
  that is *alive but slow* (windowed p95 attempt latency above the
  ejection threshold) moves ACTIVE → SLOW.  A background probe loop
  reinstates replicas once they answer health checks (fast enough)
  again — but never before a per-replica exponential backoff floor, so
  a flapping replica cannot thrash the rotation;
* **sheds** — reads beyond ``max_inflight`` are refused at the door
  with an ``AdmissionError``-typed response carrying ``retry_after``,
  keeping queueing delay bounded while deadlines are burning;
* **fans out** — ``health`` aggregates per-replica state, which the
  publisher's telemetry ``/health`` exposes while a fleet runs.

:class:`FleetClient` is the blocking counterpart used by the CLI, the
bench harness, and tests; every request it sends is bounded by an
overall deadline (a stalled or dribbling front door raises
:class:`~repro.errors.DeadlineExceededError` instead of hanging the
caller forever).

See ``docs/architecture.md`` ("SLO guardrails & chaos testing") for the
hedging / ejection / shedding state machine.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from typing import Callable, Mapping

import socket

import numpy as np

from ..config import FleetParams, SLOParams
from ..errors import DeadlineExceededError, FleetError
from ..logging_utils import get_logger
from ..observability.metrics import get_registry
from .service import READ_LATENCY_BUCKETS

__all__ = ["FrontDoor", "FleetClient", "REPLICA_STATES"]

_logger = get_logger(__name__)

#: Front-door view of one replica: in rotation, transport-dead, or
#: quarantined as a latency outlier (alive but too slow to serve).
REPLICA_STATES: tuple[str, ...] = ("active", "evicted", "slow")

#: Ops whose singleton form (``{"id": i}``) the front door micro-batches.
_BATCHED_OPS: tuple[str, ...] = ("score", "percentile")

#: Ops subject to deadline budgets and admission-control shedding.
_READ_OPS: tuple[str, ...] = ("score", "percentile", "top_k")

#: Cap on one newline-delimited JSON frame, shared by the front door and
#: the replicas (a 100k-source σ dump fits).  A longer frame gets a typed
#: error reply and its connection closed: the stream cannot resynchronise
#: in mid-line.
MAX_FRAME_BYTES = 2**22

#: Buckets of the deadline-burn histogram (elapsed / budget; > 1 means
#: the deadline was missed).
_BURN_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.5, 2.0, 5.0,
)


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8") + b"\n"


def _frame_error(detail: str) -> dict:
    """The typed reply to a request frame that cannot be served."""
    return {"ok": False, "error": "FleetError", "detail": detail}


#: Reply to a frame longer than :data:`MAX_FRAME_BYTES`.
OVERSIZED_FRAME_REPLY = _frame_error(
    f"request frame exceeds {MAX_FRAME_BYTES} bytes"
)


def decode_frame(line: bytes) -> tuple[dict | None, dict | None]:
    """Decode one request frame: ``(request, None)`` or ``(None, reply)``.

    Never raises: bytes that are not a JSON object (bad UTF-8, bad JSON,
    nesting too deep, or valid JSON such as ``[1]`` that is not an
    object) give the typed ``{"ok": false, "error": "FleetError"}``
    reply, and the connection stays usable for the next frame.
    """
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:
        return None, _frame_error(f"malformed request: {exc}")
    if not isinstance(message, dict):
        return None, _frame_error(
            "malformed request: expected a JSON object, got "
            f"{type(message).__name__}"
        )
    return message, None


class _TokenBucket:
    """Retry/hedge budget: ``rate`` tokens/s refill, capped at ``burst``.

    Only touched from the event loop thread — no lock needed.
    """

    def __init__(
        self, rate: float, burst: float, clock: Callable[[], float]
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()

    def try_take(self, n: float = 1.0) -> bool:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    @property
    def tokens(self) -> float:
        now = self._clock()
        return min(self.burst, self._tokens + (now - self._last) * self.rate)


class _Backend:
    """Front-door-side record of one replica."""

    __slots__ = (
        "replica_id",
        "address",
        "state",
        "reader",
        "writer",
        "lock",
        "reads",
        "errors",
        "evictions",
        "quarantines",
        "reinstatements",
        "latency",
        "window",
        "flaps",
        "eligible_at",
        "last_version",
        "last_error",
    )

    def __init__(
        self, replica_id: int, address: tuple[str, int], latency, window: int
    ) -> None:
        self.replica_id = int(replica_id)
        self.address = (str(address[0]), int(address[1]))
        self.state = "active"
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.lock = asyncio.Lock()
        self.reads = 0
        self.errors = 0
        self.evictions = 0
        self.quarantines = 0
        self.reinstatements = 0
        self.latency = latency
        self.window: deque[float] = deque(maxlen=int(window))
        self.flaps = 0
        self.eligible_at = 0.0
        self.last_version: int | None = None
        self.last_error: str | None = None

    def close_connection(self) -> None:
        writer, self.writer, self.reader = self.writer, None, None
        if writer is not None:
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - already broken is fine
                pass

    def window_p95(self) -> float | None:
        if not self.window:
            return None
        return float(np.quantile(np.asarray(self.window), 0.95))


class _Batcher:
    """Micro-batches singleton reads of one op into backend requests."""

    def __init__(self, door: "FrontDoor", op: str) -> None:
        self._door = door
        self.op = op
        self._pending: list[tuple[int, asyncio.Future]] = []
        self._flusher: asyncio.Task | None = None

    async def submit(self, node: int) -> dict:
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((int(node), future))
        if len(self._pending) >= self._door.params.batch_max_ids:
            if self._flusher is not None:
                self._flusher.cancel()
                self._flusher = None
            self._flush()
        elif self._flusher is None:
            self._flusher = asyncio.create_task(self._linger())
        return await future

    async def _linger(self) -> None:
        try:
            await asyncio.sleep(self._door.params.batch_linger_seconds)
        except asyncio.CancelledError:
            return
        self._flusher = None
        self._flush()

    def _flush(self) -> None:
        batch, self._pending = self._pending, []
        if batch:
            asyncio.get_running_loop().create_task(self._send(batch))

    async def _send(self, batch: list[tuple[int, asyncio.Future]]) -> None:
        ids = [node for node, _ in batch]
        response = await self._door.backend_read(
            {"op": self.op, "ids": ids}, reads=len(ids), op=self.op
        )
        self._door.record_batch(len(ids))
        if response.get("ok"):
            values = response.get("values", ())
            meta = {
                key: response.get(key)
                for key in ("version", "kind", "age", "replica")
            }
            for (node, future), value in zip(batch, values):
                if not future.done():
                    future.set_result(
                        {"ok": True, "value": value, "batch": len(ids), **meta}
                    )
            return
        if len(batch) > 1 and response.get("error") in (
            "NodeIndexError",
            "GraphError",
        ):
            # One bad id must not poison its batch-mates: split and
            # retry each id alone so only the culprit gets the error.
            for node, future in batch:
                single = await self._door.backend_read(
                    {"op": self.op, "ids": [node]}, reads=1, op=self.op
                )
                if not future.done():
                    if single.get("ok"):
                        future.set_result(
                            {
                                "ok": True,
                                "value": single["values"][0],
                                "batch": 1,
                                **{
                                    key: single.get(key)
                                    for key in ("version", "kind", "age", "replica")
                                },
                            }
                        )
                    else:
                        future.set_result(single)
            return
        for _, future in batch:
            if not future.done():
                future.set_result(response)


class FrontDoor:
    """Load-balancing, batching, SLO-guarded fleet entry point.

    Parameters
    ----------
    replicas:
        Initial routing table: ``replica_id -> (host, port)``.
    params:
        Protocol knobs (:class:`~repro.config.FleetParams`); the
        listener binds ``params.host``:``params.frontend_port``.
    slo:
        Per-op deadline budgets, hedging, retry-budget, ejection, and
        shedding policy (:class:`~repro.config.SLOParams`).  The
        defaults are generous enough to be invisible on a healthy
        fleet.

    ``start()`` raises the asyncio loop on a daemon thread and blocks
    until the listener is bound; every public method is safe to call
    from any thread.
    """

    def __init__(
        self,
        replicas: Mapping[int, tuple[str, int]],
        params: FleetParams | None = None,
        *,
        slo: SLOParams | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.params = params or FleetParams()
        self.slo = slo or SLOParams()
        self._clock = clock
        registry = get_registry()
        self._reads_total = registry.counter(
            "repro_fleet_reads_total",
            "Front-door reads, by outcome",
            labelnames=("status",),
        )
        self._evictions_total = registry.counter(
            "repro_fleet_evictions_total",
            "Replicas evicted from rotation after transport errors",
        )
        self._slow_ejections_total = registry.counter(
            "repro_fleet_slow_ejections_total",
            "Replicas quarantined as latency outliers (slow, not dead)",
        )
        self._reinstatements_total = registry.counter(
            "repro_fleet_reinstatements_total",
            "Evicted/quarantined replicas returned to rotation",
        )
        self._retries_total = registry.counter(
            "repro_fleet_retries_total",
            "Reads re-attempted on another replica",
        )
        self._hedges_total = registry.counter(
            "repro_fleet_hedges_total",
            "Hedged backup reads, by outcome (fired/win/loss)",
            labelnames=("outcome",),
        )
        self._shed_total = registry.counter(
            "repro_fleet_shed_total",
            "Reads refused by front-door admission control (load shedding)",
        )
        self._deadline_miss_total = registry.counter(
            "repro_fleet_deadline_misses_total",
            "Reads that burned through their per-op deadline budget",
            labelnames=("op",),
        )
        self._deadline_burn = registry.histogram(
            "repro_fleet_deadline_burn_ratio",
            "Elapsed / deadline-budget ratio per read, by op",
            labelnames=("op",),
            buckets=_BURN_BUCKETS,
        )
        self._retry_exhausted_total = registry.counter(
            "repro_fleet_retry_budget_exhausted_total",
            "Retries/hedges skipped because the retry token bucket was empty",
        )
        self._batch_flushes_total = registry.counter(
            "repro_fleet_batch_flushes_total",
            "Micro-batches flushed to replicas",
        )
        self._active_gauge = registry.gauge(
            "repro_fleet_replicas_active",
            "Replicas currently in rotation",
        )
        self._inflight_gauge = registry.gauge(
            "repro_fleet_inflight",
            "Reads currently in flight at the front door",
        )
        self._backend_seconds = registry.histogram(
            "repro_fleet_backend_seconds",
            "Per-replica backend round-trip latency",
            labelnames=("replica",),
            buckets=READ_LATENCY_BUCKETS,
        )
        self._backends: dict[int, _Backend] = {
            rid: self._new_backend(rid, addr)
            for rid, addr in sorted(replicas.items())
        }
        if not self._backends:
            raise FleetError("front door needs at least one replica")
        self._rr = 0
        self._requests = 0
        self._reads_ok = 0
        self._reads_failed = 0
        self._reads_rejected = 0
        self._reads_shed = 0
        self._reads_deadline = 0
        self._batched_reads = 0
        self._inflight = 0
        self._hedges_fired = 0
        self._hedge_wins = 0
        self._deadline_misses: dict[str, int] = {}
        self._retry_budget = _TokenBucket(
            self.slo.retry_budget_per_second,
            self.slo.retry_budget_burst,
            clock,
        )
        self._op_latency: dict[str, deque[float]] = {
            op: deque(maxlen=256) for op in _READ_OPS
        }
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.base_events.Server | None = None
        self._stop_event: asyncio.Event | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._address: tuple[str, int] | None = None
        self._batchers: dict[str, _Batcher] = {}
        self._active_gauge.set(len(self._backends))

    def _new_backend(self, replica_id: int, address: tuple[str, int]) -> _Backend:
        return _Backend(
            replica_id,
            address,
            self._backend_seconds.labels(replica=str(replica_id)),
            self.slo.eject_window,
        )

    # ------------------------------------------------------------------
    # Lifecycle (called from the host thread)
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` of the listener."""
        if self._address is None:
            raise FleetError("front door is not started")
        return self._address

    def start(self) -> "FrontDoor":
        """Raise the loop thread and bind the listener (idempotent)."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-front-door", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise FleetError("front door failed to start within 30s")
        if self._startup_error is not None:
            raise FleetError(
                f"front door failed to bind: {self._startup_error}"
            ) from self._startup_error
        return self

    def stop(self) -> None:
        """Close the listener and join the loop thread (idempotent)."""
        loop, thread = self._loop, self._thread
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:  # loop already closed
                pass
        if thread is not None:
            thread.join(timeout=10)
        self._thread = None
        self._loop = None

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        for op in _BATCHED_OPS:
            self._batchers[op] = _Batcher(self, op)
        try:
            self._server = await asyncio.start_server(
                self._serve_client,
                self.params.host,
                self.params.frontend_port,
                limit=MAX_FRAME_BYTES,
            )
            self._address = self._server.sockets[0].getsockname()[:2]
        except Exception as exc:  # noqa: BLE001 - surface to start()
            self._startup_error = exc
            self._started.set()
            return
        probe = asyncio.create_task(self._probe_loop())
        self._started.set()
        _logger.info("front door listening on %s:%d", *self._address)
        try:
            await self._stop_event.wait()
        finally:
            probe.cancel()
            self._server.close()
            await self._server.wait_closed()
            for backend in self._backends.values():
                backend.close_connection()

    # ------------------------------------------------------------------
    # Client protocol
    # ------------------------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # frame over the stream limit
                    writer.write(_encode(OVERSIZED_FRAME_REPLY))
                    await writer.drain()
                    return
                if not line:
                    return
                message, response = decode_frame(line)
                if message is not None:
                    response = await self._dispatch(message)
                writer.write(_encode(response))
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        finally:
            writer.close()

    async def _dispatch(self, message: dict) -> dict:
        self._requests += 1
        op = message.get("op")
        try:
            if op in _READ_OPS:
                if op in _BATCHED_OPS and "ids" in message:
                    reads = len(message["ids"])
                elif op == "top_k":
                    reads = max(int(message.get("k", 0)), 1)
                else:
                    reads = 1
                shed = self._maybe_shed(op, reads)
                if shed is not None:
                    return shed
                self._inflight += 1
                self._inflight_gauge.set(self._inflight)
                try:
                    return await self._dispatch_read(message, op, reads)
                finally:
                    self._inflight -= 1
                    self._inflight_gauge.set(self._inflight)
            if op == "health":
                return await self._fanout_health()
            if op == "stats":
                return {"ok": True, "stats": self.stats()}
            return {
                "ok": False,
                "error": "FleetError",
                "detail": f"unknown op {op!r}",
            }
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            return {
                "ok": False,
                "error": type(exc).__name__,
                "detail": str(exc),
            }

    async def _dispatch_read(self, message: dict, op: str, reads: int) -> dict:
        if op in _BATCHED_OPS:
            if "ids" in message:
                ids = [int(i) for i in message["ids"]]
                return await self.backend_read(
                    {"op": op, "ids": ids}, reads=reads, op=op
                )
            return await self._batchers[op].submit(int(message["id"]))
        k = int(message.get("k", 0))
        return await self.backend_read(
            {"op": "top_k", "k": k}, reads=reads, op="top_k"
        )

    def _maybe_shed(self, op: str, reads: int) -> dict | None:
        """Admission control: refuse the read when the door is saturated."""
        if self._inflight < self.slo.max_inflight:
            return None
        self._shed_total.inc()
        self._reads_shed += reads
        self._reads_total.labels(status="shed").inc(reads)
        return {
            "ok": False,
            "error": "AdmissionError",
            "reason": "overload",
            "retry_after": self.slo.shed_retry_after_seconds,
            "detail": (
                f"front door is saturated ({self._inflight} reads in "
                f"flight >= max_inflight {self.slo.max_inflight}); "
                f"retry after {self.slo.shed_retry_after_seconds:.3f}s"
            ),
        }

    # ------------------------------------------------------------------
    # Backend routing
    # ------------------------------------------------------------------
    def _pick(self, exclude: set[int]) -> _Backend | None:
        backends = sorted(self._backends)
        for offset in range(len(backends)):
            rid = backends[(self._rr + offset) % len(backends)]
            backend = self._backends[rid]
            if backend.state == "active" and rid not in exclude:
                self._rr = (self._rr + offset + 1) % len(backends)
                return backend
        return None

    def _hedge_after(self, op: str) -> float:
        """Outstanding time after which a backup request may fire."""
        samples = self._op_latency.get(op)
        threshold = self.slo.hedge_threshold_seconds
        if samples is not None and len(samples) >= self.slo.hedge_min_samples:
            tracked = float(
                np.quantile(np.asarray(samples), self.slo.hedge_quantile)
            )
            threshold = max(threshold, tracked)
        return threshold

    def _note_latency(self, backend: _Backend, seconds: float, op: str) -> None:
        """Record one completed attempt and apply latency-outlier ejection."""
        backend.latency.observe(seconds)
        backend.window.append(seconds)
        samples = self._op_latency.get(op)
        if samples is not None:
            samples.append(seconds)
        if (
            backend.state == "active"
            and len(backend.window) >= self.slo.eject_min_samples
        ):
            p95 = backend.window_p95()
            if p95 is not None and p95 > self.slo.eject_latency_seconds:
                self._quarantine(
                    backend,
                    f"latency outlier: windowed p95 {p95 * 1e3:.1f}ms > "
                    f"{self.slo.eject_latency_seconds * 1e3:.1f}ms",
                )

    async def backend_read(
        self, payload: dict, *, reads: int, op: str | None = None
    ) -> dict:
        """Send one read to some healthy replica under its deadline budget.

        A transport failure (timeout, refused/broken connection) evicts
        the replica and retries elsewhere; a replica still waiting for
        its first snapshot (``ServingError``) is retried elsewhere
        without eviction; any other replica-reported error (e.g. an
        out-of-range id) is the *request's* fault and is returned as-is.
        Retries and hedges draw from the token-bucket retry budget; the
        whole read is bounded by the per-op deadline, after which a
        typed ``DeadlineExceededError`` response is returned.
        """
        op = op or str(payload.get("op") or "score")
        budget = self.slo.deadline_for(op)
        started = self._clock()
        line = _encode(payload)
        tried: set[int] = set()
        last_error: str | None = None
        attempts = max(self.params.max_retries, len(self._backends))
        for attempt in range(attempts):
            remaining = budget - (self._clock() - started)
            if remaining <= 0:
                return self._deadline_missed(
                    op, budget, started, reads, last_error
                )
            if attempt > 0 and not self._retry_budget.try_take():
                self._retry_exhausted_total.inc()
                last_error = (
                    f"{last_error or 'transport failure'} "
                    "[retry budget exhausted]"
                )
                break
            backend = self._pick(tried)
            if backend is None:
                break
            response, winner, detail = await self._attempt_with_hedge(
                backend, line, op, remaining, tried
            )
            if response is None or winner is None:
                last_error = detail or last_error
                continue
            if response.get("ok"):
                winner.reads += reads
                winner.last_version = response.get(
                    "version", winner.last_version
                )
                self._reads_ok += reads
                self._reads_total.labels(status="ok").inc(reads)
                self._observe_burn(op, started, budget)
                response.setdefault("replica", winner.replica_id)
                return response
            if response.get("error") == "ServingError":
                # Replica is up but empty (no snapshot adopted yet):
                # another replica may well have adopted — retry there.
                tried.add(winner.replica_id)
                last_error = response.get("detail")
                self._retries_total.inc()
                continue
            winner.errors += 1
            self._reads_rejected += reads
            self._reads_total.labels(status="rejected").inc(reads)
            self._observe_burn(op, started, budget)
            response.setdefault("replica", winner.replica_id)
            return response
        if budget - (self._clock() - started) <= 0:
            return self._deadline_missed(op, budget, started, reads, last_error)
        self._reads_failed += reads
        self._reads_total.labels(status="error").inc(reads)
        self._observe_burn(op, started, budget)
        return {
            "ok": False,
            "error": "FleetError",
            "detail": (
                "read failed on every replica in rotation"
                + (f" (last: {last_error})" if last_error else "")
            ),
        }

    async def _attempt_with_hedge(
        self,
        primary: _Backend,
        line: bytes,
        op: str,
        remaining: float,
        tried: set[int],
    ) -> tuple[dict | None, _Backend | None, str | None]:
        """Race one primary leg (plus at most one hedged backup).

        Returns ``(response, winner, detail)``; ``response is None``
        means every leg failed or timed out at the transport level
        (failing backends were evicted and added to ``tried``) or the
        attempt ran out of deadline budget — the caller decides which
        by re-checking the budget.
        """
        attempt_start = self._clock()
        budget_end = attempt_start + remaining
        hedge_at = attempt_start + self._hedge_after(op)
        transport_timeout = self.params.request_timeout_seconds
        primary_task = asyncio.ensure_future(self._roundtrip(primary, line))
        legs: dict[asyncio.Task, tuple[_Backend, float]] = {
            primary_task: (primary, attempt_start)
        }
        hedged = False
        detail: str | None = None
        while legs:
            now = self._clock()
            if now >= budget_end:
                # Out of deadline budget mid-attempt.  Legs that also
                # exceeded the transport timeout are genuine transport
                # failures (evict); the rest are cancelled without
                # blame — their connections close so no late response
                # can desync the per-replica protocol.
                for task, (backend, leg_start) in legs.items():
                    task.cancel()
                    if now - leg_start >= transport_timeout:
                        self._fail_leg(backend, "transport timeout", tried)
                return None, None, detail or "deadline budget exhausted"
            events = [budget_end]
            events.extend(
                leg_start + transport_timeout
                for _, leg_start in legs.values()
            )
            if not hedged:
                events.append(hedge_at)
            done, _ = await asyncio.wait(
                set(legs),
                timeout=max(min(events) - now, 0.0),
                return_when=asyncio.FIRST_COMPLETED,
            )
            now = self._clock()
            winner: tuple[dict, _Backend] | None = None
            for task in done:
                backend, leg_start = legs.pop(task)
                exc = task.exception()
                if exc is not None:
                    detail = f"{type(exc).__name__}: {exc}"
                    self._fail_leg(backend, detail, tried)
                    continue
                self._note_latency(backend, now - leg_start, op)
                if winner is None:
                    winner = (task.result(), backend)
                    if hedged:
                        outcome = "loss" if task is primary_task else "win"
                        self._hedges_total.labels(outcome=outcome).inc()
                        if outcome == "win":
                            self._hedge_wins += 1
            if winner is not None:
                for task, (backend, leg_start) in legs.items():
                    self._finish_leg_later(task, backend, leg_start, op)
                return winner[0], winner[1], None
            # Per-leg transport timeouts (a leg can outlive several
            # wait() wakeups when the budget allows).
            for task in list(legs):
                backend, leg_start = legs[task]
                if now - leg_start >= transport_timeout:
                    task.cancel()
                    del legs[task]
                    detail = (
                        f"TimeoutError: replica {backend.replica_id} "
                        f"exceeded {transport_timeout:.1f}s"
                    )
                    self._fail_leg(backend, detail, tried)
            # Hedge trigger: the primary is slow, a second replica is
            # available, and the retry budget allows the extra load.
            if not hedged and now >= hedge_at and legs:
                hedged = True
                exclude = tried | {b.replica_id for b, _ in legs.values()}
                backup = self._pick(exclude)
                if backup is not None and self._retry_budget.try_take():
                    self._hedges_total.labels(outcome="fired").inc()
                    self._hedges_fired += 1
                    task = asyncio.ensure_future(
                        self._roundtrip(backup, line)
                    )
                    legs[task] = (backup, now)
        return None, None, detail

    def _finish_leg_later(
        self, task: asyncio.Task, backend: _Backend, leg_start: float, op: str
    ) -> None:
        """Drain a losing race leg in the background.

        The race already has its winner, but abandoning the loser by
        cancellation would throw away exactly the observation the
        outlier detector needs (a slow replica that always loses its
        hedge would never fill its latency window) and would churn the
        connection.  Instead the leg runs to completion under what is
        left of its transport timeout: its latency is recorded — and
        can trigger quarantine — a transport failure still evicts, and
        the response is consumed so the connection stays in sync.
        """

        async def finish() -> None:
            timeout = max(
                leg_start
                + self.params.request_timeout_seconds
                - self._clock(),
                0.01,
            )
            try:
                await asyncio.wait_for(task, timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - loser accounting only
                backend.close_connection()
                self._evict(backend, f"{type(exc).__name__}: {exc}")
                return
            self._note_latency(backend, self._clock() - leg_start, op)

        asyncio.ensure_future(finish())

    def _fail_leg(
        self, backend: _Backend, detail: str, tried: set[int]
    ) -> None:
        """Account one transport-failed attempt leg."""
        self._evict(backend, detail)
        tried.add(backend.replica_id)
        self._retries_total.inc()

    def _observe_burn(self, op: str, started: float, budget: float) -> None:
        self._deadline_burn.labels(op=op).observe(
            (self._clock() - started) / budget
        )

    def _deadline_missed(
        self,
        op: str,
        budget: float,
        started: float,
        reads: int,
        last_error: str | None,
    ) -> dict:
        elapsed = self._clock() - started
        self._deadline_misses[op] = self._deadline_misses.get(op, 0) + 1
        self._deadline_miss_total.labels(op=op).inc()
        self._reads_deadline += reads
        self._reads_total.labels(status="deadline").inc(reads)
        self._deadline_burn.labels(op=op).observe(elapsed / budget)
        return {
            "ok": False,
            "error": "DeadlineExceededError",
            "op": op,
            "deadline_seconds": budget,
            "elapsed_seconds": elapsed,
            "retry_after": self.slo.shed_retry_after_seconds,
            "detail": (
                f"{op} burned its {budget:.3f}s deadline budget "
                f"({elapsed:.3f}s elapsed)"
                + (f"; last error: {last_error}" if last_error else "")
            ),
        }

    async def _roundtrip(self, backend: _Backend, line: bytes) -> dict:
        async with backend.lock:
            try:
                if backend.writer is None:
                    backend.reader, backend.writer = await asyncio.wait_for(
                        asyncio.open_connection(
                            *backend.address, limit=MAX_FRAME_BYTES
                        ),
                        timeout=self.params.connect_timeout_seconds,
                    )
                backend.writer.write(line)
                await backend.writer.drain()
                raw = await backend.reader.readline()
            except asyncio.CancelledError:
                # Cancelled mid-exchange (hedge loser, deadline burn):
                # a response may still be in flight, so the connection
                # must die or the next request would read a stale line.
                backend.close_connection()
                raise
        if not raw:
            raise FleetError(
                "replica closed the connection", replica=backend.replica_id
            )
        return json.loads(raw)

    # ------------------------------------------------------------------
    # Rotation state machine
    # ------------------------------------------------------------------
    def _set_active_gauge(self) -> None:
        self._active_gauge.set(
            sum(1 for b in self._backends.values() if b.state == "active")
        )

    def _remove_from_rotation(
        self, backend: _Backend, state: str, detail: str
    ) -> None:
        """Shared eviction/quarantine bookkeeping incl. backoff floor."""
        backend.close_connection()
        backend.state = state
        backend.errors += 1
        backend.last_error = detail
        backend.flaps += 1
        backoff = min(
            self.slo.reinstate_backoff_seconds * 2 ** (backend.flaps - 1),
            self.slo.reinstate_backoff_max_seconds,
        )
        backend.eligible_at = self._clock() + backoff
        backend.window.clear()
        self._set_active_gauge()

    def _evict(self, backend: _Backend, detail: str) -> None:
        backend.close_connection()
        if backend.state != "active":
            return
        self._remove_from_rotation(backend, "evicted", detail)
        backend.evictions += 1
        self._evictions_total.inc()
        _logger.warning(
            "evicted replica %d (%s:%d): %s",
            backend.replica_id,
            *backend.address,
            detail,
        )

    def _quarantine(self, backend: _Backend, detail: str) -> None:
        if backend.state != "active":
            return
        self._remove_from_rotation(backend, "slow", detail)
        backend.quarantines += 1
        self._slow_ejections_total.inc()
        _logger.warning(
            "quarantined slow replica %d (%s:%d): %s",
            backend.replica_id,
            *backend.address,
            detail,
        )

    def _reinstate(self, backend: _Backend) -> None:
        if backend.state == "active":
            return
        backend.state = "active"
        backend.reinstatements += 1
        backend.last_error = None
        backend.window.clear()
        self._reinstatements_total.inc()
        self._set_active_gauge()
        _logger.info(
            "reinstated replica %d (%s:%d)",
            backend.replica_id,
            *backend.address,
        )

    async def _probe_loop(self) -> None:
        while True:
            await asyncio.sleep(self.params.probe_interval_seconds)
            for backend in list(self._backends.values()):
                if backend.state == "active":
                    continue
                if self._clock() < backend.eligible_at:
                    # Flap damping: however healthy the probes look, an
                    # ejected replica sits out its backoff floor first.
                    continue
                probe_start = self._clock()
                try:
                    response = await asyncio.wait_for(
                        self._roundtrip(backend, _encode({"op": "health"})),
                        timeout=self.params.request_timeout_seconds,
                    )
                except Exception:  # noqa: BLE001 - still down
                    backend.close_connection()
                    continue
                probe_seconds = self._clock() - probe_start
                if not (response.get("ok") and response.get("ready")):
                    continue
                if (
                    backend.state == "slow"
                    and probe_seconds > self.slo.eject_latency_seconds
                ):
                    # Alive, but still answering slower than the
                    # ejection threshold — not welcome back yet.
                    backend.last_error = (
                        f"probe still slow: {probe_seconds * 1e3:.1f}ms"
                    )
                    continue
                self._reinstate(backend)

    async def _fanout_health(self) -> dict:
        replicas: dict[str, dict] = {}
        for rid in sorted(self._backends):
            backend = self._backends[rid]
            entry: dict = {
                "state": backend.state,
                "address": list(backend.address),
                "reads": backend.reads,
                "errors": backend.errors,
                "evictions": backend.evictions,
                "quarantines": backend.quarantines,
                "reinstatements": backend.reinstatements,
            }
            if backend.state == "active":
                try:
                    response = await asyncio.wait_for(
                        self._roundtrip(backend, _encode({"op": "health"})),
                        timeout=self.params.request_timeout_seconds,
                    )
                except Exception as exc:  # noqa: BLE001 - evict on probe
                    self._evict(backend, f"{type(exc).__name__}: {exc}")
                    entry["state"] = backend.state
                    entry["error"] = str(exc)
                else:
                    if response.get("ok"):
                        entry.update(
                            {
                                k: v
                                for k, v in response.items()
                                if k not in ("ok",)
                            }
                        )
                    else:
                        entry["error"] = response.get("detail")
            elif backend.last_error:
                entry["error"] = backend.last_error
            replicas[str(rid)] = entry
        return {"ok": True, "replicas": replicas}

    def _update_replica_on_loop(
        self, replica_id: int, address: tuple[str, int]
    ) -> None:
        old = self._backends.get(replica_id)
        backend = self._new_backend(replica_id, address)
        if old is not None:
            old.close_connection()
            backend.reads = old.reads
            backend.errors = old.errors
            backend.evictions = old.evictions
            backend.quarantines = old.quarantines
            backend.reinstatements = old.reinstatements + (
                1 if old.state != "active" else 0
            )
            if old.state != "active":
                self._reinstatements_total.inc()
        self._backends[replica_id] = backend
        self._set_active_gauge()
        _logger.info(
            "routing replica %d to %s:%d", replica_id, *backend.address
        )

    # ------------------------------------------------------------------
    # Thread-safe host surface
    # ------------------------------------------------------------------
    def _require_loop(self) -> asyncio.AbstractEventLoop:
        loop = self._loop
        if loop is None:
            raise FleetError("front door is not started")
        return loop

    def request(self, payload: dict, *, timeout: float | None = None) -> dict:
        """One request through the door's own dispatcher, from any thread."""
        loop = self._require_loop()
        future = asyncio.run_coroutine_threadsafe(
            self._dispatch(dict(payload)), loop
        )
        budget = (
            timeout
            if timeout is not None
            else self.params.request_timeout_seconds
            * max(self.params.max_retries, len(self._backends))
            + 5.0
        )
        return future.result(timeout=budget)

    def update_replica(self, replica_id: int, address: tuple[str, int]) -> None:
        """Re-route one replica id to a new address (after a restart)."""
        self._require_loop().call_soon_threadsafe(
            self._update_replica_on_loop, int(replica_id), tuple(address)
        )

    def health(self) -> dict:
        """Per-replica fan-out health (the ``/health`` replica block)."""
        return self.request({"op": "health"}).get("replicas", {})

    def record_batch(self, size: int) -> None:
        """Account one flushed micro-batch (called by the batchers)."""
        self._batch_flushes_total.inc()
        self._batched_reads += size

    def stats(self) -> dict:
        """Door-local counters, SLO state, and per-replica latency."""
        now = self._clock()
        replicas = {}
        for rid in sorted(self._backends):
            backend = self._backends[rid]
            p95 = backend.window_p95()
            replicas[str(rid)] = {
                "state": backend.state,
                "address": list(backend.address),
                "reads": backend.reads,
                "errors": backend.errors,
                "evictions": backend.evictions,
                "quarantines": backend.quarantines,
                "reinstatements": backend.reinstatements,
                "flaps": backend.flaps,
                "eligible_in_seconds": (
                    0.0
                    if backend.state == "active"
                    else max(backend.eligible_at - now, 0.0)
                ),
                "last_version": backend.last_version,
                "latency": {
                    "count": backend.latency.count,
                    "p50_seconds": backend.latency.quantile(0.5),
                    "p99_seconds": backend.latency.quantile(0.99),
                    "window_p95_seconds": p95,
                },
            }
        return {
            "address": list(self._address) if self._address else None,
            "requests_total": self._requests,
            "reads": {
                "ok": self._reads_ok,
                "failed": self._reads_failed,
                "rejected": self._reads_rejected,
                "shed": self._reads_shed,
                "deadline_missed": self._reads_deadline,
            },
            "slo": {
                "deadline_seconds": self.slo.deadline_seconds,
                "deadline_misses": dict(sorted(self._deadline_misses.items())),
                "hedges": {
                    "fired": self._hedges_fired,
                    "wins": self._hedge_wins,
                    "losses": self._hedges_fired - self._hedge_wins,
                    "threshold_seconds": self.slo.hedge_threshold_seconds,
                },
                "shedding": {
                    "shed_total": int(self._shed_total.value),
                    "max_inflight": self.slo.max_inflight,
                    "inflight": self._inflight,
                    "retry_after_seconds": self.slo.shed_retry_after_seconds,
                },
                "retry_budget": {
                    "tokens": self._retry_budget.tokens,
                    "per_second": self.slo.retry_budget_per_second,
                    "burst": self.slo.retry_budget_burst,
                    "exhausted_total": int(self._retry_exhausted_total.value),
                },
                "ejection": {
                    "latency_seconds": self.slo.eject_latency_seconds,
                    "slow_ejections_total": int(
                        self._slow_ejections_total.value
                    ),
                    "backoff_floor_seconds": (
                        self.slo.reinstate_backoff_seconds
                    ),
                },
            },
            "batching": {
                "flushes": int(self._batch_flushes_total.value),
                "batched_reads": self._batched_reads,
                "max_ids": self.params.batch_max_ids,
                "linger_seconds": self.params.batch_linger_seconds,
            },
            "replicas": replicas,
        }


class FleetClient:
    """Blocking newline-JSON client for the front door (or a replica).

    One TCP connection, one in-flight request at a time — use one
    client per thread.  Usable as a context manager.

    Every request is bounded by an overall deadline (``deadline_seconds``,
    defaulting to ``timeout``): a front door that stalls — or dribbles
    bytes forever without completing a frame — raises a typed
    :class:`~repro.errors.DeadlineExceededError` instead of hanging the
    caller.  After a deadline error the connection is dropped (a late
    response could otherwise desync request/response pairing) and
    transparently re-established on the next request.
    """

    def __init__(
        self,
        address: tuple[str, int],
        *,
        timeout: float = 30.0,
        deadline_seconds: float | None = None,
    ) -> None:
        self.address = (str(address[0]), int(address[1]))
        self._timeout = float(timeout)
        self.deadline_seconds = float(
            timeout if deadline_seconds is None else deadline_seconds
        )
        if self.deadline_seconds <= 0:
            raise FleetError(
                f"deadline_seconds must be positive, "
                f"got {self.deadline_seconds!r}"
            )
        self._sock: socket.socket | None = socket.create_connection(
            self.address, timeout=self._timeout
        )
        self._buf = bytearray()
        self._lock = threading.Lock()

    def _ensure_connection(self) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                self.address, timeout=self._timeout
            )
            self._buf.clear()
        return self._sock

    def _drop_connection(self) -> None:
        sock, self._sock = self._sock, None
        self._buf.clear()
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def request(
        self, payload: dict, *, deadline_seconds: float | None = None
    ) -> dict:
        """Send one request and block for its response, deadline-bounded."""
        budget = (
            self.deadline_seconds
            if deadline_seconds is None
            else float(deadline_seconds)
        )
        started = time.monotonic()
        deadline = started + budget
        op = payload.get("op")
        with self._lock:
            sock = self._ensure_connection()
            try:
                sock.settimeout(budget)
                sock.sendall(_encode(payload))
                line = self._read_line(sock, deadline, budget, op, started)
            except TimeoutError:
                self._drop_connection()
                raise DeadlineExceededError(
                    f"no response from {self.address} within {budget:.3f}s",
                    op=op,
                    deadline_seconds=budget,
                    elapsed_seconds=time.monotonic() - started,
                ) from None
            except DeadlineExceededError:
                self._drop_connection()
                raise
            except OSError:
                self._drop_connection()
                raise
        return json.loads(line)

    def _read_line(
        self,
        sock: socket.socket,
        deadline: float,
        budget: float,
        op: str | None,
        started: float,
    ) -> bytes:
        """One complete frame, or :class:`DeadlineExceededError`.

        Reads with a per-``recv`` timeout of the *remaining* budget, so
        a server dribbling one byte per timeout window cannot extend
        the overall wait past the deadline.
        """
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line = bytes(self._buf[: newline + 1])
                del self._buf[: newline + 1]
                return line
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DeadlineExceededError(
                    f"incomplete response from {self.address} after "
                    f"{budget:.3f}s deadline",
                    op=op,
                    deadline_seconds=budget,
                    elapsed_seconds=time.monotonic() - started,
                )
            sock.settimeout(remaining)
            chunk = sock.recv(65536)
            if not chunk:
                raise FleetError(f"{self.address} closed the connection")
            self._buf.extend(chunk)

    # -- convenience wrappers ------------------------------------------------
    def score(self, ids: list[int]) -> dict:
        """Batched σ read."""
        return self.request({"op": "score", "ids": [int(i) for i in ids]})

    def score_one(self, node: int) -> dict:
        """Singleton σ read (micro-batched by the front door)."""
        return self.request({"op": "score", "id": int(node)})

    def percentile(self, ids: list[int]) -> dict:
        """Batched percentile read."""
        return self.request({"op": "percentile", "ids": [int(i) for i in ids]})

    def percentile_one(self, node: int) -> dict:
        """Singleton percentile read (micro-batched)."""
        return self.request({"op": "percentile", "id": int(node)})

    def top_k(self, k: int) -> dict:
        """Top-k read."""
        return self.request({"op": "top_k", "k": int(k)})

    def health(self) -> dict:
        """Fan-out health document."""
        return self.request({"op": "health"})

    def stats(self) -> dict:
        """Front-door counters."""
        return self.request({"op": "stats"})

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._drop_connection()

    def __enter__(self) -> "FleetClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
