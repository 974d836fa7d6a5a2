"""Circuit breaker guarding the ranking service's background updater.

When update solves fail repeatedly (a poisoned input, a diverging solve,
a flaky store), retrying as fast as requests arrive just burns CPU and keeps
the service pinned in its failure path.  The breaker implements the
classic three-state pattern:

* **closed** — updates flow; consecutive failures are counted.
* **open** — after ``failure_threshold`` consecutive failures, updates
  are refused until an exponential-backoff deadline (doubling per trip,
  capped, with seeded jitter so restarted replicas don't retry in
  lockstep).
* **half_open** — past the deadline exactly one probe update is let
  through; success closes the breaker, failure re-opens it with a longer
  backoff.

State transitions are counted in ``repro_breaker_transitions_total`` and
the current state is mirrored in the ``repro_breaker_state`` gauge
(0 = closed, 1 = open, 2 = half-open).  The clock and RNG seed are
injectable so tests can drive the breaker deterministically.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

import numpy as np

from ..logging_utils import get_logger
from ..observability.metrics import get_registry

__all__ = ["CircuitBreaker", "BREAKER_STATES"]

_logger = get_logger(__name__)

#: Breaker states, index = the ``repro_breaker_state`` gauge value.
BREAKER_STATES: tuple[str, ...] = ("closed", "open", "half_open")


class CircuitBreaker:
    """Consecutive-failure breaker with capped exponential backoff.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures that trip the breaker open.
    backoff_base_seconds, backoff_max_seconds:
        The first open interval and its cap; the interval doubles on
        every consecutive trip (``base * 2**(trips-1)``, capped).
    jitter:
        Fractional jitter in ``[0, 1]``: each open interval is scaled by
        ``1 + jitter * u`` with ``u ~ U[0, 1)`` from a seeded RNG.
    seed:
        Jitter RNG seed (deterministic backoff schedules in tests).
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        backoff_base_seconds: float = 0.5,
        backoff_max_seconds: float = 30.0,
        jitter: float = 0.1,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = max(int(failure_threshold), 1)
        self.backoff_base = float(backoff_base_seconds)
        self.backoff_max = float(backoff_max_seconds)
        self.jitter = float(jitter)
        self._rng = np.random.default_rng(seed)
        self._clock = clock
        self._lock = threading.RLock()
        self._state = "closed"
        self._failures = 0
        self._trips = 0
        self._open_until = 0.0
        self._set_gauge()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current state (``closed`` / ``open`` / ``half_open``)."""
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success."""
        with self._lock:
            return self._failures

    def retry_after(self) -> float:
        """Seconds until an open breaker will admit a probe (0 if not open)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(self._open_until - self._clock(), 0.0)

    def _set_gauge(self) -> None:
        get_registry().gauge(
            "repro_breaker_state",
            "Updater circuit breaker state (0=closed, 1=open, 2=half_open)",
        ).set(BREAKER_STATES.index(self._state))

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        get_registry().counter(
            "repro_breaker_transitions_total",
            "Circuit breaker state transitions, by new state",
            labelnames=("state",),
        ).labels(state=state).inc()
        _logger.info("circuit breaker: %s -> %s", self._state, state)
        self._state = state
        self._set_gauge()

    # ------------------------------------------------------------------
    # Protocol: allow / record_success / record_failure
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May an update run now?

        Closed: yes.  Open: no, until the backoff deadline passes — then
        the breaker moves to half-open and admits exactly one probe.
        Half-open: no (one probe is already in flight; its outcome
        decides the next state).
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open" and self._clock() >= self._open_until:
                self._transition("half_open")
                return True
            return False

    def record_success(self) -> None:
        """An admitted update succeeded: reset and close."""
        with self._lock:
            self._failures = 0
            self._trips = 0
            self._transition("closed")

    def record_failure(self) -> None:
        """An admitted update failed: count it, and trip open if due.

        A half-open probe failure trips immediately (the backoff doubles);
        in the closed state the breaker trips once ``failure_threshold``
        consecutive failures accumulate.
        """
        with self._lock:
            self._failures += 1
            probe_failed = self._state == "half_open"
            if probe_failed or self._failures >= self.failure_threshold:
                self._trips += 1
                interval = min(
                    self.backoff_base * 2.0 ** (self._trips - 1),
                    self.backoff_max,
                )
                interval *= 1.0 + self.jitter * float(self._rng.random())
                self._open_until = self._clock() + interval
                self._transition("open")
                _logger.warning(
                    "circuit breaker open for %.3fs (trip %d, %d consecutive failures)",
                    interval,
                    self._trips,
                    self._failures,
                )

    def reset(self) -> None:
        """Force-close the breaker and clear all counters."""
        with self._lock:
            self._failures = 0
            self._trips = 0
            self._open_until = 0.0
            self._transition("closed")

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.consecutive_failures}, "
            f"threshold={self.failure_threshold})"
        )
