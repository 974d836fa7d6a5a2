"""The "serve a read" path: publish σ, run the fleet, drive it open loop.

The fleet is the program's own topology: a :class:`~repro.serving.RankingService`
publisher, a :class:`~repro.serving.ServingFleet` of spawned replicas and
its asyncio front door.  Reads come from ``loadgen.py`` in a separate
process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from checks import ReadReference
from workloads import CLIENT_TIMEOUT_S, TOP_K

HERE = Path(__file__).resolve().parent


def start_fleet(snapshot_dir: Path, sigma: np.ndarray, kappa: np.ndarray, replicas: int):
    """Publish σ, spawn the fleet, and return once every replica adopted it."""
    from repro.config import FleetParams
    from repro.serving import RankingService, ServingFleet

    service = RankingService(snapshot_dir)
    snapshot = service.store.publish(kind="sr", sigma=sigma, kappa=kappa, solver="power")
    fleet = ServingFleet(service, FleetParams(replicas=replicas)).start()
    return fleet, snapshot.version


def door_counters(fleet) -> dict:
    """The front door's cumulative counters (read with ``stats()``)."""
    from repro.observability.metrics import get_registry

    stats = fleet.frontdoor.stats()
    return {
        "reads": sum(stats["reads"].values()),
        "bad_reads": sum(
            stats["reads"][key] for key in ("failed", "rejected", "shed", "deadline_missed")
        ),
        "retries": get_registry().counter("repro_fleet_retries_total").value,
        "flushes": stats["batching"]["flushes"],
        "batched_reads": stats["batching"]["batched_reads"],
        "hedges": stats["slo"]["hedges"]["fired"],
        "sheds": stats["slo"]["shedding"]["shed_total"],
        "evictions": sum(r["evictions"] for r in stats["replicas"].values()),
        "replica_p50_s": [
            r["latency"]["p50_seconds"] or 0.0 for r in stats["replicas"].values()
        ],
    }


class LoadGen:
    """Handle on the load-generator process (JSON lines over its pipes)."""

    def __init__(self, src_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir)
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "loadgen.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        self._read_reply()

    def _read_reply(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"load generator exited (code {self._proc.wait()})")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise RuntimeError(f"load generator failed: {reply.get('error')}")
        return reply

    def call(self, command: dict) -> dict:
        self._proc.stdin.write(json.dumps(command) + "\n")
        self._proc.stdin.flush()
        return self._read_reply()

    def close(self) -> None:
        if self._proc.poll() is None:
            try:
                self._proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


class Publisher:
    """Publishes σ variants on a background thread, about every ``every_s``.

    Each gap is drawn uniformly from [0.6, 1.4] × ``every_s``: a fixed
    cadence would keep a constant phase against the replicas' poll loops,
    so every publish would see nearly the same adoption delay.
    """

    def __init__(self, store, variants: list[np.ndarray], kappa: np.ndarray,
                 reference: ReadReference, every_s: float, seed: int) -> None:
        self._store = store
        self._variants = variants
        self._kappa = kappa
        self._reference = reference
        self._every = every_s
        self._rng = np.random.default_rng([seed, 13])
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.published: list[tuple[int, float]] = []  # (version, monotonic return)
        self.publish_s: list[float] = []
        self.error: BaseException | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, name="perfbench-publisher")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        if self.error is not None:
            raise self.error

    def _run(self) -> None:
        try:
            i = 0
            while not self._stop.wait(self._every * (0.6 + 0.8 * self._rng.random())):
                sigma = self._variants[i % len(self._variants)]
                i += 1
                t0 = time.perf_counter()
                snapshot = self._store.publish(
                    kind="sr", sigma=sigma, kappa=self._kappa, solver="power"
                )
                done = time.monotonic()
                self.publish_s.append(time.perf_counter() - t0)
                # Register the expected answers before a read can name it.
                self._reference.add(snapshot.version, sigma, TOP_K)
                self.published.append((snapshot.version, done))
        except BaseException as exc:  # noqa: BLE001 - re-raised by stop()
            self.error = exc


def sigma_variants(sigma: np.ndarray, count: int, seed: int) -> list[np.ndarray]:
    """Distinct σ's for the churn publishes: σ reweighted by a few percent."""
    rng = np.random.default_rng([seed, 11])
    variants = []
    for _ in range(count):
        v = sigma * np.exp(0.05 * rng.standard_normal(sigma.size))
        variants.append(v / v.sum())
    return variants


# ----------------------------------------------------------------------
# Phase analysis
# ----------------------------------------------------------------------
class Phase:
    """One phase's records, decoded into arrays.

    Only the sampled replies are kept as Python objects, so the benchmark
    process, which also hosts the front door, holds no large heap of
    records whose garbage collections would stall the door.
    """

    def __init__(self, reply: dict) -> None:
        records = reply["records"]
        self.rate = reply["rate"]
        self.start = reply["start"]
        self.ops = np.array([r[0] for r in records])
        due = np.array([r[2] for r in records])
        sent = np.array([r[3] for r in records])
        self.done = np.array([r[4] for r in records])
        self.late = np.array([r[5] for r in records])
        self.ok = np.array([r[6] is None for r in records])
        # A failed read counts as taking the client's whole timeout.
        self.latency = np.where(self.ok, self.done - due, CLIENT_TIMEOUT_S)
        self.versions = np.array([r[7] if r[6] is None else -1 for r in records])
        self.replicas = np.array([str(r[8]) if r[6] is None else "" for r in records])
        self.failed = int((~self.ok).sum())
        self.bad_reads = sum(r[1] for r in records if r[6] is not None)
        self.samples = [(r[0], r[7], r[9]) for r in records if r[9] is not None]
        # Sends go out as fast as the connections free up.  Without a
        # backlog they keep to the schedule; with one they fall behind it
        # at a steady pace, 1 - achieved/offered seconds per second.  The
        # pace is taken between the medians of the first and the last third
        # of the phase, so a short stall of the host does not read as a backlog.
        third = max(len(due) // 3, 1)
        slip = sent - due
        pace = (np.median(slip[-third:]) - np.median(slip[:third])) / max(
            np.median(due[-third:]) - np.median(due[:third]), 1.0 / self.rate)
        self.achieved_rps = self.rate / (1.0 + float(pace))

    def latency_pct_ms(self, pct: float) -> float:
        return float(np.percentile(self.latency, pct, method="higher")) * 1e3

    def throughput_rps(self) -> float:
        """Replies served per second: (replies - 1) / (last - first reply);
        0 when fewer than two replies were served."""
        done = np.sort(self.done[self.ok])
        if done.size < 2 or done[-1] <= done[0]:
            return 0.0
        return float(done.size - 1) / float(done[-1] - done[0])

    def check_samples(self, reference: ReadReference) -> None:
        for op, version, sample in self.samples:
            reference.check(op, version, sample)


def publish_to_read(phase: Phase, published: list[tuple[int, float]],
                    window_s: float) -> np.ndarray:
    """Seconds from each publish to the first read each replica answered
    with that version or a newer one.

    Taken per replica, a lag does not depend on how the replicas' poll
    loops happen to be phased against each other.  Only publishes made
    while ``phase`` ran, and at least ``window_s`` before its last reply,
    count; a publish a replica never showed counts as lasting until that
    last reply, and so does every publish when no read succeeded at all.
    """
    end = phase.done.max()
    lags = []
    for replica in set(phase.replicas[phase.ok]) or {None}:
        mine = phase.replicas == replica
        order = np.argsort(phase.done[mine])
        done = phase.done[mine][order]
        newest = np.maximum.accumulate(phase.versions[mine][order])
        for version, returned in published:
            if phase.start <= returned <= end - window_s:
                i = int(np.searchsorted(newest, version))
                lags.append((done[i] if i < done.size else end) - returned)
    return np.array(lags)
