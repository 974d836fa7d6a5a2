"""Open-loop load generator for the serving fleet, run as its own process.

The benchmark starts this script with ``python3 perfbench/loadgen.py`` and
talks to it over stdin/stdout, one JSON object per line.  Running the
generator in a separate interpreter keeps its threads off the global
interpreter lock of the process that hosts the front door.

Commands:

``{"cmd": "run", ...}``
    One open-loop phase: request *i* is due at ``start + i / rate``.  Each
    of ``conns`` persistent :class:`~repro.serving.FleetClient`
    connections takes every ``conns``-th request.  Latency is measured
    from the scheduled send, so a request that waits for its connection
    pays for the backlog.  The reply lists one record per request:
    ``[op, reads, due, sent, done, late, error, version, replica, sample]``,
    where ``sample`` holds the ids and answer of every ``sample_every``-th
    request (``None`` otherwise).  With ``"closed": true`` there is no
    schedule: each connection sends its next request as soon as the last
    reply is in, until ``duration`` has passed, and ``due`` is the send.
``{"cmd": "closed", ...}``
    A closed loop of ``count`` requests of one op on one connection to
    ``address`` (the front door or a single replica); replies with the
    latencies.
``{"cmd": "quit"}``
    Exit.

The generator announces itself with ``{"ok": true}`` once its imports are
done, so the first phase does not pay for them.  All times are
``time.monotonic()`` (system-wide ``CLOCK_MONOTONIC``), so the
benchmark process can line publish times up with read completions.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import time

import numpy as np

from repro.serving import FleetClient
from workloads import CLIENT_TIMEOUT_S, TOP_K

# Request kinds of a mix: ``score`` and ``percentile`` (64-id batches),
# ``score_one`` (a singleton the front door micro-batches), ``top_k`` and
# ``score1``, a one-id *batched* read that skips the door's linger, which
# the freshness probe wants.
BATCH_IDS = 64


def make_requests(mix: dict, n: int, count: int, seed: int) -> list[tuple[str, object]]:
    """The deterministic request stream of a phase: ``(op, ids or k)``."""
    rng = np.random.default_rng(seed)
    names = sorted(mix)
    weights = np.array([mix[name] for name in names], dtype=np.float64)
    picks = rng.choice(len(names), size=count, p=weights / weights.sum())
    requests = []
    for pick in picks:
        op = names[pick]
        if op in ("score", "percentile"):
            requests.append((op, rng.integers(0, n, size=BATCH_IDS).tolist()))
        elif op in ("score_one", "score1"):
            requests.append((op, [int(rng.integers(0, n))]))
        else:
            requests.append((op, TOP_K))
    return requests


def send(client, op: str, arg) -> dict:
    if op == "score":
        return client.score(arg)
    if op == "percentile":
        return client.percentile(arg)
    if op == "score_one":
        return client.score_one(arg[0])
    if op == "score1":
        return client.score(arg)
    return client.top_k(arg)


def _reads(op: str, arg) -> int:
    return len(arg) if isinstance(arg, list) else int(arg)


def run_phase(command: dict) -> dict:
    """Drive one open-loop phase and return its per-request records."""
    rate = float(command["rate"])
    duration = float(command["duration"])
    conns = int(command["conns"])
    closed = bool(command.get("closed", False))
    sample_every = int(command.get("sample_every", 0))
    # A closed phase sends at most ``rate`` requests per second.
    count = max(int(round(rate * duration)), 1)
    requests = make_requests(command["mix"], int(command["n"]), count, int(command["seed"]))
    address = tuple(command["address"])
    clients = [FleetClient(address, timeout=CLIENT_TIMEOUT_S) for _ in range(conns)]
    records: list[list | None] = [None] * count
    start = time.monotonic() + 0.05
    end = start + duration

    def worker(lane: int) -> None:
        client = clients[lane]
        prev_done = start
        for i in range(lane, count, conns):
            op, arg = requests[i]
            due = start + i / rate
            now = time.monotonic()
            if closed:
                if now >= end:
                    return
                due = max(now, start)
            if now < due:
                time.sleep(due - now)
            sent = time.monotonic()
            try:
                reply = send(client, op, arg)
                error = None if reply.get("ok") else str(reply.get("error"))
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                reply, error = {}, type(exc).__name__
            done = time.monotonic()
            # Generator lateness: how long after the later of (due, previous
            # reply on this connection) the send went out.
            record = [op, _reads(op, arg), due, sent, done, sent - max(due, prev_done),
                      error, reply.get("version"), reply.get("replica"), None]
            if error is None and sample_every and i % sample_every == 0:
                if op == "top_k":
                    record[9] = reply["ids"]
                elif op == "score_one":
                    record[9] = [arg, [reply["value"]]]
                else:
                    record[9] = [arg, reply["values"]]
            records[i] = record
            prev_done = done

    threads = [threading.Thread(target=worker, args=(lane,)) for lane in range(conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()
    if closed:
        records = [r for r in records if r is not None]
    return {"ok": True, "start": start, "rate": rate, "records": records}


def run_closed(command: dict) -> dict:
    """Closed loop of one op on one connection; latencies in seconds."""
    op = command["op"]
    requests = make_requests({op: 1.0}, int(command["n"]), int(command["count"]), int(command["seed"]))
    latencies = []
    with FleetClient(tuple(command["address"]), timeout=CLIENT_TIMEOUT_S) as client:
        for op_name, arg in requests:
            t0 = time.monotonic()
            reply = send(client, op_name, arg)
            latencies.append(time.monotonic() - t0)
            if not reply.get("ok"):
                return {"ok": False, "error": str(reply)}
    return {"ok": True, "latencies": latencies}


def main() -> int:
    # The generator's own garbage collections would stall its sends; its
    # records hold no cycles, so reference counting frees them.
    gc.disable()
    try:
        os.setpriority(os.PRIO_PROCESS, 0, -10)
    except OSError:
        pass
    sys.stdout.write(json.dumps({"ok": True}) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "quit":
            return 0
        if command["cmd"] == "run":
            reply = run_phase(command)
        elif command["cmd"] == "closed":
            reply = run_closed(command)
        else:
            reply = {"ok": False, "error": f"unknown command {command['cmd']!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
