"""Tests for the asyncio front door: balancing, micro-batching,
eviction/reinstatement, retry-on-kill, and the fan-out health view.

The replica processes and the door are module-scoped — spawning an
interpreter per test would dominate the suite's wall clock.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.config import FleetParams
from repro.errors import FleetError
from repro.serving import (
    FleetClient,
    FrontDoor,
    ReplicaHandle,
    ReplicaService,
    SnapshotStore,
    replica_request,
)
from repro.serving.frontend import MAX_FRAME_BYTES

PARAMS = FleetParams(
    replicas=2,
    replica_poll_seconds=0.02,
    probe_interval_seconds=0.05,
    batch_linger_seconds=0.005,
    request_timeout_seconds=5.0,
    spawn_timeout_seconds=90.0,
)
N = 48


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fleet-store")
    store = SnapshotStore(directory)
    sigma = np.arange(1.0, N + 1.0)
    store.publish(kind="sr", sigma=sigma, kappa=np.zeros(N))
    return directory


@pytest.fixture(scope="module")
def fleet(store_dir):
    handles = {
        rid: ReplicaHandle.spawn(store_dir, rid, PARAMS) for rid in (0, 1)
    }
    door = FrontDoor(
        {rid: h.address for rid, h in handles.items()}, PARAMS
    ).start()
    yield door, handles
    door.stop()
    for handle in handles.values():
        handle.terminate()


@pytest.fixture()
def client(fleet):
    door, _ = fleet
    with FleetClient(door.address) as fc:
        yield fc


def wait_until(predicate, *, timeout: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.02)


class TestReads:
    def test_batched_score_passthrough(self, fleet, client):
        response = client.score(list(range(N)))
        assert response["ok"]
        expected = np.arange(1.0, N + 1.0)
        np.testing.assert_allclose(
            response["values"], expected / expected.sum()
        )

    def test_singleton_reads_are_batched(self, fleet):
        door, _ = fleet
        flushes_before = door.stats()["batching"]["flushes"]
        results: list[dict] = []

        def reader(node: int) -> None:
            with FleetClient(door.address) as fc:
                results.append(fc.score_one(node))

        threads = [
            threading.Thread(target=reader, args=(node,)) for node in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert len(results) == 8 and all(r["ok"] for r in results)
        stats = door.stats()["batching"]
        flushed = stats["flushes"] - flushes_before
        assert flushed >= 1
        # Strictly fewer flushes than reads ⇒ at least one real coalesce
        # (8 concurrent singletons against the linger window).
        assert flushed < 8, stats

    def test_round_robin_spreads_load(self, fleet, client):
        for node in range(20):
            assert client.score([node % N])["ok"]
        per_replica = door_reads(fleet[0])
        assert all(count > 0 for count in per_replica.values()), per_replica

    def test_top_k_and_percentile(self, client):
        top = client.top_k(3)
        assert top["ok"] and top["ids"] == [N - 1, N - 2, N - 3]
        pct = client.percentile([N - 1])
        assert pct["ok"] and pct["values"][0] == pytest.approx(100.0)
        single = client.percentile_one(N - 1)
        assert single["ok"] and single["value"] == pytest.approx(100.0)

    def test_out_of_range_id_is_typed_and_does_not_evict(self, fleet, client):
        response = client.score([N])
        assert not response["ok"]
        assert response["error"] == "NodeIndexError"
        states = {
            rid: entry["state"]
            for rid, entry in fleet[0].stats()["replicas"].items()
        }
        assert set(states.values()) == {"active"}, states

    def test_bad_id_in_micro_batch_only_fails_that_id(self, fleet):
        door, _ = fleet
        results: dict[int, dict] = {}

        def reader(node: int) -> None:
            with FleetClient(door.address) as fc:
                results[node] = fc.score_one(node)

        threads = [
            threading.Thread(target=reader, args=(node,))
            for node in (0, 1, -1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=15)
        assert results[0]["ok"] and results[1]["ok"]
        assert not results[-1]["ok"]
        assert results[-1]["error"] == "NodeIndexError"

    def test_unknown_op_and_malformed_line(self, fleet, client):
        assert client.request({"op": "bogus"})["error"] == "FleetError"
        # A malformed line gets an error response, not a dropped socket.
        client._sock.sendall(b"not json\n")
        line = client._read_line(
            client._sock, time.monotonic() + 5.0, 5.0, None, time.monotonic()
        )
        assert b"malformed" in line

    @pytest.mark.parametrize("frame", [b"[1]\n", b"null\n", b"3\n", b'"x"\n'])
    def test_non_object_frame_keeps_connection(self, fleet, frame):
        door, _ = fleet
        with socket.create_connection(door.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(frame)
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False and reply["error"] == "FleetError"
            sock.sendall(b'{"op": "score", "ids": [1]}\n')
            reply = json.loads(rfile.readline())
            assert reply["ok"] and len(reply["values"]) == 1

    def test_oversized_frame_gets_typed_reply_then_close(self, fleet):
        door, _ = fleet
        with socket.create_connection(door.address, timeout=10) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(b"x" * (MAX_FRAME_BYTES + 1))
            reply = json.loads(rfile.readline())
            assert reply["ok"] is False and reply["error"] == "FleetError"
            assert "exceeds" in reply["detail"]
            assert rfile.readline() == b""  # connection closed

    def test_health_fanout(self, client):
        health = client.health()
        assert health["ok"]
        assert set(health["replicas"]) == {"0", "1"}
        for entry in health["replicas"].values():
            assert entry["state"] == "active"
            assert entry["snapshot_version"] == 1
            assert entry["ready"] is True


def door_reads(door: FrontDoor) -> dict[str, int]:
    return {
        rid: entry["reads"]
        for rid, entry in door.stats()["replicas"].items()
    }


class TestChaos:
    """Kill / evict / probe-reinstate / restart — ordered, stateful."""

    def test_kill_evict_retry_and_reinstate(self, fleet, store_dir):
        door, handles = fleet
        handles[0].kill()
        with FleetClient(door.address) as client:
            # Every read during the outage still succeeds: the door
            # evicts replica 0 on its first transport error and retries
            # the same read on replica 1.
            for node in range(30):
                assert client.score([node % N])["ok"]
            stats = door.stats()
            assert stats["reads"]["failed"] == 0
            assert stats["replicas"]["0"]["state"] == "evicted"
            assert stats["replicas"]["1"]["state"] == "active"
            assert stats["replicas"]["0"]["evictions"] >= 1
            # Restart on a fresh port; the routing table is updated and
            # the replica returns to rotation immediately.
            handles[0] = ReplicaHandle.spawn(store_dir, 0, PARAMS)
            door.update_replica(0, handles[0].address)
            wait_until(
                lambda: door.stats()["replicas"]["0"]["state"] == "active",
                what="replica 0 reinstatement",
            )
            before = door_reads(door)
            for node in range(20):
                assert client.score([node % N])["ok"]
            after = door_reads(door)
            assert after["0"] > before["0"], "restarted replica takes reads"
            # The restarted replica serves the publisher's latest σ.
            sigma = replica_request(handles[0].address, {"op": "sigma"})
            latest = SnapshotStore(store_dir).latest(kind="sr")
            assert (
                np.abs(
                    np.asarray(sigma["sigma"]) - latest.result().scores
                ).max()
                <= 1e-9
            )

    def test_probe_loop_reinstates_same_address(self, fleet, store_dir):
        door, handles = fleet
        # Kill replica 1 and bring a replacement up on the *same*
        # (host, port): the background probe loop alone must reinstate
        # it — no update_replica call.
        host, port = handles[1].address
        handles[1].kill()
        with FleetClient(door.address) as client:
            for node in range(10):
                assert client.score([node % N])["ok"]
        wait_until(
            lambda: door.stats()["replicas"]["1"]["state"] == "evicted",
            what="replica 1 eviction",
        )
        # An in-process replica pinned to the freed port speaks the same
        # protocol — enough for the probe to see a ready backend again.
        replacement = ReplicaService(
            SnapshotStore(store_dir),
            replica_id=1,
            host=host,
            port=port,
            poll_interval=0.02,
        ).bind()
        thread = threading.Thread(
            target=replacement.serve_forever, daemon=True
        )
        thread.start()
        try:
            wait_until(
                lambda: replacement.follower.current is not None,
                what="replacement adoption",
            )
            wait_until(
                lambda: door.stats()["replicas"]["1"]["state"] == "active",
                what="probe reinstatement",
            )
            assert door.stats()["reads"]["failed"] == 0
            assert door.stats()["replicas"]["1"]["reinstatements"] >= 1
            with FleetClient(door.address) as client:
                for node in range(10):
                    assert client.score([node % N])["ok"]
        finally:
            try:
                replica_request((host, port), {"op": "stop"}, timeout=5)
            except Exception:
                pass
            thread.join(timeout=10)
            replacement.close()


class TestValidation:
    def test_door_requires_replicas(self):
        with pytest.raises(FleetError, match="at least one replica"):
            FrontDoor({}, PARAMS)

    def test_request_before_start_raises(self, store_dir):
        door = FrontDoor({0: ("127.0.0.1", 1)}, PARAMS)
        with pytest.raises(FleetError, match="not started"):
            door.request({"op": "stats"})
        with pytest.raises(FleetError, match="not started"):
            door.address
