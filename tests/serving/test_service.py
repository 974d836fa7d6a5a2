"""Tests for :class:`repro.serving.RankingService`: queries, admission,
recovery, and concurrent reads during updates."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import RankingParams, ResilienceParams, ServingParams
from repro.errors import AdmissionError, ServingError
from repro.ranking.srsourcerank import spam_resilient_sourcerank
from repro.resilience.faults import FaultyOperator
from repro.serving import CircuitBreaker, RankingService
from repro.sources.sourcegraph import SourceGraph

from .conftest import counter_value

SERVING = ServingParams(backoff_base_seconds=0.01, backoff_max_seconds=0.05)


class Dawdling(FaultyOperator):
    """An operator that sleeps in each of its first ten matvecs."""

    def rmatvec(self, x):
        if self.calls < 10:
            time.sleep(0.02)
        return super().rmatvec(x)


def make_service(tmp_path, **kwargs) -> RankingService:
    kwargs.setdefault("serving", SERVING)
    return RankingService(tmp_path / "snapshots", **kwargs)


class TestQueries:
    def test_bootstrap_then_query(self, tmp_path, tiny, tiny_kappa):
        service = make_service(tmp_path)
        snap = service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        response = service.score(0)
        assert response.state == "healthy"
        assert response.snapshot_kind == "sr"
        assert response.snapshot_version == snap.version
        assert response.staleness == 0
        assert response.snapshot_age >= 0.0
        assert 0.0 <= response.value <= 1.0

    def test_top_k_matches_direct_solve(self, tmp_path, tiny, tiny_kappa):
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        direct = spam_resilient_sourcerank(
            SourceGraph.from_page_graph(tiny.graph, tiny.assignment),
            tiny_kappa,
            RankingParams(),
        )
        np.testing.assert_array_equal(service.top_k(10).value, direct.top(10))

    def test_percentile(self, tmp_path, tiny, tiny_kappa):
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        best = int(service.top_k(1).value[0])
        assert service.percentile(best).value == pytest.approx(100.0)

    def test_query_without_snapshot_raises(self, tmp_path):
        service = make_service(tmp_path)
        assert not service.ready()
        with pytest.raises(ServingError, match="no snapshot"):
            service.score(0)
        assert counter_value("repro_serving_reads_total", status="error") == 1

    def test_reads_counted(self, tmp_path, tiny, tiny_kappa):
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        for _ in range(3):
            service.score(1)
        assert counter_value("repro_serving_reads_total", status="ok") == 3


class TestUpdates:
    def test_update_publishes_and_serves_new_sigma(
        self, tmp_path, tiny, tiny_kappa, evolve
    ):
        service = make_service(tmp_path)
        v0 = service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa).version
        graph = evolve(tiny.graph)
        seq = service.submit_update(graph, tiny.assignment, tiny_kappa)
        assert seq == 1
        assert service.score(0).staleness == 1
        assert service.run_pending() == 1
        response = service.score(0)
        assert response.staleness == 0
        assert response.snapshot_version > v0
        direct = spam_resilient_sourcerank(
            SourceGraph.from_page_graph(graph, tiny.assignment),
            tiny_kappa,
            RankingParams(),
        )
        served = service.top_k(tiny.assignment.n_sources).value
        np.testing.assert_array_equal(served, direct.order())

    def test_queue_full_rejected(self, tmp_path, tiny, tiny_kappa):
        service = make_service(
            tmp_path, serving=SERVING.with_(max_pending=2)
        )
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        service.submit_update(tiny.graph, tiny.assignment, tiny_kappa)
        service.submit_update(tiny.graph, tiny.assignment, tiny_kappa)
        with pytest.raises(AdmissionError) as excinfo:
            service.submit_update(tiny.graph, tiny.assignment, tiny_kappa)
        assert excinfo.value.reason == "queue_full"
        assert counter_value(
            "repro_serving_admission_rejections_total", reason="queue_full"
        ) == 1

    def test_nan_corruption_recovers_inside_update(
        self, tmp_path, tiny, tiny_kappa, evolve
    ):
        # The default fallback chain (power -> jacobi) absorbs a
        # NaN-corrupted matvec: the update still succeeds and the
        # service never leaves healthy.
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        graph = evolve(tiny.graph)
        service.submit_update(
            graph,
            tiny.assignment,
            tiny_kappa,
            operator_wrap=lambda op: FaultyOperator(op, corrupt_at_call=2, seed=3),
        )
        assert service.run_pending() == 1
        assert service.health()["state"] == "healthy"
        direct = spam_resilient_sourcerank(
            SourceGraph.from_page_graph(graph, tiny.assignment),
            tiny_kappa,
            RankingParams(),
        )
        served_best = int(service.top_k(1).value[0])
        assert served_best == int(direct.top(1)[0])

    def test_publish_failure_runs_the_failure_path(
        self, tmp_path, tiny, tiny_kappa, evolve, monkeypatch
    ):
        # A failed snapshot publish (disk full, torn write) must degrade
        # exactly like a failed solve: counted, breaker-recorded, state
        # machine advanced — never a silently dropped request.
        service = make_service(
            tmp_path, breaker=CircuitBreaker(failure_threshold=10_000)
        )
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)

        def boom(**kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(service.store, "publish", boom)
        graph = evolve(tiny.graph)
        service.submit_update(graph, tiny.assignment, tiny_kappa)
        assert service.run_pending() == 0
        assert counter_value(
            "repro_serving_updates_total", status="failed"
        ) == 1
        assert service.breaker.consecutive_failures == 1
        health = service.health()
        assert health["state"] == "stale"
        assert health["consecutive_failures"] == 1
        # Reads still answered from the pre-failure snapshot.
        assert service.score(0).state == "stale"

    def test_publish_failure_does_not_wedge_half_open_breaker(
        self, tmp_path, tiny, tiny_kappa, evolve, monkeypatch
    ):
        # If the half-open probe's *publish* fails, the breaker must see
        # record_failure (re-open), not stay half-open forever with
        # allow() returning False.
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1,
            backoff_base_seconds=1.0,
            backoff_max_seconds=8.0,
            jitter=0.0,
            clock=lambda: clock[0],
        )
        service = make_service(tmp_path, breaker=breaker)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        real_publish = service.store.publish

        def boom(**kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(service.store, "publish", boom)
        graph = evolve(tiny.graph)
        service.submit_update(graph, tiny.assignment, tiny_kappa)
        assert service.run_pending() == 0
        assert breaker.state == "open"

        clock[0] = 10.0  # past the backoff: the next attempt is the probe
        graph = evolve(graph)
        service.submit_update(graph, tiny.assignment, tiny_kappa)
        assert service.run_pending() == 0
        assert breaker.state == "open"  # probe outcome recorded: re-opened

        monkeypatch.setattr(service.store, "publish", real_publish)
        clock[0] = 100.0
        graph = evolve(graph)
        service.submit_update(graph, tiny.assignment, tiny_kappa)
        assert service.run_pending() == 1
        assert breaker.state == "closed"
        assert service.health()["state"] == "healthy"

    def test_breaker_open_pauses_queue(self, tmp_path, tiny, tiny_kappa):
        breaker = CircuitBreaker(
            failure_threshold=1, backoff_base_seconds=1000.0, jitter=0.0
        )
        service = make_service(tmp_path, breaker=breaker)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        breaker.record_failure()  # trip it open
        service.submit_update(tiny.graph, tiny.assignment, tiny_kappa)
        assert service.run_pending() == 0
        assert service.pending() == 1  # not dropped, just deferred


class TestRecovery:
    def test_restart_recovers_latest_sr(self, tmp_path, tiny, tiny_kappa, evolve):
        first = make_service(tmp_path)
        first.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        graph = evolve(tiny.graph)
        first.submit_update(graph, tiny.assignment, tiny_kappa)
        first.run_pending()
        expected = first.score(0).value

        second = make_service(tmp_path)
        assert second.ready()
        response = second.score(0)
        assert response.state == "healthy"
        assert response.value == expected

    def test_restart_warm_start_reaches_same_fixpoint(
        self, tmp_path, tiny, tiny_kappa, evolve
    ):
        # A restarted service seeds its incremental ranker from the
        # recovered snapshot; the next update must land on the same
        # fixed point as a cold solve, to solver tolerance.
        strict = RankingParams(
            tolerance=1e-12,
            max_iter=2000,
            resilience=ResilienceParams(fallback_solvers=("jacobi",)),
        )
        first = make_service(tmp_path, params=strict)
        first.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)

        second = make_service(tmp_path, params=strict)
        graph = evolve(tiny.graph)
        second.submit_update(graph, tiny.assignment, tiny_kappa)
        assert second.run_pending() == 1
        cold = spam_resilient_sourcerank(
            SourceGraph.from_page_graph(graph, tiny.assignment),
            tiny_kappa,
            RankingParams(tolerance=1e-12, max_iter=2000),
        )
        store = second.store
        served = store.latest(kind="sr").sigma
        np.testing.assert_allclose(served, cold.scores, atol=1e-9)

    def test_restart_with_only_baseline(self, tmp_path, tiny, tiny_kappa):
        first = make_service(tmp_path)
        first.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        store = first.store
        # Destroy every SR snapshot; only the baseline survives.
        for version in store.versions():
            if store.load(version) and store.load(version).kind == "sr":
                store.path_for(version).unlink()

        second = make_service(tmp_path)
        assert second.ready()
        response = second.score(0)
        assert response.snapshot_kind == "baseline"
        assert second.health()["state"] == "baseline"

    def test_restart_skips_torn_snapshot(self, tmp_path, tiny, tiny_kappa, evolve):
        first = make_service(tmp_path)
        first.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        graph = evolve(tiny.graph)
        first.submit_update(graph, tiny.assignment, tiny_kappa)
        first.run_pending()
        store = first.store
        healthy_before = store.latest(kind="sr").version
        # Tear the newest file behind the store's back.
        path = store.path_for(healthy_before)
        path.write_bytes(path.read_bytes()[: 64])

        second = make_service(tmp_path)
        response = second.score(0)
        assert response.snapshot_version < healthy_before
        assert response.snapshot_kind == "sr"
        assert counter_value(
            "repro_snapshot_rejects_total", reason="unreadable"
        ) >= 1


class TestConcurrency:
    def test_concurrent_runners_adopt_in_submission_order(
        self, tmp_path, tiny, tiny_kappa, evolve
    ):
        # Two runners racing the queue: the older request's solve is
        # artificially slow, so without serialized execution its result
        # would be published *after* the newer one and adopted as
        # current. The run lock forces submission order.
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        slow_graph = evolve(tiny.graph)
        fast_graph = evolve(evolve(evolve(slow_graph)))

        service.submit_update(
            slow_graph, tiny.assignment, tiny_kappa, operator_wrap=Dawdling
        )
        service.submit_update(fast_graph, tiny.assignment, tiny_kappa)
        runners = [
            threading.Thread(target=service.run_pending, args=(1,))
            for _ in range(2)
        ]
        for thread in runners:
            thread.start()
        for thread in runners:
            thread.join(timeout=60)
        response = service.score(0)
        assert response.state == "healthy"
        assert response.staleness == 0
        # The served ranking is the *newest* submitted graph's.
        direct = spam_resilient_sourcerank(
            SourceGraph.from_page_graph(fast_graph, tiny.assignment),
            tiny_kappa,
            RankingParams(),
        )
        served = service.top_k(tiny.assignment.n_sources).value
        np.testing.assert_array_equal(served, direct.order())

    def test_reads_survive_concurrent_updates(
        self, tmp_path, tiny, tiny_kappa, evolve
    ):
        service = make_service(tmp_path)
        service.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        n = tiny.assignment.n_sources
        errors: list[Exception] = []
        stop = threading.Event()

        def reader(seed: int) -> None:
            gen = np.random.default_rng(seed)
            while not stop.is_set():
                try:
                    service.score(int(gen.integers(0, n)))
                    service.top_k(5)
                    service.percentile(int(gen.integers(0, n)))
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        graph = tiny.graph
        try:
            with service:
                for _ in range(5):
                    graph = evolve(graph)
                    service.submit_update(graph, tiny.assignment, tiny_kappa)
                deadline = threading.Event()
                for _ in range(200):
                    if service.health()["staleness_updates"] == 0:
                        break
                    deadline.wait(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
        assert service.health()["state"] == "healthy"
        assert service.score(0).staleness == 0
