"""Degraded-mode transition coverage: every state in the serving state
machine, driven by injected faults and visible in both the exported
metrics and the per-response provenance."""

from __future__ import annotations

import pytest

from repro.config import ServingParams
from repro.errors import AdmissionError
from repro.serving import CircuitBreaker, RankingService, SERVING_STATES

from .conftest import counter_value, crash_first_matvec, gauge_value

# A breaker that never trips: these tests exercise the *service* state
# machine, not breaker pauses.
def pass_through_breaker() -> CircuitBreaker:
    return CircuitBreaker(failure_threshold=10_000)


SERVING = ServingParams(baseline_after=2, read_only_after=4)


@pytest.fixture()
def service(tmp_path, tiny, tiny_kappa):
    svc = RankingService(
        tmp_path / "snapshots",
        serving=SERVING,
        breaker=pass_through_breaker(),
    )
    svc.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
    return svc


def crash_update(service, graph, tiny, tiny_kappa) -> None:
    """Submit and run one update that dies mid-solve."""
    service.submit_update(
        graph, tiny.assignment, tiny_kappa, operator_wrap=crash_first_matvec
    )
    assert service.run_pending() == 0  # the update failed and was dropped


class TestTransitions:
    def test_full_degradation_trajectory(self, service, tiny, tiny_kappa, evolve):
        assert gauge_value("repro_serving_state") == 0.0  # healthy
        graph = tiny.graph
        observed = []
        for _ in range(4):
            graph = evolve(graph)
            crash_update(service, graph, tiny, tiny_kappa)
            health = service.health()
            response = service.score(0)
            observed.append(
                (health["state"], gauge_value("repro_serving_state"),
                 response.state, response.snapshot_kind)
            )
        assert observed == [
            ("stale", 1.0, "stale", "sr"),
            ("baseline", 2.0, "baseline", "baseline"),
            ("baseline", 2.0, "baseline", "baseline"),
            ("read_only", 3.0, "read_only", "baseline"),
        ]
        # Every hop is visible in the transitions counter.
        for frm, to in (
            ("healthy", "stale"),
            ("stale", "baseline"),
            ("baseline", "read_only"),
        ):
            assert counter_value(
                "repro_serving_transitions_total", from_state=frm, to_state=to
            ) == 1
        assert counter_value(
            "repro_serving_updates_total", status="failed"
        ) == 4

    def test_gauge_codes_match_state_order(self):
        assert SERVING_STATES == ("healthy", "stale", "baseline", "read_only")

    def test_read_only_refuses_writes_serves_reads(
        self, service, tiny, tiny_kappa, evolve
    ):
        graph = tiny.graph
        for _ in range(4):
            graph = evolve(graph)
            crash_update(service, graph, tiny, tiny_kappa)
        assert service.health()["state"] == "read_only"
        with pytest.raises(AdmissionError) as excinfo:
            service.submit_update(graph, tiny.assignment, tiny_kappa)
        assert excinfo.value.reason == "read_only"
        assert counter_value(
            "repro_serving_admission_rejections_total", reason="read_only"
        ) == 1
        # Reads keep working, honestly labelled.
        response = service.top_k(3)
        assert response.state == "read_only"
        assert response.snapshot_kind == "baseline"
        assert len(response.value) == 3

    def test_staleness_grows_and_is_stamped(
        self, service, tiny, tiny_kappa, evolve
    ):
        graph = tiny.graph
        graph = evolve(graph)
        crash_update(service, graph, tiny, tiny_kappa)
        graph = evolve(graph)
        crash_update(service, graph, tiny, tiny_kappa)
        response = service.score(0)
        assert response.staleness == 2
        assert gauge_value("repro_serving_staleness_updates") == 2.0

    def test_clean_update_recovers_from_stale(
        self, service, tiny, tiny_kappa, evolve
    ):
        graph = evolve(tiny.graph)
        crash_update(service, graph, tiny, tiny_kappa)
        assert service.health()["state"] == "stale"
        service.submit_update(graph, tiny.assignment, tiny_kappa)
        assert service.run_pending() == 1
        response = service.score(0)
        assert response.state == "healthy"
        assert response.snapshot_kind == "sr"
        assert response.staleness == 0
        assert counter_value(
            "repro_serving_transitions_total",
            from_state="stale",
            to_state="healthy",
        ) == 1

    def test_queued_update_recovers_from_read_only(
        self, service, tiny, tiny_kappa, evolve
    ):
        # read_only refuses NEW submissions, but updates queued before
        # the degradation still run — one clean success snaps back.
        crashing = evolve(tiny.graph)
        for _ in range(4):
            service.submit_update(
                crashing,
                tiny.assignment,
                tiny_kappa,
                operator_wrap=crash_first_matvec,
            )
        clean = evolve(crashing)
        service.submit_update(clean, tiny.assignment, tiny_kappa)
        # FIFO drain: four crashes push the service all the way to
        # read_only mid-batch, then the already-queued clean update runs
        # anyway and recovers it.
        assert service.run_pending(max_updates=None) == 1
        assert counter_value(
            "repro_serving_transitions_total",
            from_state="read_only",
            to_state="healthy",
        ) == 1
        response = service.score(0)
        assert response.state == "healthy"
        assert response.snapshot_kind == "sr"
        assert response.staleness == 0
        # And new submissions are accepted again.
        service.submit_update(clean, tiny.assignment, tiny_kappa)

    def test_baseline_missing_jumps_to_read_only(
        self, tmp_path, tiny, tiny_kappa, evolve
    ):
        svc = RankingService(
            tmp_path / "snapshots",
            serving=SERVING,
            breaker=pass_through_breaker(),
        )
        svc.bootstrap(tiny.graph, tiny.assignment, tiny_kappa)
        store = svc.store
        for version in list(store.versions()):
            snapshot = store.load(version)
            if snapshot is not None and snapshot.kind == "baseline":
                store.path_for(version).unlink()
        graph = tiny.graph
        graph = evolve(graph)
        crash_update(svc, graph, tiny, tiny_kappa)
        assert svc.health()["state"] == "stale"
        graph = evolve(graph)
        crash_update(svc, graph, tiny, tiny_kappa)
        # baseline_after reached but no baseline exists -> read_only.
        assert svc.health()["state"] == "read_only"
        # Reads still come from the last SR snapshot.
        assert svc.score(0).snapshot_kind == "sr"
