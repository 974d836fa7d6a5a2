"""The shared fixed-point engine: convergence contract and telemetry hooks."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import RankingParams, ResilienceParams
from repro.errors import ConfigError, ConvergenceError
from repro.linalg import ConvergenceInfo, iterate_to_fixpoint, residual_norm
from repro.observability import EventLog, ProgressCallback
from repro.resilience import SolveCheckpointer


def halve_toward(target):
    """A contraction with fixed point ``target`` (rate 1/2)."""
    return lambda x: 0.5 * (x + target)


class TestIterateToFixpoint:
    def test_converges_to_fixed_point(self):
        target = np.array([1.0, 2.0, 3.0])
        params = RankingParams(tolerance=1e-12, max_iter=200)
        x, info = iterate_to_fixpoint(
            halve_toward(target), np.zeros(3), params, solver="power"
        )
        np.testing.assert_allclose(x, target, atol=1e-10)
        assert info.converged
        assert info.iterations == len(info.residual_history)
        assert info.residual < 1e-12

    def test_residual_history_is_monotone_for_contraction(self):
        params = RankingParams(tolerance=1e-10, max_iter=200)
        _, info = iterate_to_fixpoint(
            halve_toward(np.ones(4)), np.zeros(4), params, solver="power"
        )
        hist = np.array(info.residual_history)
        assert (np.diff(hist) <= 0).all()

    def test_strict_raises_on_max_iter(self):
        params = RankingParams(tolerance=1e-15, max_iter=3, strict=True)
        with pytest.raises(ConvergenceError):
            iterate_to_fixpoint(
                halve_toward(np.ones(2)), np.zeros(2), params, solver="power"
            )

    def test_lenient_returns_flagged(self):
        params = RankingParams(tolerance=1e-15, max_iter=3, strict=False)
        x, info = iterate_to_fixpoint(
            halve_toward(np.ones(2)), np.zeros(2), params, solver="power"
        )
        assert not info.converged
        assert info.iterations == 3

    def test_progress_observer_sees_iterations_in_order(self):
        class Recorder(ProgressCallback):
            def __init__(self):
                self.seen = []

            def on_iteration(self, label, iteration, *args, **kwargs):
                self.seen.append(iteration)

        recorder = Recorder()
        params = RankingParams(tolerance=1e-9, max_iter=100, progress=recorder)
        _, info = iterate_to_fixpoint(
            halve_toward(np.ones(2)), np.zeros(2), params, solver="power"
        )
        assert info.converged
        assert recorder.seen == list(range(1, info.iterations + 1))

    def test_progress_hooks_fire(self):
        from repro.observability import SolverTelemetry

        telemetry = SolverTelemetry()
        params = RankingParams(
            tolerance=1e-9, max_iter=100, progress=telemetry
        )
        iterate_to_fixpoint(
            halve_toward(np.ones(2)),
            np.zeros(2),
            params,
            solver="power",
            label="engine-test",
            span_meta={"kernel": "scipy"},
        )
        run = telemetry.runs[-1]
        assert run.label == "engine-test"
        assert run.kernel == "scipy"
        assert run.iterations

    def test_kernel_none_stays_none_in_telemetry(self):
        from repro.observability import SolverTelemetry

        telemetry = SolverTelemetry()
        params = RankingParams(
            tolerance=1e-9, max_iter=100, progress=telemetry
        )
        iterate_to_fixpoint(
            halve_toward(np.ones(2)), np.zeros(2), params, solver="jacobi"
        )
        assert telemetry.runs[-1].kernel is None


class TestObserverOrderContract:
    """What happens on the iteration that converges."""

    def test_deadline_passing_on_converging_iteration_still_converges(self):
        target = np.array([0.25, 0.75])
        calls = []

        def step(x):
            calls.append(1)
            if len(calls) > 1:  # the converging step overruns the deadline
                time.sleep(0.15)
            return target.copy()

        params = RankingParams(
            tolerance=1e-9,
            max_iter=10,
            resilience=ResilienceParams(deadline_seconds=0.05),
        )
        x, info = iterate_to_fixpoint(step, np.zeros(2), params, solver="power")
        assert info.converged
        assert info.iterations == 2
        np.testing.assert_array_equal(x, target)

    def test_convergence_on_interval_saves_one_checkpoint(self, tmp_path):
        iterates = [np.full(2, v) for v in (0.1, 0.2, 0.3, 0.3)]
        step = iter(iterates).__next__
        params = RankingParams(
            tolerance=1e-9,
            max_iter=10,
            checkpoint=SolveCheckpointer(tmp_path, every=2),
        )
        log = EventLog()
        with log.activate():
            _, info = iterate_to_fixpoint(
                lambda x: step(), np.zeros(2), params, solver="power"
            )
        assert info.converged and info.iterations == 4
        saves = [e["iteration"] for e in log.events("checkpoint_save")]
        assert saves == [2, 4]
        assert [e["kind"] for e in log.events()] == [
            "solve_start", "checkpoint_save", "checkpoint_save", "solve_end"
        ]


class TestResidualNorm:
    def test_norms(self):
        d = np.array([3.0, -4.0])
        assert residual_norm(d, "l1") == pytest.approx(7.0)
        assert residual_norm(d, "l2") == pytest.approx(5.0)
        assert residual_norm(d, "linf") == pytest.approx(4.0)

    def test_unknown_norm(self):
        with pytest.raises(ConfigError):
            residual_norm(np.ones(2), "l3")


class TestConvergenceInfoLocation:
    def test_reexported_from_ranking_base(self):
        from repro.ranking.base import ConvergenceInfo as FromBase

        assert FromBase is ConvergenceInfo
