"""The iteration-observer protocol and its standard telemetry collector.

:func:`repro.linalg.iterate.iterate_to_fixpoint` — the loop behind every
iterative solve (power iteration, Jacobi, Gauss–Seidel) — drives one list
of observers, each a :class:`ProgressCallback`:

* ``on_solve_start``: solve shape (label, solver, matvec label, matrix
  order, stopping rule, dangling-row mask);
* ``on_iteration``: the iteration number, the new iterate, its residual
  and the step's wall time — on every iteration, the converging one
  included;
* ``on_solve_end``: the final :class:`~repro.ranking.base.ConvergenceInfo`
  (not called when the step or an observer ends the solve by raising).

User telemetry is installed through ``RankingParams.progress``; the
engine adds the mass auditor, the numerical guard and the solve
checkpointer to the same list when their parameters ask for them.  Each
observer decides for itself on which iterations it acts.  With no
observer installed the loop makes no timing calls and no per-iteration
call-outs.

:class:`SolverTelemetry` is the batteries-included collector: it records
every solve as a :class:`SolverRun` with full residual curves, step
timings and (power solver) per-iteration dangling mass, ready for JSON
export via :func:`repro.observability.export.build_metrics_payload`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

__all__ = ["ProgressCallback", "SolverRun", "SolverTelemetry"]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..ranking.base import ConvergenceInfo


class ProgressCallback:
    """No-op base class of the solve engine's iteration observers.

    Subclass and override any subset; every method has an empty default,
    so an observer implements only the hooks it needs.
    """

    __slots__ = ()

    def on_solve_start(
        self,
        label: str,
        *,
        solver: str,
        n: int,
        tolerance: float,
        max_iter: int,
        kernel: str | None = None,
        dangling_mask: np.ndarray | None = None,
    ) -> None:
        """A solve is starting."""

    def on_iteration(
        self,
        label: str,
        iteration: int,
        x: np.ndarray,
        residual: float,
        step_seconds: float,
    ) -> None:
        """One iteration completed; ``x`` is the new iterate (read-only)."""

    def on_solve_end(self, label: str, info: "ConvergenceInfo") -> None:
        """The solve finished (converged or gave up)."""


@dataclass(slots=True)
class SolverRun:
    """Telemetry of one iterative solve."""

    label: str
    solver: str
    kernel: str | None
    n: int
    tolerance: float
    max_iter: int
    n_dangling: int = 0
    iterations: int = 0
    converged: bool = False
    final_residual: float = float("inf")
    wall_seconds: float = 0.0
    residuals: list[float] = field(default_factory=list)
    step_seconds: list[float] = field(default_factory=list)
    dangling_mass: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation (residual curve included)."""
        out: dict[str, object] = {
            "label": self.label,
            "solver": self.solver,
            "kernel": self.kernel,
            "n": self.n,
            "tolerance": self.tolerance,
            "max_iter": self.max_iter,
            "n_dangling": self.n_dangling,
            "iterations": self.iterations,
            "converged": self.converged,
            "final_residual": self.final_residual,
            "wall_seconds": self.wall_seconds,
            "residuals": list(self.residuals),
            "step_seconds": list(self.step_seconds),
        }
        if self.dangling_mass:
            out["dangling_mass"] = list(self.dangling_mass)
        return out


class SolverTelemetry(ProgressCallback):
    """Collects every solve it observes into :class:`SolverRun` records.

    One instance may observe many sequential solves (a whole pipeline
    run, or a whole experiment sweep); runs are appended in completion
    order.  Nested solves (a solver invoking another solver) are handled
    with a stack.
    """

    def __init__(self) -> None:
        self.runs: list[SolverRun] = []
        self._open: list[tuple[SolverRun, float, np.ndarray | None]] = []

    def on_solve_start(
        self,
        label: str,
        *,
        solver: str,
        n: int,
        tolerance: float,
        max_iter: int,
        kernel: str | None = None,
        dangling_mask: np.ndarray | None = None,
    ) -> None:
        n_dangling = 0 if dangling_mask is None else int(dangling_mask.sum())
        run = SolverRun(
            label=label,
            solver=solver,
            kernel=kernel,
            n=int(n),
            tolerance=float(tolerance),
            max_iter=int(max_iter),
            n_dangling=n_dangling,
        )
        self._open.append(
            (run, time.perf_counter(), dangling_mask if n_dangling else None)
        )

    def on_iteration(
        self,
        label: str,
        iteration: int,
        x: np.ndarray,
        residual: float,
        step_seconds: float,
    ) -> None:
        if not self._open:
            return
        run, _, dangling_mask = self._open[-1]
        run.iterations = int(iteration)
        run.residuals.append(float(residual))
        run.step_seconds.append(float(step_seconds))
        if dangling_mask is not None:
            run.dangling_mass.append(float(x[dangling_mask].sum()))

    def on_solve_end(self, label: str, info: "ConvergenceInfo") -> None:
        if not self._open:
            return
        run, started, _ = self._open.pop()
        run.wall_seconds = time.perf_counter() - started
        run.iterations = info.iterations
        run.converged = info.converged
        run.final_residual = info.residual
        if not run.residuals and info.residual_history:
            run.residuals = [float(r) for r in info.residual_history]
        self.runs.append(run)

    # ------------------------------------------------------------------
    def iteration_counts(self) -> dict[str, int]:
        """Total iterations per solve label (summed over repeat solves)."""
        counts: dict[str, int] = {}
        for run in self.runs:
            counts[run.label] = counts.get(run.label, 0) + run.iterations
        return counts

    def as_dict(self) -> dict[str, object]:
        """JSON-ready representation of all collected runs."""
        return {
            "runs": [run.as_dict() for run in self.runs],
            "iteration_counts": self.iteration_counts(),
        }

    def clear(self) -> None:
        """Drop all collected runs (and any half-open solves)."""
        self.runs.clear()
        self._open.clear()
