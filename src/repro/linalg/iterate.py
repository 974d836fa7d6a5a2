"""The shared fixed-point iteration engine.

Every iterative ranking solve in the library — power iteration, Jacobi,
Gauss–Seidel, and any future registered solver — is the same loop: apply
one update step, measure the residual between successive iterates under
the configured norm, stop at tolerance or ``max_iter``.
:func:`iterate_to_fixpoint` is that loop, written once.  Solvers supply
only their step function; the engine owns

* the per-solve wrapper: the ``solve:<label>`` tracing span (with the
  iteration count), the ambient :func:`profile_block`, and the
  ``solve_start`` / ``solve_end`` / ``solve_failed`` events;
* checkpoint resume — when ``params.checkpoint`` holds stored state for
  this solve, the loop starts from it instead of ``x0``;
* the residual history and the strict-raise / lenient-warn convergence
  contract;
* one list of **iteration observers**, all sharing the
  :class:`~repro.observability.progress.ProgressCallback` protocol
  (``on_solve_start`` / ``on_iteration`` / ``on_solve_end``), called in
  this order:

  1. ``params.progress`` — telemetry such as
     :class:`~repro.observability.progress.SolverTelemetry`;
  2. an :class:`~repro.audit.invariants.IterateMassAuditor` when
     ``params.audit.check_every`` is set (power solver only);
  3. a :class:`~repro.resilience.guards.SolveGuard` when
     ``params.resilience`` enables a guard;
  4. ``params.checkpoint`` — a
     :class:`~repro.resilience.checkpoint.SolveCheckpointer`.

  Each observer owns its own "when" rule (audit interval, guard
  tolerance, checkpoint interval); the engine calls every observer on
  every iteration, the converging one included, and evaluates none of
  those rules itself.  An observer may end the solve by raising.  With
  no observer installed the loop makes no timing call and no
  per-iteration call-out.

:class:`ConvergenceInfo` lives here (below the ranking layer) so that
both the engine and the result types can use it without an import cycle;
:mod:`repro.ranking.base` re-exports it under its historical name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..errors import ConfigError, ConvergenceError
from ..logging_utils import get_logger
from ..observability.events import emit as emit_event
from ..observability.profiling import profile_block
from ..observability.tracing import span

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..config import RankingParams

__all__ = ["ConvergenceInfo", "residual_norm", "iterate_to_fixpoint"]

_logger = get_logger(__name__)


@dataclass(frozen=True, slots=True)
class ConvergenceInfo:
    """Record of an iterative solve.

    Attributes
    ----------
    converged:
        Whether the residual dropped below the tolerance.
    iterations:
        Iterations actually performed.
    residual:
        Final residual norm (same norm as the stopping rule).
    tolerance:
        The requested stopping tolerance.
    residual_history:
        Residual after each iteration — the convergence curve, used by the
        solver-ablation bench.
    """

    converged: bool
    iterations: int
    residual: float
    tolerance: float
    residual_history: tuple[float, ...] = ()

    def convergence_summary(self, *, curve_points: int = 5) -> str:
        """One-line human summary: outcome, iterations, residual tail.

        >>> info = ConvergenceInfo(True, 3, 5e-10, 1e-9,
        ...                        (1e-2, 1e-6, 5e-10))
        >>> info.convergence_summary()
        'converged in 3 iterations (residual 5.00e-10, tolerance 1.00e-09); last residuals: 1.00e-02 -> 1.00e-06 -> 5.00e-10'
        """
        state = "converged" if self.converged else "did NOT converge"
        text = (
            f"{state} in {self.iterations} iterations "
            f"(residual {self.residual:.2e}, tolerance {self.tolerance:.2e})"
        )
        tail = self.residual_history[-max(int(curve_points), 0):]
        if tail:
            curve = " -> ".join(f"{r:.2e}" for r in tail)
            text += f"; last residuals: {curve}"
        return text


def residual_norm(diff: np.ndarray, norm: str) -> float:
    """Norm of an iterate difference under the configured stopping norm."""
    if norm == "l1":
        return float(np.abs(diff).sum())
    if norm == "l2":
        return float(np.linalg.norm(diff))
    if norm == "linf":
        return float(np.abs(diff).max())
    raise ConfigError(f"unknown norm {norm!r}")


def iterate_to_fixpoint(
    step: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    params: "RankingParams",
    *,
    solver: str,
    label: str = "",
    dangling_mask: np.ndarray | None = None,
    span_meta: Mapping[str, object] | None = None,
) -> tuple[np.ndarray, ConvergenceInfo]:
    """Iterate ``x <- step(x)`` until the stopping rule fires.

    Parameters
    ----------
    step:
        One full update.  Must return a vector distinct from its input
        (the residual is computed between the two).
    x0:
        Starting iterate; not mutated.
    params:
        Stopping rule (``tolerance``, ``max_iter``, ``norm``, ``strict``)
        plus the optional observers (``progress``, ``audit``,
        ``resilience``, ``checkpoint``).
    solver:
        Solver name for spans/telemetry (``"power"``, ``"jacobi"``, ...).
    label:
        Human-readable solve tag; falls back to ``solver``.
    dangling_mask:
        Boolean mask of dangling rows, handed to every observer at solve
        start (power-solver telemetry reports the dangling mass from
        it); ``None`` when the solver has no dangling rows to track.
    span_meta:
        Extra key/values attached to the ``solve:<label>`` span.  A
        ``"kernel"`` entry (the power solver's matvec label) is also
        handed to the observers at solve start.

    Returns
    -------
    tuple
        ``(x, info)`` — the final iterate and its convergence record.

    Raises
    ------
    ConvergenceError
        When ``params.strict`` and ``max_iter`` is exhausted first, or —
        as one of the typed subclasses — when an enabled resilience guard
        trips (NaN/Inf iterate, divergence, stagnation, deadline).  The
        error carries the last finite iterate on ``last_iterate`` so
        fallback chains can warm-start.
    """
    tag = label or solver
    n = int(np.asarray(x0).size)
    meta: dict[str, object] = dict(span_meta or {})
    ckpt = params.checkpoint
    start_iteration = 0
    if ckpt is not None:
        state = ckpt.load(tag)
        if state is not None and state.x.size == n:
            x0 = state.x.copy()
            start_iteration = min(int(state.iteration), params.max_iter - 1)
            meta.setdefault("resumed_from", start_iteration)
    observers = _observers(params, solver, tag, dangling_mask)
    emit_event(
        "solve_start",
        label=tag,
        solver=solver,
        n=n,
        tolerance=params.tolerance,
        max_iter=params.max_iter,
        resumed_from=start_iteration or None,
    )
    try:
        with span(f"solve:{tag}", solver=solver, n=n, **meta) as trace, \
                profile_block(f"solve:{tag}", solver=solver):
            for observer in observers:
                observer.on_solve_start(
                    tag,
                    solver=solver,
                    n=n,
                    tolerance=params.tolerance,
                    max_iter=params.max_iter,
                    kernel=meta.get("kernel"),
                    dangling_mask=dangling_mask,
                )
            x = x0
            history: list[float] = []
            residual = np.inf
            iterations = start_iteration
            for iterations in range(start_iteration + 1, params.max_iter + 1):
                if observers:
                    t0 = time.perf_counter()
                x_next = step(x)
                residual = residual_norm(x_next - x, params.norm)
                history.append(residual)
                x = x_next
                if observers:
                    seconds = time.perf_counter() - t0
                    for observer in observers:
                        observer.on_iteration(tag, iterations, x, residual, seconds)
                if residual < params.tolerance:
                    break
            if trace is not None:
                trace.meta["iterations"] = iterations
        converged = residual < params.tolerance
        info = ConvergenceInfo(
            converged=converged,
            iterations=iterations,
            residual=float(residual),
            tolerance=params.tolerance,
            residual_history=tuple(history),
        )
        for observer in observers:
            observer.on_solve_end(tag, info)
        emit_event(
            "solve_end",
            label=tag,
            solver=solver,
            converged=converged,
            iterations=iterations,
            residual=float(residual),
        )
        if not converged and params.strict:
            err = ConvergenceError(iterations, residual, params.tolerance)
            if np.isfinite(np.asarray(x)).all():
                err.last_iterate = np.array(x, dtype=np.float64, copy=True)
            raise err
    except ConvergenceError as exc:
        # Guard trips (NaN, divergence, stagnation, deadline) and strict
        # non-convergence leave through here; stamp the failure so the
        # event log shows *why* a fallback or degradation followed.
        emit_event(
            "solve_failed",
            label=tag,
            solver=solver,
            error=type(exc).__name__,
            detail=str(exc),
        )
        raise
    if not converged:
        _logger.warning(
            "%s did not converge: residual %.3e after %d iterations",
            tag,
            residual,
            iterations,
        )
    return x, info


def _observers(params, solver: str, tag: str, dangling_mask) -> list:
    """The solve's iteration observers, in call order (see module doc)."""
    observers = []
    if params.progress is not None:
        observers.append(params.progress)
    audit = params.audit
    if audit is not None and audit.check_every and solver == "power":
        # Imported lazily (repro.audit sits above this layer).  Power
        # only: the linear solvers' intermediate iterates are not
        # probability distributions, so mass conservation is not an
        # invariant there.
        from ..audit.invariants import IterateMassAuditor

        observers.append(
            IterateMassAuditor(
                audit,
                subject=tag,
                # With dangling rows the "linear" handling lets mass leak
                # (never grow); "teleport" keeps mass at 1, which the
                # leaky bound also accepts.
                leaky=dangling_mask is not None and bool(dangling_mask.any()),
            )
        )
    resilience = params.resilience
    if resilience is not None and resilience.enabled:
        # Lazily imported: repro.resilience sits beside this layer and
        # importing it at module scope would cycle through the registry.
        from ..resilience.guards import SolveGuard

        observers.append(
            SolveGuard(resilience, tolerance=params.tolerance, label=tag)
        )
    ckpt = params.checkpoint
    if ckpt is not None:
        observers.append(ckpt)
    return observers
