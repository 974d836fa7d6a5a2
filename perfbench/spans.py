"""Timing spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the public functions of each layer in a span:
name, start, end, and the span that was open when it started.  Spans stay
in memory and are written out once, when the run ends.  The untraced run
installs nothing, so it pays no tracing cost.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    """In-memory span recorder with explicit parent links.

    Spans are opened from the benchmark's main thread only, so one stack
    of open spans gives every new span its parent.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, **meta):
        return _Span(self, name, meta)

    def wrap(self, owner: object, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` with a version that records a span per call.

        ``describe(args)`` may return extra fields to store on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name, **(describe(args) if describe else {})):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries ---------------------------------------------------------
    def durations(self, name: str, *, within: int | None = None) -> list[float]:
        """Durations (s) of spans called ``name``, optionally under one span."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (within is None or self._under(s, within))
        ]

    def _under(self, span: dict, ancestor: int) -> bool:
        parent = span["parent"]
        while parent is not None:
            if parent == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n", encoding="utf-8")


class _Span:
    def __init__(self, tracer: Tracer, name: str, meta: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._meta = meta
        self.index = -1

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self.index = len(tracer.spans)
        tracer.spans.append({
            "name": self._name,
            "start": time.perf_counter(),
            "end": None,
            "parent": tracer._stack[-1] if tracer._stack else None,
            **self._meta,
        })
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self._tracer
        tracer.spans[self.index]["end"] = time.perf_counter()
        tracer._stack.pop()


def install_solve_spans(tracer: Tracer) -> None:
    """Spans around the public calls of the solve path's layers."""
    import repro.core.pipeline as pipeline
    from repro.linalg.operator import BlockedOperator, ThrottledOperator
    from repro.linalg.registry import SolverRegistry
    from repro.webgraph.store import ShardedGraphStore

    tracer.wrap(pipeline, "operator_from_store", "core.pipeline.operator_from_store")
    tracer.wrap(SolverRegistry, "solve", "linalg.iterate.solve")
    tracer.wrap(
        ShardedGraphStore, "load_block", "webgraph.store.load_block",
        describe=lambda args: {"block": int(args[1])},
    )
    tracer.wrap(BlockedOperator, "rmatvec", "linalg.operator.rmatvec")
    tracer.wrap(ThrottledOperator, "rmatvec", "linalg.operator.throttled_rmatvec")
