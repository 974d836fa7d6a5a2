"""Checkpoint/resume for long solves and pipeline stages.

Two cooperating pieces:

* :class:`SolveCheckpointer` — periodic snapshots of a single iterative
  solve (the iterate vector plus the iteration count), written atomically
  (tmp + ``os.replace``) so a kill mid-write can never leave a torn file.
  Installed via ``RankingParams.checkpoint``, it is an iteration observer
  of the shared engine: it saves every ``every`` iterations and once on
  the converging iteration, and, when ``resume`` is set, the engine
  restarts from the stored iterate instead of the cold start.
* :class:`PipelineCheckpointer` — per-stage outputs of a
  :class:`~repro.core.pipeline.SpamResilientPipeline` run, keyed on a
  content hash of the inputs (:func:`content_key` over the source-graph
  CSR arrays, seeds, and parameter reprs), so a resumed run skips every
  stage whose inputs are byte-identical.

Checkpoint files are ``.npz`` with a format-version field; a tampered or
truncated checkpoint is *ignored* (with a warning), never trusted — a
bad checkpoint must cost a recompute, not a crash or a wrong σ.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
from collections.abc import Mapping, Set
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..logging_utils import get_logger
from ..observability.events import emit as emit_event
from ..observability.metrics import get_registry
from ..observability.progress import ProgressCallback

__all__ = [
    "content_key",
    "atomic_savez",
    "SolveState",
    "SolveCheckpointer",
    "PipelineCheckpointer",
]

_logger = get_logger(__name__)

_CHECKPOINT_FORMAT_VERSION = 1
_TAG_RE = re.compile(r"[^A-Za-z0-9._-]+")


def _record_resume(kind: str) -> None:
    get_registry().counter(
        "repro_checkpoint_resumes_total",
        "Solves/stages resumed from a checkpoint, by kind",
        labelnames=("kind",),
    ).labels(kind=kind).inc()


def content_key(*parts: object) -> str:
    """Deterministic sha256 hex digest of a mixed bag of inputs.

    NumPy arrays hash their raw bytes (plus dtype/shape so reinterpreted
    buffers cannot collide); scipy CSR matrices hash their three arrays;
    mappings and sets are canonicalized (their entries hashed and sorted)
    so two dicts or sets holding the same items produce the same key
    regardless of insertion order — pipeline checkpoints keyed on a
    param dict must not spuriously miss after a reordering; lists and
    tuples recurse element-wise (preserving order) so nested containers
    canonicalize too.  Everything else hashes its ``repr``.
    """
    digest = hashlib.sha256()
    for part in parts:
        _digest_part(digest, part)
    return digest.hexdigest()


def _digest_part(digest, part: object) -> None:
    """Feed one canonicalized part into ``digest`` (see :func:`content_key`)."""
    if hasattr(part, "indptr") and hasattr(part, "indices"):
        digest.update(b"csr:")
        for arr in (part.indptr, part.indices, getattr(part, "data", None)):
            if arr is not None:
                digest.update(content_key(np.asarray(arr)).encode())
        return
    if isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
        return
    if isinstance(part, Mapping):
        digest.update(b"map:")
        for key_hash, value_hash in sorted(
            (content_key(key), content_key(value)) for key, value in part.items()
        ):
            digest.update(key_hash.encode())
            digest.update(value_hash.encode())
        digest.update(b"\x00")
        return
    if isinstance(part, (Set, frozenset)):
        digest.update(b"set:")
        for item_hash in sorted(content_key(item) for item in part):
            digest.update(item_hash.encode())
        digest.update(b"\x00")
        return
    if isinstance(part, (list, tuple)):
        digest.update(b"seq:")
        for item in part:
            _digest_part(digest, item)
        digest.update(b"\x00")
        return
    digest.update(repr(part).encode())
    digest.update(b"\x00")


def atomic_savez(path: Path, **arrays: object) -> None:
    """Write an ``.npz`` so that ``path`` is either absent or complete.

    The tmp + ``os.replace`` publish pattern shared by the checkpointers
    and the serving layer's :class:`~repro.serving.SnapshotStore`: a kill
    mid-write can never leave a torn file under the final name.  The tmp
    file is fsynced before the rename (and the directory after it, where
    the platform allows) so the same holds across a power loss — without
    the fsync, ``os.replace`` could land an empty or partially flushed
    file under the final name once the page cache is gone.  Readers
    still digest-verify on load; the fsync just makes losing the publish
    itself the only remaining failure mode, not serving a torn file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.stem + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - tmp already consumed
            pass
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir opens
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover - fs without dir fsync
        pass
    finally:
        os.close(dir_fd)


def _load_npz(path: Path, required: tuple[str, ...]) -> dict | None:
    """Load a checkpoint ``.npz``; ``None`` (with a warning) if unusable."""
    if not path.exists():
        return None
    try:
        with np.load(path) as data:
            if int(data["format_version"]) != _CHECKPOINT_FORMAT_VERSION:
                raise ValueError(
                    f"format version {int(data['format_version'])}"
                )
            return {key: data[key] for key in required}
    except Exception as exc:  # noqa: BLE001 - any corruption ⇒ recompute
        _logger.warning("ignoring unusable checkpoint %s (%s)", path, exc)
        return None


@dataclass(frozen=True, slots=True)
class SolveState:
    """One solve checkpoint: the iterate and how far the solve had got."""

    x: np.ndarray
    iteration: int
    residual: float


class SolveCheckpointer(ProgressCallback):
    """Periodic atomic snapshots of an iterative solve, keyed by tag.

    As an iteration observer it saves on every ``every``-th iteration and
    on the converging one (exactly once when the two coincide); the solve
    label is the tag.

    Parameters
    ----------
    directory:
        Where checkpoint files live (created on first save).
    every:
        Save interval in iterations (a final checkpoint is always written
        on convergence regardless of the interval).
    resume:
        When True, :meth:`load` returns stored state; when False it
        always returns ``None`` (fresh start, existing files untouched
        until overwritten).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        every: int = 25,
        resume: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.every = max(int(every), 1)
        self.resume = bool(resume)
        self._tolerances: dict[str, float] = {}

    def on_solve_start(self, label: str, *, tolerance: float, **shape) -> None:
        """Observer hook: remember the solve's tolerance (its "converged")."""
        self._tolerances[label] = float(tolerance)

    def on_iteration(
        self,
        label: str,
        iteration: int,
        x: np.ndarray,
        residual: float,
        step_seconds: float,
    ) -> None:
        """Observer hook: save on the interval and on convergence."""
        if residual < self._tolerances.get(label, 0.0):
            self.save(label, x, iteration, residual)
        else:
            self.maybe_save(label, x, iteration, residual)

    def path_for(self, tag: str) -> Path:
        """Checkpoint file path for one solve tag (sanitized)."""
        safe = _TAG_RE.sub("_", tag) or "solve"
        return self.directory / f"{safe}.ckpt.npz"

    def save(self, tag: str, x: np.ndarray, iteration: int, residual: float) -> None:
        """Write one checkpoint atomically (tmp + rename)."""
        atomic_savez(
            self.path_for(tag),
            format_version=np.int64(_CHECKPOINT_FORMAT_VERSION),
            x=np.asarray(x, dtype=np.float64),
            iteration=np.int64(iteration),
            residual=np.float64(residual),
        )
        emit_event(
            "checkpoint_save", tag=tag, iteration=int(iteration),
            residual=float(residual),
        )

    def maybe_save(
        self, tag: str, x: np.ndarray, iteration: int, residual: float
    ) -> bool:
        """Save if ``iteration`` hits the configured interval."""
        if iteration % self.every != 0:
            return False
        self.save(tag, x, iteration, residual)
        return True

    def load(self, tag: str) -> SolveState | None:
        """The stored state for ``tag`` when resuming; else ``None``."""
        if not self.resume:
            return None
        data = _load_npz(self.path_for(tag), ("x", "iteration", "residual"))
        if data is None:
            return None
        state = SolveState(
            x=np.asarray(data["x"], dtype=np.float64),
            iteration=int(data["iteration"]),
            residual=float(data["residual"]),
        )
        _record_resume("solve")
        emit_event("checkpoint_resume", tag=tag, iteration=state.iteration)
        _logger.info(
            "resuming solve %r from iteration %d (residual %.3e)",
            tag,
            state.iteration,
            state.residual,
        )
        return state

    def clear(self, tag: str) -> None:
        """Delete the checkpoint for one tag, if present."""
        try:
            self.path_for(tag).unlink()
        except FileNotFoundError:
            pass


class PipelineCheckpointer:
    """Content-addressed store of completed pipeline-stage outputs.

    Stage files live under ``directory / <key[:16]> / <stage>.npz`` where
    ``key`` is the :func:`content_key` of the run's inputs — any change
    to the graph, seeds, or parameters changes the key, so stale state
    can never be replayed onto different inputs.
    """

    def __init__(self, directory: str | Path, *, resume: bool = True) -> None:
        self.directory = Path(directory)
        self.resume = bool(resume)

    def _stage_path(self, key: str, stage: str) -> Path:
        safe = _TAG_RE.sub("_", stage) or "stage"
        return self.directory / key[:16] / f"{safe}.npz"

    def solve_checkpointer(self, key: str) -> SolveCheckpointer:
        """A :class:`SolveCheckpointer` scoped under this run's key."""
        return SolveCheckpointer(
            self.directory / key[:16] / "solves", resume=self.resume
        )

    def save_stage(self, key: str, stage: str, **arrays: object) -> None:
        """Persist one completed stage's named arrays atomically."""
        atomic_savez(
            self._stage_path(key, stage),
            format_version=np.int64(_CHECKPOINT_FORMAT_VERSION),
            **arrays,
        )

    def load_stage(
        self, key: str, stage: str, names: tuple[str, ...]
    ) -> dict | None:
        """The stored arrays for one stage when resuming; else ``None``."""
        if not self.resume:
            return None
        data = _load_npz(self._stage_path(key, stage), names)
        if data is not None:
            _record_resume("stage")
            emit_event("stage_resume", stage=stage, key=key[:16])
            _logger.info("resuming pipeline stage %r from checkpoint", stage)
        return data
