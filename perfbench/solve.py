"""The "rank a store" path: generate a sharded store, rank it, check σ.

Every timed solve goes through the public entry point,
``SpamResilientPipeline.rank_store``, with the store's *path*, so each call
opens the store, runs the operator's streaming stats pass, and solves to the
default stopping rule (α = 0.85, L2 residual below 1e-9).
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

from checks import CheckFailed, check_sigma


def make_store(directory: Path, n_sources: int, shards: int, seed: int):
    """Generate and open the workload's sharded store (the solve set-up)."""
    from repro.datasets import SyntheticSourceConfig, generate_source_store
    from repro.webgraph.store import ShardedGraphStore

    generate_source_store(
        SyntheticSourceConfig(n_sources=n_sources, seed=seed),
        directory,
        block_size=math.ceil(n_sources / shards),
    )
    return ShardedGraphStore.open(directory)


def make_kappa(n_sources: int, seed: int) -> np.ndarray:
    """About 1% of the sources fully throttled (κ = 1)."""
    rng = np.random.default_rng([seed, 7])
    kappa = np.zeros(n_sources, dtype=np.float64)
    kappa[rng.choice(n_sources, size=max(1, n_sources // 100), replace=False)] = 1.0
    return kappa


class Solver:
    """Ranks one store through ``rank_store`` with a fixed cache policy."""

    def __init__(self, store_dir: Path, kappa: np.ndarray, cache_blocks: int) -> None:
        from repro.config import GraphStoreParams
        from repro.core.pipeline import SpamResilientPipeline

        self.store_dir = store_dir
        self.kappa = kappa
        self.params = GraphStoreParams(cache_blocks=cache_blocks)
        self.pipeline = SpamResilientPipeline()

    def solve(self):
        return self.pipeline.rank_store(
            str(self.store_dir), kappa=self.kappa, store_params=self.params
        )

    def warm_up(self, seconds: float) -> None:
        """Untimed three-iteration solves for ``seconds``.

        The first second or so of solving after a pause runs up to 3x slow
        on the test host; this keeps it, and first-call costs, out of the
        timed solves.
        """
        from repro.config import RankingParams
        from repro.core.pipeline import SpamResilientPipeline

        quick = SpamResilientPipeline(RankingParams(max_iter=3, strict=False))
        t_start = time.perf_counter()
        while True:
            quick.rank_store(str(self.store_dir), kappa=self.kappa, store_params=self.params)
            if time.perf_counter() - t_start >= seconds:
                return

    def timed_solves(self, budget_s: float, min_solves: int) -> tuple[list[float], list]:
        """Solve until ``budget_s`` has passed and ``min_solves`` are done."""
        seconds, results = [], []
        t_start = time.perf_counter()
        while len(seconds) < min_solves or time.perf_counter() - t_start < budget_s:
            t0 = time.perf_counter()
            result = self.solve()
            seconds.append(time.perf_counter() - t0)
            results.append(result)
        return seconds, results


def reference_solve(store, kappa: np.ndarray) -> tuple[np.ndarray, float]:
    """The same problem in memory over ``store.materialize()``; (σ, seconds)."""
    from repro.config import RankingParams
    from repro.linalg.operator import ThrottledOperator
    from repro.linalg.registry import solver_registry

    t0 = time.perf_counter()
    matrix = store.materialize()
    with ThrottledOperator(matrix, kappa, full_throttle="dangling") as operator:
        result = solver_registry.solve(
            operator, RankingParams(), solver="power", label="perfbench-reference"
        )
    return result.scores, time.perf_counter() - t0


def check_solves(results: list, reference: np.ndarray) -> None:
    for result in results:
        if not result.convergence.converged:
            raise CheckFailed("rank_store did not converge")
        check_sigma(result.scores, reference)


def peak_rss_mb() -> float:
    """VmHWM of this process, in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")
