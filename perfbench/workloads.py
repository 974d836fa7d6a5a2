"""The workloads: sizes, cache policy, read mix and the fixed rates.

Every workload runs the whole path (rank a store, then serve σ); each is
sized so that one part of each path dominates.  Rates are constants chosen
once by measuring the program on a 2-core x86 box; they never follow the
code under test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Point reads: 64-id score and percentile batches plus singleton scores.
#: Singletons wait out the door's batching linger, so they form a slower
#: mode; at a quarter of the mix the median stays inside the batched mode
#: instead of on the edge between the two.
POINT_MIX = {"score": 0.45, "percentile": 0.3, "score_one": 0.25}
#: Point reads plus a fixed share of ``top_k(100)``.
CHURN_MIX = {"score": 0.35, "percentile": 0.25, "score_one": 0.2, "top_k": 0.2}
#: One-id batched reads that detect a new σ version (freshness probe).
PROBE_MIX = {"score1": 1.0}
#: Ids per ``top_k`` read.
TOP_K = 100
#: Fleet replicas, and load-generator connections (one per core).
REPLICAS = 2
CONNS = 2
#: Every workload ranks a store of this many row-block shards.
SHARDS = 8
#: Load-generator client timeout.  A failed read counts as this slow.
CLIENT_TIMEOUT_S = 30.0
#: Both workloads rank a store of this many sources.
N_SOURCES = 30_000


@dataclass(frozen=True)
class Workload:
    name: str
    #: Store size.  With ``cache_blocks`` below ``SHARDS`` every block
    #: access misses the blocked operator's LRU.
    n_sources: int
    cache_blocks: int
    #: Timed solves at least; more while the solve share of ``--seconds``
    #: lasts.
    min_solves: int
    #: Read traffic.  ``ref_rate`` is the fixed open-loop rate of
    #: ``read_p50_ms``/``read_p99_ms``.
    mix: dict
    churn: bool
    ref_rate: float
    #: Publish cadence: during every read phase for churn, otherwise only
    #: during the freshness probe that follows the load.
    publish_every_s: float
    #: Share of ``--seconds`` spent at the reference rate.
    ref_share: float
    setups: int = 3

    def smoke(self) -> "Workload":
        """A tiny version for the benchmark's own tests."""
        return replace(self, n_sources=4_000, min_solves=1, setups=1)


WORKLOADS = {
    w.name: w
    for w in (
        # An LRU of 4 blocks for 8 shards, so every iteration re-reads,
        # re-digests and re-decodes every shard; point reads with no
        # publishes while the load runs.
        Workload(name="cold-point", n_sources=N_SOURCES, cache_blocks=4, min_solves=3,
                 mix=POINT_MIX, churn=False, ref_rate=300.0, publish_every_s=0.05,
                 ref_share=0.45),
        # Every block stays cached after first use; point reads plus top_k
        # while a new σ is published about every 0.15 s, so replica compute
        # and adoption dominate.
        Workload(name="warm-churn", n_sources=N_SOURCES, cache_blocks=8, min_solves=6,
                 mix=CHURN_MIX, churn=True, ref_rate=200.0, publish_every_s=0.15,
                 ref_share=0.65),
    )
}
