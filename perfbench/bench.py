"""One benchmark run: set up, rank the store, serve reads, check, report.

:meth:`Bench.run` returns ``{metric: (value, unit)}``: the end-to-end
metrics of an untraced run, or the per-layer metrics of a traced one.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from checks import ReadReference, check_failures_counted
from serve import (
    LoadGen,
    Phase,
    Publisher,
    door_counters,
    publish_to_read,
    sigma_variants,
    start_fleet,
)
from solve import Solver, check_solves, make_kappa, make_store, peak_rss_mb, reference_solve
from spans import Tracer, install_solve_spans
from workloads import CONNS, PROBE_MIX, REPLICAS, SHARDS, TOP_K

#: Shares of ``--seconds`` for the timed solves, the saturated reads and
#: the freshness probe; the reference rate's share is per workload.
SOLVE_SHARE = 0.2
SATURATE_SHARE = 0.1
PROBE_SHARE = 0.2
#: One-id probe reads per second.
PROBE_RATE = 400.0
#: Untimed solving before the timed solves, and untimed reads at the
#: reference rate before the timed reads.
WARM_UP_S = 1.0
READ_WARM_UP_S = 2.0
#: The reference rate runs as passes of about this many replies.  Its p50
#: is the median of the passes' own, so a stall of the host moves one pass,
#: not the figure.
PASS_REPLIES = 1100
#: Saturated reads: the generator makes at most this many requests per
#: second, far above what the fleet serves.
SATURATE_CAP = 5000.0
#: Publishes this close to the end of the reads do not count for freshness.
FRESH_WINDOW_S = 0.5
#: Every n-th reply of a phase is checked value by value.
SAMPLE_EVERY = 10
#: Untraced and traced solves each in a traced run.
TRACED_SOLVES = 3
#: Closed-loop requests per op for the per-layer wire measurements.
CLOSED_COUNT = {"score": 100, "percentile": 100, "score_one": 100, "score1": 100, "top_k": 20}


def log(message: str) -> None:
    """Diagnostics go to standard error; standard output ends with the result."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def steal_s() -> float:
    """CPU time the hypervisor has stolen from this machine so far."""
    with open("/proc/stat", encoding="ascii") as stat:
        return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def _median(values) -> float:
    return float(statistics.median(values))


class Bench:
    def __init__(self, workload, seed: int, seconds: float, work: Path, src: Path,
                 *, trace: bool) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.src = src
        self.trace = trace
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.fleet = None
        self.loadgen: LoadGen | None = None
        self.metrics: dict[str, tuple[float, str]] = {}
        #: Every read phase, for the correctness checks.
        self.phases: list[Phase] = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    # ------------------------------------------------------------------
    def run(self) -> dict[str, tuple[float, str]]:
        w = self.w
        store_setup = []
        for i in range(w.setups):
            directory = self.work / f"store-{i}"
            t0 = time.perf_counter()
            store = make_store(directory, w.n_sources, SHARDS, self.seed)
            store_setup.append(time.perf_counter() - t0)
            if i < w.setups - 1:
                shutil.rmtree(directory)
        kappa = make_kappa(w.n_sources, self.seed)
        solver = Solver(store.directory, kappa, w.cache_blocks)
        # Every timed solve runs before the reads.  The reads leave a large,
        # fragmented heap behind, and a cold solve run after them measured a
        # third faster than in a fresh process (2.1 s against 1.4 s), most
        # likely because its block decodes then reuse freed heap instead of
        # faulting in new pages.
        solver.warm_up(WARM_UP_S)
        if self.trace:
            solved = self._traced_solves(solver, store)
        else:
            seconds, solved = solver.timed_solves(SOLVE_SHARE * self.seconds, w.min_solves)
            log("solves (s): " + " ".join(f"{x:.3f}" for x in seconds))
            self.put("solve_s", _median(seconds), "s")
            self.put("peak_rss_mb", peak_rss_mb(), "MB")
        reference, inmem_s = reference_solve(store, kappa)
        check_solves(solved, reference)
        sigma = solved[-1].scores

        fleet_setup = []
        for i in range(w.setups):
            t0 = time.perf_counter()
            fleet, version = start_fleet(self.work / f"snap-{i}", sigma, kappa, REPLICAS)
            fleet_setup.append(time.perf_counter() - t0)
            if i < w.setups - 1:
                fleet.stop()
            else:
                self.fleet = fleet
        reads = ReadReference()
        reads.add(version, sigma, TOP_K)
        variants = sigma_variants(sigma, 4, self.seed)
        self.loadgen = LoadGen(self.src)
        self._closed("percentile", self.fleet.frontdoor.address, count=10)
        if self.trace:
            self.put("core.pipeline.inmem_solve_s", inmem_s, "s")
            self._traced_reads(reads, variants, kappa, store, version)
        else:
            self.put("setup_s", _median(store_setup) + _median(fleet_setup), "s")
            self._reads(reads, variants, kappa)
        self.attempted += len(solved)
        return self.metrics

    def close(self) -> None:
        if self.loadgen is not None:
            self.loadgen.close()
            self.loadgen = None
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _phase(self, rate: float, duration: float, mix: dict, salt: int,
               closed: bool = False) -> Phase:
        reply = self.loadgen.call({
            "cmd": "run",
            "address": list(self.fleet.frontdoor.address),
            "rate": rate,
            "duration": duration,
            "closed": closed,
            "mix": mix,
            "n": self.w.n_sources,
            "conns": CONNS,
            "seed": self.seed * 1000 + salt,
            "sample_every": SAMPLE_EVERY,
        })
        phase = Phase(reply)
        self.phases.append(phase)
        self.attempted += len(phase.ops)
        self.failed += phase.failed
        return phase

    def _closed(self, op: str, address, *, count: int) -> list[float]:
        reply = self.loadgen.call({
            "cmd": "closed", "op": op, "address": list(address),
            "count": count, "n": self.w.n_sources, "seed": self.seed,
        })
        self.attempted += count
        return reply["latencies"]

    def _publisher(self, reads, variants, kappa) -> Publisher:
        return Publisher(self.fleet.service.store, variants, kappa, reads,
                         self.w.publish_every_s, self.seed)

    def _ref_passes(self, count: int):
        """Untimed warm-up, then the reference rate in ``count`` passes,
        each yielded as it ends."""
        w = self.w
        self._phase(w.ref_rate, READ_WARM_UP_S, w.mix, salt=0)
        for i in range(count):
            ref = self._phase(w.ref_rate, w.ref_share * self.seconds / count, w.mix,
                              salt=1 + i)
            log(f"reference {ref.rate:g}/s: {len(ref.ops)} reads, p50 "
                f"{ref.latency_pct_ms(50):.2f} ms, p99 {ref.latency_pct_ms(99):.2f} ms, "
                f"generator late p99 {np.percentile(ref.late, 99) * 1e3:.2f} ms")
            yield ref

    def _saturate(self, count: int, salt: int) -> float:
        """Replies per second with both connections sending back to back, in
        one of ``count`` slices of the saturated share of the run."""
        phase = self._phase(SATURATE_CAP, SATURATE_SHARE * self.seconds / count, self.w.mix,
                            salt=salt, closed=True)
        capacity = phase.throughput_rps()
        log(f"saturated: {len(phase.ops)} reads, {capacity:.1f}/s, failed {phase.failed}")
        return capacity

    def _probe(self, reads: ReadReference, variants, kappa):
        """One-id reads watching a stream of publishes; (phase, publishes)."""
        publisher = self._publisher(reads, variants, kappa)
        publisher.start()
        try:
            phase = self._phase(PROBE_RATE, PROBE_SHARE * self.seconds, PROBE_MIX, salt=99)
        finally:
            publisher.stop()
        return phase, publisher.published

    def _reads(self, reads: ReadReference, variants, kappa) -> None:
        w = self.w
        before = door_counters(self.fleet)
        stolen = steal_s()
        publisher = self._publisher(reads, variants, kappa) if w.churn else None
        if publisher:
            publisher.start()
        try:
            # Reference passes and saturated slices alternate, so both
            # figures span the whole read time of the run.
            count = max(round(w.ref_rate * w.ref_share * self.seconds / PASS_REPLIES), 1)
            ref, slices = [], []
            for i, ref_pass in enumerate(self._ref_passes(count)):
                ref.append(ref_pass)
                slices.append(self._saturate(count, salt=50 + i))
            capacity = _median(slices)
        finally:
            if publisher:
                publisher.stop()
        if publisher:
            fresh, published = ref, publisher.published
        else:
            # Point reads publish nothing under load: a separate probe
            # watches a stream of publishes.
            probe, published = self._probe(reads, variants, kappa)
            fresh = [probe]
        after = door_counters(self.fleet)
        log(f"{steal_s() - stolen:.2f} CPU seconds stolen by the host during the reads")
        for phase in self.phases:
            phase.check_samples(reads)
        check_failures_counted(
            sum(p.bad_reads for p in self.phases), after["bad_reads"] - before["bad_reads"]
        )
        self.put("read_p50_ms", _median(p.latency_pct_ms(50) for p in ref), "ms")
        # The p99 is logged, not reported: on a shared 2-core host it is set
        # by the host's scheduling stalls more than by the program, and it
        # moved by a third from run to run (the traced run reports it).
        log(f"p99 over the passes {_median(p.latency_pct_ms(99) for p in ref):.3f} ms")
        self.put("read_capacity_rps", capacity, "req/s")
        lags = np.concatenate([publish_to_read(p, published, FRESH_WINDOW_S) for p in fresh])
        log(f"publish to read: quartiles {np.percentile(lags, [25, 50, 75]) * 1e3} ms, "
            f"mean {lags.mean() * 1e3:.2f} ms over {lags.size} (publish, replica) pairs")
        self.put("publish_to_read_ms", _median(lags) * 1e3, "ms")

    # ------------------------------------------------------------------
    # Traced run: per-layer metrics
    # ------------------------------------------------------------------
    def _traced_solves(self, solver: Solver, store) -> list:
        count = min(self.w.min_solves, TRACED_SOLVES)
        untraced, results = solver.timed_solves(0.0, count)
        install_solve_spans(self.tracer)
        roots = []
        try:
            for _ in range(count):
                with self.tracer.span("core.pipeline.rank_store") as root:
                    results.append(solver.solve())
                roots.append(root.index)
        finally:
            self.tracer.unwrap_all()
        tr = self.tracer
        totals = [tr.spans[i]["end"] - tr.spans[i]["start"] for i in roots]
        root = roots[-1]
        total = totals[-1]
        iterations = results[-1].convergence.iterations
        loads = tr.durations("webgraph.store.load_block", within=root)
        opens = [i for i, s in enumerate(tr.spans)
                 if s["name"] == "core.pipeline.operator_from_store" and s["parent"] == root]
        open_s = sum(tr.spans[i]["end"] - tr.spans[i]["start"] for i in opens)
        open_loads = sum(sum(tr.durations("webgraph.store.load_block", within=i)) for i in opens)
        solve_idx = [i for i, s in enumerate(tr.spans)
                     if s["name"] == "linalg.iterate.solve" and s["parent"] == root]
        solve_s = sum(tr.spans[i]["end"] - tr.spans[i]["start"] for i in solve_idx)
        throttled = tr.durations("linalg.operator.throttled_rmatvec", within=root)
        blocked = tr.durations("linalg.operator.rmatvec", within=root)
        rmatvec_loads = sum(
            1 for i, s in enumerate(tr.spans)
            if s["name"] == "webgraph.store.load_block" and tr._under(s, root)
            and tr.spans[s["parent"]]["name"] == "linalg.operator.rmatvec"
        )
        sizes = {info.block_id: (store.directory / info.filename).stat().st_size
                 for info in store.shards}
        loaded_blocks = [s["block"] for s in tr.spans
                         if s["name"] == "webgraph.store.load_block" and tr._under(s, root)]

        self.put("webgraph.store.load_block_ms", _median(loads) * 1e3, "ms")
        self.put("webgraph.store.blocks_loaded", len(loads), "count")
        self.put("webgraph.store.bytes_read", sum(sizes[b] for b in loaded_blocks), "bytes")
        self.put("linalg.operator.rmatvec_ms", _median(blocked) * 1e3, "ms")
        self.put("linalg.operator.throttled_rmatvec_ms", _median(throttled) * 1e3, "ms")
        self.put("linalg.operator.cache_hit_ratio",
                 1.0 - rmatvec_loads / (len(blocked) * store.n_blocks), "ratio")
        # Computed, not measured: per edge the cached row, column and value
        # arrays (3 x 8 B) plus the gathered x[rows] and product temporaries
        # (2 x 8 B); per block one length-n bincount output read and added.
        self.put("linalg.operator.bytes_per_rmatvec",
                 40 * store.n_edges + 16 * store.n_sources * store.n_blocks, "bytes")
        self.put("linalg.iterate.iterations", iterations, "count")
        self.put("linalg.iterate.overhead_ms_per_iter",
                 (solve_s - sum(throttled)) / iterations * 1e3, "ms")
        self.put("core.pipeline.operator_open_ms", open_s * 1e3, "ms")
        self.put("account.solve.store_share", sum(loads) / total, "ratio")
        self.put("account.solve.operator_share",
                 (sum(throttled) - (sum(loads) - open_loads)) / total, "ratio")
        self.put("account.solve.iterate_share", (solve_s - sum(throttled)) / total, "ratio")
        self.put("account.solve.open_share", (open_s - open_loads) / total, "ratio")
        self.put("account.solve.unaccounted_share", (total - open_s - solve_s) / total, "ratio")
        self.put("trace.solve_overhead_s", _median(totals) - _median(untraced), "s")
        self._store_micro(store)
        return results

    def _store_micro(self, store) -> None:
        """Digest and decode cost of one shard, and the in-memory CSR matvec."""
        from repro.linalg.operator import CsrOperator
        from repro.webgraph.gaps import from_gaps
        from repro.webgraph.varint import decode_varints

        digest, decode = [], []
        info = store.shards[0]
        with np.load(store.directory / info.filename) as archive:
            payload = archive["payload"]
            counts = archive["counts"].astype(np.int64)
        indptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        for _ in range(5):
            t0 = time.perf_counter()
            store.load_block(0, verify=True)
            t1 = time.perf_counter()
            store.load_block(0, verify=False)
            t2 = time.perf_counter()
            digest.append((t1 - t0) - (t2 - t1))
            t0 = time.perf_counter()
            from_gaps(indptr, decode_varints(payload, count=info.n_edges))
            decode.append(time.perf_counter() - t0)
        self.put("webgraph.store.digest_ms", _median(digest) * 1e3, "ms")
        self.put("webgraph.store.decode_ms", _median(decode) * 1e3, "ms")
        operator = CsrOperator(store.materialize())
        x = np.full(store.n_sources, 1.0 / store.n_sources)
        matvec = []
        for _ in range(20):
            t0 = time.perf_counter()
            operator.rmatvec(x)
            matvec.append(time.perf_counter() - t0)
        self.put("linalg.operator.csr_rmatvec_ms", _median(matvec) * 1e3, "ms")

    def _traced_reads(self, reads: ReadReference, variants, kappa, store, version) -> None:
        from repro.serving.fleet import replica_request

        w = self.w
        door = self.fleet.frontdoor.address
        replica = self.fleet.replica_addresses()[0]
        # Closed loops straight at one replica and through the door.
        direct = {op: _median(self._closed(op, replica, count=CLOSED_COUNT[op]))
                  for op in ("score", "percentile", "top_k", "score1")}
        via_door = {op: _median(self._closed(op, door, count=CLOSED_COUNT[op]))
                    for op in ("score", "percentile", "top_k", "score_one")}
        rtt = dict(direct, score_one=direct["score1"])
        for op in ("score", "percentile", "top_k"):
            self.put(f"serving.fleet.replica_rtt_ms.{op}", rtt[op] * 1e3, "ms")
        for op in ("score", "percentile", "top_k", "score_one"):
            self.put(f"serving.frontend.door_overhead_ms.{op}",
                     (via_door[op] - rtt[op]) * 1e3, "ms")
        compute = self._replica_micro(store.n_sources)

        # Reference-rate phase: generator health, door counters, tail mix.
        before = door_counters(self.fleet)
        publisher = self._publisher(reads, variants, kappa)
        if w.churn:
            publisher.start()
        try:
            [ref] = self._ref_passes(1)
        finally:
            if w.churn:
                publisher.stop()
        after = door_counters(self.fleet)
        ref.check_samples(reads)
        check_failures_counted(ref.bad_reads, after["bad_reads"] - before["bad_reads"])
        self.put("loadgen.late_p99_ms", float(np.percentile(ref.late, 99)) * 1e3, "ms")
        self.put("loadgen.achieved_rps", ref.achieved_rps, "req/s")
        flushes = after["flushes"] - before["flushes"]
        self.put("serving.frontend.batch_ids_mean",
                 (after["batched_reads"] - before["batched_reads"]) / max(flushes, 1), "ids")
        self.put("serving.frontend.replica_p50_ms", _median(after["replica_p50_s"]) * 1e3, "ms")
        for key in ("hedges", "sheds", "evictions", "retries"):
            self.put(f"serving.frontend.{key}", after[key] - before[key], "count")
        self.put("serving.frontend.failed_frac",
                 (after["bad_reads"] - before["bad_reads"])
                 / max(after["reads"] - before["reads"], 1), "ratio")
        self._tail_shares(ref, {(str(rid), version) for rid in self.fleet.replica_addresses()})
        self._read_accounting(ref, compute, rtt, via_door)

        # Publish -> replica adoption, and the publisher's own cost.
        lags, publish_ms = [], []
        for i in range(6):
            t0 = time.perf_counter()
            snapshot = self.fleet.service.store.publish(
                kind="sr", sigma=variants[i % len(variants)], kappa=kappa, solver="power")
            published = time.perf_counter()
            publish_ms.append((published - t0) * 1e3)
            reads.add(snapshot.version, variants[i % len(variants)], TOP_K)
            for address in self.fleet.replica_addresses().values():
                deadline = published + 10.0
                while replica_request(address, {"op": "health"})["snapshot_version"] \
                        != snapshot.version:
                    if time.perf_counter() > deadline:
                        raise RuntimeError("a replica did not adopt a publish within 10 s")
                    time.sleep(0.001)
                lags.append((time.perf_counter() - published) * 1e3)
        self.put("serving.snapshot.publish_ms", _median(publish_ms), "ms")
        self.put("serving.fleet.adopt_lag_ms", _median(lags), "ms")

    def _replica_micro(self, n: int) -> dict[str, float]:
        """In-process replica costs: adoption, percentiles, handle and encode."""
        from repro.serving import ReplicaService, SnapshotFollower, SnapshotStore

        directory = self.fleet.service.store.directory
        load, adopt, pct = [], [], []
        for _ in range(5):
            store = SnapshotStore(directory)
            t0 = time.perf_counter()
            store.latest()
            load.append(time.perf_counter() - t0)
            follower = SnapshotFollower(SnapshotStore(directory))
            with self.tracer.span("serving.fleet.poll_once") as s1:
                follower.poll_once()
            with self.tracer.span("serving.fleet.percentiles") as s2:
                follower.percentiles()
            adopt.append(self._span_s(s1))
            pct.append(self._span_s(s2))
        self.put("serving.snapshot.load_ms", _median(load) * 1e3, "ms")
        self.put("serving.fleet.adopt_ms", _median(adopt) * 1e3, "ms")
        self.put("serving.fleet.percentiles_ms", _median(pct) * 1e3, "ms")

        service = ReplicaService(directory)
        service.follower.poll_once()
        service.follower.percentiles()
        rng = np.random.default_rng(self.seed)
        messages = {
            "score": lambda: {"op": "score", "ids": rng.integers(0, n, 64).tolist()},
            "percentile": lambda: {"op": "percentile", "ids": rng.integers(0, n, 64).tolist()},
            "top_k": lambda: {"op": "top_k", "k": TOP_K},
            "score_one": lambda: {"op": "score", "ids": [int(rng.integers(0, n))]},
        }
        compute = {}
        for op, make in messages.items():
            handle, encode, size = [], [], []
            for _ in range(10 if op == "top_k" else 50):
                message = make()
                with self.tracer.span(f"serving.fleet.handle.{op}") as s1:
                    reply = service.handle(message)
                with self.tracer.span(f"serving.fleet.encode.{op}") as s2:
                    wire = json.dumps(reply).encode()
                if not reply.get("ok"):
                    raise RuntimeError(f"in-process {op} failed: {reply}")
                handle.append(self._span_s(s1))
                encode.append(self._span_s(s2))
                size.append(len(wire))
            compute[op] = _median(handle) + _median(encode)
            if op != "score_one":
                self.put(f"serving.fleet.handle_ms.{op}", _median(handle) * 1e3, "ms")
                self.put(f"serving.fleet.encode_ms.{op}", _median(encode) * 1e3, "ms")
                self.put(f"serving.fleet.response_bytes.{op}", _median(size), "bytes")
        # Tracing cost on the read path: the read processes carry no spans,
        # so it is what a span adds to one in-process layer call.
        bare, spanned = [], []
        for _ in range(200):
            message = messages["score"]()
            t0 = time.perf_counter()
            service.handle(message)
            t1 = time.perf_counter()
            with self.tracer.span("serving.fleet.handle.score"):
                service.handle(message)
            spanned.append(time.perf_counter() - t1)
            bare.append(t1 - t0)
        self.put("trace.read_overhead_ms", (_median(spanned) - _median(bare)) * 1e3, "ms")
        return compute

    def _span_s(self, span) -> float:
        record = self.tracer.spans[span.index]
        return record["end"] - record["start"]

    def _tail_shares(self, ref: Phase, warmed: set[tuple]) -> None:
        """Which requests make up the reference phase's p99 tail.

        ``warmed`` holds the (replica, version) pairs whose percentile
        vector was built before the phase.
        """
        threshold = ref.latency_pct_ms(99) / 1e3
        seen = set(warmed)
        rebuild = np.zeros(len(ref.ops), dtype=bool)
        for i in np.argsort(ref.done):
            key = (ref.replicas[i], int(ref.versions[i]))
            if ref.ops[i] == "percentile" and ref.ok[i] and key not in seen:
                # First percentile reply of a (replica, version): it rebuilt
                # the percentile vector under the follower lock.
                seen.add(key)
                rebuild[i] = True
        tail = ref.latency > threshold
        n_tail = max(int(tail.sum()), 1)
        ops = ref.ops
        self.put("account.read.tail_top_k_share", float((tail & (ops == "top_k")).sum()) / n_tail,
                 "ratio")
        self.put("account.read.tail_pct_rebuild_share", float((tail & rebuild).sum()) / n_tail,
                 "ratio")

    def _read_accounting(self, ref: Phase, compute, rtt, via_door) -> None:
        """Split the mix-weighted per-op p50 of the reference phase into layers."""
        ops = ref.ops
        parts = {"compute": 0.0, "wire": 0.0, "door": 0.0, "unaccounted": 0.0}
        total = 0.0
        for op, share in self.w.mix.items():
            open_p50 = float(np.median(ref.latency[ops == op]))
            total += share * open_p50
            parts["compute"] += share * compute[op]
            parts["wire"] += share * (rtt[op] - compute[op])
            parts["door"] += share * (via_door[op] - rtt[op])
            parts["unaccounted"] += share * (open_p50 - via_door[op])
        self.put("account.read.p50_ms", total * 1e3, "ms")
        self.put("account.read.p99_ms", ref.latency_pct_ms(99), "ms")
        for name, value in parts.items():
            self.put(f"account.read.{name}_ms", value * 1e3, "ms")
