"""The three closed-loop workloads.

Every workload is one caller that hands the library a chunk and waits
for it, the way the paper's experiments, ``cli run`` and the
checkpointing engine drive it.  A run repeats *rounds*: each round
builds a fresh synopsis (the set-up), ingests one generated stream
through the library's public API, then queries every key of the
stream's key domain and checks the answers.  Streams, their exact
counts and the sequential reference states are made before any timer
starts.

The amount of work in a run is fixed by ``--seconds`` alone (rounds =
seconds x ``rounds_per_second``, at least one per stream), never by how
fast the code is, so two commits are compared over the same samples,
the same tail percentile and the same accuracy sample.
"""

from __future__ import annotations

import pickle
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from measure import Accuracy, Ledger, accuracy, exact_counts

from repro.core.asketch import ASketch
from repro.core.filters.heap import RelaxedHeapFilter
from repro.core.staged import StagedSynopsis
from repro.hardware.costs import OpCounters
from repro.kernels import active_backend
from repro.obs import install_registry, uninstall_registry
from repro.runtime.engine import StreamEngine
from repro.runtime.parallel import ChunkRing, ParallelIngestRuntime
from repro.runtime.reliability import CheckpointStore, ResilientEngine
from repro.runtime.sharding import ShardedASketch
from repro.sketches.count_min import CountMinSketch
from repro.streams.zipf import zipf_stream

#: Items per ingest chunk, and keys per ``query_batch`` call.
CHUNK = 10_000
#: The paper's default layout: 128 KB, w = 8, a 32-item relaxed heap.
LAYOUT = {"total_bytes": 128 * 1024, "filter_items": 32, "num_hashes": 8, "seed": 64}
#: ``parallel_2w``: the ``sharded_ingest`` trajectory entry's layout.
SHARDED = {"shards": 4, "total_bytes": 32 * 1024, "seed": 64}
#: Checkpoint cadence of ``skewed_ingest`` in chunks.
CHECKPOINT_EVERY = 8
#: Empty-stream runs per ``parallel_2w`` run (``setup_s`` is their median).
PARALLEL_SETUPS = 7


@dataclass
class Case:
    """One generated stream, chunked, with its exact counts."""

    chunks: list[np.ndarray]
    domain: int
    #: Every key of the domain in query order, and its true count (keys
    #: that never arrived must read >= 0 like any other).
    keys: np.ndarray
    truth: np.ndarray
    #: Per-chunk query keys (``flat_mixed`` only).
    queries: list[np.ndarray] = field(default_factory=list)
    #: Sequential reference state and its ingest time (``parallel_2w``).
    reference_state: object = None
    reference_s: float = 0.0
    reference_ops: OpCounters | None = None
    reference_mass: tuple[int, int] = (0, 0)
    reference_exchanges: int = 0
    reference_sketch_bytes: int = 0

    @property
    def items(self) -> int:
        return sum(int(chunk.shape[0]) for chunk in self.chunks)


def _split(keys: np.ndarray) -> list[np.ndarray]:
    return [keys[offset : offset + CHUNK] for offset in range(0, keys.shape[0], CHUNK)]


def make_case(skew: float, items: int, seed: int, with_queries: bool = False) -> Case:
    """A Zipf(skew) stream over ``items / 4`` keys (the paper's 4:1)."""
    domain = items // 4
    keys = zipf_stream(items, domain, skew, seed=seed).keys
    counts = exact_counts(keys, domain)
    order = np.random.default_rng(seed + 1).permutation(domain)
    case = Case(
        chunks=_split(keys),
        domain=domain,
        keys=order,
        truth=counts[order],
    )
    if with_queries:
        # Query keys follow the same distribution as the ingested keys.
        queries = zipf_stream(items, domain, skew, seed=seed + 2).keys
        case.queries = _split(queries)
    return case


@dataclass
class Samples:
    """Raw measurements of one pass over a workload."""

    setup_s: list[float] = field(default_factory=list)
    ingest_wall_s: list[float] = field(default_factory=list)
    ingest_items: list[int] = field(default_factory=list)
    #: Per-round lists of ingest-call and query-call latencies, and the
    #: keys each round's timed query calls answered.
    chunk_s: list[list[float]] = field(default_factory=list)
    query_s: list[list[float]] = field(default_factory=list)
    query_keys: list[int] = field(default_factory=list)
    accuracy: list[Accuracy] = field(default_factory=list)
    #: Operation counts of each case's first round (deterministic).
    ops: OpCounters = field(default_factory=OpCounters)
    sketch_bytes: int = 0
    ingested_mass: int = 0
    overflow_tuples: int = 0
    exchanges: int = 0
    #: Layer facts only a workload knows (drain time, worker counters...).
    extra: dict = field(default_factory=dict)

    def new_round(self) -> None:
        self.chunk_s.append([])
        self.query_s.append([])
        self.query_keys.append(0)


def _paced(chunks, gaps: list[float], marks: dict):
    """Yield chunks, recording how long the consumer kept each one.

    The gap between handing chunk ``i`` over and being asked for chunk
    ``i + 1`` is the caller-side latency of that chunk.
    """
    marks["first"] = time.perf_counter()
    for chunk in chunks:
        handed = time.perf_counter()
        yield chunk
        gaps.append(time.perf_counter() - handed)
    marks["exhausted"] = time.perf_counter()


def _query_all(query_batch, case: Case, samples: Samples, ledger: Ledger,
               first: bool, tracer, timed: bool = True) -> None:
    """Point-query every key of the domain; check one-sidedness; score
    the accuracy over the keys that arrived.  ``timed`` adds the calls
    to the query latency samples."""
    answers = []
    with _span(tracer, "bench.query"):
        for batch in _split(case.keys):
            start = time.perf_counter()
            answer = query_batch(batch)
            if timed:
                samples.query_s[-1].append(time.perf_counter() - start)
                samples.query_keys[-1] += int(batch.shape[0])
            answers.append(np.asarray(answer, dtype=np.int64))
    ledger.operations(len(answers))
    estimates = np.concatenate(answers)
    ledger.check(
        bool((estimates >= case.truth).all()),
        "a final estimate is below the exact count",
    )
    if first:
        seen = case.truth > 0
        samples.accuracy.append(
            accuracy(case.keys[seen], case.truth[seen], estimates[seen])
        )


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _count_staged(samples: Samples, synopsis: StagedSynopsis) -> None:
    samples.ops.merge(synopsis.combined_ops())
    samples.sketch_bytes = synopsis.sketch.size_bytes
    samples.ingested_mass += synopsis.total_mass
    samples.overflow_tuples += synopsis.miss_events
    samples.exchanges += synopsis.exchange_count


class Workload:
    """Shared round loop; subclasses supply set-up and ingest."""

    name = ""
    why = ""
    skew = 1.0
    #: Items per generated stream, distinct streams per run, and rounds
    #: per second of ``--seconds`` (sized on a 2-CPU x86 box so a run
    #: measures for about ``--seconds``).
    items = 400_000
    cases = 4
    rounds_per_second = 1.0

    def __init__(self, seed: int, seconds: int, breaks: set[str]) -> None:
        self.seed = int(seed)
        self.seconds = int(seconds)
        self.breaks = breaks
        self.cases_: list[Case] = []

    @property
    def rounds(self) -> int:
        return max(self.cases, round(self.seconds * self.rounds_per_second))

    def case_seed(self, index: int) -> int:
        return self.seed * 7919 + 104_729 * index + 17

    def prepare(self) -> None:
        self.cases_ = [
            make_case(self.skew, self.items, self.case_seed(i))
            for i in range(self.cases)
        ]

    def run(self, ledger: Ledger, workdir: Path, tracer=None) -> tuple[Samples, Samples | None]:
        """Run every round untraced; with a ``tracer``, run half the
        rounds (at least one per stream), each paired with the same round
        traced, alternating which of the two goes first, so drift of the
        machine's speed and warm caches favour neither pass and the run
        takes as long as an untraced one."""
        plain = Samples()
        traced = Samples() if tracer is not None else None
        rounds = self.rounds if tracer is None else max(self.cases, self.rounds // 2)
        for index in range(rounds):
            case = self.cases_[index % self.cases]
            first = index < self.cases
            order = [None] if tracer is None else [None, tracer]
            if index % 2:
                order.reverse()
            for recorder in order:
                if recorder is None:
                    plain.new_round()
                    self.round(case, plain, ledger, first, None, workdir / f"plain{index}")
                    continue
                traced.new_round()
                recorder.run_id = index
                self.patches(recorder)
                try:
                    self.round(case, traced, ledger, first, recorder, workdir / f"traced{index}")
                finally:
                    recorder.restore()
        return plain, traced

    def round(self, case, samples, ledger, first, tracer, workdir) -> None:
        raise NotImplementedError

    def patches(self, tracer) -> None:
        """Install the traced pass's wrappers around the layers' calls."""
        backend = active_backend()
        for attr in ("membership_probe", "cm_update_weighted", "cm_estimate",
                     "exchange_candidates"):
            tracer.patch(backend, attr, f"kernels.{attr}")
        tracer.patch(StreamEngine, "run", "engine.run")
        tracer.patch(StagedSynopsis, "process_batch", "staged.process_batch")
        tracer.patch(StagedSynopsis, "query_batch", "staged.query_batch")
        tracer.patch(RelaxedHeapFilter, "add_many_if_present", "filters.add_many_if_present")
        tracer.patch(RelaxedHeapFilter, "lookup_many", "filters.lookup_many")
        tracer.patch(CountMinSketch, "update_batch_weighted", "count_min.update_batch_weighted")
        tracer.patch(CountMinSketch, "estimate_batch", "count_min.estimate_batch")


class SkewedIngest(Workload):
    name = "skewed_ingest"
    why = ("Zipf(1.5) through ResilientEngine with checkpoints: filter hits, "
           "pre-aggregation and checkpointing dominate; the only user of "
           "reliability/persistence.")
    skew = 1.5
    items = 400_000
    cases = 12
    rounds_per_second = 4.0

    def round(self, case, samples, ledger, first, tracer, workdir) -> None:
        start = time.perf_counter()
        synopsis = ASketch(**LAYOUT)
        engine = ResilientEngine(
            synopsis,
            checkpoint_dir=workdir,
            checkpoint_every=CHECKPOINT_EVERY,
            batched=True,
        )
        samples.setup_s.append(time.perf_counter() - start)
        gaps: list[float] = []
        marks: dict = {}
        with _span(tracer, "bench.ingest"):
            engine.run(_paced(case.chunks, gaps, marks))
        done = time.perf_counter()
        samples.ingest_wall_s.append(done - marks["first"])
        samples.ingest_items.append(case.items)
        samples.chunk_s[-1].extend(gaps)
        ledger.operations(len(case.chunks))
        ledger.check(synopsis.total_mass == case.items, "ingested mass != stream length")
        if first:
            _count_staged(samples, synopsis)
            snapshot = workdir / engine.store.last_record()["snapshot"]
            samples.extra["checkpoint_bytes"] = float(snapshot.stat().st_size)
        _query_all(synopsis.query_batch, case, samples, ledger, first, tracer)
        # The newest checkpoint must restore the live state exactly.
        loaded = engine.store.load_latest()
        expected = synopsis
        if "checkpoint" in self.breaks:
            expected = ASketch(**LAYOUT)
            expected.process_batch(case.chunks[0])
        ledger.check(
            loaded is not None and loaded[0].state().equals(expected.state()),
            "load_latest() state differs from the live synopsis",
        )
        shutil.rmtree(workdir, ignore_errors=True)

    def patches(self, tracer) -> None:
        super().patches(tracer)
        tracer.patch(ResilientEngine, "run", "reliability.run")
        tracer.patch(CheckpointStore, "save", "reliability.checkpoint_save")
        tracer.patch(CheckpointStore, "load_latest", "reliability.load_latest")


class FlatMixed(Workload):
    name = "flat_mixed"
    why = ("Zipf(0.8), StreamEngine ingest chunks alternating with equal "
           "query_batch calls: sketch, hashing kernels and exchange checks "
           "dominate; reads beside writes.")
    skew = 0.8
    items = 400_000
    cases = 8
    rounds_per_second = 1.25

    def prepare(self) -> None:
        self.cases_ = [
            make_case(self.skew, self.items, self.case_seed(i), with_queries=True)
            for i in range(self.cases)
        ]

    def round(self, case, samples, ledger, first, tracer, workdir) -> None:
        start = time.perf_counter()
        synopsis = ASketch(**LAYOUT)
        engine = StreamEngine(synopsis, batched=True)
        samples.setup_s.append(time.perf_counter() - start)
        running = np.zeros(case.domain, dtype=np.int64)
        ingest_s = 0.0
        below = 0
        for chunk, queries in zip(case.chunks, case.queries):
            with _span(tracer, "bench.ingest"):
                begin = time.perf_counter()
                engine.run([chunk])
                elapsed = time.perf_counter() - begin
            ingest_s += elapsed
            samples.chunk_s[-1].append(elapsed)
            running += np.bincount(chunk, minlength=case.domain)
            begin = time.perf_counter()
            answers = synopsis.query_batch(queries)
            samples.query_s[-1].append(time.perf_counter() - begin)
            samples.query_keys[-1] += int(queries.shape[0])
            below += int(np.count_nonzero(np.asarray(answers) < running[queries]))
        ledger.operations(2 * len(case.chunks))
        ledger.check(below == 0, f"{below} interleaved answers below the exact count")
        samples.ingest_wall_s.append(ingest_s)
        samples.ingest_items.append(case.items)
        ledger.check(synopsis.total_mass == case.items, "ingested mass != stream length")
        if first:
            _count_staged(samples, synopsis)
        # The query metrics time the interleaved batches only.
        _query_all(synopsis.query_batch, case, samples, ledger, first, tracer, timed=False)


def _runtime() -> ParallelIngestRuntime:
    return ParallelIngestRuntime(2, slot_capacity=max(1 << 16, CHUNK), **SHARDED)


class Parallel2W(Workload):
    name = "parallel_2w"
    why = ("Zipf(1.5) through ParallelIngestRuntime(workers=2, shards=4): "
           "the only user of runtime.parallel/sharding (routing, rings, "
           "snapshots, merge).")
    skew = 1.5
    items = 400_000
    cases = 9
    rounds_per_second = 0.55

    def prepare(self) -> None:
        super().prepare()
        params = dict(SHARDED)
        if "reference" in self.breaks:
            params["seed"] += 1
        for case in self.cases_:
            group = ShardedASketch(**params)
            start = time.perf_counter()
            for chunk in case.chunks:
                group.process_batch(chunk)
            case.reference_s = time.perf_counter() - start
            case.reference_state = group.state()
            ops = OpCounters()
            mass = overflow = 0
            for shard in group.shards:
                ops.merge(shard.combined_ops())
                mass += shard.total_mass
                overflow += shard.miss_events
            case.reference_ops = ops
            case.reference_mass = (mass, overflow)
            case.reference_exchanges = sum(s.exchange_count for s in group.shards)
            case.reference_sketch_bytes = group.shards[0].sketch.size_bytes

    def run(self, ledger: Ledger, workdir: Path, tracer=None) -> tuple[Samples, Samples | None]:
        setups = []
        for _ in range(PARALLEL_SETUPS):
            runtime = _runtime()
            start = time.perf_counter()
            runtime.run(iter(()))
            setups.append(time.perf_counter() - start)
            ledger.check(runtime.health()["status"] == "ok", "empty-stream run unhealthy")
        plain, traced = super().run(ledger, workdir, tracer)
        plain.setup_s = setups
        return plain, traced

    def round(self, case, samples, ledger, first, tracer, workdir) -> None:
        runtime = _runtime()
        gaps: list[float] = []
        marks: dict = {}
        registry = install_registry() if tracer is not None else None
        try:
            with _span(tracer, "bench.ingest"):
                runtime.run(_paced(case.chunks, gaps, marks))
            done = time.perf_counter()
        finally:
            if registry is not None:
                uninstall_registry()
        samples.ingest_wall_s.append(done - marks["first"])
        samples.ingest_items.append(case.items)
        samples.chunk_s[-1].extend(gaps)
        ledger.operations(len(case.chunks))
        extra = samples.extra
        extra["drain_s"] = extra.get("drain_s", 0.0) + done - marks["exhausted"]
        extra["pull_gap_s"] = extra.get("pull_gap_s", 0.0) + sum(gaps)
        extra["reference_s"] = extra.get("reference_s", 0.0) + case.reference_s
        group = runtime.supervisor.group
        ledger.check(
            group.state().equals(case.reference_state),
            "merged parallel state differs from the sequential reference",
        )
        health = runtime.health()
        workers = runtime.worker_health()
        ledger.check(health["status"] == "ok", f"health {health['status']}")
        ledger.check(
            runtime.respawn_count == 0 and runtime.stall_count == 0,
            f"respawns {runtime.respawn_count}, stalls {runtime.stall_count}",
        )
        ledger.check(
            len(workers) == 2 and all(w["status"] == "ok" for w in workers),
            "a worker left the ring path: " + ",".join(w["status"] for w in workers),
        )
        ledger.check(
            sum(w["sent_items"] for w in workers) == case.items,
            "workers did not receive every item",
        )
        if registry is not None:
            items = sum(registry.value("asketch_items_total", worker=str(w)) for w in (0, 1))
            hits = sum(registry.value("asketch_filter_hits_total", worker=str(w)) for w in (0, 1))
            extra["worker_items"] = extra.get("worker_items", 0.0) + items
            extra["worker_hits"] = extra.get("worker_hits", 0.0) + hits
            snapshots = sum(w["sent_chunks"] // runtime.sync_every + 1 for w in workers)
            state_bytes = len(pickle.dumps(group.state(), protocol=pickle.HIGHEST_PROTOCOL))
            extra["snapshot_bytes"] = extra.get("snapshot_bytes", 0.0) + snapshots * state_bytes
        counts = runtime.shard_item_counts()
        extra.setdefault("shard_skew", []).append(float(counts.max() / counts.mean()))
        if first:
            samples.ops.merge(case.reference_ops)
            samples.sketch_bytes = case.reference_sketch_bytes
            samples.ingested_mass += case.reference_mass[0]
            samples.overflow_tuples += case.reference_mass[1]
            samples.exchanges += case.reference_exchanges
        _query_all(runtime.supervisor.query_batch, case, samples, ledger, first, tracer)

    def patches(self, tracer) -> None:
        tracer.patch(ParallelIngestRuntime, "run", "parallel.run")
        tracer.patch(ParallelIngestRuntime, "_start_workers", "parallel.start_workers")
        tracer.patch(ShardedASketch, "owners_of", "sharding.owners_of")
        tracer.patch(ShardedASketch, "merge", "sharding.merge")
        tracer.patch(ShardedASketch, "from_state", "sharding.from_state")
        tracer.patch(ChunkRing, "put", "parallel.ring_put", on_result=_count_put_timeout)
        tracer.patch(StagedSynopsis, "query_batch", "staged.query_batch")


def _count_put_timeout(tracer, published) -> None:
    if not published:
        tracer.events["parallel.ring_put_timeouts"] += 1


WORKLOADS = {
    cls.name: cls for cls in (SkewedIngest, FlatMixed, Parallel2W)
}
