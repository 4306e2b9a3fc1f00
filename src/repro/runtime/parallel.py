"""True multicore ingest: shared-memory SPMD worker processes.

:mod:`repro.hardware.spmd` *models* the paper's §6.3 multi-kernel run
with a cost model; this module makes it real.  N worker processes each
own a mutable set of shards of one
:class:`~repro.runtime.sharding.ShardedASketch` layout (initially
``s % workers == w``) and ingest their shares through the ordinary
``process_batch`` path, fed over shared-memory ring buffers
(``multiprocessing.shared_memory``, spawn-safe — no fork-dependent
state).

**Bit-identity.**  The parent routes every chunk with the group's own
``owners_of`` and sends worker ``w`` exactly the sub-array its shards
would have received in a sequential run, in chunk order.  Stable
partitioning inside ``process_batch`` then reproduces the exact same
per-shard sub-batches, so each worker's shard states equal the
sequential run's — and the drain merge recombines them through the
pristine-merge identity fast path of :meth:`repro.core.asketch.ASketch.
merge` (each shard is non-pristine on exactly one side).  The merged
result's :meth:`state` **equals** a single-process ingest's, enforced
by the parallel test suite.

**One wait.**  Every parent-side loop (feeding, end-of-stream, replay,
snapshot and control-reply waits, and a zero-timeout sweep per chunk)
blocks in a single ``multiprocessing.connection.wait`` over each live
worker's pipe and process sentinel, plus the "slot freed" pipe of the
ring it needs room in.  Snapshots are read the moment a worker starts
sending them, so a worker never stays blocked in ``send`` while the
parent waits on its ring, and a dead worker is failed over as soon as
its sentinel fires.

**Self-healing.**  Worker death is detected by the parent (process
sentinels plus ring-progress stall detection — a hung worker is not a
dead worker, but both are failed over).  Workers snapshot their group
over a pipe every ``sync_every`` chunks (each snapshot carries a
content digest, so a corrupted snapshot is *rejected* and the retained
replay tail kept), and the parent retains the un-snapshotted chunk
tail per worker, giving three recovery tiers:

* ``respawn=True`` (first tier): spawn a replacement process, restore
  it from the last accepted snapshot, replay the retained tail into
  its fresh ring, and resume exact ingest — **still bit-identical**,
  and transient: the worker's shards walk a
  ``ok → healing → ok`` lifecycle in
  :meth:`~repro.runtime.reliability.ShardSupervisor.health`.  Respawns
  are bounded per worker by a
  :class:`~repro.runtime.reliability.RetryPolicy`; past the budget the
  failure falls through to the configured ``failover`` tier.
* ``failover="inline"`` (default): rebuild the dead worker's group from
  its last snapshot, replay the retained tail in-parent through the
  identical ``process_batch`` path, and keep serving that worker's
  traffic in-parent — bit-identical, minus the parallelism.
* ``failover="standby"``: merge the frozen snapshot into the combined
  group, mark the worker's shards failed via
  :meth:`~repro.runtime.reliability.ShardSupervisor.fail_shard`, and
  route the retained tail plus all future traffic through the
  supervisor's standby Count-Min sketches — the PR-3 degradation
  semantics, now spanning process boundaries (estimates stay one-sided,
  ``shard_health()`` reflects the dead process).

**Elastic resharding.**  :meth:`ParallelIngestRuntime.reshard` moves
shard ownership between live workers online with a
quiesce → export → install → commit protocol that is crash-consistent
at every step: a worker dying mid-migration neither loses nor
double-counts a shard (the parent strips pending exports from the dead
worker's snapshot before any fallback merge, and the receiving side
acknowledges adoption with a full fresh snapshot).  With
``auto_reshard=True`` a skew-watching controller
(:class:`~repro.runtime.adaptive.ReshardController`) proposes moves
from the live ``shard_skew`` signal, with cooldown and bounds like the
filter's :class:`~repro.runtime.adaptive.AdaptiveController`.

**Backpressure & load-shedding.**  Ring occupancy is bounded, so a
slow consumer exerts natural backpressure on the parent.  The parent
distinguishes *no progress* (stall → typed
:class:`~repro.errors.WorkerStalledError`, failover) from *slow
progress* (keep waiting).  "Stalled" is a per-worker state: with
``load_shed=True`` every share for a stalled worker is shed at once,
until its ring moves again, to the parent's
:class:`~repro.runtime.reliability.DeadLetterQueue` instead of failing
the worker — **this trades away both bit-identity and the one-sided
guarantee for the shed keys** until the dead letters are replayed;
:meth:`health` reports the run degraded whenever shed chunks exist.

**In-worker resilience.**  Each worker wraps its ring in a
:class:`~repro.runtime.reliability.RetryingSource` (transient ring
faults retried with backoff) and quarantines poison chunks to a
worker-local :class:`~repro.runtime.reliability.DeadLetterQueue`,
reporting them to the parent instead of dying — the single-process
:class:`~repro.runtime.reliability.ResilientEngine` semantics, inside
the fleet.

**Observability.**  With a registry installed (:mod:`repro.obs`) the
parent records routing skew, per-worker item counters, ring depth,
liveness, failures, respawns (``worker_respawns_total``), stalls
(``parallel_worker_stalls_total``), migrations
(``reshard_migrations_total``), shed chunks
(``load_shed_chunks_total``), snapshot rejects
(``parallel_snapshot_rejects_total``), merge latency, time blocked per
worker (``parallel_producer_blocked_seconds``) and worker start-up
(``parallel_worker_boot_seconds``); trace points
(``worker_respawn``, ``worker_healed``, ``worker_stalled``,
``reshard_migration``, ``load_shed``, ``snapshot_reject``) mark every
lifecycle transition.  Each worker runs its own registry and forwards
counter/gauge values over its pipe, which the parent re-labels with
``worker=<id>`` and folds into the installed registry — including the
snapshot pipe's cost (``worker_snapshot_send_seconds``,
``worker_snapshot_bytes``).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing as mp
import os
import random
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from multiprocessing.connection import wait as wait_ready
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import (
    ConfigurationError,
    PoisonChunkError,
    WorkerStalledError,
)
from repro.kernels import active_backend, set_backend, stamp_backend
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricsRegistry,
    current_registry,
    install_registry,
    uninstall_registry,
)
from repro.obs.trace import trace_point
from repro.runtime.engine import EngineStats, coerce_chunk
from repro.runtime.reliability import (
    CheckpointStore,
    DeadLetterQueue,
    FaultPlan,
    RetryingSource,
    RetryPolicy,
    ShardSupervisor,
)
from repro.runtime.sharding import ShardedASketch
from repro.synopses.protocol import SynopsisState

__all__ = ["ChunkRing", "ParallelIngestRuntime", "parallel_ingest"]


# -- shared-memory chunk ring ------------------------------------------------

#: Header word indices (all int64): monotonically increasing produced /
#: consumed slot counters (telemetry + depth; correctness rests on the
#: semaphores) and a total-items counter.
_HDR_PRODUCED = 0
_HDR_CONSUMED = 1
_HDR_ITEMS = 2
_HDR_WORDS = 4

#: Slot-length sentinel marking end of stream.
_EOF = -1

#: ``ChunkRing.get`` return marker for "nothing arrived within timeout"
#: (distinct from ``None`` = end of stream).
RING_TIMEOUT = object()


@dataclass
class RingHandle:
    """Everything a spawn child needs to attach to an existing ring.

    Semaphores travel through ``Process`` args (the only channel
    multiprocessing primitives can cross a spawn boundary on); the
    shared-memory segment is re-attached by name.
    """

    name: str
    slots: int
    slot_capacity: int
    sem_free: Any
    sem_filled: Any
    freed: Any


class ChunkRing:
    """A single-producer single-consumer ring of int64 chunks in shm.

    Layout (all int64)::

        header[4]               produced / consumed / items / reserved
        lengths[slots]          item count per slot, -1 = end of stream
        data[slots, capacity]   the chunk payloads

    ``sem_free`` / ``sem_filled`` gate slot reuse; a semaphore release
    is the producer→consumer memory barrier (POSIX semaphores order the
    preceding stores), so the consumer never observes a slot before its
    payload.  ``get`` copies the payload out and frees the slot
    immediately, maximising producer/consumer overlap.

    A ``get`` that leaves the ring at most half full also writes one
    byte to a "slot freed" pipe (:attr:`freed`), so a producer can wait
    for room inside ``multiprocessing.connection.wait``, woken once per
    half ring rather than per slot.  The write is non-blocking: a full
    pipe is already readable, so the consumer never waits on it.

    The parent creates rings (``ChunkRing(slots, slot_capacity)``) and
    owns the segment lifecycle (:meth:`unlink`); workers attach via
    :meth:`from_handle`, which also unregisters the segment from the
    child's ``resource_tracker`` — before Python 3.13 an attaching
    process would otherwise unlink the segment when it exits.
    """

    def __init__(
        self,
        slots: int = 8,
        slot_capacity: int = 1 << 16,
        *,
        _handle: RingHandle | None = None,
    ) -> None:
        if _handle is None:
            if slots < 1:
                raise ConfigurationError(f"slots must be >= 1, got {slots}")
            if slot_capacity < 1:
                raise ConfigurationError(
                    f"slot_capacity must be >= 1, got {slot_capacity}"
                )
            ctx = mp.get_context("spawn")
            nbytes = 8 * (_HDR_WORDS + slots + slots * slot_capacity)
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
            self.slots = int(slots)
            self.slot_capacity = int(slot_capacity)
            self._sem_free = ctx.Semaphore(self.slots)
            self._sem_filled = ctx.Semaphore(0)
            self._freed_reader, self._freed_writer = ctx.Pipe(duplex=False)
            os.set_blocking(self._freed_reader.fileno(), False)
            self._owner = True
        else:
            # Attach without registering with the resource tracker: the
            # creator already registered the segment, the tracker is
            # shared across spawn children, and a second registration
            # would end in a double-unregister (pre-3.13 there is no
            # ``track=False`` to say this properly).
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register
            try:
                resource_tracker.register = (  # type: ignore[assignment]
                    lambda name, rtype: None
                    if rtype == "shared_memory"
                    else original_register(name, rtype)
                )
                self._shm = shared_memory.SharedMemory(name=_handle.name)
            finally:
                resource_tracker.register = original_register
            self.slots = int(_handle.slots)
            self.slot_capacity = int(_handle.slot_capacity)
            self._sem_free = _handle.sem_free
            self._sem_filled = _handle.sem_filled
            self._freed_reader = None
            self._freed_writer = _handle.freed
            self._owner = False
        os.set_blocking(self._freed_writer.fileno(), False)
        buf = self._shm.buf
        self._header = np.ndarray((_HDR_WORDS,), dtype=np.int64, buffer=buf)
        self._lengths = np.ndarray(
            (self.slots,), dtype=np.int64, buffer=buf, offset=8 * _HDR_WORDS
        )
        self._data = np.ndarray(
            (self.slots, self.slot_capacity),
            dtype=np.int64,
            buffer=buf,
            offset=8 * (_HDR_WORDS + self.slots),
        )
        if self._owner:
            self._header[:] = 0
            self._lengths[:] = 0
        self._put_cursor = 0
        self._get_cursor = 0

    @property
    def name(self) -> str:
        """OS name of the shared-memory segment."""
        return self._shm.name

    def handle(self) -> RingHandle:
        """The picklable attachment record for a spawn child."""
        return RingHandle(
            name=self._shm.name,
            slots=self.slots,
            slot_capacity=self.slot_capacity,
            sem_free=self._sem_free,
            sem_filled=self._sem_filled,
            freed=self._freed_writer,
        )

    @classmethod
    def from_handle(cls, handle: RingHandle) -> "ChunkRing":
        """Attach to an existing ring inside a worker process."""
        return cls(_handle=handle)

    # -- producer side -----------------------------------------------------

    def put(self, chunk: np.ndarray, timeout: float | None = None) -> bool:
        """Publish one chunk; False when no slot freed within ``timeout``.

        Oversized chunks are a configuration error, not a silent split —
        splitting would change sub-batch boundaries and break the
        bit-identity contract.
        """
        n = int(chunk.shape[0])
        if n > self.slot_capacity:
            raise ConfigurationError(
                f"chunk of {n} items exceeds ring slot capacity "
                f"{self.slot_capacity}; raise slot_capacity or shrink chunks"
            )
        if not self._sem_free.acquire(timeout=timeout):
            return False
        slot = self._put_cursor % self.slots
        if n:
            self._data[slot, :n] = chunk
        self._lengths[slot] = n
        self._put_cursor += 1
        self._header[_HDR_PRODUCED] = self._put_cursor
        self._header[_HDR_ITEMS] += n
        self._sem_filled.release()
        return True

    def close_producer(self, timeout: float | None = None) -> bool:
        """Publish the end-of-stream sentinel."""
        if not self._sem_free.acquire(timeout=timeout):
            return False
        slot = self._put_cursor % self.slots
        self._lengths[slot] = _EOF
        self._put_cursor += 1
        self._header[_HDR_PRODUCED] = self._put_cursor
        self._sem_filled.release()
        return True

    # -- consumer side -----------------------------------------------------

    def get(self, timeout: float | None = None):
        """Next chunk; ``None`` at end of stream, :data:`RING_TIMEOUT`
        when nothing arrived within ``timeout``."""
        if not self._sem_filled.acquire(timeout=timeout):
            return RING_TIMEOUT
        slot = self._get_cursor % self.slots
        n = int(self._lengths[slot])
        self._get_cursor += 1
        chunk = None if n == _EOF else self._data[slot, :n].copy()
        self._sem_free.release()
        # Published after the release: a producer that reads
        # ``depth() < slots`` is guaranteed a free permit.
        self._header[_HDR_CONSUMED] = self._get_cursor
        if self.depth() <= self.slots // 2:
            try:
                os.write(self._freed_writer.fileno(), b"\0")
            except OSError:
                pass  # pipe full (already readable) or reader gone
        return chunk

    # -- shared ------------------------------------------------------------

    def depth(self) -> int:
        """Slots currently published but not yet consumed."""
        return int(self._header[_HDR_PRODUCED] - self._header[_HDR_CONSUMED])

    def consumed(self) -> int:
        """Total slots the consumer has taken so far.

        The parent's *progress* signal: a worker whose ``consumed()``
        advances is slow, not hung — stall detection keys off this
        rather than wall-clock alone.
        """
        return int(self._header[_HDR_CONSUMED])

    def items_published(self) -> int:
        """Total items published so far."""
        return int(self._header[_HDR_ITEMS])

    @property
    def freed(self):
        """The readable end of the "slot freed" pipe (creator only): a
        ``multiprocessing.connection.wait`` object that turns ready once
        the consumer has drained the ring to half full."""
        return self._freed_reader

    def clear_freed(self) -> None:
        """Discard pending "slot freed" bytes (creator only)."""
        try:
            os.read(self._freed_reader.fileno(), 1 << 16)
        except BlockingIOError:
            pass

    def close(self) -> None:
        """Drop this process's mapping (views first, then the segment)."""
        for end in (self._freed_reader, self._freed_writer):
            if end is not None:
                end.close()
        self._header = None  # type: ignore[assignment]
        self._lengths = None  # type: ignore[assignment]
        self._data = None  # type: ignore[assignment]
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - already gone
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only; idempotent)."""
        if not self._owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


# -- snapshot integrity ------------------------------------------------------


def _state_digest(state: SynopsisState) -> str:
    """Content hash of a synopsis state (params + arrays + extra).

    Travels alongside every snapshot/migration payload so the receiver
    can detect in-flight corruption; a mismatch means *reject and keep
    the replay tail*, never adopt.
    """
    h = hashlib.sha256()
    h.update(state.kind.encode())
    h.update(repr(sorted(state.params.items())).encode())
    h.update(
        json.dumps(state.extra, sort_keys=True, default=str).encode()
    )
    for name in sorted(state.arrays):
        array = np.ascontiguousarray(state.arrays[name])
        h.update(name.encode())
        h.update(str(array.dtype).encode())
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _states_digest(states: Mapping[int, SynopsisState]) -> str:
    """Combined digest over a shard-indexed batch of states."""
    h = hashlib.sha256()
    for index in sorted(states):
        h.update(str(int(index)).encode())
        h.update(_state_digest(states[index]).encode())
    return h.hexdigest()


# -- the worker process ------------------------------------------------------


def _export_metrics(registry: MetricsRegistry) -> list[tuple]:
    """Counter/gauge values as picklable rows (histograms stay local)."""
    rows: list[tuple] = []
    for instrument in registry.instruments():
        if isinstance(instrument, Counter):
            rows.append(
                ("counter", instrument.name, dict(instrument.labels),
                 instrument.value)
            )
        elif isinstance(instrument, Gauge):
            rows.append(
                ("gauge", instrument.name, dict(instrument.labels),
                 instrument.value)
            )
    return rows


class _RingSource:
    """The worker's view of its ring as a retryable chunk iterator.

    Satisfies the :class:`~repro.runtime.reliability.RetryingSource`
    re-offer contract: an injected transient failure is raised *before*
    the chunk is surrendered and the same chunk is offered again on the
    next ``__next__`` call.  ``control`` runs once per iteration (and
    per idle timeout), keeping the worker responsive to parent control
    messages even while the ring is empty.
    """

    def __init__(self, ring: ChunkRing, control, transient: dict | None) -> None:
        self._ring = ring
        self._control = control
        self._transient = dict(transient or {})
        #: 0-based count of chunks surrendered so far (= next position).
        self.position = 0
        #: Set when the parent died: stop quietly, nobody will drain us.
        self.orphaned = False
        self._pending: Any = None
        self._has_pending = False

    def __iter__(self) -> "_RingSource":
        """Iterator protocol: the source is its own iterator."""
        return self

    def __next__(self) -> np.ndarray:
        """Next chunk off the ring, injecting planned transient faults."""
        while True:
            self._control()
            if not self._has_pending:
                chunk = self._ring.get(timeout=0.05)
                if chunk is RING_TIMEOUT:
                    parent = mp.parent_process()
                    if parent is not None and not parent.is_alive():
                        self.orphaned = True
                        raise StopIteration
                    continue
                if chunk is None:
                    raise StopIteration
                self._pending = chunk
                self._has_pending = True
            remaining = self._transient.get(self.position, 0)
            if remaining > 0:
                self._transient[self.position] = remaining - 1
                from repro.errors import TransientSourceError

                raise TransientSourceError(
                    f"injected transient ring fault at chunk {self.position} "
                    f"({remaining - 1} more to come)"
                )
            chunk = self._pending
            self._pending = None
            self._has_pending = False
            self.position += 1
            return chunk


def _worker_main(
    worker_id: int,
    handle: RingHandle,
    group_params: dict,
    conn,
    sync_every: int,
    backend_name: str,
    faults: dict | None = None,
    initial: tuple | None = None,
) -> None:
    """Worker body: drain the ring into a shard-local group.

    Spawn-safe top-level function.  The group has the *full* shard
    layout; the parent only ever sends keys owned by this worker's
    shards, so every other shard stays pristine (the precondition for
    the drain merge's identity fast path).  ``backend_name`` is the
    parent's active kernel backend — spawn children re-import from
    scratch, so the selection must travel explicitly for the whole
    fleet to compute on the same backend.

    ``faults`` are the picklable hooks from
    :meth:`~repro.runtime.reliability.FaultPlan.worker_faults_for`
    (crash/exit/hang at a local chunk position, poison payload swap,
    transient ring errors, snapshot corruption).  Faults are one-shot
    per process *generation*: a respawned replacement runs fault-free,
    otherwise a ``crash_after`` would re-fire on restore forever.

    ``initial`` is ``(state, chunks_done, items_done)`` for a respawned
    replacement: the group restores from the parent's last accepted
    snapshot and chunk counting resumes from there, so the retained
    tail the parent replays lands at exactly the right positions.
    """
    set_backend(backend_name)
    ring = ChunkRing.from_handle(handle)
    registry = install_registry(MetricsRegistry())
    faults = dict(faults or {})
    if initial is not None:
        state, chunks_done, items_done = initial
        group = ShardedASketch.from_state(state)
        chunks_done = int(chunks_done)
        items_done = int(items_done)
    else:
        group = ShardedASketch(**group_params)
        chunks_done = 0
        items_done = 0
    dead_letters = DeadLetterQueue(capacity=64)
    snapshots_sent = 0
    sync_target: int | None = None
    # Boot marker: the parent reads it whenever it next drains this
    # pipe (it never waits for it) and records the start-up latency.
    conn.send(("ready",))

    def send_snapshot(tag: str = "snapshot") -> None:
        nonlocal snapshots_sent
        state = group.state()
        digest = _state_digest(state)
        snapshots_sent += 1
        if (
            tag == "snapshot"
            and faults.get("corrupt_snapshot_at") == snapshots_sent
        ):
            # In-flight corruption: the digest was computed over the
            # true state, then a payload array is flipped — the parent
            # must detect the mismatch and reject.
            for name in sorted(state.arrays):
                array = state.arrays[name]
                if array.size:
                    corrupted = array.copy()
                    corrupted.reshape(-1)[0] += 1
                    state.arrays[name] = corrupted
                    break
        payload = ForkingPickler.dumps(
            (
                tag,
                int(chunks_done),
                int(items_done),
                state,
                digest,
                _export_metrics(registry),
            )
        )
        start = time.perf_counter()
        conn.send_bytes(payload)
        registry.counter("worker_snapshot_send_seconds").inc(
            time.perf_counter() - start
        )
        registry.counter("worker_snapshot_bytes").inc(len(payload))

    def handle_control() -> None:
        nonlocal sync_target
        while conn.poll():
            message = conn.recv()
            tag = message[0]
            if tag == "sync":
                sync_target = int(message[1])
            elif tag == "migrate_out":
                # Phase one of the handoff: read-only export.  The
                # local copies are NOT reset until the parent confirms
                # the new owner adopted them (migrate_commit), so a
                # crash anywhere in between leaves this worker's
                # snapshot still carrying the shards.
                shard_list = [int(s) for s in message[1]]
                states = {
                    s: group.shards[s].state() for s in shard_list
                }
                conn.send(
                    (
                        "migrated",
                        int(chunks_done),
                        states,
                        _states_digest(states),
                    )
                )
            elif tag == "migrate_in":
                for shard, shard_state in message[1].items():
                    group.install_shard(int(shard), shard_state)
                # The adoption ack IS a full fresh snapshot: once the
                # parent accepts it, a later death of this worker
                # recovers the migrated shard from snapshot like any
                # other data — no special mid-migration state survives.
                send_snapshot("adopted")
            elif tag == "migrate_commit":
                for shard in message[1]:
                    group.export_shard(int(shard))  # discard: reset
                send_snapshot("migrate_committed")
        if sync_target is not None and chunks_done >= sync_target:
            send_snapshot()
            sync_target = None

    source = _RingSource(ring, handle_control, faults.get("transient"))
    retrying = RetryingSource(
        source,
        default_policy=RetryPolicy(
            max_retries=8, base_delay=0.001, multiplier=2.0,
            max_delay=0.05, jitter=0.5,
        ),
        seed=int(faults.get("seed", 0)) * 131 + worker_id,
    )
    try:
        for chunk in retrying:
            position = chunks_done
            if "crash_after" in faults and position >= faults["crash_after"]:
                os._exit(17)  # injected mid-stream kill -9, no cleanup
            if "exit_after" in faults and position >= faults["exit_after"]:
                sys.exit(3)  # premature "clean" exit, no final snapshot
            if "hang_after" in faults and position >= faults["hang_after"]:
                while True:  # alive but stalled: the slow/hung case
                    time.sleep(0.05)
                    parent = mp.parent_process()
                    if parent is None or not parent.is_alive():
                        os._exit(0)
            if faults.get("poison_at") == position:
                chunk = np.asarray(chunk, dtype=np.float64) + 0.5
            try:
                array = coerce_chunk(chunk, position)
            except PoisonChunkError as exc:
                # Quarantine and continue — the ResilientEngine
                # semantics inside a worker.  The position still
                # counts: the parent's retained-tail pruning is keyed
                # to chunks *handled*, ingested or not.
                dead_letters.quarantine(position, chunk, exc.reason)
                conn.send(("quarantine", int(position), exc.reason))
                chunks_done += 1
                handle_control()
                continue
            group.process_batch(array)
            chunks_done += 1
            items_done += int(array.shape[0])
            if chunks_done % sync_every == 0:
                send_snapshot()
            handle_control()
        if not source.orphaned:
            send_snapshot()
            conn.send(("done", int(chunks_done), int(items_done),
                       _export_metrics(registry)))
    except Exception as error:  # surface, then die visibly
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except Exception:
            pass
        sys.exit(1)
    finally:
        uninstall_registry()
        ring.close()
        conn.close()


# -- the parent-side runtime -------------------------------------------------


@dataclass
class _WorkerSlot:
    """Parent-side bookkeeping for one worker process."""

    index: int
    process: Any
    ring: ChunkRing
    conn: Any
    sent_chunks: int = 0
    sent_items: int = 0
    acked_chunks: int = 0
    retained: deque = field(default_factory=deque)
    snapshot_state: SynopsisState | None = None
    snapshot_chunks: int = 0
    snapshot_items: int = 0
    status: str = "ok"
    inline_group: ShardedASketch | None = None
    metrics_last: dict = field(default_factory=dict)
    done: bool = False
    error: str | None = None
    respawns: int = 0
    stalls: int = 0
    quarantined: int = 0
    snapshot_rejects: int = 0
    #: While healing: the chunk count a replacement's snapshot must
    #: reach before the worker's shards flip back to healthy.
    heal_target: int | None = None
    #: ``perf_counter`` at process start (boot latency reference).
    launched_at: float = 0.0
    #: Stall clock: the ring's ``consumed()`` last seen, and the
    #: monotonic time the worker last made progress or the parent last
    #: found its ring with room.  Kept across calls, so a stalled
    #: worker stays stalled until it moves again.
    progress_mark: int = 0
    progress_at: float = field(default_factory=time.monotonic)
    #: A replacement is being replayed into: the wait leaves its
    #: failover to the replay loop.
    replaying: bool = False
    #: The control-reply tag a caller waits for, and the reply once read.
    awaiting: str | None = None
    reply: tuple | None = None

    @property
    def feeding_ring(self) -> bool:
        """Whether new shares still go through the shared-memory ring."""
        return self.status == "ok"


class ParallelIngestRuntime:
    """Drive one logical ShardedASketch with N worker processes.

    Parameters
    ----------
    workers:
        Worker process count; worker ``w`` initially owns shards ``s``
        with ``s % workers == w`` (ownership may move via
        :meth:`reshard`).
    shards:
        Shard count (default: one per worker).  Must be >= ``workers``.
    total_bytes, filter_items, filter_kind, num_hashes, seed:
        The :class:`~repro.runtime.sharding.ShardedASketch` layout —
        identical to what a sequential run would build, which is what
        the bit-identity guarantee is measured against.
    slots, slot_capacity:
        Ring geometry per worker (``slot_capacity`` must cover the
        largest per-worker chunk share).
    sync_every:
        Worker snapshot cadence in chunks; bounds both the retained
        replay tail in the parent and the data a standby failover loses
        to its one-sided fallback.
    failover:
        ``"inline"`` (exact in-parent recovery, bit-identity preserved)
        or ``"standby"`` (PR-3 degradation: frozen snapshot + standby
        Count-Min via :meth:`ShardSupervisor.fail_shard`).  This is the
        *terminal* tier; with ``respawn=True`` it is reached only after
        the respawn budget is spent.
    respawn:
        Enable the first recovery tier: dead/hung workers are replaced
        by fresh processes restored from snapshot + retained-tail
        replay (exact, transient ``healing`` state).
    respawn_policy:
        :class:`~repro.runtime.reliability.RetryPolicy` bounding
        respawns per worker (``max_retries``) and pacing the backoff
        between attempts.
    auto_reshard:
        Watch routing skew and move shards between workers online via
        :class:`~repro.runtime.adaptive.ReshardController`.
    reshard_skew_threshold, reshard_min_window_items,
    reshard_cooldown_windows:
        Controller bounds: minimum observed-window skew that triggers a
        move, minimum items per observation window, and windows to hold
        off after a migration.
    load_shed:
        Instead of failing over a stalled worker, quarantine the
        overflowing share to :attr:`dead_letters` and keep going.
        Sacrifices bit-identity *and* the one-sided guarantee for the
        shed keys until the dead letters are replayed.
    dead_letter_capacity:
        Parent-side dead-letter queue capacity (shed shares and
        worker-quarantined payloads).
    stall_timeout:
        Seconds a worker may keep its ring full without progress before
        it counts as stalled (default: ``put_timeout``).  Progress — the
        ring's ``consumed()`` advancing, or any message from the worker
        — resets the clock: slow workers are waited on, hung workers are
        not.  The clock lives on the worker, not on one publish.
    standby_hashes, standby_bytes:
        Standby sizing, forwarded to :class:`ShardSupervisor`.
    fault_plan:
        A :class:`~repro.runtime.reliability.FaultPlan` whose
        cross-process faults (``worker_crash``/``worker_exit``/
        ``worker_hang``/``worker_poison``/``worker_transient``/
        ``corrupt_snapshot``) are acted out inside the workers.
    inject_crash:
        Legacy shorthand for ``FaultPlan(worker_crash=...)``.
    put_timeout, drain_timeout:
        Seconds the parent waits on a stuck ring slot / on drain
        messages before declaring the worker hung and failing it over.
    """

    FAILOVER_MODES = ("inline", "standby")

    def __init__(
        self,
        workers: int,
        *,
        shards: int | None = None,
        total_bytes: int = 32 * 1024,
        filter_items: int = 32,
        filter_kind: str = "relaxed-heap",
        num_hashes: int = 8,
        seed: int = 0,
        slots: int = 8,
        slot_capacity: int = 1 << 16,
        sync_every: int = 8,
        failover: str = "inline",
        respawn: bool = False,
        respawn_policy: RetryPolicy | None = None,
        auto_reshard: bool = False,
        reshard_skew_threshold: float = 1.5,
        reshard_min_window_items: int = 2048,
        reshard_cooldown_windows: int = 2,
        load_shed: bool = False,
        dead_letter_capacity: int = 64,
        stall_timeout: float | None = None,
        standby_hashes: int = 4,
        standby_bytes: int | None = None,
        fault_plan: FaultPlan | None = None,
        inject_crash: dict[int, int] | None = None,
        put_timeout: float = 60.0,
        drain_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        shards = workers if shards is None else int(shards)
        if shards < workers:
            raise ConfigurationError(
                f"need at least one shard per worker: shards={shards} < "
                f"workers={workers}"
            )
        if sync_every < 1:
            raise ConfigurationError(
                f"sync_every must be >= 1, got {sync_every}"
            )
        if failover not in self.FAILOVER_MODES:
            raise ConfigurationError(
                f"failover must be one of {self.FAILOVER_MODES}, "
                f"got {failover!r}"
            )
        if reshard_skew_threshold <= 1.0:
            raise ConfigurationError(
                "reshard_skew_threshold must exceed 1.0, got "
                f"{reshard_skew_threshold}"
            )
        self.workers = int(workers)
        self.group_params = {
            "shards": shards,
            "total_bytes": int(total_bytes),
            "filter_items": int(filter_items),
            "filter_kind": filter_kind,
            "num_hashes": int(num_hashes),
            "seed": int(seed),
        }
        self.slots = int(slots)
        self.slot_capacity = int(slot_capacity)
        self.sync_every = int(sync_every)
        self.failover = failover
        self.respawn = bool(respawn)
        self.respawn_policy = respawn_policy or RetryPolicy(
            max_retries=3, base_delay=0.05, multiplier=2.0,
            max_delay=1.0, jitter=0.25,
        )
        self.auto_reshard = bool(auto_reshard)
        self.reshard_skew_threshold = float(reshard_skew_threshold)
        self.reshard_min_window_items = int(reshard_min_window_items)
        self.reshard_cooldown_windows = int(reshard_cooldown_windows)
        self.load_shed = bool(load_shed)
        self.stall_timeout = stall_timeout
        self.standby_hashes = int(standby_hashes)
        self.standby_bytes = standby_bytes
        self.fault_plan = fault_plan
        self.inject_crash = dict(inject_crash or {})
        self.put_timeout = float(put_timeout)
        self.drain_timeout = float(drain_timeout)
        #: The combined result (populated by :meth:`run`).
        self.supervisor: ShardSupervisor | None = None
        self.stats = EngineStats()
        #: Parent-side quarantine: load-shed shares plus payloads of
        #: chunks workers quarantined (recovered from the retained tail
        #: when still available).
        self.dead_letters = DeadLetterQueue(capacity=dead_letter_capacity)
        #: Completed shard migrations (reshard moves applied).
        self.migrations = 0
        #: Chunk shares shed to the dead-letter queue under load.
        self.shed_chunks = 0
        self._slots: list[_WorkerSlot] = []
        self._assignment = np.array(
            [s % self.workers for s in range(shards)], dtype=np.int64
        )
        self._shard_items = np.zeros(shards, dtype=np.int64)
        self._respawn_rng = random.Random(int(seed) * 31337 + 7)
        #: shards exported from a worker but not yet commit-acked there
        #: — stripped from that worker's snapshot on failover so a
        #: mid-migration death cannot double-count them.
        self._exports_pending: dict[int, set[int]] = {}

    def shards_of(self, worker: int) -> list[int]:
        """Shard indices currently owned by one worker."""
        return [int(s) for s in np.nonzero(self._assignment == worker)[0]]

    def shard_item_counts(self) -> np.ndarray:
        """Cumulative items routed per shard this run (copy).

        The :class:`~repro.runtime.adaptive.ReshardController` reads
        this to compute per-worker load under the current assignment.
        """
        return self._shard_items.copy()

    @property
    def respawn_count(self) -> int:
        """Total worker respawns across the fleet."""
        return sum(slot.respawns for slot in self._slots)

    @property
    def stall_count(self) -> int:
        """Total stall detections across the fleet."""
        return sum(slot.stalls for slot in self._slots)

    @property
    def quarantined_count(self) -> int:
        """Total chunks quarantined inside workers."""
        return sum(slot.quarantined for slot in self._slots)

    # -- lifecycle ---------------------------------------------------------

    @contextlib.contextmanager
    def _pinned_pythonpath(self):
        """Pin the package root into PYTHONPATH around spawn starts.

        Spawn re-imports modules in a fresh interpreter: sys.path edits
        made in-process (benchmark scripts, test harnesses) are not
        inherited, so the package root must travel via the environment.
        """
        import repro

        package_root = str(Path(repro.__file__).resolve().parents[1])
        previous = os.environ.get("PYTHONPATH")
        entries = (previous or "").split(os.pathsep) if previous else []
        if package_root not in entries:
            os.environ["PYTHONPATH"] = os.pathsep.join(
                [package_root, *entries]
            )
        try:
            yield
        finally:
            if previous is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = previous

    def _worker_faults(self, index: int) -> dict | None:
        hooks: dict | None = None
        if self.fault_plan is not None:
            hooks = self.fault_plan.worker_faults_for(index)
        if index in self.inject_crash:
            hooks = dict(hooks or {"seed": 0})
            hooks.setdefault("crash_after", int(self.inject_crash[index]))
        return hooks

    def _launch(
        self,
        index: int,
        *,
        initial: tuple | None = None,
        faults: dict | None = None,
    ) -> tuple[Any, Any, ChunkRing]:
        """Start one worker process with a fresh ring and pipe."""
        ctx = mp.get_context("spawn")
        ring = ChunkRing(self.slots, self.slot_capacity)
        try:
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=_worker_main,
                args=(
                    index,
                    ring.handle(),
                    self.group_params,
                    child_conn,
                    self.sync_every,
                    active_backend().name,
                    faults,
                    initial,
                ),
                daemon=True,
                name=f"repro-ingest-{index}",
            )
            process.start()
        except BaseException:
            # A failed start would otherwise leak this ring: it only
            # enters _slots (and _shutdown's sweep) after the process
            # is up.
            ring.close()
            ring.unlink()
            raise
        child_conn.close()
        return process, parent_conn, ring

    def _start_workers(self) -> None:
        registry = current_registry()
        with self._pinned_pythonpath():
            for index in range(self.workers):
                process, conn, ring = self._launch(
                    index, faults=self._worker_faults(index)
                )
                self._slots.append(
                    _WorkerSlot(
                        index=index, process=process, ring=ring, conn=conn,
                        launched_at=time.perf_counter(),
                    )
                )
                if registry is not None:
                    # Every worker gets a series, blocked or not.
                    registry.histogram(
                        "parallel_producer_blocked_seconds",
                        worker=str(index),
                    )

    def _shutdown(self) -> None:
        for slot in self._slots:
            try:
                slot.conn.close()
            except OSError:
                pass
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join(timeout=10.0)
            slot.ring.close()
            slot.ring.unlink()
        registry = current_registry()
        if registry is not None:
            registry.gauge("parallel_workers_alive").set(0)

    # -- message handling --------------------------------------------------

    def _apply_worker_metrics(self, slot: _WorkerSlot, rows: list) -> None:
        registry = current_registry()
        if registry is None:
            return
        for kind, name, labels, value in rows:
            labelled = {**labels, "worker": str(slot.index)}
            if kind == "counter":
                key = (name, tuple(sorted(labelled.items())))
                last = slot.metrics_last.get(key, 0.0)
                if value > last:
                    registry.counter(name, **labelled).inc(value - last)
                slot.metrics_last[key] = value
            else:
                registry.gauge(name, **labelled).set(value)

    #: Message tags carrying a full group snapshot (handled alike).
    _SNAPSHOT_TAGS = ("snapshot", "adopted", "migrate_committed")

    def _handle_message(self, slot: _WorkerSlot, message: tuple) -> None:
        tag = message[0]
        if tag in self._SNAPSHOT_TAGS:
            _, chunks_done, items_done, state, digest, metric_rows = message
            if _state_digest(state) != digest:
                # Corrupted in flight: reject, keep the previous
                # snapshot AND the retained tail it still covers.
                slot.snapshot_rejects += 1
                registry = current_registry()
                if registry is not None:
                    registry.counter(
                        "parallel_snapshot_rejects_total",
                        worker=str(slot.index),
                    ).inc()
                trace_point(
                    "snapshot_reject",
                    worker=slot.index,
                    chunks=int(chunks_done),
                )
                self._apply_worker_metrics(slot, metric_rows)
                return
            slot.snapshot_state = state
            slot.snapshot_chunks = int(chunks_done)
            slot.snapshot_items = int(items_done)
            # The snapshot covers the first chunks_done FIFO chunks this
            # worker received — drop exactly that prefix of the retained
            # replay tail.
            while slot.acked_chunks < slot.snapshot_chunks and slot.retained:
                slot.retained.popleft()
                slot.acked_chunks += 1
            self._apply_worker_metrics(slot, metric_rows)
            if (
                slot.heal_target is not None
                and slot.snapshot_chunks >= slot.heal_target
            ):
                self._complete_healing(slot)
        elif tag == "quarantine":
            _, position, reason = message
            slot.quarantined += 1
            payload = None
            offset = int(position) - slot.acked_chunks
            if 0 <= offset < len(slot.retained):
                payload = slot.retained[offset]
            self.dead_letters.quarantine(
                int(position), payload, f"worker {slot.index}: {reason}"
            )
        elif tag == "ready":
            registry = current_registry()
            if registry is not None:
                registry.histogram(
                    "parallel_worker_boot_seconds", worker=str(slot.index)
                ).observe(time.perf_counter() - slot.launched_at)
        elif tag == "done":
            slot.done = True
            self._apply_worker_metrics(slot, message[3])
        elif tag == "error":
            slot.error = str(message[1])

    def _drain_messages(self, slot: _WorkerSlot) -> None:
        """Handle everything in one worker's pipe; any message counts as
        progress, and the reply a caller awaits is kept for it."""
        try:
            while slot.conn.poll():
                message = slot.conn.recv()
                slot.progress_at = time.monotonic()
                if message[0] == slot.awaiting:
                    slot.reply = message
                self._handle_message(slot, message)
        except (EOFError, OSError):
            pass  # pipe gone; the process sentinel reports the death

    def _wait(
        self,
        timeout: float,
        blocked_on: _WorkerSlot | None = None,
        *,
        room: bool = False,
    ) -> bool:
        """The parent's one readiness wait; True if a worker failed over.

        Blocks for at most ``timeout`` seconds on every ring-fed
        worker's pipe and process sentinel (plus, with ``room``, the
        "slot freed" pipe of ``blocked_on``'s ring), then handles
        messages, clears freed-slot bytes and fails over exited
        workers.  ``timeout=0`` is the per-chunk sweep.  Time blocked on
        behalf of ``blocked_on`` goes to
        ``parallel_producer_blocked_seconds{worker}``.
        """
        watched: dict[Any, tuple[_WorkerSlot, Any]] = {}
        for slot in self._slots:
            if not slot.feeding_ring or slot.done:
                continue
            if (
                slot.replaying
                and slot is not blocked_on
                and slot.process.exitcode is not None
            ):
                continue  # its own replay loop handles the death
            watched[slot.conn] = (slot, slot.conn)
            watched[slot.process.sentinel] = (slot, slot.process)
            if room and slot is blocked_on:
                watched[slot.ring.freed] = (slot, slot.ring)
        start = time.perf_counter()
        ready = wait_ready(list(watched), max(0.0, timeout))
        registry = current_registry()
        if blocked_on is not None and registry is not None and timeout:
            registry.histogram(
                "parallel_producer_blocked_seconds",
                worker=str(blocked_on.index),
            ).observe(time.perf_counter() - start)
        failed_over = False
        for obj in ready:
            slot, owner = watched[obj]
            if not slot.feeding_ring:
                continue  # failed over while serving an earlier object
            if owner is slot.conn:
                self._drain_messages(slot)
            elif owner is slot.ring:
                slot.ring.clear_freed()
            elif owner is slot.process:
                self._drain_messages(slot)  # a clean exit says "done" first
                if not (slot.replaying or slot.done):
                    self._fail_dead(slot)
                    failed_over = True
        return failed_over

    def _fail_dead(self, slot: _WorkerSlot) -> None:
        self._fail_worker(
            slot,
            f"worker {slot.index} died (exitcode {slot.process.exitcode})",
        )

    def _stalled_for(self, slot: _WorkerSlot) -> float:
        """Seconds since the worker last made progress (see
        :attr:`_WorkerSlot.progress_at`)."""
        now = time.monotonic()
        consumed = slot.ring.consumed()
        if consumed != slot.progress_mark:
            slot.progress_mark = consumed
            slot.progress_at = now
        return now - slot.progress_at

    # -- failover ----------------------------------------------------------

    def _complete_healing(self, slot: _WorkerSlot) -> None:
        """A replacement's snapshot caught up: shards healthy again."""
        slot.heal_target = None
        if self.supervisor is None:
            return
        for shard in self.shards_of(slot.index):
            self.supervisor.heal_shard(shard)
        trace_point("worker_healed", worker=slot.index)

    def _record_stall(self, slot: _WorkerSlot, waited: float, what: str):
        """Build the typed stall error and record its telemetry."""
        slot.stalls += 1
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "parallel_worker_stalls_total", worker=str(slot.index)
            ).inc()
        trace_point(
            "worker_stalled", worker=slot.index, waited_seconds=waited,
            what=what,
        )
        return WorkerStalledError(
            f"worker {slot.index} stalled: no progress on {what} for "
            f"{waited:.1f}s",
            worker=slot.index,
            waited_seconds=waited,
        )

    def _stall(
        self,
        slot: _WorkerSlot,
        waited: float,
        what: str,
        *,
        allow_respawn: bool = True,
    ) -> None:
        """Record a stall and fail the worker over (hung ≠ dead, but
        both leave the ring unserved)."""
        error = self._record_stall(slot, waited, what)
        slot.error = slot.error or str(error)
        self._fail_worker(slot, str(error), allow_respawn=allow_respawn)

    def _fail_worker(
        self, slot: _WorkerSlot, reason: str, *, allow_respawn: bool = True
    ) -> None:
        """Recover a dead/hung worker's traffic, walking the tiers:
        respawn (if enabled and budgeted), then inline/standby."""
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "parallel_worker_failures_total", worker=str(slot.index)
            ).inc()
        self._drain_messages(slot)  # salvage any final snapshot in flight
        if slot.process.is_alive():
            slot.process.terminate()
        slot.process.join(timeout=10.0)
        if (
            self.respawn
            and allow_respawn
            and slot.status == "ok"
            and not slot.done
        ):
            if self._respawn_worker(slot, reason):
                return
            # The replacement is unusable too: salvage whatever
            # snapshot it managed (accepted snapshots already pruned
            # the retained tail consistently), then fall through.
            self._drain_messages(slot)
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join(timeout=10.0)
            self._drain_messages(slot)
        pending = list(slot.retained)
        slot.retained.clear()
        assert self.supervisor is not None
        owned = self.shards_of(slot.index)
        # Shards exported to a new owner but not yet commit-acked by
        # this worker still sit in its snapshot — discard them before
        # any merge/replay, or the handoff double-counts.
        stripped = self._exports_pending.get(slot.index, set())
        if self.failover == "inline":
            if slot.snapshot_state is not None:
                group = ShardedASketch.from_state(slot.snapshot_state)
            else:
                group = ShardedASketch(**self.group_params)
            for shard in stripped:
                group.export_shard(shard)
            for share in pending:
                group.process_batch(share)
            slot.inline_group = group
            slot.status = "inlined"
            # Inline recovery is exact: any healing shards are whole.
            for shard in owned:
                self.supervisor.heal_shard(shard)
        else:
            if slot.snapshot_state is not None:
                group = ShardedASketch.from_state(slot.snapshot_state)
                for shard in stripped:
                    group.export_shard(shard)
                self.supervisor.group.merge(group)
            for shard_index in owned:
                self.supervisor.fail_shard(shard_index, reason)
            for share in pending:
                if share.size:
                    self.supervisor.process_batch(share)
            slot.status = "failed"
        slot.heal_target = None
        slot.error = slot.error or reason
        slot.ring.close()
        slot.ring.unlink()

    def _respawn_worker(self, slot: _WorkerSlot, reason: str) -> bool:
        """Tier-one recovery: replace the process, restore, replay.

        Returns False when the respawn budget is spent or the
        replacement itself fails during replay — the caller then falls
        through to the terminal failover tier, which remains correct
        because accepted replacement snapshots prune the retained tail
        consistently with the state they carry.
        """
        policy = self.respawn_policy
        if slot.respawns >= policy.max_retries:
            return False
        attempt = slot.respawns
        slot.respawns += 1
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "worker_respawns_total", worker=str(slot.index)
            ).inc()
        trace_point(
            "worker_respawn", worker=slot.index, attempt=attempt,
            reason=reason,
        )
        if self.supervisor is not None:
            for shard in self.shards_of(slot.index):
                self.supervisor.begin_healing(
                    shard, f"worker {slot.index} respawning: {reason}"
                )
        time.sleep(min(policy.delay_for(attempt, self._respawn_rng), 1.0))
        initial = None
        if slot.snapshot_state is not None:
            initial = (
                slot.snapshot_state,
                slot.snapshot_chunks,
                slot.snapshot_items,
            )
        # Injected faults are one-shot per process generation: the
        # replacement runs fault-free (a crash_after would re-fire on
        # restore and loop the respawn budget away for nothing).
        with self._pinned_pythonpath():
            process, conn, ring = self._launch(
                slot.index, initial=initial, faults=None
            )
        try:
            slot.conn.close()
        except OSError:
            pass
        slot.ring.close()
        slot.ring.unlink()
        slot.process = process
        slot.conn = conn
        slot.ring = ring
        slot.launched_at = time.perf_counter()
        slot.progress_mark = 0
        slot.progress_at = time.monotonic()
        slot.metrics_last = {}
        slot.done = False
        slot.error = None
        slot.heal_target = slot.sent_chunks
        slot.replaying = True
        try:
            # A copy: snapshots arriving mid-replay prune the tail.
            for share in list(slot.retained):
                if not self._replay_into(slot, share):
                    return False
        finally:
            slot.replaying = False
        try:
            # Ask for a snapshot at the caught-up position: its arrival
            # completes the healing cycle.
            slot.conn.send(("sync", slot.sent_chunks))
        except (OSError, BrokenPipeError):
            return False
        return True

    def _replay_into(self, slot: _WorkerSlot, share: np.ndarray) -> bool:
        """Feed one retained share to a replacement's fresh ring; False
        when the replacement dies or takes no share within
        ``put_timeout``."""
        ring = slot.ring
        deadline = time.monotonic() + self.put_timeout
        while ring.depth() >= ring.slots:
            remaining = deadline - time.monotonic()
            if slot.process.exitcode is not None or remaining <= 0:
                return False
            self._wait(remaining, slot, room=True)
        return ring.put(share, timeout=self.put_timeout)

    # -- backpressure / feeding --------------------------------------------

    def _publish(
        self, slot: _WorkerSlot, share: np.ndarray | None, *, sheddable
    ) -> str:
        """Publish one share (``None``: end of stream) under backpressure.

        Outcomes: ``"ok"`` (published), ``"shed"`` (stalled and
        load-shedding is on), ``"rerouted"`` (the worker was failed over
        — the slot is now respawned/inlined/failed and the caller must
        re-dispatch).  ``ChunkRing.put`` runs only once ``depth()``
        shows a free slot.  A worker whose ring stays full with no
        progress for ``stall_timeout`` is stalled; the stall clock lives
        on the slot, so under load-shedding every later share to a
        stalled worker is shed at once until its ring moves again.
        """
        budget = (
            self.stall_timeout
            if self.stall_timeout is not None
            else self.put_timeout
        )
        ring = slot.ring
        while slot.ring is ring and slot.feeding_ring:
            if ring.depth() < ring.slots:
                if share is None:
                    published = ring.close_producer(timeout=budget)
                else:
                    published = ring.put(share, timeout=budget)
                if published:
                    slot.progress_at = time.monotonic()
                    return "ok"
            waited = self._stalled_for(slot)
            if waited > budget:
                if sheddable and self.load_shed:
                    return "shed"
                self._stall(slot, waited, "ring")
                break
            self._wait(budget - waited, slot, room=True)
        return "rerouted"

    def _shed(self, slot: _WorkerSlot, share: np.ndarray) -> None:
        """Quarantine an overflowing share instead of blocking/failing.

        The share is neither sent nor retained, so the final synopsis
        under-counts its keys until the dead letters are replayed —
        :meth:`health` reports the run degraded while any shed chunks
        exist.
        """
        self.shed_chunks += 1
        if share.size:
            self.dead_letters.quarantine(
                slot.sent_chunks,
                share,
                f"load-shed: worker {slot.index} ring made no progress",
            )
        registry = current_registry()
        if registry is not None:
            registry.counter(
                "load_shed_chunks_total", worker=str(slot.index)
            ).inc()
        trace_point(
            "load_shed", worker=slot.index, items=int(share.shape[0])
        )

    def _feed(self, slot: _WorkerSlot, share: np.ndarray) -> None:
        """Route one chunk share to a worker (or its failover path)."""
        if slot.status == "inlined":
            assert slot.inline_group is not None
            slot.inline_group.process_batch(share)
            return
        if slot.status == "failed":
            if share.size:
                assert self.supervisor is not None
                self.supervisor.process_batch(share)
            return
        outcome = self._publish(slot, share, sheddable=True)
        if outcome == "ok":
            slot.sent_chunks += 1
            slot.sent_items += int(share.shape[0])
            slot.retained.append(share)
            registry = current_registry()
            if registry is not None and share.size:
                registry.counter(
                    "parallel_worker_items_total", worker=str(slot.index)
                ).inc(int(share.shape[0]))
        elif outcome == "shed":
            self._shed(slot, share)
        else:  # rerouted: the slot changed tier (or was respawned)
            self._feed(slot, share)

    # -- driving -----------------------------------------------------------

    def run(
        self,
        chunks: Iterable[np.ndarray],
        *,
        checkpoint_store: CheckpointStore | None = None,
        checkpoint_every: int | None = None,
    ) -> EngineStats:
        """Ingest a chunk stream across the worker fleet and combine.

        Returns :class:`EngineStats` whose ``wall_seconds`` covers the
        whole pipeline — feeding, worker ingest, and the drain merge —
        which is the number real-vs-model speedups are measured on.
        The combined result is :attr:`supervisor`.
        """
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_store is None:
            raise ConfigurationError(
                "checkpoint_every requires a checkpoint_store"
            )
        self.stats = EngineStats()
        self._slots = []
        self.migrations = 0
        self.shed_chunks = 0
        self._exports_pending = {}
        shards = self.group_params["shards"]
        self._assignment = np.array(
            [s % self.workers for s in range(shards)], dtype=np.int64
        )
        self._shard_items = np.zeros(shards, dtype=np.int64)
        self.supervisor = ShardSupervisor(
            standby_hashes=self.standby_hashes,
            standby_bytes=self.standby_bytes,
            **self.group_params,
        )
        controller = None
        if self.auto_reshard and self.workers > 1:
            from repro.runtime.adaptive import ReshardController

            controller = ReshardController(
                self,
                skew_threshold=self.reshard_skew_threshold,
                min_window_items=self.reshard_min_window_items,
                cooldown_windows=self.reshard_cooldown_windows,
            )
        self.reshard_controller = controller
        registry = current_registry()
        if registry is not None:
            stamp_backend(registry)
        start = time.perf_counter()
        chunks_since_checkpoint = 0
        try:
            # Inside the try so a mid-start failure still sweeps the
            # workers and rings already launched.
            self._start_workers()
            router = self.supervisor.group
            for chunk in chunks:
                chunk = coerce_chunk(chunk, self.stats.chunks_ingested)
                owners = router.owners_of(chunk)
                if owners.size:
                    self._shard_items += np.bincount(
                        owners, minlength=shards
                    )
                if registry is not None:
                    self._record_routing_metrics(registry, owners)
                worker_of = self._assignment[owners]
                for slot in self._slots:
                    self._feed(slot, chunk[worker_of == slot.index])
                self.stats.tuples_ingested += int(chunk.shape[0])
                self.stats.chunks_ingested += 1
                chunks_since_checkpoint += 1
                self._wait(0)
                if controller is not None:
                    controller.observe(self.stats.chunks_ingested)
                if registry is not None:
                    self._record_fleet_metrics(registry)
                if (
                    checkpoint_every is not None
                    and chunks_since_checkpoint >= checkpoint_every
                ):
                    self.checkpoint(checkpoint_store)
                    chunks_since_checkpoint = 0
            self._drain()
            if checkpoint_store is not None and chunks_since_checkpoint > 0:
                checkpoint_store.save(
                    self.supervisor,
                    chunk_index=self.stats.chunks_ingested,
                    tuples_ingested=self.stats.tuples_ingested,
                    extra=self._health_extra(),
                )
        finally:
            self._shutdown()
        self.stats.wall_seconds = time.perf_counter() - start
        if registry is not None:
            registry.gauge("engine_items_per_s").set(
                1000.0 * self.stats.wall_throughput_items_per_ms
            )
        return self.stats

    def _record_routing_metrics(
        self, registry: MetricsRegistry, owners: np.ndarray
    ) -> None:
        if owners.size == 0:
            return
        shares = np.bincount(owners, minlength=self.group_params["shards"])
        for index, share in enumerate(shares.tolist()):
            if share:
                registry.counter(
                    "shard_items_total", shard=str(index)
                ).inc(share)
        balanced = owners.size / self.group_params["shards"]
        registry.gauge("shard_skew").set(float(shares.max()) / balanced)
        registry.counter("engine_tuples_total").inc(int(owners.size))
        registry.counter("engine_chunks_total").inc()

    def _record_fleet_metrics(self, registry: MetricsRegistry) -> None:
        alive = 0
        for slot in self._slots:
            if slot.feeding_ring and slot.process.is_alive():
                alive += 1
                registry.gauge(
                    "parallel_ring_depth", worker=str(slot.index)
                ).set(slot.ring.depth())
        registry.gauge("parallel_workers_alive").set(alive)

    def _await_snapshots(self, target_of) -> None:
        """Block until every ring-fed worker's snapshot covers its target.

        ``target_of(slot)`` gives the chunk count the snapshot must
        reach.  Workers that die while we wait are failed over on the
        spot; a failover resets the deadline (a respawned replacement
        legitimately needs time to catch back up).  Workers making no
        progress past ``drain_timeout`` raise the typed stall path.
        """
        deadline = time.monotonic() + self.drain_timeout
        while True:
            waiting = [
                slot
                for slot in self._slots
                if slot.feeding_ring
                and slot.snapshot_chunks < target_of(slot)
            ]
            if not waiting:
                return
            # Exited after a final snapshot that was rejected.
            exited = [slot for slot in waiting if slot.done]
            for slot in exited:
                self._fail_dead(slot)
            remaining = deadline - time.monotonic()
            if not exited and remaining <= 0:
                for slot in waiting:
                    if slot.feeding_ring:
                        self._stall(slot, self.drain_timeout, "snapshot")
            elif not exited and not self._wait(remaining, waiting[0]):
                continue
            deadline = time.monotonic() + self.drain_timeout

    def _await_message(
        self, slot: _WorkerSlot, tag: str, timeout: float
    ):
        """Wait for one specific control reply from one worker.

        Every message is handled as it arrives.  Returns the matching
        message, or ``None`` after the worker was failed over (death or
        stall) — the caller re-examines ``slot.status`` and adapts.
        """
        ring = slot.ring
        deadline = time.monotonic() + timeout
        slot.awaiting, slot.reply = tag, None
        try:
            while slot.reply is None:
                if slot.ring is not ring or not slot.feeding_ring:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._stall(slot, timeout, tag)
                    return None
                self._wait(remaining, slot)
            return slot.reply
        finally:
            slot.awaiting = slot.reply = None

    def _quiesce(self) -> None:
        """Sync every ring-fed worker to its sent position.

        After this returns, every live worker's accepted snapshot
        covers exactly the chunks the parent has sent it and all
        retained tails are empty — the precondition for both
        checkpointing and shard migration.
        """
        for slot in self._slots:
            if slot.feeding_ring:
                try:
                    slot.conn.send(("sync", slot.sent_chunks))
                except (OSError, BrokenPipeError):
                    pass  # liveness handling in _await_snapshots
        self._await_snapshots(lambda slot: slot.sent_chunks)

    def _drain(self) -> None:
        """End of stream: EOF every ring, collect finals, merge."""
        assert self.supervisor is not None
        for slot in self._slots:
            while slot.feeding_ring:
                if self._publish(slot, None, sheddable=False) == "ok":
                    break
                # rerouted: a respawned slot has a fresh ring that
                # still needs its EOF; an inlined/failed slot exits
                # via feeding_ring.
        self._await_snapshots(lambda slot: slot.sent_chunks)
        registry = current_registry()
        merge_start = time.perf_counter()
        for slot in self._slots:
            if slot.status == "ok" and slot.snapshot_state is not None:
                self.supervisor.group.merge(
                    ShardedASketch.from_state(slot.snapshot_state)
                )
            elif slot.status == "inlined":
                assert slot.inline_group is not None
                self.supervisor.group.merge(slot.inline_group)
            # failed: frozen snapshot + standby were folded in at failure
        merge_elapsed = time.perf_counter() - merge_start
        if registry is not None:
            registry.histogram("parallel_merge_seconds").observe(
                merge_elapsed
            )

    # -- elastic resharding -------------------------------------------------

    def reshard(self, plan: Mapping[int, int]) -> int:
        """Move shard ownership between workers online.

        ``plan`` maps shard index → destination worker.  The protocol
        per move is quiesce → export (read-only) → install (acked with
        a full fresh snapshot) → commit (source resets its copy, acked
        with a full fresh snapshot), and is crash-consistent at every
        step:

        * source dies before export: nothing moved, ownership unchanged;
        * source dies after export, before its commit ack: the parent
          strips the exported shards from the source's snapshot before
          any fallback merge (``_exports_pending``), so the destination
          copy is the only one counted;
        * destination dies before adopting: its replacement restores a
          pre-install snapshot and the install is retried;
        * destination dies after adopting: the adoption ack *was* a
          fresh snapshot, so failover recovers the migrated shard like
          any other data.

        Shards currently on a ``failed`` worker cannot move (their
        exact state is gone); moves targeting a failed worker are
        rejected.  Returns the number of shards actually moved.
        """
        if self.supervisor is None or not self._slots:
            raise ConfigurationError(
                "reshard requires a running fleet (call it during run(), "
                "e.g. from the chunk generator or the reshard controller)"
            )
        shards = self.group_params["shards"]
        moves: dict[int, tuple[int, int]] = {}
        for shard, destination in plan.items():
            shard = int(shard)
            destination = int(destination)
            if not 0 <= shard < shards:
                raise ConfigurationError(
                    f"shard {shard} out of range for {shards} shards"
                )
            if not 0 <= destination < self.workers:
                raise ConfigurationError(
                    f"worker {destination} out of range for "
                    f"{self.workers} workers"
                )
            source = int(self._assignment[shard])
            if source == destination:
                continue
            if self._slots[destination].status == "failed":
                raise ConfigurationError(
                    f"cannot move shard {shard} to failed worker "
                    f"{destination}"
                )
            moves[shard] = (source, destination)
        if not moves:
            return 0
        self._quiesce()
        by_source: dict[int, list[int]] = {}
        for shard, (source, _) in moves.items():
            by_source.setdefault(source, []).append(shard)
        moved = 0
        registry = current_registry()
        for source, shard_list in sorted(by_source.items()):
            source_slot = self._slots[source]
            states = self._export_shards(source_slot, shard_list)
            if states is None:
                continue  # source unusable; ownership unchanged
            self._exports_pending[source] = set(states)
            try:
                installed: list[int] = []
                for shard in sorted(states):
                    destination = moves[shard][1]
                    self._install_shard(
                        self._slots[destination], shard, states[shard]
                    )
                    self._assignment[shard] = destination
                    installed.append(shard)
                    moved += 1
                    self.migrations += 1
                    if registry is not None:
                        registry.counter(
                            "reshard_migrations_total", shard=str(shard)
                        ).inc()
                    trace_point(
                        "reshard_migration",
                        shard=shard,
                        source=source,
                        destination=destination,
                    )
                self._commit_export(source_slot, installed)
            finally:
                self._exports_pending.pop(source, None)
        return moved

    def _export_shards(
        self, slot: _WorkerSlot, shard_list: list[int]
    ) -> dict[int, SynopsisState] | None:
        """Phase one: read the moving shards' states off their owner.

        Read-only — the owner's copies are reset only at commit.
        Returns ``None`` when the owner is terminally failed (its exact
        shard state is gone; the move is skipped).
        """
        def from_inline() -> dict[int, SynopsisState]:
            assert slot.inline_group is not None
            inline_shards = slot.inline_group.shards
            return {s: inline_shards[s].state() for s in shard_list}

        for _ in range(3):
            if slot.status == "inlined":
                return from_inline()
            if slot.status == "failed":
                return None
            try:
                slot.conn.send(("migrate_out", list(shard_list)))
            except (OSError, BrokenPipeError):
                pass
            reply = self._await_message(slot, "migrated", self.drain_timeout)
            if reply is None:
                continue  # slot changed tier or respawned; adapt
            _, _, states, digest = reply
            states = {int(s): state for s, state in states.items()}
            if _states_digest(states) != digest:
                continue  # corrupted in flight; ask again
            return states
        # Retries exhausted: force the worker off the ring tier so the
        # export can come from its recovered state instead.
        self._stall(slot, self.drain_timeout, "migrate_out",
                    allow_respawn=False)
        if slot.status == "inlined":
            return from_inline()
        return None

    def _install_shard(
        self, slot: _WorkerSlot, shard: int, state: SynopsisState
    ) -> None:
        """Phase two: hand one shard's state to its new owner.

        Adapts to whatever tier the destination is on (or falls to
        mid-install): a ring worker adopts via ``migrate_in`` and acks
        with a fresh snapshot; an inlined worker installs in-parent; a
        worker that failed mid-install has the state merged into the
        combined group and the shard marked failed — the data is never
        dropped.
        """
        assert self.supervisor is not None
        while True:
            if slot.status == "inlined":
                assert slot.inline_group is not None
                slot.inline_group.install_shard(shard, state)
                return
            if slot.status == "failed":
                carrier = ShardedASketch(**self.group_params)
                carrier.install_shard(shard, state)
                self.supervisor.group.merge(carrier)
                self.supervisor.fail_shard(
                    shard,
                    f"migrated to worker {slot.index} after its failure",
                )
                return
            try:
                slot.conn.send(("migrate_in", {int(shard): state}))
            except (OSError, BrokenPipeError):
                pass
            if self._await_message(slot, "adopted", self.drain_timeout) is None:
                # Destination died or stalled mid-install.  If it never
                # adopted, its replacement restores a pre-install
                # snapshot and the retry installs cleanly; if it had
                # adopted but the ack was lost, the replacement's
                # restored snapshot predates the install too (the ack
                # IS the post-install snapshot), so the retry cannot
                # double-install.
                continue
            return

    def _commit_export(
        self, slot: _WorkerSlot, shard_list: list[int]
    ) -> None:
        """Phase three: the old owner resets its copies of moved shards.

        Until the commit ack (a fresh post-reset snapshot) is accepted,
        ``_exports_pending`` keeps the moved shards stripped from any
        failover use of the old owner's state.
        """
        if not shard_list:
            return
        for _ in range(3):
            if slot.status == "failed":
                return  # snapshot was stripped at failover
            if slot.status == "inlined":
                assert slot.inline_group is not None
                for shard in shard_list:
                    slot.inline_group.export_shard(shard)
                return
            try:
                slot.conn.send(("migrate_commit", list(shard_list)))
            except (OSError, BrokenPipeError):
                pass
            if self._await_message(
                slot, "migrate_committed", self.drain_timeout
            ) is None:
                continue  # tier change or respawn (pre-commit state): retry
            return
        # The worker still owns live copies of handed-off shards: force
        # it off the ring tier (the failover strips the pending exports).
        self._stall(slot, self.drain_timeout, "migrate_commit",
                    allow_respawn=False)
        if slot.status == "inlined":
            assert slot.inline_group is not None
            for shard in shard_list:
                slot.inline_group.export_shard(shard)

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self, store: CheckpointStore) -> dict:
        """Quiesce, snapshot every worker, save the combined state.

        The parent has stopped feeding when this runs (it is called
        between chunks), so each worker drains its ring to exactly
        ``sent_chunks`` and answers the sync request with a snapshot at
        that position; the merged clone saved to ``store`` therefore
        covers every chunk ingested so far — the same exactly-once
        replay point semantics as :class:`CheckpointStore` sequential
        checkpoints.  The journal record's ``extra`` carries the
        self-healing counters for ``cli health``.
        """
        assert self.supervisor is not None
        self._quiesce()
        clone = ShardSupervisor.from_state(self.supervisor.state())
        for slot in self._slots:
            if slot.status == "ok" and slot.snapshot_state is not None:
                clone.group.merge(
                    ShardedASketch.from_state(slot.snapshot_state)
                )
            elif slot.status == "inlined":
                assert slot.inline_group is not None
                clone.group.merge(
                    ShardedASketch.from_state(slot.inline_group.state())
                )
        return store.save(
            clone,
            chunk_index=self.stats.chunks_ingested,
            tuples_ingested=self.stats.tuples_ingested,
            extra=self._health_extra(),
        )

    # -- health -------------------------------------------------------------

    def _health_extra(self) -> dict:
        """The self-healing counters journaled with every checkpoint."""
        return {
            "worker_respawns": self.respawn_count,
            "reshard_migrations": self.migrations,
            "load_shed_chunks": self.shed_chunks,
            "worker_stalls": self.stall_count,
            "quarantined_chunks": self.quarantined_count,
            "snapshot_rejects": sum(
                slot.snapshot_rejects for slot in self._slots
            ),
            "failed_shards": (
                self.supervisor.failed_shards if self.supervisor else []
            ),
            "healing_shards": (
                self.supervisor.healing_shards if self.supervisor else []
            ),
        }

    def health(self) -> dict:
        """Whole-fleet lifecycle snapshot (JSON-safe).

        Extends :meth:`ShardSupervisor.health` with the per-worker view
        and the self-healing counters; shed or quarantined chunks
        escalate an otherwise-``ok`` fleet to ``degraded`` (data is
        sitting in a dead-letter queue, not in the synopsis).
        """
        if self.supervisor is not None:
            base = self.supervisor.health()
        else:
            base = {
                "status": "ok",
                "failed_shards": [],
                "healing_shards": [],
                "shards": [],
            }
        status = base["status"]
        if status == "ok" and (
            self.shed_chunks
            or self.quarantined_count
            or self.dead_letters.quarantined
        ):
            status = "degraded"
        return {
            **base,
            "status": status,
            "workers": self.worker_health(),
            **self._health_extra(),
        }

    def worker_health(self) -> list[dict]:
        """Per-worker liveness/progress snapshot (JSON-safe)."""
        return [
            {
                "worker": slot.index,
                "status": slot.status,
                "alive": slot.process.is_alive(),
                "pid": slot.process.pid,
                "exitcode": slot.process.exitcode,
                "sent_chunks": slot.sent_chunks,
                "sent_items": slot.sent_items,
                "snapshot_chunks": slot.snapshot_chunks,
                "shards": self.shards_of(slot.index),
                "respawns": slot.respawns,
                "stalls": slot.stalls,
                "quarantined": slot.quarantined,
                "snapshot_rejects": slot.snapshot_rejects,
                "healing": slot.heal_target is not None,
                "error": slot.error,
            }
            for slot in self._slots
        ]

    def shard_health(self) -> list[dict]:
        """Per-shard status from the combined supervisor.

        After a ``standby`` failover the dead worker's shards read
        ``failed`` here; during a respawn they read ``healing`` —
        process liveness surfaced through the same
        :meth:`ShardSupervisor.shard_health` view sequential
        deployments use.
        """
        if self.supervisor is None:
            return []
        return self.supervisor.shard_health()


def parallel_ingest(
    chunks: Iterable[np.ndarray],
    workers: int,
    **params: Any,
) -> tuple[ShardSupervisor, EngineStats]:
    """One-shot convenience: run a fleet over ``chunks``, return result.

    ``params`` are :class:`ParallelIngestRuntime` keyword arguments.
    Returns the combined :class:`ShardSupervisor` (queryable, mergeable,
    persistable) and the run's :class:`EngineStats`.
    """
    runtime = ParallelIngestRuntime(workers, **params)
    stats = runtime.run(chunks)
    assert runtime.supervisor is not None
    return runtime.supervisor, stats
