"""Structured execution-event bus: the raw material of observability.

Every scheduler-relevant moment of a block execution — a transaction
binding to a thread, a version wait beginning, a lock being granted, a
release point publishing early writes — is emitted as one typed, timestamped
event onto an :class:`EventBus`.  Timestamps are *simulated* time (gas
units, the same clock :mod:`repro.sim.clock` runs on), so traces line up
exactly with the makespans and speedups the benchmarks report.

The bus is deliberately passive: an append-only list plus a monotonically
increasing sequence number.  All interpretation (span pairing, wait-time
decomposition, abort attribution) lives in :mod:`repro.obs.timeline` and
:mod:`repro.obs.attribution`.

Disabled-path cost
------------------
Executors keep ``self.obs = None`` by default and guard every hook with a
single ``is not None`` branch, exactly like the ``repro.verify`` trace
recorder.  Components that prefer an unconditional attribute (the thread
pool, the lock table) may hold :data:`NULL_BUS` instead — a
:class:`NullSink` whose emit methods are all no-ops — so either way the
hot path pays about one branch when observability is off.

Version identifiers follow the access-sequence convention: a writer is the
block index of the transaction that produced the version, ``-1`` is the
pre-block snapshot, and ``-2`` means "unknown writer".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Type, TypeVar

from ..core.types import StateKey

SNAPSHOT_WRITER = -1
UNKNOWN_WRITER = -2

E = TypeVar("E", bound="ObsEvent")


@dataclass(frozen=True)
class ObsEvent:
    """Base event: ``seq`` totally orders the stream within one bus,
    ``ts`` is the simulated time, ``tx`` the block index of the transaction
    the event belongs to (``-1`` for block/thread-level events)."""

    seq: int
    ts: float
    tx: int


# ---------------------------------------------------------------------------
# Block / thread lifecycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockStart(ObsEvent):
    scheduler: str = ""
    threads: int = 1
    tx_count: int = 0


@dataclass(frozen=True)
class BlockEnd(ObsEvent):
    makespan: float = 0.0


@dataclass(frozen=True)
class ThreadOccupied(ObsEvent):
    """A simulated thread was claimed (``tx`` is -1; ``thread`` identifies
    the slot, ``label`` whatever the occupier passed to the pool)."""

    thread: int = -1
    label: str = ""


@dataclass(frozen=True)
class ThreadReleased(ObsEvent):
    thread: int = -1


# ---------------------------------------------------------------------------
# Transaction lifecycle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TxReady(ObsEvent):
    """The transaction joined the ready queue: queue-wait begins."""

    attempt: int = 1


@dataclass(frozen=True)
class TxStart(ObsEvent):
    """The transaction bound to a simulated thread: execution begins."""

    attempt: int = 1
    thread: int = -1


@dataclass(frozen=True)
class TxEnd(ObsEvent):
    """An attempt ran to completion (only the last TxEnd per transaction
    describes the committed outcome)."""

    attempt: int = 1
    success: bool = True
    gas_used: int = 0


@dataclass(frozen=True)
class TxAbort(ObsEvent):
    """The scheduler killed attempt ``attempt``.  ``key`` is the state item
    whose conflicting version triggered the abort and ``writer`` the
    transaction that produced that version (the attribution triple)."""

    attempt: int = 1
    key: Optional[StateKey] = None
    writer: int = UNKNOWN_WRITER


@dataclass(frozen=True)
class TxReexecute(ObsEvent):
    """An aborted transaction re-entered the scheduler for ``attempt``."""

    attempt: int = 2


# ---------------------------------------------------------------------------
# Waits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VersionWaitBegin(ObsEvent):
    """The transaction is stalled because the versions it must read do not
    exist yet; ``keys`` are the unresolvable items, ``blockers`` the
    unfinished writers they wait on."""

    keys: Tuple[StateKey, ...] = ()
    blockers: Tuple[int, ...] = ()


@dataclass(frozen=True)
class VersionWaitEnd(ObsEvent):
    """The last missing version became available; ``granted_by`` is the
    writer whose publish unblocked the transaction (``key`` the item)."""

    key: Optional[StateKey] = None
    granted_by: int = SNAPSHOT_WRITER


@dataclass(frozen=True)
class LockWaitBegin(ObsEvent):
    """The transaction is stalled behind conflict locks (a DAG-style
    dependency wait); ``holders`` are the predecessors it waits for."""

    holders: Tuple[int, ...] = ()


@dataclass(frozen=True)
class LockWaitEnd(ObsEvent):
    pass


@dataclass(frozen=True)
class LockAcquire(ObsEvent):
    """The transaction gained the lock of ``key`` (the version it must
    read became available — the paper's lock-table grant)."""

    key: Optional[StateKey] = None


@dataclass(frozen=True)
class LockRelease(ObsEvent):
    key: Optional[StateKey] = None


# ---------------------------------------------------------------------------
# DMVCC protocol moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReleasePointReached(ObsEvent):
    """Execution crossed a release point; ``released`` says whether the gas
    check allowed early publication from here on."""

    pc: int = 0
    released: bool = False
    gas_remaining: int = 0


@dataclass(frozen=True)
class EarlyReadServed(ObsEvent):
    """A read was served a version whose writer had not completed yet —
    early-write visibility doing its job."""

    key: Optional[StateKey] = None
    writer: int = UNKNOWN_WRITER


@dataclass(frozen=True)
class CommutativeMerge(ObsEvent):
    """A commutative delta was merged into an access sequence as its own
    write version (ω̄)."""

    key: Optional[StateKey] = None
    delta: int = 0


@dataclass(frozen=True)
class MergeTolerated(ObsEvent):
    """An abort on a declared merge key was skipped because every guard the
    reader ran on the key keeps its verdict under the drifted base (the
    declared-operation algebra, repro.state.merge)."""

    key: Optional[StateKey] = None


# ---------------------------------------------------------------------------
# Incremental re-execution (checkpoint / resume / revalidate)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointTaken(ObsEvent):
    """The driver snapshotted the VM at a storage-read boundary.
    ``read_index`` counts the reads already baked into the checkpoint;
    ``retained`` is how many checkpoints the attempt holds after pruning."""

    read_index: int = 0
    retained: int = 0


@dataclass(frozen=True)
class TxResume(ObsEvent):
    """An aborted transaction restarted from a checkpoint instead of from
    scratch; ``instructions_skipped`` is the prefix it did not replay."""

    attempt: int = 2
    read_index: int = 0
    instructions_skipped: int = 0


@dataclass(frozen=True)
class RevalidationHit(ObsEvent):
    """An aborted transaction's whole read set re-resolved to identical
    values: its completed result was reinstated with zero re-execution."""

    attempt: int = 2
    instructions_skipped: int = 0


# ---------------------------------------------------------------------------
# State commit (the batched overlay pipeline sealing snapshot S^l)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommitStarted(ObsEvent):
    """The commit phase began flushing a block's final write batch into the
    state trie (``tx`` is -1; ``height`` is the snapshot being sealed)."""

    height: int = 0
    writes: int = 0


@dataclass(frozen=True)
class CommitSealed(ObsEvent):
    """The new snapshot's root was sealed.  ``nodes_sealed`` and
    ``hashes_computed`` account the overlay's single post-order seal pass;
    ``wall_time`` is real seconds (commits run outside simulated time);
    ``flat_hits``/``flat_misses`` are the parent snapshot's read-cache
    counters accumulated while the block executed against it."""

    height: int = 0
    writes: int = 0
    nodes_sealed: int = 0
    hashes_computed: int = 0
    wall_time: float = 0.0
    flat_hits: int = 0
    flat_misses: int = 0


@dataclass(frozen=True)
class CommitPersisted(ObsEvent):
    """The durable backend made the sealed snapshot crash-safe: the commit
    marker hit the log and was fsynced.  ``bytes_appended`` covers the
    block's node records plus the marker; ``cache_hits``/``cache_misses``
    are the node-cache traffic since the previous marker; ``pruned_nodes``
    is non-zero when this commit triggered auto-compaction.  Only emitted
    when the StateDB runs on the durable backend."""

    height: int = 0
    bytes_appended: int = 0
    fsync_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    pruned_nodes: int = 0


@dataclass(frozen=True)
class WorkloadChunkCommitted(ObsEvent):
    """One chunk of a serially-committed workload stream was sealed
    (``tx`` is -1).  Emitted by :meth:`Workload.commit_serially` so long
    setup phases report progress instead of silently looping."""

    height: int = 0
    txs_committed: int = 0
    txs_total: int = 0
    root: bytes = b""


# ---------------------------------------------------------------------------
# Mempool & streaming pipeline (repro.chain.txpool / repro.pipeline)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MempoolEvicted(ObsEvent):
    """A full mempool displaced an entry to admit a newcomer (``tx`` is
    -1).  ``analysed`` says whether a built C-SAG was thrown away with it —
    the waste the fee-priority victim choice exists to minimise."""

    fee: int = 0
    analysed: bool = False
    reason: str = "capacity"
    pool_size: int = 0


@dataclass(frozen=True)
class MempoolRejected(ObsEvent):
    """Admission control refused a transaction (``tx`` is -1); ``reason``
    is one of the :mod:`repro.chain.txpool` rejection codes."""

    reason: str = ""
    fee: int = 0


@dataclass(frozen=True)
class BackpressureChanged(ObsEvent):
    """The pipeline's ingest throttle flipped (``tx`` is -1): ``engaged``
    means the mempool crossed its high watermark and the stream is being
    held back; disengaged means occupancy drained below the low
    watermark."""

    engaged: bool = False
    pool_size: int = 0
    capacity: int = 0


@dataclass(frozen=True)
class StageCompleted(ObsEvent):
    """One pipeline stage finished its work for one block (``tx`` is -1).
    ``latency`` is wall seconds the stage spent on the block; ``items`` is
    stage-specific (transactions ingested/analysed/packed/executed, writes
    sealed/persisted)."""

    stage: str = ""
    block: int = 0
    latency: float = 0.0
    items: int = 0


@dataclass(frozen=True)
class WorkerCrashed(ObsEvent):
    """A real-substrate worker process died mid-block (``tx`` is -1) and was
    respawned; ``lost`` counts the in-flight transactions whose attempts died
    with it (each is re-dispatched as an abort)."""

    worker: int = -1
    lost: int = 0


class EventBus:
    """Append-only, sequence-numbered sink of :class:`ObsEvent`."""

    enabled = True

    def __init__(self) -> None:
        self.events: List[ObsEvent] = []
        self._seq = 0

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()
        self._seq = 0

    def of_type(self, kind: Type[E]) -> List[E]:
        return [e for e in self.events if isinstance(e, kind)]

    def of_tx(self, tx: int) -> List[ObsEvent]:
        return [e for e in self.events if e.tx == tx]

    def _next(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    # -- emit methods (one per event type) ----------------------------------

    def block_start(self, ts: float, scheduler: str, threads: int,
                    tx_count: int) -> None:
        self.events.append(
            BlockStart(self._next(), ts, -1, scheduler, threads, tx_count))

    def block_end(self, ts: float, makespan: float) -> None:
        self.events.append(BlockEnd(self._next(), ts, -1, makespan))

    def thread_occupied(self, ts: float, thread: int, label: str = "") -> None:
        self.events.append(ThreadOccupied(self._next(), ts, -1, thread, label))

    def thread_released(self, ts: float, thread: int) -> None:
        self.events.append(ThreadReleased(self._next(), ts, -1, thread))

    def tx_ready(self, ts: float, tx: int, attempt: int = 1) -> None:
        self.events.append(TxReady(self._next(), ts, tx, attempt))

    def tx_start(self, ts: float, tx: int, attempt: int = 1,
                 thread: int = -1) -> None:
        self.events.append(TxStart(self._next(), ts, tx, attempt, thread))

    def tx_end(self, ts: float, tx: int, attempt: int = 1,
               success: bool = True, gas_used: int = 0) -> None:
        self.events.append(
            TxEnd(self._next(), ts, tx, attempt, success, gas_used))

    def tx_abort(self, ts: float, tx: int, attempt: int = 1,
                 key: Optional[StateKey] = None,
                 writer: int = UNKNOWN_WRITER) -> None:
        self.events.append(TxAbort(self._next(), ts, tx, attempt, key, writer))

    def tx_reexecute(self, ts: float, tx: int, attempt: int = 2) -> None:
        self.events.append(TxReexecute(self._next(), ts, tx, attempt))

    def version_wait_begin(self, ts: float, tx: int,
                           keys: Tuple[StateKey, ...] = (),
                           blockers: Tuple[int, ...] = ()) -> None:
        self.events.append(
            VersionWaitBegin(self._next(), ts, tx, keys, blockers))

    def version_wait_end(self, ts: float, tx: int,
                         key: Optional[StateKey] = None,
                         granted_by: int = SNAPSHOT_WRITER) -> None:
        self.events.append(
            VersionWaitEnd(self._next(), ts, tx, key, granted_by))

    def lock_wait_begin(self, ts: float, tx: int,
                        holders: Tuple[int, ...] = ()) -> None:
        self.events.append(LockWaitBegin(self._next(), ts, tx, holders))

    def lock_wait_end(self, ts: float, tx: int) -> None:
        self.events.append(LockWaitEnd(self._next(), ts, tx))

    def lock_acquire(self, ts: float, tx: int, key: StateKey) -> None:
        self.events.append(LockAcquire(self._next(), ts, tx, key))

    def lock_release(self, ts: float, tx: int, key: StateKey) -> None:
        self.events.append(LockRelease(self._next(), ts, tx, key))

    def release_point(self, ts: float, tx: int, pc: int, released: bool,
                      gas_remaining: int = 0) -> None:
        self.events.append(ReleasePointReached(
            self._next(), ts, tx, pc, released, gas_remaining))

    def early_read(self, ts: float, tx: int, key: StateKey,
                   writer: int) -> None:
        self.events.append(EarlyReadServed(self._next(), ts, tx, key, writer))

    def commutative_merge(self, ts: float, tx: int, key: StateKey,
                          delta: int) -> None:
        self.events.append(CommutativeMerge(self._next(), ts, tx, key, delta))

    def merge_tolerated(self, ts: float, tx: int, key: StateKey) -> None:
        self.events.append(MergeTolerated(self._next(), ts, tx, key))

    def checkpoint_taken(self, ts: float, tx: int, read_index: int,
                         retained: int) -> None:
        self.events.append(
            CheckpointTaken(self._next(), ts, tx, read_index, retained))

    def tx_resume(self, ts: float, tx: int, attempt: int = 2,
                  read_index: int = 0,
                  instructions_skipped: int = 0) -> None:
        self.events.append(TxResume(
            self._next(), ts, tx, attempt, read_index, instructions_skipped))

    def revalidation_hit(self, ts: float, tx: int, attempt: int = 2,
                         instructions_skipped: int = 0) -> None:
        self.events.append(RevalidationHit(
            self._next(), ts, tx, attempt, instructions_skipped))

    def commit_started(self, ts: float, height: int, writes: int) -> None:
        self.events.append(CommitStarted(self._next(), ts, -1, height, writes))

    def commit_sealed(self, ts: float, height: int, writes: int,
                      nodes_sealed: int = 0, hashes_computed: int = 0,
                      wall_time: float = 0.0, flat_hits: int = 0,
                      flat_misses: int = 0) -> None:
        self.events.append(CommitSealed(
            self._next(), ts, -1, height, writes, nodes_sealed,
            hashes_computed, wall_time, flat_hits, flat_misses))

    def commit_persisted(self, ts: float, height: int,
                         bytes_appended: int = 0, fsync_time: float = 0.0,
                         cache_hits: int = 0, cache_misses: int = 0,
                         pruned_nodes: int = 0) -> None:
        self.events.append(CommitPersisted(
            self._next(), ts, -1, height, bytes_appended, fsync_time,
            cache_hits, cache_misses, pruned_nodes))

    def workload_chunk(self, ts: float, height: int, txs_committed: int,
                       txs_total: int, root: bytes = b"") -> None:
        self.events.append(WorkloadChunkCommitted(
            self._next(), ts, -1, height, txs_committed, txs_total, root))

    def mempool_evicted(self, ts: float, fee: int = 0, analysed: bool = False,
                        reason: str = "capacity", pool_size: int = 0) -> None:
        self.events.append(MempoolEvicted(
            self._next(), ts, -1, fee, analysed, reason, pool_size))

    def mempool_rejected(self, ts: float, reason: str = "",
                         fee: int = 0) -> None:
        self.events.append(MempoolRejected(self._next(), ts, -1, reason, fee))

    def backpressure_changed(self, ts: float, engaged: bool,
                             pool_size: int = 0, capacity: int = 0) -> None:
        self.events.append(BackpressureChanged(
            self._next(), ts, -1, engaged, pool_size, capacity))

    def stage_completed(self, ts: float, stage: str, block: int,
                        latency: float = 0.0, items: int = 0) -> None:
        self.events.append(StageCompleted(
            self._next(), ts, -1, stage, block, latency, items))

    def worker_crashed(self, ts: float, worker: int, lost: int = 0) -> None:
        self.events.append(WorkerCrashed(self._next(), ts, -1, worker, lost))

    def summary(self) -> str:
        counts = {}
        for event in self.events:
            name = type(event).__name__
            counts[name] = counts.get(name, 0) + 1
        inner = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"EventBus({len(self.events)} events: {inner})"


class NullSink(EventBus):
    """The disabled bus: every emit is a no-op and nothing is stored."""

    enabled = False

    def block_start(self, *args, **kwargs) -> None: pass
    def block_end(self, *args, **kwargs) -> None: pass
    def thread_occupied(self, *args, **kwargs) -> None: pass
    def thread_released(self, *args, **kwargs) -> None: pass
    def tx_ready(self, *args, **kwargs) -> None: pass
    def tx_start(self, *args, **kwargs) -> None: pass
    def tx_end(self, *args, **kwargs) -> None: pass
    def tx_abort(self, *args, **kwargs) -> None: pass
    def tx_reexecute(self, *args, **kwargs) -> None: pass
    def version_wait_begin(self, *args, **kwargs) -> None: pass
    def version_wait_end(self, *args, **kwargs) -> None: pass
    def lock_wait_begin(self, *args, **kwargs) -> None: pass
    def lock_wait_end(self, *args, **kwargs) -> None: pass
    def lock_acquire(self, *args, **kwargs) -> None: pass
    def lock_release(self, *args, **kwargs) -> None: pass
    def release_point(self, *args, **kwargs) -> None: pass
    def early_read(self, *args, **kwargs) -> None: pass
    def commutative_merge(self, *args, **kwargs) -> None: pass
    def merge_tolerated(self, *args, **kwargs) -> None: pass
    def checkpoint_taken(self, *args, **kwargs) -> None: pass
    def tx_resume(self, *args, **kwargs) -> None: pass
    def revalidation_hit(self, *args, **kwargs) -> None: pass
    def commit_started(self, *args, **kwargs) -> None: pass
    def commit_sealed(self, *args, **kwargs) -> None: pass
    def commit_persisted(self, *args, **kwargs) -> None: pass
    def workload_chunk(self, *args, **kwargs) -> None: pass
    def mempool_evicted(self, *args, **kwargs) -> None: pass
    def mempool_rejected(self, *args, **kwargs) -> None: pass
    def backpressure_changed(self, *args, **kwargs) -> None: pass
    def stage_completed(self, *args, **kwargs) -> None: pass
    def worker_crashed(self, *args, **kwargs) -> None: pass


NULL_BUS = NullSink()
