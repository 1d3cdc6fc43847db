"""OCC-based parallel executor (optimistic concurrency control baseline).

The paper's OCC comparator executes transactions in parallel without any
dependency information, then "aborts and re-executes the transactions that
violate deterministic serializability until there is none to be aborted".
We implement the round-based scheme in its modern multi-version formulation
(as in Block-STM / Sparkle), with a faithful *timing* model:

1. transactions needing (re-)execution are bound to simulated threads FIFO;
   a transaction reads the versions published *before its start time* —
   concurrent transactions cannot see each other, which is exactly where
   optimistic conflicts come from (one thread ⇒ fully serial ⇒ no aborts);
2. after each round, every executed transaction is validated in block
   order: if any recorded read no longer matches the latest writer below
   it, the transaction is stale and re-executes next round;
3. rounds repeat to a fixpoint; the validated state equals serial execution.

Each conflict costs a full re-execution (the paper's high-contention
weakness); validation is costed as free, which favours OCC.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from ..core.errors import SchedulingError
from ..core.types import StateKey
from ..evm.environment import BlockContext
from ..evm.events import (
    FrameCheckpoint,
    FrameCommit,
    FrameRevert,
    StorageRead,
    StorageWrite,
)
from ..sim.metrics import TxMetrics
from ..state.statedb import Snapshot
from .base import BlockExecution, Executor, Receipt
from .txprogram import StorageIncrement, TxResult, transaction_program

SNAPSHOT_WRITER = -1


class _TimedVersionStore:
    """Speculative writes with publish timestamps."""

    def __init__(self, snapshot: Snapshot) -> None:
        self._snapshot = snapshot
        # key -> {writer index: (value, publish_time)}
        self._writes: Dict[StateKey, Dict[int, Tuple[int, float]]] = {}

    def read(
        self, key: StateKey, index: int, before: Optional[float] = None
    ) -> Tuple[int, int]:
        """Latest version by a writer < ``index`` visible at time ``before``
        (no time bound when ``before`` is None).  Returns (value, writer)."""
        versions = self._writes.get(key)
        best_writer = SNAPSHOT_WRITER
        best_value = 0
        if versions:
            for writer, (value, published) in versions.items():
                if writer >= index or writer <= best_writer:
                    continue
                if before is not None and published > before:
                    continue
                best_writer = writer
                best_value = value
        if best_writer == SNAPSHOT_WRITER:
            return self._snapshot.get(key), SNAPSHOT_WRITER
        return best_value, best_writer

    def publish(self, index: int, writes: Dict[StateKey, int], time: float) -> None:
        for key, value in writes.items():
            self._writes.setdefault(key, {})[index] = (value, time)

    def retract(self, index: int, keys) -> None:
        for key in keys:
            versions = self._writes.get(key)
            if versions is not None:
                versions.pop(index, None)

    def final_writes(self) -> Dict[StateKey, int]:
        return {
            key: versions[max(versions)][0]
            for key, versions in self._writes.items()
            if versions
        }


class OCCExecutor(Executor):
    """Optimistic execute–validate rounds on a simulated thread pool."""

    name = "occ"

    def __init__(self, gas_time_scale: float = 1.0, max_rounds: int = 10_000,
                 seed_views: bool = True, psag_cache=None) -> None:
        super().__init__(gas_time_scale)
        self.max_rounds = max_rounds
        # Real-substrate view seeding (PR-8 follow-up): resolve the static
        # P-SAG access sites per transaction and ship that key set with the
        # first dispatch, instead of discovering every key through the
        # NeedKeys → widen → re-dispatch loop.  OCC semantics are
        # unchanged — a seeded view only changes how many round-trips the
        # first attempt costs; ``bench_scheduling``/``bench_substrates``
        # count ``view_misses`` with the seeding on and off.
        self.seed_views = seed_views
        if psag_cache is None:
            from ..analysis.sag import PSAGCache
            psag_cache = PSAGCache()
        self.psag_cache = psag_cache

    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
    ) -> BlockExecution:
        """Execute ``txs`` with optimistic rounds; see Executor."""
        pool = self._substrate_pool(threads)
        if pool is not None:
            from ..substrate.coordinator import run_occ_real
            return run_occ_real(self, pool, txs, snapshot, code_resolver,
                                block, threads=threads)
        wall_start = perf_counter()
        count = len(txs)
        recorder = self.recorder
        obs = self.obs
        store = _TimedVersionStore(snapshot)
        results: List[Optional[TxResult]] = [None] * count
        read_versions: List[Dict[StateKey, Tuple[int, int]]] = [{} for _ in range(count)]
        write_keys: List[Set[StateKey]] = [set() for _ in range(count)]
        attempts = [0] * count
        per_tx = [TxMetrics(index=i) for i in range(count)]
        needs_execution = list(range(count))
        clock = 0.0
        rounds = 0
        if obs is not None:
            obs.block_start(0.0, scheduler=self.name, threads=threads,
                            tx_count=count)
            for index in range(count):
                obs.tx_ready(0.0, index)

        while needs_execution:
            rounds += 1
            if rounds > self.max_rounds:
                raise SchedulingError(
                    f"{self.name} failed to converge in {self.max_rounds} "
                    f"rounds; unfinished: {sorted(needs_execution)}")

            # Versions of the transactions being redone disappear for the
            # round (they are being recomputed).
            for index in needs_execution:
                if recorder is not None:
                    for key in write_keys[index]:
                        recorder.retract(index, key)
                store.retract(index, write_keys[index])

            # FIFO thread binding: each transaction starts when a thread
            # frees up and sees only versions published before that instant.
            thread_heap = [(clock, tid) for tid in range(threads)]
            heapq.heapify(thread_heap)
            round_end = clock
            for index in needs_execution:
                start, tid = heapq.heappop(thread_heap)
                attempts[index] += 1
                if obs is not None:
                    if attempts[index] > 1:
                        obs.version_wait_end(clock, index)
                        obs.tx_reexecute(clock, index, attempt=attempts[index])
                        obs.tx_ready(clock, index, attempt=attempts[index])
                    obs.tx_start(start, index, attempt=attempts[index],
                                 thread=tid)
                result, writes, reads = _speculative_run(
                    txs[index], index, store, code_resolver, block, before=start,
                    recorder=recorder, attempt=attempts[index],
                )
                end = start + result.gas_used * self.gas_time_scale
                results[index] = result
                read_versions[index] = reads
                write_keys[index] = set(writes)
                store.publish(index, writes, time=end)
                if obs is not None:
                    obs.tx_end(end, index, attempt=attempts[index],
                               success=result.success,
                               gas_used=result.gas_used)
                if recorder is not None:
                    for key, value in writes.items():
                        recorder.publish(index, key, "abs", value)
                    recorder.complete(index, attempt=attempts[index],
                                      success=result.success,
                                      gas_used=result.gas_used)
                per_tx[index].start_time = start
                per_tx[index].end_time = end
                heapq.heappush(thread_heap, (end, tid))
                round_end = max(round_end, end)
            clock = round_end

            # Validation sweep (sequential, in block order), against the
            # final store state: any read that would now resolve differently
            # marks the reader stale.
            needs_execution = []
            for index in range(count):
                conflict_key = None
                conflict_writer = SNAPSHOT_WRITER
                for key, observed in read_versions[index].items():
                    current = store.read(key, index)
                    if current != observed:
                        conflict_key = key
                        conflict_writer = current[1]
                        break
                if conflict_key is not None:
                    if recorder is not None:
                        recorder.abort(index, attempt=attempts[index])
                    if obs is not None:
                        # The stale transaction waits out the round barrier
                        # from the end of its doomed attempt: back-date the
                        # version-wait so the wasted span is visible.
                        obs.tx_abort(clock, index, attempt=attempts[index],
                                     key=conflict_key, writer=conflict_writer)
                        obs.version_wait_begin(
                            per_tx[index].end_time, index,
                            keys=(conflict_key,),
                            blockers=(conflict_writer,),
                        )
                    needs_execution.append(index)

        receipts = [
            Receipt(index=i, result=results[i], attempts=attempts[i])  # type: ignore[arg-type]
            for i in range(count)
        ]
        for i in range(count):
            per_tx[i].attempts = attempts[i]
            per_tx[i].aborted_times = attempts[i] - 1
            per_tx[i].gas_used = results[i].gas_used  # type: ignore[union-attr]
            per_tx[i].succeeded = results[i].success  # type: ignore[union-attr]

        if obs is not None:
            obs.block_end(clock, makespan=clock)

        metrics = self._base_metrics(threads, receipts)
        metrics.makespan = clock
        metrics.utilisation = (
            min(1.0, metrics.serial_time / (clock * threads)) if clock else 0.0
        )
        metrics.per_tx = per_tx
        metrics.wall_time = perf_counter() - wall_start
        return BlockExecution(
            writes=store.final_writes(), receipts=receipts, metrics=metrics
        )


def _speculative_run(
    tx, index: int, store: _TimedVersionStore, code_resolver, block, before: float,
    recorder=None, attempt: int = 1,
) -> Tuple[TxResult, Dict[StateKey, int], Dict[StateKey, Tuple[int, int]]]:
    """One optimistic execution against the versions visible at ``before``.

    Returns (result, write set, observed (value, writer) per key read).
    """
    local: Dict[StateKey, int] = {}
    undo: List[Tuple[StateKey, Optional[int]]] = []
    checkpoints: List[int] = []
    reads: Dict[StateKey, Tuple[int, int]] = {}

    def read(key: StateKey, blind: bool = False) -> int:
        if key in local:
            return local[key]
        value, writer = store.read(key, index, before=before)
        reads.setdefault(key, (value, writer))
        if recorder is not None:
            recorder.read(index, key, writer, value, attempt=attempt, blind=blind)
        return value

    def write(key: StateKey, value: int) -> None:
        undo.append((key, local.get(key)))
        local[key] = value

    program = transaction_program(tx, code_resolver, block=block)
    to_send: object = None
    while True:
        try:
            event = program.send(to_send)
        except StopIteration as stop:
            result: TxResult = stop.value
            break
        to_send = None
        if isinstance(event, StorageRead):
            to_send = read(event.key)
        elif isinstance(event, StorageWrite):
            write(event.key, event.value)
            if recorder is not None:
                recorder.write(index, event.key, value=event.value, attempt=attempt)
        elif isinstance(event, StorageIncrement):
            write(event.key, read(event.key, blind=True) + event.delta)
            if recorder is not None:
                recorder.write(index, event.key, delta=event.delta, attempt=attempt)
        elif isinstance(event, FrameCheckpoint):
            checkpoints.append(len(undo))
            to_send = len(checkpoints)
        elif isinstance(event, FrameCommit):
            checkpoints.pop()
        elif isinstance(event, FrameRevert):
            token = checkpoints.pop()
            while len(undo) > token:
                key, previous = undo.pop()
                if previous is None:
                    local.pop(key, None)
                else:
                    local[key] = previous
    writes = dict(local) if result.success else {}
    return result, writes, reads
