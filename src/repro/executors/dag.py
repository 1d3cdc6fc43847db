"""DAG-based parallel executor (the ParBlockchain-style baseline).

Conflicts between transactions are computed up front from the C-SAG
read/write sets and recorded as a dependency DAG; a transaction starts only
after every conflicting predecessor finished.  Two properties distinguish it
from DMVCC, exactly as the paper describes:

* **write-write conflicts are edges** — no write versioning;
* **writes become visible only at transaction completion** — no early-write
  visibility — and commutativity is not exploited (ω̄ counts as a plain ω).

The approach tolerates no analysis error: if the predicted sets miss a real
access, the execution may diverge from serial (the paper's stated weakness);
the RQ1 benchmark quantifies how often that occurs.

The fork-join protocol itself (:class:`ForkJoinRun`) is shared with
schedule replay, which gates on a sealed schedule's predecessors instead
of the conflict DAG; :func:`run_fork_join` drives it on the simulator and
``repro.substrate.coordinator.run_fork_join_real`` on worker pools.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Dict, List, Optional, Set, Tuple

from ..analysis.csag import CSAG, CSAGBuilder
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
from ..sim.clock import EventLoop
from ..sim.metrics import TxMetrics
from ..sim.threadpool import ThreadPool
from ..state.journal import WriteJournal
from ..state.statedb import Snapshot
from .base import BlockExecution, Executor, Receipt
from .txprogram import StorageIncrement, TxResult, transaction_program


def build_conflict_dag(
    csags: List[CSAG], granularity: str = "variable"
) -> List[Set[int]]:
    """Predecessor sets: ``deps[j]`` = indices i<j conflicting with j.

    Conflict = read-write, write-read, or write-write overlap (Definition 3
    *without* DMVCC's write-versioning relaxation).

    ``granularity`` selects the conflict unit:

    * ``"variable"`` (default) — whole storage variables, as the coarse
      static analyses of prior DAG-based systems produce (two transfers on
      one token always conflict);
    * ``"slot"`` — DMVCC-grade slot-level sets, for the ablation that asks
      how much of DMVCC's win is just analysis precision.
    """
    deps: List[Set[int]] = [set() for _ in csags]
    # Conflict unit -> list of (index, reads?, writes?) in block order.
    touched: Dict[object, List[Tuple[int, bool, bool]]] = {}
    for j, csag in enumerate(csags):
        if granularity == "variable":
            reads = set(csag.coarse_read_units)
            writes = set(csag.coarse_write_units)
        else:
            # Pre-executed path unioned with every symbolically-resolved
            # potential access of the called function.
            reads = csag.read_keys | csag.static_read_keys
            writes = csag.write_keys | csag.static_write_keys
        # DAG treats commutative writes as plain writes.
        for key in reads | writes:
            r = key in reads
            w = key in writes
            for i, ri, wi in touched.get(key, ()):
                if (r and wi) or (w and ri) or (w and wi):
                    deps[j].add(i)
            touched.setdefault(key, []).append((j, r, w))
    return deps


class DAGExecutor(Executor):
    """Topological parallel execution over the conflict DAG."""

    name = "dag"

    def __init__(self, gas_time_scale: float = 1.0, granularity: str = "variable") -> None:
        super().__init__(gas_time_scale)
        self.granularity = granularity
        if granularity != "variable":
            self.name = f"dag-{granularity}"

    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
        csags: Optional[List[CSAG]] = None,
    ) -> BlockExecution:
        """Execute ``txs`` respecting the conflict DAG; see Executor."""
        wall_start = perf_counter()
        if csags is None:
            builder = CSAGBuilder(code_resolver, block=block)
            csags = [builder.build(tx, snapshot) for tx in txs]
        deps = build_conflict_dag(csags, self.granularity)
        pool = self._substrate_pool(threads)
        if pool is not None:
            from ..substrate.coordinator import run_fork_join_real
            keys = [c.read_keys | c.static_read_keys for c in csags]
            return run_fork_join_real(self, pool, txs, snapshot, code_resolver,
                                      block, deps, keys, threads=threads)
        return run_fork_join(self, txs, snapshot, code_resolver, threads,
                             block, deps, wall_start)


class CommittedVersions:
    """Committed writes per key, read back at a reader's block position.

    Shared by the fork-join drivers (DAG and schedule replay, on every
    substrate) and the substrate OCC rounds: a reader at index ``i`` sees
    the latest committed writer below ``i``, else the snapshot.
    """

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot
        self._writes: Dict[StateKey, Dict[int, int]] = {}

    def publish(self, index: int, writes: Dict[StateKey, int]) -> None:
        for key, value in writes.items():
            self._writes.setdefault(key, {})[index] = value

    def retract(self, index: int, keys) -> None:
        for key in keys:
            self._writes.get(key, {}).pop(index, None)

    def resolve(self, key: StateKey, index: int) -> Tuple[int, int]:
        """(value, writer) of the latest committed writer below ``index``;
        writer -1 means the snapshot."""
        best, value = -1, 0
        for writer, v in self._writes.get(key, {}).items():
            if best < writer < index:
                best, value = writer, v
        if best < 0:
            return self.snapshot.get(key), -1
        return value, best

    def final_writes(self) -> Dict[StateKey, int]:
        return {key: versions[max(versions)]
                for key, versions in self._writes.items() if versions}


class ForkJoinRun:
    """Fork-join protocol state of one block, shared by both drivers.

    A transaction becomes ready once every predecessor in ``deps[i]``
    committed; ready transactions pop in index order (a min-heap), and
    nothing ever aborts.  The sim loop (:func:`run_fork_join`) and the
    substrate loop (``repro.substrate.coordinator.run_fork_join_real``)
    only decide how a ready transaction runs; they report each result
    through :meth:`commit` and :meth:`release_dependents`.
    """

    def __init__(self, executor, txs, snapshot: Snapshot,
                 deps: List[Set[int]]) -> None:
        self.ex = executor
        self.obs = executor.obs
        self.recorder = executor.recorder
        self.versions = CommittedVersions(snapshot)
        self.dependents: List[List[int]] = [[] for _ in txs]
        self.remaining = [len(d) for d in deps]
        for j, dset in enumerate(deps):
            for i in dset:
                self.dependents[i].append(j)
        self.ready: List[int] = []
        self.receipts: List[Optional[Receipt]] = [None] * len(txs)
        self.per_tx = [TxMetrics(index=i) for i in range(len(txs))]
        for index in range(len(txs)):
            if self.remaining[index] == 0:
                if self.obs is not None:
                    self.obs.tx_ready(0.0, index)
                heapq.heappush(self.ready, index)
            elif self.obs is not None:
                self.obs.lock_wait_begin(0.0, index,
                                         holders=tuple(sorted(deps[index])))

    def commit(self, index: int, result: TxResult,
               writes: Dict[StateKey, int], now: float) -> None:
        if result.success:
            self.versions.publish(index, writes)
            if self.recorder is not None:
                for key, value in writes.items():
                    self.recorder.publish(index, key, "abs", value)
        if self.recorder is not None:
            self.recorder.complete(index, success=result.success,
                                   gas_used=result.gas_used)
        self.receipts[index] = Receipt(index=index, result=result)
        per = self.per_tx[index]
        per.end_time = now
        per.gas_used = result.gas_used
        per.succeeded = result.success
        if self.obs is not None:
            self.obs.tx_end(now, index, success=result.success,
                            gas_used=result.gas_used)

    def release_dependents(self, index: int, now: float) -> None:
        for dep in self.dependents[index]:
            self.remaining[dep] -= 1
            if self.remaining[dep] == 0:
                if self.obs is not None:
                    self.obs.lock_wait_end(now, dep)
                    self.obs.tx_ready(now, dep)
                heapq.heappush(self.ready, dep)

    def block_execution(self, threads: int) -> BlockExecution:
        missing = [i for i, r in enumerate(self.receipts) if r is None]
        if missing:
            raise SchedulingError(
                f"{self.ex.name} deadlocked; unfinished: {missing}")
        metrics = self.ex._base_metrics(threads, self.receipts)
        metrics.per_tx = self.per_tx
        return BlockExecution(writes=self.versions.final_writes(),
                              receipts=list(self.receipts), metrics=metrics)


def run_fork_join(executor, txs, snapshot, code_resolver, threads, block,
                  deps, wall_start: Optional[float] = None) -> BlockExecution:
    """The fork-join loop on the simulator: each ready transaction runs to
    completion at dispatch and commits ``gas_used`` later on the gas
    clock.  ``wall_start`` backdates ``wall_time`` to include the caller's
    analysis."""
    if wall_start is None:
        wall_start = perf_counter()
    obs = executor.obs
    loop = EventLoop()
    pool = ThreadPool(threads, obs=obs)
    if obs is not None:
        obs.block_start(0.0, scheduler=executor.name, threads=threads,
                        tx_count=len(txs))
    run = ForkJoinRun(executor, txs, snapshot, deps)

    def dispatch() -> None:
        while run.ready and pool.idle_count:
            index = heapq.heappop(run.ready)
            thread = pool.try_occupy(loop.now, label=f"T{index}")
            start = loop.now
            if obs is not None:
                obs.tx_start(start, index, thread=thread)
            result, writes = _run_to_completion(
                txs[index], run.versions, code_resolver, block,
                recorder=executor.recorder, index=index,
            )
            run.per_tx[index].start_time = start

            def complete(index=index, thread=thread, result=result,
                         writes=writes) -> None:
                run.commit(index, result, writes, loop.now)
                pool.release(thread, loop.now)
                run.release_dependents(index, loop.now)
                dispatch()

            loop.schedule(start + result.gas_used * executor.gas_time_scale,
                          complete)

    loop.schedule_now(dispatch)
    makespan = loop.run()
    if obs is not None:
        obs.block_end(makespan, makespan=makespan)
    execution = run.block_execution(threads)
    execution.metrics.makespan = makespan
    execution.metrics.utilisation = pool.utilisation(makespan)
    execution.metrics.wall_time = perf_counter() - wall_start
    return execution


def _run_to_completion(
    tx, versions: CommittedVersions, code_resolver, block, recorder=None,
    index: int = 0,
) -> Tuple[TxResult, Dict[StateKey, int]]:
    """Drive one transaction program against the versions committed below
    ``index``; foreign reads are logged to ``recorder`` with the writer
    version they observed.
    """
    last_version: Dict[StateKey, int] = {}

    def reader(key: StateKey) -> int:
        value, writer = versions.resolve(key, index)
        last_version[key] = writer
        return value

    journal = WriteJournal(reader)
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
            own = journal.written(event.key)
            to_send = journal.read(event.key)
            if recorder is not None and not own:
                recorder.read(index, event.key,
                              last_version.get(event.key, -1), to_send)
        elif isinstance(event, StorageWrite):
            journal.write(event.key, event.value)
            if recorder is not None:
                recorder.write(index, event.key, value=event.value)
        elif isinstance(event, StorageIncrement):
            own = journal.written(event.key)
            base = journal.read(event.key)
            if recorder is not None and not own:
                recorder.read(index, event.key,
                              last_version.get(event.key, -1), base, blind=True)
            journal.write(event.key, base + event.delta)
            if recorder is not None:
                recorder.write(index, event.key, delta=event.delta)
        elif isinstance(event, FrameCheckpoint):
            to_send = journal.checkpoint()
        elif isinstance(event, FrameCommit):
            journal.commit_checkpoint(event.token)
        elif isinstance(event, FrameRevert):
            journal.revert_to(event.token)
    return result, (journal.write_set if result.success else {})
