"""Real-parallelism coordinators: the executors' protocols over worker pools.

The discrete-event executors interleave scheduling and execution on one
simulated clock; a real backend cannot — a worker process runs a
transaction *to completion* against a shipped read view and only then
reports back.  The coordinators here are drivers for the executors' own
protocol state machines, fed with whole-attempt outcomes, so the committed
results are byte-identical to the sim backend: every scheduler guarantees
deterministic serializability, and serializable outcomes are unique given
the block order.

* **DMVCC** — :class:`_DMVCCRealRun` subclasses the executor's protocol
  core (:class:`repro.executors.dmvcc._ProtocolCore`): seeding, lock
  grants, version writes, wake/abort cascades, skip-marking, retraction,
  revalidation and rescue are the simulator's own code.  The driver builds
  each attempt's view from the live access sequences, dispatches it, and
  **validates the returned read log at commit**; a stale attempt aborts
  through the core, a valid one commits through it.  A running attempt is
  stopped by bumping its ticket.  Early-write visibility is a non-feature
  here: workers cannot publish mid-flight, so writes land at completion
  (results are unaffected; only overlap shape differs).
* **OCC** — deterministic execute/validate rounds: every transaction in
  the round executes against the versions committed in *previous* rounds
  (writers below its index), publishes at the round barrier, and
  re-executes while stale.  Arrival order cannot influence results.
* **DAG and schedule replay** — one fork-join loop
  (:func:`run_fork_join_real`) over the executors' shared
  :class:`~repro.executors.dag.ForkJoinRun`: a transaction dispatches when
  its predecessors committed, so its dispatch-time view already holds
  every value its reads can legally observe.
* **serial** — inherently in-process; the executor's own path runs and is
  merely stamped with the backend name.

Reads the analysis missed surface as ``need`` outcomes (the view did not
cover them); the coordinator augments the per-transaction key set and
re-dispatches — counted as ``view_misses``, not aborts.  Worker crashes
surface as ``WorkerCrashed`` obs events; their in-flight tasks are
re-submitted unchanged and counted only in ``worker_crashes`` — a dead
worker is not a conflict.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..analysis.csag import AccessType
from ..core.errors import SchedulingError
from ..core.types import Address, StateKey
from ..executors.base import BlockExecution, Receipt
from ..executors.dag import CommittedVersions, ForkJoinRun
from ..executors.dmvcc import _ProtocolCore, _ReadRecord, _Status, _TxState
from ..evm.environment import BlockContext
from ..sim.metrics import TxMetrics
from .pools import WorkerPool
from .tasks import READ_BLIND, READ_REGISTERED, TxOutcome, TxTask


class _Dispatcher:
    """Ticketing, code shipping, crash recovery and view-miss learning over
    one pool."""

    def __init__(self, pool: WorkerPool, code_resolver) -> None:
        self.pool = pool
        self.resolve_code = code_resolver
        self.tickets: List[int] = []
        self.extra_keys: List[Set[StateKey]] = []
        self.sent_codes: List[Set[Address]] = [set() for _ in range(pool.size)]
        # Learned per-entry-contract callee set: once one transaction to a
        # contract discovers a foreign callee, every later task pre-ships it.
        self.callees: Dict[Address, Set[Address]] = {}
        self.view_misses = 0
        self.worker_crashes = 0

    def size_for(self, count: int) -> None:
        self.tickets = [0] * count
        self.extra_keys = [set() for _ in range(count)]

    def worker_for(self, index: int) -> int:
        return index % self.pool.size

    def _codes_for(self, worker: int, to: Address) -> Dict[Address, bytes]:
        needed = {to} | self.callees.get(to, set())
        fresh = needed - self.sent_codes[worker]
        if not fresh:
            return {}
        self.sent_codes[worker] |= fresh
        return {a: (self.resolve_code(a) or b"") for a in fresh}

    def dispatch(self, tx, index: int, attempt: int,
                 view: Dict[StateKey, int], block,
                 commutative: bool = False,
                 blind_pcs: frozenset = frozenset(),
                 increment_sites: Optional[Dict[int, int]] = None) -> None:
        self._submit(TxTask(
            index=index, attempt=attempt, ticket=0, tx=tx, view=view,
            block=block, commutative=commutative, blind_pcs=blind_pcs,
            increment_sites=increment_sites or {},
        ))

    def _submit(self, task: TxTask) -> None:
        """Send ``task`` under a fresh ticket, with whatever code its
        worker has not cached yet."""
        self.tickets[task.index] += 1
        worker = self.worker_for(task.index)
        self.pool.submit(worker, replace(
            task, ticket=self.tickets[task.index],
            codes=self._codes_for(worker, task.tx.to)))

    def invalidate(self, index: int) -> None:
        """Make any in-flight outcome for ``index`` stale."""
        self.tickets[index] += 1

    def is_stale(self, item) -> bool:
        """Whether a task or outcome has been superseded."""
        return item.ticket != self.tickets[item.index]

    def learn(self, outcome: TxOutcome, to: Address) -> None:
        """Absorb a ``need`` outcome: missing keys widen the view, missing
        codes widen the contract's callee shipping set."""
        for key in outcome.missing_keys:
            self.extra_keys[outcome.index].add(key)
            self.view_misses += 1
        for address in outcome.missing_codes:
            self.callees.setdefault(to, set()).add(address)

    def outcomes(self, obs, clock) -> Iterator[TxOutcome]:
        """One batch of pool events.  Worker errors raise; a crashed
        worker's live tasks are re-submitted unchanged (the respawned
        worker starts with an empty code cache); fresh outcomes are
        yielded, checked for staleness only when reached, so an abort
        while handling one outcome voids the later ones of the batch."""
        for event in self.pool.collect():
            if event.kind == "error":
                raise SchedulingError(
                    f"substrate worker {event.worker} failed: {event.message}")
            if event.kind == "crash":
                self.worker_crashes += 1
                self.sent_codes[event.worker] = set()
                if obs is not None:
                    obs.worker_crashed(clock(), worker=event.worker,
                                       lost=len(event.lost))
                for task in event.lost:
                    if not self.is_stale(task):
                        self._submit(task)
            elif not self.is_stale(event.outcome):
                yield event.outcome


def _stamp(metrics, pool: WorkerPool, dispatcher: _Dispatcher,
           wall: float) -> None:
    metrics.backend = pool.kind
    metrics.workers = pool.size
    metrics.wall_time = wall
    metrics.view_misses = dispatcher.view_misses
    metrics.worker_crashes = dispatcher.worker_crashes


def _balance_keys(tx) -> Set[StateKey]:
    if tx.value > 0:
        return {StateKey.balance(tx.sender), StateKey.balance(tx.to)}
    return set()


# ---------------------------------------------------------------------------
# DMVCC
# ---------------------------------------------------------------------------


class _DMVCCRealRun(_ProtocolCore):
    """One DMVCC block over a real worker pool: the executor's protocol
    core, fed whole-attempt outcomes."""

    def __init__(self, executor, pool, txs, snapshot, code_resolver,
                 block, csags, threads: int = 0) -> None:
        super().__init__(executor, txs, snapshot, code_resolver, block, csags)
        self.pool = pool
        # Logical concurrency: the caller's ``threads`` bounds how many
        # transactions may be in flight at once, independent of the pool's
        # physical worker count (a pinned pool may be larger or smaller).
        self.lanes = max(1, threads) if threads else pool.size
        self.dispatcher = _Dispatcher(pool, code_resolver)
        self.dispatcher.size_for(len(txs))
        self._t0 = perf_counter()

    def _now(self) -> float:
        return perf_counter() - self._t0

    def _stop_attempt(self, state: _TxState) -> None:
        # The in-flight attempt cannot be recalled; outdate it.
        self.dispatcher.invalidate(state.index)

    def execute(self) -> BlockExecution:
        if self.obs is not None:
            self.obs.block_start(0.0, scheduler=self.ex.name,
                                 threads=self.lanes,
                                 tx_count=len(self.txs))
        self._setup()
        while not all(s.status is _Status.DONE for s in self.states):
            dispatched = self._dispatch_ready()
            if self.pool.inflight_count == 0 and not dispatched:
                # Nothing running, nothing ready: recover lost wake-ups
                # exactly like the simulator's rescue pass.
                self._rescue()
                continue
            for outcome in self.dispatcher.outcomes(self.obs, self._now):
                self._on_outcome(outcome)

        wall = self._now()
        if self.obs is not None:
            self.obs.block_end(wall, makespan=0.0)
        execution = self._block_execution(self.lanes)
        _stamp(execution.metrics, self.pool, self.dispatcher, wall)
        return execution

    # -- dispatch ---------------------------------------------------------

    def _view_keys(self, state: _TxState) -> Set[StateKey]:
        keys = set(state.needed_keys)
        for key, access_type in state.csag.per_key.items():
            if self._declared(access_type) is AccessType.COMMUTATIVE:
                keys.add(key)
        keys |= state.csag.static_read_keys
        keys |= _balance_keys(state.tx)
        keys |= self.dispatcher.extra_keys[state.index]
        return keys

    def _build_view(self, state: _TxState) -> Dict[StateKey, int]:
        view: Dict[StateKey, int] = {}
        for key in self._view_keys(state):
            seq = self.sequences.get(key)
            if seq is None:
                view[key] = self.snapshot.get(key)
                continue
            resolution = seq.resolve_read(state.index)
            if not resolution.ready:
                resolution = seq.best_available_read(state.index)
            view[key] = resolution.resolve_with_snapshot(self.snapshot.get(key))
        return view

    def _dispatch_ready(self) -> bool:
        dispatched = False
        running = sum(1 for s in self.states if s.status is _Status.RUNNING)
        while running < self.lanes:
            index = self.queue.pop()
            if index is None:
                return dispatched
            state = self.states[index]
            state.status = _Status.RUNNING
            state.attempts += 1
            if state.attempts == 1:
                self.per_tx[index].start_time = self._now()
            if self.obs is not None:
                now = self._now()
                if state.attempts > 1:
                    self.obs.tx_reexecute(now, index, attempt=state.attempts)
                self.obs.tx_start(now, index, attempt=state.attempts,
                                  thread=self.dispatcher.worker_for(index))
            self._send(state)
            dispatched = True
            running += 1
        return dispatched

    def _send(self, state: _TxState) -> None:
        blind_pcs, increments = frozenset(), {}
        if self.ex.enable_commutative:
            blind_pcs, increments, _release = self._contract_info(state.tx.to)
        self.dispatcher.dispatch(
            state.tx, state.index, state.attempts,
            self._build_view(state), self.block,
            commutative=self.ex.enable_commutative,
            blind_pcs=blind_pcs, increment_sites=increments,
        )

    # -- outcomes ---------------------------------------------------------

    def _on_outcome(self, outcome: TxOutcome) -> None:
        state = self.states[outcome.index]
        if not outcome.ok:
            self.dispatcher.learn(outcome, state.tx.to)
            self._send(state)  # same attempt, widened view
            return
        validated = self._validate(state, outcome)
        if isinstance(validated, StateKey):
            # The attempt saw a view that went stale in flight.
            self._abort(state.index, validated)
            return
        self._record_reads(state, outcome, validated)
        state.w_abs = dict(outcome.writes_abs)
        state.w_delta = dict(outcome.writes_delta)
        self._finish(state, outcome.result, outcome.result.steps)

    def _validate(self, state: _TxState, outcome: TxOutcome):
        """Check every versioned read against the live sequences; returns
        the per-record (version, speculative) list, or the offending key on
        mismatch."""
        resolved: List[Optional[Tuple[int, bool]]] = []
        for key, base, kind in outcome.reads:
            if kind == READ_BLIND:
                resolved.append(None)
                continue
            seq = self.sequences.sequence(key)
            resolution = seq.resolve_read(state.index)
            speculative = False
            if not resolution.ready:
                resolution = seq.best_available_read(state.index)
                speculative = True
            if resolution.resolve_with_snapshot(self.snapshot.get(key)) != base:
                return key
            resolved.append((resolution.version_from, speculative))
        return resolved

    def _record_reads(self, state: _TxState, outcome: TxOutcome,
                      validated) -> None:
        """Register the validated reads at their versions; the read log is
        what a later revalidation replays."""
        for (key, base, _kind), info in zip(outcome.reads, validated):
            if info is None:
                record = _ReadRecord(key=key, base=base, version_from=-1,
                                     registered=False, blind=True)
            else:
                version, speculative = info
                self.sequences.sequence(key).record_read(state.index, version)
                state.registered_reads[key] = base
                record = _ReadRecord(key=key, base=base, version_from=version,
                                     registered=True, speculative=speculative)
            state.read_log.append(record)
            if self.recorder is not None:
                self.recorder.read(state.index, key, record.version_from, base,
                                   attempt=state.attempts,
                                   speculative=record.speculative,
                                   blind=record.blind)


def run_dmvcc_real(executor, pool, txs, snapshot, code_resolver,
                   block=None, csags=None, threads: int = 0) -> BlockExecution:
    run = _DMVCCRealRun(executor, pool, txs, snapshot, code_resolver,
                        block, csags, threads=threads)
    return run.execute()


# ---------------------------------------------------------------------------
# OCC: deterministic execute/validate rounds
# ---------------------------------------------------------------------------


def run_occ_real(executor, pool, txs, snapshot, code_resolver,
                 block=None, threads: int = 0) -> BlockExecution:
    """Round-based OCC over real workers.

    Each round executes its stale transactions in *waves* of at most
    ``threads`` — the caller's logical concurrency, not the pool's
    physical worker count.  A wave executes against the versions
    committed so far (restricted to writers below each reader's index),
    publishes at the wave barrier, and the round ends with a block-order
    validation sweep that marks stale readers for the next round.  The
    wave structure — unlike the simulator's thread-timing visibility —
    is independent of worker arrival order, so process-backend OCC runs
    are deterministic; at ``threads=1`` it degenerates to serial
    execution in block order, which never aborts.
    """
    t0 = perf_counter()
    now = lambda: perf_counter() - t0  # noqa: E731
    lanes = max(1, threads) if threads else pool.size
    block = block if block is not None else BlockContext()
    count = len(txs)
    recorder = executor.recorder
    obs = executor.obs
    dispatcher = _Dispatcher(pool, code_resolver)
    dispatcher.size_for(count)
    # Versions committed at wave barriers.
    store = CommittedVersions(snapshot)

    known: List[Set[StateKey]] = [
        _balance_keys(tx) | dispatcher.extra_keys[i]
        for i, tx in enumerate(txs)
    ]
    # Seed first-dispatch views from the static P-SAG key resolution
    # (cheap: symbolic evaluation, no pre-execution).  OCC carries no
    # C-SAGs by design, but shipping the *predicted* key set up front
    # collapses the view-miss → re-dispatch discovery loop that otherwise
    # costs one worker round-trip per missing key cluster.
    seeded = 0
    if getattr(executor, "seed_views", False):
        from ..analysis.csag import _static_key_sets
        psag_cache = executor.psag_cache
        for i, tx in enumerate(txs):
            code = code_resolver(tx.to)
            if not code:
                continue
            reads, writes = _static_key_sets(
                tx, snapshot, psag_cache.get(code), block)
            fresh = (reads | writes) - known[i]
            seeded += len(fresh)
            known[i] |= fresh
    results: List[Optional[object]] = [None] * count
    observed: List[Dict[StateKey, Tuple[int, int]]] = [{} for _ in range(count)]
    write_sets: List[Dict[StateKey, int]] = [{} for _ in range(count)]
    outcome_reads: List[Tuple] = [()] * count
    attempts = [0] * count
    per_tx = [TxMetrics(index=i) for i in range(count)]
    needs = list(range(count))
    rounds = 0

    if obs is not None:
        obs.block_start(0.0, scheduler=executor.name, threads=lanes,
                        tx_count=count)
        for index in range(count):
            obs.tx_ready(0.0, index)

    def dispatch(index: int) -> None:
        view = {}
        meta = {}
        for key in known[index] | dispatcher.extra_keys[index]:
            value, writer = store.resolve(key, index)
            view[key] = value
            meta[key] = (value, writer)
        observed[index] = meta
        dispatcher.dispatch(txs[index], index, attempts[index], view, block)

    while needs:
        rounds += 1
        if rounds > executor.max_rounds:
            raise SchedulingError(
                f"{executor.name} failed to converge in {executor.max_rounds} "
                f"rounds; unfinished: {sorted(needs)}")
        # Retract every redo version before anything in this round
        # dispatches, so no stale value leaks into a wave's view.
        for index in needs:
            if recorder is not None:
                for key in write_sets[index]:
                    recorder.retract(index, key)
            store.retract(index, write_sets[index])
            write_sets[index] = {}

        for start in range(0, len(needs), lanes):
            wave = needs[start:start + lanes]
            for index in wave:
                attempts[index] += 1
                if obs is not None and attempts[index] > 1:
                    obs.tx_reexecute(now(), index,
                                     attempt=attempts[index])
                if obs is not None:
                    obs.tx_start(now(), index,
                                 attempt=attempts[index],
                                 thread=dispatcher.worker_for(index))
                dispatch(index)

            pending = set(wave)
            while pending:
                for outcome in dispatcher.outcomes(obs, now):
                    index = outcome.index
                    if not outcome.ok:
                        dispatcher.learn(outcome, txs[index].to)
                        known[index] |= set(outcome.missing_keys)
                        known[index] |= {k for k, _b, _k in outcome.reads}
                        dispatch(index)
                        continue
                    results[index] = outcome.result
                    outcome_reads[index] = outcome.reads
                    writes = dict(outcome.writes_abs)
                    writes.update(
                        (k, (store.resolve(k, index)[0] + d) % (1 << 256))
                        for k, d in outcome.writes_delta
                    )  # commutative=False ⇒ normally empty
                    write_sets[index] = writes
                    known[index] |= {k for k, _b, _kind in outcome.reads}
                    pending.discard(index)

            # Wave barrier: publish and trace this wave's attempts; later
            # waves (and rounds) observe them at dispatch time.
            for index in wave:
                result = results[index]
                if recorder is not None:
                    for key, base, kind in outcome_reads[index]:
                        _value, writer = observed[index].get(key, (base, -1))
                        recorder.read(index, key, writer, base,
                                      attempt=attempts[index],
                                      blind=kind != 0)
                    for key, value in write_sets[index].items():
                        recorder.write(index, key, value=value,
                                       attempt=attempts[index])
                store.publish(index, write_sets[index])
                if recorder is not None:
                    for key, value in write_sets[index].items():
                        recorder.publish(index, key, "abs", value)
                    recorder.complete(index, attempt=attempts[index],
                                      success=result.success,
                                      gas_used=result.gas_used)
                if obs is not None:
                    obs.tx_end(now(), index,
                               attempt=attempts[index],
                               success=result.success,
                               gas_used=result.gas_used)

        needs = []
        for index in range(count):
            for key, base, _kind in outcome_reads[index]:
                current = store.resolve(key, index)
                if current != observed[index].get(key, current):
                    if recorder is not None:
                        recorder.abort(index, attempt=attempts[index])
                    if obs is not None:
                        obs.tx_abort(now(), index,
                                     attempt=attempts[index], key=key,
                                     writer=current[1])
                    per_tx[index].aborted_times += 1
                    needs.append(index)
                    break

    receipts = [
        Receipt(index=i, result=results[i], attempts=attempts[i])
        for i in range(count)
    ]
    for i in range(count):
        per_tx[i].attempts = attempts[i]
        per_tx[i].gas_used = results[i].gas_used
        per_tx[i].succeeded = results[i].success

    wall = now()
    if obs is not None:
        obs.block_end(wall, makespan=0.0)

    metrics = executor._base_metrics(lanes, receipts)
    metrics.per_tx = per_tx
    metrics.seeded_views = seeded
    _stamp(metrics, pool, dispatcher, wall)
    return BlockExecution(writes=store.final_writes(), receipts=receipts,
                          metrics=metrics)


# ---------------------------------------------------------------------------
# Fork-join: DAG and schedule replay
# ---------------------------------------------------------------------------


def run_fork_join_real(executor, pool, txs, snapshot, code_resolver, block,
                       deps, view_keys, threads: int = 0) -> BlockExecution:
    """The fork-join loop over real workers (DAG and schedule replay).

    A transaction dispatches once every predecessor in ``deps`` committed,
    shipping ``view_keys[i]`` resolved against the committed versions: the
    C-SAG's predicted reads for DAG, the schedule's realized key sets for
    replay (a faithful replay then has zero view misses).  Its view thus
    equals what read-time resolution gives the simulator, when the keys are
    complete (the DAG baseline's stated precondition; a miss only costs a
    re-dispatch).  At most ``threads`` transactions are in flight at once —
    the caller's logical concurrency, matching the simulator's thread pool
    rather than the physical worker count."""
    t0 = perf_counter()
    now = lambda: perf_counter() - t0  # noqa: E731
    lanes = max(1, threads) if threads else pool.size
    block = block if block is not None else BlockContext()
    obs = executor.obs
    recorder = executor.recorder
    dispatcher = _Dispatcher(pool, code_resolver)
    dispatcher.size_for(len(txs))
    if obs is not None:
        obs.block_start(0.0, scheduler=executor.name, threads=lanes,
                        tx_count=len(txs))
    run = ForkJoinRun(executor, txs, snapshot, deps)
    # (value, writer) of every key each transaction's view shipped.
    shipped: List[Dict[StateKey, Tuple[int, int]]] = [{} for _ in txs]

    def dispatch(index: int) -> None:
        keys = (view_keys[index] | _balance_keys(txs[index])
                | dispatcher.extra_keys[index])
        shipped[index] = {key: run.versions.resolve(key, index) for key in keys}
        view = {key: value for key, (value, _w) in shipped[index].items()}
        dispatcher.dispatch(txs[index], index, 1, view, block)

    outstanding = 0

    def pump() -> None:
        nonlocal outstanding
        while run.ready and outstanding < lanes:
            index = heapq.heappop(run.ready)
            if obs is not None:
                obs.tx_start(now(), index, thread=dispatcher.worker_for(index))
            dispatch(index)
            outstanding += 1

    pump()
    while outstanding:
        for outcome in dispatcher.outcomes(obs, now):
            index = outcome.index
            if not outcome.ok:
                dispatcher.learn(outcome, txs[index].to)
                dispatch(index)
                continue
            if recorder is not None:
                for key, base, kind in outcome.reads:
                    writer = shipped[index].get(key, (base, -1))[1]
                    recorder.read(index, key, writer, base,
                                  blind=kind != READ_REGISTERED)
                for key, value in outcome.writes_abs:
                    recorder.write(index, key, value=value)
            run.commit(index, outcome.result, dict(outcome.writes_abs), now())
            run.release_dependents(index, now())
            outstanding -= 1
            pump()

    wall = now()
    if obs is not None:
        obs.block_end(wall, makespan=0.0)
    execution = run.block_execution(lanes)
    _stamp(execution.metrics, pool, dispatcher, wall)
    return execution
