"""The DMVCC executor: deterministic multi-version concurrency control.

Implements the paper's Algorithms 1–4 over the discrete-event simulator:

* **schedule generation** (Alg. 1) — access sequences are seeded from the
  C-SAGs; a transaction joins ``Q_ready`` once every state item it reads is
  resolvable; ready transactions bind to simulated threads FIFO;
* **early-write visibility** (Alg. 2) — when execution crosses a release
  point with enough remaining gas, buffered writes whose keys have no
  further predicted writes are published into the access sequences, waking
  (or aborting) dependants *mid-transaction*;
* **write versioning** (Alg. 3) — every write is its own version; writes
  the analysis missed are inserted on the fly, aborting any reader that
  already consumed an older version;
* **abort** (Alg. 4) — aborted transactions release locks, retract their
  published versions (cascading), and re-enter the scheduler.

Feature flags ``enable_early_write`` and ``enable_commutative`` support the
paper's design-choice ablations; with both off, DMVCC degenerates to pure
write-versioned scheduling.

The protocol's substrate-independent transitions live once, in
:class:`_ProtocolCore`; :class:`_BlockRun` drives them on the simulator,
and ``repro.substrate.coordinator`` drives them on real worker pools.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.csag import AccessType, CSAG, CSAGBuilder, CSAGCache
from ..analysis.sag import PSAGCache
from ..core.errors import SchedulingError
from ..core.types import Address, StateKey
from ..core.words import WORD_MOD
from ..evm.environment import BlockContext
from ..evm.events import (
    EmittedLog,
    FrameCheckpoint,
    FrameCommit,
    FrameRevert,
    StorageRead,
    StorageWrite,
    Watchpoint,
)
from ..scheduling.access_sequence import AccessSequenceSet
from ..scheduling.locks import LockTable, ReadyQueue
from ..sim.clock import EventLoop
from ..sim.metrics import TxMetrics
from ..sim.threadpool import ThreadPool
from ..state.merge import MergeOp
from ..state.statedb import Snapshot
from .base import BlockExecution, Executor, Receipt
from .txprogram import (
    ExecutionMeter,
    StorageIncrement,
    TxResult,
    resume_transaction_program,
    transaction_program,
)


class _Status(Enum):
    WAITING = "waiting"
    READY = "ready"
    RUNNING = "running"
    DONE = "done"


@dataclass
class _ReadRecord:
    """One resolved read of the current attempt, in program order.

    The log is what makes aborts cheap: revalidation re-resolves every
    record against the live access sequences, and resume finds the first
    record whose resolution changed.  ``base`` is the value the resolution
    produced (before any own-delta fold), which is exactly what a
    re-resolution must reproduce for the read to still be valid.

    Blind increment reads are logged for completeness but are always valid:
    the static increment-site analysis guarantees their value feeds only the
    paired ``+=`` (the driver stores the delta, not the absolute), so no
    later version change can invalidate them.

    Merge-declared reads (``merge_spec`` set) sit in between: the value
    feeds only the declared bounds guard plus the declared operation, so a
    base drift is tolerable as long as the guard's *verdict* is unchanged.
    ``merge_operand`` is the operand of the operation the read fed (filled
    when the paired write arrives; None means the guard failed or never
    ran, degrading the record to strict value equality), and ``merge_own``
    is the transaction's own pending delta at read time, needed to rebuild
    the observed value from a re-resolved base.
    """

    key: StateKey
    base: int
    version_from: int
    registered: bool
    blind: bool = False
    from_own_delta: bool = False
    consumed_as_delta: bool = False
    speculative: bool = False
    merge_spec: Optional[object] = None
    merge_operand: Optional[int] = None
    merge_own: int = 0
    # Read-log length when the operand was attached: operands attached by
    # writes past a resume checkpoint are cleared on resume (the write
    # re-executes and re-derives its delta).
    merge_attached_at: int = 0
    # An abort was skipped while this record had no operand yet (the
    # transaction was still running): the paired write and the completion
    # hook must re-validate it against the live view.
    merge_recheck: bool = False


@dataclass
class _AttemptCheckpoint:
    """Driver-side image of one VM checkpoint.

    ``read_index`` counts the read-log records already applied; resuming
    from here replays nothing before record ``read_index`` and re-answers
    that read first.  The dict copies freeze the attempt's buffered-write /
    read bookkeeping at the same boundary.  ``gas_offset`` is the
    transaction-cumulative gas at the suspended read, used to backdate the
    resumed attempt's start time so simulated completion lands exactly
    where a restart-free execution would.
    """

    read_index: int
    vm: object  # repro.evm.vm.VMCheckpoint
    gas_offset: int
    w_abs: Dict[StateKey, int]
    w_delta: Dict[StateKey, int]
    pending_blind: Dict[StateKey, Tuple[int, int, int]]
    registered_reads: Dict[StateKey, int]
    frame_stack: List[Tuple[Dict, Dict, Dict]]
    published: Dict[StateKey, Tuple[str, int]]
    release_mode: bool
    speculative_reads: int


@dataclass
class _ResumePlan:
    """A pending resume decision: the checkpoint to restart from and the
    re-validated versions of the kept read prefix."""

    checkpoint: _AttemptCheckpoint
    first_invalid: int
    prefix_versions: List[int] = field(default_factory=list)


@dataclass
class _TxState:
    """Mutable per-transaction execution state."""

    index: int
    tx: object
    csag: CSAG
    needed_keys: Set[StateKey]
    status: _Status = _Status.WAITING
    attempts: int = 0
    result: Optional[TxResult] = None
    # Running-attempt state:
    generator: Optional[object] = None
    thread: Optional[int] = None
    start_time: float = 0.0
    pending_entry: Optional[object] = None
    w_abs: Dict[StateKey, int] = field(default_factory=dict)
    w_delta: Dict[StateKey, int] = field(default_factory=dict)
    pending_blind: Dict[StateKey, Tuple[int, int, int]] = field(default_factory=dict)
    registered_reads: Dict[StateKey, int] = field(default_factory=dict)
    published: Dict[StateKey, Tuple[str, int]] = field(default_factory=dict)
    frame_stack: List[Tuple[Dict, Dict, Dict]] = field(default_factory=list)
    speculative_reads: int = 0
    release_mode: bool = False  # past a release point with enough gas
    # Incremental re-execution state:
    read_log: List[_ReadRecord] = field(default_factory=list)
    checkpoints: List[_AttemptCheckpoint] = field(default_factory=list)
    checkpoint_stride: int = 1
    meter: Optional[ExecutionMeter] = None
    resume_from: Optional[_ResumePlan] = None
    aborting: bool = False        # guards re-entrant abort cascades
    abort_reentered: bool = False
    # Set by the merge attach-time recheck when a deferred guard's verdict
    # flipped: _process aborts the transaction once the generator suspends.
    merge_self_abort: Optional[StateKey] = None

    def reset_attempt(self) -> None:
        self.release_mode = False
        self.generator = None
        self.thread = None
        self.pending_entry = None
        self.w_abs = {}
        self.w_delta = {}
        self.pending_blind = {}
        self.registered_reads = {}
        self.published = {}
        self.frame_stack = []
        self.read_log = []
        self.checkpoints = []
        self.checkpoint_stride = 1
        self.meter = None
        self.resume_from = None
        self.merge_self_abort = None


class DMVCCExecutor(Executor):
    """Deterministic multi-version concurrency control."""

    name = "dmvcc"

    def __init__(
        self,
        gas_time_scale: float = 1.0,
        enable_early_write: bool = True,
        enable_commutative: bool = True,
        psag_cache: Optional[PSAGCache] = None,
        enable_checkpoint_resume: bool = True,
        enable_revalidation: bool = True,
        checkpoint_limit: int = 8,
        csag_cache: Optional[CSAGCache] = None,
    ) -> None:
        super().__init__(gas_time_scale)
        self.enable_early_write = enable_early_write
        self.enable_commutative = enable_commutative
        self.enable_checkpoint_resume = enable_checkpoint_resume
        self.enable_revalidation = enable_revalidation
        self.checkpoint_limit = max(checkpoint_limit, 1)
        self._psag_cache = psag_cache if psag_cache is not None else PSAGCache()
        self._csag_cache = csag_cache if csag_cache is not None else CSAGCache()
        if not enable_early_write and not enable_commutative:
            self.name = "dmvcc-wv"  # write-versioning only
        elif not enable_early_write:
            self.name = "dmvcc-noEW"
        elif not enable_commutative:
            self.name = "dmvcc-noCW"

    def release_gas_check(self, csag: CSAG, event, static_bound: Optional[int]) -> bool:
        """Algorithm 2's release guard: may this transaction publish its
        buffered writes now, mid-execution?

        Publishing is only safe when the transaction is certain to reach a
        successful completion — a later out-of-gas would force a retraction
        cascade.  Two sources of certainty, in order of strength:

        * ``static_bound`` — the worst-case gas of any path from this
          release point to termination (``ReleasePoint.gas_bound``); when
          the analysis produced one, it is sound on its own: remaining gas
          at or above it rules out OOG on *every* path.
        * the C-SAG's predicted remaining gas — a heuristic for release
          points whose tail contains loops (unbounded worst case); correct
          whenever pre-execution predicted the path actually taken.

        Either way a transaction whose pre-execution already failed never
        releases: its writes would be retracted at completion regardless.

        Tests may override this (e.g. ``return True``) to inject the
        "skipped gas check" bug the serializability oracle must catch.
        """
        if not csag.predicted_success:
            return False
        if static_bound is not None:
            return event.gas_remaining >= static_bound
        predicted_remaining = max(csag.predicted_gas - event.gas_used, 0)
        return event.gas_remaining >= predicted_remaining

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute_block(
        self,
        txs: List,
        snapshot: Snapshot,
        code_resolver,
        threads: int = 1,
        block: Optional[BlockContext] = None,
        csags: Optional[List[CSAG]] = None,
    ) -> BlockExecution:
        """Execute ``txs`` under the DMVCC protocol; see Executor.

        ``csags`` supplies pre-built analyses (the validator's pool path);
        when omitted they are refined here against ``snapshot``.
        """
        substrate = self._effective_substrate()
        if self.merges and substrate is not None and substrate.kind != "sim":
            # Declared-merge reads and writes are intercepted mid-attempt by
            # the simulator driver; workers run whole attempts without it.
            raise SchedulingError(
                f"{self.name}: declared merges run only on the sim "
                f"substrate, not on {substrate.kind!r}")
        pool = substrate.acquire(threads) if substrate is not None else None
        if pool is not None:
            from ..substrate.coordinator import run_dmvcc_real
            return run_dmvcc_real(self, pool, txs, snapshot, code_resolver,
                                  block, csags, threads=threads)
        run = _BlockRun(self, txs, snapshot, code_resolver, threads, block, csags)
        return run.execute()


class _ProtocolCore:
    """The DMVCC state machine of one block, independent of how attempts run.

    Everything here is a protocol transition over the access sequences,
    the lock table and the ready queue: seeding (Alg. 1), version writes
    and the wake/abort cascade (Alg. 3), completion skip-marking, abort
    with retraction and requeue (Alg. 4), revalidation of a completed
    attempt's read log, and the rescue pass.  Drivers supply the clock
    (``_now``), how a running attempt is stopped (``_stop_attempt``), and
    optionally a dispatch trigger (``_schedule_dispatch``); they feed
    attempt results in through ``_finish``.  The simulator
    (:class:`_BlockRun`) steps transaction generators on a gas clock; the
    substrate coordinator (``repro.substrate.coordinator``) ships whole
    attempts to worker pools.
    """

    def __init__(self, executor, txs, snapshot, code_resolver, block, csags):
        self.ex = executor
        self.txs = txs
        self.snapshot = snapshot
        self.resolve_code = code_resolver
        self.block = block if block is not None else BlockContext()
        self.builder = CSAGBuilder(code_resolver, executor._psag_cache, self.block,
                                   executor._csag_cache)
        if csags is None:
            csags = [self.builder.build(tx, snapshot) for tx in txs]
        self.csags = csags
        self.obs = executor.obs
        self.recorder = executor.recorder
        self.sequences = AccessSequenceSet(obs=self.obs, clock=self._now)
        self.locks = LockTable(obs=self.obs, clock=self._now)
        self.queue = ReadyQueue()
        self.states: List[_TxState] = []
        self.per_tx = [TxMetrics(index=i) for i in range(len(txs))]
        # Every key a transaction has ever published to, across attempts:
        # needed at completion to skip-mark writes that a *re-execution's*
        # different path no longer performs (predictions alone cannot know
        # about on-the-fly inserted entries).
        self.ever_written: List[Set[StateKey]] = [set() for _ in txs]
        self.rescues = 0
        self._rescue_rounds = 0
        # Declared-operation merge registry (None ≡ paper semantics).  The
        # noCW ablation disables it together with blind increments.
        merges = executor.merges if executor.enable_commutative else None
        self.merges = merges if merges else None
        self.merge_tolerated = 0
        # Per-contract static analysis lookups.
        self._blind_pcs: Dict[Address, FrozenSet[int]] = {}
        self._increment_map: Dict[Address, Dict[int, int]] = {}
        self._release_pcs: Dict[Address, FrozenSet[int]] = {}
        self._release_bounds: Dict[Address, Dict[int, Optional[int]]] = {}

    # -- driver hooks -----------------------------------------------------

    def _now(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def _stop_attempt(self, state: _TxState) -> None:  # pragma: no cover
        """Stop ``state``'s running attempt so its result never lands."""
        raise NotImplementedError

    def _schedule_dispatch(self) -> None:
        """A transaction became ready; drivers that dispatch from an event
        loop schedule a dispatch pass here."""

    # ------------------------------------------------------------------
    # Setup: Algorithm 1, pre-execution part
    # ------------------------------------------------------------------

    def _declared(self, access_type: AccessType) -> AccessType:
        if access_type is AccessType.COMMUTATIVE and not self.ex.enable_commutative:
            return AccessType.READ_WRITE
        return access_type

    def _setup(self) -> None:
        for i, (tx, csag) in enumerate(zip(self.txs, self.csags)):
            needed: Set[StateKey] = set()
            per_key = dict(csag.per_key)
            if not csag.predicted_success and not csag.missing:
                # The pre-execution took the failure branch; if earlier
                # transactions flip the branch, the success path's accesses
                # would all be surprises.  Seed them conservatively (θ) from
                # the symbolically-resolved static sets instead.
                for key in csag.static_write_keys:
                    if key not in per_key:
                        per_key[key] = AccessType.READ_WRITE
                for key in csag.static_read_keys:
                    if key not in per_key:
                        per_key[key] = AccessType.READ
            for key, access_type in per_key.items():
                declared = self._declared(access_type)
                self.sequences.sequence(key).insert_predicted(i, declared)
                if declared in (AccessType.READ, AccessType.READ_WRITE):
                    if (self.merges is not None
                            and self.merges.lookup(key) is not None):
                        # Merge-declared keys never gate the start: their
                        # reads are answered from any available fold and
                        # validated by guard outcome, not exact value.
                        continue
                    needed.add(key)
            state = _TxState(index=i, tx=tx, csag=csag, needed_keys=needed)
            self.states.append(state)
            self.locks.register(i, needed)
        # Initial grants: items readable straight from the snapshot.
        for state in self.states:
            if self.locks.refresh(state.index, self.sequences):
                state.status = _Status.READY
                self.queue.push(state.index)
                if self.obs is not None:
                    self.obs.tx_ready(0.0, state.index)
            elif self.obs is not None:
                keys, blockers = self._wait_info(state.index)
                self.obs.version_wait_begin(0.0, state.index,
                                            keys=keys, blockers=blockers)

    def _wait_info(self, index: int):
        """The unresolvable keys (and their unfinished writers) stalling
        ``index`` — the payload of a VersionWaitBegin event."""
        missing = sorted(self.locks.state(index).missing())
        blockers: Set[int] = set()
        for key in missing:
            seq = self.sequences.get(key)
            if seq is not None:
                resolution = seq.resolve_read(index)
                if not resolution.ready:
                    blockers.update(resolution.blockers)
        return tuple(missing), tuple(sorted(blockers))

    def _contract_info(self, address: Address):
        if address not in self._blind_pcs:
            code = self.resolve_code(address)
            if code:
                psag = self.builder.psag_for(code)
                increments = dict(psag.analysis.increment_sites)
                self._increment_map[address] = increments
                self._blind_pcs[address] = frozenset(increments.values())
                self._release_pcs[address] = frozenset(psag.release_pcs())
                self._release_bounds[address] = {
                    rp.pc: rp.gas_bound for rp in psag.release.release_points
                }
            else:
                self._increment_map[address] = {}
                self._blind_pcs[address] = frozenset()
                self._release_pcs[address] = frozenset()
                self._release_bounds[address] = {}
        return (
            self._blind_pcs[address],
            self._increment_map[address],
            self._release_pcs[address],
        )

    # ------------------------------------------------------------------
    # Version writes, wake-ups and completion (Algorithms 1 and 3)
    # ------------------------------------------------------------------

    def _publish(self, state: _TxState, key: StateKey, kind: str, value: int) -> None:
        seq = self.sequences.sequence(key)
        if self.recorder is not None:
            # _finish flips status to DONE before publishing leftovers, so
            # RUNNING here means mid-transaction (release-point) visibility.
            self.recorder.publish(state.index, key, kind, value,
                                  early=state.status is _Status.RUNNING)
        if kind == "abs":
            allowed, aborted = seq.version_write(state.index, value=value)
        else:
            allowed, aborted = seq.version_write(state.index, delta=value)
        state.published[key] = (kind, value)
        self.ever_written[state.index].add(key)
        self._handle_wake_and_abort(key, allowed, aborted, writer=state.index)

    def _handle_wake_and_abort(
        self, key: StateKey, allowed: List[int], aborted: List[int],
        writer: int = -1,
    ) -> None:
        for victim in aborted:
            if self._merge_skip_abort(victim, key):
                continue
            self._abort(victim, key, writer=writer)
        seq = self.sequences.sequence(key)
        for index in sorted(set(allowed) | set(aborted)):
            target = self.states[index]
            if target.status is _Status.WAITING:
                if seq.resolve_read(index).ready:
                    became_ready = self.locks.grant(index, key)
                    if became_ready or self.locks.is_ready(index):
                        if target.status is _Status.WAITING:
                            target.status = _Status.READY
                            self.queue.push(index)
                            if self.obs is not None:
                                now = self._now()
                                self.obs.version_wait_end(
                                    now, index, key=key, granted_by=writer)
                                self.obs.tx_ready(
                                    now, index, attempt=target.attempts + 1)
                            self._schedule_dispatch()
            else:
                self.locks.grant(index, key)

    def _merge_skip_abort(self, victim: int, key: StateKey) -> bool:
        """Outcome-stable abort tolerance (the merge algebra's payoff).

        When a late-arriving version of a declared merge key would abort a
        reader, re-evaluate every guard that reader ran on the key against
        the drifted base: if all verdicts are unchanged the reader's
        behaviour is byte-identical (the value feeds nothing else under the
        declaration), so the abort is skipped outright — no re-execution,
        no attempt bump.  Any unfinished earlier writer (view is None) or
        operand-less record falls back to the normal abort path.
        """
        if self.merges is None:
            return False
        spec = self.merges.lookup(key)
        if spec is None or not spec.op.delta_encodable:
            return False
        state = self.states[victim]
        records = [r for r in state.read_log if r.key == key and r.registered]
        if not records:
            return False
        seq = self.sequences.get(key)
        if seq is None:
            return False
        running = state.status is _Status.RUNNING
        view = seq.current_read_view(victim, self.snapshot.get(key))
        deferred: List[_ReadRecord] = []
        for rec in records:
            if rec.merge_operand is None:
                if running:
                    # The paired write hasn't happened yet, so the operand
                    # is unknown; defer the verdict check to the write's
                    # attach hook (or the completion hook).
                    deferred.append(rec)
                    continue
                return False
            if view is None:
                return False
            if view[0] != rec.base and not self._merge_outcome_stable(rec, view[0]):
                return False
        for rec in deferred:
            rec.merge_recheck = True
        self.merge_tolerated += 1
        if self.obs is not None:
            self.obs.merge_tolerated(self._now(), victim, key)
        return True

    def _finish(self, state: _TxState, result: TxResult, executed: int) -> None:
        """Commit an attempt that ran to completion: publish the writes it
        has not published yet (or retract everything if it failed), then
        skip-mark the writes it never performed.  ``executed`` is the
        instruction count the attempt actually ran."""
        now = self._now()
        state.status = _Status.DONE
        state.result = result
        per = self.per_tx[state.index]
        per.end_time = now
        per.gas_used = result.gas_used
        per.succeeded = result.success
        per.attempts = state.attempts
        per.instructions_executed += executed
        per.instructions_final = result.steps

        if result.success:
            for key, value in state.w_abs.items():
                if state.published.get(key) != ("abs", value):
                    self._publish(state, key, "abs", value)
            for key, delta in state.w_delta.items():
                if state.published.get(key) != ("delta", delta):
                    self._publish(state, key, "delta", delta)
        else:
            self._retract_published(state)
        if self.obs is not None:
            self.obs.tx_end(now, state.index, attempt=state.attempts,
                            success=result.success,
                            gas_used=result.gas_used)
        if self.recorder is not None:
            self.recorder.complete(state.index, attempt=state.attempts,
                                   success=result.success,
                                   gas_used=result.gas_used)

        # Predicted writes that never materialised are marked skipped so
        # transactions waiting on them unblock (divergent path / failure).
        # The same applies to keys this transaction published in *earlier
        # attempts*: an entry inserted on the fly back then may now be a
        # write the current path never performs.
        pending_write_keys = set(self.ever_written[state.index])
        for key, access_type in state.csag.per_key.items():
            if self._declared(access_type) is not AccessType.READ:
                pending_write_keys.add(key)
        for key in pending_write_keys:
            if key in state.published:
                continue
            seq = self.sequences.sequence(key)
            entry = seq.entry(state.index)
            if entry is not None and entry.has_write_part and not entry.write_finished:
                allowed, _ = seq.version_write(state.index, skipped=True)
                self._handle_wake_and_abort(key, allowed, [], writer=state.index)
        self._schedule_dispatch()

    # ------------------------------------------------------------------
    # Abort (Algorithm 4)
    # ------------------------------------------------------------------

    def _abort(self, index: int, trigger_key: StateKey, writer: int = -1) -> None:
        state = self.states[index]
        now = self._now()
        if state.aborting:
            # A suffix-retraction cascade circled back to the transaction
            # being aborted.  Flag it — the outer call checks the flag and
            # degrades to a full restart — and let that call finish.
            state.abort_reentered = True
            return
        if self.recorder is not None:
            self.recorder.abort(index, attempt=max(state.attempts, 1),
                                key=trigger_key)
        if self.obs is not None:
            self.obs.tx_abort(now, index, attempt=max(state.attempts, 1),
                              key=trigger_key, writer=writer)

        # Revalidation fast path: a completed successful attempt whose whole
        # read log still resolves to the same values remains serializable —
        # reinstate its result as a fresh attempt with zero re-execution.
        if (
            self.ex.enable_revalidation
            and state.status is _Status.DONE
            and state.result is not None
            and state.result.success
            and self._try_revalidate(state)
        ):
            return

        if state.resume_from is not None:
            # Aborted again while parked for a resume: the plan below is
            # recomputed against the (already truncated) log, so just drop
            # the stale one.
            state.resume_from = None

        state.aborting = True
        state.abort_reentered = False
        try:
            if state.status is _Status.READY:
                self.queue.remove(index)
            elif state.status is _Status.RUNNING:
                self._stop_attempt(state)
            elif state.status is _Status.DONE:
                state.result = None
            elif state.status is _Status.WAITING:
                # Nothing consumed yet in the *current* attempt; but a previous
                # attempt's reads may still be recorded — fall through to reset.
                pass

            state.status = _Status.WAITING
            self.per_tx[index].aborted_times += 1

            plan = None
            if self.ex.enable_checkpoint_resume and state.checkpoints:
                plan = self._plan_resume(state)
            if plan is not None:
                # Retract only what came after the checkpoint; if the
                # cascade came back to bite us, or shifted the kept prefix,
                # fall back to retracting everything.
                self._retract_suffix(state, plan)
                if state.abort_reentered or self._prefix_invalid(state, plan):
                    plan = None
            if plan is not None:
                self._arm_resume(state, plan)
            else:
                self._restart(state)
        finally:
            state.aborting = False

        self.locks.release_all(index)
        if self.locks.refresh(index, self.sequences):
            state.status = _Status.READY
            self.queue.push(index)
            if self.obs is not None:
                self.obs.tx_ready(now, index, attempt=state.attempts + 1)
            self._schedule_dispatch()
        elif self.obs is not None:
            keys, blockers = self._wait_info(index)
            self.obs.version_wait_begin(now, index, keys=keys,
                                        blockers=blockers)

    def _restart(self, state: _TxState) -> None:
        """Full restart: retract whatever this transaction made visible
        (cascades) and clear its recorded reads so future writes don't
        re-abort a transaction already re-executing."""
        self._retract_published(state)
        for key in state.registered_reads:
            seq = self.sequences.get(key)
            if seq is not None:
                entry = seq.entry(state.index)
                if entry is not None:
                    entry.reset_read()
        state.reset_attempt()

    # ------------------------------------------------------------------
    # Incremental re-execution: validation, revalidation, resume
    # ------------------------------------------------------------------

    def _validate_reads(
        self, state: _TxState, limit: int
    ) -> Tuple[Optional[int], List[int]]:
        """Re-resolve the first ``limit`` read-log records against the live
        access sequences.  Returns the index of the first record whose value
        changed (or None when every record still holds) plus the re-resolved
        version for each record of the valid prefix."""
        versions: List[int] = []
        for i, rec in enumerate(state.read_log[:limit]):
            if rec.blind:
                # Blind increment reads are value-insensitive (_ReadRecord):
                # the driver publishes the delta, not the absolute.
                versions.append(rec.version_from)
                continue
            seq = self.sequences.get(rec.key)
            if seq is None:
                return i, versions
            view = seq.current_read_view(state.index, self.snapshot.get(rec.key))
            if view is None:
                return i, versions
            if view[0] != rec.base and not self._merge_outcome_stable(rec, view[0]):
                return i, versions
            versions.append(view[1])
        return None, versions

    @staticmethod
    def _merge_outcome_stable(rec: _ReadRecord, new_base: int) -> bool:
        """Whether a merge record tolerates its base drifting to
        ``new_base``: the declared guard must reach the same verdict on the
        observed value it would now see.  Records without an operand (the
        guard failed, or the op never ran) demand exact equality."""
        if rec.merge_spec is None or rec.merge_operand is None:
            return False
        old_value = (rec.base + rec.merge_own) % WORD_MOD
        new_value = (new_base + rec.merge_own) % WORD_MOD
        return (rec.merge_spec.outcome(old_value, rec.merge_operand)
                == rec.merge_spec.outcome(new_value, rec.merge_operand))

    def _rerecord_reads(
        self, state: _TxState, records: List[_ReadRecord], versions: List[int]
    ) -> None:
        """Re-anchor the recorded read dependencies to the versions they
        resolve to *now* (record_read keeps the oldest version, so the stale
        registration must be reset first)."""
        for key in {r.key for r in records if r.registered}:
            seq = self.sequences.get(key)
            if seq is not None:
                entry = seq.entry(state.index)
                if entry is not None:
                    entry.reset_read()
        for rec, version in zip(records, versions):
            if rec.registered:
                self.sequences.sequence(rec.key).record_read(state.index, version)
                rec.version_from = version

    def _reemit_reads(
        self, state: _TxState, records: List[_ReadRecord], versions: List[int]
    ) -> None:
        """Emit the kept reads into the trace under the new attempt number so
        the serializability oracle sees the attempt's true dependencies."""
        if self.recorder is None:
            return
        for rec, version in zip(records, versions):
            if rec.blind:
                self.recorder.read(state.index, rec.key, version, rec.base,
                                   attempt=state.attempts, blind=True)
            else:
                early = (version >= 0
                         and self.states[version].status is not _Status.DONE)
                self.recorder.read(state.index, rec.key, version, rec.base,
                                   attempt=state.attempts, early=early,
                                   speculative=rec.speculative)

    def _try_revalidate(self, state: _TxState) -> bool:
        first_invalid, versions = self._validate_reads(state, len(state.read_log))
        if first_invalid is not None:
            return False
        state.attempts += 1
        per = self.per_tx[state.index]
        per.attempts = state.attempts
        per.aborted_times += 1
        per.revalidation_hits += 1
        skipped = state.result.steps
        per.instructions_skipped += skipped
        self._rerecord_reads(state, state.read_log, versions)
        if self.obs is not None:
            self.obs.revalidation_hit(self._now(), state.index,
                                      attempt=state.attempts,
                                      instructions_skipped=skipped)
        self._reemit_reads(state, state.read_log, versions)
        if self.recorder is not None:
            self.recorder.complete(state.index, attempt=state.attempts,
                                   success=True,
                                   gas_used=state.result.gas_used)
        return True

    def _plan_resume(self, state: _TxState) -> Optional[_ResumePlan]:
        """Find the newest checkpoint at or before the first invalidated
        read; everything up to it is salvageable."""
        first_invalid, _ = self._validate_reads(state, len(state.read_log))
        j = first_invalid if first_invalid is not None else len(state.read_log)
        usable = [ck for ck in state.checkpoints if ck.read_index <= j]
        if not usable:
            return None
        return _ResumePlan(checkpoint=usable[-1], first_invalid=j)

    def _prefix_invalid(self, state: _TxState, plan: _ResumePlan) -> bool:
        first_invalid, versions = self._validate_reads(
            state, plan.checkpoint.read_index)
        if first_invalid is not None:
            return True
        plan.prefix_versions = versions
        return False

    def _retract_suffix(self, state: _TxState, plan: _ResumePlan) -> None:
        """Retract only the writes published after ``plan.checkpoint``.

        A key the kept prefix had already published (with an older value)
        gets that value reinstated — retract then republish — so prefix
        readers can revalidate against the identical value instead of
        cascading into full restarts.
        """
        keep = plan.checkpoint.published
        published = list(state.published.items())
        state.published = dict(keep)
        for key, current in published:
            kept = keep.get(key)
            if kept == current:
                continue  # unchanged since the checkpoint: leave it in place
            seq = self.sequences.get(key)
            if seq is None:
                continue
            victims = seq.retract(state.index)
            if self.recorder is not None:
                self.recorder.retract(
                    state.index, key,
                    tuple(v for v in victims if v != state.index),
                )
            allowed: List[int] = []
            aborted: List[int] = []
            if kept is not None:
                kind, value = kept
                if self.recorder is not None:
                    self.recorder.publish(state.index, key, kind, value,
                                          early=True)
                if kind == "abs":
                    allowed, aborted = seq.version_write(state.index, value=value)
                else:
                    allowed, aborted = seq.version_write(state.index, delta=value)
            for victim in victims:
                if victim != state.index and not self._merge_skip_abort(victim, key):
                    self._abort(victim, key, writer=state.index)
            if kept is not None:
                self._handle_wake_and_abort(key, allowed, aborted,
                                            writer=state.index)

    def _arm_resume(self, state: _TxState, plan: _ResumePlan) -> None:
        """Park the transaction with a restored checkpoint image; the next
        _start resumes the VM instead of re-executing from scratch."""
        ck = plan.checkpoint
        index = state.index
        # Reads that exist only in the discarded suffix lose their recorded
        # dependency; keys also read in the kept prefix keep their entry
        # (the prefix re-record at start refreshes its version).
        prefix_keys = {r.key for r in state.read_log[: ck.read_index]
                       if r.registered}
        for rec in state.read_log[ck.read_index:]:
            if rec.registered and rec.key not in prefix_keys:
                seq = self.sequences.get(rec.key)
                if seq is not None:
                    entry = seq.entry(index)
                    if entry is not None:
                        entry.reset_read()
        del state.read_log[ck.read_index:]
        for rec in state.read_log:
            if rec.merge_operand is not None and rec.merge_attached_at > ck.read_index:
                rec.merge_operand = None
        state.checkpoints = [c for c in state.checkpoints
                             if c.read_index <= ck.read_index]
        # Restore the driver-side attempt image; the VM side is rebuilt by
        # resume_transaction_program when the transaction next starts.
        state.w_abs = dict(ck.w_abs)
        state.w_delta = dict(ck.w_delta)
        state.pending_blind = dict(ck.pending_blind)
        state.registered_reads = dict(ck.registered_reads)
        state.frame_stack = [(dict(a), dict(d), dict(r))
                             for a, d, r in ck.frame_stack]
        state.release_mode = ck.release_mode
        state.speculative_reads = ck.speculative_reads
        state.generator = None
        state.meter = None
        state.pending_entry = None
        state.resume_from = plan

    def _retract_published(self, state: _TxState) -> None:
        published = list(state.published)
        state.published = {}
        for key in published:
            seq = self.sequences.get(key)
            if seq is None:
                continue
            victims = seq.retract(state.index)
            if self.recorder is not None:
                self.recorder.retract(
                    state.index, key,
                    tuple(v for v in victims if v != state.index),
                )
            for victim in victims:
                if victim != state.index and not self._merge_skip_abort(victim, key):
                    self._abort(victim, key, writer=state.index)

    # ------------------------------------------------------------------
    # Rescue and result
    # ------------------------------------------------------------------

    def _rescue(self) -> None:
        """Recover from lost wake-ups (counted; tests pin 0): every waiting
        transaction is made ready.  Raises when nothing can progress."""
        self._rescue_rounds += 1
        waiting = [s for s in self.states if s.status is _Status.WAITING]
        if not waiting or self._rescue_rounds > 3 * len(self.states) + 10:
            stuck = [s.index for s in self.states if s.status is not _Status.DONE]
            raise SchedulingError(f"DMVCC deadlock; stuck transactions: {stuck}")
        now = self._now()
        for state in waiting:
            self.rescues += 1
            state.status = _Status.READY
            self.queue.push(state.index)
            if self.obs is not None:
                self.obs.version_wait_end(now, state.index)
                self.obs.tx_ready(now, state.index, attempt=state.attempts + 1)

    def _block_execution(self, threads: int) -> BlockExecution:
        receipts = [
            Receipt(index=s.index, result=s.result, attempts=max(s.attempts, 1))
            for s in self.states
        ]
        writes = self.sequences.final_writes(self.snapshot.get)
        metrics = self.ex._base_metrics(threads, receipts)
        metrics.per_tx = self.per_tx
        metrics.rescues = self.rescues
        metrics.replayed_instructions = sum(t.replayed_instructions for t in self.per_tx)
        metrics.instructions_skipped = sum(t.instructions_skipped for t in self.per_tx)
        metrics.resumes = sum(t.resumes for t in self.per_tx)
        metrics.revalidation_hits = sum(t.revalidation_hits for t in self.per_tx)
        if self.merges is not None:
            metrics.merge_tolerated = self.merge_tolerated
            metrics.merge_intents = self._merge_intents()
        return BlockExecution(writes=writes, receipts=receipts, metrics=metrics)

    def _merge_intents(self) -> int:
        """Net-delta intents on declared keys logged by successful txs."""
        return sum(
            1
            for s in self.states
            if s.result is not None and s.result.success
            for key in s.w_delta
            if self.merges.lookup(key) is not None
        )


class _BlockRun(_ProtocolCore):
    """The simulator driver: transaction generators stepped on a gas clock,
    bound to simulated threads, with mid-transaction early-write visibility
    and checkpoint resume."""

    def __init__(self, executor, txs, snapshot, code_resolver, threads, block, csags):
        super().__init__(executor, txs, snapshot, code_resolver, block, csags)
        self.loop = EventLoop()
        self.pool = ThreadPool(threads, obs=self.obs)
        self._dispatch_scheduled = False

    def _now(self) -> float:
        return self.loop.now

    def _stop_attempt(self, state: _TxState) -> None:
        if state.pending_entry is not None:
            self.loop.cancel(state.pending_entry)
            state.pending_entry = None
        if state.generator is not None:
            state.generator.close()
            state.generator = None
        if state.meter is not None:
            self.per_tx[state.index].instructions_executed += state.meter.steps_executed
            state.meter = None
        self.pool.release(state.thread, self.loop.now)
        state.thread = None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def execute(self) -> BlockExecution:
        wall_start = perf_counter()
        if self.obs is not None:
            self.obs.block_start(0.0, scheduler=self.ex.name,
                                 threads=self.pool.size,
                                 tx_count=len(self.txs))
        self._setup()
        self._schedule_dispatch()
        makespan = self.loop.run()
        while not all(s.status is _Status.DONE for s in self.states):
            self._rescue()
            self._schedule_dispatch()
            makespan = max(makespan, self.loop.run())

        if self.obs is not None:
            self.obs.block_end(makespan, makespan=makespan)
        execution = self._block_execution(self.pool.size)
        execution.metrics.makespan = makespan
        execution.metrics.utilisation = self.pool.utilisation(makespan)
        execution.metrics.wall_time = perf_counter() - wall_start
        return execution

    # ------------------------------------------------------------------
    # Dispatch / stepping
    # ------------------------------------------------------------------

    def _schedule_dispatch(self) -> None:
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.loop.schedule_now(self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_scheduled = False
        while self.pool.idle_count:
            index = self.queue.pop()
            if index is None:
                return
            self._start(self.states[index])

    def _watchpoints_for(self, state: _TxState):
        code = self.resolve_code(state.tx.to)
        if code and self.ex.enable_early_write:
            _blind, _incs, release_pcs = self._contract_info(state.tx.to)
            if release_pcs:
                return {state.tx.to: release_pcs}
        return None

    def _start(self, state: _TxState) -> None:
        now = self.loop.now
        if state.resume_from is not None and self._begin_resume(state, now):
            return
        state.reset_attempt()
        state.status = _Status.RUNNING
        state.attempts += 1
        state.thread = self.pool.try_occupy(now, label=f"T{state.index}")
        state.start_time = now
        state.meter = ExecutionMeter()
        state.generator = transaction_program(
            state.tx, self.resolve_code, block=self.block,
            watchpoints=self._watchpoints_for(state), meter=state.meter,
        )
        if state.attempts == 1:
            self.per_tx[state.index].start_time = now
        if self.obs is not None:
            if state.attempts > 1:
                self.obs.tx_reexecute(now, state.index, attempt=state.attempts)
            self.obs.tx_start(now, state.index, attempt=state.attempts,
                              thread=state.thread if state.thread is not None else -1)
        self._advance(state, None)

    def _begin_resume(self, state: _TxState, now: float) -> bool:
        """Restart an aborted attempt from its armed checkpoint.  Returns
        False (after cleaning up) when the kept prefix went stale while the
        transaction was parked, sending the caller down the fresh path."""
        plan = state.resume_from
        state.resume_from = None
        ck = plan.checkpoint
        first_invalid, versions = self._validate_reads(state, ck.read_index)
        if first_invalid is not None:
            self._restart(state)
            return False
        prefix = state.read_log[: ck.read_index]
        self._rerecord_reads(state, prefix, versions)
        state.status = _Status.RUNNING
        state.attempts += 1
        state.thread = self.pool.try_occupy(now, label=f"T{state.index}")
        # Backdate the start so the resumed attempt's events land exactly
        # where a restart-free execution's would (gas is simulated time).
        state.start_time = now - ck.gas_offset * self.ex.gas_time_scale
        state.meter = ExecutionMeter()
        state.generator = resume_transaction_program(
            state.tx, ck.vm, self.resolve_code, block=self.block,
            watchpoints=self._watchpoints_for(state), meter=state.meter,
        )
        per = self.per_tx[state.index]
        per.resumes += 1
        per.instructions_skipped += ck.vm.steps
        if self.obs is not None:
            self.obs.tx_reexecute(now, state.index, attempt=state.attempts)
            self.obs.tx_resume(now, state.index, attempt=state.attempts,
                               read_index=ck.read_index,
                               instructions_skipped=ck.vm.steps)
            self.obs.tx_start(now, state.index, attempt=state.attempts,
                              thread=state.thread if state.thread is not None else -1)
        self._reemit_reads(state, prefix, versions)
        self._advance(state, None)
        return True

    def _advance(self, state: _TxState, to_send: object) -> None:
        """Pull the next event from the generator and schedule its effect at
        its gas-derived timestamp."""
        try:
            event = state.generator.send(to_send)
        except StopIteration as stop:
            result: TxResult = stop.value
            finish = state.start_time + result.gas_used * self.ex.gas_time_scale
            state.pending_entry = self.loop.schedule(
                finish, lambda: self._complete(state, result)
            )
            return
        when = state.start_time + event.gas_used * self.ex.gas_time_scale
        state.pending_entry = self.loop.schedule(
            when, lambda: self._process(state, event)
        )

    def _process(self, state: _TxState, event) -> None:
        state.pending_entry = None
        to_send: object = None
        if isinstance(event, StorageRead):
            to_send = self._on_read(state, event)
        elif isinstance(event, StorageWrite):
            self._on_write(state, event)
            self._maybe_publish_now(state, event.key, event.gas_used)
        elif isinstance(event, StorageIncrement):
            self._on_increment(state, event)
            self._maybe_publish_now(state, event.key, event.gas_used)
        elif isinstance(event, Watchpoint):
            self._on_release_point(state, event)
        elif isinstance(event, FrameCheckpoint):
            state.frame_stack.append(
                (dict(state.w_abs), dict(state.w_delta), dict(state.registered_reads))
            )
            to_send = len(state.frame_stack)
        elif isinstance(event, FrameCommit):
            state.frame_stack.pop()
        elif isinstance(event, FrameRevert):
            w_abs, w_delta, reads = state.frame_stack.pop()
            if self.merges is not None:
                # A revert throws away operations the merge records already
                # absorbed operands for; those guards' verdicts no longer
                # describe the surviving behaviour, so degrade every record
                # of a rolled-back declared key to strict value equality.
                for key in set(state.w_delta) | set(w_delta) | \
                        set(state.registered_reads) | set(reads):
                    if (state.w_delta.get(key) == w_delta.get(key)
                            and state.registered_reads.get(key) == reads.get(key)):
                        continue
                    if self.merges.lookup(key) is None:
                        continue
                    for rec in state.read_log:
                        if rec.key == key:
                            rec.merge_spec = None
            state.w_abs, state.w_delta = w_abs, w_delta
            state.registered_reads = reads
        elif isinstance(event, EmittedLog):
            pass
        else:  # pragma: no cover
            raise SchedulingError(f"unexpected event {event!r}")
        if state.merge_self_abort is not None and state.status is _Status.RUNNING:
            key = state.merge_self_abort
            state.merge_self_abort = None
            self._abort(state.index, key)
        # The event handler may have aborted this very transaction through a
        # cascade; never advance a dead generator.
        if state.status is _Status.RUNNING and state.generator is not None:
            self._advance(state, to_send)

    # ------------------------------------------------------------------
    # Reads (Execute_Read)
    # ------------------------------------------------------------------

    def _on_read(self, state: _TxState, event: StorageRead) -> int:
        key = event.key
        if key in state.w_abs:
            return state.w_abs[key]
        blind_pcs, _incs, _rel = self._contract_info(state.tx.to)
        seq = self.sequences.get(key)
        if (
            self.ex.enable_commutative
            and event.pc in blind_pcs
            and key not in state.registered_reads
        ):
            # Blind increment read: the value feeds only the paired +=, so
            # it needs no lock, registers no dependency, and cannot abort.
            version = -1
            from_own = False
            if key in state.w_delta:
                answer = 0
                from_own = True
            elif seq is not None:
                res = seq.best_available_read(state.index)
                answer = res.resolve_with_snapshot(self.snapshot.get(key))
                version = res.version_from
            else:
                answer = self.snapshot.get(key)
            state.pending_blind[key] = (answer, event.pc, len(state.read_log))
            state.read_log.append(_ReadRecord(
                key=key, base=answer, version_from=version,
                registered=False, blind=True, from_own_delta=from_own,
            ))
            if self.recorder is not None:
                self.recorder.read(state.index, key, version, answer,
                                   attempt=state.attempts, blind=True)
            return answer

        if self.merges is not None:
            spec = self.merges.lookup(key)
            if spec is not None and spec.op.delta_encodable:
                return self._on_merge_read(state, event, seq, spec)

        # Registered read: resolve the proper version (blocking resolution
        # degraded to best-available for accesses the analysis missed).
        if seq is None:
            seq = self.sequences.sequence(key)
        if self.ex.enable_checkpoint_resume:
            self._maybe_checkpoint(state, event)
        speculative = False
        resolution = seq.resolve_read(state.index)
        if not resolution.ready:
            resolution = seq.best_available_read(state.index)
            state.speculative_reads += 1
            speculative = True
        base = resolution.resolve_with_snapshot(self.snapshot.get(key))
        if key in state.w_delta:
            # Own pending increments fold in; the write becomes absolute.
            value = (base + state.w_delta.pop(key)) % WORD_MOD
            state.w_abs[key] = value
        else:
            value = base
        seq.record_read(state.index, resolution.version_from)
        state.registered_reads[key] = value
        state.read_log.append(_ReadRecord(
            key=key, base=base, version_from=resolution.version_from,
            registered=True, speculative=speculative,
        ))
        if self.obs is not None:
            writer = resolution.version_from
            if writer >= 0 and self.states[writer].status is not _Status.DONE:
                self.obs.early_read(self.loop.now, state.index, key, writer)
        if self.recorder is not None:
            self._record_read(state, key, resolution, base, speculative)
        return value

    def _on_merge_read(self, state: _TxState, event: StorageRead, seq, spec) -> int:
        """Read of a declared ADD/SUB merge key: never blocks.

        The declaration promises the value feeds only the declared guard and
        operation, so the read is answered from the best fold available right
        now and validated later by guard *outcome* instead of exact value
        (see _validate_reads / _merge_skip_abort).  The read is still
        registered in the access sequence so on-the-fly version insertions
        find it and trigger the outcome recheck.
        """
        key = event.key
        if seq is None:
            seq = self.sequences.sequence(key)
        if self.ex.enable_checkpoint_resume:
            self._maybe_checkpoint(state, event)
        speculative = False
        resolution = seq.resolve_read(state.index)
        if not resolution.ready:
            resolution = seq.best_available_read(state.index)
            state.speculative_reads += 1
            speculative = True
        base = resolution.resolve_with_snapshot(self.snapshot.get(key))
        own = state.w_delta.get(key, 0)
        value = (base + own) % WORD_MOD
        seq.record_read(state.index, resolution.version_from)
        state.registered_reads[key] = value
        state.read_log.append(_ReadRecord(
            key=key, base=base, version_from=resolution.version_from,
            registered=True, speculative=speculative,
            merge_spec=spec, merge_own=own,
        ))
        if self.recorder is not None:
            self._record_read(state, key, resolution, base, speculative)
        return value

    def _record_read(self, state, key, resolution, base, speculative) -> None:
        writer = resolution.version_from
        early = writer >= 0 and self.states[writer].status is not _Status.DONE
        self.recorder.read(state.index, key, writer, base,
                           attempt=state.attempts, early=early,
                           speculative=speculative)

    def _maybe_checkpoint(self, state: _TxState, event: StorageRead) -> None:
        """Capture a resume point at this read boundary, if due.

        Checkpoints are taken every ``checkpoint_stride`` registered reads;
        when the retained count would exceed ``checkpoint_limit`` the list is
        thinned to every other entry and the stride doubles, so memory stays
        bounded while coverage stays geometric over the attempt's lifetime.
        """
        if state.meter is None:
            return
        read_index = len(state.read_log)
        if read_index % state.checkpoint_stride != 0:
            return
        vm_ck = state.meter.checkpoint()
        if vm_ck is None:
            return  # suspended outside the VM (e.g. the funding prologue)
        state.checkpoints.append(_AttemptCheckpoint(
            read_index=read_index,
            vm=vm_ck,
            gas_offset=event.gas_used,
            w_abs=dict(state.w_abs),
            w_delta=dict(state.w_delta),
            pending_blind=dict(state.pending_blind),
            registered_reads=dict(state.registered_reads),
            frame_stack=[(dict(a), dict(d), dict(r))
                         for a, d, r in state.frame_stack],
            published=dict(state.published),
            release_mode=state.release_mode,
            speculative_reads=state.speculative_reads,
        ))
        if len(state.checkpoints) > self.ex.checkpoint_limit:
            del state.checkpoints[1::2]
            state.checkpoint_stride *= 2
        if self.obs is not None:
            self.obs.checkpoint_taken(self.loop.now, state.index,
                                      read_index=read_index,
                                      retained=len(state.checkpoints))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def _on_write(self, state: _TxState, event: StorageWrite) -> None:
        key = event.key
        pending = state.pending_blind.pop(key, None)
        if pending is not None and self.ex.enable_commutative and key not in state.w_abs:
            answer, read_pc, log_index = pending
            _blind, increments, _rel = self._contract_info(state.tx.to)
            if increments.get(event.pc) == read_pc:
                delta = (event.value - answer) % WORD_MOD
                state.w_delta[key] = (state.w_delta.get(key, 0) + delta) % WORD_MOD
                if 0 <= log_index < len(state.read_log):
                    state.read_log[log_index].consumed_as_delta = True
                if self.recorder is not None:
                    self.recorder.write(state.index, key, delta=delta,
                                        attempt=state.attempts)
                return
        if self.merges is not None and key not in state.w_abs:
            spec = self.merges.lookup(key)
            if (spec is not None and spec.op.delta_encodable
                    and self._merge_write(state, key, spec, event.value)):
                return
        if self.merges is not None and self.merges.lookup(key) is not None:
            # A declared key degrading to an absolute write (no preceding
            # merge read, repeated op per read, …): its published value now
            # depends on the exact bases read, so every merge record of the
            # key loses outcome tolerance and reverts to strict equality.
            for rec in state.read_log:
                if rec.key == key:
                    rec.merge_spec = None
        state.w_abs[key] = event.value
        state.w_delta.pop(key, None)
        if self.recorder is not None:
            self.recorder.write(state.index, key, value=event.value,
                                attempt=state.attempts)

    def _merge_write(self, state: _TxState, key: StateKey, spec, value: int) -> bool:
        """Convert an absolute write of a declared ADD/SUB key into a delta
        intent against the value the program believes the key holds.  Returns
        False (caller falls back to an absolute write) when there is no
        believed value or the last merge read already fed an operation."""
        believed = state.registered_reads.get(key)
        if believed is None:
            return False
        # The operand covers the whole guarded-op instance: every merge
        # read of the key since the last write fed either the guard or the
        # operation itself, and under the declaration both share the
        # operand.  An empty group means a write without a fresh read
        # (a second op reusing one read) — not the declared shape.
        group: List[_ReadRecord] = []
        for rec in reversed(state.read_log):
            if rec.key != key or rec.merge_spec is None:
                continue
            if rec.merge_operand is not None:
                break
            group.append(rec)
        if not group:
            return False
        delta = (value - believed) % WORD_MOD
        operand = (-delta) % WORD_MOD if spec.op is MergeOp.SUB else delta
        recheck = False
        for rec in group:
            rec.merge_operand = operand
            rec.merge_attached_at = len(state.read_log)
            recheck = recheck or rec.merge_recheck
        state.w_delta[key] = (state.w_delta.get(key, 0) + delta) % WORD_MOD
        state.registered_reads[key] = value
        if recheck:
            # An abort was deferred while the operand was unknown; now that
            # the guard's operand exists, settle the verdict against the
            # live view.  An unresolvable view stays flagged for the
            # completion hook; a flipped verdict aborts once the generator
            # suspends (_process checks merge_self_abort).
            seq = self.sequences.get(key)
            view = (seq.current_read_view(state.index, self.snapshot.get(key))
                    if seq is not None else None)
            if view is not None:
                for rec in group:
                    if not rec.merge_recheck:
                        continue
                    if view[0] == rec.base or self._merge_outcome_stable(rec, view[0]):
                        rec.merge_recheck = False
                    else:
                        state.merge_self_abort = key
                        break
        if self.recorder is not None:
            self.recorder.write(state.index, key, delta=delta,
                                attempt=state.attempts)
        return True

    def _on_increment(self, state: _TxState, event: StorageIncrement) -> None:
        key = event.key
        if self.recorder is not None:
            self.recorder.write(state.index, key, delta=event.delta,
                                attempt=state.attempts)
        if key in state.w_abs:
            state.w_abs[key] = (state.w_abs[key] + event.delta) % WORD_MOD
        elif self.ex.enable_commutative:
            state.w_delta[key] = (state.w_delta.get(key, 0) + event.delta) % WORD_MOD
        else:
            seq = self.sequences.sequence(key)
            speculative = False
            resolution = seq.resolve_read(state.index)
            if not resolution.ready:
                resolution = seq.best_available_read(state.index)
                state.speculative_reads += 1
                speculative = True
            base = resolution.resolve_with_snapshot(self.snapshot.get(key))
            seq.record_read(state.index, resolution.version_from)
            state.registered_reads[key] = base
            state.read_log.append(_ReadRecord(
                key=key, base=base, version_from=resolution.version_from,
                registered=True, speculative=speculative,
            ))
            state.w_abs[key] = (base + event.delta) % WORD_MOD
            if self.recorder is not None:
                self._record_read(state, key, resolution, base, speculative)

    # ------------------------------------------------------------------
    # Early write visibility (Algorithm 2)
    # ------------------------------------------------------------------

    def _on_release_point(self, state: _TxState, event: Watchpoint) -> None:
        if not self.ex.enable_early_write:
            return
        self._contract_info(state.tx.to)  # ensure bounds cache is populated
        bound = self._release_bounds[state.tx.to].get(event.pc)
        released = self.ex.release_gas_check(state.csag, event, bound)
        if self.obs is not None:
            self.obs.release_point(self.loop.now, state.index, event.pc,
                                   released, gas_remaining=event.gas_remaining)
        if not released:
            return  # might still fail past this point: do not release
        # From here on every buffered or future write whose key sees no
        # further predicted write is published as soon as it exists
        # (Algorithm 1 line 15 checks AfterReleasePoint after every op).
        state.release_mode = True
        self._flush_released(state, event.gas_used)

    def _flush_released(self, state: _TxState, gas_now: int) -> None:
        future_writes = {
            access.key
            for access in state.csag.accesses
            if access.kind == "write" and access.gas_offset > gas_now
        }
        for key, value in list(state.w_abs.items()):
            if key in future_writes:
                continue
            if state.published.get(key) != ("abs", value):
                self._publish(state, key, "abs", value)
        for key, delta in list(state.w_delta.items()):
            if key in future_writes:
                continue
            if state.published.get(key) != ("delta", delta):
                self._publish(state, key, "delta", delta)

    def _maybe_publish_now(self, state: _TxState, key: StateKey, gas_now: int) -> None:
        """Publish one just-performed write immediately when running past a
        release point and no later write to the key is predicted."""
        if not state.release_mode:
            return
        for access in state.csag.accesses:
            if access.kind == "write" and access.key == key and access.gas_offset > gas_now:
                return
        if key in state.w_abs:
            if state.published.get(key) != ("abs", state.w_abs[key]):
                self._publish(state, key, "abs", state.w_abs[key])
        elif key in state.w_delta:
            if state.published.get(key) != ("delta", state.w_delta[key]):
                self._publish(state, key, "delta", state.w_delta[key])

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _complete(self, state: _TxState, result: TxResult) -> None:
        state.pending_entry = None
        if self.merges is not None:
            stale = self._merge_deferred_invalid(state)
            if stale is not None:
                # A deferred merge recheck never settled (or settled stale):
                # this attempt must not commit.  Abort it like any other
                # conflict; the generator is already exhausted.
                self._abort(state.index, stale)
                return
        self.pool.release(state.thread, self.loop.now)
        state.thread = None
        executed = 0
        if state.meter is not None:
            executed = state.meter.steps_executed
            state.meter = None
        self._finish(state, result, executed)

    def _merge_deferred_invalid(self, state: _TxState) -> Optional[StateKey]:
        """Settle any merge records whose abort was deferred while their
        operand was unknown; returns the first key that fails (outcome drift
        with an operand, strict drift without, or a still-unresolvable
        view) or None when the attempt may commit."""
        for rec in state.read_log:
            if not rec.merge_recheck:
                continue
            rec.merge_recheck = False
            seq = self.sequences.get(rec.key)
            view = (seq.current_read_view(state.index, self.snapshot.get(rec.key))
                    if seq is not None else None)
            if view is None:
                return rec.key
            if view[0] == rec.base:
                continue
            if not self._merge_outcome_stable(rec, view[0]):
                return rec.key
        return None
