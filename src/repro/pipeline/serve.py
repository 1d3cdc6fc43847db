"""``python -m repro serve`` — stream a scenario through the pipeline.

The scenario generator becomes a continuous
:class:`~repro.pipeline.source.WorkloadStream` (nonce- and fee-stamped)
pulled through the full mempool → analyse → pack → execute → seal →
persist pipeline, with backpressure hysteresis at the front and a bounded
seal queue in the middle.

``--check`` keeps the PR-1/PR-6 invariants *online* while streaming:

* **serializability oracle** — every block's parallel execution is
  trace-recorded and differentially checked against a fresh serial run of
  the same packed order over the same speculative
  :class:`~repro.pipeline.view.PendingView` it executed against;
* **root-parity twin** — an in-memory StateDB commits the same write
  batches on the stream lane; as blocks seal on the commit lane (possibly
  several blocks behind the speculative head) their headers' state roots
  are compared against the twin's root at the same height — byte-for-byte,
  pipelining notwithstanding.

On the durable backend two long-run stresses ride along:

* **crash injection** (``crashes``, needs ``check``) — at scheduled blocks
  the store is reopened under a :class:`~repro.db.faults.FaultPlan` armed
  to kill the log mid-append; the crash block is produced, the store is
  reopened cleanly (log replay, torn-tail truncation), its height and
  root must equal the twin's, and the crashed block's transactions are
  re-fed — recovery-and-continue, not recovery-and-stop;
* **periodic compaction** (``compact_every``) — stale snapshots are pruned
  on a fixed cadence so db growth versus reclaim shows over the run.

The defaults are sized so backpressure genuinely engages: the stream
produces faster than a block consumes and the mempool is small enough to
hit its high watermark within a few blocks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..chain.txpool import Packer, TransactionPool
from ..db.faults import FaultPlan, InjectedCrash
from ..executors.serial import SerialExecutor
from ..state.statedb import StateDB
from ..verify.oracle import SerializabilityOracle
from ..verify.trace import TraceRecorder
from ..workload.generator import Workload
from ..workload.scenarios import scenario_config
from .driver import PipelinedValidator, PipelineReport
from .source import WorkloadStream

DEFAULT_CRASH_WINDOW = 4096  # byte budget ceiling for an injected crash


@dataclass
class ServeReport:
    """One serve run: the pipeline's report plus the online invariants."""

    scenario: str = ""
    backend: str = "durable"
    seed: int = 0
    check: bool = False
    pipeline: PipelineReport = field(default_factory=PipelineReport)
    oracle_checks: int = 0
    oracle_violations: List[str] = field(default_factory=list)
    oracle_time: float = 0.0
    root_parity_checks: int = 0
    root_mismatches: List[str] = field(default_factory=list)
    crashes_scheduled: int = 0
    crashes_fired: int = 0
    crash_survivals: int = 0      # byte budget outlived the append
    recoveries_ok: int = 0
    recovery_failures: List[str] = field(default_factory=list)
    compactions: int = 0
    bytes_reclaimed: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.oracle_violations
            or self.root_mismatches
            or self.recovery_failures
        )

    def render(self) -> str:
        lines = [self.pipeline.render()]
        if self.check:
            verdict = "OK" if self.ok else "FAILED"
            lines.append(
                f"  oracle: {self.oracle_checks} online check(s), "
                f"{len(self.oracle_violations)} violation(s), "
                f"{self.oracle_time:.1f}s total"
            )
            lines.append(
                f"  root parity: {self.root_parity_checks} sealed root(s) "
                f"checked, {len(self.root_mismatches)} mismatch(es): {verdict}"
            )
            if self.crashes_scheduled:
                lines.append(
                    f"  crashes: {self.crashes_scheduled} scheduled, "
                    f"{self.crashes_fired} fired mid-append, "
                    f"{self.crash_survivals} outlived the budget, "
                    f"{self.recoveries_ok} recovered byte-identical"
                )
            for detail in (
                self.oracle_violations[:5]
                + self.root_mismatches[:5]
                + self.recovery_failures[:5]
            ):
                lines.append(f"    {detail}")
        if self.compactions:
            lines.append(
                f"  compaction: {self.compactions} run(s), "
                f"{self.bytes_reclaimed} bytes reclaimed"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        data = self.pipeline.as_dict()
        data["config"].update({
            "scenario": self.scenario,
            "backend": self.backend,
            "seed": self.seed,
            "check": self.check,
        })
        data["invariants"] = {
            "oracle_checks": self.oracle_checks,
            "oracle_violations": self.oracle_violations,
            "oracle_time_s": round(self.oracle_time, 2),
            "root_parity_checks": self.root_parity_checks,
            "root_mismatches": self.root_mismatches,
            "recovery_failures": self.recovery_failures,
        }
        data["crashes"] = {
            "scheduled": self.crashes_scheduled,
            "fired": self.crashes_fired,
            "survived": self.crash_survivals,
            "recovered": self.recoveries_ok,
        }
        data["compaction"] = {
            "runs": self.compactions,
            "bytes_reclaimed": self.bytes_reclaimed,
        }
        data["ok"] = self.ok
        return data


def _executor_for(scheduler: str):
    from ..executors import DAGExecutor, DMVCCExecutor, OCCExecutor

    factories = {
        "serial": SerialExecutor,
        "occ": OCCExecutor,
        "dag": DAGExecutor,
        "dmvcc": DMVCCExecutor,
    }
    try:
        return factories[scheduler]()
    except KeyError:
        raise ValueError(
            f"unknown scheduler {scheduler!r} "
            f"(choose from {', '.join(factories)})"
        ) from None


class _RecordingExecutor:
    """Wrap an executor so each ``execute_block`` runs under a fresh
    :class:`TraceRecorder`; the stream lane reads ``last_trace`` right
    after the execute stage (same thread, so never racy)."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.last_trace: Optional[TraceRecorder] = None

    @property
    def name(self) -> str:
        return self.inner.name

    @property
    def obs(self):
        return self.inner.obs

    @obs.setter
    def obs(self, bus) -> None:
        self.inner.obs = bus

    def execute_block(self, *args, **kwargs):
        recorder = TraceRecorder()
        previous = self.inner.recorder
        self.inner.recorder = recorder
        try:
            return self.inner.execute_block(*args, **kwargs)
        finally:
            self.inner.recorder = previous
            self.last_trace = recorder


def run_serve(
    blocks: int = 500,
    txs_per_block: int = 32,
    scenario: str = "mix",
    scheduler: str = "dmvcc",
    threads: int = 8,
    seed: int = 2023,
    backend: str = "durable",
    max_inflight: int = 2,
    pool_size: Optional[int] = None,
    min_fee: int = 0,
    per_sender_cap: int = 0,
    max_nonce_gap: Optional[int] = None,
    high_watermark: float = 0.9,
    low_watermark: float = 0.5,
    ingest_rate: Optional[int] = None,
    gas_limit: Optional[int] = None,
    check: bool = False,
    crashes: int = 0,
    compact_every: int = 0,
    fsync_delay: float = 0.0,
    durable_dir: Optional[str] = None,
    workload_overrides: Optional[Dict] = None,
    profile_db: Optional[str] = None,
    obs=None,
    progress: Optional[Callable[[str], None]] = None,
    progress_every: int = 50,
    report_path: Optional[str] = None,
) -> ServeReport:
    """Stream ``blocks`` blocks of a scenario through the pipeline.

    ``pool_size`` defaults to six blocks' worth, ``ingest_rate`` to two
    blocks' worth per cycle, and the watermark band is wide (0.5–0.9): the
    stream outruns consumption, occupancy climbs over the high watermark
    within a few blocks, and draining back under the low watermark takes
    several packed blocks — so ingest genuinely skips pull cycles, it does
    not just toggle.  ``max_inflight=0`` runs the same loop strictly
    sequentially.

    ``crashes`` schedules that many crash cycles (never on the first two
    blocks) and needs the durable backend with ``check`` on, since the
    twin is what recovery is checked against.  ``compact_every`` compacts
    the durable store after every that many sealed blocks.  The pipeline
    drains before each crash cycle and each compaction.
    """
    if backend not in ("memory", "durable"):
        raise ValueError(f"unknown backend {backend!r}")
    if crashes > 0 and (backend != "durable" or not check):
        raise ValueError(
            "crash injection needs the durable backend and --check"
        )
    import shutil
    import tempfile

    config = scenario_config(scenario, seed=seed, **(workload_overrides or {}))
    workload = Workload(config)
    twin = workload.db
    own_dir = durable_dir is None
    if backend == "durable":
        directory = durable_dir or tempfile.mkdtemp(prefix="repro-serve-")
        db = twin.mirror_durable(directory, fsync_delay=fsync_delay)
    else:
        directory = None
        db = twin.fork()

    executor = _executor_for(scheduler)
    if check:
        executor = _RecordingExecutor(executor)
    # Learned-profile continuity across serve runs: with --profile-db the
    # lane planner boots from the persisted heat (if any) and writes the
    # updated store back when the stream drains.
    planner = None
    if profile_db:
        from ..scheduling.planner import LanePlanner
        from ..scheduling.profile import ConflictProfileStore

        try:
            profiles = ConflictProfileStore.load(profile_db)
        except OSError:
            profiles = ConflictProfileStore()
        planner = LanePlanner(profiles=profiles)
    pool = TransactionPool(
        max_size=pool_size or txs_per_block * 6,
        min_fee=min_fee,
        per_sender_cap=per_sender_cap,
        nonce_tracking=True,
        max_nonce_gap=max_nonce_gap,
        high_watermark=high_watermark,
        low_watermark=low_watermark,
        obs=obs,
    )
    packer = Packer(max_txs=txs_per_block, gas_limit=gas_limit, order="fee")
    driver = PipelinedValidator(
        "serve", db, executor, threads=threads,
        pool=pool, packer=packer, max_inflight=max_inflight,
        ingest_rate=ingest_rate or txs_per_block * 2, obs=obs,
        planner=planner,
    )
    source = WorkloadStream(workload, limit=blocks * txs_per_block)

    rng = random.Random(seed ^ 0x50AC)  # harness-side randomness
    # A crash lands mid-stream: committed history behind it, traffic ahead.
    eligible = range(2, max(3, blocks))
    crash_at = set(rng.sample(eligible, min(crashes, len(eligible))))
    report = ServeReport(
        scenario=scenario, backend=backend, seed=seed, check=check,
        pipeline=driver._report, crashes_scheduled=len(crash_at),
    )
    serial = SerialExecutor()
    twin_roots: Dict[int, bytes] = {}
    parity_cursor = [0]  # index into driver.chain already compared
    # During a crash cycle the twin waits for the seal: a block whose
    # commit crashed never reaches the recovered store, so it must not
    # reach the twin either.
    held: Optional[List] = None

    def check_sealed_roots() -> None:
        """Compare every newly sealed header against the twin (online —
        called from the stream lane each block and once after the drain)."""
        with driver._lock:
            headers = driver.chain[parity_cursor[0]:]
        for header in headers:
            parity_cursor[0] += 1
            report.root_parity_checks += 1
            expected = twin_roots.get(header.number)
            if expected is None:
                report.root_mismatches.append(
                    f"block {header.number}: sealed with no twin root"
                )
            elif header.state_root != expected:
                report.root_mismatches.append(
                    f"block {header.number}: sealed root "
                    f"{header.state_root.hex()[:16]} != twin "
                    f"{expected.hex()[:16]}"
                )

    def commit_twin(height, writes) -> None:
        twin.commit(writes)
        twin_roots[height] = twin.latest.root_hash
        check_sealed_roots()

    def on_block(height, view, txs, execution) -> None:
        if check:
            oracle_start = time.perf_counter()
            serial_run = serial.execute_block(
                txs, view, twin.codes.code_of, threads=1,
            )
            oracle = SerializabilityOracle(snapshot_get=view.get_uncached)
            verdict = oracle.check(
                trace=executor.last_trace,
                parallel_writes=execution.writes,
                parallel_receipts=execution.receipts,
                serial_writes=serial_run.writes,
                serial_receipts=serial_run.receipts,
                scheduler=executor.name,
            )
            report.oracle_time += time.perf_counter() - oracle_start
            report.oracle_checks += 1
            if not verdict.ok:
                for divergence in verdict.divergences[:3]:
                    report.oracle_violations.append(
                        f"block {height}: {divergence}"
                    )
            if held is None:
                commit_twin(height, execution.writes)
            else:
                held.append((height, list(txs), execution.writes))
        if progress is not None and height % max(progress_every, 1) == 0:
            progress(
                f"block {height}/{blocks}: pool {len(driver.pool)}, "
                f"{driver._report.queue_stalls} stall(s), "
                f"{driver._report.backpressure_engagements} backpressure "
                f"engagement(s)"
            )

    def crash_cycle() -> bool:
        """Produce one block on a store armed to crash mid-append, then
        recover, check against the twin, and re-feed a crashed block.
        Returns False when recovery diverged (the run stops there)."""
        nonlocal held
        driver.db.close()
        budget = rng.randint(1, DEFAULT_CRASH_WINDOW)
        wounded = StateDB.open(
            directory, faults=FaultPlan(crash_after_bytes=budget),
            fsync_delay=fsync_delay,
        )
        wounded.codes = twin.codes
        driver.adopt_statedb(wounded)
        held = []
        try:
            driver.run(source, 1, on_block=on_block)
            fired = False
        except InjectedCrash:
            fired = True
        attempted, held = held, None
        if fired:
            report.crashes_fired += 1
        else:
            report.crash_survivals += 1
            for height, _txs, writes in attempted:
                commit_twin(height, writes)
        # Simulated process death: the wounded handle is abandoned unclosed
        # either way; a clean reopen replays the log and truncates any torn
        # tail, exactly like a restart after power loss.
        recovered = StateDB.open(directory, fsync_delay=fsync_delay)
        recovered.codes = twin.codes
        number = twin.height + (1 if fired else 0)
        if recovered.height != twin.height:
            report.recovery_failures.append(
                f"block {number}: recovered height {recovered.height}, "
                f"expected {twin.height}"
            )
        elif recovered.latest.root_hash != twin.latest.root_hash:
            report.recovery_failures.append(
                f"block {number}: recovered root "
                f"{recovered.latest.root_hash.hex()[:16]} != twin "
                f"{twin.latest.root_hash.hex()[:16]}"
            )
        else:
            report.recoveries_ok += 1
        if progress is not None:
            progress(
                f"crash at block {number}: budget {budget}B "
                f"{'fired' if fired else 'outlived'}, recovered to height "
                f"{recovered.height}"
            )
        if report.recovery_failures:
            recovered.close()
            return False
        driver.adopt_statedb(recovered)
        if fired:
            driver.pool.restore([tx for _h, txs, _w in attempted for tx in txs])
        return True

    start = driver.height
    compact = compact_every if backend == "durable" else 0
    compacted = 0
    try:
        while True:
            done = driver.height - start
            if compact and done > compacted and done % compact == 0:
                compacted = done
                report.compactions += 1
                report.bytes_reclaimed += driver.db.compact().bytes_reclaimed
            if done >= blocks:
                break
            if done in crash_at:
                crash_at.discard(done)
                if not crash_cycle():
                    break
                continue
            stops = [c for c in crash_at if c > done] + [blocks]
            if compact:
                stops.append((done // compact + 1) * compact)
            driver.run(source, min(stops) - done, on_block=on_block)
            if driver.height - start == done:
                break  # the source ran dry
        if check:
            check_sealed_roots()  # headers sealed after the last on_block
    finally:
        driver.close()
        if planner is not None:
            planner.profiles.save(profile_db)
        driver.db.close()
        if backend == "durable" and own_dir:
            shutil.rmtree(directory, ignore_errors=True)

    if report_path:
        import os

        from ..bench.reporting import save_results_json

        parent = os.path.dirname(report_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        save_results_json(report_path, report.as_dict())
    return report
