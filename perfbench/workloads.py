"""The three benchmark workloads and the correctness gate they share.

Every workload runs one closed loop in one process: a single generator
whose transactions were all made at set-up from the seed, and a node that
takes the next block only when the previous one is done.  DMVCC runs at
16 simulated threads on the gas-clock ``sim`` substrate (one OS thread);
``durable_stream`` adds the pipeline's commit-lane thread.

* ``mainnet`` — the paper's low-contention mix through
  ``Validator.receive_transaction`` + ``propose_block`` in memory: C-SAG
  analysis and EVM interpretation dominate and DMVCC aborts nothing.
* ``contended`` — the ``abort_storm`` preset through the same path: most
  executions are aborted re-executions, so the executors' publish /
  retract / abort / resume path does the work.
* ``durable_stream`` — the ``serve`` pipeline (mempool, lane planner,
  overlapped seal + persist) on the ``mix`` preset over the durable
  backend with real fsync.
"""

from __future__ import annotations

import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chain.txpool import Packer, TransactionPool
from repro.chain.validator import Validator
from repro.evm.environment import BlockContext
from repro.executors import DMVCCExecutor, SerialExecutor
from repro.pipeline import IteratorSource, PipelinedValidator, WorkloadStream
from repro.scheduling.planner import LanePlanner
from repro.substrate.base import SimSubstrate
from repro.workload.generator import Workload, low_contention_config
from repro.workload.scenarios import scenario_config

USERS = 500
THREADS = 16


@dataclass
class Sealed:
    """One sealed block as the correctness gate replays it."""

    number: int
    timestamp: int
    txs: list
    root: Optional[bytes]


@dataclass
class Phase:
    """What one timed region produced."""

    elapsed: float = 0.0
    txs: int = 0
    block_times: List[float] = field(default_factory=list)
    metrics: list = field(default_factory=list)      # BlockMetrics per block
    error: Optional[str] = None
    exhausted: bool = False
    pipeline: dict = field(default_factory=dict)     # durable_stream only
    repairs: int = 0
    reorders: int = 0
    rss_mb: float = 0.0      # peak RSS once the first min_blocks were done


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _dmvcc() -> DMVCCExecutor:
    return DMVCCExecutor().attach_substrate(SimSubstrate())


class ValidatorWorld:
    """A world for ``mainnet``/``contended``: a validator over an
    in-memory StateDB, its genesis fork for the reference, and the
    pre-generated blocks."""

    def __init__(self, spec: "ValidatorWorkload", seed: int, tx_budget: int,
                 workdir: str) -> None:
        self.workload = Workload(spec.config(seed))
        count = max(spec.min_blocks, -(-tx_budget // spec.block_size))
        self.blocks = self.workload.blocks(count, spec.block_size)
        self.reference = self.workload.db.fork()
        self.validator = Validator(
            "bench", self.workload.db, _dmvcc(), threads=THREADS,
            packer=Packer(max_txs=spec.block_size),
        )
        self.cursor = 0
        self.sealed: List[Sealed] = []

    @property
    def executor(self):
        return self.validator.executor

    @property
    def planner(self):
        return None

    def close(self) -> None:
        pass


class _Spec:
    """One workload: its config from the seed, its block size, and how
    many transactions to pre-generate per timed second."""

    world = None  # the World class the workload builds

    def __init__(self, name: str, config, block_size: int, min_blocks: int,
                 tx_rate_cap: int) -> None:
        self.name = name
        self.config = config
        self.block_size = block_size
        # The gas-clock speedup and peak RSS are taken over exactly the
        # first ``min_blocks`` blocks, which every run executes, so they
        # do not drift with how many blocks the machine's speed allowed.
        self.min_blocks = min_blocks
        # Transactions per timed second to pre-generate: several times
        # today's throughput, so a faster program rarely runs dry (a dry
        # run ends early and says so; its rates stay valid).
        self.tx_rate_cap = tx_rate_cap

    def build(self, seed: int, seconds: float, phases: int, workdir: str):
        return self.world(self, seed, int(self.tx_rate_cap * seconds * phases),
                          workdir)


class ValidatorWorkload(_Spec):
    """Blocks go through ``receive_transaction`` then ``propose_block``;
    a block's time is that receive + propose."""

    world = ValidatorWorld

    def run(self, world: ValidatorWorld, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        validator = world.validator
        start = time.perf_counter()
        deadline = start + seconds
        done = 0
        while done < self.min_blocks or time.perf_counter() < deadline:
            if world.cursor >= len(world.blocks):
                phase.exhausted = True
                break
            block_txs = world.blocks[world.cursor]
            world.cursor += 1
            if tracer is not None:
                tracer.block = validator.height + 1
            token = tracer.begin("chain.block") if tracer is not None else None
            began = time.perf_counter()
            try:
                for tx in block_txs:
                    validator.receive_transaction(tx)
                block, execution = validator.propose_block()
            except Exception as error:  # a failed block ends the run
                phase.error = f"block {validator.height + 1}: {error!r}"
                break
            finally:
                if tracer is not None:
                    tracer.end(token)
            phase.block_times.append(time.perf_counter() - began)
            phase.metrics.append(execution.metrics)
            phase.txs += len(block.transactions)
            world.sealed.append(Sealed(block.number, block.header.timestamp,
                                       list(block.transactions),
                                       block.header.state_root))
            done += 1
            if done == self.min_blocks:
                phase.rss_mb = _peak_rss_mb()
        phase.elapsed = time.perf_counter() - start
        return phase


class _DeadlineSource:
    """Pulls from the shared :class:`IteratorSource` until the deadline has
    passed *and* the run has produced its minimum block count; then it
    reports itself exhausted so the driver drains the pool and stops."""

    def __init__(self, inner: IteratorSource, deadline: float,
                 produced, min_blocks: int) -> None:
        self.inner = inner
        self.deadline = deadline
        self.produced = produced
        self.min_blocks = min_blocks
        self.stopped = False

    @property
    def exhausted(self) -> bool:
        return self.stopped or self.inner.exhausted

    def pull(self, n: int):
        if self.produced() >= self.min_blocks and \
                time.perf_counter() >= self.deadline:
            self.stopped = True
        if self.stopped:
            return []
        return self.inner.pull(n)


class PipelineWorld:
    """A world for ``durable_stream``: the durable mirror the pipeline
    drives, the untouched in-memory genesis the reference replays on, and
    the pre-generated, nonce- and fee-stamped transactions."""

    def __init__(self, spec: "PipelineWorkload", seed: int, tx_budget: int,
                 workdir: str) -> None:
        self.workload = Workload(spec.config(seed))
        self.reference = self.workload.db
        self.directory = tempfile.mkdtemp(prefix="durable-", dir=workdir)
        self.db = self.workload.db.mirror_durable(self.directory)
        budget = max(tx_budget, spec.min_blocks * spec.block_size * 2)
        self.source = IteratorSource(
            WorkloadStream(self.workload).pull(budget))
        self.driver = PipelinedValidator(
            "bench", self.db, _dmvcc(), threads=THREADS,
            pool=TransactionPool(
                max_size=spec.block_size * 6, nonce_tracking=True,
                high_watermark=0.9, low_watermark=0.5,
            ),
            packer=Packer(max_txs=spec.block_size, order="fee"),
            max_inflight=2, ingest_rate=spec.block_size * 2,
            planner=LanePlanner(),
        )
        self.sealed: List[Sealed] = []
        self.totals = {}     # pipeline report totals after the last phase

    @property
    def executor(self):
        return self.driver.executor

    @property
    def planner(self):
        return self.driver.planner

    def close(self) -> None:
        self.driver.close()
        self.db.close()
        shutil.rmtree(self.directory, ignore_errors=True)


def _pipeline_totals(report) -> dict:
    totals = {f"{name}_busy_s": stage.busy
              for name, stage in report.stages.items()}
    totals.update(
        overlap_s=report.overlap_seconds, stall_s=report.stall_time,
        backpressure=report.backpressure_engagements,
        blocks=report.blocks, txs=report.txs,
        repairs=report.planner_repairs, reorders=report.planner_reorders,
    )
    return totals


class PipelineWorkload(_Spec):
    """Stamped transactions stream through ``PipelinedValidator.run``; a
    block's time is the spacing of blocks leaving the execute stage, which
    the bounded seal queue ties to seal and persist."""

    world = PipelineWorld

    def run(self, world: PipelineWorld, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        driver = world.driver
        recorded: List[tuple] = []
        start = time.perf_counter()
        last = [start]

        def on_block(height, view, txs, execution) -> None:
            now = time.perf_counter()
            phase.block_times.append(now - last[0])
            last[0] = now
            phase.metrics.append(execution.metrics)
            recorded.append((height, list(txs)))
            if len(recorded) == self.min_blocks:
                phase.rss_mb = _peak_rss_mb()
            if tracer is not None:
                tracer.block = height + 1

        source = _DeadlineSource(world.source, start + seconds,
                                 lambda: len(recorded), self.min_blocks)
        if tracer is not None:
            tracer.block = driver.height + 1
        token = tracer.begin("pipeline.run") if tracer is not None else None
        report = None
        try:
            report = driver.run(source, 1 << 30, on_block=on_block)
        except Exception as error:  # a failed block ends the run
            phase.error = f"pipeline: {error!r}"
        finally:
            if tracer is not None:
                tracer.end(token)
        phase.elapsed = time.perf_counter() - start
        phase.exhausted = world.source.exhausted
        if report is not None:
            totals = _pipeline_totals(report)
            delta = {key: value - world.totals.get(key, 0)
                     for key, value in totals.items()}
            world.totals = totals
            phase.txs = delta.pop("txs")
            delta.pop("blocks")
            phase.repairs = delta.pop("repairs")
            phase.reorders = delta.pop("reorders")
            phase.pipeline = delta
        roots = {block.number: block.header.state_root
                 for block in driver.blocks}
        for height, txs in recorded:
            world.sealed.append(Sealed(height, height, txs, roots.get(height)))
        return phase


WORKLOADS = {
    "mainnet": ValidatorWorkload(
        "mainnet",
        lambda seed: low_contention_config(users=USERS, seed=seed),
        block_size=200, min_blocks=20, tx_rate_cap=2_500,
    ),
    "contended": ValidatorWorkload(
        "contended",
        lambda seed: scenario_config("abort_storm", users=USERS, seed=seed),
        block_size=64, min_blocks=20, tx_rate_cap=700,
    ),
    "durable_stream": PipelineWorkload(
        "durable_stream",
        lambda seed: scenario_config("mix", users=USERS, seed=seed),
        block_size=32, min_blocks=40, tx_rate_cap=1_300,
    ),
}


def verify(world, tracer=None) -> "tuple[List[str], Dict[int, int]]":
    """Replay every sealed block's packed order with ``SerialExecutor`` on
    the independent genesis fork and compare sealed roots.

    Returns the failure descriptions (one per bad block) and the EVM
    instructions each block's serial run dispatched, by height.
    """
    reference = world.reference
    serial = SerialExecutor()
    failures: List[str] = []
    instructions: Dict[int, int] = {}
    for sealed in world.sealed:
        if sealed.root is None:
            failures.append(
                f"block {sealed.number}: executed but never sealed")
            continue
        if reference.height != sealed.number - 1:
            failures.append(f"block {sealed.number}: reference at "
                            f"height {reference.height}")
            continue
        token = tracer.begin("evm.serial", sealed.number) if tracer else None
        try:
            execution = serial.execute_block(
                sealed.txs, reference.latest, reference.codes.code_of,
                threads=1, block=BlockContext(sealed.number, sealed.timestamp),
            )
        finally:
            if tracer is not None:
                tracer.end(token)
        instructions[sealed.number] = sum(
            r.result.steps for r in execution.receipts)
        reference.commit(execution.writes)
        if reference.latest.root_hash != sealed.root:
            failures.append(
                f"block {sealed.number}: sealed root {sealed.root.hex()[:16]} "
                f"!= serial {reference.latest.root_hash.hex()[:16]}")
    return failures, instructions
