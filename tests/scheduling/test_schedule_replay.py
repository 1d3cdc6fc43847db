"""Schedule artifacts and deterministic replay.

The tentpole contract:

* the :class:`Schedule` compacted from a block's execution trace is a pure
  function of the committed execution — so the sim, threads, and processes
  substrates all emit the *identical* artifact for the same block;
* replaying a block from its schedule runs with conflict discovery
  disabled — zero aborts, zero speculation — and is byte-identical to the
  fresh speculative execution (receipts, write sets, sealed roots), on
  every substrate, including under injected worker crashes;
* the sealed sidecar binds schedule to block hash and survives a JSON
  round trip; a mismatched sidecar is rejected at import.
"""

import threading
import time

import pytest

from repro.chain import Packer, Validator
from repro.core.errors import InvalidBlock
from repro.executors import DMVCCExecutor, ScheduleReplayExecutor
from repro.scheduling import BlockSidecar, LanePlanner, Schedule
from repro.substrate import get_substrate
from repro.verify.substrate import receipt_digest
from repro.verify.trace import TraceRecorder

from ..conftest import scenario_case

SCENARIOS = ("mix", "abort_storm")
THREADS = 3


def traced_execution(workload, txs, substrate=None):
    """Execute one DMVCC block with a recorder on; return (execution,
    schedule)."""
    recorder = TraceRecorder()
    executor = DMVCCExecutor().attach_recorder(recorder)
    if substrate is not None:
        executor.attach_substrate(substrate)
    execution = executor.execute_block(
        txs, workload.db.latest, workload.db.codes.code_of, threads=THREADS)
    schedule = Schedule.from_trace(recorder, len(txs), producer="dmvcc")
    return execution, schedule


class TestScheduleConstruction:
    def test_preds_point_backwards(self):
        workload, txs = scenario_case("mix")
        _, schedule = traced_execution(workload, txs)
        for entry in schedule.entries:
            assert all(p < entry.index for p in entry.preds)

    def test_depth_bounded_by_block(self):
        workload, txs = scenario_case("mix")
        _, schedule = traced_execution(workload, txs)
        assert 1 <= schedule.depth() <= schedule.tx_count

    def test_lanes_cover_every_tx(self):
        workload, txs = scenario_case("abort_storm")
        _, schedule = traced_execution(workload, txs)
        flat = sorted(i for lane in schedule.lanes() for i in lane)
        assert flat == list(range(schedule.tx_count))

    def test_json_round_trip_preserves_digest(self):
        workload, txs = scenario_case("mix")
        _, schedule = traced_execution(workload, txs)
        clone = Schedule.from_json(schedule.to_json())
        assert clone.digest() == schedule.digest()
        assert clone.preds() == schedule.preds()


class TestCrossSubstrateIdentity:
    """PR 8 guarantees byte-identical committed executions across the
    substrates; the schedule artifact, being a pure function of the
    committed execution, must therefore be identical too."""

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_threads_emit_the_sim_schedule(self, scenario, threads_substrate):
        workload, txs = scenario_case(scenario)
        _, sim_schedule = traced_execution(workload, txs)
        _, threads_schedule = traced_execution(
            workload, txs, substrate=threads_substrate)
        assert threads_schedule.digest() == sim_schedule.digest()

    @pytest.mark.slow
    def test_processes_emit_the_sim_schedule(self, processes_substrate):
        workload, txs = scenario_case("mix")
        _, sim_schedule = traced_execution(workload, txs)
        _, processes_schedule = traced_execution(
            workload, txs, substrate=processes_substrate)
        assert processes_schedule.digest() == sim_schedule.digest()


class TestReplayParity:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_sim_replay_byte_identical_zero_aborts(self, scenario):
        workload, txs = scenario_case(scenario)
        reference, schedule = traced_execution(workload, txs)
        replay = ScheduleReplayExecutor(schedule).execute_block(
            txs, workload.db.latest, workload.db.codes.code_of,
            threads=THREADS)
        assert replay.metrics.replayed
        assert replay.metrics.aborts == 0
        assert replay.metrics.executions == len(txs)
        assert receipt_digest(replay) == receipt_digest(reference)
        assert replay.writes == reference.writes
        root = workload.db.fork().commit(replay.writes).root_hash
        ref_root = workload.db.fork().commit(reference.writes).root_hash
        assert root == ref_root

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_threads_replay_byte_identical(self, scenario, threads_substrate):
        workload, txs = scenario_case(scenario)
        reference, schedule = traced_execution(workload, txs)
        executor = ScheduleReplayExecutor(schedule).attach_substrate(
            threads_substrate)
        replay = executor.execute_block(
            txs, workload.db.latest, workload.db.codes.code_of,
            threads=THREADS)
        assert replay.metrics.replayed
        assert replay.metrics.aborts == 0
        assert replay.metrics.view_misses == 0, (
            "schedule views must ship every key the replay reads")
        assert receipt_digest(replay) == receipt_digest(reference)
        assert replay.writes == reference.writes

    @pytest.mark.slow
    def test_processes_replay_byte_identical(self, processes_substrate):
        workload, txs = scenario_case("abort_storm")
        reference, schedule = traced_execution(workload, txs)
        executor = ScheduleReplayExecutor(schedule).attach_substrate(
            processes_substrate)
        replay = executor.execute_block(
            txs, workload.db.latest, workload.db.codes.code_of,
            threads=THREADS)
        assert replay.metrics.aborts == 0
        assert receipt_digest(replay) == receipt_digest(reference)
        assert replay.writes == reference.writes

    def test_tx_count_mismatch_rejected(self):
        workload, txs = scenario_case("mix")
        _, schedule = traced_execution(workload, txs)
        with pytest.raises(ValueError):
            ScheduleReplayExecutor(schedule).execute_block(
                txs[:-1], workload.db.latest, workload.db.codes.code_of,
                threads=THREADS)


@pytest.mark.slow
class TestReplayUnderCrash:
    def test_replay_survives_worker_kill_byte_identical(self):
        workload, txs = scenario_case("mix", txs=24)
        reference, schedule = traced_execution(workload, txs)
        substrate = get_substrate("processes", workers=3, worker_delay=0.01,
                                  task_timeout=30.0)
        try:
            pool = substrate.acquire(3)
            executor = ScheduleReplayExecutor(schedule).attach_substrate(
                substrate)

            def killer():
                time.sleep(0.04)
                pool.kill_worker(1)

            thread = threading.Thread(target=killer)
            thread.start()
            replay = executor.execute_block(
                txs, workload.db.latest, workload.db.codes.code_of,
                threads=3)
            thread.join()
            assert replay.metrics.aborts == 0
            # A dead worker is not a conflict: its lost tasks re-run with
            # identical views and count only as crashes.
            assert replay.metrics.worker_crashes >= 1
            assert sum(t.aborted_times for t in replay.metrics.per_tx) == 0
            assert receipt_digest(replay) == receipt_digest(reference)
            assert replay.writes == reference.writes
        finally:
            substrate.close()


class TestValidatorReplayMode:
    """The miner-produces/validator-replays loop end to end."""

    @staticmethod
    def _mining_pair(scenario="mix", planner=True):
        workload, txs = scenario_case(scenario)
        miner = Validator(
            "miner", workload.db.fork(), DMVCCExecutor(), threads=THREADS,
            packer=Packer(max_txs=len(txs)),
            planner=LanePlanner() if planner else None,
            emit_schedules=True,
        )
        follower = Validator(
            "follower", workload.db.fork(), DMVCCExecutor(), threads=THREADS)
        for tx in txs:
            miner.receive_transaction(tx)
        return miner, follower

    def test_import_with_sidecar_replays_and_verifies_root(self):
        miner, follower = self._mining_pair()
        block, _ = miner.propose_block(timestamp=1)
        sidecar = miner.sidecars[block.number]
        execution = follower.import_block(block, schedule=sidecar)
        assert execution.metrics.replayed
        assert execution.metrics.aborts == 0
        assert follower.stats.replayed_blocks == 1
        assert follower.state_root() == block.header.state_root

    def test_import_with_bare_schedule(self):
        miner, follower = self._mining_pair(planner=False)
        block, execution = miner.propose_block(timestamp=1)
        assert execution.schedule is not None
        follower.import_block(block, schedule=execution.schedule)
        assert follower.state_root() == block.header.state_root

    def test_replay_matches_fresh_import(self):
        miner, fresh = self._mining_pair(scenario="abort_storm")
        block, _ = miner.propose_block(timestamp=1)
        sidecar = miner.sidecars[block.number]
        replayer = Validator(
            "replayer", fresh.db.fork(), DMVCCExecutor(), threads=THREADS)
        fresh_exec = fresh.import_block(block)
        replay_exec = replayer.import_block(block, schedule=sidecar)
        assert receipt_digest(replay_exec) == receipt_digest(fresh_exec)
        assert replay_exec.writes == fresh_exec.writes
        assert replayer.state_root() == fresh.state_root()

    def test_wrong_block_sidecar_rejected(self):
        miner, follower = self._mining_pair()
        block, _ = miner.propose_block(timestamp=1)
        sidecar = miner.sidecars[block.number]
        tampered = BlockSidecar(b"\x00" * 32, sidecar.schedule)
        with pytest.raises(InvalidBlock):
            follower.import_block(block, schedule=tampered)

    def test_tx_count_mismatch_rejected(self):
        miner, follower = self._mining_pair()
        block, execution = miner.propose_block(timestamp=1)
        truncated = Schedule(entries=execution.schedule.entries[:-1])
        with pytest.raises(InvalidBlock):
            follower.import_block(block, schedule=truncated)

    def test_sidecar_json_round_trip(self):
        miner, _ = self._mining_pair()
        block, _ = miner.propose_block(timestamp=1)
        sidecar = miner.sidecars[block.number]
        clone = BlockSidecar.from_json(sidecar.to_json())
        assert clone.digest() == sidecar.digest()

    def test_tampered_sidecar_json_rejected(self):
        miner, _ = self._mining_pair()
        block, _ = miner.propose_block(timestamp=1)
        payload = miner.sidecars[block.number].to_json()
        payload["block_hash"] = "00" * 32
        with pytest.raises(ValueError):
            BlockSidecar.from_json(payload)
