"""Fault injection: a worker SIGKILLed mid-block must not corrupt the
block — the coordinator re-dispatches the lost work and the output stays
byte-identical to the simulator."""

import threading
import time

import pytest

from repro.executors import DAGExecutor, DMVCCExecutor
from repro.obs import EventBus
from repro.obs.events import WorkerCrashed
from repro.substrate import get_substrate
from repro.verify.substrate import receipt_digest

from ..conftest import scenario_case


@pytest.mark.slow
def test_sigkill_mid_block_recovers_and_matches_sim():
    workload, txs = scenario_case("airdrop_flood", txs=24)
    args = (txs, workload.db.latest, workload.db.codes.code_of)
    reference = DMVCCExecutor().execute_block(*args, threads=3)

    # worker_delay widens the in-flight window so the kill lands while
    # tasks are genuinely outstanding instead of racing an empty pool.
    substrate = get_substrate("processes", workers=3, worker_delay=0.01,
                              task_timeout=30.0)
    try:
        pool = substrate.acquire(3)
        victim_pid = pool.pid_of(1)
        bus = EventBus()
        executor = DMVCCExecutor().attach_substrate(substrate).attach_obs(bus)

        def killer():
            time.sleep(0.05)
            pool.kill_worker(1)

        thread = threading.Thread(target=killer)
        thread.start()
        execution = executor.execute_block(*args, threads=3)
        thread.join()

        crashes = [e for e in bus.events if isinstance(e, WorkerCrashed)]
        assert crashes, "SIGKILL produced no WorkerCrashed event"
        assert execution.metrics.worker_crashes >= 1
        assert pool.pid_of(1) != victim_pid, "victim was not respawned"

        assert receipt_digest(execution) == receipt_digest(reference)
        assert execution.writes == reference.writes
        root = workload.db.fork().commit(execution.writes).root_hash
        ref_root = workload.db.fork().commit(reference.writes).root_hash
        assert root == ref_root
    finally:
        substrate.close()


@pytest.mark.slow
def test_block_survives_repeated_kills():
    """Kill two different workers during one block; output still exact."""
    workload, txs = scenario_case("mint_storm", txs=24)
    args = (txs, workload.db.latest, workload.db.codes.code_of)
    reference = DMVCCExecutor().execute_block(*args, threads=3)

    substrate = get_substrate("processes", workers=3, worker_delay=0.01,
                              task_timeout=30.0)
    try:
        pool = substrate.acquire(3)
        executor = DMVCCExecutor().attach_substrate(substrate)

        def killer():
            for victim in (0, 2):
                time.sleep(0.04)
                pool.kill_worker(victim)

        thread = threading.Thread(target=killer)
        thread.start()
        execution = executor.execute_block(*args, threads=3)
        thread.join()

        assert execution.writes == reference.writes
        assert receipt_digest(execution) == receipt_digest(reference)
    finally:
        substrate.close()


@pytest.mark.slow
def test_dag_worker_kill_counts_crash_not_abort():
    """DAG shares replay's fork-join loop: a lost task re-runs with its
    identical view and is counted only as a crash, never as an abort."""
    workload, txs = scenario_case("mix", txs=24)
    args = (txs, workload.db.latest, workload.db.codes.code_of)
    reference = DAGExecutor().execute_block(*args, threads=3)

    substrate = get_substrate("processes", workers=3, worker_delay=0.01,
                              task_timeout=30.0)
    try:
        pool = substrate.acquire(3)
        executor = DAGExecutor().attach_substrate(substrate)

        def killer():
            time.sleep(0.04)
            pool.kill_worker(1)

        thread = threading.Thread(target=killer)
        thread.start()
        execution = executor.execute_block(*args, threads=3)
        thread.join()

        assert execution.metrics.worker_crashes >= 1
        assert sum(t.aborted_times for t in execution.metrics.per_tx) == 0
        assert receipt_digest(execution) == receipt_digest(reference)
        assert execution.writes == reference.writes
    finally:
        substrate.close()
