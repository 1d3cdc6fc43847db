"""Backend parity: real threads and real processes must be byte-identical
to the discrete-event simulator on every scenario preset and scheduler —
receipts, write sets, sealed Merkle roots — and the PR-1 serializability
oracle must hold over traces recorded on the real backends."""

import pytest

from repro.executors import DAGExecutor, DMVCCExecutor, OCCExecutor, SerialExecutor
from repro.verify import check_block
from repro.verify.substrate import receipt_digest
from repro.workload.scenarios import SCENARIO_NAMES

from ..conftest import scenario_case

FACTORIES = {
    "serial": SerialExecutor,
    "occ": OCCExecutor,
    "dag": DAGExecutor,
    "dmvcc": DMVCCExecutor,
}


@pytest.mark.parametrize("scheduler", sorted(FACTORIES))
@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_backends_byte_identical_to_sim(scenario, scheduler,
                                        threads_substrate,
                                        processes_substrate):
    """The tentpole acceptance check: same receipts, writes, and root on
    sim, threads, and processes for every preset × scheduler."""
    workload, txs = scenario_case(scenario)
    snapshot = workload.db.latest
    resolver = workload.db.codes.code_of
    base = FACTORIES[scheduler]().execute_block(
        txs, snapshot, resolver, threads=4)
    base_root = workload.db.fork().commit(base.writes).root_hash
    for substrate in (threads_substrate, processes_substrate):
        execution = FACTORIES[scheduler]().attach_substrate(
            substrate).execute_block(txs, snapshot, resolver, threads=4)
        label = f"{scenario}/{scheduler}/{substrate.kind}"
        assert receipt_digest(execution) == receipt_digest(base), label
        assert execution.writes == base.writes, label
        root = workload.db.fork().commit(execution.writes).root_hash
        assert root == base_root, label
        assert execution.metrics.backend == substrate.kind


@pytest.mark.parametrize("scheduler", ["occ", "dag", "dmvcc"])
def test_oracle_holds_on_processes_backend(scheduler, processes_substrate):
    """Traces recorded while running on real multiprocessing workers must
    satisfy the serializability oracle (conflict-graph acyclicity, state
    and receipt equivalence, visibility hygiene)."""
    workload, txs = scenario_case("abort_storm")
    executor = FACTORIES[scheduler]().attach_substrate(processes_substrate)
    report, _trace = check_block(
        executor, txs, workload.db.latest, workload.db.codes.code_of,
        threads=3)
    assert report.ok, report.render()


def test_serial_on_real_backend_stays_serial(processes_substrate):
    """Serial never ships work to workers; it only stamps the backend so
    wall-vs-gas tables line up."""
    workload, txs = scenario_case("mint_storm")
    execution = SerialExecutor().attach_substrate(
        processes_substrate).execute_block(
            txs, workload.db.latest, workload.db.codes.code_of)
    assert execution.metrics.backend == "processes"
    assert execution.metrics.workers == 1
    assert execution.metrics.view_misses == 0
