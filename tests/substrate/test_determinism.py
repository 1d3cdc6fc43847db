"""Worker determinism: fixed seed + stable tx→worker assignment must make
real-backend runs reproducible, run to run and pool to pool."""

import os

from repro.executors import DMVCCExecutor, OCCExecutor
from repro.substrate import ENV_SUBSTRATE, ENV_WORKERS, get_substrate
from repro.verify.substrate import receipt_digest

from ..conftest import scenario_case


def _full_digest(execution):
    return (receipt_digest(execution), sorted(execution.writes.items()))


def test_two_runs_identical_on_shared_pool(processes_substrate):
    """Same substrate, same block, twice: identical receipts and writes.
    (The regression this pins: unseeded worker state or unstable task
    assignment would make physical timing leak into the output.)"""
    workload, txs = scenario_case("defi_composition")
    args = (txs, workload.db.latest, workload.db.codes.code_of)
    first = DMVCCExecutor().attach_substrate(
        processes_substrate).execute_block(*args, threads=3)
    second = DMVCCExecutor().attach_substrate(
        processes_substrate).execute_block(*args, threads=3)
    assert _full_digest(first) == _full_digest(second)


def test_fresh_pools_with_same_seed_agree():
    """Two independently spawned pools (same seed) produce the same
    output — per-worker RNG seeding is (seed, worker_id)-derived, not
    spawn-order- or pid-derived."""
    workload, txs = scenario_case("reentrancy")
    args = (txs, workload.db.latest, workload.db.codes.code_of)
    digests = []
    for _ in range(2):
        substrate = get_substrate("processes", workers=3, seed=99)
        try:
            execution = OCCExecutor().attach_substrate(
                substrate).execute_block(*args, threads=3)
        finally:
            substrate.close()
        digests.append(_full_digest(execution))
    assert digests[0] == digests[1]


def test_env_default_substrate_applies(monkeypatch):
    """REPRO_SUBSTRATE/REPRO_SUBSTRATE_WORKERS route every executor onto
    the selected backend with no call-site changes (the CI hook)."""
    import repro.substrate.base as base

    monkeypatch.setenv(ENV_SUBSTRATE, "threads")
    monkeypatch.setenv(ENV_WORKERS, "2")
    monkeypatch.setattr(base, "_default", None, raising=False)
    try:
        workload, txs = scenario_case("mint_storm")
        execution = DMVCCExecutor().execute_block(
            txs, workload.db.latest, workload.db.codes.code_of, threads=3)
        assert execution.metrics.backend == "threads"
        assert execution.metrics.workers == 2
    finally:
        if base._default is not None:
            base._default.close()
        monkeypatch.setattr(base, "_default", None, raising=False)
