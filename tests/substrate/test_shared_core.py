"""One protocol core per scheduler: the real-substrate drivers run the
executors' own state machines, so the protocol events they emit and the
errors they raise match the simulator's."""

from collections import Counter

import pytest

from repro.core.errors import SchedulingError
from repro.executors import (
    DAGExecutor,
    DMVCCExecutor,
    OCCExecutor,
    ScheduleReplayExecutor,
)
from repro.obs import EventBus
from repro.scheduling.schedule import Schedule, ScheduleEntry

from ..conftest import scenario_case


def _run(executor, substrate=None):
    workload, txs = scenario_case("abort_storm")
    if substrate is not None:
        executor.attach_substrate(substrate)
    return executor.execute_block(
        txs, workload.db.latest, workload.db.codes.code_of, threads=4)


def _event_counts(executor, substrate=None) -> Counter:
    bus = EventBus()
    _run(executor.attach_obs(bus), substrate)
    return Counter(type(e).__name__ for e in bus.events)


def test_dmvcc_version_waits_balanced_on_threads(threads_substrate):
    counts = _event_counts(DMVCCExecutor(), threads_substrate)
    assert counts["VersionWaitBegin"] > 0
    assert counts["VersionWaitBegin"] == counts["VersionWaitEnd"]


def test_dag_lock_waits_match_sim_on_threads(threads_substrate):
    sim = _event_counts(DAGExecutor())
    real = _event_counts(DAGExecutor(), threads_substrate)
    assert (sim["LockWaitBegin"], sim["LockWaitEnd"]) == (15, 15)
    assert real["LockWaitBegin"] == sim["LockWaitBegin"]
    assert real["LockWaitEnd"] == sim["LockWaitEnd"]


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_occ_non_convergence_raises_scheduling_error(backend,
                                                     threads_substrate):
    substrate = threads_substrate if backend == "threads" else None
    with pytest.raises(SchedulingError,
                       match=r"^occ failed to converge in 1 rounds; "
                             r"unfinished: \[\d+(, \d+)*\]$"):
        _run(OCCExecutor(max_rounds=1), substrate)


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_fork_join_deadlock_raises_scheduling_error(backend,
                                                    threads_substrate):
    """A cyclic schedule can never finish: both fork-join loops name the
    scheduler and the transactions left unfinished."""
    workload, txs = scenario_case("abort_storm")
    entries = tuple(
        ScheduleEntry(index=i, preds=(1 - i,) if i < 2 else (), reads=(),
                      writes=())
        for i in range(len(txs)))
    executor = ScheduleReplayExecutor(Schedule(entries))
    substrate = threads_substrate if backend == "threads" else None
    with pytest.raises(SchedulingError,
                       match=r"^replay deadlocked; unfinished: \[0, 1\]$"):
        _run(executor, substrate)
