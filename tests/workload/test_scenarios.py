"""Scenario-pack execution tests.

Every preset must (a) replay deterministically, (b) execute serially with
no unexpected failures, and (c) stay oracle-clean under the full DMVCC
protocol.  The abort-maximizer must out-abort the generic high-contention
preset — that asymmetry is its whole reason to exist.
"""

import hashlib

import pytest

from repro.executors import DMVCCExecutor, SerialExecutor
from repro.verify import check_block
from repro.workload import (
    SCENARIOS,
    Workload,
    high_contention_config,
    scenario_config,
)

SMALL = dict(users=60, erc20_tokens=3, dex_pools=2, nft_collections=2, icos=1)

# Labels whose serial revert is part of the scenario's design.  A
# cross-partition routed swap can legitimately revert once drifting
# reserves round an intermediate leg's output to zero.
EXPECTED_REVERTS = {"airdrop:reclaim", "storm:cross_route"}


def _preset_workload(name, seed=11):
    return Workload(scenario_config(name, **SMALL, seed=seed))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestEveryPreset:
    def test_deterministic_replay(self, name):
        a = _preset_workload(name)
        b = _preset_workload(name)
        assert a.db.latest.root_hash == b.db.latest.root_hash
        assert a.transactions(150) == b.transactions(150)

    def test_serial_execution_clean(self, name):
        workload = _preset_workload(name)
        serial = SerialExecutor()
        for _ in range(3):
            txs = workload.transactions(80)
            execution = serial.execute_block(
                txs, workload.db.latest, workload.db.codes.code_of
            )
            for tx, receipt in zip(txs, execution.receipts):
                if not receipt.result.success:
                    assert tx.label in EXPECTED_REVERTS, (
                        f"{tx.label} reverted serially under {name}"
                    )
            workload.db.commit(execution.writes)

    def test_dmvcc_oracle_clean(self, name):
        workload = _preset_workload(name)
        executor = DMVCCExecutor()
        for _ in range(3):
            txs = workload.transactions(64)
            report, _trace = check_block(
                executor, txs, workload.db.latest,
                workload.db.codes.code_of, threads=4,
            )
            assert report.ok, report.render()
            execution = executor.execute_block(
                txs, workload.db.latest, workload.db.codes.code_of, threads=4
            )
            workload.db.commit(execution.writes)


# sha256 over (tx_hash, label) of the first 64 transactions at seed 11 on
# the SMALL world.  Pinned so the generator's output stays bit-identical:
# ``mix`` feeds the durable_stream benchmark and rotates through
# cross_shard_storm, whose partition hash lives in this package.
STREAM_DIGESTS = {
    "mix": "76d02355b2d516bac446ff9cbc09a129691d581335510d3211345ea2dbfca769",
    "cross_shard_storm":
        "18f68769531894a138cc5cd6719c13907ef0aef40f4dbb430e00126be4743458",
}


@pytest.mark.parametrize("name", sorted(STREAM_DIGESTS))
def test_stream_digest_pinned(name):
    digest = hashlib.sha256()
    for tx in _preset_workload(name).transactions(64):
        digest.update(tx.tx_hash)
        digest.update(tx.label.encode())
    assert digest.hexdigest() == STREAM_DIGESTS[name]


class TestAbortMaximizer:
    def _abort_rate(self, workload, blocks=4, txs_per_block=48):
        executor = DMVCCExecutor()
        aborts = attempts = 0
        for _ in range(blocks):
            txs = workload.transactions(txs_per_block)
            execution = executor.execute_block(
                txs, workload.db.latest, workload.db.codes.code_of, threads=4
            )
            workload.db.commit(execution.writes)
            aborts += execution.metrics.aborts
            attempts += len(txs)
        return aborts / attempts

    def test_out_aborts_generic_high_contention(self):
        storm = self._abort_rate(_preset_workload("abort_storm"))
        generic = self._abort_rate(
            Workload(high_contention_config(**SMALL, seed=11))
        )
        # The adversarial orderer must beat plain hot-key skew by a wide
        # margin, not a rounding error.
        assert storm > generic + 0.2
        assert storm > 0.3
