"""Declared-merge A/B: merge-declared aborts on a hot ERC-20 balance.

A hot-ERC20-balance block whose exchange payouts are mispredicted (the
C-SAG sees an empty balance; in-block credits make them succeed), so their
late-inserted writes cascade aborts through every reader of the hot key.
Declaring the balances/supplies as bounded SUB merges must cut DMVCC
aborts by >= 50%: guard-outcome stability tolerates the drift instead of
re-executing.  Both runs are parity-checked against serial and the result
is archived as stamped JSON (``merge_ops`` provenance included).
"""

import os
import random

from conftest import scaled

from repro.bench.reporting import save_results_json
from repro.chain.transaction import Transaction
from repro.executors import DMVCCExecutor, SerialExecutor
from repro.workload import Workload, WorkloadConfig


def _hot_balance_case(seed=5):
    """The misprediction workload: exchange payouts whose C-SAG predicted
    failure (empty snapshot balance) succeed in-block once credits land —
    their late-inserted hot-balance writes abort other readers."""
    pull_count = scaled(40, minimum=24)
    credit_count = scaled(40, minimum=24)
    workload = Workload(WorkloadConfig(
        users=max(200, pull_count + credit_count), erc20_tokens=1,
        dex_pools=1, nft_collections=1, icos=1, seed=seed))
    erc20 = workload.contracts.compiled["ERC20"]
    token = workload.contracts.erc20[0]
    exchange = workload.contracts.exchange
    resolver = workload.db.codes.code_of
    rng = random.Random(seed ^ 0x51AD)

    pullers = workload.users[:pull_count]
    creditors = workload.users[pull_count:pull_count + credit_count]
    setup = [Transaction(exchange, token, 0,
                         erc20.encode_call("approve", u, 10**9),
                         nonce=i, label="setup:approve")
             for i, u in enumerate(pullers)]
    setup += [Transaction(exchange, token, 0,
                          erc20.encode_call("mint", u, 50_000),
                          nonce=pull_count + j, label="setup:mint")
              for j, u in enumerate(creditors)]
    seeded = SerialExecutor().execute_block(
        setup, workload.db.latest, resolver)
    assert all(r.result.status.name == "SUCCESS" for r in seeded.receipts)
    workload.db.commit(seeded.writes)

    txs = [Transaction(u, token, 0,
                       erc20.encode_call("transfer", exchange, 10_000),
                       label="credit")
           for u in creditors]
    txs += [Transaction(u, token, 0,
                        erc20.encode_call("transferFrom", exchange, u,
                                          rng.randint(10, 50)),
                        label="pull")
            for u in pullers]
    return workload, txs


def bench_merge_abort_drop():
    """Declared SUB merges vs plain DMVCC on the hot-balance block."""
    workload, txs = _hot_balance_case()
    snapshot = workload.db.latest
    resolver = workload.db.codes.code_of
    reference = SerialExecutor().execute_block(txs, snapshot, resolver)

    plain = DMVCCExecutor().execute_block(
        txs, snapshot, resolver, threads=16)
    assert plain.writes == reference.writes

    declared = DMVCCExecutor()
    registry = workload.declared_merges()
    declared.attach_merges(registry)
    merged = declared.execute_block(txs, snapshot, resolver, threads=16)
    assert merged.writes == reference.writes, "merge-declared run diverged"

    drop = 1.0 - merged.metrics.aborts / max(plain.metrics.aborts, 1)
    document = save_results_json(
        os.environ.get("REPRO_MERGE_BENCH_OUT", "merge_abort_drop.json"),
        {
            "benchmark": "merge_declared_abort_drop",
            "txs": len(txs),
            "aborts": {"plain": plain.metrics.aborts,
                       "declared": merged.metrics.aborts},
            "merge_intents": merged.metrics.merge_intents,
            "merge_tolerated": merged.metrics.merge_tolerated,
            "speedup": {"plain": round(plain.metrics.speedup, 3),
                        "declared": round(merged.metrics.speedup, 3)},
            "abort_drop": round(drop, 3),
        },
        merge_ops=[spec.op.value for _k, spec in registry],
    )
    print(f"\nmerge abort drop ({len(txs)} txs): plain="
          f"{plain.metrics.aborts} declared={merged.metrics.aborts} "
          f"tolerated={merged.metrics.merge_tolerated} "
          f"drop={drop:.0%}")
    assert document["repro_meta"]["merge_ops"] == ["sub"]
    assert plain.metrics.aborts > 0, (
        "misprediction workload produced no plain-DMVCC aborts to cut")
    assert merged.metrics.aborts <= plain.metrics.aborts * 0.5, (
        f"declared merges only cut aborts {drop:.0%} (need >= 50%)")
