"""LanePlanner: partition invariants, determinism, prediction repair.

The planner's hard invariants (regression-tested here):

* the planned order is a permutation of the packed order;
* a sender's transactions never reorder relative to each other (nonce
  order is consensus-critical);
* transactions sharing a predicted-written key share a lane; transactions
  sharing only reads do not;
* planning is a pure function of its inputs (identical plans on repeat);
* prediction repair re-refines exactly the C-SAGs whose predicted reads
  were invalidated by earlier in-lane predicted writes.
"""

import pytest

from repro.analysis.csag import CSAG, PredictedAccess
from repro.chain import Transaction
from repro.core import Address, StateKey
from repro.obs.attribution import AbortAttribution
from repro.obs.events import EventBus
from repro.scheduling import ConflictProfileStore, LanePlanner

CONTRACT = Address.derive("planned")
SENDERS = [Address.derive(f"plan-sender-{i}") for i in range(12)]


def csag_for(reads=(), writes=(), missing=False):
    accesses = (
        [PredictedAccess("read", k, 0, 0) for k in reads]
        + [PredictedAccess("write", k, 0, 1) for k in writes]
    )
    return CSAG(accesses=accesses, missing=missing)


def tx_for(i, sender=None, nonce=0, fee=0):
    return Transaction(
        sender if sender is not None else SENDERS[i],
        CONTRACT, value=0, nonce=nonce, fee=fee, label=f"t{i}",
    )


def key(slot):
    return StateKey(CONTRACT, slot)


class TestPartition:
    def test_order_is_permutation(self):
        txs = [tx_for(i) for i in range(6)]
        csags = [csag_for(writes=[key(i)]) for i in range(6)]
        plan = LanePlanner().plan(txs, csags)
        assert sorted(plan.order) == list(range(6))

    def test_disjoint_writers_get_separate_lanes(self):
        txs = [tx_for(i) for i in range(4)]
        csags = [csag_for(writes=[key(i)]) for i in range(4)]
        plan = LanePlanner().plan(txs, csags)
        assert plan.lane_count == 4

    def test_shared_written_key_merges_lanes(self):
        txs = [tx_for(i) for i in range(3)]
        csags = [
            csag_for(writes=[key(1)]),
            csag_for(reads=[key(1)]),       # reads what 0 writes
            csag_for(writes=[key(9)]),
        ]
        plan = LanePlanner().plan(txs, csags)
        assert plan.lane_count == 2
        lane_of = {i: n for n, lane in enumerate(plan.lanes) for i in lane}
        assert lane_of[0] == lane_of[1]
        assert lane_of[2] != lane_of[0]

    def test_read_sharing_never_merges(self):
        txs = [tx_for(i) for i in range(3)]
        csags = [csag_for(reads=[key(7)], writes=[key(10 + i)])
                 for i in range(3)]
        plan = LanePlanner().plan(txs, csags)
        assert plan.lane_count == 3
        assert key(7) not in plan.contested_keys

    def test_missing_csags_share_one_opaque_lane(self):
        txs = [tx_for(i) for i in range(4)]
        csags = [
            csag_for(writes=[key(1)]),
            csag_for(missing=True),
            csag_for(writes=[key(2)]),
            csag_for(missing=True),
        ]
        plan = LanePlanner().plan(txs, csags)
        lane_of = {i: n for n, lane in enumerate(plan.lanes) for i in lane}
        assert lane_of[1] == lane_of[3]

    def test_interleave_separates_lane_neighbours(self):
        # Two lanes of two: round-robin must alternate them.
        txs = [tx_for(i) for i in range(4)]
        csags = [
            csag_for(writes=[key(1)]), csag_for(writes=[key(1)]),
            csag_for(writes=[key(2)]), csag_for(writes=[key(2)]),
        ]
        plan = LanePlanner().plan(txs, csags)
        assert plan.order == [0, 2, 1, 3]
        assert plan.moved

    def test_single_tx_trivial_plan(self):
        plan = LanePlanner().plan([tx_for(0)], [csag_for(writes=[key(1)])])
        assert plan.order == [0]
        assert not plan.moved


class TestSenderInvariant:
    def test_same_sender_shares_a_lane(self):
        sender = SENDERS[0]
        txs = [tx_for(i, sender=sender, nonce=i) for i in range(3)]
        csags = [csag_for(writes=[key(10 + i)]) for i in range(3)]
        plan = LanePlanner().plan(txs, csags)
        assert plan.lane_count == 1

    def test_nonce_order_survives_any_plan(self):
        # Mixed senders with interleaved conflicting keys: whatever the
        # lanes look like, each sender's transactions stay in packed
        # (= nonce) order in the planned sequence.
        txs, csags = [], []
        for i in range(9):
            sender = SENDERS[i % 3]
            txs.append(tx_for(i, sender=sender, nonce=i // 3))
            csags.append(csag_for(writes=[key(i % 4)]))
        plan = LanePlanner().plan(txs, csags)
        for sender in SENDERS[:3]:
            nonces = [txs[i].nonce for i in plan.order
                      if txs[i].sender == sender]
            assert nonces == sorted(nonces)


class TestDeterminism:
    def test_identical_inputs_identical_plan(self):
        txs = [tx_for(i, sender=SENDERS[i % 4]) for i in range(8)]
        csags = [csag_for(writes=[key(i % 3)]) for i in range(8)]
        a = LanePlanner().plan(txs, csags)
        b = LanePlanner().plan(txs, csags)
        assert a.order == b.order
        assert a.lanes == b.lanes
        assert a.contested_keys == b.contested_keys


class TestProfilePromotion:
    def test_hot_key_promotes_read_sharing_to_contested(self):
        # No in-block write to key(7), but the learned profile marks it
        # hot: the planner must serialize its readers.
        txs = [tx_for(i) for i in range(2)]
        csags = [csag_for(reads=[key(7)], writes=[key(10 + i)])
                 for i in range(2)]
        profiles = ConflictProfileStore(hot_threshold=1.0)
        bus = EventBus()
        bus.tx_abort(0.0, 1, attempt=1, key=key(7), writer=0)
        profiles.observe_block(AbortAttribution.from_events(bus.events))
        plan = LanePlanner(profiles=profiles).plan(txs, csags)
        assert plan.lane_count == 1
        assert plan.profile_promotions >= 1

    def test_observe_feeds_profiles(self):
        planner = LanePlanner()
        bus = EventBus()
        bus.tx_abort(0.0, 1, attempt=1, key=key(3), writer=0)
        planner.observe(AbortAttribution.from_events(bus.events), 5)
        assert planner.profiles.heat(key(3)) > 0


class TestPredictionRepair:
    @pytest.fixture(scope="class")
    def workload_case(self):
        from repro.workload import Workload
        from repro.workload.scenarios import scenario_config

        config = scenario_config(
            "abort_storm", seed=7, users=40, erc20_tokens=2, dex_pools=2,
            nft_collections=2, icos=1,
        )
        workload = Workload(config)
        return workload, workload.transactions(16)

    def test_repairs_fire_on_dependent_chains(self, workload_case):
        from repro.analysis.csag import CSAGBuilder

        workload, txs = workload_case
        snapshot = workload.db.latest
        builder = CSAGBuilder(workload.db.codes.code_of)
        csags = [builder.build(tx, snapshot) for tx in txs]
        stale_before = list(csags)
        plan = LanePlanner().plan(txs, csags, snapshot, builder)
        # abort_storm is built around setA/UpdateB mispredictions: at
        # least one downstream C-SAG must have been re-refined, in place.
        assert plan.repairs > 0
        assert any(a is not b for a, b in zip(stale_before, csags))

    def test_repair_disabled_leaves_csags_alone(self, workload_case):
        from repro.analysis.csag import CSAGBuilder

        workload, txs = workload_case
        snapshot = workload.db.latest
        builder = CSAGBuilder(workload.db.codes.code_of)
        csags = [builder.build(tx, snapshot) for tx in txs]
        before = list(csags)
        plan = LanePlanner(repair=False).plan(txs, csags, snapshot, builder)
        assert plan.repairs == 0
        assert all(a is b for a, b in zip(before, csags))

    def test_repair_respects_cap(self, workload_case):
        from repro.analysis.csag import CSAGBuilder

        workload, txs = workload_case
        snapshot = workload.db.latest
        builder = CSAGBuilder(workload.db.codes.code_of)
        csags = [builder.build(tx, snapshot) for tx in txs]
        plan = LanePlanner(max_repairs=1).plan(txs, csags, snapshot, builder)
        assert plan.repairs <= 1

    def test_csag_cache_restored_after_repair(self, workload_case):
        from repro.analysis.csag import CSAGBuilder, CSAGCache

        workload, txs = workload_case
        snapshot = workload.db.latest
        cache = CSAGCache()
        builder = CSAGBuilder(workload.db.codes.code_of, csag_cache=cache)
        csags = [builder.build(tx, snapshot) for tx in txs]
        LanePlanner().plan(txs, csags, snapshot, builder)
        assert builder._csag_cache is cache
