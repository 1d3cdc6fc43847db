"""Property tests for the declared-operation merge algebra.

Everything the merge-logged execution path leans on is an algebraic law
of :class:`~repro.state.merge.MergeSpec`:

* folds are order-independent (commutative + associative) for every op;
* bounds-guard outcomes are pure functions of (base, operand) — the same
  misdeclaration aborts identically on every executor;
* a merge-logged parallel execution is byte-identical to plain serial
  read-modify-write over the same block.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Address, StateKey
from repro.core.errors import SchedulingError
from repro.executors.dmvcc import DMVCCExecutor
from repro.executors.serial import SerialExecutor
from repro.state.merge import WORD, MergeOp, MergeRegistry, MergeSpec
from repro.substrate import get_substrate

WORDS = st.integers(min_value=0, max_value=WORD - 1)
SMALL_WORDS = st.integers(min_value=0, max_value=2**64)
OPERAND_LISTS = st.lists(SMALL_WORDS, min_size=0, max_size=12)
OPS = st.sampled_from(list(MergeOp))


def _spec(op: MergeOp) -> MergeSpec:
    # The common real declaration: balances bounded below at zero.
    lower = 0 if op in (MergeOp.ADD, MergeOp.SUB) else None
    return MergeSpec(op=op, lower=lower)


class TestFoldLaws:
    @given(op=OPS, base=WORDS, operands=OPERAND_LISTS,
           rng=st.randoms(use_true_random=False))
    @settings(max_examples=120, deadline=None)
    def test_fold_order_invariant(self, op, base, operands, rng):
        """Any permutation of intent arrival order folds to the same value
        — the property that lets the executor apply intents as they land."""
        spec = _spec(op)
        shuffled = list(operands)
        rng.shuffle(shuffled)
        assert spec.fold(base, operands) == spec.fold(base, shuffled)

    @given(op=OPS, base=WORDS, xs=OPERAND_LISTS, ys=OPERAND_LISTS)
    @settings(max_examples=120, deadline=None)
    def test_fold_associative(self, op, base, xs, ys):
        """Folding in two batches equals folding once — folds can be
        applied incrementally."""
        spec = _spec(op)
        assert spec.fold(spec.fold(base, xs), ys) == spec.fold(base, xs + ys)

    @given(op=st.sampled_from([MergeOp.MAX, MergeOp.MIN, MergeOp.SET_INSERT]),
           base=WORDS, operands=OPERAND_LISTS)
    @settings(max_examples=80, deadline=None)
    def test_idempotent_ops_absorb_duplicates(self, op, base, operands):
        """Semilattice ops tolerate redelivered intents (a re-executed
        transaction must not double-apply)."""
        spec = _spec(op)
        doubled = operands + operands
        assert spec.fold(base, operands) == spec.fold(base, doubled)
        assert op.idempotent and not op.delta_encodable


class TestGuardOutcomes:
    @given(base=WORDS, operand=WORDS)
    @settings(max_examples=150, deadline=None)
    def test_sub_guard_matches_require(self, base, operand):
        """SUB with lower=0 is exactly Solidity's ``require(balance >=
        amount)``: underflow fails (never wraps), everything else passes."""
        spec = MergeSpec(op=MergeOp.SUB, lower=0)
        assert spec.outcome(base, operand) == (operand <= base)

    @given(op=OPS, base=WORDS, operand=SMALL_WORDS,
           lower=st.one_of(st.none(), SMALL_WORDS),
           upper=st.one_of(st.none(), SMALL_WORDS))
    @settings(max_examples=150, deadline=None)
    def test_outcome_deterministic_and_pure(self, op, base, operand,
                                            lower, upper):
        """The guard verdict is a pure function — two evaluations of
        the same (base, operand) can never disagree — and a passing
        verdict always leaves the post-value in bounds."""
        spec = MergeSpec(op=op, lower=lower, upper=upper)
        first = spec.outcome(base, operand)
        assert first == spec.outcome(base, operand)
        if first:
            assert spec.in_bounds(spec.apply(base, operand))

    @given(base=WORDS, operands=OPERAND_LISTS)
    @settings(max_examples=80, deadline=None)
    def test_add_fold_is_modular_sum(self, base, operands):
        spec = MergeSpec(op=MergeOp.ADD)
        assert spec.fold(base, operands) == (base + sum(operands)) % WORD


# -- merge-logged execution vs plain read-modify-write ----------------------

_SMALL = dict(users=40, erc20_tokens=3, dex_pools=2, nft_collections=1,
              icos=1)


def _workload(seed: int):
    from repro.workload import Workload, scenario_config

    return Workload(scenario_config("airdrop_flood", seed=seed, **_SMALL))


class TestMergeLoggedParity:
    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=4, deadline=None)
    def test_merge_logged_dmvcc_matches_rmw_serial(self, seed):
        """DMVCC with the workload's declared registry attached (merge
        intents, guard-outcome validation, delta commits) produces the
        same receipts, writes, and sealed root as plain serial RMW."""
        workload = _workload(seed)
        txs = workload.transactions(32)
        snapshot = workload.db.latest
        resolver = workload.db.codes.code_of

        serial = SerialExecutor().execute_block(txs, snapshot, resolver)
        dmvcc = DMVCCExecutor()
        dmvcc.attach_merges(workload.declared_merges())
        merged = dmvcc.execute_block(txs, snapshot, resolver, threads=8)

        assert [(r.result.status, r.result.gas_used, r.result.return_data,
                 r.result.error) for r in serial.receipts] == \
               [(r.result.status, r.result.gas_used, r.result.return_data,
                 r.result.error) for r in merged.receipts]
        assert serial.writes == merged.writes
        serial_root = workload.db.fork().commit(serial.writes).root_hash
        merged_root = workload.db.fork().commit(merged.writes).root_hash
        assert serial_root == merged_root

    def test_sim_substrate_with_merges_matches_serial(self):
        workload = _workload(7)
        txs = workload.transactions(32)
        snapshot = workload.db.latest
        resolver = workload.db.codes.code_of
        serial = SerialExecutor().execute_block(txs, snapshot, resolver)
        dmvcc = DMVCCExecutor().attach_substrate(get_substrate("sim"))
        dmvcc.attach_merges(workload.declared_merges())
        merged = dmvcc.execute_block(txs, snapshot, resolver, threads=8)
        assert merged.writes == serial.writes
        assert merged.metrics.merge_intents > 0

    @pytest.mark.parametrize("kind", ["threads", "processes"])
    def test_real_substrate_refuses_declared_merges(self, kind):
        """The substrate coordinator knows nothing about merge specs, so a
        declared registry on a real backend is refused, never bypassed."""
        workload = _workload(7)
        dmvcc = DMVCCExecutor().attach_substrate(
            get_substrate(kind, workers=1))
        dmvcc.attach_merges(workload.declared_merges())
        with pytest.raises(SchedulingError, match=kind):
            dmvcc.execute_block(workload.transactions(4), workload.db.latest,
                                workload.db.codes.code_of, threads=2)

    def test_declared_registry_round_trips_json(self):
        registry = _workload(3).declared_merges()
        assert len(registry) > 0
        clone = MergeRegistry.from_json(registry.to_json())
        assert dict(iter(clone)) == dict(iter(registry))

    def test_wrong_declaration_is_callers_liability_docs_exist(self):
        """The generator's declaration helper documents the safety
        argument — a guard against someone blanket-declaring keys whose
        values feed derived storage addressing."""
        from repro.workload.generator import Workload

        doc = Workload.declared_merges.__doc__ or ""
        assert "balance" in doc.lower()
