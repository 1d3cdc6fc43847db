"""Conflict-aware lane planning for block execution order.

The miner is free to choose the order its block's transactions execute
(and seal) in — the packed order travels in the block, so validators
replay whatever the miner chose.  This planner exploits that freedom:

1. **Lane partition** — transactions are grouped into *lanes* (conflict
   components): two transactions share a lane iff they touch a common
   *contested* key (one predicted by static P-SAG/C-SAG analysis to be
   written in this block, or one the learned
   :class:`~repro.scheduling.profile.ConflictProfileStore` marks hot from
   past abort attribution), or come from the same sender (nonce order is
   inviolable).  Lanes are interleaved round-robin into the final order,
   so any window of ~`threads` consecutive transactions — the set a
   scheduler dispatches concurrently — is conflict-disjoint: DMVCC's
   version waits and OCC's validation failures both collapse to the
   intra-lane chains.

2. **Within-lane order** — stable by packed position, which keeps fee
   ordering intact inside the lane and writers ahead of the dependent
   readers that were packed behind them.

3. **Prediction repair** — the real killer of abort cascades: a C-SAG
   pre-executed against the pre-block snapshot is stale the moment an
   earlier in-block transaction writes a key it branches on (the
   abort-maximizer's ``setA``/``UpdateB`` pairs).  Walking each lane in
   planned order with an overlay of the predicted write values, the
   planner re-refines exactly those transactions whose predicted reads
   hit a changed key — so DMVCC executes them with accurate access
   sequences instead of discovering the misprediction by aborting.

Planning is deterministic (a pure function of the inputs) and preserves
per-sender nonce order by construction — `tests/chain/test_mempool.py`
holds the regression line for the fee-ordering interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.types import StateKey
from .profile import ConflictProfileStore


class _OverlaySnapshot:
    """A snapshot view with predicted in-block writes layered on top.

    Quacks enough like :class:`repro.state.statedb.Snapshot` for C-SAG
    refinement (``get`` plus delegated metadata); never used for
    execution proper.
    """

    def __init__(self, base, overlay: Dict[StateKey, int]) -> None:
        self._base = base
        self._overlay = overlay

    def get(self, key: StateKey) -> int:
        if key in self._overlay:
            return self._overlay[key]
        return self._base.get(key)

    def __getattr__(self, name):
        return getattr(self._base, name)


@dataclass
class LanePlan:
    """The planner's verdict for one block."""

    order: List[int]                 # planned position -> packed index
    lanes: List[List[int]]           # lane -> packed indices, in lane order
    contested_keys: Set[StateKey] = field(default_factory=set)
    profile_promotions: int = 0      # keys contested only by learned heat
    repairs: int = 0                 # C-SAGs re-refined against the overlay

    @property
    def moved(self) -> bool:
        return self.order != sorted(self.order)

    @property
    def lane_count(self) -> int:
        return len(self.lanes)

    def apply(self, items: Sequence) -> List:
        """Reorder any per-transaction sequence into the planned order."""
        return [items[i] for i in self.order]

    def as_dict(self) -> dict:
        return {
            "lanes": self.lane_count,
            "moved": self.moved,
            "contested_keys": len(self.contested_keys),
            "profile_promotions": self.profile_promotions,
            "repairs": self.repairs,
        }


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Lower root wins: component identity is its earliest member.
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


class LanePlanner:
    """Partition a packed block into low-conflict lanes and repair stale
    predictions along each lane."""

    def __init__(
        self,
        profiles: Optional[ConflictProfileStore] = None,
        repair: bool = True,
        max_repairs: int = 256,
    ) -> None:
        self.profiles = profiles if profiles is not None else ConflictProfileStore()
        self.repair = repair
        self.max_repairs = max_repairs

    # ------------------------------------------------------------------
    # Feedback (the learning half of the loop)
    # ------------------------------------------------------------------

    def observe(self, attribution, block_number: int = -1) -> None:
        """Fold one executed block's abort attribution into the profiles."""
        self.profiles.observe_block(attribution, block_number)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    @staticmethod
    def _touched(csag) -> Set[StateKey]:
        return (csag.read_keys | csag.write_keys
                | csag.static_read_keys | csag.static_write_keys)

    @staticmethod
    def _written(csag) -> Set[StateKey]:
        return csag.write_keys | csag.static_write_keys

    def plan(self, txs: Sequence, csags: Sequence, snapshot=None,
             builder=None) -> LanePlan:
        """Compute the lane plan for one packed block.

        ``snapshot``/``builder`` enable prediction repair; without them the
        planner only partitions and interleaves.
        """
        count = len(txs)
        if count != len(csags):
            raise ValueError("txs and csags must align")
        if count <= 1:
            return LanePlan(order=list(range(count)),
                            lanes=[[i] for i in range(count)])

        touched = [self._touched(c) for c in csags]
        written: Dict[StateKey, int] = {}
        for keys in (self._written(c) for c in csags):
            for key in keys:
                written[key] = written.get(key, 0) + 1

        # A key is contested when this block predicts a write to it, or
        # when the learned profile says history keeps fighting over it
        # (covering writes the static analysis missed).
        contested: Set[StateKey] = set()
        promotions = 0
        for keys in touched:
            for key in keys:
                if key in contested:
                    continue
                if key in written:
                    contested.add(key)
                elif self.profiles.is_hot(key):
                    contested.add(key)
                    promotions += 1

        uf = _UnionFind(count)
        by_key: Dict[StateKey, int] = {}
        for index in range(count):
            for key in touched[index]:
                if key not in contested:
                    continue
                first = by_key.setdefault(key, index)
                if first != index:
                    uf.union(first, index)
        # Sender chains: nonce order must survive any reorder, so a
        # sender's transactions always share a lane.
        by_sender: Dict[object, int] = {}
        for index, tx in enumerate(txs):
            first = by_sender.setdefault(tx.sender, index)
            if first != index:
                uf.union(first, index)
        # Unanalysable transactions could touch anything; serialize them
        # against each other in one opaque lane rather than guessing.
        opaque = [i for i in range(count)
                  if csags[i].missing or not touched[i]]
        for index in opaque[1:]:
            uf.union(opaque[0], index)

        lanes_by_root: Dict[int, List[int]] = {}
        for index in range(count):
            lanes_by_root.setdefault(uf.find(index), []).append(index)
        # Lane identity = earliest packed member; within-lane order stays
        # stable by packed position (fee order intact, writers first).
        lanes = [lanes_by_root[root] for root in sorted(lanes_by_root)]

        # Round-robin interleave: consecutive planned positions come from
        # different lanes, so a dispatch window of ~threads transactions
        # is conflict-disjoint until lanes run dry.
        order: List[int] = []
        cursors = [0] * len(lanes)
        while len(order) < count:
            for lane_id, lane in enumerate(lanes):
                if cursors[lane_id] < len(lane):
                    order.append(lane[cursors[lane_id]])
                    cursors[lane_id] += 1

        plan = LanePlan(order=order, lanes=lanes, contested_keys=contested,
                        profile_promotions=promotions)
        if self.repair and snapshot is not None and builder is not None:
            self._repair_lanes(plan, txs, csags, snapshot, builder)
        return plan

    def _repair_lanes(self, plan: LanePlan, txs, csags, snapshot,
                      builder) -> None:
        """Re-refine C-SAGs invalidated by earlier in-lane predicted
        writes (mutates ``csags`` in place; counts land in the plan)."""
        # Repairs are refined against a block-local overlay the cache key
        # cannot see (it hashes the underlying snapshot identity), so the
        # content-addressed C-SAG cache must sit out this pass.
        saved_cache = getattr(builder, "_csag_cache", None)
        if saved_cache is not None:
            builder._csag_cache = None
        try:
            self._repair_lanes_uncached(plan, txs, csags, snapshot, builder)
        finally:
            if saved_cache is not None:
                builder._csag_cache = saved_cache

    def _repair_lanes_uncached(self, plan: LanePlan, txs, csags, snapshot,
                               builder) -> None:
        for lane in plan.lanes:
            overlay: Dict[StateKey, int] = {}
            for index in lane:
                csag = csags[index]
                if plan.repairs < self.max_repairs and not csag.missing:
                    stale = {
                        key for key in (csag.read_keys | csag.static_read_keys)
                        if key in overlay and overlay[key] != snapshot.get(key)
                    }
                    if stale:
                        csag = builder.build(
                            txs[index], _OverlaySnapshot(snapshot, overlay))
                        csags[index] = csag
                        plan.repairs += 1
                # Fold this transaction's predicted writes into the
                # overlay, in predicted program order.
                for access in csag.accesses:
                    if access.kind != "write":
                        continue
                    if access.commutative:
                        base = overlay.get(access.key)
                        if base is None:
                            base = snapshot.get(access.key)
                        overlay[access.key] = (base + access.delta) % (1 << 256)
                    else:
                        overlay[access.key] = access.value
