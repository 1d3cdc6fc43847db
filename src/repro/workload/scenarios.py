"""Adversarial workload scenarios: the traffic the paper's mix under-represents.

Garamvölgyi et al. (PAPERS.md) show real Ethereum throughput is dominated
by *application-inherent* hot-key conflicts — airdrop claim floods and NFT
mint storms hammering a single counter — while DeFi composition routes one
transaction through several contracts, and adversarial orderings exist that
deliberately maximize mispredictions.  Each scenario here is a named
:class:`~repro.workload.generator.WorkloadConfig` preset, so the serve
pipeline (``python -m repro serve``), the differential fuzzer
(``repro verify --scenarios``), and the benchmarks all draw from one
corpus:

* **mint_storm** — every transaction mints on one hot NFT collection:
  the shared ``nextTokenId`` counter is a non-commutative serial chain.
* **airdrop_flood** — thousands of distinct claimants read-check and
  decrement one ``remaining`` counter (θ) while their per-user writes stay
  disjoint; a small fraction double-claims (deterministic reverts).
* **flash_loan** — a hand-assembled hub contract that, in ONE transaction,
  bumps its hot ``outstanding`` counter, CALLs ``swapXForY`` on pool A and
  ``swapYForX`` on pool B (real nested message calls), then repays the
  counter — mixed with direct pool traffic that conflicts with the bundles.
* **defi_composition** — a router that chains swaps across three pools in
  one transaction: cross-contract read-write chains only early-write
  visibility can pipeline.
* **reentrancy** — a contract that re-enters itself via CALL to a seeded
  depth, writing the same hot counter in every nested frame (writes
  interleaved with abortable CALLs stress release-point placement).
* **abort_storm** — the adversarial orderer: interleaves ``setA(x, v)``
  and ``UpdateB(x, y)`` pairs on the paper's Fig. 1 contract so nearly
  every pre-executed C-SAG is invalidated by the transaction right before
  it — deliberately maximizing aborts.
* **cross_shard_storm** — partitionable base traffic (single-token ERC-20
  transfers spread uniformly over many tokens) laced with a controlled
  fraction of transactions that span address partitions: Ether transfers
  between accounts hashed to different partitions and routed swaps
  through pools in different partitions.  Two disjoint hot sets joined by
  a tunable fraction of bridging transactions.

The contracts the scenarios need beyond the base mix are one Minisol
source (``Airdrop``, :mod:`.contracts`), the paper's ``Example`` contract,
and two hand-assembled bytecode programs built here (Minisol has no
external-call syntax; the EVM does).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

from ..chain.transaction import Transaction
from ..core.hashing import array_element_slot, keccak, mapping_slot
from ..core.types import Address, StateKey
from ..evm.assembler import assemble

# Every scenario name, in registry order ("mix" rotates over all of them).
SCENARIO_NAMES = (
    "mint_storm",
    "airdrop_flood",
    "flash_loan",
    "defi_composition",
    "reentrancy",
    "abort_storm",
    "cross_shard_storm",
)

# Deep hub inventory in every pool, so bundles never fail on balance.
HUB_POOL_FUNDS = 10**15
AIRDROP_POOL = 10**12


@lru_cache(maxsize=65536)
def _partition(address: Address, partitions: int) -> int:
    """Hash partition of ``address``: keccak of the account bytes modulo
    ``partitions`` (what ``cross_shard_storm`` splits its traffic by)."""
    digest = int.from_bytes(keccak(address.to_bytes())[-8:], "big")
    return digest % partitions


# ---------------------------------------------------------------------------
# Hand-assembled contracts (real cross-contract CALLs)
# ---------------------------------------------------------------------------

def build_router_code(
    swap_x_selector: int,
    swap_y_selector: int,
    legs: int,
    track_outstanding: bool,
) -> bytes:
    """Bytecode for a swap router: calldata is ``legs`` pool addresses then
    one amount, each leg a real CALL into ``swapXForY``/``swapYForX``
    (alternating) that must succeed.

    With ``track_outstanding`` the router is a flash-loan hub: slot 0 is
    read-incremented before the legs and decremented after (a hot θ key
    bracketing abortable CALLs); slot 1 counts completed bundles either way.
    """
    amount_off = 32 * legs
    lines: List[str] = []
    emit = lines.append
    if track_outstanding:
        # outstanding += amount   (read-modify-write of the hot hub key)
        emit("PUSH 0"); emit("SLOAD")
        emit(f"PUSH {amount_off}"); emit("CALLDATALOAD")
        emit("ADD")
        emit("PUSH 0"); emit("SSTORE")
    for i in range(legs):
        selector = swap_x_selector if i % 2 == 0 else swap_y_selector
        # mem[0..36) = selector ++ amount
        emit(f"PUSH {selector << 224}")
        emit("PUSH 0"); emit("MSTORE")
        emit(f"PUSH {amount_off}"); emit("CALLDATALOAD")
        emit("PUSH 4"); emit("MSTORE")
        # CALL(gas, pool_i, 0, in=[0,36), out=[0,0))
        emit("PUSH 0")   # out_len
        emit("PUSH 0")   # out_off
        emit("PUSH 36")  # in_len
        emit("PUSH 0")   # in_off
        emit("PUSH 0")   # value
        emit(f"PUSH {32 * i}"); emit("CALLDATALOAD")  # pool address
        emit("GAS")
        emit("CALL")
        emit("ISZERO"); emit("PUSH :fail"); emit("JUMPI")
    if track_outstanding:
        # outstanding -= amount   (the repayment leg of the bundle)
        emit("PUSH 0"); emit("SLOAD")
        emit(f"PUSH {amount_off}"); emit("CALLDATALOAD")
        emit("SWAP1"); emit("SUB")
        emit("PUSH 0"); emit("SSTORE")
    # bundles += 1
    emit("PUSH 1"); emit("SLOAD"); emit("PUSH 1"); emit("ADD")
    emit("PUSH 1"); emit("SSTORE")
    emit("STOP")
    emit("fail:")
    emit("JUMPDEST")
    emit("PUSH 0"); emit("PUSH 0"); emit("REVERT")
    return assemble("\n".join(lines))


def build_reentrant_code() -> bytes:
    """Bytecode for the re-entrancy storm contract: calldata word 0 is a
    depth; each frame increments hot slot 0, CALLs *itself* with depth-1
    (a genuine re-entrant frame), requires success, then increments slot 1
    after the inner frame returns.  Depth 0 bumps the leaf counter (slot 2).
    """
    return assemble("""
        PUSH 0
        CALLDATALOAD
        DUP1
        ISZERO
        PUSH :leaf
        JUMPI
        ; pre-reentry write of the hot counter
        PUSH 0
        SLOAD
        PUSH 1
        ADD
        PUSH 0
        SSTORE
        ; mem[0] = depth - 1
        PUSH 1
        SWAP1
        SUB
        PUSH 0
        MSTORE
        ; CALL(gas, self, 0, in=[0,32), out=[0,0))
        PUSH 0
        PUSH 0
        PUSH 32
        PUSH 0
        PUSH 0
        ADDRESS
        GAS
        CALL
        ISZERO
        PUSH :fail
        JUMPI
        ; post-reentry write (the frame resumes after its inner call)
        PUSH 1
        SLOAD
        PUSH 1
        ADD
        PUSH 1
        SSTORE
        STOP
    leaf:
        JUMPDEST
        POP
        PUSH 2
        SLOAD
        PUSH 1
        ADD
        PUSH 2
        SSTORE
        STOP
    fail:
        JUMPDEST
        PUSH 0
        PUSH 0
        REVERT
    """)


# ---------------------------------------------------------------------------
# The pack: deploy/seed/generate hooks the Workload calls into
# ---------------------------------------------------------------------------

class ScenarioPack:
    """Scenario-specific contracts, genesis state, and traffic generators.

    Constructed by :class:`~repro.workload.generator.Workload` when its
    config names a scenario.  All randomness flows from the workload's one
    seeded RNG, so scenario streams are bit-reproducible like the base mix.
    """

    def __init__(self, workload) -> None:
        self.w = workload
        config = workload.config
        scenario = config.scenario
        if scenario == "mix":
            self.names = list(SCENARIO_NAMES)
        else:
            names = [s.strip() for s in scenario.split(",") if s.strip()]
            unknown = [s for s in names if s not in SCENARIO_NAMES]
            if unknown:
                raise ValueError(
                    f"unknown scenario(s) {', '.join(unknown)} "
                    f"(choose from {', '.join(SCENARIO_NAMES)} or 'mix')"
                )
            self.names = names
        seed = config.seed
        self.hub = Address.derive(f"flashhub:{seed}")
        self.router = Address.derive(f"router:{seed}")
        self.reentrant = Address.derive(f"reentrant:{seed}")
        self.airdrop = Address.derive(f"airdrop:{seed}")
        self.example = Address.derive(f"example:{seed}")
        # Generator-side tracking (all deterministic under the seed):
        self._pending: List[Transaction] = []
        self._claimants: List[Address] = []
        self._branch_toggle: Dict[Address, bool] = {}
        self.hot_keys: List[Address] = []

    # -- setup hooks ---------------------------------------------------

    def compile_extra(self, compiled: Dict[str, object]) -> None:
        from ..lang.compiler import compile_source
        from .contracts import AIRDROP_SOURCE, PAPER_EXAMPLE_SOURCE

        compiled["Airdrop"] = compile_source(AIRDROP_SOURCE)
        compiled["Example"] = compile_source(PAPER_EXAMPLE_SOURCE)

    def deploy(self) -> None:
        w = self.w
        compiled = w.contracts.compiled
        pool_c = compiled["DEXPool"]
        sel_x = pool_c.abi("swapXForY").selector
        sel_y = pool_c.abi("swapYForX").selector
        w.db.deploy_contract(
            self.hub,
            build_router_code(sel_x, sel_y, legs=2, track_outstanding=True),
            "FlashLoanHub",
        )
        w.db.deploy_contract(
            self.router,
            build_router_code(
                sel_x, sel_y,
                legs=max(2, w.config.composition_legs),
                track_outstanding=False,
            ),
            "Router",
        )
        w.db.deploy_contract(self.reentrant, build_reentrant_code(), "Reentrant")
        w.db.deploy_contract(self.airdrop, compiled["Airdrop"].code, "Airdrop")
        w.db.deploy_contract(self.example, compiled["Example"].code, "Example")
        self.hot_keys = w.users[: max(1, w.config.abort_hot_keys)]

    def seed(self, storage: Dict[StateKey, int]) -> None:
        """Contribute scenario state to the genesis storage batch."""
        w = self.w
        cfg = w.config
        compiled = w.contracts.compiled
        # Airdrop: a deep pool and the per-claim amount.
        airdrop_c = compiled["Airdrop"]
        storage[StateKey(self.airdrop, airdrop_c.slot_of("remaining"))] = AIRDROP_POOL
        storage[StateKey(self.airdrop, airdrop_c.slot_of("claimAmount"))] = (
            max(1, cfg.airdrop_amount)
        )
        # Hub/router inventory in every pool, so legs never fail on balance.
        pool_c = compiled["DEXPool"]
        bx_slot = pool_c.slot_of("balanceX")
        by_slot = pool_c.slot_of("balanceY")
        for pool in w.contracts.pools:
            for agent in (self.hub, self.router):
                storage[StateKey(pool, mapping_slot(agent.to_word(), bx_slot))] = (
                    HUB_POOL_FUNDS
                )
                storage[StateKey(pool, mapping_slot(agent.to_word(), by_slot))] = (
                    HUB_POOL_FUNDS
                )
        # Example: B holds 40 seeded elements; A[x] alternates branch classes
        # over the hot keys so the very first UpdateBs already split paths.
        example_c = compiled["Example"]
        a_slot = example_c.slot_of("A")
        b_slot = example_c.slot_of("B")
        storage[StateKey(self.example, b_slot)] = 40
        for i in range(40):
            storage[StateKey(self.example, array_element_slot(b_slot, i))] = i + 3
        for j, x in enumerate(self.w.users[: max(1, cfg.abort_hot_keys)]):
            storage[StateKey(self.example, mapping_slot(x.to_word(), a_slot))] = (
                0 if j % 2 == 0 else 6
            )

    # -- traffic -------------------------------------------------------

    def maybe_transaction(self) -> Optional[Transaction]:
        """The scenario's next transaction, or None to fall back to the
        base mainnet mix (probability ``1 - scenario_fraction``)."""
        if self._pending:
            return self._pending.pop(0)
        rng = self.w.rng
        if rng.random() >= self.w.config.scenario_fraction:
            return None
        name = self.names[0] if len(self.names) == 1 else rng.choice(self.names)
        return getattr(self, f"_tx_{name}")()

    def _tx_mint_storm(self) -> Transaction:
        w = self.w
        collections = w.contracts.nfts
        collection = (
            collections[0]
            if w.rng.random() < 0.9 or len(collections) == 1
            else w.rng.choice(collections[1:])
        )
        sender = w._user()
        w._nft_owners[collection].append(sender)
        return Transaction(
            sender, collection, 0,
            w.contracts.compiled["NFT"].encode_call("mint"),
            label="nft:mint_storm",
        )

    def _tx_airdrop_flood(self) -> Transaction:
        w = self.w
        rng = w.rng
        airdrop_c = w.contracts.compiled["Airdrop"]
        if self._claimants and rng.random() < 0.03:
            # A double claim: require(claimed == 0) reverts deterministically.
            sender = rng.choice(self._claimants)
            label = "airdrop:reclaim"
        else:
            sender = Address.derive(f"claimant:{len(self._claimants)}:{w.config.seed}")
            self._claimants.append(sender)
            label = "airdrop:claim"
        return Transaction(
            sender, self.airdrop, 0, airdrop_c.encode_call("claim"), label=label,
        )

    def _pick_pools(self, count: int) -> List[Address]:
        pools = self.w.contracts.pools
        picked: List[Address] = []
        for _ in range(count):
            pool = self.w._pick_zipf(pools)
            if len(pools) > 1:
                while picked and pool == picked[-1]:
                    pool = self.w._pick_zipf(pools)
            picked.append(pool)
        return picked

    @staticmethod
    def _route_data(pools: List[Address], amount: int) -> bytes:
        words = [pool.to_word() for pool in pools] + [amount]
        return b"".join(word.to_bytes(32, "big") for word in words)

    def _tx_flash_loan(self) -> Transaction:
        w = self.w
        rng = w.rng
        if rng.random() < 0.25:
            # Direct pool traffic that conflicts with in-flight bundles.
            return w._defi_tx(hot=False)
        pools = self._pick_pools(2)
        # amountIn >= 2: a 1-wei swap rounds amountOut to zero and reverts.
        data = self._route_data(pools, rng.randint(2, 400))
        return Transaction(w._user(), self.hub, 0, data, label="flash:bundle")

    def _tx_defi_composition(self) -> Transaction:
        w = self.w
        rng = w.rng
        if rng.random() < 0.2:
            return w._defi_tx(hot=False)
        legs = max(2, w.config.composition_legs)
        data = self._route_data(self._pick_pools(legs), rng.randint(2, 400))
        return Transaction(w._user(), self.router, 0, data, label="defi:route")

    def _tx_reentrancy(self) -> Transaction:
        w = self.w
        depth = w.rng.randint(1, max(1, w.config.reentrancy_depth))
        return Transaction(
            w._user(), self.reentrant, 0,
            depth.to_bytes(32, "big"),
            label="reentrancy:storm",
        )

    def _tx_cross_shard_storm(self) -> Transaction:
        """Mostly partition-local ERC-20 transfers, salted with deliberate
        cross-partition traffic at the configured ``cross_shard_ratio``."""
        w = self.w
        rng = w.rng
        cfg = w.config
        shards = max(2, cfg.shard_count)
        if rng.random() < cfg.cross_shard_ratio:
            if rng.random() < 0.6 or len(w.contracts.pools) < 2:
                # Ether transfer across the partition boundary: sender and
                # recipient balances live in different partitions.
                sender = w._user()
                recipient = w._recipient(sender)
                for _ in range(16):
                    if _partition(recipient, shards) != _partition(sender, shards):
                        break
                    recipient = w._recipient(sender)
                return Transaction(
                    sender, recipient, rng.randint(1, 10**9),
                    label="storm:cross_ether",
                )
            # Routed swap through two pools hashed to different partitions.
            pools = self._pick_pools(2)
            for _ in range(16):
                if _partition(pools[0], shards) != _partition(pools[1], shards):
                    break
                pools = self._pick_pools(2)
            data = self._route_data(pools, rng.randint(2, 400))
            return Transaction(w._user(), self.router, 0, data,
                               label="storm:cross_route")
        # Partition-local: a transfer inside one uniformly chosen token.
        erc20 = w.contracts.compiled["ERC20"]
        sender = w._user()
        token = rng.choice(w.contracts.erc20)
        data = erc20.encode_call(
            "transfer", w._recipient(sender), rng.randint(1, 1_000))
        return Transaction(sender, token, 0, data, label="storm:local")

    def _tx_abort_storm(self) -> Transaction:
        """Deliberately ordered conflicting pairs: ``setA(x, v)`` flips the
        branch class of ``A[x]``, and the ``UpdateB(x, y)`` queued right
        behind it was (when pooled) pre-executed against the *old* value —
        a near-guaranteed C-SAG misprediction and abort."""
        w = self.w
        rng = w.rng
        example_c = w.contracts.compiled["Example"]
        x = rng.choice(self.hot_keys)
        toggle = not self._branch_toggle.get(x, False)
        self._branch_toggle[x] = toggle
        v = rng.randint(4, 11) if toggle else rng.randint(0, 1)
        self._pending.append(Transaction(
            w._user(), self.example, 0,
            example_c.encode_call("UpdateB", x, rng.randint(1, 10)),
            label="abort:update",
        ))
        if rng.random() < 0.3:
            self._pending.append(Transaction(
                w._user(), self.example, 0,
                example_c.encode_call("UpdateB", x, rng.randint(1, 10)),
                label="abort:update",
            ))
        return Transaction(
            w._user(), self.example, 0,
            example_c.encode_call("setA", x, v),
            label="abort:set",
        )


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

def mint_storm_config(**overrides):
    """NFT mint storm: one hot collection's ``nextTokenId`` counter."""
    from .generator import WorkloadConfig

    defaults = dict(scenario="mint_storm", scenario_fraction=0.9)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def airdrop_flood_config(**overrides):
    """Airdrop claim flood: one hot read-checked ``remaining`` counter."""
    from .generator import WorkloadConfig

    defaults = dict(scenario="airdrop_flood", scenario_fraction=0.9)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def flash_loan_config(**overrides):
    """Flash-loan-style multi-contract bundles through the assembled hub."""
    from .generator import WorkloadConfig

    defaults = dict(scenario="flash_loan", scenario_fraction=0.85)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def defi_composition_config(**overrides):
    """Cross-contract DeFi composition: three-pool routed swaps."""
    from .generator import WorkloadConfig

    defaults = dict(scenario="defi_composition", scenario_fraction=0.85)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def reentrancy_config(**overrides):
    """Re-entrancy-heavy traffic: nested self-calls on hot counters."""
    from .generator import WorkloadConfig

    defaults = dict(scenario="reentrancy", scenario_fraction=0.9)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def abort_storm_config(**overrides):
    """The abort-maximizer: adversarially ordered conflicting writes."""
    from .generator import WorkloadConfig

    defaults = dict(scenario="abort_storm", scenario_fraction=0.95)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def cross_shard_storm_config(**overrides):
    """Partitionable traffic with a controlled cross-partition fraction."""
    from .generator import WorkloadConfig

    defaults = dict(
        scenario="cross_shard_storm",
        scenario_fraction=0.95,
        erc20_tokens=16,
        zipf_alpha=0.0,       # uniform token choice spreads load evenly
        hot_access_prob=0.0,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def soak_mix_config(**overrides):
    """Every adversarial scenario rotating over one chain — the serve diet."""
    from .generator import WorkloadConfig

    defaults = dict(scenario="mix", scenario_fraction=0.8)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


SCENARIOS = {
    "mint_storm": mint_storm_config,
    "airdrop_flood": airdrop_flood_config,
    "flash_loan": flash_loan_config,
    "defi_composition": defi_composition_config,
    "reentrancy": reentrancy_config,
    "abort_storm": abort_storm_config,
    "cross_shard_storm": cross_shard_storm_config,
    "mix": soak_mix_config,
}


def scenario_config(name: str, **overrides):
    """Look up a preset by name; raises ``ValueError`` on unknown names."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r} (choose from {', '.join(SCENARIOS)})"
        ) from None
    return factory(**overrides)
