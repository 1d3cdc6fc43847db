"""Synthetic Ethereum-mainnet workload generator.

Reproduces the traffic mix of the paper's dataset (Jan–Apr 2022):

* 31% plain Ether transfers / 69% contract calls;
* of contract traffic: 60% ERC20, 29% DeFi (AMM swaps / liquidity),
  10% NFT (mints and transfers), ~1% ICO contributions;
* optional *hot-contract skew* for the high-contention experiments: a
  small set of hot targets that each transaction hits with probability
  ``hot_access_prob`` (the paper uses 1% hot contracts, 50% probability).

All randomness flows from one seeded RNG; a given config produces a
bit-identical transaction stream and genesis state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chain.transaction import Transaction
from ..core.types import Address, StateKey
from ..executors.serial import SerialExecutor
from ..lang.compiler import CompiledContract, compile_source
from ..state.statedb import StateDB
from .contracts import DEX_POOL_SOURCE, ERC20_SOURCE, ICO_SOURCE, NFT_SOURCE

ETHER = 10**18


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs for one synthetic workload."""

    users: int = 2_000
    erc20_tokens: int = 20
    dex_pools: int = 8
    nft_collections: int = 6
    icos: int = 2
    # Traffic mix (paper §V-B).
    contract_fraction: float = 0.69
    erc20_share: float = 0.60
    defi_share: float = 0.29
    nft_share: float = 0.10   # remainder (~1%) goes to ICO contributions
    # Contention control (paper RQ2/RQ3 high-contention setting).
    hot_access_prob: float = 0.0
    hot_contract_count: int = 1      # per category when skew is on
    capped_ico: bool = True          # capped ICOs make the counter non-commutative
    exchange_deposit_prob: float = 0.5  # P(hot ERC20 tx is a deposit to the exchange)
    # Mainnet transfer traffic is heavily skewed toward a few popular
    # recipients (exchanges, routers): ~1% of accounts receive a large
    # share of credits.  Those credits are blind increments.
    popular_recipient_prob: float = 0.25
    popular_account_fraction: float = 0.01
    # DeFi traffic mixes swaps (read-write reserve chains) with liquidity
    # provision (commutative reserve adds), as mainnet DeFi does.
    liquidity_prob: float = 0.5
    # NFT traffic mixes fresh mints (hot counter) with transfers of
    # already-minted tokens (disjoint keys).
    nft_mint_prob: float = 0.4
    nft_premint_per_user: int = 2
    # Contract popularity follows a Zipf law on mainnet: the top token /
    # pool / collection receives a disproportionate share of its category's
    # traffic.  alpha=0 gives uniform choice.
    zipf_alpha: float = 1.1
    seed: int = 2023
    user_funds: int = 1_000 * ETHER
    token_funds: int = 10**12
    # Adversarial scenario overlay (see .scenarios).  ``scenario`` names one
    # scenario, a comma-separated list, or "mix" to rotate over all of them;
    # empty string disables the overlay entirely (pure mainnet mix).  Each
    # transaction is drawn from the scenario with ``scenario_fraction``
    # probability and from the base mix otherwise.
    scenario: str = ""
    scenario_fraction: float = 0.8
    # Cross-shard storm: how many address-hash partitions the storm splits
    # its traffic into, and the fraction that deliberately spans two.
    shard_count: int = 4
    cross_shard_ratio: float = 0.15
    reentrancy_depth: int = 6        # max nested self-call depth
    airdrop_amount: int = 50         # tokens per successful claim
    composition_legs: int = 3        # pools chained per routed DeFi tx
    abort_hot_keys: int = 8          # Example-contract keys the storm fights over


@dataclass
class DeployedContracts:
    """Addresses and compiled artefacts of everything on chain."""

    erc20: List[Address] = field(default_factory=list)
    pools: List[Address] = field(default_factory=list)
    nfts: List[Address] = field(default_factory=list)
    icos: List[Address] = field(default_factory=list)
    compiled: Dict[str, CompiledContract] = field(default_factory=dict)
    exchange: Optional[Address] = None  # hot ERC20 deposit sink

    def all_addresses(self) -> List[Address]:
        return self.erc20 + self.pools + self.nfts + self.icos


class Workload:
    """A fully initialised chain state plus a deterministic tx stream."""

    def __init__(self, config: WorkloadConfig) -> None:
        self.config = config
        self.rng = random.Random(config.seed)
        self._zipf_cache: Dict[int, List[float]] = {}
        self.users = [Address.derive(f"user:{i}:{config.seed}") for i in range(config.users)]
        self.contracts = DeployedContracts()
        self.db = StateDB()
        if config.scenario:
            from .scenarios import ScenarioPack

            self.scenarios: Optional[ScenarioPack] = ScenarioPack(self)
        else:
            self.scenarios = None
        self._compile()
        self._deploy()
        self._seed_state()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _compile(self) -> None:
        self.contracts.compiled = {
            "ERC20": compile_source(ERC20_SOURCE),
            "DEXPool": compile_source(DEX_POOL_SOURCE),
            "NFT": compile_source(NFT_SOURCE),
            "ICO": compile_source(ICO_SOURCE),
        }
        if self.scenarios is not None:
            self.scenarios.compile_extra(self.contracts.compiled)

    def _deploy(self) -> None:
        cfg = self.config
        compiled = self.contracts.compiled
        for i in range(cfg.erc20_tokens):
            addr = Address.derive(f"erc20:{i}:{cfg.seed}")
            self.db.deploy_contract(addr, compiled["ERC20"].code, f"ERC20-{i}")
            self.contracts.erc20.append(addr)
        for i in range(cfg.dex_pools):
            addr = Address.derive(f"pool:{i}:{cfg.seed}")
            self.db.deploy_contract(addr, compiled["DEXPool"].code, f"Pool-{i}")
            self.contracts.pools.append(addr)
        for i in range(cfg.nft_collections):
            addr = Address.derive(f"nft:{i}:{cfg.seed}")
            self.db.deploy_contract(addr, compiled["NFT"].code, f"NFT-{i}")
            self.contracts.nfts.append(addr)
        for i in range(cfg.icos):
            addr = Address.derive(f"ico:{i}:{cfg.seed}")
            self.db.deploy_contract(addr, compiled["ICO"].code, f"ICO-{i}")
            self.contracts.icos.append(addr)
        self.contracts.exchange = Address.derive(f"exchange:{cfg.seed}")
        if self.scenarios is not None:
            self.scenarios.deploy()

    def _seed_state(self) -> None:
        """Seed balances, token holdings, pool reserves, and ICO parameters
        directly into the genesis trie (equivalent to — but far faster
        than — executing setup blocks serially), so later C-SAG
        pre-executions see realistic state."""
        from ..core.hashing import mapping_slot
        from ..core.types import StateKey

        cfg = self.config
        compiled = self.contracts.compiled
        balances = {user: cfg.user_funds for user in self.users}
        balances[self.contracts.exchange] = cfg.user_funds

        storage: Dict[StateKey, int] = {}
        erc20 = compiled["ERC20"]
        bal_slot = erc20.slot_of("balanceOf")
        supply_slot = erc20.slot_of("totalSupply")
        for token in self.contracts.erc20:
            for user in self.users:
                storage[StateKey(token, mapping_slot(user.to_word(), bal_slot))] = (
                    cfg.token_funds
                )
            storage[StateKey(token, supply_slot)] = cfg.token_funds * len(self.users)

        pool_c = compiled["DEXPool"]
        rx_slot = pool_c.slot_of("reserveX")
        ry_slot = pool_c.slot_of("reserveY")
        bx_slot = pool_c.slot_of("balanceX")
        by_slot = pool_c.slot_of("balanceY")
        for pool in self.contracts.pools:
            # Deep reserves so swaps rarely drain a side.
            storage[StateKey(pool, rx_slot)] = 10**15
            storage[StateKey(pool, ry_slot)] = 10**15
            for user in self.users:
                storage[StateKey(pool, mapping_slot(user.to_word(), bx_slot))] = (
                    cfg.token_funds
                )
                storage[StateKey(pool, mapping_slot(user.to_word(), by_slot))] = (
                    cfg.token_funds
                )

        ico_c = compiled["ICO"]
        cap_slot = ico_c.slot_of("cap")
        rate_slot = ico_c.slot_of("rate")
        for ico in self.contracts.icos:
            if cfg.capped_ico:
                storage[StateKey(ico, cap_slot)] = 10**15
            storage[StateKey(ico, rate_slot)] = 100

        # Pre-minted NFTs: token i of each collection starts owned by user
        # i mod users, so transfer traffic has real tokens to move.
        nft_c = compiled["NFT"]
        next_id_slot = nft_c.slot_of("nextTokenId")
        owner_slot = nft_c.slot_of("ownerOf")
        nft_bal_slot = nft_c.slot_of("balanceOf")
        self._nft_owners: Dict[Address, List[Address]] = {}
        premint = min(len(self.users), 500) * cfg.nft_premint_per_user
        for collection in self.contracts.nfts:
            owners: List[Address] = []
            counts: Dict[Address, int] = {}
            for token_id in range(premint):
                owner = self.users[token_id % len(self.users)]
                owners.append(owner)
                counts[owner] = counts.get(owner, 0) + 1
                storage[StateKey(collection, mapping_slot(token_id, owner_slot))] = (
                    owner.to_word()
                )
            for owner, count in counts.items():
                storage[StateKey(collection, mapping_slot(owner.to_word(), nft_bal_slot))] = count
            storage[StateKey(collection, next_id_slot)] = premint
            self._nft_owners[collection] = owners

        if self.scenarios is not None:
            self.scenarios.seed(storage)
        self.db.seed_genesis(balances, storage)

    def commit_serially(self, txs: List[Transaction], chunk: int = 5_000) -> None:
        """Execute and commit transactions serially in chunked blocks.

        Used to advance the workload's chain (e.g. warming state between
        generated blocks); raises if any setup transaction fails.  Before
        the first post-seed commit the genesis root is re-derived from the
        snapshot's contents and asserted byte-identical (the root must be a
        pure function of the seeded state, or later root-parity checks are
        meaningless), and each chunk commit is surfaced through the DB's
        obs bus instead of looping silently.
        """
        from ..core.errors import StateError
        from ..trie.mpt import Trie

        if self.db.height == 0:
            rebuilt = Trie(self.db._store)
            rebuilt.commit_batch(self.db.latest.items())
            if rebuilt.root_hash != self.db.latest.root_hash:
                raise StateError(
                    "post-seed root unstable: rebuilding the genesis trie "
                    f"gave {rebuilt.root_hash.hex()[:12]}… instead of "
                    f"{self.db.latest.root_hash.hex()[:12]}…"
                )
        executor = SerialExecutor()
        obs = self.db.obs
        committed = 0
        for start in range(0, len(txs), chunk):
            block = txs[start : start + chunk]
            result = executor.execute_block(block, self.db.latest, self.db.codes.code_of)
            failed = [r for r in result.receipts if not r.result.success]
            if failed:
                raise RuntimeError(f"workload setup tx failed: {failed[0]}")
            previous_root = self.db.latest.root_hash
            snapshot = self.db.commit(result.writes)
            if not result.writes and snapshot.root_hash != previous_root:
                raise StateError("empty commit drifted the state root")
            committed += len(block)
            if obs is not None:
                obs.workload_chunk(
                    0.0, snapshot.height, committed, len(txs), snapshot.root_hash,
                )

    def declared_merges(self):
        """A :class:`~repro.state.merge.MergeRegistry` declaring this
        workload's provably commutative keys.

        Only ERC-20 balances and total supplies qualify: their values feed
        nothing but the declared bounds guard (``balance >= amount``) and
        the ``±`` arithmetic itself, which is exactly what outcome-stable
        merge validation covers.  Everything else stays undeclared — NFT id
        counters pick derived storage keys, AMM reserves price the opposite
        side, ICO counters gate a cap — so declaring them would change
        semantics (a wrong declaration, the contract author's liability).
        """
        from ..core.hashing import mapping_slot
        from ..state.merge import MergeOp, MergeRegistry

        registry = MergeRegistry()
        erc20 = self.contracts.compiled["ERC20"]
        bal_slot = erc20.slot_of("balanceOf")
        supply_slot = erc20.slot_of("totalSupply")
        holders = list(self.users)
        if self.contracts.exchange is not None:
            holders.append(self.contracts.exchange)
        for token in self.contracts.erc20:
            registry.declare(StateKey(token, supply_slot), MergeOp.SUB, lower=0)
            for holder in holders:
                registry.declare(
                    StateKey(token, mapping_slot(holder.to_word(), bal_slot)),
                    MergeOp.SUB, lower=0,
                )
        return registry

    # ------------------------------------------------------------------
    # Transaction stream
    # ------------------------------------------------------------------

    def _pick_hot(self, pool: List[Address]) -> List[Address]:
        return pool[: max(1, self.config.hot_contract_count)]

    def _pick_zipf(self, pool: List[Address]) -> Address:
        """Zipf-weighted contract choice (rank-1/rank^alpha)."""
        alpha = self.config.zipf_alpha
        if alpha <= 0 or len(pool) == 1:
            return self.rng.choice(pool)
        weights = self._zipf_weights(len(pool), alpha)
        return self.rng.choices(pool, cum_weights=weights, k=1)[0]

    def _zipf_weights(self, n: int, alpha: float) -> List[float]:
        cached = self._zipf_cache.get(n)
        if cached is None:
            total = 0.0
            cached = []
            for rank in range(1, n + 1):
                total += 1.0 / rank**alpha
                cached.append(total)
            self._zipf_cache[n] = cached
        return cached

    def transactions(self, count: int) -> List[Transaction]:
        """Generate ``count`` transactions with the configured mix."""
        return [self._one_transaction() for _ in range(count)]

    def blocks(self, block_count: int, txs_per_block: int) -> List[List[Transaction]]:
        """The paper's repacking: fixed-size blocks from the stream."""
        return [
            self.transactions(txs_per_block)
            for _ in range(block_count)
        ]

    def _one_transaction(self) -> Transaction:
        cfg = self.config
        rng = self.rng
        if self.scenarios is not None:
            scenario_tx = self.scenarios.maybe_transaction()
            if scenario_tx is not None:
                return scenario_tx
        hot = cfg.hot_access_prob > 0 and rng.random() < cfg.hot_access_prob
        if rng.random() >= cfg.contract_fraction:
            return self._ether_transfer(hot)
        share = rng.random()
        if share < cfg.erc20_share:
            return self._erc20_tx(hot)
        if share < cfg.erc20_share + cfg.defi_share:
            return self._defi_tx(hot)
        if share < cfg.erc20_share + cfg.defi_share + cfg.nft_share:
            return self._nft_tx(hot)
        return self._ico_tx(hot)

    def _user(self) -> Address:
        return self.rng.choice(self.users)

    def _recipient(self, sender: Address) -> Address:
        """Pick a transfer recipient with mainnet-style popularity skew."""
        cfg = self.config
        if self.rng.random() < cfg.popular_recipient_prob:
            popular = max(1, int(len(self.users) * cfg.popular_account_fraction))
            return self.rng.choice(self.users[:popular])
        recipient = self._user()
        while recipient == sender:
            recipient = self._user()
        return recipient

    def _ether_transfer(self, hot: bool) -> Transaction:
        sender = self._user()
        if hot:
            # Everyone pays the same hot account (exchange deposits).
            recipient = self.contracts.exchange
        else:
            recipient = self._recipient(sender)
        return Transaction(
            sender, recipient, self.rng.randint(1, 10**9), label="ether",
        )

    def _erc20_tx(self, hot: bool) -> Transaction:
        erc20 = self.contracts.compiled["ERC20"]
        rng = self.rng
        sender = self._user()
        token = (
            rng.choice(self._pick_hot(self.contracts.erc20))
            if hot else self._pick_zipf(self.contracts.erc20)
        )
        if hot and rng.random() < self.config.exchange_deposit_prob:
            recipient = self.contracts.exchange  # commutative hot credit
        else:
            recipient = self._recipient(sender)
        roll = rng.random()
        if roll < 0.85:
            data = erc20.encode_call("transfer", recipient, rng.randint(1, 1_000))
            label = "erc20:transfer"
        elif roll < 0.95:
            data = erc20.encode_call("approve", recipient, rng.randint(1, 10_000))
            label = "erc20:approve"
        else:
            data = erc20.encode_call("mint", recipient, rng.randint(1, 1_000))
            label = "erc20:mint"
        return Transaction(sender, token, 0, data, label=label)

    def _defi_tx(self, hot: bool) -> Transaction:
        pool_c = self.contracts.compiled["DEXPool"]
        rng = self.rng
        sender = self._user()
        pool = (
            rng.choice(self._pick_hot(self.contracts.pools))
            if hot else rng.choice(self.contracts.pools)
        )
        amount = rng.randint(1, 500)
        if rng.random() < self.config.liquidity_prob:
            # Liquidity provision: reserve updates are blind increments.
            data = pool_c.encode_call("addLiquidity", amount, amount)
            label = "defi:addLiquidity"
        elif rng.random() < 0.5:
            data = pool_c.encode_call("swapXForY", amount)
            label = "defi:swapX"
        else:
            data = pool_c.encode_call("swapYForX", amount)
            label = "defi:swapY"
        return Transaction(sender, pool, 0, data, label=label)

    def _nft_tx(self, hot: bool) -> Transaction:
        nft_c = self.contracts.compiled["NFT"]
        rng = self.rng
        collection = (
            rng.choice(self._pick_hot(self.contracts.nfts))
            if hot else self._pick_zipf(self.contracts.nfts)
        )
        owners = self._nft_owners[collection]
        if rng.random() < self.config.nft_mint_prob or not owners:
            sender = self._user()
            self._nft_owners[collection].append(sender)
            return Transaction(
                sender, collection, 0, nft_c.encode_call("mint"), label="nft:mint",
            )
        token_id = rng.randrange(len(owners))
        sender = owners[token_id]
        recipient = self._recipient(sender)
        owners[token_id] = recipient
        return Transaction(
            sender, collection, 0,
            nft_c.encode_call("transfer", recipient, token_id),
            label="nft:transfer",
        )

    def _ico_tx(self, hot: bool) -> Transaction:
        ico_c = self.contracts.compiled["ICO"]
        rng = self.rng
        sender = self._user()
        ico = (
            rng.choice(self._pick_hot(self.contracts.icos))
            if hot else self._pick_zipf(self.contracts.icos)
        )
        return Transaction(
            sender, ico, 0,
            ico_c.encode_call("contribute", rng.randint(1, 10_000)),
            label="ico:contribute",
        )


def low_contention_config(**overrides) -> WorkloadConfig:
    """The paper's mainnet-mix setting (Fig. 7(a) / Fig. 8(a))."""
    return WorkloadConfig(**overrides)


def high_contention_config(**overrides) -> WorkloadConfig:
    """The paper's skewed setting: hot contracts hit with 50% probability
    (Fig. 7(b) / Fig. 8(b))."""
    defaults = dict(hot_access_prob=0.5, hot_contract_count=1)
    defaults.update(overrides)
    return WorkloadConfig(**defaults)
