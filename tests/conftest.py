"""Shared fixtures: compiled contracts, funded chains, tx helpers,
scaled-down scenario blocks, and the real execution substrates."""

from __future__ import annotations

import os

import pytest


def pytest_collection_modifyitems(config, items):
    """Skip ``sim_clock``-marked tests when the environment routes every
    executor onto a real backend (threads/processes).  Those tests assert
    discrete-event-clock internals — makespan, early-write visibility,
    mid-flight checkpoint resume — that real workers, which run each
    transaction to completion off the simulated timeline, legitimately do
    not reproduce.  The parity contract on real backends is receipts,
    write sets, and roots, which the substrate suites cover."""
    backend = os.environ.get("REPRO_SUBSTRATE", "sim")
    if backend not in ("threads", "processes"):
        return
    skip = pytest.mark.skip(
        reason=f"simulated-clock assertion; default substrate is {backend}")
    for item in items:
        if "sim_clock" in item.keywords:
            item.add_marker(skip)

from repro.chain.transaction import Transaction
from repro.core import Address, StateKey, mapping_slot
from repro.executors.serial import SerialExecutor, run_tx_serially
from repro.lang import compile_source
from repro.state import StateDB
from repro.workload.contracts import (
    COUNTER_SOURCE,
    DEX_POOL_SOURCE,
    ERC20_SOURCE,
    ICO_SOURCE,
    NFT_SOURCE,
    PAPER_EXAMPLE_SOURCE,
)
from repro.workload import Workload
from repro.workload.scenarios import scenario_config

TOKEN_SOURCE = """
contract Token {
    uint totalSupply;
    mapping(address => uint) balanceOf;

    function mint(address to, uint amount) public {
        totalSupply += amount;
        balanceOf[to] += amount;
    }

    function transfer(address to, uint amount) public {
        require(balanceOf[msg.sender] >= amount);
        balanceOf[msg.sender] -= amount;
        balanceOf[to] += amount;
    }

    function balanceOfUser(address who) public view returns (uint) {
        return balanceOf[who];
    }
}
"""


@pytest.fixture(scope="session")
def token_contract():
    return compile_source(TOKEN_SOURCE)


@pytest.fixture(scope="session")
def erc20_contract():
    return compile_source(ERC20_SOURCE)


@pytest.fixture(scope="session")
def counter_contract():
    return compile_source(COUNTER_SOURCE)


@pytest.fixture(scope="session")
def pool_contract():
    return compile_source(DEX_POOL_SOURCE)


@pytest.fixture(scope="session")
def nft_contract():
    return compile_source(NFT_SOURCE)


@pytest.fixture(scope="session")
def ico_contract():
    return compile_source(ICO_SOURCE)


@pytest.fixture(scope="session")
def example_contract():
    return compile_source(PAPER_EXAMPLE_SOURCE)


class ChainHarness:
    """A tiny single-node chain for tests: deploy, fund, call, commit."""

    def __init__(self) -> None:
        self.db = StateDB()
        self._balances = {}
        self._sealed = False

    def fund(self, address: Address, amount: int) -> None:
        assert not self._sealed, "fund before first use"
        self._balances[address] = amount

    def user(self, label: str, funds: int = 10**18) -> Address:
        address = Address.derive(label)
        if not self._sealed:
            self._balances.setdefault(address, funds)
        return address

    def deploy(self, label: str, compiled) -> Address:
        address = Address.derive(label)
        self.db.deploy_contract(address, compiled.code, compiled.name)
        return address

    def _seal(self) -> None:
        if not self._sealed:
            self.db.seed_genesis(self._balances)
            self._sealed = True

    def execute(self, txs) -> "tuple":
        """Run txs serially as one block and commit; returns (execution, snapshot)."""
        self._seal()
        execution = SerialExecutor().execute_block(
            txs, self.db.latest, self.db.codes.code_of
        )
        snapshot = self.db.commit(execution.writes)
        return execution, snapshot

    def call(self, sender: Address, to: Address, compiled, fn: str, *args,
             value: int = 0):
        """Execute a single call transaction; returns (result, snapshot)."""
        tx = Transaction(sender, to, value, compiled.encode_call(fn, *args))
        execution, snapshot = self.execute([tx])
        return execution.receipts[0].result, snapshot

    def storage(self, address: Address, slot: int) -> int:
        self._seal()
        return self.db.latest.get(StateKey(address, slot))

    def mapping_value(self, address: Address, compiled, var: str, key) -> int:
        self._seal()
        key_word = key.to_word() if isinstance(key, Address) else int(key)
        slot = mapping_slot(key_word, compiled.slot_of(var))
        return self.db.latest.get(StateKey(address, slot))


@pytest.fixture
def chain():
    return ChainHarness()


# Scenario presets scaled down far enough that the substrate and scheduling
# suites stay in tier-1 time while still exercising every protocol path
# (NeedKeys, blind deltas, aborts, cross-contract calls).
SMALL = dict(users=40, erc20_tokens=2, dex_pools=2, nft_collections=2, icos=1)
TXS = 16

_cases = {}


def scenario_case(scenario: str, txs: int = TXS, seed: int = 7):
    """(workload, transactions) for one scaled-down scenario, cached."""
    key = (scenario, txs, seed)
    if key not in _cases:
        workload = Workload(scenario_config(scenario, seed=seed, **SMALL))
        _cases[key] = (workload, workload.transactions(txs))
    return _cases[key]


# Real pools are expensive to spawn (processes especially), so the two real
# substrates are session-scoped and shared by every suite; each block run
# builds its own dispatcher state, so sharing a pool never leaks state
# between tests (worker code caches only ever grow, and contract code is
# immutable).


@pytest.fixture(scope="session")
def threads_substrate():
    from repro.substrate import get_substrate

    substrate = get_substrate("threads", workers=3)
    yield substrate
    substrate.close()


@pytest.fixture(scope="session")
def processes_substrate():
    from repro.substrate import get_substrate

    substrate = get_substrate("processes", workers=3)
    yield substrate
    substrate.close()
