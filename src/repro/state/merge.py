"""Declared-operation merge algebra: generalized commutative state updates.

The paper's blind-increment rule (ω̄) covers exactly one shape — ``key +=
delta`` where the read feeds nothing but the addition.  Real hot spots are
wider: ERC20 balances are debited behind a ``require(balance >= amount)``
guard, AMM reserves are bounded, auction state is a running ``max``,
allow-lists are set inserts.  Garamvölgyi et al. (PAPERS.md) show these
*application-inherent* conflicts dominate mainnet traffic; Dickerson et
al. establish that commutativity is what makes them schedulable.

A :class:`MergeSpec` is a contract author's declaration that every in-block
access to a state key has the shape

    ``guard(lower <= op(value, x) <= upper)  →  value = op(value, x)``

i.e. the observed value feeds *only* the declared bounds check and the
declared operation.  Under that promise the executor may answer reads from
any fold of already-arrived operands and log a **merge intent** instead of
an absolute write: intents commute, so the executor folds them in whatever
order they arrive.  Serial
execution keeps doing ordinary read-modify-write — the fold laws below
guarantee the results are byte-identical, which the hypothesis property
tests and the differential verifier both check.

Two algebraic families, one lattice:

* ``ADD``/``SUB`` — group ops, *delta-encodable*: an intent is the signed
  delta mod 2**256, and any fold order gives the same sum.
* ``MAX``/``MIN``/``SET_INSERT`` — idempotent semilattice ops: an intent
  is the operand itself, and applying it twice equals applying it once.

Bounds are part of the declaration because they are part of the promise:
a guard that reads the value can only be tolerated if the executor can
re-evaluate its outcome when earlier intents arrive late.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Optional

from ..core.types import Address, StateKey

WORD = 1 << 256


class MergeOp(Enum):
    """The declared operation of a merge key."""

    ADD = "add"
    SUB = "sub"
    MAX = "max"
    MIN = "min"
    SET_INSERT = "set_insert"

    @property
    def delta_encodable(self) -> bool:
        """True when an intent can ride the executors' existing commutative
        delta channel (published as ``key += signed delta mod 2**256``)."""
        return self in (MergeOp.ADD, MergeOp.SUB)

    @property
    def idempotent(self) -> bool:
        """True for the semilattice ops: applying an operand twice equals
        applying it once (max/min/set-insert)."""
        return self in (MergeOp.MAX, MergeOp.MIN, MergeOp.SET_INSERT)


@dataclass(frozen=True)
class MergeSpec:
    """One key's declaration: the operation plus optional bounds.

    ``lower``/``upper`` bound the *post-operation* value; ``None`` means
    unbounded on that side.  For ``ADD``/``SUB`` the natural word range
    [0, 2**256) is always implicitly enforced by the state layer (the
    StateDB rejects negative values), so ``lower=0`` is the common
    ERC20-balance declaration.
    """

    op: MergeOp
    lower: Optional[int] = None
    upper: Optional[int] = None

    def apply(self, base: int, operand: int) -> int:
        """One step of the declared operation (no bounds check)."""
        op = self.op
        if op is MergeOp.ADD:
            return (base + operand) % WORD
        if op is MergeOp.SUB:
            return (base - operand) % WORD
        if op is MergeOp.MAX:
            return base if base >= operand else operand
        if op is MergeOp.MIN:
            return base if base <= operand else operand
        return base | operand  # SET_INSERT: bitmask union

    def in_bounds(self, value: int) -> bool:
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True

    def outcome(self, base: int, operand: int) -> bool:
        """The declared guard's verdict for applying ``operand`` at
        ``base``: does the post-operation value stay in bounds?

        For ``SUB`` the word-wrap itself is out of bounds whenever a lower
        bound exists (an underflowing balance debit must fail, not wrap).
        """
        result = self.apply(base, operand)
        if self.op is MergeOp.SUB and self.lower is not None:
            if operand % WORD > base:
                return False
        return self.in_bounds(result)

    def fold(self, base: int, operands: Iterable[int]) -> int:
        """Fold a sequence of intents onto ``base``.

        Commutative and associative for every op (the property tests
        permute fold order and assert equality), so any arrival order an
        executor observes produces the same value.
        """
        value = base
        for operand in operands:
            value = self.apply(value, operand)
        return value

    def as_dict(self) -> dict:
        return {"op": self.op.value, "lower": self.lower, "upper": self.upper}

    @classmethod
    def from_dict(cls, payload: dict) -> "MergeSpec":
        return cls(op=MergeOp(payload["op"]), lower=payload.get("lower"),
                   upper=payload.get("upper"))


class MergeRegistry:
    """The block-level declaration table: state key → :class:`MergeSpec`.

    Executors consult it on every state access of a declared key (a plain
    dict lookup); an empty registry is the paper's original semantics.
    Declarations are data, not code — they round-trip through JSON so a
    deployment can ship them alongside contract metadata and benches can
    stamp them into result provenance.
    """

    def __init__(self) -> None:
        self._specs: Dict[StateKey, MergeSpec] = {}

    def __len__(self) -> int:
        return len(self._specs)

    def __bool__(self) -> bool:
        return bool(self._specs)

    def __iter__(self):
        return iter(self._specs.items())

    def declare(self, key: StateKey, op: MergeOp,
                lower: Optional[int] = None,
                upper: Optional[int] = None) -> MergeSpec:
        spec = MergeSpec(op=op, lower=lower, upper=upper)
        self._specs[key] = spec
        return spec

    def lookup(self, key: StateKey) -> Optional[MergeSpec]:
        return self._specs.get(key)

    def keys(self) -> List[StateKey]:
        return list(self._specs)

    # -- JSON round-trip ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "version": 1,
            "declarations": [
                {
                    "address": key.address.to_bytes().hex(),
                    "slot": key.slot,
                    **spec.as_dict(),
                }
                for key, spec in sorted(
                    self._specs.items(),
                    key=lambda item: (item[0].address.to_bytes(), item[0].slot),
                )
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "MergeRegistry":
        registry = cls()
        for entry in payload.get("declarations", ()):
            key = StateKey(Address.from_bytes(bytes.fromhex(entry["address"])),
                           entry["slot"])
            registry._specs[key] = MergeSpec.from_dict(entry)
        return registry

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path: str) -> "MergeRegistry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
