"""Correctness backstop: trace recording, serializability oracle, fuzzing.

``repro.verify`` independently checks the repo's central claim — that every
parallel executor preserves deterministic serializability (Definition 2) —
instead of trusting the schedulers to be right:

* :mod:`.trace`  — a :class:`~repro.verify.trace.TraceRecorder` attached to
  any executor records every versioned read/write, publish, retraction,
  abort, and completion;
* :mod:`.oracle` — replays a trace against the serial baseline: conflict
  graph acyclicity, state-root and receipt equivalence, and early-write
  visibility hygiene (no committed read of a retracted version);
* :mod:`.fuzz`   — differential fuzzing of Serial vs DAG vs OCC vs DMVCC
  over randomized workloads, with greedy block minimization on divergence;
* :mod:`.crash`  — crash-recovery fuzzing of the durable storage engine
  (``repro.db``): seeded random blocks, a fault-injected crash at a random
  byte offset, and a recovery check against an in-memory twin;
* :mod:`.substrate` — differential backend parity: every scenario preset ×
  scheduler run on real threads and real multiprocessing workers must
  reproduce the discrete-event simulator's receipts, writes, and sealed
  root byte-for-byte.
"""

from .trace import TraceRecorder
from .oracle import OracleReport, SerializabilityOracle, check_block
from .fuzz import DifferentialFuzzer, FuzzReport
from .crash import CrashReport, run_crash_campaign
from .substrate import SubstrateReport, run_substrate_verify

__all__ = [
    "TraceRecorder",
    "OracleReport",
    "SerializabilityOracle",
    "check_block",
    "DifferentialFuzzer",
    "FuzzReport",
    "CrashReport",
    "run_crash_campaign",
    "SubstrateReport",
    "run_substrate_verify",
]
