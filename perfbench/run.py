"""Wall-clock benchmark of the whole block path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mainnet --seed 2023 \
        --seconds 15 --trace 0

Builds the workload's world from ``--seed`` (set-up is timed several
times and its median reported), runs the block path for ``--seconds``,
then replays every sealed block serially on an independent genesis fork
and compares state roots, outside the timed region.  Prints a table and,
as its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; ``attempted``/``failed`` count blocks, so ``failed /
attempted`` is the error rate.  Exits 1 when any block failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
``--seconds`` untraced, then ``--seconds`` with spans around the calls
into each layer, and reports the per-layer metrics; the span list is
written to ``.perfbench/``.  Every run also writes a result file there,
stamped with ``repro.bench.reporting.stamp_results``; compare two sets of
them with ``perfbench/compare.py``.

Seed ``2023`` is the default; seed ``HELD_OUT_SEED`` is kept back for
validating claims made while tuning on other seeds.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")
HELD_OUT_SEED = 9091
SETUP_REPEATS = 2

# Which end-to-end metric each per-layer metric should move, and where.
SHOULD_MOVE = {
    "lang.compile_s": "setup_s, all workloads",
    "state.seed_s": "setup_s, all workloads",
    "db.mirror_s": "setup_s, durable_stream",
    "analysis.*": "txs_per_s, block_p50_ms on mainnet",
    "evm.*": "explains mainnet txs_per_s; reported only, not in the layer sum",
    "executors.*": "txs_per_s on contended; gasclock_speedup everywhere; "
                   "no change on mainnet for abort-path work",
    "scheduling.*": "txs_per_s on durable_stream; absent elsewhere",
    "state.commit_s, trie.*, state.flat_hit_rate":
        "block_tail_ms on durable_stream; small share on mainnet",
    "db.*": "block_tail_ms, txs_per_s on durable_stream only",
    "pipeline.*": "txs_per_s on durable_stream",
    "trace.*": "none; keeps the trace honest",
}


def _percentile_tail(times):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), and its value; the maximum when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    pct = math.floor(100 * (n - 10) / n)
    rank = max(math.ceil(pct * n / 100), 1)
    return pct, ordered[rank - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_total(seconds_by_span, layer):
    """Seconds of every span of ``layer`` (span names are ``layer.call``)."""
    return sum((v for k, v in seconds_by_span.items()
                if k.startswith(layer + ".")), 0.0)


def _setup_patches(tracer, stack):
    import repro.lang.compiler as compiler
    import repro.workload.generator as generator
    from repro.state.statedb import StateDB

    stack.enter_context(tracer.patch(generator, "compile_source",
                                     "lang.compile_source"))
    stack.enter_context(tracer.patch(compiler, "compile_source",
                                     "lang.compile_source"))
    stack.enter_context(tracer.patch(StateDB, "seed_genesis",
                                     "state.seed_genesis"))
    stack.enter_context(tracer.patch(StateDB, "mirror_durable",
                                     "db.mirror_durable"))


def _run_patches(tracer, stack, world, commits):
    from repro.analysis.csag import CSAGBuilder
    from repro.chain.txpool import Packer
    from repro.state.statedb import StateDB
    from repro.trie.mpt import NodeStore, Trie

    def keep_report(result, db, *args):
        commits.append(db.last_commit)

    stack.enter_context(tracer.patch(CSAGBuilder, "build", "analysis.build"))
    stack.enter_context(tracer.patch(Packer, "pack", "chain.pack"))
    stack.enter_context(tracer.patch(world.executor, "execute_block",
                                     "executors.execute_block"))
    if world.planner is not None:
        stack.enter_context(tracer.patch(world.planner, "plan",
                                         "scheduling.plan"))
    stack.enter_context(tracer.patch(
        StateDB, "commit", "state.commit",
        block_of=lambda db, *args: db.height + 1, after=keep_report))
    stack.enter_context(tracer.patch(Trie, "commit_batch",
                                     "trie.commit_batch"))
    stack.enter_context(tracer.patch(NodeStore, "commit_root",
                                     "db.commit_root"))


def _end_to_end(spec, phase, setup_times):
    times = phase.block_times
    tail_pct, tail = _percentile_tail(times)
    counted = phase.metrics[:spec.min_blocks]
    makespan = sum(m.makespan for m in counted)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "txs_per_s": _metric(phase.txs / phase.elapsed, "tx/s"),
        "block_p50_ms": _metric(statistics.median(times) * 1e3, "ms"),
        "block_tail_ms": _metric(tail * 1e3, "ms"),
        "gasclock_speedup": _metric(
            sum(m.serial_time for m in counted) / makespan
            if makespan else 1.0, "x"),
        "peak_rss_mb": _metric(phase.rss_mb, "MiB"),
    }
    return metrics, {"tail_percentile": tail_pct, "blocks": len(times),
                     "speedup_blocks": len(counted)}


def _per_layer(tracer, world, untraced, traced, commits, instructions):
    main = threading.main_thread().name
    lane = tracer.self_times("run", thread=main)
    everywhere = tracer.self_times("run")
    counts = tracer.counts("run")
    setup = {}
    for span in tracer.spans:
        if span.phase == "setup" and span.name != "setup":
            setup[span.name] = setup.get(span.name, 0.0) + span.duration
    # The serial reference of the traced blocks only, so that
    # executors.busy_s - evm.serial_s is the scheduler's overhead.
    first = len(world.sealed) - len(traced.metrics)
    heights = {sealed.number for sealed in world.sealed[first:]}
    serial_s = sum(s.duration for s in tracer.spans if s.name == "evm.serial"
                   and s.phase == "verify" and s.block in heights)
    blocks = max(len(traced.metrics), 1)
    txs = sum(m.tx_count for m in traced.metrics)
    executions = sum(m.executions for m in traced.metrics)
    commits = [c for c in commits if c is not None]
    n_commits = max(len(commits), 1)
    flat_hits = sum(c.flat_hits for c in commits)
    flat_reads = flat_hits + sum(c.flat_misses for c in commits)
    cache_hits = sum(c.db_cache_hits for c in commits)
    cache_reads = cache_hits + sum(c.db_cache_misses for c in commits)
    pipe = traced.pipeline
    wall = traced.elapsed
    lane_sum = sum(lane.values())

    m = {
        "lang.compile_s": _metric(setup.get("lang.compile_source", 0.0), "s"),
        "state.seed_s": _metric(setup.get("state.seed_genesis", 0.0), "s"),
        "db.mirror_s": _metric(setup.get("db.mirror_durable", 0.0), "s"),
        "analysis.busy_s": _metric(_layer_total(everywhere, "analysis"), "s"),
        "analysis.csags": _metric(counts.get("analysis.build", 0) / blocks,
                                  "count/block"),
        "evm.serial_s": _metric(serial_s, "s"),
        "evm.instructions": _metric(
            sum(instructions.get(h, 0) for h in heights) / blocks,
            "count/block"),
        "executors.busy_s": _metric(
            _layer_total(everywhere, "executors"), "s"),
        "executors.executions": _metric(executions / blocks, "count/block"),
        "executors.aborts": _metric(
            sum(x.aborts for x in traced.metrics) / blocks, "count/block"),
        "executors.useful_ratio": _metric(
            txs / executions if executions else 0.0, "ratio"),
        "executors.replayed_instructions": _metric(
            sum(x.replayed_instructions for x in traced.metrics) / blocks,
            "count/block"),
        "scheduling.busy_s": _metric(
            _layer_total(everywhere, "scheduling"), "s"),
        "scheduling.repairs": _metric(traced.repairs / blocks, "count/block"),
        "scheduling.reorders": _metric(traced.reorders / blocks,
                                       "count/block"),
        "state.commit_s": _metric(
            sum(s.duration for s in tracer.spans
                if s.phase == "run" and s.name == "state.commit"), "s"),
        "trie.hashes": _metric(
            sum(c.hashes_computed for c in commits) / n_commits,
            "count/block"),
        "trie.nodes_sealed": _metric(
            sum(c.nodes_sealed for c in commits) / n_commits, "count/block"),
        "state.flat_hit_rate": _metric(
            flat_hits / flat_reads if flat_reads else 0.0, "ratio"),
        "db.fsync_s": _metric(sum(c.fsync_time for c in commits), "s"),
        "db.bytes_appended": _metric(
            sum(c.bytes_appended for c in commits) / n_commits, "B/block"),
        "db.cache_hit_rate": _metric(
            cache_hits / cache_reads if cache_reads else 0.0, "ratio"),
    }
    for stage in ("ingest", "analyse", "pack", "execute", "seal", "persist"):
        m[f"pipeline.{stage}_busy_s"] = _metric(
            pipe.get(f"{stage}_busy_s", 0.0), "s")
    m["pipeline.overlap_s"] = _metric(pipe.get("overlap_s", 0.0), "s")
    m["pipeline.stall_s"] = _metric(pipe.get("stall_s", 0.0), "s")
    m["pipeline.backpressure"] = _metric(pipe.get("backpressure", 0), "count")
    m["trace.overhead"] = _metric(
        (traced.txs / traced.elapsed) / (untraced.txs / untraced.elapsed),
        "ratio")
    m["trace.unaccounted_s"] = _metric(wall - lane_sum, "s")
    return m, lane, everywhere, wall, serial_s


def _layer_table(name, setup_s, lane, everywhere, wall, serial_s):
    """Per-layer self time on the lane that owns the wall clock, plus the
    ROADMAP baseline rows."""
    layers = {}
    for span_name, seconds in lane.items():
        layer = span_name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    lines = [f"[{name}] traced wall {wall:.3f}s; layer self time on the "
             f"block-producing lane:"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {seconds:9.3f}s {seconds / wall:7.1%}")
    total = sum(layers.values())
    lines.append(f"  {'sum':<12} {total:9.3f}s {total / wall:7.1%} "
                 f"(unaccounted {wall - total:.3f}s)")
    off_lane = {k: v - lane.get(k, 0.0) for k, v in everywhere.items()
                if v - lane.get(k, 0.0) > 0}
    if off_lane:
        lines.append("  commit lane (overlaps the above): " + ", ".join(
            f"{k} {v:.3f}s" for k, v in sorted(off_lane.items())))

    lines.append(f"[{name}] baseline rows:")
    for label, seconds in (
        ("world setup", setup_s),
        ("C-SAG analysis", _layer_total(everywhere, "analysis")),
        ("serial execute", serial_s),
        ("DMVCC execute", _layer_total(everywhere, "executors")),
        ("commit", sum(_layer_total(everywhere, layer)
                       for layer in ("state", "trie", "db"))),
    ):
        lines.append(f"  {label:<16} {seconds:9.3f}s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mainnet", "contended", "durable_stream"))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # The result stamp asks git for the commit; keep it from searching
    # above the checkout.
    os.environ.setdefault("GIT_CEILING_DIRECTORIES", os.path.dirname(ROOT))
    from contextlib import ExitStack

    from repro.bench.reporting import stamp_results

    import workloads
    from spans import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    spec = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    phases = 2 if args.trace else 1

    setup_times = []
    world = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        if world is not None:  # built only to time set-up
            world.close()
            world = None
            gc.collect()
        with ExitStack() as stack:
            if tracer is not None:
                _setup_patches(tracer, stack)
                tracer.active, tracer.phase = True, "setup"
            began = time.perf_counter()
            with (tracer.span("setup") if tracer else ExitStack()):
                world = spec.build(args.seed, args.seconds, phases, OUT_DIR)
            setup_times.append(time.perf_counter() - began)
            if tracer is not None:
                tracer.active = False
    gc.collect()

    try:
        untraced = spec.run(world, args.seconds)
        traced = None
        commits = []
        if tracer is not None and untraced.error is None:
            with ExitStack() as stack:
                _run_patches(tracer, stack, world, commits)
                tracer.active, tracer.phase = True, "run"
                try:
                    traced = spec.run(world, args.seconds, tracer)
                finally:
                    tracer.active = False
        end_to_end, shape = _end_to_end(spec, untraced, setup_times)
        if tracer is not None:
            tracer.active, tracer.phase = True, "verify"
        failures, instructions = workloads.verify(world, tracer)
        if tracer is not None:
            tracer.active = False
    finally:
        world.close()

    for phase in (untraced, traced):
        if phase is not None and phase.error is not None:
            failures.append(phase.error)
    attempted = len(world.sealed) + sum(
        1 for p in (untraced, traced) if p is not None and p.error is not None)
    failed = len(failures)
    correct = failed == 0

    lines = [f"[{args.workload}] seed {args.seed}, {args.seconds:g}s, "
             f"{shape['blocks']} block(s), {untraced.txs} tx(s)"
             + (" (pre-generated transactions exhausted)"
                if untraced.exhausted else "")]
    for key, metric in end_to_end.items():
        note = ""
        if key == "block_tail_ms":
            note = f"  (p{shape['tail_percentile']} of {shape['blocks']})"
        elif key == "gasclock_speedup":
            note = (f"  (gas-clock, first {shape['speedup_blocks']} blocks, "
                    f"{workloads.THREADS} simulated threads)")
        lines.append(f"  {key:<18} {metric['value']:12.4f} {metric['unit']}"
                     f"{note}")
    lines.append(f"  {'error_rate':<18} {failed / max(attempted, 1):12.4f} "
                 f"ratio  ({failed} of {attempted} blocks)")
    for failure in failures[:10]:
        lines.append(f"  FAILED {failure}")

    metrics = end_to_end
    if tracer is not None and traced is None:
        metrics = {}
    elif tracer is not None:
        metrics, lane, everywhere, wall, serial_s = _per_layer(
            tracer, world, untraced, traced, commits, instructions)
        lines.append(_layer_table(args.workload, setup_times[0], lane,
                                  everywhere, wall, serial_s))
        for key, metric in metrics.items():
            lines.append(f"  {key:<34} {metric['value']:14.4f} "
                         f"{metric['unit']}")
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-s{args.seed}.json"))
    print("\n".join(lines))

    document = stamp_results({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failures": failures, "metrics": metrics, "shape": shape,
        "setup_times_s": setup_times, "should_move": SHOULD_MOVE,
        "held_out_seed": HELD_OUT_SEED,
    })
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump(document, handle, indent=2)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
