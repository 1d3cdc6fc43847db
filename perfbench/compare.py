"""Compare two sets of benchmark result files, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py BASE HEAD

``BASE`` and ``HEAD`` are directories (or single files) of the
``result-*.json`` files ``perfbench/run.py`` writes to ``.perfbench/``.
For each workload and metric it prints both medians with their quartiles
and, for end-to-end metrics, whether HEAD's median is worse than BASE's by
more than the bound ``BENCHMARK.json`` fixes.  Results stamped on machines
with different CPU counts are refused: wall-clock numbers from them do not
compare.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path):
    files = sorted(glob.glob(os.path.join(path, "result-*.json"))) \
        if os.path.isdir(path) else [path]
    results = []
    for name in files:
        with open(name) as handle:
            results.append(json.load(handle))
    return results


def _summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (_load(path) for path in argv)
    if not base or not head:
        print("compare: no result files found", file=sys.stderr)
        return 2
    cpus = {r["repro_meta"]["cpu_count"] for r in base + head}
    if len(cpus) != 1:
        print(f"compare: refusing to compare results from machines with "
              f"different cpu_count {sorted(cpus)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    def grouped(results):
        table = defaultdict(lambda: defaultdict(list))
        for result in results:
            for name, metric in result["metrics"].items():
                table[result["workload"]][name].append(metric["value"])
        return table

    old, new = grouped(base), grouped(head)
    regressions = 0
    for workload in sorted(set(old) & set(new)):
        print(f"[{workload}]")
        for name in sorted(set(old[workload]) & set(new[workload])):
            b_low, b_mid, b_high = _summary(old[workload][name])
            h_low, h_mid, h_high = _summary(new[workload][name])
            verdict = ""
            if name in bounds and b_mid:
                change = (h_mid - b_mid) / abs(b_mid)
                worse = change if better[name] == "lower" else -change
                spread = (b_high - b_low) / abs(b_mid)
                if spread > bounds[name]["bound"]:
                    verdict = "unresolved (spread above bound)"
                elif worse > bounds[name]["bound"]:
                    verdict = "REGRESSED"
                    regressions += 1
                else:
                    verdict = "ok"
                verdict = f"{change:+7.1%}  {verdict}"
            print(f"  {name:<34} base {b_mid:12.4f} [{b_low:.4f}, "
                  f"{b_high:.4f}]  head {h_mid:12.4f} [{h_low:.4f}, "
                  f"{h_high:.4f}]  {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
