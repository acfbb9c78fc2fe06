"""Compare two sets of benchmark results, per workload and per metric.

Usage::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines that ``run.py --out FILE`` appends, one
per run; untraced runs are compared, paired by seed.  For each workload
and end-to-end metric the report gives each side's median and quartiles,
the spread (quartile distance as a share of the median), the pairs the
change won, and a verdict:

* ``identical``     every pair reads the same (simulated figures);
* ``gain``          the change won at least 9/10 of at least ten pairs
                    and the medians differ, its way, by more than the
                    parent's quartile distance;
* ``regression``    the change's median is worse than the parent's by
                    more than the metric's bound in BENCHMARK.json;
* ``unresolved``    the parent's spread is wider than the bound, or a
                    gain-sized difference lacks the pair wins, so no
                    claim either way can be made;
* ``within-bound``  otherwise.

It also reports, per workload, for how many seeds the RunMetrics digests
of the two sides are equal.  The exit status is 1 when any metric
regressed, else 0.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Figures printed beside the end-to-end metrics; simulated, so any
#: change between two runs of one seed is a difference, not noise.
EXTRA_METRICS = {
    "failed_frac": "lower",
    "jit_iops_vs_lbgc": "higher",
    "jit_waf_vs_abgc": "lower",
    "jit_iops_vs_abgc": "higher",
}

GAIN_PAIR_SHARE = 0.9
MIN_GAIN_PAIRS = 10


def load(path: Path) -> Dict[str, Dict[int, dict]]:
    """``{workload: {seed: record}}`` of the untraced runs in ``path``."""
    runs: Dict[str, Dict[int, dict]] = defaultdict(dict)
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            if record["trace"] == 0:
                runs[record["workload"]][record["seed"]] = record
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], better: str, bound: float,
            pairs: List[Tuple[float, float]]) -> Tuple[str, int]:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if all(x == y for x, y in pairs) and pairs:
        return "identical", wins
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = quartiles(b)[1]
    a_iqr = a_q3 - a_q1
    gain_sized = sign * (b_med - a_med) > a_iqr
    if gain_sized and len(pairs) >= MIN_GAIN_PAIRS and wins >= math.ceil(
        GAIN_PAIR_SHARE * len(pairs)
    ):
        return "gain", wins
    spread = a_iqr / abs(a_med) if a_med else math.inf
    every_b_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not every_b_better:
        return "unresolved", wins
    if -sign * (b_med - a_med) > bound * abs(a_med):
        return "regression", wins
    if gain_sized:
        return "unresolved", wins
    return "within-bound", wins


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({name: (better, 0.0) for name, better in EXTRA_METRICS.items()})
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    regressed = False
    for workload in sorted(set(parent) | set(change)):
        a_runs, b_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(a_runs) & set(b_runs))
        same = sum(1 for s in seeds if a_runs[s]["digest"] == b_runs[s]["digest"])
        print(f"{workload}: parent {len(a_runs)} runs, change {len(b_runs)} runs, "
              f"{len(seeds)} seed pairs, RunMetrics digest equal on {same}/{len(seeds)}")
        print(f"  {'metric':24s} {'parent median [q1, q3]':>34s} {'spread':>7s}  "
              f"{'change median [q1, q3]':>34s} {'spread':>7s} {'wins':>6s}  verdict")
        for name, (better, bound) in rules.items():
            a = [r["metrics"][name] for r in a_runs.values() if name in r["metrics"]]
            b = [r["metrics"][name] for r in b_runs.values() if name in r["metrics"]]
            if not a or not b:
                continue
            pairs = [(a_runs[s]["metrics"][name], b_runs[s]["metrics"][name]) for s in seeds]
            result, wins = verdict(a, b, better, bound, pairs)
            regressed |= result == "regression"
            cols = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / abs(med) if med else 0.0
                cols.append(f"{med:12.6g} [{q1:9.4g}, {q3:9.4g}] {spread:7.2%}")
            print(f"  {name:24s} {cols[0]}  {cols[1]} {wins:3d}/{len(pairs):<2d}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
