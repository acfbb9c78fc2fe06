"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-buffered --seed 1 --seconds 30 --trace 0

The program under test is the simulator in ``src/``, run from source in
this one process (no ``--jobs`` workers).  ``--seed`` is the scenario
seed: the same seed simulates exactly the same thing.

``--trace 0`` repeats the workload's scenarios (one *repetition*) until
``--seconds`` of host time are used, at least three times, and reports
every end-to-end metric.  ``--trace 1`` runs one untraced repetition,
then one with spans recorded around every layer boundary
(``spans.BOUNDARIES``), and reports the per-layer metrics; the raw spans
are written to ``.perfbench_out/spans-<workload>.npz``.

Every repetition's outputs are checked (RunMetrics digest identical
across repetitions, FTL invariants, no read-only device, enough samples
beyond each reported percentile; in traced runs also the span <->
program counter cross-check).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
#: Repetitions every untraced run makes, however short ``--seconds`` is.
MIN_REPETITIONS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", type=Path, help="append this run's full record (JSON line) to a file"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import suite
    from spans import SpanRecorder

    bench = suite.WORKLOADS.get(args.workload)
    if bench is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(suite.WORKLOADS)}",
              file=sys.stderr)
        return 2

    reps = []
    errors = []
    raw = {}
    started = perf_counter()
    while True:
        gc.collect()
        reps.append(suite.run_repetition(bench, args.seed))
        elapsed = perf_counter() - started
        if args.trace or (
            len(reps) >= MIN_REPETITIONS and elapsed * (len(reps) + 1) / len(reps) > args.seconds
        ):
            break

    if args.trace:
        recorder = SpanRecorder()
        recorder.install()
        try:
            gc.collect()
            traced = suite.run_repetition(bench, args.seed, recorder)
        finally:
            recorder.uninstall()
        metrics, trace_errors = suite.layer_metrics(bench, traced, recorder, reps[0])
        errors += trace_errors
        recorder.write(ROOT / ".perfbench_out" / f"spans-{bench.name}.npz")
        print(f"spans recorded: {len(recorder)}")
        reps.append(traced)
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = suite.end_to_end(reps, peak_rss_mb)
        raw = suite.raw_host_time(reps)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"
    ]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        errors.append(f"metrics {sorted(set(units) ^ set(metrics))} disagree with BENCHMARK.json")

    digests = {rep.digest() for rep in reps}
    if len(digests) != 1:
        errors.append(f"RunMetrics digests differ across repetitions: {sorted(digests)}")
    for rep in reps:
        errors += rep.errors
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)

    extras = {"failed_frac": failed / attempted if attempted else 1.0}
    if set(bench.policies) >= {"JIT-GC", "L-BGC", "A-BGC"}:
        extras.update(suite.policy_ratios(reps[0]))

    print(f"workload {bench.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}  digest {reps[0].digest()[:16]}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units.get(name, '?')}")
    for name, value in extras.items():
        print(f"  {name:34s} {value:14.6g} ratio")
    for name, value in raw.items():
        print(f"  {name:34s} {value:14.6g} (uncorrected host time)")
    if "jit_iops_vs_lbgc" in extras:
        print("  paper reference (the model's gap to it is the known magnitude compression "
              "of EXPERIMENTS.md's Fig 7 verdicts, not a validation):")
        for name, (paper, what) in suite.PAPER_REFERENCE.items():
            print(f"    {name:24s} model {extras[name]:.3f}  paper {paper:.2f}  ({what})")
    for error in errors:
        print(f"  CHECK FAILED: {error}")

    correct = not errors and failed == 0
    if args.out is not None:
        record = {
            "workload": bench.name, "seed": args.seed, "trace": args.trace,
            "digest": reps[0].digest(), "correct": correct, "attempted": attempted,
            "failed": failed, "metrics": {**metrics, **extras}, "raw": raw, "errors": errors,
        }
        with args.out.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
