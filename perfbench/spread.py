"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10                 # every workload, seeds 1..10
    python3 perfbench/spread.py --runs 5 --workload ghz-n4 --first-seed 11
    python3 perfbench/spread.py --runs 10 --write perfbench/baseline.json

Each run is a separate ``run.py`` process with the ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric (``--trace 0`` runs) the
script prints the median, the quartiles of ``statistics.quantiles(values,
n=4)`` and the spread (interquartile distance over the median) next to the
metric's bound and a third of it, the level a steady benchmark stays under.
It then makes ``TRACE_RUNS`` traced runs per workload, checks that every
per-layer count repeats exactly, and reports the median of each per-layer
metric.  ``--write`` saves the summary with the environment stamp of the
last run.  The exit code is 0 when every spread is within its bound and the
counts repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, child
from stats import spread
from tracing import COUNT_METRICS

TRACE_RUNS = 2


def run_once(config: dict, workload: str, seed: int, trace: int) -> dict:
    result = child(["--workload", workload, "--seed", str(seed),
                    "--seconds", str(config["run_seconds"]), "--trace", str(trace)])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: incorrect run, see perfbench/out/")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace}: "
          + ", ".join(f"{k}={v:.5g}" for k, v in values.items()), file=sys.stderr, flush=True)
    return values


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    if args.runs < 4:
        parser.error("--runs must be at least 4 for quartiles to mean anything")

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    summary: dict = {"run_seconds": config["run_seconds"], "runs": args.runs, "workloads": {}}
    ok = True
    for name in args.workload or names:
        runs = [run_once(config, name, seed, 0) for seed in seeds]
        rows: dict = {}
        for metric, bound in bounds.items():
            vals = [r[metric] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            s = spread(vals)
            within = s <= bound
            ok &= within
            rows[metric] = {"median": q2, "q1": q1, "q3": q3, "spread": s, "bound": bound,
                            "within_bound": within, "below_third_of_bound": s < bound / 3,
                            "values": vals}
            print(f"{name:10s} {metric:12s} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={s:.4f} bound={bound} bound/3={bound / 3:.4f}"
                  + ("" if within else "  OUT OF BOUND") + ("" if s < bound / 3 else "  (above bound/3)"))
        traced = [run_once(config, name, seed, 1) for seed in list(seeds)[:TRACE_RUNS]]
        for key in COUNT_METRICS:
            if len({t[key] for t in traced}) > 1:
                ok = False
                print(f"{name:10s} {key} differs between traced runs: {[t[key] for t in traced]}")
        rows["per_layer"] = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        print(f"{name:10s} per-layer medians of {len(traced)} traced runs: "
              + ", ".join(f"{k}={v:.4g}" for k, v in rows["per_layer"].items()))
        summary["workloads"][name] = rows
    if args.write:
        stamp = json.loads((BENCH_DIR / "out" / f"{name}-seed{args.first_seed}-trace0.json").read_text())
        summary["environment"] = stamp["environment"]
        args.write.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
