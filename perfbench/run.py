"""geomgate benchmark: time to solution of the scenario runners, end to end and per layer.

Usage, from the root of a checkout (no install needed; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload ghz-n4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

One process is the only client and makes every call itself, one operation
after the other (closed loop).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced operations, derives
the per-layer metrics from the traced ones, reports the difference of their
median wall times as the tracing overhead, and ends with one traced
operation in a child process with a single BLAS thread.  Every operation is
checked against frozen references and earlier CSV bytes before its time
counts.  Human-readable output goes to stderr; the last line of stdout is
one JSON object.  Full results, the environment stamp and the spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from stats import failed_fraction, median, tail_percentile
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics
from workloads import WORKLOADS, check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 11  # probe times vary ~±15% within a run; the median of 11 steadies setup_s
CHILD_TIMEOUT_S = 150
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program to measure, a failed child process)."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_geomgate():
    """Import geomgate from this checkout's ``src/``, never from an installed copy."""
    if not (SRC / "geomgate" / "__init__.py").is_file():
        raise BenchError(f"no geomgate package under {SRC}")
    sys.path.insert(0, str(SRC))
    import geomgate
    from geomgate import core, dynamics, model, scenarios

    if Path(geomgate.__file__).resolve().parent != SRC / "geomgate":
        raise BenchError(f"imported geomgate from {geomgate.__file__}, not from {SRC}")
    return geomgate, (scenarios, dynamics, model, core)


def environment() -> dict:
    """Core count, BLAS builds, thread settings and versions, read directly."""
    import numpy
    import scipy

    def blas(show_config) -> dict:
        deps = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: deps.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def child(args: list[str], env: dict[str, str] | None = None) -> dict:
    """Run this script in a fresh interpreter and return the JSON object of its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        env={**os.environ, **(env or {})},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(workload) -> float:
    """Seconds to import geomgate and build the workload's model objects in this fresh process."""
    t0 = time.perf_counter()
    geomgate, _ = import_geomgate()
    workload.build(geomgate)
    return time.perf_counter() - t0


def measure(workload, seed: int, seconds: float, trace: bool, every_op_traced: bool = False) -> dict:
    """Closed loop of operations for ``seconds``; returns counts, samples and per-layer metrics.

    An operation starts only while the elapsed time plus the median operation
    so far stays within ``seconds``; at least one operation runs, two when
    tracing (one untraced, one traced).
    """
    geomgate, modules = import_geomgate()
    scenarios = modules[0]
    out = OUT / "csv" / workload.name
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    durations: list[float] = []
    traced_ops: list[int] = []
    errors: list[str] = []
    first: dict = {}
    attempted = failed = 0
    min_ops = 2 if trace and not every_op_traced else 1
    start = time.perf_counter()
    while attempted < min_ops or time.perf_counter() - start + median(durations) <= seconds:
        op = attempted
        attempted += 1
        traced = trace and (every_op_traced or op % 2 == 1)
        inputs = workload.inputs(rng)
        tracer.op = op
        t0 = time.perf_counter()
        try:
            with tracer.patched(modules) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                values, paths = workload.run(scenarios, inputs, out)
                wall = time.perf_counter() - t0
        except Exception as exc:  # an operation that raises is a failed operation
            durations.append(time.perf_counter() - t0)
            failed += 1
            errors.append(f"op {op} {inputs}: {type(exc).__name__}: {exc}")
            continue
        durations.append(wall)
        problems = check(workload.reference, values)
        data = b"".join(Path(p).read_bytes() for p in paths)
        if not first:
            first = {"bytes": data, "values": values, "steps": workload.steps(geomgate, paths)}
        elif data != first["bytes"]:
            problems.append("CSV bytes differ from the first operation of this run")
        if problems:
            failed += 1
            errors.extend(f"op {op} {inputs}: {p}" for p in problems)
            continue
        walls[traced].append(wall)
        if traced:
            traced_ops.append(op)

    result = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "walls": walls[False],
        "traced_walls": walls[True],
        "steps_per_op": first.get("steps"),
        "values": first.get("values"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced_ops:
        layers, mismatches = layer_metrics(tracer, traced_ops, len(first["bytes"]))
        counted = layers["dynamics.lindblad_steps"] + layers["dynamics.unitary_steps"]
        if counted != first["steps"]:
            mismatches.append(f"traced steps {counted} != step plan {first['steps']}")
        errors.extend(f"count mismatch: {m}" for m in mismatches)
        result["layers"] = layers
        result["spans"] = tracer
    return result


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workload = WORKLOADS[workload_name](smoke)
    mode = ["--workload", workload_name, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    setup: list[float] = []
    if not trace:
        setup = [child(mode + ["--setup-probe"])["setup_s"] for _ in range(1 if smoke else SETUP_REPEATS)]
    with contextlib.redirect_stdout(sys.stderr):  # runners print; stdout carries only the result
        res = measure(workload, seed, seconds, trace)
    attempted, failed = res["attempted"], res["failed"]
    extra: dict = {}
    if trace:
        probe = child(mode + ["--blas1-probe"], env=SINGLE_THREAD_ENV)
        attempted += probe["attempted"]
        failed += probe["failed"]
        res["errors"] += [f"single-BLAS-thread pass: {e}" for e in probe["errors"]]
        extra["single_blas_thread"] = probe
    ok = not res["errors"] and failed == 0
    metrics: dict[str, float] = {}
    if trace and "layers" in res and res["walls"]:
        metrics = dict(res["layers"])
        metrics["trace.overhead_s"] = median(res["traced_walls"]) - median(res["walls"])
        metrics["blas1.wall_s"] = probe["traced_walls"][0] if probe["traced_walls"] else 0.0
    elif not trace and res["walls"]:
        wall = median(res["walls"])
        metrics = {
            "wall_s": wall,
            "steps_per_s": res["steps_per_op"] / wall,
            "setup_s": median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    else:
        ok = False
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS, "trace.overhead_s": "s", "blas1.wall_s": "s"}
    tail = tail_percentile(res["walls"])
    report = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(),
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed_fraction(failed, attempted),
        "errors": res["errors"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "wall_tail_s": None if tail is None else {"percentile": tail[0], "value": tail[1], "samples": len(res["walls"])},
        "samples": {"wall_s": res["walls"], "traced_wall_s": res["traced_walls"], "setup_s": setup},
        "steps_per_op": res["steps_per_op"],
        "values": res["values"],
        **extra,
    }
    stem = f"{workload_name}{'-smoke' if smoke else ''}-seed{seed}-trace{int(trace)}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if "spans" in res:
        res["spans"].write(OUT / f"{stem}-spans.csv")
    return report


def print_report(report: dict) -> None:
    env = report["environment"]
    log(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
        f"nproc={env['nproc']} blas={env['numpy_blas']['name']} {env['numpy_blas']['version']} "
        f"threads={env['threads_env']} python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    log(f"   operations: {report['attempted']} attempted, {report['failed']} failed "
        f"(ops_failed_frac={report['ops_failed_frac']:.4g}), correct={report['correct']}")
    for name, m in report["metrics"].items():
        log(f"   {name:28s} {m['value']:.6g} {m['unit']}")
    tail = report["wall_tail_s"]
    if tail and not report["trace"]:
        log(f"   wall_tail_s (p{tail['percentile']:g} of {tail['samples']} samples) {tail['value']:.6g} s")
    elif not report["trace"]:
        log(f"   wall_tail_s: not reported, {len(report['samples']['wall_s'])} samples are too few")
    for e in report["errors"]:
        log(f"   ERROR {e}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, one short run per workload and mode")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--blas1-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(WORKLOADS[args.workload](args.smoke))}))
            return 0
        if args.blas1_probe:
            with contextlib.redirect_stdout(sys.stderr):
                res = measure(WORKLOADS[args.workload](args.smoke), args.seed, 0.0, True, every_op_traced=True)
            res.pop("spans", None)
            print(json.dumps(res))
            return 0
        if args.smoke:
            names = [args.workload] if args.workload else list(WORKLOADS)
            reports = [run(name, args.seed, 0.0, trace, True) for name in names for trace in (False, True)]
            for report in reports:
                print_report(report)
            ok = all(r["correct"] for r in reports)
            print(json.dumps({"smoke": "passed" if ok else "failed", "runs": len(reports)}))
            return 0 if ok else 1
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), False)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        log(f"benchmark error: {exc}")
        return 2
    print_report(report)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
