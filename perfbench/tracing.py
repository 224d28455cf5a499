"""Spans around geomgate's public callables, recorded only in a traced run.

:meth:`Tracer.patched` replaces each traced name where its caller looks it
up (``geomgate.scenarios`` imports its helpers by name, ``geomgate.dynamics``
and ``geomgate.model`` import ``matexp`` by name) and restores the originals
on exit, so untraced operations run the program unmodified.  Spans stay in
memory; :meth:`Tracer.write` saves them when the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import itertools
import threading
import time
from pathlib import Path
from typing import Callable, Iterator

from stats import Span, median, self_times

PER_LAYER_UNITS = {
    "scenarios.run_s": "s",
    "scenarios.self_s": "s",
    "scenarios.point_s": "s",
    "scenarios.sweep_overlap": "ratio",
    "scenarios.csv_bytes": "bytes",
    "dynamics.lindblad_steps": "count",
    "dynamics.lindblad_step_ms": "ms",
    "dynamics.lindblad_self_s": "s",
    "dynamics.records": "count",
    "dynamics.positivity_checks": "count",
    "dynamics.unitary_steps": "count",
    "dynamics.unitary_step_ms": "ms",
    "dynamics.unitary_self_s": "s",
    "core.matexp_calls": "count",
    "core.matexp_us": "us",
    "core.state_build_s": "s",
    "model.provider_build_s": "s",
    "model.target_s": "s",
    "model.h_calls": "count",
    "model.h_call_us": "us",
    "model.h_total_s": "s",
}

# Per-operation counts that must repeat exactly from operation to operation and run to run.
COUNT_METRICS = tuple(k for k, unit in PER_LAYER_UNITS.items() if unit in ("count", "bytes"))

RUN = "scenarios.run"
LINDBLAD = "dynamics.evolve_lindblad"
UNITARY = "dynamics.evolve_unitary"
MATEXP = "core.matexp"
FROM_PURE = "core.QuantumState.from_pure"
PROVIDER = "model.provider"
TARGET = "model.target"
H_OF_T = "model.h_of_t"


class Tracer:
    """Collects spans (name, start, end, parent, operation) from any thread.

    Calls made on pool threads have no open span on their own thread; their
    parent is the span of the operation's outermost call, ``root``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter[tuple[int, str]] = collections.Counter()
        self.op = 0
        self.root = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, steps_of: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``steps_of(args, kwargs)`` sets the span's count."""

        def traced(*args, **kwargs):
            with self._lock:
                sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else self.root
            is_root = parent == 0
            if is_root:
                self.root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self.root = 0
                n = steps_of(args, kwargs) if steps_of else 0
                with self._lock:
                    self.spans.append(Span(sid, name, start, end, parent, self.op, n))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def count(self, key: str, n: int) -> None:
        with self._lock:
            self.counts[(self.op, key)] += n

    @contextlib.contextmanager
    def patched(self, geomgate_modules) -> Iterator[None]:
        """Trace every public callable the scenario runners reach, then restore them."""
        scenarios, dynamics, model, core = geomgate_modules
        saved: list[tuple[object, str, object]] = []

        def replace(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for attr in ("run_bell", "run_ghz_sweep", "run_trajectory", "run_rwa_scan"):
            replace(scenarios, attr, self.wrap(RUN, getattr(scenarios, attr)))

        lindblad = scenarios.evolve_lindblad

        def evolve_lindblad(h, rates, initial, target, cfg, *args, **kwargs):
            result = lindblad(h, rates, initial, target, cfg, *args, **kwargs)
            self.count("dynamics.records", int(result.times.size))
            self.count("dynamics.positivity_checks", len(result.positivity_checks))
            return result

        replace(scenarios, "evolve_lindblad",
                self.wrap(LINDBLAD, evolve_lindblad, lambda a, k: a[4].n_steps))
        replace(scenarios, "evolve_unitary",
                self.wrap(UNITARY, scenarios.evolve_unitary, lambda a, k: a[2].n_steps))

        for attr in ("hamiltonian_h1_provider", "hamiltonian_h2_provider"):
            build = self.wrap(PROVIDER, getattr(scenarios, attr))

            def provider(*args, _build=build, **kwargs):
                h_of_t = _build(*args, **kwargs)
                traced = self.wrap(H_OF_T, h_of_t)
                traced.__dict__.update(h_of_t.__dict__)  # keeps max_frequency
                return traced

            replace(scenarios, attr, provider)

        for attr in ("bell_target", "ghz_target"):
            replace(scenarios, attr, self.wrap(TARGET, getattr(scenarios, attr)))
        for owner in (dynamics, model):
            replace(owner, "matexp", self.wrap(MATEXP, owner.matexp))
        from_pure = core.QuantumState.__dict__["from_pure"].__func__
        replace(core.QuantumState, "from_pure", classmethod(self.wrap(FROM_PURE, from_pure)))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Save every span as CSV: id, name, start, end, parent, op, n."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(Span.__dataclass_fields__)
            for s in self.spans:
                out.writerow((s.id, s.name, repr(s.start), repr(s.end), s.parent, s.op, s.n))


def layer_metrics(tracer: Tracer, ops: list[int], csv_bytes: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over the traced operations ``ops``.

    Times are medians over operations (``*_s``) or over calls (``*_ms``,
    ``*_us``); counts are per operation and must agree across operations.
    Returns the metrics and a list of count mismatches (empty when the
    counts repeat).
    """
    spans = [s for s in tracer.spans if s.op in ops]
    self_s = self_times(spans)
    per_op: dict[int, collections.Counter] = {op: collections.Counter() for op in ops}
    point_s: list[float] = []
    step_ms = {LINDBLAD: [], UNITARY: []}
    matexp_us: list[float] = []
    h_us: list[float] = []
    for s in spans:
        acc = per_op[s.op]
        acc[s.name + ".time"] += s.duration
        acc[s.name + ".self"] += self_s[s.id]
        acc[s.name + ".calls"] += 1
        acc[s.name + ".n"] += s.n
        if s.name in step_ms:
            point_s.append(s.duration)
            step_ms[s.name].append(1e3 * s.duration / s.n)
        elif s.name == MATEXP:
            matexp_us.append(1e6 * s.duration)
        elif s.name == H_OF_T:
            h_us.append(1e6 * s.duration)
    for (op, key), n in tracer.counts.items():
        if op in per_op:
            per_op[op][key] += n

    def per_op_median(key: str) -> float:
        return median(per_op[op][key] for op in ops)

    counts_by_op = [
        {
            "scenarios.csv_bytes": csv_bytes,
            "dynamics.lindblad_steps": per_op[op][LINDBLAD + ".n"],
            "dynamics.records": per_op[op]["dynamics.records"],
            "dynamics.positivity_checks": per_op[op]["dynamics.positivity_checks"],
            "dynamics.unitary_steps": per_op[op][UNITARY + ".n"],
            "core.matexp_calls": per_op[op][MATEXP + ".calls"],
            "model.h_calls": per_op[op][H_OF_T + ".calls"],
        }
        for op in ops
    ]
    mismatches = [
        f"{key}: {[c[key] for c in counts_by_op]}"
        for key in COUNT_METRICS
        if len({c[key] for c in counts_by_op}) > 1
    ]
    points = sum(per_op[op][LINDBLAD + ".time"] + per_op[op][UNITARY + ".time"] for op in ops)
    runs = sum(per_op[op][RUN + ".time"] for op in ops)
    metrics = {
        "scenarios.run_s": per_op_median(RUN + ".time"),
        "scenarios.self_s": per_op_median(RUN + ".self"),
        "scenarios.point_s": median(point_s),
        "scenarios.sweep_overlap": points / runs,
        "dynamics.lindblad_step_ms": median(step_ms[LINDBLAD]),
        "dynamics.lindblad_self_s": per_op_median(LINDBLAD + ".self"),
        "dynamics.unitary_step_ms": median(step_ms[UNITARY]),
        "dynamics.unitary_self_s": per_op_median(UNITARY + ".self"),
        "core.matexp_us": median(matexp_us),
        "core.state_build_s": per_op_median(FROM_PURE + ".time"),
        "model.provider_build_s": per_op_median(PROVIDER + ".time"),
        "model.target_s": per_op_median(TARGET + ".time"),
        "model.h_call_us": median(h_us),
        "model.h_total_s": per_op_median(H_OF_T + ".time"),
        **counts_by_op[0],
    }
    return {k: float(metrics[k]) for k in PER_LAYER_UNITS}, mismatches
