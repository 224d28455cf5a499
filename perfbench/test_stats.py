"""Checks of the benchmark's own arithmetic; no geomgate import needed.

    python3 -m pytest perfbench/test_stats.py -q
"""

from __future__ import annotations

import types

import pytest

from stats import Span, covered, failed_fraction, self_times, spread, tail_percentile
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics


def test_self_time_subtracts_nested_children_once():
    spans = [
        Span(1, "run", 0.0, 10.0, 0, 0),
        Span(2, "evolve", 1.0, 6.0, 1, 0),
        Span(3, "h", 2.0, 3.0, 2, 0),  # grandchild: counts against evolve, not run
        Span(4, "evolve", 5.0, 8.0, 1, 0),  # overlaps span 2, as pool points do
    ]
    self_s = self_times(spans)
    assert self_s[1] == pytest.approx(10.0 - 7.0)  # children cover [1, 8]
    assert self_s[2] == pytest.approx(5.0 - 1.0)
    assert self_s[3] == pytest.approx(1.0)
    assert self_s[4] == pytest.approx(3.0)


def test_covered_clips_parts_to_the_interval():
    assert covered((0.0, 4.0), [(-1.0, 1.0), (3.0, 9.0), (5.0, 6.0)]) == pytest.approx(2.0)
    assert covered((0.0, 4.0), []) == 0.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile([1.0] * 10) is None
    samples = [float(i) for i in range(1, 101)]
    assert tail_percentile(samples) == (90.0, 90.0)
    pct, value = tail_percentile(list(reversed([float(i) for i in range(1, 86)])))
    assert value == 75.0 and sum(s > value for s in range(1, 86)) == 10
    assert pct == 88.0


def test_failed_fraction_counts_against_attempts():
    assert failed_fraction(0, 5) == 0.0
    assert failed_fraction(2, 8) == 0.25
    with pytest.raises(ValueError):
        failed_fraction(1, 0)
    with pytest.raises(ValueError):
        failed_fraction(3, 2)


def test_spread_is_interquartile_distance_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_tracer_parents_pool_calls_to_the_operation_root():
    """Calls from another thread have no open span there; they hang off the operation's root."""
    import threading

    tracer = Tracer()
    inner = tracer.wrap("model.h_of_t", lambda: None)
    worker = tracer.wrap("dynamics.evolve_unitary", lambda cfg: inner(), lambda a, k: a[0])

    def run():
        t = threading.Thread(target=worker, args=(7,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.op = 3
    tracer.wrap("scenarios.run", run)()
    by_name = {s.name: s for s in tracer.spans}
    root = by_name["scenarios.run"]
    assert root.parent == 0 and tracer.root == 0
    assert by_name["dynamics.evolve_unitary"].parent == root.id
    assert by_name["dynamics.evolve_unitary"].n == 7
    assert by_name["model.h_of_t"].parent == by_name["dynamics.evolve_unitary"].id
    assert {s.op for s in tracer.spans} == {3}


def _fake_op(tracer: Tracer, op: int, scale: float) -> None:
    base = 100.0 * op
    tracer.spans += [
        Span(10 * op + 1, "scenarios.run", base, base + 10 * scale, 0, op),
        Span(10 * op + 2, "dynamics.evolve_lindblad", base + 1, base + 1 + 5 * scale, 10 * op + 1, op, 50),
        Span(10 * op + 3, "model.h_of_t", base + 2, base + 2 + scale, 10 * op + 2, op),
    ]
    tracer.counts[(op, "dynamics.records")] += 51
    tracer.counts[(op, "dynamics.positivity_checks")] += 6


def test_layer_metrics_take_medians_and_check_counts():
    tracer = Tracer()
    for op, scale in ((1, 1.0), (3, 2.0), (5, 3.0)):
        _fake_op(tracer, op, scale)
    metrics, mismatches = layer_metrics(tracer, [1, 3, 5], csv_bytes=123)
    assert set(metrics) == set(PER_LAYER_UNITS)
    assert mismatches == []
    assert metrics["scenarios.run_s"] == pytest.approx(20.0)
    assert metrics["scenarios.self_s"] == pytest.approx(10.0)
    assert metrics["scenarios.sweep_overlap"] == pytest.approx(0.5)
    assert metrics["dynamics.lindblad_steps"] == 50
    assert metrics["dynamics.lindblad_step_ms"] == pytest.approx(1e3 * 10.0 / 50)
    assert metrics["dynamics.lindblad_self_s"] == pytest.approx(8.0)
    assert metrics["model.h_calls"] == 1
    assert metrics["dynamics.records"] == 51
    assert metrics["dynamics.unitary_steps"] == 0 and metrics["core.matexp_us"] == 0.0
    assert metrics["scenarios.csv_bytes"] == 123

    tracer.counts[(3, "dynamics.records")] += 1
    _, mismatches = layer_metrics(tracer, [1, 3, 5], csv_bytes=123)
    assert mismatches == ["dynamics.records: [51, 52, 51]"]


def test_patched_restores_every_name():
    class QuantumState:
        @classmethod
        def from_pure(cls, space, psi):
            return (cls, space, psi)

    def provider(drive, space):
        def h_of_t(t):
            return t

        h_of_t.max_frequency = 9.0
        return h_of_t

    scenarios = types.ModuleType("scenarios")
    for name in ("run_bell", "run_ghz_sweep", "run_trajectory", "run_rwa_scan",
                 "evolve_lindblad", "evolve_unitary", "bell_target", "ghz_target"):
        setattr(scenarios, name, lambda *a, **k: None)
    scenarios.hamiltonian_h1_provider = scenarios.hamiltonian_h2_provider = provider
    dynamics, model, core = (types.ModuleType(n) for n in ("dynamics", "model", "core"))
    dynamics.matexp = model.matexp = lambda a: a
    core.QuantumState = QuantumState
    before = {n: getattr(scenarios, n) for n in vars(scenarios) if not n.startswith("__")}

    tracer = Tracer()
    with tracer.patched((scenarios, dynamics, model, core)):
        h = scenarios.hamiltonian_h2_provider(None, None)
        assert h.max_frequency == 9.0 and h(2.0) == 2.0
        assert QuantumState.from_pure("s", "p") == (QuantumState, "s", "p")
        assert dynamics.matexp(5) == 5
    assert {n: getattr(scenarios, n) for n in before} == before
    assert QuantumState.from_pure("s", "p") == (QuantumState, "s", "p")
    assert [s.name for s in tracer.spans] == [
        "model.provider", "model.h_of_t", "core.QuantumState.from_pure", "core.matexp"
    ]
