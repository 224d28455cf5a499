import contextlib
import inspect
import io
import itertools
import math
import re
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomgate import cli, dynamics, scenarios
from geomgate.dynamics import IntegratorError
from geomgate.scenarios import (
    DEFAULT_M_SWEEP,
    DEFAULT_OMEGA_SCAN,
    ScenarioSpec,
    SpecError,
    run_bell,
    run_ghz_sweep,
    run_rwa_scan,
    run_trajectory,
)


def _read_csv(path):
    """Parse a scenario CSV into (metadata dict, header list, data array)."""
    meta = {}
    rows = []
    header = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return meta, header, np.asarray(rows)


class TestScenarioSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown scenario kind"):
            ScenarioSpec(kind="teleport").validated()

    @pytest.mark.parametrize(
        "spec,msg",
        [
            (ScenarioSpec(kind="bell", n_qubits=3), "exactly 2"),
            (ScenarioSpec(kind="ghz-sweep", n_qubits=1), "at least 2"),
            (ScenarioSpec(kind="bell", n_qubits=0), "n_qubits must be >= 1"),
            (ScenarioSpec(kind="bell", delta_over_eta=0.0), "positive"),
            (ScenarioSpec(kind="bell", n_loops=0), "n_loops"),
            (ScenarioSpec(kind="bell", gamma1_over_eta=-0.1), "non-negative"),
            (ScenarioSpec(kind="bell", cavity_dim=1), "cavity_dim"),
            (ScenarioSpec(kind="bell", dt_override=0.0), "dt_override"),
            (ScenarioSpec(kind="bell", phis=(0.0,)), "phases"),
            (ScenarioSpec(kind="trajectory", phis=(0.5,)), "phis must be 0"),
            (ScenarioSpec(kind="bell", eta_mhz=math.inf), "eta_mhz must be finite"),
            (ScenarioSpec(kind="bell", phis=(0.0, math.nan)), "phases must be finite"),
        ],
    )
    def test_rejected_specs(self, spec, msg):
        with pytest.raises(SpecError, match=msg):
            spec.validated()

    def test_resolution_fills_defaults(self):
        spec = ScenarioSpec(kind="bell").validated()
        assert spec.phis == (0.0, 0.0)
        assert spec.output_path == "bell.csv"

    def test_trajectory_forces_single_qubit(self):
        spec = ScenarioSpec(kind="trajectory", n_qubits=3).validated()
        assert spec.n_qubits == 1
        assert spec.phis == (0.0,)

    @pytest.mark.parametrize("field", ["n_qubits", "cavity_dim", "n_loops"])
    @pytest.mark.parametrize("kind", ["bell", "ghz-sweep", "trajectory", "rwa-scan"])
    def test_huge_integers_are_spec_errors(self, kind, field):
        # str() of an integer of more than 4300 digits raises a plain ValueError, so a
        # message that echoed one escaped SpecError
        spec = ScenarioSpec(kind=kind, **{field: 10**5000})
        if (kind, field) == ("trajectory", "n_qubits"):
            assert spec.validated().n_qubits == 1
        else:
            with pytest.raises(SpecError, match=f"{field} must fit a float"):
                spec.validated()

    def test_runner_rejects_mismatched_kind(self, tmp_path):
        spec = ScenarioSpec(kind="bell", output_path=str(tmp_path / "x.csv"))
        with pytest.raises(SpecError, match="kind"):
            run_trajectory(spec)

    def test_sweep_values_validated(self, tmp_path):
        spec = ScenarioSpec(kind="ghz-sweep", output_path=str(tmp_path / "g.csv"))
        with pytest.raises(SpecError, match="non-empty"):
            run_ghz_sweep(spec, m_values=())
        with pytest.raises(SpecError, match="non-negative"):
            run_ghz_sweep(spec, m_values=(-1.0,))
        with pytest.raises(SpecError, match="distinct"):
            run_ghz_sweep(spec, m_values=(1.0, 2.0, 1.0))
        rwa = ScenarioSpec(kind="rwa-scan", output_path=str(tmp_path / "r.csv"))
        with pytest.raises(SpecError, match="positive"):
            run_rwa_scan(rwa, omega_values=(0.0,))
        with pytest.raises(SpecError, match="finite"):
            run_rwa_scan(rwa, omega_values=(50.0, math.inf))
        with pytest.raises(SpecError, match="distinct"):
            run_rwa_scan(rwa, omega_values=(50.0, 50.0))

    def test_sweep_values_accept_numpy_arrays(self, tmp_path):
        # an array has no truth value, so emptiness is read from its length
        spec = ScenarioSpec(kind="ghz-sweep", n_qubits=2, cavity_dim=4)
        with pytest.raises(SpecError, match="non-empty"):
            run_ghz_sweep(replace(spec, output_path=str(tmp_path / "e.csv")), np.array([]))
        from_array = run_ghz_sweep(
            replace(spec, output_path=str(tmp_path / "a.csv")), np.array([2.0, 1.0])
        )
        from_tuple = run_ghz_sweep(replace(spec, output_path=str(tmp_path / "t.csv")), (1.0, 2.0))
        assert [p["m"] for p in from_array["points"]] == [1.0, 2.0]
        with open(from_array["path"], "rb") as a, open(from_tuple["path"], "rb") as t:
            assert a.read() == t.read()


@pytest.fixture(scope="module")
def bell_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("bell") / "bell.csv"
    return run_bell(ScenarioSpec(kind="bell", output_path=str(out)))


class TestStepPlans:
    @pytest.mark.parametrize(
        "spec,n_steps,stride,rows",
        [
            (ScenarioSpec(kind="bell"), 200, 1, 201),
            (ScenarioSpec(kind="bell", cavity_dim=8, dt_override=0.001), 1571, 3, 525),
            (ScenarioSpec(kind="ghz-sweep", n_qubits=2, cavity_dim=4), 500, 1, None),
            (
                ScenarioSpec(
                    kind="ghz-sweep", n_qubits=2, cavity_dim=4, dt_override=math.pi / 1000
                ),
                1000,
                2,
                None,
            ),
            (ScenarioSpec(kind="ghz-sweep", n_qubits=3, cavity_dim=4, n_loops=2), 800, 1, None),
            (ScenarioSpec(kind="trajectory"), 512, 1, 513),
            (ScenarioSpec(kind="trajectory", cavity_dim=8, dt_override=0.001), 2048, 4, 513),
            (ScenarioSpec(kind="trajectory", cavity_dim=8, n_loops=2), 1024, 1, 1025),
        ],
    )
    def test_plan_recorded_in_csv(self, tmp_path, spec, n_steps, stride, rows):
        """Bell keeps about 400 records, GHZ at least 500 steps and about 500 records,
        the trajectory exactly 512 rows per loop.  The pinned values were measured
        on the per-runner plan arithmetic that ``_plan`` replaced."""
        spec = replace(spec, output_path=str(tmp_path / "plan.csv"))
        if spec.kind == "ghz-sweep":
            run_ghz_sweep(spec, m_values=(1.0,))
        else:
            {"bell": run_bell, "trajectory": run_trajectory}[spec.kind](spec)
        meta, _, data = _read_csv(spec.output_path)
        assert (int(meta["n_steps"]), int(meta["record_stride"])) == (n_steps, stride)
        if rows is not None:
            assert len(data) == rows


class TestBellScenario:
    def test_final_fidelity_matches_frozen_run(self, bell_summary):
        assert bell_summary["final_fidelity"] == pytest.approx(0.9968693429432962, rel=1e-6)
        assert bell_summary["t_end"] == pytest.approx(math.pi / 2)

    def test_csv_shape_and_endpoints(self, bell_summary):
        meta, header, data = _read_csv(bell_summary["path"])
        assert header == ["eta_t_over_pi", "fidelity", "trace", "purity"]
        assert data.shape == (201, 4)
        assert data[0, 1] == pytest.approx(0.5, abs=1e-12)  # |<bell|00>|^2
        assert data[-1, 0] == pytest.approx(0.5)
        assert data[-1, 1] == pytest.approx(bell_summary["final_fidelity"])
        np.testing.assert_allclose(data[:, 2], 1.0, atol=1e-9)

    def test_metadata_records_resolved_spec(self, bell_summary):
        meta, _, _ = _read_csv(bell_summary["path"])
        assert meta["kind"] == "bell"
        assert float(meta["delta_over_eta"]) == 4.0
        assert int(meta["n_steps"]) == 200
        assert meta["phis"] == "[0.0, 0.0]"

    def test_without_decoherence_reaches_target(self, tmp_path):
        spec = ScenarioSpec(
            kind="bell",
            kappa_over_eta=0.0,
            gamma1_over_eta=0.0,
            gamma2_over_eta=0.0,
            output_path=str(tmp_path / "ideal.csv"),
        )
        assert run_bell(spec)["final_fidelity"] >= 1.0 - 1e-4

    def test_provider_survives_a_tracing_wrapper(self, tmp_path, monkeypatch):
        # perfbench/tracing.py re-wraps each provider in a plain function and copies
        # only its __dict__: a provider is t ↦ P(t), and max_frequency, which the
        # step plan reads, must be an attribute.  Bell runs H2 through the Lindblad
        # path, a small rwa-scan runs H1 and H2 through evolve_unitary
        bell = ScenarioSpec(kind="bell", cavity_dim=8, output_path=str(tmp_path / "b.csv"))
        rwa = ScenarioSpec(
            kind="rwa-scan", n_qubits=1, cavity_dim=4, output_path=str(tmp_path / "r.csv")
        )

        def both():
            return run_bell(bell)["final_fidelity"], run_rwa_scan(rwa, (50.0,))["points"]

        plain = both()

        def rewrap(build):
            def rewrapped(*args, **kwargs):
                h_of_t = build(*args, **kwargs)

                def traced(*a, **k):
                    return h_of_t(*a, **k)

                traced.__dict__.update(h_of_t.__dict__)
                return traced

            return rewrapped

        for name in ("hamiltonian_h1_provider", "hamiltonian_h2_provider"):
            monkeypatch.setattr(scenarios, name, rewrap(getattr(scenarios, name)))
        assert both() == plain

    @pytest.mark.parametrize("dphi", [0.0, 0.5, 1.0, math.pi / 2, 2.5])
    def test_phase_difference_tunes_the_gate(self, tmp_path, dphi):
        # a phase difference Δφ scales the gate angle to θ = (π/4)·cos Δφ, so
        # without decoherence F = |⟨bell|e^{-iθσxσx}|00⟩|² = (1 + sin 2θ)/2
        spec = ScenarioSpec(
            kind="bell",
            phis=(0.0, dphi),
            kappa_over_eta=0.0,
            gamma1_over_eta=0.0,
            gamma2_over_eta=0.0,
            output_path=str(tmp_path / "phase.csv"),
        )
        theta = 0.25 * math.pi * math.cos(dphi)
        expected = 0.5 * (1.0 + math.sin(2.0 * theta))
        assert run_bell(spec)["final_fidelity"] == pytest.approx(expected, abs=1e-6)


class TestTrajectoryScenario:
    def test_simulation_tracks_closed_form(self, tmp_path):
        spec = ScenarioSpec(kind="trajectory", output_path=str(tmp_path / "t.csv"))
        summary = run_trajectory(spec)
        assert summary["max_sim_deviation"] < 1e-12
        assert summary["analytic_closure"] < 1e-12
        assert summary["simulated_closure"] < 1e-12
        assert summary["x_max_analytic"] == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_csv_mirror_branches(self, tmp_path):
        spec = ScenarioSpec(kind="trajectory", output_path=str(tmp_path / "t.csv"))
        run_trajectory(spec)
        _, header, data = _read_csv(str(tmp_path / "t.csv"))
        assert header == ["t", "x_plus", "p_plus", "x_minus", "p_minus", "x_sim", "p_sim"]
        assert data.shape == (513, 7)
        np.testing.assert_allclose(data[:, 3], -data[:, 1], atol=0)
        np.testing.assert_allclose(data[:, 4], -data[:, 2], atol=0)
        # simulated loop follows the analytic positive-x branch
        np.testing.assert_allclose(data[:, 5], data[:, 1], atol=1e-12)

    def test_reruns_are_bitwise_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_trajectory(ScenarioSpec(kind="trajectory", output_path=str(a)))
        run_trajectory(ScenarioSpec(kind="trajectory", output_path=str(b)))
        assert a.read_bytes() == b.read_bytes()
        # a sweep's bytes must not depend on the order its points are given in
        c, d = tmp_path / "c.csv", tmp_path / "d.csv"
        ghz = ScenarioSpec(kind="ghz-sweep", n_qubits=2, cavity_dim=4)
        run_ghz_sweep(replace(ghz, output_path=str(c)), m_values=(0.5, 2.0, 1.0))
        run_ghz_sweep(replace(ghz, output_path=str(d)), m_values=(2.0, 1.0, 0.5))
        assert c.read_bytes() == d.read_bytes()


class TestGhzSweepScenario:
    def test_fidelity_decreases_with_decay_ratio(self, tmp_path):
        spec = ScenarioSpec(
            kind="ghz-sweep", n_qubits=2, cavity_dim=12, output_path=str(tmp_path / "g.csv")
        )
        summary = run_ghz_sweep(spec, m_values=(2.0, 0.5))
        points = summary["points"]
        assert [p["m"] for p in points] == [0.5, 2.0]  # rows sorted ascending
        assert points[0]["f_max"] > points[1]["f_max"]
        # the peak sits at the loop closure tau_1 = pi/2, up to grid resolution
        for p in points:
            assert p["t_at_max"] == pytest.approx(math.pi / 2, abs=0.02)
        _, header, data = _read_csv(summary["path"])
        assert header == ["m", "f_max", "t_at_max"]
        assert data.shape == (2, 3)


class TestRwaScanScenario:
    def test_frozen_infidelities_and_interference_ratio(self, tmp_path):
        spec = ScenarioSpec(kind="rwa-scan", output_path=str(tmp_path / "r.csv"))
        summary = run_rwa_scan(spec, omega_values=(50.0, 100.0))
        i50, i100 = (p["infidelity"] for p in summary["points"])
        assert i50 == pytest.approx(0.0072307768763232305, rel=1e-6)
        assert i100 == pytest.approx(0.0030498244349002057, rel=1e-6)
        # this octave sits below 4x: the residual micromotion phase e^{i*omega*tau}
        # alternates sign between the two points and interferes with the envelope
        assert i50 / i100 == pytest.approx(2.3709, abs=2e-3)
        _, header, data = _read_csv(summary["path"])
        assert header == ["omega_over_eta", "infidelity", "fitted_local_exponent"]
        assert data.shape == (2, 3)

    def test_warns_when_drive_is_not_fast(self, tmp_path):
        spec = ScenarioSpec(
            kind="rwa-scan", n_qubits=1, cavity_dim=8, output_path=str(tmp_path / "r.csv")
        )
        with pytest.warns(UserWarning, match="not well above"):
            summary = run_rwa_scan(spec, omega_values=(30.0,))
        assert 0.0 < summary["points"][0]["infidelity"] < 1.0
        assert math.isnan(summary["slope"])  # needs two points

    def test_strong_drive_limit_vanishes(self, tmp_path):
        # far above the detuning the drive-only model becomes exact
        spec = ScenarioSpec(
            kind="rwa-scan",
            n_qubits=1,
            delta_over_eta=8.0,
            cavity_dim=8,
            output_path=str(tmp_path / "r.csv"),
        )
        summary = run_rwa_scan(spec, omega_values=(2000.0,))
        assert summary["points"][0]["infidelity"] < 1e-5

    def test_unitary_runs_read_the_provider_a_fixed_number_of_times(self, tmp_path, monkeypatch):
        # a structural guard without timing: each evolve_unitary call reads P(t) three
        # times (the shape at t=0, the first and the last midpoint) and takes two
        # matexp, U_1 and R(dt), however many steps it plans, so two Ω-points make
        # 2·2·3 = 12 reads and 2·2·2 = 8 exponentials, and no eigh is reached.  H₂ does
        # not depend on Ω, so one H₂ provider serves both points, next to one H₁ each
        reads, plans, exponentials, builds = [], [], [], []

        def counting(build):
            def counted(*args, **kwargs):
                builds.append(build.__name__)
                p_of_t = build(*args, **kwargs)

                def read(t):
                    reads.append(t)
                    return p_of_t(t)

                read.__dict__.update(p_of_t.__dict__)
                return read

            return counted

        def planned(h_of_t, initial, cfg):
            plans.append(cfg.n_steps)
            return evolve(h_of_t, initial, cfg)

        def counted_matexp(a):
            exponentials.append(a.shape)
            return matexp(a)

        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh reached")

        evolve, matexp = scenarios.evolve_unitary, dynamics.matexp
        monkeypatch.setattr(scenarios, "evolve_unitary", planned)
        for name in ("hamiltonian_h1_provider", "hamiltonian_h2_provider"):
            monkeypatch.setattr(scenarios, name, counting(getattr(scenarios, name)))
        monkeypatch.setattr(dynamics, "matexp", counted_matexp)
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        counts = []
        for dt in (None, 1e-4):
            reads.clear()
            exponentials.clear()
            builds.clear()
            spec = ScenarioSpec(
                kind="rwa-scan", cavity_dim=4, dt_override=dt, output_path=str(tmp_path / "r.csv")
            )
            run_rwa_scan(spec, omega_values=(50.0, 100.0))
            counts.append((len(reads), len(exponentials), sorted(builds)))
        once = sorted(["hamiltonian_h2_provider"] + ["hamiltonian_h1_provider"] * 2)
        assert counts == [(12, 8, once), (12, 8, once)]
        assert plans == [2500, 2500, 5000, 5000, 15708, 15708, 15708, 15708]


def test_runners_never_reach_eigh(tmp_path, monkeypatch):
    # every exponential is matexp's Taylor series, targets included: an eigh in a run
    # makes LAPACK's eigensolver pages resident, which raises the run's peak RSS
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    out = str(tmp_path / "out.csv")
    run_bell(ScenarioSpec(kind="bell", cavity_dim=4, output_path=out))
    run_ghz_sweep(ScenarioSpec(kind="ghz-sweep", n_qubits=2, cavity_dim=4, output_path=out),
                  m_values=(1.0,))
    run_trajectory(ScenarioSpec(kind="trajectory", cavity_dim=4, output_path=out))
    run_rwa_scan(ScenarioSpec(kind="rwa-scan", n_qubits=1, cavity_dim=4, output_path=out),
                 omega_values=(50.0,))


def test_runners_build_no_kronecker_product(tmp_path, monkeypatch):
    # register sums, targets and H(dt/2) are assembled by index; the trajectory is left
    # out because its initial state and cavity observables are Kronecker products
    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron reached")

    monkeypatch.setattr(np, "kron", no_kron)
    out = str(tmp_path / "out.csv")
    run_bell(ScenarioSpec(kind="bell", cavity_dim=4, output_path=out))
    run_ghz_sweep(ScenarioSpec(kind="ghz-sweep", n_qubits=3, cavity_dim=4, output_path=out),
                  m_values=(1.0,))
    run_rwa_scan(ScenarioSpec(kind="rwa-scan", n_qubits=2, cavity_dim=4, output_path=out),
                 omega_values=(50.0, 100.0))


def _rk4_gain(z):
    return 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24


def _half_disk_edge(radius):
    """The boundary of {|z| ≤ radius, Re z ≤ 0}: its arc and its stretch of the imaginary axis."""
    arc = radius * np.exp(1j * np.linspace(math.pi / 2, 3 * math.pi / 2, 4001))
    return np.concatenate((arc, 1j * np.linspace(-radius, radius, 4001)))


class TestGeneratorBound:
    """Lindblad plans are refused when dt times the Lindbladian's norm bound Λ exceeds 2.5."""

    def test_bound_lies_inside_rk4_stability_region(self):
        # |R| is largest on the boundary of the half-disk (maximum modulus principle)
        assert np.abs(_rk4_gain(_half_disk_edge(scenarios._MAX_DT_NORM))).max() <= 1.0
        # and the region does not hold a half-disk much larger: 2.5 is not a vacuous bound
        assert np.abs(_rk4_gain(_half_disk_edge(2.7))).max() > 1.0

    @pytest.mark.parametrize(
        "spec,dt_lambda",
        [
            (ScenarioSpec(kind="bell"), 0.24),
            (ScenarioSpec(kind="bell", delta_over_eta=0.5), 1.95),
            (ScenarioSpec(kind="ghz-sweep", n_qubits=4, cavity_dim=24), 0.48),
            (ScenarioSpec(kind="ghz-sweep", n_qubits=4, cavity_dim=32), 0.56),
            (ScenarioSpec(kind="ghz-sweep", n_qubits=4, cavity_dim=8), 0.27),
            (ScenarioSpec(kind="trajectory"), 0.048),
        ],
    )
    def test_headline_and_benchmark_plans_pass(self, monkeypatch, spec, dt_lambda):
        # the CLI's headline specs and the benchmark's sizes, with the largest default m
        seen = []
        plan = scenarios._plan

        def recording(spec, drive, provider, t_end, **kwargs):
            cfg = plan(spec, drive, provider, t_end, **kwargs)
            (kappa, gamma1, gamma2), n, d = kwargs["rates"], drive.n_qubits, spec.cavity_dim
            bound = 4 * n * math.sqrt(d - 1) + 2 * kappa * (d - 1) + 2 * n * (gamma1 + gamma2)
            seen.append(cfg.dt_effective * bound)
            raise SpecError("planned")  # stop before integrating

        monkeypatch.setattr(scenarios, "_plan", recording)
        runner = {"bell": run_bell, "ghz-sweep": run_ghz_sweep, "trajectory": run_trajectory}
        with pytest.raises(SpecError, match="planned"):
            runner[spec.kind](replace(spec, output_path=""))
        assert seen == [pytest.approx(dt_lambda, abs=0.005)]

    @pytest.mark.parametrize(
        "args",
        [
            # dt·Λ = 3.14 and 4.91: the first ran to a wrong fidelity, the second diverged
            ["bell", "--delta-over-eta", "0.5", "--cavity-dim", "40"],
            ["bell", "--delta-over-eta", "0.5", "--cavity-dim", "96"],
            # Λ ≈ 3e301 overflowed the step to NaN with numpy warnings and exit 3
            ["bell", "--kappa-over-eta", "1e300"],
            # γ = m·κ overflows to inf, which DecoherenceRates rejected with a traceback
            ["ghz-sweep", "--n-qubits", "2", "--cavity-dim", "4", "--kappa-over-eta", "1e10",
             "--m-values", "1e300"],
            # 512 steps per loop of 2π/δ: dt·Λ = 3.8 at δ = 0.05, d = 16.  The exact closed
            # step is stable at any dt, so here the bound is only a dt bound; it does not catch
            # the branch mean photon number (2/δ)² = 1600 far past d = 16 at a finer dt
            ["trajectory", "--delta-over-eta", "0.05"],
        ],
    )
    def test_unstable_plan_exits_two_without_warnings(self, tmp_path, args):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*args, "--out", str(out)]) == 2
        assert not out.exists()

    def test_refusal_sits_at_the_bound(self, tmp_path):
        # bell with no rates at d=17: Λ = 8·√16 = 32, so dt·Λ = 2.5 at dt = 0.078125
        base = ScenarioSpec(
            kind="bell", delta_over_eta=0.5, cavity_dim=17, kappa_over_eta=0.0,
            gamma1_over_eta=0.0, gamma2_over_eta=0.0, output_path=str(tmp_path / "b.csv"),
        )
        with pytest.raises(SpecError, match="generator bound"):
            run_bell(replace(base, dt_override=0.08))  # 158 steps: dt·Λ = 2.545
        run_bell(replace(base, dt_override=0.078))  # 162 steps: dt·Λ = 2.482


RWA_SMALL = ["rwa-scan", "--n-qubits", "1", "--cavity-dim", "4"]
FLOAT_FLAGS = (
    "--delta-over-eta",
    "--kappa-over-eta",
    "--gamma1-over-eta",
    "--gamma2-over-eta",
    "--dt-over-eta",
)
# values that have crashed, fooled or stalled the runners: NaN, ±inf, zero,
# negative, subnormal, and a tiny dt that plans about 10^12 steps
EDGE_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-320, 1e-12])


class TestCli:
    def test_bell_run_exits_zero_and_writes(self, tmp_path):
        out = tmp_path / "bell.csv"
        assert cli.main(["bell", "--out", str(out)]) == 0
        assert out.exists()
        _, _, data = _read_csv(str(out))
        assert data[-1, 1] == pytest.approx(0.9968693429432962, rel=1e-6)

    @pytest.mark.parametrize(
        "args",
        [
            ["bell", "--n-qubits", "3"],
            # step plans the integrator rejects: undersampled drive, t_end < dt
            ["bell", "--dt-over-eta", "0.1"],
            [*RWA_SMALL, "--omega-values", "50", "--dt-over-eta", "10"],
            [*RWA_SMALL, "--omega-values", "50", "--dt-over-eta", "0.01"],
            # t_end overflows to inf; the default dt underflows to 0; t_end/dt overflows
            ["bell", "--delta-over-eta", "1e-320"],
            [*RWA_SMALL, "--omega-values", "1e308"],
            ["bell", "--dt-over-eta", "1e-320"],
            # more steps than the step-count envelope allows (about 1.6e12 and 1.6e7)
            ["bell", "--dt-over-eta", "1e-12"],
            ["bell", "--dt-over-eta", "1e-7"],
            # joint dimensions 4·10⁶ and 2⁴⁰·24, far beyond what a dense ρ can hold
            ["bell", "--cavity-dim", "1000000"],
            ["ghz-sweep", "--n-qubits", "40"],
            # a physical eta/2pi is a positive frequency
            ["bell", "--cavity-dim", "6", "--eta-mhz", "-3"],
            ["bell", "--cavity-dim", "6", "--eta-mhz", "0"],
            # n_loops beyond the float range: loop_time raised OverflowError with exit 1
            ["bell", "--n-loops", str(10**400)],
            ["ghz-sweep", "--n-qubits", "2", "--cavity-dim", "4", "--n-loops", str(10**400)],
            ["trajectory", "--n-loops", str(10**400)],
            [*RWA_SMALL, "--n-loops", str(10**400)],
            # an output path that cannot be written: an existing directory, a path under a
            # file; both used to integrate the whole run and then exit 1 with a traceback
            ["bell", "--cavity-dim", "4", "--out", "{tmp}/dir"],
            ["bell", "--cavity-dim", "4", "--out", "{tmp}/file/x.csv"],
        ],
    )
    def test_invalid_spec_exits_two(self, tmp_path, monkeypatch, args):
        def never(*a, **k):
            raise AssertionError("an evolver was called")

        for name in ("evolve_lindblad", "evolve_unitary"):
            monkeypatch.setattr(scenarios, name, never)
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")
        argv = [arg.format(tmp=tmp_path) for arg in args]
        if "--out" not in argv:
            argv += ["--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 2
        # no CSV written, nothing created
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]

    @pytest.mark.parametrize(
        "args, expected",
        [
            (["bell", "--cavity-dim", "6"], ["bell: F(tau_1) = 0.996680 at eta*t/pi = 0.500000"]),
            (
                ["ghz-sweep", "--n-qubits", "2", "--cavity-dim", "4", "--m-values", "1"],
                ["ghz-sweep: m=1 f_max=0.992105 at t=1.507964"],
            ),
            (
                [*RWA_SMALL, "--omega-values", "50"],
                ["rwa-scan: omega=50 infidelity=3.173613e-03", "rwa-scan: log-log slope = nan"],
            ),
        ],
    )
    def test_stdout_lines(self, tmp_path, capsys, args, expected):
        out = tmp_path / "x.csv"
        assert cli.main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [*expected, f"wrote {out}"]

    def test_warning_is_one_plain_stderr_line(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main([*RWA_SMALL, "--omega-values", "30", "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: omega values [30.0] are not well above delta=4.0; "
            "the strong-driving comparison is unreliable there\n"
        )

    def test_header_records_only_the_rates_a_kind_takes(self, tmp_path):
        # ghz-sweep runs each point at γ₁ = γ₂ = m·κ, the trajectory is closed, rwa-scan unitary
        rates = ["--kappa-over-eta", "0.01", "--gamma1-over-eta", "0.02", "--gamma2-over-eta", "0.03"]
        small = {
            "bell": ["--cavity-dim", "4"],
            "ghz-sweep": ["--n-qubits", "2", "--cavity-dim", "4", "--m-values", "1"],
            "trajectory": ["--cavity-dim", "4"],
            "rwa-scan": [*RWA_SMALL[1:], "--omega-values", "50"],
        }
        recorded = {}
        for kind, args in small.items():
            out = tmp_path / f"{kind}.csv"
            assert cli.main([kind, *args, *rates, "--out", str(out)]) == 0
            meta, _, _ = _read_csv(str(out))
            recorded[kind] = {key: meta[key] for key in meta if key[:5] in ("kappa", "gamma")}
        assert recorded == {
            "bell": {"kappa_over_eta": "0.01", "gamma1_over_eta": "0.02", "gamma2_over_eta": "0.03"},
            "ghz-sweep": {"kappa_over_eta": "0.01"},
            "trajectory": {},
            "rwa-scan": {},
        }

    def test_huge_integer_error_is_one_short_line(self, tmp_path, capsys):
        # an integer inside the float range used to pass validation and be echoed digit
        # by digit by a later check; rwa-scan also warned about Ω before failing
        out = tmp_path / "x.csv"
        cases = [
            *[(kind, "--n-qubits") for kind in ("bell", "ghz-sweep", "rwa-scan")],
            *[
                (kind, flag)
                for kind in ("bell", "ghz-sweep", "trajectory", "rwa-scan")
                for flag in ("--cavity-dim", "--n-loops")
            ],
        ]
        for (kind, flag), n in itertools.product(cases, (10**300, 10**400)):
            assert cli.main([kind, flag, str(n), "--out", str(out)]) == 2, (kind, flag, n)
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and len(err.encode()) < 100, (kind, flag, err)

    def test_header_keys_in_field_order(self, tmp_path):
        out = tmp_path / "b.csv"
        argv = ["bell", "--cavity-dim", "6", "--eta-mhz", "5.5", "--dt-over-eta", "0.005"]
        assert cli.main([*argv, "--out", str(out)]) == 0
        meta, _, _ = _read_csv(str(out))
        # the spec's fields in declaration order, without dt_override and output_path
        assert list(meta) == [
            "kind", "n_qubits", "delta_over_eta", "n_loops", "phis", "kappa_over_eta",
            "gamma1_over_eta", "gamma2_over_eta", "cavity_dim", "eta_mhz",
            "t_end", "dt", "n_steps", "record_stride",
        ]
        assert meta["eta_mhz"] == "5.5"

    def test_trajectory_stdout_lines(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.main(["trajectory", "--cavity-dim", "8", "--out", str(out)]) == 0
        line, wrote = capsys.readouterr().out.splitlines()
        # the closure moves with the BLAS kernel, so only its format is pinned
        pattern = r"trajectory: max\|sim-analytic\| = 2\.842e-08, simulated closure = \d\.\d{3}e-\d\d"
        assert re.fullmatch(pattern, line), line
        assert wrote == f"wrote {out}"

    @pytest.mark.parametrize(
        "args",
        [
            ["bell", "--delta-over-eta", "nan"],
            ["bell", "--dt-over-eta", "nan"],
            ["bell", "--delta-over-eta", "inf"],
            ["bell", "--kappa-over-eta", "nan"],
            ["ghz-sweep", "--m-values", "nan"],
        ],
    )
    def test_non_finite_input_exits_two(self, tmp_path, args):
        out = tmp_path / "x.csv"
        assert cli.main([*args, "--out", str(out)]) == 2
        assert not out.exists()

    @settings(max_examples=250, deadline=None)
    @given(
        kind=st.sampled_from(["bell", "ghz-sweep", "trajectory", "rwa-scan"]),
        n_qubits=st.integers(-1, 3) | st.just(10**400),
        cavity_dim=st.integers(0, 5) | st.just(10**400),
        n_loops=st.integers(-1, 2) | st.just(10**400),
        delta=st.floats(1.0, 8.0),
        rates=st.lists(st.floats(0.0, 0.1), min_size=3, max_size=3),
        dt=st.none() | st.floats(1e-2, 0.05),
        edges=st.dictionaries(st.sampled_from(FLOAT_FLAGS), EDGE_FLOATS, max_size=2),
        omega=st.sampled_from([8.0, math.nan, 0.0, 1e308]),
    )
    def test_any_spec_exits_zero_two_or_three(
        self, kind, n_qubits, cavity_dim, n_loops, delta, rates, dt, edges, omega
    ):
        """Every spec ends in exit code 0, 2 or 3, never in a traceback.

        Floats come from moderate ranges, with up to two replaced by edge values,
        so that many examples get past validation and run.  The integer flags
        also take 10**400, which no float can hold.  dt is drawn from 1e-2
        up so that no example runs more than a few thousand steps; the edge dt
        1e-12 (about 10^12 steps) must be refused by the step-count envelope.
        """
        values = {**dict(zip(FLOAT_FLAGS, [delta, *rates, dt])), **edges}
        argv = [
            kind, f"--n-qubits={n_qubits}", f"--cavity-dim={cavity_dim}", f"--n-loops={n_loops}"
        ]
        argv += [f"{flag}={value!r}" for flag, value in values.items() if value is not None]
        if kind == "ghz-sweep":
            argv += ["--m-values", "1"]
        if kind == "rwa-scan":
            argv += ["--omega-values", repr(omega)]
        with (
            tempfile.TemporaryDirectory() as tmp,
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(io.StringIO()),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("ignore")
            assert cli.main([*argv, "--out", f"{tmp}/x.csv"]) in (0, 2, 3)

    def test_integrator_abort_exits_three(self, tmp_path, monkeypatch):
        def boom(spec):
            raise IntegratorError("forced abort")

        monkeypatch.setattr(cli, "run_bell", boom)
        assert cli.main(["bell", "--out", str(tmp_path / "x.csv")]) == 3

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["teleport"])
        assert excinfo.value.code == 2

    def test_subcommand_defaults(self, monkeypatch):
        # with no flags the CLI passes a spec that resolves like the library's default
        received = {}
        sizes = {"bell": (2, 16), "ghz-sweep": (4, 24), "trajectory": (1, 16), "rwa-scan": (2, 16)}
        for kind in sizes:

            def record(spec, *values, kind=kind):
                received[kind] = (spec, values)
                raise SpecError("recorded")  # stop before integrating

            monkeypatch.setattr(cli, "run_" + kind.replace("-", "_"), record)
            assert cli.main([kind]) == 2
            spec = received[kind][0].validated()
            assert (spec.n_qubits, spec.cavity_dim) == sizes[kind]
            assert spec == ScenarioSpec(kind=kind).validated()
        assert received["bell"][1] == received["trajectory"][1] == ()
        # no sweep flag forwards no sweep value, so each runner's own default applies
        assert received["ghz-sweep"][1] == received["rwa-scan"][1] == ()
        assert [
            inspect.signature(run_ghz_sweep).parameters["m_values"].default,
            inspect.signature(run_rwa_scan).parameters["omega_values"].default,
        ] == [DEFAULT_M_SWEEP, DEFAULT_OMEGA_SCAN]

    def test_phases_flow_through(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = cli.main(
            ["bell", "--phi", "0.0", "0.0", "--kappa-over-eta", "0", "--out", str(out)]
        )
        assert rc == 0
        meta, _, _ = _read_csv(str(out))
        assert meta["kappa_over_eta"] == "0.0"
