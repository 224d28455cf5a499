import math
from dataclasses import replace

import numpy as np
import pytest

from geomgate import cli
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
        rwa = ScenarioSpec(kind="rwa-scan", output_path=str(tmp_path / "r.csv"))
        with pytest.raises(SpecError, match="positive"):
            run_rwa_scan(rwa, omega_values=(0.0,))
        with pytest.raises(SpecError, match="finite"):
            run_rwa_scan(rwa, omega_values=(50.0, math.inf))


@pytest.fixture(scope="module")
def bell_summary(tmp_path_factory):
    out = tmp_path_factory.mktemp("bell") / "bell.csv"
    return run_bell(ScenarioSpec(kind="bell", output_path=str(out)))


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


class TestTrajectoryScenario:
    def test_simulation_tracks_closed_form(self, tmp_path):
        spec = ScenarioSpec(kind="trajectory", output_path=str(tmp_path / "t.csv"))
        summary = run_trajectory(spec)
        assert summary["max_sim_deviation"] < 1e-10
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
        np.testing.assert_allclose(data[:, 5], data[:, 1], atol=1e-10)

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


class TestCli:
    def test_bell_run_exits_zero_and_writes(self, tmp_path):
        out = tmp_path / "bell.csv"
        assert cli.main(["bell", "--out", str(out)]) == 0
        assert out.exists()
        _, _, data = _read_csv(str(out))
        assert data[-1, 1] == pytest.approx(0.9968693429432962, rel=1e-6)

    def test_invalid_spec_exits_two(self, tmp_path):
        rc = cli.main(["bell", "--n-qubits", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

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

    def test_integrator_abort_exits_three(self, tmp_path, monkeypatch):
        def boom(spec):
            raise IntegratorError("forced abort")

        monkeypatch.setattr(cli, "run_bell", boom)
        assert cli.main(["bell", "--out", str(tmp_path / "x.csv")]) == 3

    def test_unknown_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["teleport"])
        assert excinfo.value.code == 2

    def test_subcommand_defaults(self):
        parser = cli.build_parser()
        ghz = parser.parse_args(["ghz-sweep"])
        assert (ghz.n_qubits, ghz.cavity_dim) == (4, 24)
        assert ghz.m_values == list(DEFAULT_M_SWEEP)
        traj = parser.parse_args(["trajectory"])
        assert traj.n_qubits == 1
        rwa = parser.parse_args(["rwa-scan"])
        assert (rwa.n_qubits, rwa.cavity_dim) == (2, 16)
        assert rwa.omega_values == list(DEFAULT_OMEGA_SCAN)

    def test_phases_flow_through(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = cli.main(
            ["bell", "--phi", "0.0", "0.0", "--kappa-over-eta", "0", "--out", str(out)]
        )
        assert rc == 0
        meta, _, _ = _read_csv(str(out))
        assert meta["kappa_over_eta"] == "0.0"
