"""Acceptance suite: eight headline checks, one printed PASS/FAIL line each.

Heavy runs (Bell dynamics, the GHZ decay-ratio sweep and its convergence
variants) are shared through module-scoped fixtures, so the suite integrates
each scenario exactly once.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import math
import time

import numpy as np
import pytest

from geomgate.core import (
    CAVITY,
    HilbertSpace,
    QuantumState,
    _reduced_qubit_rho,
    annihilation,
    embed,
    fock_state,
)
from geomgate.dynamics import (
    DecoherenceRates,
    IntegratorConfig,
    evolve_lindblad,
    evolve_unitary,
)
from geomgate.model import (
    DriveParams,
    bell_target,
    gate_unitary,
    hamiltonian_h2_provider,
    loop_time,
    theta_of_schedule,
)
from geomgate.scenarios import (
    DEFAULT_M_SWEEP,
    DEFAULT_OMEGA_SCAN,
    ScenarioSpec,
    run_bell,
    run_ghz_sweep,
    run_rwa_scan,
    run_trajectory,
)
from test_core import _displaced_vacuum
from test_dynamics import _zero_provider
from test_model import _propagator_gate_distance


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - start


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def bell_run(outdir):
    spec = ScenarioSpec(kind="bell", output_path=str(outdir / "bell.csv"))
    summary, seconds = _timed(run_bell, spec)
    return {"summary": summary, "seconds": seconds}


@pytest.fixture(scope="module")
def bell_half_dt(outdir):
    spec = ScenarioSpec(
        kind="bell",
        dt_override=2.0 * math.pi / 1600.0,
        output_path=str(outdir / "bell_halfdt.csv"),
    )
    return run_bell(spec)


@pytest.fixture(scope="module")
def bell_d24(outdir):
    spec = ScenarioSpec(kind="bell", cavity_dim=24, output_path=str(outdir / "bell_d24.csv"))
    return run_bell(spec)


@pytest.fixture(scope="module")
def ghz_sweep(outdir):
    spec = ScenarioSpec(
        kind="ghz-sweep", n_qubits=4, cavity_dim=24, output_path=str(outdir / "ghz.csv")
    )
    summary, seconds = _timed(run_ghz_sweep, spec, DEFAULT_M_SWEEP)
    return {"summary": summary, "seconds": seconds}


@pytest.fixture(scope="module")
def ghz_m1_half_dt(outdir):
    spec = ScenarioSpec(
        kind="ghz-sweep",
        n_qubits=4,
        cavity_dim=24,
        dt_override=math.pi / 1000.0,
        output_path=str(outdir / "ghz_halfdt.csv"),
    )
    return run_ghz_sweep(spec, m_values=(1.0,))


@pytest.fixture(scope="module")
def ghz_m1_d32(outdir):
    spec = ScenarioSpec(
        kind="ghz-sweep", n_qubits=4, cavity_dim=32, output_path=str(outdir / "ghz_d32.csv")
    )
    return run_ghz_sweep(spec, m_values=(1.0,))


@pytest.fixture(scope="module")
def trajectory_run(outdir):
    spec = ScenarioSpec(kind="trajectory", output_path=str(outdir / "trajectory.csv"))
    return run_trajectory(spec)


def _unitary_bell_fidelity(cavity_psi: np.ndarray) -> float:
    """Decoherence-free F(tau_1) for |00> with the given initial cavity state."""
    space = HilbertSpace(n_qubits=2, cavity_dim=16)
    drive = DriveParams(etas=(1.0, 1.0), phis=(0.0, 0.0), delta=4.0)
    provider = hamiltonian_h2_provider(drive, space)
    tau = loop_time(4.0)
    cfg = IntegratorConfig(dt=tau / 800, t_end=tau, max_frequency=provider.max_frequency)
    qubits = np.zeros(4, dtype=complex)
    qubits[0] = 1.0
    psi = evolve_unitary(provider, np.kron(qubits, cavity_psi), cfg)
    rho_q = _reduced_qubit_rho(np.outer(psi, psi.conj()), space.n_qubits, space.cavity_dim)
    target = bell_target()
    return float(np.vdot(target, rho_q @ target).real)


def test_criterion_1_bell_endpoint(bell_run):
    f = bell_run["summary"]["final_fidelity"]
    seconds = bell_run["seconds"]
    ok = 0.991 <= f <= 1.000 and seconds < 30.0
    _report(1, ok, f"F(tau_1) = {f:.6f} in [0.991, 1.000], runtime {seconds:.1f}s < 30s")


def test_criterion_2_ghz_sweep(ghz_sweep):
    points = ghz_sweep["summary"]["points"]
    seconds = ghz_sweep["seconds"]
    by_m = {p["m"]: p["f_max"] for p in points}
    f1 = by_m[1.0]
    fs = [p["f_max"] for p in points]  # points are sorted by m
    decreasing = all(a > b for a, b in zip(fs, fs[1:]))
    ok = 0.98 <= f1 <= 1.00 and decreasing and seconds < 900.0
    _report(
        2,
        ok,
        f"f_max(m=1) = {f1:.6f} in [0.98, 1.00], strictly decreasing over "
        f"m={sorted(by_m)}: {decreasing}, runtime {seconds:.0f}s < 900s",
    )


def test_criterion_3_gate_equivalence():
    space = HilbertSpace(n_qubits=2, cavity_dim=16)
    drive = DriveParams(etas=(1.0, 1.0), phis=(0.0, 0.0), delta=4.0)
    provider = hamiltonian_h2_provider(drive, space)
    tau = loop_time(4.0)
    cfg = IntegratorConfig(dt=tau / 1600, t_end=tau, max_frequency=provider.max_frequency)
    u = evolve_unitary(provider, np.eye(space.dim), cfg)
    theta = theta_of_schedule(1.0, 4.0)
    assert theta == pytest.approx(math.pi / 4)
    dist = _propagator_gate_distance(u, gate_unitary(theta, 2), space, n_fock_keep=4)
    ok = dist < 1e-4
    _report(3, ok, f"|U(tau_1) - gate_unitary(pi/4, 2) x I_cav| = {dist:.3e} < 1e-4")


def test_criterion_4_trajectory_closure(trajectory_run):
    dev = trajectory_run["max_sim_deviation"]
    closure_sim = trajectory_run["simulated_closure"]
    closure_analytic = trajectory_run["analytic_closure"]
    x_max = trajectory_run["x_max_analytic"]
    x_max_err = abs(x_max - 2.0 * math.sqrt(2.0) / 4.0)
    ok = (
        dev < 1e-4
        and closure_sim < 1e-4
        and closure_analytic < 1e-12
        and x_max_err < 1e-12
    )
    _report(
        4,
        ok,
        f"max|sim-analytic| = {dev:.2e} < 1e-4, closure sim {closure_sim:.2e} < 1e-4 / "
        f"analytic {closure_analytic:.2e} < 1e-12, |x_max - 2sqrt(2)/delta| = {x_max_err:.2e} < 1e-12",
    )


def test_criterion_5_rwa_scaling(outdir):
    spec = ScenarioSpec(kind="rwa-scan", output_path=str(outdir / "rwa.csv"))
    summary = run_rwa_scan(spec, DEFAULT_OMEGA_SCAN)
    slope = summary["slope"]
    ok = -2.5 <= slope <= -1.5
    _report(5, ok, f"log-log infidelity slope over {list(DEFAULT_OMEGA_SCAN)} = {slope:.3f} in -2 +/- 0.5")


def test_criterion_6_cavity_state_insensitivity():
    fids = [
        _unitary_bell_fidelity(fock_state(16, 0)),
        _unitary_bell_fidelity(fock_state(16, 1)),
        _unitary_bell_fidelity(_displaced_vacuum(16, 0.5)),
    ]
    spread = max(fids) - min(fids)
    ok = spread < 1e-4
    _report(
        6,
        ok,
        f"F(tau_1) for vacuum/Fock|1>/displaced(0.5) = "
        f"{fids[0]:.8f}/{fids[1]:.8f}/{fids[2]:.8f}, spread {spread:.2e} < 1e-4",
    )


def test_criterion_7_solver_oracles():
    # damped cavity: <n>(t) = exp(-kappa t) from |1>
    kappa = 1.0
    cav = HilbertSpace(n_qubits=0, cavity_dim=10)
    a = annihilation(10)
    cfg = IntegratorConfig(dt=0.01, t_end=3.0 / kappa, record_stride=5)
    res_c = evolve_lindblad(
        _zero_provider(cav.qubit_dim),
        DecoherenceRates(kappa=kappa),
        QuantumState.from_pure(cav, fock_state(10, 1)),
        None,
        cfg,
        observables={"n": embed(a.conj().T @ a, CAVITY, cav)},
    )
    dev_c = float(np.abs(res_c.observables["n"] - np.exp(-kappa * res_c.times)).max())

    # qubit decay: rho_11(t) = exp(-gamma1 t) from |1>
    gamma1 = 1.0
    qub = HilbertSpace(n_qubits=1, cavity_dim=2)
    psi = np.kron(np.array([0.0, 1.0], dtype=complex), fock_state(2, 0))
    cfg = IntegratorConfig(dt=0.01, t_end=3.0 / gamma1, record_stride=5)
    res_q = evolve_lindblad(
        _zero_provider(qub.qubit_dim),
        DecoherenceRates(gamma1=gamma1),
        QuantumState.from_pure(qub, psi),
        np.array([0.0, 1.0], dtype=complex),
        cfg,
    )
    dev_q = float(np.abs(res_q.fidelities - np.exp(-gamma1 * res_q.times)).max())

    ok = dev_c < 1e-6 and dev_q < 1e-6
    _report(7, ok, f"max|<n> - e^-kt| = {dev_c:.2e}, max|rho_11 - e^-g1t| = {dev_q:.2e}, both < 1e-6")


def test_criterion_8_structural_suite(
    bell_run, bell_half_dt, bell_d24, ghz_sweep, ghz_m1_half_dt, ghz_m1_d32, trajectory_run
):
    results = [bell_run["summary"]["result"], trajectory_run["result"]]
    results += [p["result"] for p in ghz_sweep["summary"]["points"]]

    trace_dev = max(float(np.abs(r.traces - 1.0).max()) for r in results)
    min_eig = min(eig for r in results for _, eig in r.positivity_checks)
    n_hermitian = sum(np.array_equal(r.final_rho, r.final_rho.conj().T) for r in results)
    invariants_ok = trace_dev < 1e-6 and min_eig > -1e-6 and n_hermitian == len(results)

    f_bell = bell_run["summary"]["final_fidelity"]
    d_dt_bell = abs(bell_half_dt["final_fidelity"] - f_bell)
    d_dim_bell = abs(bell_d24["final_fidelity"] - f_bell)
    f_ghz = next(p["f_max"] for p in ghz_sweep["summary"]["points"] if p["m"] == 1.0)
    d_dt_ghz = abs(ghz_m1_half_dt["points"][0]["f_max"] - f_ghz)
    d_dim_ghz = abs(ghz_m1_d32["points"][0]["f_max"] - f_ghz)
    convergence_ok = (
        d_dt_bell < 1e-5 and d_dt_ghz < 1e-5 and d_dim_bell < 1e-4 and d_dim_ghz < 1e-4
    )

    ok = invariants_ok and convergence_ok
    _report(
        8,
        ok,
        f"invariants over {len(results)} runs (|tr-1| {trace_dev:.1e}, min eig {min_eig:.1e}, "
        f"final rho exactly Hermitian on {n_hermitian}/{len(results)}); step-halving dF bell {d_dt_bell:.1e} / ghz {d_dt_ghz:.1e} < 1e-5; "
        f"d+8 dF bell {d_dim_bell:.1e} / ghz {d_dim_ghz:.1e} < 1e-4",
    )
