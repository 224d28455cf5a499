import math
import tracemalloc

import numpy as np
import pytest

from geomgate import dynamics
from geomgate.core import (
    CAVITY,
    SIGMA_MINUS,
    SIGMA_Z,
    HilbertSpace,
    QuantumState,
    _reduced_qubit_rho,
    annihilation,
    embed,
    fock_state,
    ground_state,
    matexp,
)
from geomgate.dynamics import (
    DecoherenceRates,
    EvolutionResult,
    IntegratorConfig,
    IntegratorError,
    _Lindbladian,
    evolve_lindblad,
    evolve_unitary,
    max_fidelity,
)
from geomgate.model import (
    DriveParams,
    bell_target,
    default_dt,
    effective_all_to_all,
    gate_unitary,
    ghz_target,
    hamiltonian_h1_provider,
    hamiltonian_h2_provider,
    loop_time,
    pair_coupling_rate,
    theta_of_schedule,
)
from geomgate.scenarios import ScenarioSpec, run_bell, run_ghz_sweep
from oracles import (
    _branch_qubit_rho,
    _constant_provider,
    _dense_h,
    _eigh_expm,
    _gate_target,
    _h2_literal,
    _propagator_gate_distance,
    _random_density,
    _rotating_frame_fidelities,
    _with_frame,
    _zero_provider,
)

RNG = np.random.default_rng(7)


def _stepped_propagation(provider, x, cfg):
    """The literal midpoint product U_N⋯U_1 x, one dense exp(−i·dt·H((n−½)dt)) per step.

    Each step writes P(t_mid) into the dense H = P⊗a + h.c. and applies its
    exponential by ``matexp``, the Taylor series of every unitary run; it uses
    no frame, so it judges the frame-reduced product of ``evolve_unitary``.
    """
    x = np.asarray(x, dtype=complex)
    d = x.shape[0] // np.shape(provider(0.0))[0]
    dt = cfg.dt_effective
    for step in range(1, cfg.n_steps + 1):
        h = _dense_h(provider((step - 0.5) * dt), d)
        x = matexp(-1j * dt * h) @ x
    return x


def _random_register(q):
    """A random complex P: any P gives the Hermitian drive H = P⊗a + h.c."""
    return RNG.normal(size=(q, q)) + 1j * RNG.normal(size=(q, q))


def _dense_lindblad_rhs(h, rho, rates, space):
    """Literal superoperator-style reference: i[rho,H] + sum of 2ArA+ - A+Ar - rA+A terms."""
    out = 1j * (rho @ h - h @ rho) if h is not None else np.zeros_like(rho)

    def lind(op, rate):
        return 0.5 * rate * (
            2.0 * op @ rho @ op.conj().T
            - op.conj().T @ op @ rho
            - rho @ op.conj().T @ op
        )

    if space.cavity_dim >= 2 and rates.kappa > 0:
        out = out + lind(embed(annihilation(space.cavity_dim), CAVITY, space), rates.kappa)
    for j in range(1, space.n_qubits + 1):
        if rates.gamma1 > 0:
            out = out + lind(embed(SIGMA_MINUS, j, space), rates.gamma1)
        if rates.gamma2 > 0:
            out = out + lind(embed(SIGMA_Z, j, space), rates.gamma2)
    return out


class TestDecoherenceRates:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DecoherenceRates(kappa=-0.1)
        # NaN passes `< 0`; it must not silently switch a channel off
        for name in ("kappa", "gamma1", "gamma2"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="finite"):
                    DecoherenceRates(**{name: bad})

    def test_activity_flag(self):
        assert not DecoherenceRates().any_active
        assert DecoherenceRates(gamma2=0.1).any_active


class TestIntegratorConfig:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.5, t_end=0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, t_end=1.0, record_stride=0)
        for bad in (math.nan, math.inf, -math.inf):
            for kwargs in ({"dt": bad, "t_end": 1.0}, {"dt": 0.1, "t_end": bad}):
                with pytest.raises(ValueError, match="finite"):
                    IntegratorConfig(**kwargs)
            with pytest.raises(ValueError, match="finite"):
                IntegratorConfig(dt=0.1, t_end=1.0, max_frequency=bad)

    def test_rejects_undersampling(self):
        # 100 samples per fastest cycle is the floor
        with pytest.raises(ValueError, match="undersamples"):
            IntegratorConfig(dt=0.01, t_end=1.0, max_frequency=10.0)
        IntegratorConfig(dt=2 * math.pi / 1001, t_end=1.0, max_frequency=1.0)

    def test_step_arithmetic_lands_on_endpoint(self):
        cfg = IntegratorConfig(dt=0.1, t_end=1.0)
        assert cfg.n_steps == 10
        assert cfg.dt_effective == pytest.approx(0.1)
        cfg = IntegratorConfig(dt=0.3, t_end=1.0)
        assert cfg.n_steps == 4
        assert cfg.n_steps * cfg.dt_effective == pytest.approx(1.0)


class TestDissipatorAgainstDenseReference:
    """The structured in-place right-hand side must equal the literal dense formula."""

    @pytest.mark.parametrize(
        "n_qubits,cavity_dim,rates",
        [
            (2, 5, DecoherenceRates(kappa=0.3, gamma1=0.2, gamma2=0.1)),
            (1, 8, DecoherenceRates(kappa=1.0)),
            (3, 2, DecoherenceRates(gamma1=0.7, gamma2=0.4)),
            (0, 6, DecoherenceRates(kappa=0.5)),
            (2, 1, DecoherenceRates(gamma1=0.3, gamma2=0.9)),
            (4, 3, DecoherenceRates(kappa=0.3, gamma1=0.2, gamma2=0.1)),
            # vec(ρ) of 144² and 160² entries spans several chunks, and the
            # shifted channels end partway through one
            (4, 9, DecoherenceRates(kappa=0.3, gamma1=0.2, gamma2=0.1)),
            (3, 20, DecoherenceRates(kappa=0.4, gamma1=0.6)),
            # 5 of the 41 channel slices are all zero and left out of the chunk table
            (4, 16, DecoherenceRates(kappa=0.3, gamma1=0.2, gamma2=0.1)),
        ],
    )
    def test_structured_equals_dense(self, n_qubits, cavity_dim, rates):
        space = HilbertSpace(n_qubits, cavity_dim)
        rho = _random_density(space.dim, RNG)
        p = _random_register(space.qubit_dim)
        got = _Lindbladian(space, rates)(p, rho, np.empty_like(rho))
        want = _dense_lindblad_rhs(_dense_h(p, cavity_dim), rho, rates, space)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_zero_rates_reduce_to_commutator(self):
        space = HilbertSpace(1, 4)
        rho = _random_density(8, RNG)
        p = _random_register(2)
        h = _dense_h(p, 4)
        got = _Lindbladian(space, DecoherenceRates())(p, rho, np.empty_like(rho))
        np.testing.assert_allclose(got, 1j * (rho @ h - h @ rho), atol=1e-13)


def _dense_rk4_fidelities(drive, rates, space, target, cfg):
    """Test-only oracle: the evolver's RK4 step and record times, with the literal
    dense right-hand side of the literal H2(t).

    Unlike the evolver, it re-symmetrises ρ after every step: its dense
    products are Hermitian only to roundoff, and the asymmetry would compound.
    """

    def rhs(t, rho):
        return _dense_lindblad_rhs(_h2_literal(drive, space, t), rho, rates, space)

    rho = QuantumState.from_pure(space, ground_state(space)).rho.astype(complex)
    dt = cfg.dt_effective

    def fid():
        rho_q = _reduced_qubit_rho(rho, space.n_qubits, space.cavity_dim)
        return float(np.vdot(target, rho_q @ target).real)

    fids = [fid()]
    for step in range(1, cfg.n_steps + 1):
        t0 = (step - 1) * dt
        k1 = rhs(t0, rho)
        k2 = rhs(t0 + 0.5 * dt, rho + 0.5 * dt * k1)
        k3 = rhs(t0 + 0.5 * dt, rho + 0.5 * dt * k2)
        k4 = rhs(t0 + dt, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        rho = 0.5 * (rho + rho.conj().T)
        if step % cfg.record_stride == 0 or step == cfg.n_steps:
            fids.append(fid())
    return np.asarray(fids)


class TestRandomDrivePhases:
    """Seeded random phases and unequal couplings, end to end against the dense oracle."""

    @pytest.mark.parametrize(
        "n_qubits,cavity_dim,windows,seed",
        [(2, 8, 1.0, 11), (3, 4, 2.0, 12)],
        ids=["bell-n2-d8", "ghz-n3-d4"],
    )
    def test_lindblad_matches_dense_rk4(self, n_qubits, cavity_dim, windows, seed):
        rng = np.random.default_rng(seed)
        drive = DriveParams(
            etas=rng.uniform(0.7, 1.3, n_qubits),
            phis=rng.uniform(-math.pi, math.pi, n_qubits),
            delta=4.0,
        )
        space = HilbertSpace(n_qubits, cavity_dim)
        rates = DecoherenceRates(kappa=0.05, gamma1=0.05, gamma2=0.05)
        target = bell_target() if n_qubits == 2 else ghz_target(n_qubits)
        provider = hamiltonian_h2_provider(drive, space)
        cfg = IntegratorConfig(
            dt=default_dt(drive),
            t_end=windows * loop_time(4.0),
            record_stride=4,
            max_frequency=provider.max_frequency,
        )
        res = evolve_lindblad(
            provider, rates, QuantumState.from_pure(space, ground_state(space)), target, cfg
        )
        want = _dense_rk4_fidelities(drive, rates, space, target, cfg)
        # Bell: F(τ) at the end of the loop; GHZ: the peak and where it sits
        assert abs(res.final_fidelity - want[-1]) <= 1e-12
        assert abs(max_fidelity(res)[1] - want.max()) <= 1e-12
        assert int(np.argmax(res.fidelities)) == int(np.argmax(want))
        np.testing.assert_allclose(res.fidelities, want, rtol=0, atol=1e-12)


class TestLindbladOracles:
    def test_damped_cavity_photon_number(self):
        # free decay of |1>: <n>(t) = exp(-kappa t)
        kappa = 0.7
        space = HilbertSpace(0, 10)
        a = annihilation(10)
        n_op = embed(a.conj().T @ a, CAVITY, space)
        cfg = IntegratorConfig(dt=0.01, t_end=2.0, record_stride=10)
        res = evolve_lindblad(
            _zero_provider(space.qubit_dim),
            DecoherenceRates(kappa=kappa),
            QuantumState.from_pure(space, fock_state(10, 1)),
            None,
            cfg,
            observables={"n": n_op},
        )
        np.testing.assert_allclose(
            res.observables["n"], np.exp(-kappa * res.times), atol=1e-8
        )

    def test_qubit_decay_population(self):
        gamma1 = 0.5
        space = HilbertSpace(1, 2)
        psi = np.kron(np.array([0.0, 1.0], dtype=complex), fock_state(2, 0))
        cfg = IntegratorConfig(dt=0.01, t_end=3.0, record_stride=10)
        res = evolve_lindblad(
            _zero_provider(space.qubit_dim),
            DecoherenceRates(gamma1=gamma1),
            QuantumState.from_pure(space, psi),
            np.array([0.0, 1.0], dtype=complex),
            cfg,
        )
        np.testing.assert_allclose(res.fidelities, np.exp(-gamma1 * res.times), atol=1e-8)

    def test_dephasing_coherence(self):
        # |+><+| coherence decays as <sx>(t) = exp(-2 gamma2 t)
        gamma2 = 0.8
        space = HilbertSpace(1, 2)
        plus = np.kron(np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0), fock_state(2, 0))
        sx = embed(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), 1, space)
        cfg = IntegratorConfig(dt=0.005, t_end=2.0, record_stride=20)
        res = evolve_lindblad(
            _zero_provider(space.qubit_dim),
            DecoherenceRates(gamma2=gamma2),
            QuantumState.from_pure(space, plus),
            None,
            cfg,
            observables={"sx": sx},
        )
        np.testing.assert_allclose(
            res.observables["sx"], np.exp(-2.0 * gamma2 * res.times), atol=1e-9
        )

    def test_zero_rates_match_unitary_evolution(self):
        space = HilbertSpace(1, 8)
        drive = DriveParams((1.0,), (0.0,), 4.0)
        provider = hamiltonian_h2_provider(drive, space)
        tau = loop_time(4.0)
        cfg = IntegratorConfig(
            dt=tau / 200, t_end=tau, max_frequency=provider.max_frequency
        )
        psi0 = ground_state(space)
        res = evolve_lindblad(
            provider, DecoherenceRates(), QuantumState.from_pure(space, psi0), None, cfg
        )
        psi = evolve_unitary(provider, psi0, cfg)
        np.testing.assert_allclose(
            res.final_rho, np.outer(psi, psi.conj()), atol=1e-8
        )

    def test_records_cover_start_and_end(self):
        space = HilbertSpace(0, 4)
        cfg = IntegratorConfig(dt=0.1, t_end=1.0, record_stride=3)
        res = evolve_lindblad(
            _zero_provider(space.qubit_dim),
            DecoherenceRates(kappa=0.2),
            QuantumState.from_pure(space, fock_state(4, 1)),
            None,
            cfg,
        )
        # records at t=0, every 3rd step, and the final step
        np.testing.assert_allclose(res.times, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)
        assert res.traces.shape == res.times.shape
        assert np.isnan(res.fidelities).all()

    def test_rejects_bad_target_and_observable_shapes(self):
        space = HilbertSpace(1, 2)
        state = QuantumState.from_pure(space, ground_state(space))
        cfg = IntegratorConfig(dt=0.1, t_end=0.5)
        with pytest.raises(ValueError, match="target"):
            evolve_lindblad(_zero_provider(2), DecoherenceRates(), state, np.ones(3), cfg)
        with pytest.raises(ValueError, match="observable"):
            evolve_lindblad(
                _zero_provider(2),
                DecoherenceRates(),
                state,
                None,
                cfg,
                observables={"bad": np.eye(3)},
            )

    def test_rejects_provider_without_factored_product(self):
        # a provider of the dense joint H(t) instead of the register matrix P(t)
        space = HilbertSpace(1, 2)
        with pytest.raises(ValueError, match=r"shape \(4, 4\), expected \(2, 2\)"):
            evolve_lindblad(
                lambda t: np.zeros((4, 4), dtype=complex),
                DecoherenceRates(),
                QuantumState.from_pure(space, ground_state(space)),
                None,
                IntegratorConfig(dt=0.1, t_end=0.5),
            )

    def test_aborts_on_non_finite_hamiltonian(self):
        space = HilbertSpace(1, 2)
        bad = np.full((2, 2), np.nan, dtype=complex)
        cfg = IntegratorConfig(dt=0.1, t_end=0.5)
        with pytest.raises(IntegratorError, match="non-finite"):
            evolve_lindblad(
                lambda t: bad,
                DecoherenceRates(),
                QuantumState.from_pure(space, ground_state(space)),
                None,
                cfg,
            )

    def test_positivity_diagnostics_recorded(self):
        space = HilbertSpace(1, 4)
        drive = DriveParams((1.0,), (0.0,), 4.0)
        provider = hamiltonian_h2_provider(drive, space)
        cfg = IntegratorConfig(
            dt=2 * math.pi / 800,
            t_end=loop_time(4.0),
            max_frequency=provider.max_frequency,
        )
        res = evolve_lindblad(
            provider,
            DecoherenceRates(kappa=0.01, gamma1=0.01, gamma2=0.01),
            QuantumState.from_pure(space, ground_state(space)),
            None,
            cfg,
        )
        assert res.positivity_checks
        assert min(eig for _, eig in res.positivity_checks) >= -1e-6


def _branch_gap(etas, kappa, cavity_dim, dt, seed):
    """Largest entry of |ρ_q − exact| for an H₂ run with cavity decay alone, at δ = 4 and t = 2.

    The run starts from a seeded random ρ_q ⊗ |0⟩⟨0| with seeded phases and
    stops after 1.27 loops, where every branch is displaced; ``exact`` is
    :func:`oracles._branch_qubit_rho`, and the partial trace is numpy's own.
    """
    rng = np.random.default_rng(seed)
    q, d = 2 ** len(etas), cavity_dim
    rho_q0 = _random_density(q, rng)
    phis = rng.uniform(-math.pi, math.pi, len(etas))
    space = HilbertSpace(len(etas), d)
    rho = np.zeros((q * d, q * d), dtype=complex)
    rho[::d, ::d] = rho_q0
    provider = hamiltonian_h2_provider(DriveParams(etas, phis, 4.0), space)
    cfg = IntegratorConfig(
        dt=dt, t_end=2.0, record_stride=10**6, max_frequency=provider.max_frequency
    )
    res = evolve_lindblad(
        provider, DecoherenceRates(kappa=kappa), QuantumState(space, rho), None, cfg
    )
    got = res.final_rho.reshape(q, d, q, d).trace(axis1=1, axis2=3)
    return float(np.abs(got - _branch_qubit_rho(rho_q0, etas, phis, 4.0, kappa, 2.0)).max())


class TestCoherentBranchOracle:
    """evolve_lindblad with cavity decay alone, judged by the exact untruncated branch form."""

    DT = 1 / 80  # just inside the 2π/(100·δ) sampling limit at δ = 4

    def test_gap_falls_as_dt4_at_two_qubits(self):
        # at N=2, d=16 truncation is far below the step error, so the gap is RK4's
        # global error and each halving of dt divides it by 2⁴
        gaps = [_branch_gap((1.0, 0.6), 0.2, 16, self.DT / 2**k, seed=1) for k in range(3)]
        assert gaps[0] < 2e-8
        assert [a / b for a, b in zip(gaps, gaps[1:])] == [pytest.approx(16, rel=0.2)] * 2

    @pytest.mark.parametrize(
        "etas,kappa",
        [
            ((1.0, 0.6), 0.05),
            ((1.0, 0.6), 0.2),
            ((1.0, 0.8, 0.5), 0.2),
            ((1.0, 0.8, 0.6, 0.5), 0.2),
        ],
        ids=["N2-kappa0.05", "N2-kappa0.2", "N3-kappa0.2", "N4-kappa0.2"],
    )
    def test_final_qubit_matrix_matches_at_half_step(self, etas, kappa):
        # stated from the N=2 trend: below 2e-8 at DT, so below 1.25e-9 at DT/2, with a
        # factor 2 for the larger branch amplitudes at N=3 and N=4.  At N=4, d=16 the gap
        # read 1.725e-8 at DT and 1.069e-9 at DT/2 (ratio 16.1), and d=20 the same to 4
        # digits: step error, not truncation
        tolerance = 2.5e-9
        assert _branch_gap(etas, kappa, 16, self.DT / 2, seed=2) < tolerance

    def test_truncation_gap_does_not_shrink_with_the_step(self):
        # at N=3, d=8 the top Fock levels clip the branches: the gap is truncation,
        # far above the step error and flat under halving of dt
        coarse, fine = (
            _branch_gap((1.0, 0.8, 0.5), 0.2, 8, self.DT / 2**k, seed=3) for k in (0, 1)
        )
        assert coarse > 1e-7
        assert fine == pytest.approx(coarse, rel=0.01)


class TestRotatingFrameOracle:
    """RK4 runs judged record by record by the exact-in-time rotating-frame Lindbladian.

    Each tolerance is stated from the dt⁴ trend of earlier measurements: the
    Bell headline's final gap read −6.04e-9 at the default dt and −1.77e-10 at
    dt/2; the N=4, d=8 sweep point read 1.43e-7 at f_max and 8.2e-7 at its
    worst record.  Halving dt must divide the worst record gap by at least 8,
    half the 2⁴ of a fourth-order step.
    """

    def test_bell_headline_every_record(self, tmp_path):
        gaps = []
        for dt in (None, math.pi / 800):  # the default 2π/(200·δ), then half of it
            spec = ScenarioSpec(kind="bell", dt_override=dt, output_path=str(tmp_path / "b.csv"))
            result = run_bell(spec)["result"]
            exact = _rotating_frame_fidelities(
                (1.0, 1.0), (0.0, 0.0), 4.0, (1e-3,) * 3, 16, _gate_target(2), result.times
            )
            gaps.append(float(np.abs(result.fidelities - exact).max()))
        assert gaps[0] < 5e-8
        assert gaps[1] < gaps[0] / 8

    def test_ghz_sweep_point_every_record(self, tmp_path):
        spec = ScenarioSpec(kind="ghz-sweep", cavity_dim=8, output_path=str(tmp_path / "g.csv"))
        point = run_ghz_sweep(spec, m_values=(1.0,))["points"][0]
        result = point["result"]
        exact = _rotating_frame_fidelities(
            (1.0,) * 4, (0.0,) * 4, 4.0, (1e-3,) * 3, 8, _gate_target(4), result.times
        )
        assert abs(point["f_max"] - exact.max()) < 5e-7
        assert np.abs(result.fidelities - exact).max() < 2e-6

    def test_seeded_three_qubit_run_every_record(self):
        # unequal η_j and random φ_j over two loops at κ = γ₁ = γ₂ = 0.05: no earlier
        # measurement, so the bound is the N=4 sweep's, whose Σ_j η_j is larger
        rng = np.random.default_rng(21)
        drive = DriveParams(rng.uniform(0.7, 1.3, 3), rng.uniform(-math.pi, math.pi, 3), 4.0)
        space = HilbertSpace(3, 8)
        rates = (0.05, 0.05, 0.05)
        provider = hamiltonian_h2_provider(drive, space)
        target = _gate_target(3)
        gaps = []
        for k in (1, 2):
            cfg = IntegratorConfig(
                dt=default_dt(drive) / k,
                t_end=2.0 * loop_time(4.0),
                record_stride=4 * k,
                max_frequency=provider.max_frequency,
            )
            initial = QuantumState.from_pure(space, ground_state(space))
            result = evolve_lindblad(provider, DecoherenceRates(*rates), initial, target, cfg)
            exact = _rotating_frame_fidelities(
                drive.etas, drive.phis, 4.0, rates, 8, target, result.times
            )
            gaps.append(float(np.abs(result.fidelities - exact).max()))
        assert gaps[0] < 2e-6
        assert gaps[1] < gaps[0] / 8


def _final_rho_from_random_start(n_qubits, cavity_dim, driven, seed=5):
    """final_rho of a quarter loop from a random complex |ψ⟩⟨ψ|, with κ, γ₁, γ₂ > 0.

    ``driven`` adds H2(t) with unequal couplings and non-zero phases; without
    it only the dissipator acts.
    """
    rng = np.random.default_rng(seed)
    space = HilbertSpace(n_qubits, cavity_dim)
    psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    if driven:
        drive = DriveParams(
            etas=rng.uniform(0.7, 1.3, n_qubits),
            phis=rng.uniform(-math.pi, math.pi, n_qubits),
            delta=4.0,
        )
        provider = hamiltonian_h2_provider(drive, space)
    else:
        provider = _zero_provider(space.qubit_dim)
    tau = loop_time(4.0)
    res = evolve_lindblad(
        provider,
        DecoherenceRates(kappa=0.3, gamma1=0.2, gamma2=0.1),
        QuantumState.from_pure(space, psi / np.linalg.norm(psi)),
        None,
        IntegratorConfig(dt=tau / 200, t_end=tau / 4),
    )
    return res.final_rho


class TestExactHermiticity:
    """evolve_lindblad keeps ρ Hermitian bit for bit, with no per-step re-symmetrisation."""

    @pytest.mark.parametrize("driven", [False, True], ids=["dissipator", "drive"])
    @pytest.mark.parametrize("n_qubits,cavity_dim", [(2, 6), (3, 5), (1, 8)])
    def test_final_rho_is_exactly_hermitian(self, n_qubits, cavity_dim, driven):
        rho = _final_rho_from_random_start(n_qubits, cavity_dim, driven)
        assert np.array_equal(rho, rho.conj().T)

    def test_asymmetric_dissipator_weight_breaks_it(self, monkeypatch):
        # the check must see a dissipator whose weights are not symmetric
        class Planted(_Lindbladian):
            def __init__(self, space, rates):
                super().__init__(space, rates)
                start, entries = self._chunks[0]
                lo, main, _ = entries[0]
                assert lo == start == 0  # the main diagonal: offset 0, so its input starts at 0
                main[1] *= 1.0 + 1e-9  # the weight of ρ[0, 1], not of ρ[1, 0]

        monkeypatch.setattr(dynamics, "_Lindbladian", Planted)
        rho = _final_rho_from_random_start(2, 6, driven=True)
        assert not np.array_equal(rho, rho.conj().T)


class TestWorkingSet:
    """One evolve_lindblad run holds at most 15 dim×dim complex arrays at its peak.

    ρ, three RK4 scratch arrays, T (two), the E scratch, √n (about one) and
    N+2 channel weights (about N+1 after their cuts), with room for the copy
    a record's eigvalsh takes: 14.1 at N=4, d=8 and 13.4 at N=2, d=16.
    """

    @pytest.mark.parametrize("n_qubits,cavity_dim", [(4, 8), (2, 16)])
    def test_tracemalloc_peak(self, n_qubits, cavity_dim):
        space = HilbertSpace(n_qubits, cavity_dim)
        drive = DriveParams(etas=np.ones(n_qubits), phis=np.zeros(n_qubits), delta=4.0)
        provider = hamiltonian_h2_provider(drive, space)
        initial = QuantumState.from_pure(space, ground_state(space))
        tau = loop_time(4.0)
        cfg = IntegratorConfig(dt=tau / 200, t_end=tau / 20)
        rates = DecoherenceRates(kappa=0.1, gamma1=0.01, gamma2=0.01)
        tracemalloc.start()
        try:
            evolve_lindblad(provider, rates, initial, ghz_target(n_qubits), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15 * space.dim**2 * np.dtype(complex).itemsize


class TestEvolveUnitary:
    def test_no_hamiltonian_gives_identity(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        cfg = IntegratorConfig(dt=0.1, t_end=1.0)
        out = evolve_unitary(_zero_provider(1), psi, cfg)
        u = evolve_unitary(_zero_provider(1), np.eye(2), cfg)
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(out, psi, atol=1e-15)

    def test_constant_sigma_z_phase_evolution(self):
        # P = ω/2 on one register state and a two-level cavity gives H = (ω/2)σ^x,
        # which is (ω/2)σ^z in the Hadamard basis
        omega, t_end = 1.7, 2.0
        p = np.array([[0.5 * omega]], dtype=complex)
        had = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
        psi0 = np.array([1.0, 0.0], dtype=complex)  # had @ |+⟩
        cfg = IntegratorConfig(dt=0.01, t_end=t_end)
        psi = evolve_unitary(_constant_provider(p), psi0, cfg)
        u = evolve_unitary(_constant_provider(p), np.eye(2), cfg)
        expected_u = had @ np.diag(
            [np.exp(-0.5j * omega * t_end), np.exp(0.5j * omega * t_end)]
        ) @ had
        np.testing.assert_allclose(u, expected_u, atol=1e-10)
        np.testing.assert_allclose(psi, expected_u @ psi0, atol=1e-10)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            evolve_unitary(
                _zero_provider(1), np.array([1.0, 1.0]), IntegratorConfig(dt=0.1, t_end=1.0)
            )

    def test_rejects_non_orthonormal_block(self):
        block = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.array([1.0, math.sqrt(2.0)])
        with pytest.raises(ValueError, match="normalized"):
            evolve_unitary(_zero_provider(1), block, IntegratorConfig(dt=0.1, t_end=1.0))

    def test_identity_block_matches_basis_vectors(self):
        # the block product (BLAS gemm) and the vector product (gemv) may sum
        # in different orders, so the columns agree to roundoff, not bitwise
        space = HilbertSpace(1, 4)
        provider = hamiltonian_h2_provider(DriveParams((1.0,), (0.0,), 4.0), space)
        cfg = IntegratorConfig(dt=loop_time(4.0) / 100, t_end=loop_time(4.0))
        u = evolve_unitary(provider, np.eye(space.dim), cfg)
        assert u.shape == (space.dim, space.dim)
        for j, basis in enumerate(np.eye(space.dim)):
            psi = evolve_unitary(provider, basis, cfg)
            assert psi.shape == (space.dim,)
            np.testing.assert_allclose(u[:, j], psi, rtol=0, atol=1e-14)

    @pytest.mark.parametrize(
        "initial",
        [np.array([0.0, 1.0], dtype=complex), np.eye(2, dtype=complex)],
        ids=["vector", "block"],
    )
    def test_detects_norm_drift_from_non_hermitian_generator(self, initial, monkeypatch):
        # a step that grows the array by 0.1%, as a non-Hermitian generator would
        monkeypatch.setattr(dynamics, "matexp", lambda a: 1.001 * np.eye(len(a)))
        with pytest.raises(IntegratorError, match="drifted"):
            evolve_unitary(_zero_provider(1), initial, IntegratorConfig(dt=0.05, t_end=2.0))

    @pytest.mark.parametrize("theta", [0.0, 1e-3, 0.5, 3.7, 40.0])
    @pytest.mark.parametrize("dim", [8, 64])
    def test_step_matches_matexp_oracle(self, dim, theta):
        # one step at θ = dt·‖H‖₁; θ > 1 takes ⌈θ⌉ substeps.  Tolerance: the
        # Taylor remainder is ≤ 2⁻⁵³ per substep, so only roundoff is left
        q = 2 if dim == 8 else 4
        p = _random_register(q) if theta else np.zeros((q, q), dtype=complex)
        h = _dense_h(p, dim // q)
        dt = theta / np.abs(h).sum(axis=0).max() if theta else 0.1
        cfg = IntegratorConfig(dt=dt, t_end=dt)
        assert cfg.n_steps == 1
        psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
        block, _ = np.linalg.qr(RNG.normal(size=(dim, 3)) + 1j * RNG.normal(size=(dim, 3)))
        step = _eigh_expm(-1j * cfg.dt_effective * h)
        for x in (psi / np.linalg.norm(psi), block):
            np.testing.assert_allclose(
                evolve_unitary(_constant_provider(p), x, cfg), step @ x, rtol=0, atol=1e-13
            )

    def test_rejects_register_matrix_that_does_not_divide_dim(self):
        with pytest.raises(ValueError, match="dividing 4"):
            evolve_unitary(_zero_provider(3), np.eye(4)[0], IntegratorConfig(dt=0.1, t_end=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("initial", [np.eye(4)[0], np.eye(4)[:, :2]], ids=["vector", "block"])
    def test_non_finite_hamiltonian_aborts_with_step(self, bad, initial):
        # the run reads P at the first and the last midpoint only; this P is finite at
        # the first (0.05) and holds one bad entry from t > 0.2, so at the last (0.45)
        zero = np.zeros((2, 2), dtype=complex)
        p_bad = zero.copy()
        p_bad[1, 0] = bad
        provider = _with_frame(lambda t: p_bad if t > 0.2 else zero, (0.0, zero))
        with pytest.raises(IntegratorError, match="non-finite Hamiltonian at the last midpoint"):
            evolve_unitary(provider, initial, IntegratorConfig(dt=0.1, t_end=0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_hamiltonian_at_first_midpoint_aborts(self, bad):
        # finite at t=0, where the shape is probed, and non-finite at the first midpoint
        zero = np.zeros((2, 2), dtype=complex)
        p_bad = zero.copy()
        p_bad[0, 1] = bad
        provider = _with_frame(lambda t: p_bad if t > 0.0 else zero, (0.0, zero))
        with pytest.raises(IntegratorError, match="non-finite Hamiltonian at the first midpoint"):
            evolve_unitary(provider, np.eye(4)[0], IntegratorConfig(dt=0.1, t_end=0.5))

    def test_rejects_provider_without_frame(self):
        p = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError, match="frame"):
            evolve_unitary(lambda t: p, np.eye(4)[0], IntegratorConfig(dt=0.1, t_end=0.5))

    def test_rejects_provider_that_departs_from_its_frame(self):
        # H1's P carrying H2's frame: the cross terms do not rotate as (δ, 0) says
        space = HilbertSpace(2, 4)
        drive = DriveParams((1.0, 0.8), (0.3, -0.5), 4.0, omega=25.0)
        h1 = hamiltonian_h1_provider(drive, space)
        wrong = _with_frame(h1, hamiltonian_h2_provider(drive, space).frame)
        cfg = IntegratorConfig(dt=default_dt(drive), t_end=loop_time(4.0))
        evolve_unitary(h1, ground_state(space), cfg)
        with pytest.raises(ValueError, match="departs from the provider's frame"):
            evolve_unitary(wrong, ground_state(space), cfg)


def _seeded_drive(n_qubits, omega, seed):
    rng = np.random.default_rng(seed)
    return DriveParams(
        rng.uniform(0.5, 1.5, n_qubits).tolist(),
        rng.uniform(-math.pi, math.pi, n_qubits).tolist(),
        4.0,
        omega=omega,
    )


class TestFrameReducedPropagation:
    """evolve_unitary's V(N·dt)·W^N against the literal midpoint product."""

    @pytest.mark.parametrize("build", [hamiltonian_h1_provider, hamiltonian_h2_provider],
                             ids=["h1", "h2"])
    @pytest.mark.parametrize(
        "n_qubits,cavity_dim,omega", [(1, 8, 25.0), (2, 5, 60.0), (3, 3, 25.0)]
    )
    def test_matches_stepped_midpoint_product(self, build, n_qubits, cavity_dim, omega):
        # both sides take the same N midpoint steps, in a different order, and each
        # accumulates roundoff like N·ε with a modest constant; 100·N·ε (1.4e-11 at
        # N=625, 3.3e-11 at N=1500) leaves room for that and none for a wrong frame,
        # which moves the state at O(dt·‖H‖) per step
        drive = _seeded_drive(n_qubits, omega, seed=11 * n_qubits + cavity_dim)
        space = HilbertSpace(n_qubits, cavity_dim)
        provider = build(drive, space)
        cfg = IntegratorConfig(
            dt=default_dt(drive), t_end=0.5 * loop_time(drive.delta),
            max_frequency=provider.max_frequency,
        )
        tol = 100 * cfg.n_steps * np.finfo(float).eps
        rng = np.random.default_rng(cavity_dim)
        psi = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
        block, _ = np.linalg.qr(
            rng.normal(size=(space.dim, 3)) + 1j * rng.normal(size=(space.dim, 3))
        )
        for x in (psi / np.linalg.norm(psi), block):
            np.testing.assert_allclose(
                evolve_unitary(provider, x, cfg),
                _stepped_propagation(provider, x, cfg),
                rtol=0,
                atol=tol,
            )

    @pytest.mark.parametrize("build", [hamiltonian_h1_provider, hamiltonian_h2_provider],
                             ids=["h1", "h2"])
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_model_providers_follow_their_frame(self, build, n_qubits):
        # P(t+s) = e^{iδs}·R(s)·P(t)·R(s)† with R(s) = e^{−isG}, at random t and s;
        # the oracle and the phases are exact to roundoff on entries of order Σ_j η_j
        rng = np.random.default_rng(n_qubits)
        drive = _seeded_drive(n_qubits, rng.uniform(20.0, 80.0), seed=n_qubits)
        provider = build(drive, HilbertSpace(n_qubits, 4))
        delta, g = provider.frame
        assert delta == drive.delta
        for t, s in rng.uniform(-3.0, 3.0, size=(4, 2)):
            r = _eigh_expm(-1j * s * g)
            np.testing.assert_allclose(
                provider(t + s),
                np.exp(1j * delta * s) * (r @ provider(t) @ r.conj().T),
                rtol=0,
                atol=1e-12,
            )


class TestFidelity:
    """F = ⟨target|ρ_q|target⟩ as evolve_lindblad records it, read at t = 0."""

    @staticmethod
    def _recorded(rho_q, target):
        # ρ_q ⊗ |0⟩⟨0| on a two-level cavity, held still by a zero drive
        space = HilbertSpace(int(math.log2(len(target))), 2)
        vacuum = np.diag([1.0, 0.0]).astype(complex)
        res = evolve_lindblad(
            _zero_provider(space.qubit_dim),
            DecoherenceRates(),
            QuantumState(space, np.kron(rho_q, vacuum)),
            target,
            IntegratorConfig(dt=0.1, t_end=0.1),
        )
        return res.fidelities[0]

    def test_pure_state_against_itself(self):
        psi = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
        assert self._recorded(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0)

    def test_bell_overlap_with_basis_projector(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert self._recorded(rho, bell_target()) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed(self):
        assert self._recorded(np.eye(4) / 4.0, bell_target()) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_mismatch_and_non_hermitian(self):
        # a target off the register is refused by the evolver, a non-Hermitian ρ by the state
        with pytest.raises(ValueError, match="target"):
            self._recorded(np.eye(2) / 2.0, np.ones(3) / math.sqrt(3.0))
        skew = np.array([[0.5, 0.3], [-0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            self._recorded(skew, np.array([1.0, 1.0j]) / math.sqrt(2.0))


class TestMaxFidelity:
    def _result(self, fids):
        n = len(fids)
        return EvolutionResult(
            times=np.arange(float(n)),
            fidelities=np.asarray(fids, dtype=float),
            traces=np.ones(n),
            purities=np.ones(n),
        )

    def test_monotone_rising_takes_last(self):
        t, f = max_fidelity(self._result([0.1, 0.5, 0.9]))
        assert (t, f) == (2.0, 0.9)

    def test_tie_breaks_toward_earliest(self):
        t, f = max_fidelity(self._result([0.7, 0.7, 0.7]))
        assert (t, f) == (0.0, 0.7)

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            max_fidelity(self._result([]))

    def test_run_without_target_rejected(self):
        # a run without a target records NaN fidelities; argmax would pick index 0
        with pytest.raises(ValueError, match="no fidelity"):
            max_fidelity(self._result([math.nan] * 3))


class TestEvolutionResultInvariants:
    def test_rejects_ragged_series(self):
        with pytest.raises(ValueError, match="length"):
            EvolutionResult(
                times=np.arange(3.0),
                fidelities=np.ones(2),
                traces=np.ones(3),
                purities=np.ones(3),
            )

    def test_rejects_trace_drift(self):
        # NaN fails every comparison, so a `> 1e-6` test alone lets it through
        for bad in (1.1, math.nan):
            with pytest.raises(ValueError, match="trace"):
                EvolutionResult(
                    times=np.arange(2.0),
                    fidelities=np.ones(2),
                    traces=np.array([1.0, bad]),
                    purities=np.ones(2),
                )


class TestGateEquivalence:
    """Time-ordered force propagator vs the collective gate on the headroom block."""

    @pytest.mark.parametrize(
        "n_qubits,cavity_dim,steps",
        [(1, 16, 400), (2, 16, 800), (3, 24, 800)],
    )
    def test_propagator_matches_gate(self, n_qubits, cavity_dim, steps):
        delta = 4.0
        space = HilbertSpace(n_qubits, cavity_dim)
        drive = DriveParams((1.0,) * n_qubits, (0.0,) * n_qubits, delta)
        provider = hamiltonian_h2_provider(drive, space)
        tau = loop_time(delta)
        cfg = IntegratorConfig(
            dt=tau / steps, t_end=tau, max_frequency=provider.max_frequency
        )
        u = evolve_unitary(provider, np.eye(space.dim), cfg)
        gate = gate_unitary(theta_of_schedule(1.0, delta), n_qubits)
        dist = _propagator_gate_distance(u, gate, space, n_fock_keep=4)
        assert dist < 1e-4

    @pytest.mark.parametrize(
        "phis",
        [
            (0.3, 1.0),
            (0.0, math.pi / 2),
            (0.2, -0.4, 1.3),
            tuple(np.random.default_rng(8).uniform(-math.pi, math.pi, 3).tolist()),
        ],
        ids=str,
    )
    def test_drive_phases_tune_the_pair_coupling(self, phis):
        # the paper's claim: after one closed loop the register sees
        # H_eff = λ Σ_{j<k} cos(φ_j − φ_k) σ_j^x σ_k^x with λ = 2η²/δ.  The
        # vacuum-projected loop propagator must equal exp(−iτ·H_eff) up to a
        # global phase within 1e-5 (cavity truncation at d=16, 1600 steps)
        n, d, delta = len(phis), 16, 4.0
        space = HilbertSpace(n, d)
        provider = hamiltonian_h2_provider(DriveParams((1.0,) * n, phis, delta), space)
        tau = loop_time(delta)
        cfg = IntegratorConfig(dt=tau / 1600, t_end=tau, max_frequency=provider.max_frequency)
        vacuum_columns = np.eye(space.dim)[:, ::d]  # qubit basis ⊗ |0⟩_cav
        block = evolve_unitary(provider, vacuum_columns, cfg)[::d]
        h_eff = effective_all_to_all(pair_coupling_rate(1.0, delta), phis)
        expected = _eigh_expm(-1j * tau * h_eff)
        overlap = np.vdot(expected, block)
        block = block * (overlap.conjugate() / abs(overlap))
        assert np.abs(block - expected).max() < 1e-5

    def test_distance_is_phase_insensitive(self):
        space = HilbertSpace(1, 3)
        u = np.exp(0.7j) * np.eye(6, dtype=complex)
        assert _propagator_gate_distance(u, np.eye(2), space) < 1e-12

    def test_cavity_starts_and_ends_disentangled(self):
        # after a closed loop the cavity returns to vacuum for qubit-basis input
        space = HilbertSpace(2, 16)
        drive = DriveParams((1.0, 1.0), (0.0, 0.0), 4.0)
        provider = hamiltonian_h2_provider(drive, space)
        tau = loop_time(4.0)
        cfg = IntegratorConfig(dt=tau / 800, t_end=tau, max_frequency=provider.max_frequency)
        psi = evolve_unitary(provider, ground_state(space), cfg)
        pops = np.abs(psi.reshape(4, 16)) ** 2
        assert pops[:, 1:].sum() < 1e-8
