import math

import numpy as np
import pytest

from geomgate.core import (
    CAVITY,
    SIGMA_MINUS,
    SIGMA_Z,
    HilbertSpace,
    QuantumState,
    annihilation,
    embed,
    fock_state,
    ground_state,
)
from geomgate.dynamics import (
    DecoherenceRates,
    EvolutionResult,
    IntegratorConfig,
    IntegratorError,
    _Dissipator,
    _rhs,
    evolve_lindblad,
    evolve_unitary,
    fidelity,
    max_fidelity,
    propagator_gate_distance,
)
from geomgate.model import (
    DriveParams,
    gate_unitary,
    hamiltonian_h2_provider,
    loop_time,
    theta_of_schedule,
)

RNG = np.random.default_rng(7)


def _random_density(dim):
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _random_hermitian(dim):
    m = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


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
    """The structured in-place dissipator must equal the literal dense formula."""

    @pytest.mark.parametrize(
        "n_qubits,cavity_dim,rates",
        [
            (2, 5, DecoherenceRates(kappa=0.3, gamma1=0.2, gamma2=0.1)),
            (1, 8, DecoherenceRates(kappa=1.0)),
            (3, 2, DecoherenceRates(gamma1=0.7, gamma2=0.4)),
            (0, 6, DecoherenceRates(kappa=0.5)),
            (2, 1, DecoherenceRates(gamma1=0.3, gamma2=0.9)),
            (4, 3, DecoherenceRates(kappa=0.3, gamma1=0.2, gamma2=0.1)),
        ],
    )
    def test_structured_equals_dense(self, n_qubits, cavity_dim, rates):
        space = HilbertSpace(n_qubits, cavity_dim)
        rho = _random_density(space.dim)
        h = _random_hermitian(space.dim)
        got = _rhs(h, rho, _Dissipator(rates, space), np.empty_like(rho), np.empty_like(rho))
        want = _dense_lindblad_rhs(h, rho, rates, space)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_zero_rates_reduce_to_commutator(self):
        space = HilbertSpace(1, 4)
        rho = _random_density(8)
        h = _random_hermitian(8)
        diss = _Dissipator(DecoherenceRates(), space)
        got = _rhs(h, rho, diss, np.empty_like(rho), np.empty_like(rho))
        np.testing.assert_allclose(got, 1j * (rho @ h - h @ rho), atol=1e-13)


class TestLindbladOracles:
    def test_damped_cavity_photon_number(self):
        # free decay of |1>: <n>(t) = exp(-kappa t)
        kappa = 0.7
        space = HilbertSpace(0, 10)
        a = annihilation(10)
        n_op = embed(a.conj().T @ a, CAVITY, space)
        cfg = IntegratorConfig(dt=0.01, t_end=2.0, record_stride=10)
        res = evolve_lindblad(
            None,
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
            None,
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
            None,
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
        psi, _ = evolve_unitary(provider, psi0, cfg)
        np.testing.assert_allclose(
            res.final_rho, np.outer(psi, psi.conj()), atol=1e-8
        )

    def test_records_cover_start_and_end(self):
        space = HilbertSpace(0, 4)
        cfg = IntegratorConfig(dt=0.1, t_end=1.0, record_stride=3)
        res = evolve_lindblad(
            None,
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
            evolve_lindblad(None, DecoherenceRates(), state, np.ones(3), cfg)
        with pytest.raises(ValueError, match="observable"):
            evolve_lindblad(
                None, DecoherenceRates(), state, None, cfg, observables={"bad": np.eye(3)}
            )

    def test_aborts_on_non_finite_hamiltonian(self):
        space = HilbertSpace(1, 2)
        bad = np.full((4, 4), np.nan, dtype=complex)
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
        assert res.max_hermiticity_drift < 1e-10


class TestEvolveUnitary:
    def test_no_hamiltonian_gives_identity(self):
        psi = np.array([1.0, 0.0], dtype=complex)
        out, u = evolve_unitary(None, psi, IntegratorConfig(dt=0.1, t_end=1.0))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(out, psi, atol=1e-15)

    def test_constant_sigma_z_phase_evolution(self):
        omega, t_end = 1.7, 2.0
        h = 0.5 * omega * SIGMA_Z
        psi0 = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        psi, u = evolve_unitary(h, psi0, IntegratorConfig(dt=0.01, t_end=t_end))
        expected_u = np.diag(
            [np.exp(-0.5j * omega * t_end), np.exp(0.5j * omega * t_end)]
        )
        np.testing.assert_allclose(u, expected_u, atol=1e-10)
        np.testing.assert_allclose(psi, expected_u @ psi0, atol=1e-10)

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            evolve_unitary(None, np.array([1.0, 1.0]), IntegratorConfig(dt=0.1, t_end=1.0))

    def test_detects_norm_drift_from_non_hermitian_generator(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # nilpotent, not Hermitian
        psi0 = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(IntegratorError):
            evolve_unitary(h, psi0, IntegratorConfig(dt=0.05, t_end=2.0))


class TestFidelity:
    def test_pure_state_against_itself(self):
        psi = np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0)
        assert fidelity(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0)

    def test_bell_overlap_with_basis_projector(self):
        from geomgate.model import bell_target

        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        assert fidelity(rho, bell_target()) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed(self):
        from geomgate.model import bell_target

        assert fidelity(np.eye(4) / 4.0, bell_target()) == pytest.approx(0.25, abs=1e-12)

    def test_rejects_mismatch_and_non_hermitian(self):
        with pytest.raises(ValueError, match="dimension"):
            fidelity(np.eye(2) / 2.0, np.ones(3) / math.sqrt(3.0))
        skew = np.array([[0.5, 0.3], [-0.3, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary"):
            fidelity(skew, np.array([1.0, 1.0j]) / math.sqrt(2.0))


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
        with pytest.raises(ValueError, match="trace"):
            EvolutionResult(
                times=np.arange(2.0),
                fidelities=np.ones(2),
                traces=np.array([1.0, 1.1]),
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
        _, u = evolve_unitary(provider, ground_state(space), cfg)
        gate = gate_unitary(theta_of_schedule(1.0, delta), n_qubits)
        dist = propagator_gate_distance(u, gate, space, n_fock_keep=4)
        assert dist < 1e-4

    def test_distance_is_phase_insensitive(self):
        space = HilbertSpace(1, 3)
        u = np.exp(0.7j) * np.eye(6, dtype=complex)
        assert propagator_gate_distance(u, np.eye(2), space) < 1e-12

    def test_rejects_bad_block(self):
        space = HilbertSpace(1, 3)
        with pytest.raises(ValueError):
            propagator_gate_distance(np.eye(6), np.eye(2), space, n_fock_keep=9)
        with pytest.raises(ValueError):
            propagator_gate_distance(np.eye(5), np.eye(2), space)

    def test_cavity_starts_and_ends_disentangled(self):
        # after a closed loop the cavity returns to vacuum for qubit-basis input
        space = HilbertSpace(2, 16)
        drive = DriveParams((1.0, 1.0), (0.0, 0.0), 4.0)
        provider = hamiltonian_h2_provider(drive, space)
        tau = loop_time(4.0)
        cfg = IntegratorConfig(dt=tau / 800, t_end=tau, max_frequency=provider.max_frequency)
        psi, _ = evolve_unitary(provider, ground_state(space), cfg)
        pops = np.abs(psi.reshape(4, 16)) ** 2
        assert pops[:, 1:].sum() < 1e-8
