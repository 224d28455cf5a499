import math

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
    _Dissipator,
    _drive_product,
    _rhs,
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
    hamiltonian_h2_provider,
    loop_time,
    pair_coupling_rate,
    theta_of_schedule,
)
from test_model import _dense_h, _h2_literal, _propagator_gate_distance

RNG = np.random.default_rng(7)


def _zero_provider(qubit_dim):
    """No drive: P(t) = 0 on a register of ``qubit_dim`` states."""
    p = np.zeros((qubit_dim, qubit_dim), dtype=complex)
    return lambda t: p


def _random_density(dim):
    a = RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


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
            # vec(ρ) of 144² and 160² entries spans several chunks, and the
            # shifted channels end partway through one
            (4, 9, DecoherenceRates(kappa=0.3, gamma1=0.2, gamma2=0.1)),
            (3, 20, DecoherenceRates(kappa=0.4, gamma1=0.6)),
        ],
    )
    def test_structured_equals_dense(self, n_qubits, cavity_dim, rates):
        space = HilbertSpace(n_qubits, cavity_dim)
        rho = _random_density(space.dim)
        p = _random_register(space.qubit_dim)
        got = _rhs(
            lambda t: p,
            0.0,
            rho,
            _drive_product(space),
            _Dissipator(rates, space),
            np.empty_like(rho),
            np.empty_like(rho),
        )
        want = _dense_lindblad_rhs(_dense_h(p, cavity_dim), rho, rates, space)
        np.testing.assert_allclose(got, want, atol=1e-13)

    def test_zero_rates_reduce_to_commutator(self):
        space = HilbertSpace(1, 4)
        rho = _random_density(8)
        p = _random_register(2)
        h = _dense_h(p, 4)
        diss = _Dissipator(DecoherenceRates(), space)
        got = _rhs(
            lambda t: p,
            0.0,
            rho,
            _drive_product(space),
            diss,
            np.empty_like(rho),
            np.empty_like(rho),
        )
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
        class Planted(_Dissipator):
            def __init__(self, rates, space):
                super().__init__(rates, space)
                main = self._chunks[0][1]
                main[1] *= 1.0 + 1e-9  # the weight of ρ[0, 1], not of ρ[1, 0]

        monkeypatch.setattr(dynamics, "_Dissipator", Planted)
        rho = _final_rho_from_random_start(2, 6, driven=True)
        assert not np.array_equal(rho, rho.conj().T)


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
        psi = evolve_unitary(lambda t: p, psi0, cfg)
        u = evolve_unitary(lambda t: p, np.eye(2), cfg)
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
        monkeypatch.setattr(dynamics, "_expm_action", lambda a, theta, x: 1.001 * x)
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
        step = matexp(-1j * cfg.dt_effective * h)
        for x in (psi / np.linalg.norm(psi), block):
            np.testing.assert_allclose(
                evolve_unitary(lambda t: p, x, cfg), step @ x, rtol=0, atol=1e-13
            )

    def test_rejects_register_matrix_that_does_not_divide_dim(self):
        with pytest.raises(ValueError, match="dividing 4"):
            evolve_unitary(_zero_provider(3), np.eye(4)[0], IntegratorConfig(dt=0.1, t_end=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("initial", [np.eye(4)[0], np.eye(4)[:, :2]], ids=["vector", "block"])
    def test_non_finite_hamiltonian_aborts_with_step(self, bad, initial):
        p_bad = np.zeros((2, 2), dtype=complex)
        p_bad[1, 0] = bad

        def provider(t):
            # finite at the first two midpoints (0.05, 0.15), then one bad entry
            return p_bad if t > 0.2 else np.zeros((2, 2), dtype=complex)

        with pytest.raises(IntegratorError, match="non-finite Hamiltonian at step 3/5"):
            evolve_unitary(provider, initial, IntegratorConfig(dt=0.1, t_end=0.5))


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
        h_eff = effective_all_to_all(pair_coupling_rate(1.0, delta), phis, HilbertSpace(n, 1))
        expected = matexp(-1j * tau * h_eff)
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
