import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomgate.core import CAVITY, HilbertSpace, annihilation, embed, matexp
from geomgate.dynamics import _drive_product
from geomgate.model import (
    DriveParams,
    PhysicalParams,
    Trajectory,
    bell_target,
    default_dt,
    effective_all_to_all,
    effective_coupling,
    gate_unitary,
    ghz_target,
    hamiltonian_h1_provider,
    hamiltonian_h2_provider,
    loop_time,
    pair_coupling_rate,
    theta_of_schedule,
    trajectory,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)


class TestEffectiveCoupling:
    def test_approximate_branch_reference_point(self):
        # G = 0.1, Omega_L = 0.1, Delta = 1.0 (x 2pi GHz) -> 0.01 x 2pi GHz = 2pi x 10 MHz
        p = PhysicalParams(g=0.1, omega_l=0.1, delta_big=1.0, delta_small=0.0)
        assert effective_coupling(p, approximate=True) == pytest.approx(0.01, rel=1e-12)

    def test_exact_branch_hand_evaluated(self):
        p = PhysicalParams(g=0.1, omega_l=0.1, delta_big=1.0, delta_small=0.04)
        expected = 0.5 * 0.1 * 0.1 * (1.0 / 1.04 + 1.0 / 1.0)  # = 9.8077e-3
        assert effective_coupling(p) == pytest.approx(expected, rel=1e-14)
        assert effective_coupling(p) == pytest.approx(0.0098077, rel=1e-4)

    def test_no_drive_no_coupling(self):
        p = PhysicalParams(g=0.1, omega_l=0.0, delta_big=1.0)
        assert effective_coupling(p) == 0.0
        assert effective_coupling(p, approximate=True) == 0.0

    def test_rejects_nonpositive_delta_big(self):
        with pytest.raises(ValueError):
            PhysicalParams(g=0.1, omega_l=0.1, delta_big=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
    @pytest.mark.parametrize("name", ["g", "omega_l", "delta_big", "delta_small"])
    def test_rejects_non_finite_fields(self, name, bad):
        # NaN passes `delta_big <= 0` and silences the 10x warning; inf gives η = 0
        fields = {"g": 0.1, "omega_l": 0.1, "delta_big": 1.0, "delta_small": 0.0, name: bad}
        with pytest.raises(ValueError, match="finite"):
            PhysicalParams(**fields)

    def test_warns_outside_dispersive_regime(self):
        with pytest.warns(UserWarning, match="dispersive"):
            PhysicalParams(g=0.1, omega_l=0.1, delta_big=0.3, delta_small=0.1)

    def test_rejects_vanishing_denominator(self):
        with pytest.warns(UserWarning):
            p = PhysicalParams(g=0.1, omega_l=0.1, delta_big=1.0, delta_small=-1.0)
        with pytest.raises(ValueError):
            effective_coupling(p)


def _drive(n=2, delta=4.0, omega=0.0, phis=None, etas=None):
    return DriveParams(
        etas=etas or (1.0,) * n,
        phis=phis or (0.0,) * n,
        delta=delta,
        omega=omega,
    )


def _dense_h(p, d):
    """Test oracle: the dense drive H = P⊗a + P†⊗a† of a register matrix P and a d-level cavity."""
    u = np.kron(p, np.diag(np.sqrt(np.arange(1.0, d)), k=1))  # a; zero at d = 1
    return u + u.conj().T


def _h2_literal(drive, space, t):
    """H2(t) = Σ_j η_j [a e^{i(δt + φ_j)} + a† e^{-i(δt + φ_j)}] σ_j^x, term by term."""
    a = embed(annihilation(space.cavity_dim), CAVITY, space)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(1, space.n_qubits + 1):
        z = drive.etas[j - 1] * np.exp(1j * (drive.delta * t + drive.phis[j - 1]))
        h += (z * a + np.conj(z) * a.conj().T) @ embed(SX, j, space)
    return h


def _h1_literal(drive, space, t):
    """H2(t) plus Σ_j η_j [a e^{i(δt + φ_j)} (e^{iΩt}|+⟩⟨-|_j - e^{-iΩt}|-⟩⟨+|_j) + h.c.]."""
    a = embed(annihilation(space.cavity_dim), CAVITY, space)
    h = _h2_literal(drive, space, t)
    for j in range(1, space.n_qubits + 1):
        z = drive.etas[j - 1] * np.exp(1j * (drive.delta * t + drive.phis[j - 1]))
        cross = embed(
            np.exp(1j * drive.omega * t) * np.outer(PLUS, MINUS)
            - np.exp(-1j * drive.omega * t) * np.outer(MINUS, PLUS),
            j,
            space,
        )
        term = z * (a @ cross)
        h += term + term.conj().T
    return h


def _propagator_gate_distance(propagator, gate, space, n_fock_keep=None):
    """Test oracle: phase-aligned max-entry distance between a joint propagator and gate ⊗ I_cavity.

    Only the Fock levels ``0..n_fock_keep-1`` are compared: columns that start
    near the truncation edge cannot execute the cavity loop and carry
    truncation error unrelated to the gate.  The trace overlap fixes the
    global phase before the distance is taken.
    """
    keep = space.cavity_dim if n_fock_keep is None else n_fock_keep
    sub_idx = np.arange(space.dim).reshape(space.qubit_dim, space.cavity_dim)[:, :keep].ravel()
    block = propagator[np.ix_(sub_idx, sub_idx)]
    ref = np.kron(gate, np.eye(keep, dtype=complex))
    overlap = complex(np.einsum("ij,ij->", ref.conj(), block))
    if abs(overlap) > 0:
        block = block * (overlap.conjugate() / abs(overlap))
    return float(np.abs(block - ref).max())


class TestDriveHamiltonians:
    def test_zero_couplings_give_zero_matrix(self):
        # P(t) is zero, and with it the drive H(t)
        space = HilbertSpace(2, 3)
        drive = _drive(etas=(0.0, 0.0), omega=30.0)
        assert np.abs(hamiltonian_h2_provider(drive, space)(0.7)).max() == 0.0
        assert np.abs(hamiltonian_h1_provider(drive, space)(0.7)).max() == 0.0

    def test_force_form_at_t_zero(self):
        space = HilbertSpace(1, 5)
        a = annihilation(5)
        expected = np.kron(SX, a + a.conj().T)
        np.testing.assert_allclose(
            _dense_h(hamiltonian_h2_provider(_drive(1), space)(0.0), 5), expected, atol=1e-14
        )

    def test_force_form_at_quarter_period(self):
        # delta*t = pi/2 turns the x-quadrature force into a (-p)-quadrature force
        space = HilbertSpace(1, 5)
        a = annihilation(5)
        t = (math.pi / 2.0) / 4.0
        expected = np.kron(SX, 1j * a - 1j * a.conj().T)
        np.testing.assert_allclose(
            _dense_h(hamiltonian_h2_provider(_drive(1), space)(t), 5), expected, atol=1e-12
        )

    def test_phase_shift_by_pi_flips_sign(self):
        space = HilbertSpace(2, 3)
        h = hamiltonian_h2_provider(_drive(2), space)(0.37)
        h_flipped = hamiltonian_h2_provider(_drive(2, phis=(math.pi, math.pi)), space)(0.37)
        np.testing.assert_allclose(h_flipped, -h, atol=1e-12)

    def test_h1_minus_h2_is_only_the_fast_terms(self):
        space = HilbertSpace(2, 4)
        drive = _drive(2, omega=50.0, phis=(0.2, -0.4))
        p1 = hamiltonian_h1_provider(drive, space)
        p2 = hamiltonian_h2_provider(drive, space)
        a_full = embed(annihilation(4), CAVITY, space)
        plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
        minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
        p_pm = np.outer(plus, minus.conj())
        p_mp = np.outer(minus, plus.conj())
        for t in (0.0, 0.234, 1.7):
            cross = np.zeros((space.dim, space.dim), dtype=complex)
            for j in (1, 2):
                z = np.exp(1j * (drive.delta * t + drive.phis[j - 1]))
                term = z * (
                    a_full
                    @ embed(
                        np.exp(1j * drive.omega * t) * p_pm
                        - np.exp(-1j * drive.omega * t) * p_mp,
                        j,
                        space,
                    )
                )
                cross += term + term.conj().T
            np.testing.assert_allclose(_dense_h(p1(t) - p2(t), 4), cross, atol=1e-12)

    def test_providers_match_literal_builders(self):
        space = HilbertSpace(2, 4)
        drive = _drive(2, omega=25.0, phis=(0.3, 1.1), etas=(1.0, 0.8))
        p1 = hamiltonian_h1_provider(drive, space)
        p2 = hamiltonian_h2_provider(drive, space)
        for t in (0.0, 0.41, 2.9):
            assert p2(t).shape == p1(t).shape == (4, 4)
            np.testing.assert_allclose(_dense_h(p2(t), 4), _h2_literal(drive, space, t), atol=1e-12)
            np.testing.assert_allclose(_dense_h(p1(t), 4), _h1_literal(drive, space, t), atol=1e-12)
        assert p2.max_frequency == pytest.approx(4.0)
        assert p1.max_frequency == pytest.approx(29.0)

    def test_rejects_mismatched_space(self):
        for provider in (hamiltonian_h2_provider, hamiltonian_h1_provider):
            with pytest.raises(ValueError):
                provider(_drive(2), HilbertSpace(1, 4))
            with pytest.raises(ValueError):
                provider(_drive(1), HilbertSpace(1, 1))

    def test_default_dt_resolves_fastest_frequency(self):
        assert default_dt(_drive(1, delta=4.0)) == pytest.approx(2 * math.pi / 800)
        assert default_dt(_drive(1, delta=4.0, omega=100.0)) == pytest.approx(
            2 * math.pi / 20000
        )
        with pytest.raises(ValueError):
            default_dt(_drive(1, delta=0.0))

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(0.0, 10.0), phi=st.floats(-math.pi, math.pi), omega=st.floats(5.0, 60.0))
    def test_builders_always_hermitian(self, t, phi, omega):
        # P⊗a + h.c. is Hermitian for any P; what must hold everywhere is that
        # it is the literal (Hermitian) H1/H2
        space = HilbertSpace(2, 3)
        drive = _drive(2, omega=omega, phis=(phi, -0.5 * phi))
        for provider, literal in (
            (hamiltonian_h2_provider, _h2_literal),
            (hamiltonian_h1_provider, _h1_literal),
        ):
            h = _dense_h(provider(drive, space)(t), 3)
            assert np.abs(h - h.conj().T).max() < 1e-12
            np.testing.assert_allclose(h, literal(drive, space, t), rtol=0, atol=1e-12)

    def test_providers_hold_only_register_matrices(self):
        # N=6, d=32 is dim 2048: one dense H(t) there would take 64 MiB
        space = HilbertSpace(6, 32)
        drive = _drive(6, omega=30.0)
        tracemalloc.start()
        try:
            for provider in (hamiltonian_h2_provider, hamiltonian_h1_provider):
                assert provider(drive, space)(0.3).shape == (64, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(0.0, 5.0), c=st.floats(-math.pi, math.pi))
    def test_common_phase_shift_equals_time_shift(self, t, c):
        space = HilbertSpace(2, 3)
        delta = 4.0
        shifted_phase = hamiltonian_h2_provider(_drive(2, phis=(c, c)), space)(t)
        shifted_time = hamiltonian_h2_provider(_drive(2), space)(t + c / delta)
        np.testing.assert_allclose(shifted_phase, shifted_time, atol=1e-12)


class TestFactoredProduct:
    """The Lindblad drive product of P(t) must equal -i·H(t)·ρ with the literal dense H(t)."""

    @pytest.mark.parametrize("cavity_dim", [2, 5, 8])
    @pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
    def test_matches_literal_dense_product(self, n_qubits, cavity_dim):
        rng = np.random.default_rng(100 * n_qubits + cavity_dim)
        space = HilbertSpace(n_qubits, cavity_dim)
        drive = _drive(
            n_qubits,
            omega=30.0,
            etas=tuple(rng.uniform(0.5, 1.5, n_qubits)),
            phis=tuple(rng.uniform(-math.pi, math.pi, n_qubits)),
        )
        a = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        out = np.empty_like(rho)
        h_rho = _drive_product(space)
        for provider, literal in (
            (hamiltonian_h2_provider, _h2_literal),
            (hamiltonian_h1_provider, _h1_literal),
        ):
            p = provider(drive, space)
            for t in (0.0, 0.37, 1.9, 11.3):
                want = -1j * literal(drive, space, t) @ rho
                np.testing.assert_allclose(h_rho(p(t), rho, out), want, rtol=0, atol=1e-13)


class TestTrajectory:
    def test_closure_at_full_loop(self):
        traj = trajectory(1.0, 4.0, [2.0 * math.pi / 4.0])
        assert abs(traj.xs[0]) < 1e-12
        assert abs(traj.ps[0]) < 1e-12

    def test_extremum_at_half_loop(self):
        traj = trajectory(1.0, 4.0, [math.pi / 4.0])
        assert traj.xs[0] == pytest.approx(2.0 * math.sqrt(2.0) / 4.0, rel=1e-12)
        assert abs(traj.ps[0]) < 1e-12

    def test_quarter_loop_point(self):
        traj = trajectory(1.0, 4.0, [math.pi / 8.0])
        assert traj.xs[0] == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-12)
        assert traj.ps[0] == pytest.approx(math.sqrt(2.0) / 4.0, rel=1e-12)

    def test_points_lie_on_circle(self):
        eta, delta = 1.3, 5.0
        traj = trajectory(eta, delta, np.linspace(0.0, 4.0 * math.pi / delta, 401))
        r = math.sqrt(2.0) * eta / delta
        radii = (traj.xs - r) ** 2 + traj.ps**2
        np.testing.assert_allclose(radii, r**2, atol=1e-12)

    def test_rejects_zero_delta(self):
        with pytest.raises(ValueError):
            trajectory(1.0, 0.0, [0.1])

    def test_trajectory_type_rejects_ragged_series(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.arange(3.0), xs=np.arange(2.0), ps=np.arange(3.0))


class TestSchedule:
    def test_loop_time(self):
        assert loop_time(4.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
        assert loop_time(4.0, 3) == pytest.approx(3.0 * math.pi / 2.0, rel=1e-15)
        with pytest.raises(ValueError):
            loop_time(0.0)
        with pytest.raises(ValueError):
            loop_time(4.0, 0)

    def test_pair_coupling_rate(self):
        assert pair_coupling_rate(1.0, 4.0) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(ValueError):
            pair_coupling_rate(1.0, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_quarter_pi_schedule(self, n):
        # delta = 4 sqrt(n) eta makes theta = pi/4 for every loop count n
        delta = 4.0 * math.sqrt(n)
        assert theta_of_schedule(1.0, delta, n) == pytest.approx(math.pi / 4.0, rel=1e-12)

    def test_phase_quenches_angle(self):
        assert theta_of_schedule(1.0, 4.0, 1, math.pi / 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_two_loop_angle(self):
        assert theta_of_schedule(1.0, 4.0, 2) == pytest.approx(math.pi / 2.0, rel=1e-12)


def _pair(lambda_: float, phi: float) -> np.ndarray:
    # the two-qubit effective model at phase difference phi
    return effective_all_to_all(lambda_, (0.0, phi), HilbertSpace(2, 1))


class TestEffectiveModels:
    def test_pair_phase_switch(self):
        lam = 0.5
        assert np.abs(_pair(lam, math.pi / 2.0)).max() < 1e-15
        np.testing.assert_allclose(_pair(lam, 0.0), lam * np.kron(SX, SX), atol=1e-15)
        np.testing.assert_allclose(_pair(lam, math.pi), -lam * np.kron(SX, SX), atol=1e-12)

    def test_pair_coupling_extremes_over_phase(self):
        lam = 0.7
        norms = {
            phi: np.abs(_pair(lam, phi)).max()
            for phi in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi)
        }
        assert norms[0.0] == pytest.approx(lam)
        assert norms[math.pi] == pytest.approx(lam)
        assert norms[math.pi / 2] < 1e-15
        assert max(norms.values()) == pytest.approx(lam)

    def test_all_to_all_reduces_to_pair(self):
        lam, phis = 0.7, (0.3, 1.0)
        space = HilbertSpace(2, 1)
        np.testing.assert_allclose(
            effective_all_to_all(lam, phis, space),
            lam * math.cos(phis[0] - phis[1]) * np.kron(SX, SX),
            atol=1e-14,
        )

    def test_all_to_all_equal_phases(self):
        space = HilbertSpace(3, 1)
        lam = 0.4
        x = [embed(SX, j, space) for j in (1, 2, 3)]
        expected = lam * (x[0] @ x[1] + x[0] @ x[2] + x[1] @ x[2])
        np.testing.assert_allclose(
            effective_all_to_all(lam, (0.5, 0.5, 0.5), space), expected, atol=1e-14
        )

    def test_all_to_all_phase_pattern(self):
        # phases (0, pi/2, pi): pair couplings (0, -lambda, 0)
        space = HilbertSpace(3, 1)
        lam = 0.4
        expected = -lam * (embed(SX, 1, space) @ embed(SX, 3, space))
        np.testing.assert_allclose(
            effective_all_to_all(lam, (0.0, math.pi / 2.0, math.pi), space),
            expected,
            atol=1e-12,
        )

    def test_all_to_all_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            effective_all_to_all(1.0, (0.0,), HilbertSpace(1, 1))
        with pytest.raises(ValueError):
            effective_all_to_all(1.0, (0.0, 0.0), HilbertSpace(2, 4))
        with pytest.raises(ValueError):
            effective_all_to_all(1.0, (0.0,), HilbertSpace(2, 1))


class TestGateUnitary:
    def test_zero_angle_is_identity(self):
        np.testing.assert_allclose(gate_unitary(0.0, 3), np.eye(8), atol=1e-15)

    def test_two_qubit_closed_form(self):
        # (X1+X2)^2 = 2I + 2 X1X2, so U = e^{-i theta} exp(-i theta X1X2)
        theta = math.pi / 4.0
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        expected = np.exp(-1j * theta) * (
            math.cos(theta) * psi0
            - 1j * math.sin(theta) * np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        )
        np.testing.assert_allclose(gate_unitary(theta, 2) @ psi0, expected, atol=1e-14)

    def test_two_qubit_gate_equals_xx_rotation_up_to_phase(self):
        theta = 0.613
        u = gate_unitary(theta, 2)
        v = matexp(-1j * theta * np.kron(SX, SX))
        dist = _propagator_gate_distance(u, v, HilbertSpace(2, 1), n_fock_keep=1)
        assert dist < 1e-12

    def test_four_qubit_ghz_generation(self):
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        psi = gate_unitary(math.pi / 4.0, 4) @ psi0
        assert abs(psi[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(psi[15]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert np.abs(psi[1:15]).max() < 1e-12

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            gate_unitary(0.3, 0)

    @settings(max_examples=20, deadline=None)
    @given(t1=st.floats(-3.0, 3.0), t2=st.floats(-3.0, 3.0))
    def test_additivity_in_angle(self, t1, t2):
        u = gate_unitary(t1, 2) @ gate_unitary(t2, 2)
        np.testing.assert_allclose(u, gate_unitary(t1 + t2, 2), atol=1e-12)


class TestTargets:
    def test_bell_target_structure(self):
        psi = bell_target()
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert abs(psi[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(psi[3]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(psi[1]) < 1e-15 and abs(psi[2]) < 1e-15

    def test_ghz_target_consistency(self):
        np.testing.assert_allclose(ghz_target(2), bell_target(), atol=1e-14)
        psi = ghz_target(4)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        assert abs(psi[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(psi[-1]) ** 2 == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(ValueError):
            ghz_target(1)
