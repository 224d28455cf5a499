"""Test oracles shared by the test modules.

Each helper is an independent reference: a literal construction, another
algorithm or a closed form, which the tests hold the package's results
against.  Test modules import these from here and never from one another.
"""

import functools
import math

import numpy as np

from geomgate.core import CAVITY, annihilation, embed, fock_state, matexp

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SM = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0⟩⟨1|
SZ = np.diag([1.0, -1.0]).astype(complex)


def _random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A full-rank density matrix from ``rng``: A·A†/tr(A·A†) for a complex Gaussian A."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _eigh_expm(a: np.ndarray) -> np.ndarray:
    """Test oracle: e^A of an anti-Hermitian A = −iH as V·e^{−iw}·V† from one eigh of H.

    It shares no code with :func:`geomgate.core.matexp`, a Taylor series.
    """
    w, v = np.linalg.eigh(1j * np.asarray(a, dtype=complex))
    return (v * np.exp(-1j * w)) @ v.conj().T


def _displaced_vacuum(d: int, alpha: complex) -> np.ndarray:
    """Test helper: D(α)|0⟩ = exp(αa† − α*a)|0⟩ on a d-level cavity, via matexp."""
    a = annihilation(d)
    return matexp(alpha * a.conj().T - np.conj(alpha) * a) @ fock_state(d, 0)


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


def _with_frame(p_of_t, frame):
    """``p_of_t`` re-wrapped to carry ``frame``, whatever frame it had."""

    def provider(t):
        return p_of_t(t)

    provider.frame = frame
    return provider


def _constant_provider(p):
    """P(t) = ``p`` for every t, with the zero frame (δ, G) = (0, 0) that this obeys."""
    return _with_frame(lambda t: p, (0.0, np.zeros_like(p)))


def _zero_provider(qubit_dim):
    """No drive: P(t) = 0 on a register of ``qubit_dim`` states."""
    return _constant_provider(np.zeros((qubit_dim, qubit_dim), dtype=complex))


def _branch_qubit_rho(rho_q0, etas, phis, delta, kappa, t):
    """Exact reduced qubit matrix at ``t`` under H₂ with cavity decay κ alone, untruncated.

    S = Σ_j η_j e^{iφ_j} σ_j^x is diagonal in the σ^x basis |s⟩ (s_j = ±1,
    qubit 1 most significant), S|s⟩ = λ_s|s⟩, so from ρ_q(0) ⊗ |0⟩⟨0| each
    block of ρ stays c_{ss'}(t)·‖α_s)(α_{s'}‖ in the unnormalised coherent
    states ‖α) = e^{α·a†}|0⟩ (the branch ansatz of Gambetta et al., PRA 77,
    012112 (2008)).  Matching the master equation term by term gives, with
    μ = κ/2 − iδ,

        α_s(t) = −iλ̄_s·(e^{−iδt} − e^{−κt/2})/μ,
        ln(c_{ss'}(t)/c_{ss'}(0)) = G_{ss'}(t)
            = ∫₀ᵗ [−iλ_s e^{iδu}·α_s + iλ̄_{s'} e^{−iδu}·ᾱ_{s'} + κ·α_s·ᾱ_{s'}] du,

    integrated here in closed form, and tracing out the cavity multiplies by
    (α_{s'}‖α_s) = e^{α_s·ᾱ_{s'}}.  Qubit decay or dephasing would move a
    branch off its coherent state, so the form holds only at γ₁ = γ₂ = 0.
    Written with numpy alone: it shares no code with the package.
    """
    n = len(etas)
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    lam = (1 - 2 * bits) @ (np.asarray(etas) * np.exp(1j * np.asarray(phis)))
    mu = kappa / 2 - 1j * delta

    def decayed(z):  # ∫₀ᵗ e^{−zu} du
        return (1 - np.exp(-z * t)) / z if z != 0 else t

    alpha = -1j * lam.conj() * (np.exp(-1j * delta * t) - np.exp(-kappa * t / 2)) / mu
    weight = np.abs(lam) ** 2
    g = (
        (-weight / mu * (t - decayed(mu)))[:, None]
        + (-weight / np.conj(mu) * (t - decayed(np.conj(mu))))[None, :]
        + kappa
        * np.outer(lam.conj(), lam)
        / abs(mu) ** 2
        * (t - decayed(np.conj(mu)) - decayed(mu) + decayed(kappa))
    )
    hadamard = np.ones((1, 1))
    for _ in range(n):  # |s⟩ = H^{⊗N}|bits⟩, and H^{⊗N} is its own inverse
        hadamard = np.kron(hadamard, np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))
    rho_x = hadamard @ rho_q0 @ hadamard * np.exp(g + np.outer(alpha, alpha.conj()))
    return hadamard @ rho_x @ hadamard


def _lambda_block_heff(g, omega_l, delta_big, delta_small):
    """Test oracle: the exact 2×2 effective Hamiltonian of one Λ qubit's single-excitation block.

    The basis is |0, n=1⟩, |1, n=0⟩, |2, n=0⟩: the upper level |2⟩ sits at 0,
    the cavity-coupled state |0, 1⟩ at −(Δ+δ) and the drive-coupled state
    |1, 0⟩ at −Δ, coupled to |2, 0⟩ by g and Ω_L.  With B the first two rows
    of the two lowest eigenvectors and E their energies, the des Cloizeaux
    effective Hamiltonian is (B·Bᵀ)^{−1/2}·B·E·Bᵀ·(B·Bᵀ)^{−1/2} on the two
    lower states, and its off-diagonal entry is the exact coupling −η.

    Measured against :func:`geomgate.model.effective_coupling`: the relative
    error of the second-order η follows (g² + Ω_L²)/Δ², with a ratio of
    0.945, 0.985, 0.996, 0.999 and 1.000 at Δ = 1, 3, 10, 30 and 100 for
    g = Ω_L = 0.1, δ = 0.04, and within about 0.15/Δ of 1 for g ≠ Ω_L.  The
    diagonal holds the AC Stark shifts, about −g²/(Δ+δ) and −Ω_L²/Δ: as large
    as η itself, and left out of H₁ and H₂, which take the dressed lower
    states as the qubit.
    """
    h = np.array(
        [[-(delta_big + delta_small), 0.0, g], [0.0, -delta_big, omega_l], [g, omega_l, 0.0]]
    )
    w, v = np.linalg.eigh(h)
    b = v[:2, :2]
    sw, sv = np.linalg.eigh(b @ b.T)
    inv_sqrt = (sv / np.sqrt(sw)) @ sv.T
    return inv_sqrt @ (b * w[:2]) @ b.T @ inv_sqrt


def _gate_target(n):
    """Test oracle: e^{−i(π/8)(Σ_j σ_j^x)²}|0…0⟩ on n qubits, from literal Kronecker products."""
    sx = [
        functools.reduce(np.kron, [SX if i == j else np.eye(2) for i in range(n)])
        for j in range(n)
    ]
    total = sum(sx)
    psi0 = np.zeros(2**n, dtype=complex)
    psi0[0] = 1.0
    return _eigh_expm(-1j * (math.pi / 8.0) * (total @ total)) @ psi0


def _rotating_frame_fidelities(etas, phis, delta, rates, cavity_dim, target, times):
    """Exact-in-time F(t) = ⟨target|ρ_q(t)|target⟩ under H₂ and the Lindblad channels.

    H₂(t) = P(t)⊗a + h.c. with P(t) = e^{iδt}·S and S = Σ_j η_j e^{iφ_j} σ_j^x.
    With V(t) = e^{−iδt·n̂}, H₂(t) = V(t)·H₂(0)·V(t)†, and every channel (a at
    rate κ, σ_j⁻ at γ₁, σ_j^z at γ₂) commutes with conjugation by V, so
    ρ(t) = V(t)·e^{L̃t}[ρ₀]·V(t)† with L̃ the constant Lindbladian of
    H₂(0) − δ·n̂.  V acts on the cavity alone and leaves ρ_q unchanged, so F(t)
    follows from e^{L̃t} with no time step.  L̃ is a literal sparse
    superoperator on the row-major vec(ρ), vec(AρB) = (A ⊗ Bᵀ)·vec(ρ), applied
    from ρ₀ = |0…0, 0⟩⟨0…0, 0| by ``expm_multiply`` (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)) over ``times``, which must be evenly spaced
    from 0.  ``rates`` = (κ, γ₁, γ₂).  It shares no code with the package.
    """
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    n, d = len(etas), cavity_dim
    q = 2**n

    def on_qubit(op, j):  # op on qubit j+1 of the joint space
        outer = sparse.identity(q // 2 ** (j + 1) * d)
        return sparse.kron(sparse.kron(sparse.identity(2**j), op), outer)

    a = sparse.kron(sparse.identity(q), sparse.diags(np.sqrt(np.arange(1.0, d)), 1))
    couplings = np.asarray(etas) * np.exp(1j * np.asarray(phis))  # η_j e^{iφ_j}
    s_op = sum(c * on_qubit(SX, j) for j, c in enumerate(couplings))
    n_op = sparse.kron(sparse.identity(q), sparse.diags(np.arange(d, dtype=float)))
    h = s_op @ a + (s_op @ a).conj().T - delta * n_op
    eye = sparse.identity(q * d)
    lindblad = -1j * (sparse.kron(h, eye) - sparse.kron(eye, h.T))
    kappa, gamma1, gamma2 = rates
    jumps = [(kappa, a)]
    jumps += [(rate, on_qubit(op, j)) for rate, op in ((gamma1, SM), (gamma2, SZ)) for j in range(n)]
    for rate, op in jumps:
        ada = op.conj().T @ op
        lindblad = lindblad + rate * (
            sparse.kron(op, op.conj()) - 0.5 * sparse.kron(ada, eye) - 0.5 * sparse.kron(eye, ada.T)
        )
    times = np.asarray(times, dtype=float)
    np.testing.assert_allclose(times, np.linspace(0.0, times[-1], times.size), rtol=0, atol=1e-12)
    rho0 = np.zeros((q * d) ** 2, dtype=complex)
    rho0[0] = 1.0
    vecs = expm_multiply(
        lindblad.tocsr(), rho0, start=0.0, stop=times[-1], num=times.size, endpoint=True
    )
    rho_q = vecs.reshape(times.size, q, d, q, d).trace(axis1=2, axis2=4)
    return np.einsum("i,kij,j->k", target.conj(), rho_q, target).real
