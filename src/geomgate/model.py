"""Model builders: drive Hamiltonians, analytic trajectory, effective couplings, gates.

Unit convention: every rate is expressed in units of a reference coupling η
(η = 1 internally) and time in 1/η, so typical inputs are order-1 numbers.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    SIGMA_X,
    HilbertSpace,
    matexp,
)

__all__ = [
    "DriveParams",
    "effective_coupling",
    "hamiltonian_h1_provider",
    "hamiltonian_h2_provider",
    "default_dt",
    "trajectory",
    "loop_time",
    "pair_coupling_rate",
    "theta_of_schedule",
    "effective_all_to_all",
    "gate_unitary",
    "bell_target",
    "ghz_target",
]

# |+⟩⟨-| and |-⟩⟨+| in the computational basis, with |±⟩ = (|0⟩ ± |1⟩)/√2.
PLUS_MINUS = 0.5 * np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
MINUS_PLUS = PLUS_MINUS.conj().T


def effective_coupling(
    g: float, omega_l: float, delta_big: float, delta_small: float = 0.0
) -> float:
    """Effective drive-cavity coupling η = (g·Ω_L/2)(1/(Δ+δ) + 1/Δ) of one Λ qubit.

    All four are angular frequencies in a common unit: ``g`` the qubit-cavity
    coupling, ``omega_l`` the classical drive strength, ``delta_big`` the
    drive detuning Δ from the upper level, ``delta_small`` the residual
    two-photon detuning δ.  At δ = 0 it reduces to g·Ω_L/Δ.  The adiabatic
    elimination behind it drops terms of relative order (g² + Ω_L²)/Δ² (the
    exact Λ block bears this out); it warns when Δ + δ ≤ 0 or when
    (g² + Ω_L²)/min(Δ, Δ+δ)² exceeds 1e-2.  The smaller denominator matters
    near δ = −Δ: at g = Ω_L = 0.1, Δ = 1, δ = −0.9 η is 69% off, where
    (g² + Ω_L²)/Δ² reads only 0.02.

    Raises
    ------
    ValueError
        If a value is not finite, Δ ≤ 0, or a denominator vanishes or turns
        negative (Δ + δ ≤ 0).
    """
    for name, value in (
        ("g", g), ("omega_l", omega_l), ("delta_big", delta_big), ("delta_small", delta_small)
    ):
        # NaN passes `<= 0` and silences the warning; an infinite Δ zeroes η
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if delta_big <= 0:
        raise ValueError(f"delta_big must be positive, got {delta_big}")
    near = min(delta_big, delta_big + delta_small)
    # products, not ** or /: a float power overflows with an error and near² may underflow to 0
    if near <= 0 or g * g + omega_l * omega_l > 1e-2 * near * near:
        warnings.warn(
            "(g^2 + omega_l^2)/min(delta_big, delta_big + delta_small)^2 exceeds 1e-2; "
            "the effective coupling formula degrades outside the dispersive regime",
            stacklevel=2,
        )
    if delta_big + delta_small <= 0:
        raise ValueError(
            f"delta_big + delta_small must be positive, got {delta_big + delta_small}"
        )
    return 0.5 * g * omega_l * (1.0 / (delta_big + delta_small) + 1.0 / delta_big)


@dataclass(frozen=True)
class DriveParams:
    """Per-qubit drive parameters for the joint qubits-cavity model.

    ``etas[j]``/``phis[j]`` are the effective coupling and drive phase of
    qubit j+1; ``delta`` is the common drive-cavity detuning and ``omega``
    the Rabi strength (used only by the full Hamiltonian including the
    fast-oscillating terms).  All rates in units of η.
    """

    etas: tuple[float, ...]
    phis: tuple[float, ...]
    delta: float
    omega: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "phis", tuple(float(p) for p in self.phis))
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "omega", float(self.omega))
        if len(self.etas) != len(self.phis):
            raise ValueError(
                f"etas and phis must have equal length, got {len(self.etas)} and {len(self.phis)}"
            )

    @property
    def n_qubits(self) -> int:
        return len(self.etas)


def _check_space(drive: DriveParams, space: HilbertSpace) -> None:
    if drive.n_qubits != space.n_qubits:
        raise ValueError(
            f"drive defines {drive.n_qubits} qubits but space has {space.n_qubits}"
        )
    if space.cavity_dim < 2:
        raise ValueError("drive Hamiltonians need a non-trivial cavity (cavity_dim >= 2)")


def _drive_provider(
    terms: Sequence[tuple[np.ndarray, float]], frame: tuple[float, np.ndarray]
) -> Callable[[float], np.ndarray]:
    """Provider t ↦ P(t) = Σ_k e^{iω_k t}·S_k of the drive H(t) = P(t)⊗a + P(t)†⊗a†.

    Each S_k is a 2^N×2^N register operator, so P(t) is a sum of the S_k
    scaled by scalar phases e^{iω_k t}, and no cavity operator or joint matrix
    is built here: :mod:`~geomgate.dynamics` applies H(t) from P(t).

    ``frame`` = (δ, G) states the drive's rotating-frame symmetry: with G a
    Hermitian register operator and R(s) = e^{−isG},

        P(t+s) = e^{iδs}·R(s)·P(t)·R(s)†  for all t, s,

    so H(t+s) = V(s)·H(t)·V(s)† with V(s) = R(s) ⊗ e^{−iδs·n̂}, because
    e^{−iθn̂}·a·e^{iθn̂} = e^{iθ}·a holds exactly for the truncated a.
    :func:`~geomgate.dynamics.evolve_unitary` and, for G = 0,
    :func:`~geomgate.dynamics.evolve_lindblad` rely on it and check it.

    The callable carries ``max_frequency``, the largest |ω_k|, for
    integrator-step validation, and ``frame``, as attributes, so they survive
    a caller that re-wraps the function and copies its ``__dict__``.
    """
    (iw0, s0), *rest = [(1j * float(w), np.asarray(s, dtype=complex)) for s, w in terms]

    def p_of_t(t: float) -> np.ndarray:
        # scalar phases from cmath: numpy's per-call overhead would dominate a q×q sum
        p = cmath.exp(iw0 * t) * s0
        for iw, s in rest:
            p += cmath.exp(iw * t) * s
        return p

    p_of_t.max_frequency = max(abs(float(w)) for _, w in terms)  # type: ignore[attr-defined]
    p_of_t.frame = (float(frame[0]), np.asarray(frame[1], dtype=complex))  # type: ignore[attr-defined]
    return p_of_t


def _qubit_sum(coeffs: Sequence[complex], single: np.ndarray) -> np.ndarray:
    """Σ_j coeffs[j-1]·(``single`` on qubit j), a 2^N×2^N register operator, N = len(coeffs).

    Built by bit index, with no Kronecker product.  With b = (s >> (N−j)) & 1 the
    bit of qubit j in basis state s, the 2×2 operator A on qubit j has entry
    A[b, b] at [s, s], A[b, 1−b] at [s, s ⊕ 2^(N−j)] and zeros elsewhere.  So,
    qubit by qubit in the order 1..N, row s gains c_j·A[b, b] and c_j·A[b, 1−b]
    at those two columns.  These are the nonzero additions of the literal sum
    Σ_j c_j·embed(A, j), in its order and onto its zeros, and c_j·A is formed by
    numpy as there, so the result equals it bit for bit, signed zeros included.
    """
    n = len(coeffs)
    q = 2**n
    entries = [0j] * (q * q)  # row-major, starting from +0 as the literal sum's zeros do
    single = np.asarray(single, dtype=complex)
    for j, c in enumerate(coeffs, start=1):
        shift = n - j
        term = (c * single).tolist()
        for s in range(q):
            b = (s >> shift) & 1
            entries[s * q + s] += term[b][b]
            entries[s * q + (s ^ (1 << shift))] += term[b][1 - b]
    return np.array(entries, dtype=complex).reshape(q, q)


def hamiltonian_h2_provider(
    drive: DriveParams, space: HilbertSpace
) -> Callable[[float], np.ndarray]:
    """Provider t ↦ P(t) of H2(t), the spin-dependent dipole force Hamiltonian.

    H2(t) = Σ_j η_j [a e^{i(δt + φ_j)} + a† e^{-i(δt + φ_j)}] σ_j^x
          = P(t)⊗a + h.c.,  P(t) = e^{iδt}·Σ_j η_j e^{iφ_j} σ_j^x,

    one term of :func:`_drive_provider`: the callable returns the 2^N×2^N
    matrix P(t) and carries ``max_frequency`` = |δ| and ``frame`` = (δ, 0):
    P(t+s) = e^{iδs}·P(t).
    """
    _check_space(drive, space)
    s = _qubit_sum([e * np.exp(1j * p) for e, p in zip(drive.etas, drive.phis)], SIGMA_X)
    return _drive_provider([(s, drive.delta)], (drive.delta, np.zeros_like(s)))


def hamiltonian_h1_provider(
    drive: DriveParams, space: HilbertSpace
) -> Callable[[float], np.ndarray]:
    """Provider t ↦ P(t) of H1(t), the full drive Hamiltonian including the Ω-oscillating terms.

    H1(t) = H2(t) + Σ_j η_j [a e^{i(δt + φ_j)} (e^{iΩt}|+⟩⟨-|_j - e^{-iΩt}|-⟩⟨+|_j) + h.c.]

    with H2 from :func:`hamiltonian_h2_provider`; the strong-driving
    approximation (Ω ≫ δ, η) discards the cross terms.  They have the same
    P⊗a form as H2, with |+⟩⟨-| and -|-⟩⟨+| in place of σ^x, at δ + Ω and
    δ - Ω, so P(t) sums three terms of :func:`_drive_provider` and
    ``max_frequency`` is |δ| + |Ω|.  Its ``frame`` is (δ, −(Ω/2)·Σ_j σ_j^x):
    R(s) = e^{i(Ωs/2)Σ_j σ_j^x} leaves σ_j^x alone and gives |+⟩⟨-|_j the
    phase e^{iΩs} and |-⟩⟨+|_j the phase e^{−iΩs}, which the cross terms need.
    """
    _check_space(drive, space)
    c = [e * np.exp(1j * p) for e, p in zip(drive.etas, drive.phis)]  # η_j e^{iφ_j}
    return _drive_provider(
        [
            (_qubit_sum(c, SIGMA_X), drive.delta),
            (_qubit_sum(c, PLUS_MINUS), drive.delta + drive.omega),
            (_qubit_sum(c, -MINUS_PLUS), drive.delta - drive.omega),
        ],
        (drive.delta, -0.5 * drive.omega * _qubit_sum([1.0] * drive.n_qubits, SIGMA_X)),
    )


def default_dt(drive: DriveParams) -> float:
    """Step size resolving the fastest drive frequency with 200 steps per cycle.

    Returns 2π/(200·max(|δ|, |Ω|)).  :class:`~geomgate.dynamics.IntegratorConfig`
    requires dt ≤ 2π/(100·f), with f the provider's ``max_frequency``.  For H2,
    f = |δ|, so this is twice the sampling required.  For H1, f = |δ| + |Ω|, so
    the margin is only 2·max(|δ|, |Ω|)/(|δ| + |Ω|): 1.72 at δ=4, Ω=25, and
    exactly 1 at |Ω| = |δ|, where only the config's 1e-12 relative slack
    admits the step.
    """
    fastest = max(abs(drive.delta), abs(drive.omega))
    if fastest <= 0:
        raise ValueError("drive has no oscillation frequency to resolve")
    return 2.0 * math.pi / (200 * fastest)


def trajectory(
    eta: float, delta: float, times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form displacement loop (x(t), p(t)) = (√2η(1-cos δt)/δ, √2η sin(δt)/δ).

    Returns the arrays ``(xs, ps)`` at ``times``.  All points lie on the circle
    of radius √2η/δ centred at (√2η/δ, 0).

    This is the loop on the positive-x side of phase space; the two σ^x
    eigenstates trace this curve and its point reflection through the origin.
    Under the sign convention of :func:`hamiltonian_h2_provider`, the σ^x = -1
    eigenstate follows the positive-x loop returned here and the σ^x = +1
    eigenstate its negation.  The loop closes at δt = 2nπ.

    Raises
    ------
    ValueError
        If ``delta`` is zero (the drive is resonant and the loop never closes).
    """
    if delta == 0:
        raise ValueError("delta must be nonzero for a closed displacement loop")
    t = np.asarray(times, dtype=float)
    amp = math.sqrt(2.0) * eta / delta
    return amp * (1.0 - np.cos(delta * t)), amp * np.sin(delta * t)


def loop_time(delta: float, n: int = 1) -> float:
    """Time τ_n = 2nπ/δ after which the displacement loop has closed n times."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    if n < 1:
        raise ValueError(f"loop count must be >= 1, got {n}")
    return 2.0 * math.pi * n / delta


def pair_coupling_rate(eta: float, delta: float) -> float:
    """Effective qubit-qubit coupling rate λ = 2η²/δ of the closed-loop gate."""
    if delta == 0:
        raise ValueError("delta must be nonzero")
    return 2.0 * eta**2 / delta


def theta_of_schedule(eta: float, delta: float, n: int = 1, phi1: float = 0.0) -> float:
    """Gate angle θ = λ τ_n cos φ₁ = 4nπη² cos(φ₁)/δ² accumulated over n loops.

    θ = π/4 (the maximally entangling point) is reached by δ = 4√n·η at φ₁=0.
    """
    return pair_coupling_rate(eta, delta) * loop_time(delta, n) * math.cos(phi1)


def effective_all_to_all(lambda_: float, phis: Sequence[float]) -> np.ndarray:
    """All-to-all effective Hamiltonian λ Σ_{j<k} cos(φ_j - φ_k) σ_j^x σ_k^x.

    The cavity is already eliminated in this picture: the result is the
    2^N×2^N register matrix of N = len(phis) qubits.

    Raises
    ------
    ValueError
        If fewer than two phases are given.
    """
    n = len(phis)
    if n < 2:
        raise ValueError(f"need phis for >= 2 qubits, got {n}")
    # A·A† = N·I + Σ_{j≠k} e^{i(φ_j−φ_k)} σ_j^x σ_k^x, and the j<k and k<j terms pair to 2·cos
    a = _qubit_sum([cmath.exp(1j * p) for p in phis], SIGMA_X)
    return 0.5 * lambda_ * (a @ a.conj().T - n * np.eye(2**n))


def gate_unitary(theta: float, n: int) -> np.ndarray:
    """Collective gate U(θ) = exp[-i(θ/2)(Σ_j σ_j^x)²] on n qubits.

    For n = 2 this equals exp(-iθ σ₁^x σ₂^x) up to the global phase e^{-iθ}
    contributed by the identity part of the square.  θ = π/4 produces
    maximally entangled states from computational basis states.
    """
    if n < 1:
        raise ValueError(f"gate needs n >= 1 qubits, got {n}")
    sx_total = _qubit_sum([1.0] * n, SIGMA_X)
    return matexp(-0.5j * theta * (sx_total @ sx_total))


def bell_target() -> np.ndarray:
    """Maximally entangled two-qubit target: gate_unitary(π/4, 2) |00⟩.

    Equals e^{-iπ/4}(|00⟩ - i|11⟩)/√2.  Defining the target through the
    package's own gate keeps every fidelity check free of sign-convention
    choices.
    """
    return ghz_target(2)


def ghz_target(n: int) -> np.ndarray:
    """N-qubit GHZ-class target: gate_unitary(π/4, n) |0…0⟩.

    Raises
    ------
    ValueError
        If ``n < 2``.
    """
    if n < 2:
        raise ValueError(f"GHZ target needs n >= 2 qubits, got {n}")
    psi0 = np.zeros(2**n, dtype=complex)
    psi0[0] = 1.0
    return gate_unitary(math.pi / 4.0, n) @ psi0
