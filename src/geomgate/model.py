"""Model builders: drive Hamiltonians, analytic trajectory, effective couplings, gates.

Unit convention: every rate is expressed in units of a reference coupling η
(η = 1 internally) and time in 1/η, so typical inputs are order-1 numbers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import (
    SIGMA_X,
    HilbertSpace,
    embed,
    matexp,
)

__all__ = [
    "PhysicalParams",
    "DriveParams",
    "Trajectory",
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


@dataclass(frozen=True)
class PhysicalParams:
    """Raw hardware rates behind one qubit's effective drive-cavity coupling.

    All four are angular frequencies in a common unit: ``g`` the qubit-cavity
    coupling, ``omega_l`` the classical drive strength, ``delta_big`` the
    drive detuning from the upper level, ``delta_small`` the residual
    two-photon detuning.  The adiabatic elimination behind
    :func:`effective_coupling` is only trustworthy for
    ``delta_big >> delta_small``; construction warns below a 10× ratio.
    Non-finite values are rejected at construction.
    """

    g: float
    omega_l: float
    delta_big: float
    delta_small: float = 0.0

    def __post_init__(self) -> None:
        for name in ("g", "omega_l", "delta_big", "delta_small"):
            # NaN passes `<= 0` and silences the 10x warning; an infinite Δ zeroes η
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.delta_big <= 0:
            raise ValueError(f"delta_big must be positive, got {self.delta_big}")
        if self.delta_big < 10.0 * abs(self.delta_small):
            warnings.warn(
                "delta_big is less than 10x |delta_small|; the effective "
                "coupling formula degrades outside the dispersive regime",
                stacklevel=3,
            )


def effective_coupling(p: PhysicalParams, approximate: bool = False) -> float:
    """Effective drive-cavity coupling η of one qubit.

    Exact branch: (g·Ω_L/2)(1/(Δ+δ) + 1/Δ).  Approximate branch: g·Ω_L/Δ,
    the leading term for δ → 0.

    Raises
    ------
    ValueError
        If a denominator vanishes or turns negative (Δ + δ ≤ 0).
    """
    if approximate:
        return p.g * p.omega_l / p.delta_big
    if p.delta_big + p.delta_small <= 0:
        raise ValueError(
            f"delta_big + delta_small must be positive, got {p.delta_big + p.delta_small}"
        )
    return 0.5 * p.g * p.omega_l * (1.0 / (p.delta_big + p.delta_small) + 1.0 / p.delta_big)


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

    def __init__(
        self,
        etas: Sequence[float],
        phis: Sequence[float],
        delta: float,
        omega: float = 0.0,
    ) -> None:
        object.__setattr__(self, "etas", tuple(float(e) for e in etas))
        object.__setattr__(self, "phis", tuple(float(p) for p in phis))
        object.__setattr__(self, "delta", float(delta))
        object.__setattr__(self, "omega", float(omega))
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


def _drive_provider(terms: Sequence[tuple[np.ndarray, float]]) -> Callable[[float], np.ndarray]:
    """Provider t ↦ P(t) = Σ_k e^{iω_k t}·S_k of the drive H(t) = P(t)⊗a + P(t)†⊗a†.

    Each S_k is a 2^N×2^N register operator, so P(t) is one product of the
    phases e^{iω_k t} with the stacked S_k, and no cavity operator or joint
    matrix is built here: :mod:`~geomgate.dynamics` applies H(t) from P(t).
    The callable carries ``max_frequency``, the largest |ω_k|, for
    integrator-step validation, as an attribute, so it survives a caller that
    re-wraps the function and copies its ``__dict__``.
    """
    q = terms[0][0].shape[0]
    stack = np.array([np.asarray(s, dtype=complex).reshape(-1) for s, _ in terms])
    iw = 1j * np.array([float(w) for _, w in terms])

    def p_of_t(t: float) -> np.ndarray:
        return (np.exp(iw * t) @ stack).reshape(q, q)

    p_of_t.max_frequency = max(abs(float(w)) for _, w in terms)  # type: ignore[attr-defined]
    return p_of_t


def _force_operator(drive: DriveParams, single: np.ndarray) -> np.ndarray:
    """Σ_j η_j e^{iφ_j}·(``single`` on qubit j), a 2^N×2^N register operator."""
    register = HilbertSpace(n_qubits=drive.n_qubits, cavity_dim=1)
    s = np.zeros((register.dim, register.dim), dtype=complex)
    for j in range(1, drive.n_qubits + 1):
        s += drive.etas[j - 1] * np.exp(1j * drive.phis[j - 1]) * embed(single, j, register)
    return s


def hamiltonian_h2_provider(
    drive: DriveParams, space: HilbertSpace
) -> Callable[[float], np.ndarray]:
    """Provider t ↦ P(t) of H2(t), the spin-dependent dipole force Hamiltonian.

    H2(t) = Σ_j η_j [a e^{i(δt + φ_j)} + a† e^{-i(δt + φ_j)}] σ_j^x
          = P(t)⊗a + h.c.,  P(t) = e^{iδt}·Σ_j η_j e^{iφ_j} σ_j^x,

    one term of :func:`_drive_provider`: the callable returns the 2^N×2^N
    matrix P(t) and carries ``max_frequency`` = |δ|.
    """
    _check_space(drive, space)
    return _drive_provider([(_force_operator(drive, SIGMA_X), drive.delta)])


def hamiltonian_h1_provider(
    drive: DriveParams, space: HilbertSpace
) -> Callable[[float], np.ndarray]:
    """Provider t ↦ P(t) of H1(t), the full drive Hamiltonian including the Ω-oscillating terms.

    H1(t) = H2(t) + Σ_j η_j [a e^{i(δt + φ_j)} (e^{iΩt}|+⟩⟨-|_j - e^{-iΩt}|-⟩⟨+|_j) + h.c.]

    with H2 from :func:`hamiltonian_h2_provider`; the strong-driving
    approximation (Ω ≫ δ, η) discards the cross terms.  They have the same
    P⊗a form as H2, with |+⟩⟨-| and -|-⟩⟨+| in place of σ^x, at δ + Ω and
    δ - Ω, so P(t) sums three terms of :func:`_drive_provider` and
    ``max_frequency`` is |δ| + |Ω|.
    """
    _check_space(drive, space)
    return _drive_provider(
        [
            (_force_operator(drive, SIGMA_X), drive.delta),
            (_force_operator(drive, PLUS_MINUS), drive.delta + drive.omega),
            (_force_operator(drive, -MINUS_PLUS), drive.delta - drive.omega),
        ]
    )


def default_dt(drive: DriveParams) -> float:
    """Step size resolving the fastest drive frequency with 200 steps per cycle.

    Returns 2π/(200·max(|δ|, |Ω|)), twice the sampling that
    :class:`~geomgate.dynamics.IntegratorConfig` requires.
    """
    fastest = max(abs(drive.delta), abs(drive.omega))
    if fastest <= 0:
        raise ValueError("drive has no oscillation frequency to resolve")
    return 2.0 * math.pi / (200 * fastest)


@dataclass(frozen=True)
class Trajectory:
    """Sampled phase-space loop (x(t), p(t)) of the driven cavity.

    All points lie on the circle of radius √2η/δ centred at (√2η/δ, 0).
    """

    times: np.ndarray = field(repr=False)
    xs: np.ndarray = field(repr=False)
    ps: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        xs = np.asarray(self.xs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        if not (times.shape == xs.shape == ps.shape) or times.ndim != 1:
            raise ValueError("times, xs, ps must be 1-D arrays of equal length")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)


def trajectory(eta: float, delta: float, times: Sequence[float]) -> Trajectory:
    """Closed-form displacement loop x(t) = √2η(1-cos δt)/δ, p(t) = √2η sin(δt)/δ.

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
    return Trajectory(times=t, xs=amp * (1.0 - np.cos(delta * t)), ps=amp * np.sin(delta * t))


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


def effective_all_to_all(
    lambda_: float, phis: Sequence[float], space: HilbertSpace
) -> np.ndarray:
    """All-to-all effective Hamiltonian λ Σ_{j<k} cos(φ_j - φ_k) σ_j^x σ_k^x.

    ``space`` must be qubit-only (cavity_dim = 1): the cavity is already
    eliminated in this picture.

    Raises
    ------
    ValueError
        If fewer than two qubits, or the space retains a cavity factor.
    """
    if space.cavity_dim != 1:
        raise ValueError("effective model lives on a qubit-only space (cavity_dim = 1)")
    n = space.n_qubits
    if n < 2 or len(phis) != n:
        raise ValueError(f"need phis for >= 2 qubits, got {len(phis)} phases for N={n}")
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(1, n + 1):
        xj = embed(SIGMA_X, j, space)
        for k in range(j + 1, n + 1):
            h += lambda_ * math.cos(phis[j - 1] - phis[k - 1]) * (xj @ embed(SIGMA_X, k, space))
    return h


def gate_unitary(theta: float, n: int) -> np.ndarray:
    """Collective gate U(θ) = exp[-i(θ/2)(Σ_j σ_j^x)²] on n qubits.

    For n = 2 this equals exp(-iθ σ₁^x σ₂^x) up to the global phase e^{-iθ}
    contributed by the identity part of the square.  θ = π/4 produces
    maximally entangled states from computational basis states.
    """
    if n < 1:
        raise ValueError(f"gate needs n >= 1 qubits, got {n}")
    space = HilbertSpace(n_qubits=n, cavity_dim=1)
    sx_total = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(1, n + 1):
        sx_total += embed(SIGMA_X, j, space)
    return matexp(-0.5j * theta * (sx_total @ sx_total))


def bell_target() -> np.ndarray:
    """Maximally entangled two-qubit target: gate_unitary(π/4, 2) |00⟩.

    Equals e^{-iπ/4}(|00⟩ - i|11⟩)/√2.  Defining the target through the
    package's own gate keeps every fidelity check free of sign-convention
    choices.
    """
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    return gate_unitary(math.pi / 4.0, 2) @ psi0


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
