"""Closed- and open-system propagation with fidelity and observable records.

The master equation integrated here is

    dρ/dt = i[ρ, H(t)] + (κ/2)L(a) + Σ_j [(γ₁/2)L(σ_j⁻) + (γ₂/2)L(σ_j^z)],

with L(A)ρ = 2AρA† - A†Aρ - ρA†A.  The sign convention i[ρ, H] equals the
standard -i[H, ρ].  Propagation is fixed-step classical 4th-order (RK4) on
the full density matrix.  The dissipator is applied in place through an
elementwise mask and strided views of ρ rather than superoperator matrices
or index gathers, and every RK4 stage writes into buffers allocated once per
run, so a right-hand side costs a single dense matrix product plus
elementwise passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .core import HilbertSpace, QuantumState, _reduced_qubit_rho, matexp

__all__ = [
    "DecoherenceRates",
    "IntegratorConfig",
    "EvolutionResult",
    "IntegratorError",
    "evolve_lindblad",
    "evolve_unitary",
    "fidelity",
    "max_fidelity",
    "propagator_gate_distance",
]

HamiltonianProvider = Callable[[float], np.ndarray]


class IntegratorError(RuntimeError):
    """Raised when a propagation run leaves its validity envelope (trace drift, NaN, norm loss)."""


@dataclass(frozen=True)
class DecoherenceRates:
    """Lindblad rates in units of η: cavity decay κ, qubit decay γ₁, qubit dephasing γ₂."""

    kappa: float = 0.0
    gamma1: float = 0.0
    gamma2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("kappa", "gamma1", "gamma2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    @property
    def any_active(self) -> bool:
        return self.kappa > 0 or self.gamma1 > 0 or self.gamma2 > 0


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration plan.

    ``dt`` is an upper bound on the step: the actual step is t_end/n_steps
    with n_steps = ceil(t_end/dt), so the final step lands exactly on
    ``t_end``.  When ``max_frequency`` (the fastest oscillation of the
    Hamiltonian, supplied by its provider) is given, construction rejects
    steps that undersample it: dt must be ≤ 2π/(100·max_frequency).
    """

    dt: float
    t_end: float
    record_stride: int = 1
    max_frequency: float | None = None

    def __post_init__(self) -> None:
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be >= dt, got t_end={self.t_end}, dt={self.dt}")
        if self.record_stride < 1:
            raise ValueError(f"record_stride must be >= 1, got {self.record_stride}")
        if self.max_frequency is not None and self.max_frequency > 0:
            limit = 2.0 * math.pi / (100.0 * self.max_frequency)
            if self.dt > limit * (1.0 + 1e-12):
                raise ValueError(
                    f"dt={self.dt:.3e} undersamples the fastest frequency "
                    f"{self.max_frequency:.3e} (limit {limit:.3e})"
                )

    @property
    def n_steps(self) -> int:
        # small slack so exact divisions do not gain a step to roundoff
        return max(1, int(math.ceil(self.t_end / self.dt - 1e-9)))

    @property
    def dt_effective(self) -> float:
        return self.t_end / self.n_steps


@dataclass
class EvolutionResult:
    """Per-record time series from one propagation run.

    ``times``, ``fidelities``, ``traces`` and ``purities`` share one length;
    ``observables`` adds named series of the same length.  ``fidelities`` is
    NaN-filled when the run had no target state.  Diagnostics:
    ``positivity_checks`` holds (time, min eigenvalue) spot checks and
    ``max_hermiticity_drift`` the largest pre-resymmetrization asymmetry seen.
    """

    times: np.ndarray = field(repr=False)
    fidelities: np.ndarray = field(repr=False)
    traces: np.ndarray = field(repr=False)
    purities: np.ndarray = field(repr=False)
    observables: dict[str, np.ndarray] | None = None
    final_rho: np.ndarray | None = field(default=None, repr=False)
    positivity_checks: list[tuple[float, float]] = field(default_factory=list)
    max_hermiticity_drift: float = 0.0

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.fidelities = np.asarray(self.fidelities, dtype=float)
        self.traces = np.asarray(self.traces, dtype=float)
        self.purities = np.asarray(self.purities, dtype=float)
        n = self.times.size
        series = [self.fidelities, self.traces, self.purities]
        if self.observables:
            series.extend(self.observables.values())
        if any(np.asarray(s).size != n for s in series):
            raise ValueError("all recorded series must share the length of times")
        if n and np.abs(self.traces - 1.0).max() > 1e-6:
            raise ValueError("recorded traces deviate from 1 by more than 1e-6")

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelities[-1])


class _Dissipator:
    """Precomputed mask and views applying the Lindblad dissipator in place.

    Exploits the fixed layout i = q·d + n: the anticommutator of the (diagonal)
    decay generators and the full dephasing channel collapse into one real
    elementwise mask.  The jump σ_j⁻ρσ_j⁺ of qubit j is an add between two
    blocks of ρ viewed with shape (2^(j-1), 2, 2^(N-j)·d) on each axis, and the
    cavity jump is a shifted, √n-weighted block of ρ viewed as (2^N, d, 2^N, d).
    """

    def __init__(self, rates: DecoherenceRates, space: HilbertSpace) -> None:
        self.rates = rates
        self.active = rates.any_active
        if not self.active:
            return
        nq, d, dim = space.n_qubits, space.cavity_dim, space.dim
        self._shape4 = (2**nq, d, 2**nq, d)
        idx = np.arange(dim)
        fock = idx % d
        # anticommutator diagonal: (κ/2)a†a + (γ₁/2)Σ_j |1⟩⟨1|_j
        mdiag = 0.5 * rates.kappa * fock.astype(float)
        dephase = np.zeros((dim, dim))
        self._jump_shapes: list[tuple[int, ...]] = []
        for j in range(1, nq + 1):
            bit = (idx // d >> (nq - j)) & 1
            mdiag = mdiag + 0.5 * rates.gamma1 * bit
            if rates.gamma2 > 0:
                sz = 1.0 - 2.0 * bit
                dephase += rates.gamma2 * (np.outer(sz, sz) - 1.0)
            if rates.gamma1 > 0:
                axis = (2 ** (j - 1), 2, 2 ** (nq - j) * d)
                self._jump_shapes.append(axis + axis)
        # fused mask: dephasing jump+anticommutator and decay anticommutators
        self._mask = dephase - (mdiag[:, None] + mdiag[None, :])
        self._masked = np.empty((dim, dim), dtype=complex)
        self._cavity_jump = rates.kappa > 0 and d >= 2
        if self._cavity_jump:
            w = np.sqrt(np.arange(1.0, d))
            self._cavity_weights = rates.kappa * (w[:, None] * w[None, :])

    def add_to(self, out: np.ndarray, rho: np.ndarray) -> None:
        if not self.active:
            return
        out += np.multiply(self._mask, rho, out=self._masked)
        g1 = self.rates.gamma1
        for shape in self._jump_shapes:
            o6 = out.reshape(shape)
            r6 = rho.reshape(shape)
            o6[:, 0, :, :, 0, :] += g1 * r6[:, 1, :, :, 1, :]
        if self._cavity_jump:
            o4 = out.reshape(self._shape4)
            r4 = rho.reshape(self._shape4)
            o4[:, :-1, :, :-1] += self._cavity_weights[None, :, None, :] * r4[:, 1:, :, 1:]


def _rhs(
    h: np.ndarray | None, rho: np.ndarray, diss: _Dissipator, out: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Write dρ/dt into ``out``, using ``work`` for the product Hρ; both C-ordered."""
    if h is None:
        out.fill(0.0)
    else:
        # Hρ - ρH = C - C† for Hermitian H, ρ: one matrix product, not two
        c = np.matmul(h, rho, out=work)
        np.conjugate(c.T, out=out)
        np.subtract(c, out, out=out)
        out *= -1j
    diss.add_to(out, rho)
    return out


def _normalize_provider(
    h_of_t: HamiltonianProvider | np.ndarray | None, dim: int
) -> HamiltonianProvider | None:
    if h_of_t is None:
        return None
    if isinstance(h_of_t, np.ndarray):
        h_const = np.asarray(h_of_t, dtype=complex)
        if h_const.shape != (dim, dim):
            raise ValueError(f"Hamiltonian shape {h_const.shape} does not match dim {dim}")
        return lambda t: h_const
    probe = np.asarray(h_of_t(0.0))
    if probe.shape != (dim, dim):
        raise ValueError(f"Hamiltonian provider returns shape {probe.shape}, expected ({dim}, {dim})")
    return h_of_t


def evolve_lindblad(
    h_of_t: HamiltonianProvider | np.ndarray | None,
    rates: DecoherenceRates,
    initial: QuantumState,
    target: np.ndarray | None,
    cfg: IntegratorConfig,
    observables: Mapping[str, np.ndarray] | None = None,
    positivity_check_stride: int = 10,
) -> EvolutionResult:
    """Integrate the master equation, recording fidelity and observables.

    Parameters
    ----------
    h_of_t:
        Time-dependent Hamiltonian provider (callable t → matrix), a constant
        matrix, or None for pure dissipation.
    rates:
        Lindblad rates; all-zero rates reduce the equation to the von Neumann
        equation.
    initial:
        Validated initial state on the joint space.
    target:
        Optional pure target on the **qubit** register (length 2^N); when
        given, F(t) = ⟨target|ρ_a(t)|target⟩ is recorded with ρ_a the reduced
        qubit matrix.
    cfg:
        Step plan; records are taken at t=0, every ``record_stride``-th step,
        and the final step.
    observables:
        Optional named Hermitian operators on the joint space; their real
        expectation values are recorded alongside the fidelity.
    positivity_check_stride:
        Every this-many records, the minimum eigenvalue of ρ is computed and
        stored in ``positivity_checks``.

    Raises
    ------
    IntegratorError
        On trace drift beyond 1e-6 or non-finite values (with step context).
    """
    space = initial.space
    dim = space.dim
    h = _normalize_provider(h_of_t, dim)
    if target is not None:
        target = np.asarray(target, dtype=complex).reshape(-1)
        if target.size != space.qubit_dim:
            raise ValueError(
                f"target must live on the qubit register (length {space.qubit_dim}), "
                f"got length {target.size}"
            )
    obs_items = [(name, np.asarray(op, dtype=complex)) for name, op in (observables or {}).items()]
    for name, op in obs_items:
        if op.shape != (dim, dim):
            raise ValueError(f"observable {name!r} has shape {op.shape}, expected ({dim}, {dim})")

    diss = _Dissipator(rates, space)
    n_steps = cfg.n_steps
    dt = cfg.dt_effective
    stride = cfg.record_stride

    # C order: the dissipator writes through reshaped views of each stage
    rho = np.array(initial.rho, dtype=complex, order="C")
    # RK4 stages, the stage state and the Hρ / ρ† scratch, reused every step
    k1, k2, k3, k4, stage, work = (np.empty_like(rho) for _ in range(6))
    times: list[float] = []
    fids: list[float] = []
    traces: list[float] = []
    purities: list[float] = []
    obs_records: dict[str, list[float]] = {name: [] for name, _ in obs_items}
    positivity: list[tuple[float, float]] = []
    herm_drift = 0.0

    def record(t: float) -> None:
        times.append(t)
        traces.append(float(np.trace(rho).real))
        purities.append(float(np.vdot(rho, rho).real))
        if target is not None:
            reduced = _reduced_qubit_rho(rho, space.n_qubits, space.cavity_dim)
            fids.append(float(np.real(np.vdot(target, reduced @ target))))
        else:
            fids.append(math.nan)
        for name, op in obs_items:
            obs_records[name].append(float(np.einsum("ij,ji->", rho, op).real))
        if (len(times) - 1) % positivity_check_stride == 0:
            positivity.append((t, float(np.linalg.eigvalsh(rho)[0])))

    record(0.0)
    half_dt = 0.5 * dt
    for step in range(1, n_steps + 1):
        t0 = (step - 1) * dt
        h0 = h(t0) if h else None
        hm = h(t0 + half_dt) if h else None
        h1 = h(t0 + dt) if h else None
        _rhs(h0, rho, diss, k1, work)
        np.add(rho, np.multiply(k1, half_dt, out=stage), out=stage)
        _rhs(hm, stage, diss, k2, work)
        np.add(rho, np.multiply(k2, half_dt, out=stage), out=stage)
        _rhs(hm, stage, diss, k3, work)
        np.add(rho, np.multiply(k3, dt, out=stage), out=stage)
        _rhs(h1, stage, diss, k4, work)
        # rho + (dt/6)·(k1 + 2·(k2 + k3) + k4), accumulated in k1
        np.add(k2, k3, out=k2)
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= dt / 6.0
        rho += k1
        rho_h = np.conjugate(rho.T, out=work)
        recording = step % stride == 0 or step == n_steps
        if recording:
            drift = np.abs(np.subtract(rho, rho_h, out=stage)).max()
            herm_drift = max(herm_drift, float(drift))
        # re-symmetrize every step: keeps roundoff asymmetry from compounding
        rho += rho_h
        rho *= 0.5
        tr = np.trace(rho)
        if not np.isfinite(tr.real) or not np.isfinite(tr.imag):
            raise IntegratorError(
                f"non-finite trace at step {step}/{n_steps} (t={step * dt:.6g})"
            )
        if abs(tr - 1.0) > 1e-6:
            raise IntegratorError(
                f"trace drifted to {tr.real:.9f} at step {step}/{n_steps} "
                f"(t={step * dt:.6g}); reduce dt or cavity load"
            )
        if recording:
            record(step * dt)

    return EvolutionResult(
        times=np.asarray(times),
        fidelities=np.asarray(fids),
        traces=np.asarray(traces),
        purities=np.asarray(purities),
        observables={name: np.asarray(vals) for name, vals in obs_records.items()} or None,
        final_rho=rho,
        positivity_checks=positivity,
        max_hermiticity_drift=herm_drift,
    )


def evolve_unitary(
    h_of_t: HamiltonianProvider | np.ndarray | None,
    initial: np.ndarray,
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate a pure state, returning (final state, accumulated propagator).

    Each step applies exp(-i H(t_mid) dt) with the Hamiltonian evaluated at
    the step midpoint, so the propagator is a product of exact exponentials
    and stays unitary to machine precision for Hermitian H.

    Raises
    ------
    IntegratorError
        If the state norm or the propagator's unitarity drifts beyond 1e-8.
    """
    psi = np.asarray(initial, dtype=complex).reshape(-1)
    dim = psi.size
    if abs(np.linalg.norm(psi) - 1.0) > 1e-8:
        raise ValueError("initial state must be normalized")
    h = _normalize_provider(h_of_t, dim)
    n_steps = cfg.n_steps
    dt = cfg.dt_effective
    u = np.eye(dim, dtype=complex)
    for step in range(n_steps):
        if h is not None:
            step_u = matexp(-1j * dt * h((step + 0.5) * dt))
            u = step_u @ u
            psi = step_u @ psi
        if not np.all(np.isfinite(psi)):
            raise IntegratorError(f"non-finite state at step {step + 1}/{n_steps}")
    norm_dev = abs(np.linalg.norm(psi) - 1.0)
    if norm_dev > 1e-8:
        raise IntegratorError(f"state norm drifted by {norm_dev:.3e} over {n_steps} steps")
    unit_dev = np.abs(u.conj().T @ u - np.eye(dim)).max()
    if unit_dev > 1e-8:
        raise IntegratorError(f"propagator unitarity drifted by {unit_dev:.3e}")
    return psi, u


def fidelity(rho_q: np.ndarray, target: np.ndarray) -> float:
    """Overlap ⟨target|ρ|target⟩ of a density matrix with a pure target state.

    Raises
    ------
    ValueError
        On dimension mismatch, or if the overlap has an imaginary part above
        1e-10 (symptom of a non-Hermitian input).
    """
    rho_q = np.asarray(rho_q, dtype=complex)
    target = np.asarray(target, dtype=complex).reshape(-1)
    if rho_q.shape != (target.size, target.size):
        raise ValueError(f"rho dimension {rho_q.shape} does not match target length {target.size}")
    val = complex(np.vdot(target, rho_q @ target))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"fidelity has imaginary part {val.imag:.3e}; rho is not Hermitian")
    return float(val.real)


def max_fidelity(result: EvolutionResult) -> tuple[float, float]:
    """Recorded (time, value) of the maximum fidelity; ties break toward earliest time.

    Raises
    ------
    ValueError
        If the result holds no records.
    """
    if result.times.size == 0:
        raise ValueError("empty evolution result")
    idx = int(np.argmax(result.fidelities))
    return float(result.times[idx]), float(result.fidelities[idx])


def propagator_gate_distance(
    propagator: np.ndarray,
    gate: np.ndarray,
    space: HilbertSpace,
    n_fock_keep: int | None = None,
) -> float:
    """Phase-aligned max-entry distance between a joint propagator and gate ⊗ I_cavity.

    The comparison is restricted to the sub-block of Fock levels
    ``0..n_fock_keep-1``: columns starting near the truncation edge cannot
    execute the intermediate cavity displacement and carry truncation error
    unrelated to the gate.  ``n_fock_keep`` should leave the displacement
    loop headroom (a few levels above the largest loop excursion).  The
    global phase is fixed by trace alignment before taking the distance.
    """
    nq, d = space.qubit_dim, space.cavity_dim
    if propagator.shape != (space.dim, space.dim):
        raise ValueError(f"propagator shape {propagator.shape} does not match space dim {space.dim}")
    if gate.shape != (nq, nq):
        raise ValueError(f"gate shape {gate.shape} does not match qubit dim {nq}")
    keep = d if n_fock_keep is None else n_fock_keep
    if not 1 <= keep <= d:
        raise ValueError(f"n_fock_keep must be in 1..{d}, got {keep}")
    sub_idx = (np.arange(nq * d).reshape(nq, d)[:, :keep]).ravel()
    block = propagator[np.ix_(sub_idx, sub_idx)]
    ref = np.kron(gate, np.eye(keep, dtype=complex))
    overlap = complex(np.einsum("ij,ij->", ref.conj(), block))
    if abs(overlap) > 0:
        block = block * (overlap.conjugate() / abs(overlap))
    return float(np.abs(block - ref).max())
