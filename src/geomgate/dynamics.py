"""Closed- and open-system propagation with fidelity and observable records.

The master equation integrated here is

    dρ/dt = i[ρ, H(t)] + (κ/2)L(a) + Σ_j [(γ₁/2)L(σ_j⁻) + (γ₂/2)L(σ_j^z)],

with L(A)ρ = 2AρA† - A†Aρ - ρA†A.  The sign convention i[ρ, H] equals the
standard -i[H, ρ].  Propagation is fixed-step classical 4th-order (RK4) on
the full density matrix, and every RK4 stage writes into buffers allocated
once per run.  Both evolvers take the drive H(t) = P(t)⊗a + P(t)†⊗a† as a
provider t ↦ P(t), the 2^N×2^N register matrix.  The right-hand side is one
generator, built once per run: (P, ρ) ↦ E + E† + D(ρ), where E = −i·H(t)·ρ is
two cavity shifts of ρ and one register product, no dense H(t), and D is N+2
shifted diagonals of vec(ρ), summed chunk by chunk in the order of a CSR row
product.

Closed-system propagation takes the midpoint rule, steps exp(−i·dt·H(t_mid)),
but forms only the first step: every provider carries the rotating frame
(δ, G) under which H(t+s) = V(s)·H(t)·V(s)†, with V(s) = e^{−isG} ⊗ e^{−iδs·n̂},
so the product of all N steps is V(N·dt)·(V(dt)†·U_1)^N, taken by repeated
squaring.  U_1 and R(dt) = e^{−i·dt·G} come from :func:`~geomgate.core.matexp`,
the package's one exponential: a truncated Taylor series sized from dt·‖H‖₁
on the dense H(dt/2), with no eigendecomposition.
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
    "max_fidelity",
]

# t ↦ P(t), the register matrix of the drive H(t) = P(t)⊗a + P(t)†⊗a† (see model)
HamiltonianProvider = Callable[[float], np.ndarray]


def _step_count(t_end: float, dt: float) -> int:
    """Fewest steps no longer than ``dt`` that cover [0, t_end]."""
    # small slack so exact divisions do not gain a step to roundoff
    return max(1, math.ceil(t_end / dt - 1e-9))


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
            # NaN passes `< 0` and is not `> 0`, so it would silently switch a channel off
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

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
    Non-finite values are rejected at construction.
    """

    dt: float
    t_end: float
    record_stride: int = 1
    max_frequency: float | None = None

    def __post_init__(self) -> None:
        for name in ("dt", "t_end", "max_frequency"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
        return _step_count(self.t_end, self.dt)

    @property
    def dt_effective(self) -> float:
        return self.t_end / self.n_steps


@dataclass
class EvolutionResult:
    """Per-record time series from one propagation run.

    ``times``, ``fidelities``, ``traces`` and ``purities`` share one length;
    ``observables`` adds named series of the same length.  ``fidelities`` is
    NaN-filled when the run had no target state.  ``positivity_checks``
    holds (time, min eigenvalue) spot checks of ρ.
    """

    times: np.ndarray = field(repr=False)
    fidelities: np.ndarray = field(repr=False)
    traces: np.ndarray = field(repr=False)
    purities: np.ndarray = field(repr=False)
    observables: dict[str, np.ndarray] | None = None
    final_rho: np.ndarray | None = field(default=None, repr=False)
    positivity_checks: list[tuple[float, float]] = field(default_factory=list)

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


class _Lindbladian:
    """ρ ↦ dρ/dt = E + E† + D(ρ) for the drive H = P⊗a + P†⊗a† and fixed rates.

    E = −i·H·ρ is formed without H: a and a† act on C-ordered ρ as two
    √n-weighted row shifts, stacked into T = [aρ; a†ρ] of shape
    (2^(N+1), d·dim), and E = A·T with the 2^N × 2^(N+1) matrix A = −i·[P, P†].

    D is N+2 shifted diagonals of vec(ρ).  With the layout i = q·d + n and
    vec(ρ)[i·dim + k] = ρ[i, k] (C order), the decay anticommutators and the
    full dephasing channel give the main diagonal; the jump σ_j⁻ρσ_j⁺ of qubit
    j adds γ₁·ρ[i + b, k + b] to ρ[i, k] where qubit j is |0⟩ on both sides,
    with b = 2^(N-j)·d; the cavity jump adds κ√((n+1)(n'+1))·ρ[i + 1, k + 1]
    below the truncation edge.  Each channel keeps one complex weight array,
    cut to the entries its offset reaches, summed per chunk in ascending
    offset: a CSR row product's order.

    T, the E scratch and the chunk table are built once: one object per run.
    """

    # entries per chunk: the fastest of 2¹¹–2¹⁵ per dissipator pass at N = 2–5
    _CHUNK = 16384

    def __init__(self, space: HilbertSpace, rates: DecoherenceRates) -> None:
        q, d, dim = space.qubit_dim, space.cavity_dim, space.dim
        # √n of row i = q·d + n at every flat index i·dim + k of ρ past row 0.  aρ is ρ moved
        # up one row and a†ρ is ρ moved down one row, both weighted by this slice, which is 0
        # where a move would cross into the next register block (everywhere at d = 1).
        # Complex: no cast per product.
        self._sqrt_n = np.repeat(np.sqrt(np.arange(dim) % d + 0j), dim)[dim:]
        # T flattened; the row each shift leaves empty stays zero
        self._shifts = np.zeros((2, dim * dim), dtype=complex)
        self._stacked = self._shifts.reshape(2 * q, d * dim)
        self._e = np.empty((dim, dim), dtype=complex)
        self._e_rows = self._e.reshape(q, d * dim)
        # (vec(ρ) start, main-diagonal weights, sum view, jumps) per chunk; none without rates
        self._chunks: list[tuple] = []
        if not rates.any_active:
            return
        nq = space.n_qubits
        idx = np.arange(dim)
        fock = idx % d
        # anticommutator diagonal: (κ/2)a†a + (γ₁/2)Σ_j |1⟩⟨1|_j
        mdiag = 0.5 * rates.kappa * fock.astype(float)
        main = np.zeros((dim, dim))
        # (offset in vec(ρ), (dim, dim) rate of the channel, 0 where it does not act)
        channels: list[tuple[int, np.ndarray]] = []
        for j in range(1, nq + 1):
            bit = (idx // d >> (nq - j)) & 1
            mdiag = mdiag + 0.5 * rates.gamma1 * bit
            if rates.gamma2 > 0:
                sz = 1.0 - 2.0 * bit
                main += rates.gamma2 * (np.outer(sz, sz) - 1.0)
            if rates.gamma1 > 0:
                free = 1.0 - bit
                shift = 2 ** (nq - j) * d * (dim + 1)
                channels.append((shift, rates.gamma1 * np.outer(free, free)))
        if rates.kappa > 0 and d >= 2:
            w = np.where(fock < d - 1, np.sqrt(fock + 1.0), 0.0)
            channels.append((dim + 1, rates.kappa * np.outer(w, w)))
        main -= mdiag[:, None] + mdiag[None, :]
        channels.append((0, main))
        channels.sort(key=lambda c: c[0])
        size = dim * dim
        acc = np.empty(min(self._CHUNK, size), dtype=complex)
        term = np.empty_like(acc)
        # complex, like vec(ρ): real weights would be cast on every product
        weights = [(off, rate.reshape(-1)[: size - off].astype(complex)) for off, rate in channels]
        # each jump that reaches a chunk: its vec(ρ) start, weights and scratch views
        for start in range(0, size, self._CHUNK):
            (_, diag), *jumps = [
                (off, w[start : start + self._CHUNK]) for off, w in weights if w.size > start
            ]
            jumps = [(start + off, w, term[: w.size], acc[: w.size]) for off, w in jumps]
            self._chunks.append((start, diag, acc[: diag.size], jumps))

    def __call__(self, p: np.ndarray, rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write dρ/dt for the register matrix P into ``out``; ``rho`` and ``out`` C-ordered."""
        dim = self._e.shape[0]
        a_t = -1j * np.concatenate((p, p.conj().T), axis=1)
        x = rho.reshape(-1)
        np.multiply(self._sqrt_n, x[dim:], out=self._shifts[0, :-dim])
        np.multiply(self._sqrt_n, x[:-dim], out=self._shifts[1, dim:])
        np.matmul(a_t, self._stacked, out=self._e_rows)
        # -i[H, ρ] = E + E† for Hermitian H, ρ: one product, not two, and no -i pass
        np.conjugate(self._e.T, out=out)
        out += self._e
        y = out.reshape(-1)
        for start, diag, acc, jumps in self._chunks:
            np.multiply(diag, x[start : start + diag.size], out=acc)
            for lo, w, term, head in jumps:
                np.multiply(w, x[lo : lo + w.size], out=term)
                np.add(head, term, out=head)
            y[start : start + diag.size] += acc
        return out


def _gram_drift(x: np.ndarray) -> float:
    """max|X†X − I| over the columns of a state (dim,) or a block (dim, k)."""
    cols = x.reshape(x.shape[0], -1)
    return float(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max())


def evolve_lindblad(
    h_of_t: HamiltonianProvider,
    rates: DecoherenceRates,
    initial: QuantumState,
    target: np.ndarray | None,
    cfg: IntegratorConfig,
    observables: Mapping[str, np.ndarray] | None = None,
) -> EvolutionResult:
    """Integrate the master equation, recording fidelity and observables.

    Parameters
    ----------
    h_of_t:
        Drive provider, a callable t → P(t) returning the 2^N×2^N register
        matrix of H(t) = P(t)⊗a + P(t)†⊗a† (the providers of
        :mod:`geomgate.model`).  It is called once at t=0 to check the shape,
        then once per right-hand side, four times per step.
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

    Every 10th record also stores the minimum eigenvalue of ρ in
    ``positivity_checks``; the full ``eigvalsh`` costs more than the rest of a
    record, so it is not taken on every one.

    ρ stays exactly Hermitian, bit for bit, with no re-symmetrisation per
    step.  The initial ρ is replaced by (ρ + ρ†)/2 once, which is exactly
    Hermitian.  From then on every operation maps such a ρ to another one:
    a right-hand side forms E + E† as conj(Eᵀ) + E, whose (i, k) and (k, i)
    entries are conjugate sums of the same two numbers; the dissipator's
    weights are symmetric, w[i, k] = w[k, i], and are summed in the same order
    at (i, k) and (k, i); and RK4 combines the stages with real scalars only.
    A change to any of these must restore the per-step symmetrisation.

    Raises
    ------
    ValueError
        If P(t) is not 2^N×2^N, or the target or an observable has the wrong shape.
    IntegratorError
        On trace drift beyond 1e-6 or non-finite values (with step context).
    """
    space = initial.space
    dim = space.dim
    q = space.qubit_dim
    shape = np.shape(h_of_t(0.0))
    if shape != (q, q):
        raise ValueError(f"Hamiltonian provider returns shape {shape}, expected ({q}, {q})")
    if target is not None:
        target = np.asarray(target, dtype=complex).reshape(-1)
        if target.size != q:
            raise ValueError(
                f"target must live on the qubit register (length {q}), "
                f"got length {target.size}"
            )
    obs_items = [(name, np.asarray(op, dtype=complex)) for name, op in (observables or {}).items()]
    for name, op in obs_items:
        if op.shape != (dim, dim):
            raise ValueError(f"observable {name!r} has shape {op.shape}, expected ({dim}, {dim})")

    rhs = _Lindbladian(space, rates)
    n_steps = cfg.n_steps
    dt = cfg.dt_effective
    stride = cfg.record_stride

    # C order: the right-hand side reads each stage through reshaped views
    rho = np.array(initial.rho, dtype=complex, order="C")
    # RK4 stages and the stage state, reused every step
    k1, k2, k3, k4, stage = (np.empty_like(rho) for _ in range(5))
    # ρ = (ρ + ρ†)/2 once: |ψ⟩⟨ψ| of a complex ψ is Hermitian only to roundoff,
    # and the steps below keep whatever asymmetry the start has
    rho += np.conjugate(rho.T, out=stage)
    rho *= 0.5
    times: list[float] = []
    fids: list[float] = []
    traces: list[float] = []
    purities: list[float] = []
    obs_records: dict[str, list[float]] = {name: [] for name, _ in obs_items}
    positivity: list[tuple[float, float]] = []

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
        if (len(times) - 1) % 10 == 0:
            positivity.append((t, float(np.linalg.eigvalsh(rho)[0])))

    record(0.0)
    half_dt = 0.5 * dt
    for step in range(1, n_steps + 1):
        t0 = (step - 1) * dt
        rhs(h_of_t(t0), rho, k1)
        np.add(rho, np.multiply(k1, half_dt, out=stage), out=stage)
        rhs(h_of_t(t0 + half_dt), stage, k2)
        np.add(rho, np.multiply(k2, half_dt, out=stage), out=stage)
        rhs(h_of_t(t0 + half_dt), stage, k3)
        np.add(rho, np.multiply(k3, dt, out=stage), out=stage)
        rhs(h_of_t(t0 + dt), stage, k4)
        # rho + (dt/6)·(k1 + 2·(k2 + k3) + k4), accumulated in k1
        np.add(k2, k3, out=k2)
        k2 *= 2.0
        k1 += k2
        k1 += k4
        k1 *= dt / 6.0
        rho += k1
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
        if step % stride == 0 or step == n_steps:
            record(step * dt)

    return EvolutionResult(
        times=np.asarray(times),
        fidelities=np.asarray(fids),
        traces=np.asarray(traces),
        purities=np.asarray(purities),
        observables={name: np.asarray(vals) for name, vals in obs_records.items()} or None,
        final_rho=rho,
        positivity_checks=positivity,
    )


def _frame_apply(r: np.ndarray, phases: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(R ⊗ diag(phases))·x for a state (dim,) or a block (dim, k), with dim = q·d.

    R (q×q) acts on the register and ``phases`` (d,) on the Fock levels.
    """
    q, d = r.shape[0], phases.size
    y = x.reshape(q, d, -1) * phases[:, None]
    return (r @ y.reshape(q, -1)).reshape(x.shape)


def _ladder(h: np.ndarray, q: int, d: int, adjoint: bool = False) -> np.ndarray:
    """Writable view L[i, n, k] = h[i·d + n, k·d + n + 1] of a (q·d)×(q·d) array.

    These are the entries where P⊗a can be nonzero, for the layout i·d + n of
    register state i and Fock level n; with ``adjoint``, L[i, n, k] is
    h[k·d + n + 1, i·d + n], where P†⊗a† can be.  The view is built on ``h``'s
    buffer: ``as_strided`` would give the same view, but thousands of its calls
    leave about 1 MB held by numpy 2.4 (traced with ``tracemalloc``), which
    raised the peak RSS of repeated unitary runs.
    """
    row, col = h.strides[::-1] if adjoint else h.strides
    return np.ndarray(
        (q, d - 1, q), h.dtype, buffer=h, offset=col, strides=(d * row, row + col, d * col)
    )


def evolve_unitary(
    h_of_t: HamiltonianProvider,
    initial: np.ndarray,
    cfg: IntegratorConfig,
) -> np.ndarray:
    """Propagate a state (dim,) or a block of orthonormal columns (dim, k).

    ``h_of_t`` returns the register matrix P(t) of H(t) = P(t)⊗a + P(t)†⊗a†,
    and the cavity has d = dim/size(P) levels.  The run is the midpoint rule:
    the product U_N⋯U_1 of the steps U_n = exp(−i·dt·H((n−½)dt)).  The result
    has the shape of ``initial``; passing ``np.eye(dim)`` returns the
    propagator U(t_end).

    The product is not formed step by step.  The provider must carry
    ``frame`` = (δ, G), the drive's rotating-frame symmetry (see
    :func:`geomgate.model._drive_provider`): with R(s) = e^{−isG} on the
    register, P(t+s) = e^{iδs}·R(s)·P(t)·R(s)†, so H(t+s) = V(s)·H(t)·V(s)†
    with V(s) = R(s) ⊗ e^{−iδs·n̂}.  Then U_n = V((n−1)dt)·U_1·V((n−1)dt)†,
    and since V is a one-parameter group the product telescopes:

        U_N⋯U_1 = V(N·dt)·W^N,   W = V(dt)†·U_1.

    This is the same discretisation with the same dt, evaluated in another
    order, so it agrees with the stepped product to roundoff, which grows
    like N·ε in both.  U_1 is formed once by :func:`~geomgate.core.matexp`, a
    Taylor series truncated where its remainder bound falls below 2⁻⁵³;
    R(dt) is formed the same way on the register, and W^N and R(dt)^N by
    repeated squaring.  The cost is one dim×dim Taylor series and about
    2·log₂N dim×dim products, whatever the array, and no eigendecomposition
    is taken.  The dense H(dt/2) that U_1 exponentiates is written entry by
    entry into one zeroed dim×dim array: P(dt/2)·√(n+1) where a is nonzero and
    its conjugate where a† is (:func:`_ladder`), with no Kronecker product.

    The provider is called three times: at t=0 for the shape, at the first
    midpoint for U_1 and at the last midpoint, where P must match the frame's
    prediction e^{iδ(N−1)dt}·R(dt)^{N−1}·P(dt/2)·R(dt)^{N−1}†, the P that the
    last factor of the product stands for, to within
    (1e-9 + 16·N·ε)·max(1, max|P|).  The N·ε term covers the roundoff that
    R(dt)^{N−1} accumulates (at most 3.2·N·ε measured with up to 6 qubits and
    N = 4·10⁶ steps); a wrong frame departs by far more.

    Raises
    ------
    ValueError
        If the columns of ``initial`` are not orthonormal (a state not
        normalized) to 1e-8, P(t) is not square with a size dividing dim, or
        the provider carries no finite ``frame`` with a Hermitian G, or
        departs from it at the last midpoint.
    IntegratorError
        On a non-finite P(t) at the first or last midpoint, a non-finite
        result, or if max|X†X − I| drifts beyond 1e-8.
    """
    x = np.asarray(initial, dtype=complex)
    if x.ndim not in (1, 2) or _gram_drift(x) > 1e-8:
        raise ValueError("initial state must be normalized, a block must have orthonormal columns")
    dim = x.shape[0]
    shape = np.shape(h_of_t(0.0))
    if len(shape) != 2 or shape[0] != shape[1] or dim % shape[0]:
        raise ValueError(f"provider returns shape {shape}, not (q, q) with q dividing {dim}")
    q, d = shape[0], dim // shape[0]
    frame = getattr(h_of_t, "frame", None)
    if frame is None:
        raise ValueError("provider carries no rotating frame `frame` = (delta, G)")
    delta, g = float(frame[0]), np.asarray(frame[1], dtype=complex)
    if g.shape != (q, q) or not (math.isfinite(delta) and np.all(np.isfinite(g))):
        raise ValueError(f"frame must be a finite (delta, G) with G of shape ({q}, {q})")
    n_steps = cfg.n_steps
    dt = cfg.dt_effective
    p_first = h_of_t(0.5 * dt)
    if not np.all(np.isfinite(p_first)):
        raise IntegratorError(f"non-finite Hamiltonian at the first midpoint t={0.5 * dt:.6g}")
    r = matexp(-1j * dt * g)

    t_last = (n_steps - 0.5) * dt
    p_last = h_of_t(t_last)
    if not np.all(np.isfinite(p_last)):
        raise IntegratorError(f"non-finite Hamiltonian at the last midpoint t={t_last:.6g}")
    r_last = np.linalg.matrix_power(r, n_steps - 1)
    predicted = np.exp(1j * delta * (n_steps - 1) * dt) * (r_last @ p_first @ r_last.conj().T)
    departure = float(np.abs(p_last - predicted).max())
    bound = (1e-9 + 16 * n_steps * np.finfo(float).eps) * max(1.0, float(np.abs(p_last).max()))
    if not departure <= bound:
        raise ValueError(
            f"P(t) departs from the provider's frame by {departure:.3e} at the last "
            f"midpoint t={t_last:.6g}"
        )

    # V(dt)† on the Fock levels: e^{iδ·dt·n}
    back = np.exp(1j * delta * dt * np.arange(d))
    # H(dt/2) = P⊗a + P†⊗a†, written only where a and a† are nonzero (nowhere at d = 1)
    sqrt_n = np.sqrt(np.arange(1.0, d))[:, None]
    h = np.zeros((dim, dim), dtype=complex)
    np.multiply(p_first[:, None, :], sqrt_n, out=_ladder(h, q, d))
    np.multiply(p_first.conj()[:, None, :], sqrt_n, out=_ladder(h, q, d, adjoint=True))
    # W = V(dt)†·U_1, with −i·dt·H formed in place and U_1 not kept: each is dim², and
    # at the dimension cap the room matters to the squarings
    h *= -1j * dt
    w = _frame_apply(r.conj().T, back, matexp(h))
    del h
    x = _frame_apply(r_last @ r, back.conj() ** n_steps, np.linalg.matrix_power(w, n_steps) @ x)
    if not np.all(np.isfinite(x)):
        raise IntegratorError(f"non-finite state after {n_steps} steps")
    drift = _gram_drift(x)
    if drift > 1e-8:
        raise IntegratorError(f"max|X†X - I| drifted to {drift:.3e} over {n_steps} steps")
    return x


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
