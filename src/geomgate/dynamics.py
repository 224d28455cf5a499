"""Closed- and open-system propagation with fidelity and observable records.

The master equation integrated here is

    dρ/dt = i[ρ, H(t)] + (κ/2)L(a) + Σ_j [(γ₁/2)L(σ_j⁻) + (γ₂/2)L(σ_j^z)],

with L(A)ρ = 2AρA† - A†Aρ - ρA†A.  The sign convention i[ρ, H] equals the
standard -i[H, ρ].  Both evolvers take the drive H(t) = P(t)⊗a + P(t)†⊗a† as a
provider t ↦ P(t), the 2^N×2^N register matrix, and both read it through the
rotating frame (δ, G) that every provider carries, under which
H(t+s) = V(s)·H(t)·V(s)†, with V(s) = e^{−isG} ⊗ e^{−iδs·n̂}; each checks the
frame against late calls of the provider.

The master equation takes G = 0, so P(t) = e^{iδt}·P(0), and a fixed step
plan on the full density matrix.  With rates, or above dim 192, each step
is classical 4th-order RK4 in three arrays allocated once per run.  Its
right-hand side is one generator, built once per run and bound once to each
of its two (input, output) buffer pairs: ρ ↦ E + E† + D(ρ), where
E = −i·H(t)·ρ is two cavity shifts of ρ and one product with the register
block −i·[P(t), P(t)†], written from P(0) once per stage time, no dense
H(t), and D is N+2 shifted diagonals of vec(ρ), added to the result chunk
by chunk.  Without rates, up to dim 192, each step is exact: ρ ← U_n·ρ·U_n†,
with U_1 = V(dt)·e^{−i·dt·(H(0) − δ·n̂)} from one exponential and
U_{n+1} = V(dt)·U_n·V(dt)†; above that size its two dense products per step
can cost more than RK4.

State propagation takes the midpoint rule, steps exp(−i·dt·H(t_mid)),
but forms only the first step: under the frame the product of all N steps is
V(N·dt)·(V(dt)†·U_1)^N, taken by repeated squaring.  Every exponential comes
from :func:`~geomgate.core.matexp`, the package's one: a truncated Taylor
series sized from its argument's norm, with no eigendecomposition, applied to
a dense H written by one helper.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
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


# Largest dim the exact closed-system step takes.  Its two dense dim×dim products per step
# cost about dim³, RK4's four right-hand sides about 4·q·dim² plus numpy overhead.  Zero-rate
# runs from the vacuum on 2 vCPUs (OpenBLAS 0.3.31), exact/RK4 time: 0.6–0.9 up to dim 192;
# at 256, 0.7–0.8 for d ≤ 32 but 1.05–1.7 for d ≥ 64, where subnormal Fock tails of ρ slow
# the dense products; 2.7 for trajectory at d = 192 (dim 384); 1.3–1.9 per step at 768–2048.
_EXACT_MAX_DIM = 192


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
        # NaN fails `<=`, so a non-finite trace is refused too
        if n and not np.abs(self.traces - 1.0).max() <= 1e-6:
            raise ValueError("recorded traces are not finite or deviate from 1 by more than 1e-6")

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelities[-1])


class _Lindbladian:
    """ρ ↦ dρ/dt = E + E† + D(ρ) for the drive H = P⊗a + P†⊗a† and fixed rates.

    E = −i·H·ρ is formed without H: a and a† act on C-ordered ρ as two
    √n-weighted row shifts, stacked into T = [aρ; a†ρ] of shape
    (2^(N+1), d·dim), and E = A·T with the 2^N × 2^(N+1) drive block
    A = −i·[P, P†].  The drive is P(t) = e^{iδt}·S (:meth:`drive`), so
    :meth:`at` writes A for a stage time t as e^{iδt}·(−i·S) and
    e^{−iδt}·(−i·S†), two scalar multiplies; without a drive, A = 0.

    D is N+2 shifted diagonals of vec(ρ).  With the layout i = q·d + n and
    vec(ρ)[i·dim + k] = ρ[i, k] (C order), the decay anticommutators and the
    full dephasing channel give the main diagonal; the jump σ_j⁻ρσ_j⁺ of qubit
    j adds γ₁·ρ[i + b, k + b] to ρ[i, k] where qubit j is |0⟩ on both sides,
    with b = 2^(N-j)·d; the cavity jump adds κ√((n+1)(n'+1))·ρ[i + 1, k + 1]
    below the truncation edge.  Each channel keeps one complex weight array,
    cut to the entries its offset reaches.  Per chunk, every channel whose
    weights there are not all zero adds its product to ``out`` through one
    ``term`` scratch, in ascending offset; the weights are symmetric,
    w[i, k] = w[k, i], so (i, k) and (k, i) get equal sums.

    T, the E scratch, A and the chunk table are built once: one object per
    run.  :meth:`bind` builds every view one (input, output) pair needs, once.
    """

    # entries per chunk: as fast per dissipator pass as 2¹⁴ at N = 4, d = 8 and 24
    _CHUNK = 8192

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
        self._a = np.zeros((q, 2 * q), dtype=complex)
        self._a_p, self._a_p_adj = self._a[:, :q], self._a[:, q:]
        self.drive(np.zeros((q, q), dtype=complex), 0.0)
        # per chunk: (vec(ρ) start, [(input start, weights, term view)]); empty without rates
        self._chunks: list[tuple[int, list[tuple[int, np.ndarray, np.ndarray]]]] = []
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
        term = np.empty(min(self._CHUNK, size), dtype=complex)
        # complex, like vec(ρ): real weights would be cast on every product
        weights = [(off, rate.reshape(-1)[: size - off].astype(complex)) for off, rate in channels]
        for start in range(0, size, self._CHUNK):
            # a slice that its channel does not reach, or whose weights are all zero, adds nothing
            entries = [(start + off, w[start : start + self._CHUNK]) for off, w in weights]
            self._chunks.append((start, [(lo, w, term[: w.size]) for lo, w in entries if w.any()]))

    def drive(self, s: np.ndarray, delta: float) -> None:
        """Take the drive P(t) = e^{iδt}·S, with S the q×q register matrix P(0)."""
        self._iw = 1j * delta
        self._ms = -1j * s
        self._ms_adj = -1j * s.conj().T

    def at(self, t: float) -> None:
        """Write the drive block A = −i·[P(t), P(t)†] for the stage time ``t``.

        The phase is cmath.exp(iδ·t), as :func:`geomgate.model._drive_provider`
        forms it, and e^{iδt}·(−i·S) rounds like −i·(e^{iδt}·S), since −i only
        swaps and negates parts: for an H₂ provider, A equals the block formed
        from its P(t) value for value (the sign of a zero may differ).
        """
        phase = cmath.exp(self._iw * t)
        np.multiply(phase, self._ms, out=self._a_p)
        np.multiply(phase.conjugate(), self._ms_adj, out=self._a_p_adj)

    def bind(self, rho: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
        """The right-hand side from ``rho`` into ``out``, two C-ordered dim×dim buffers.

        Every view it reads is built here, once: the returned function takes
        no argument, reads ``rho`` as it is at the call under the block of the
        latest :meth:`at`, writes dρ/dt into ``out`` and returns ``out``.
        """
        if not (rho.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("the right-hand side binds C-ordered buffers only")
        dim = self._e.shape[0]
        sqrt_n, a, stacked, e, e_rows, e_t = (
            self._sqrt_n, self._a, self._stacked, self._e, self._e_rows, self._e.T
        )
        x, y = rho.reshape(-1), out.reshape(-1)
        # aρ into T's first half, a†ρ into its second (see __init__)
        up_out, up_in = self._shifts[0, :-dim], x[dim:]
        down_out, down_in = self._shifts[1, dim:], x[:-dim]
        # (out slice, weights, in slice, term) per channel slice, in the chunk table's order
        terms = [
            (y[start : start + w.size], w, x[lo : lo + w.size], term)
            for start, entries in self._chunks
            for lo, w, term in entries
        ]

        def rhs() -> np.ndarray:
            np.multiply(sqrt_n, up_in, out=up_out)
            np.multiply(sqrt_n, down_in, out=down_out)
            np.matmul(a, stacked, out=e_rows)
            # -i[H, ρ] = E + E† for Hermitian H, ρ: one product, not two, and no -i pass
            np.conjugate(e_t, out=out)
            np.add(out, e, out=out)
            for ys, w, xs, term in terms:
                ys += np.multiply(w, xs, out=term)
            return out

        return rhs


def _gram_drift(x: np.ndarray) -> float:
    """max|X†X − I| over the columns of a state (dim,) or a block (dim, k)."""
    cols = x.reshape(x.shape[0], -1)
    return float(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max())


def _frame(h_of_t: HamiltonianProvider, q: int) -> tuple[float, np.ndarray]:
    """The provider's rotating frame (δ, G), refused unless finite with G of shape (q, q)."""
    frame = getattr(h_of_t, "frame", None)
    if frame is None:
        raise ValueError("provider carries no rotating frame `frame` = (delta, G)")
    delta, g = float(frame[0]), np.asarray(frame[1], dtype=complex)
    if g.shape != (q, q) or not (math.isfinite(delta) and np.all(np.isfinite(g))):
        raise ValueError(f"frame must be a finite (delta, G) with G of shape ({q}, {q})")
    return delta, g


def _finite_drive(h_of_t: HamiltonianProvider, t: float, where: str) -> np.ndarray:
    """P(t), refused with an :class:`IntegratorError` if any entry is not finite."""
    p = h_of_t(t)
    if not np.all(np.isfinite(p)):
        raise IntegratorError(f"non-finite Hamiltonian at {where} t={t:.6g}")
    return p


def _check_frame(p: np.ndarray, predicted: np.ndarray, n_steps: int, where: str) -> None:
    """Refuse a P off its predicted value by more than (1e-9 + 16·N·ε)·max(1, max|P|)."""
    departure = float(np.abs(p - predicted).max())
    bound = (1e-9 + 16 * n_steps * np.finfo(float).eps) * max(1.0, float(np.abs(p).max()))
    if not departure <= bound:
        raise ValueError(f"P(t) departs from the provider's frame by {departure:.3e} at {where}")


def _hermitian_copy(rho0: np.ndarray) -> np.ndarray:
    """(ρ₀ + ρ₀†)/2 as a new C-ordered array: |ψ⟩⟨ψ| of a complex ψ is Hermitian
    only to roundoff, RK4 keeps whatever asymmetry the start has, and the steps read
    ρ through reshaped views."""
    rho = np.array(rho0, dtype=complex, order="C")
    rho += rho.conj().T
    rho *= 0.5
    return rho


def _rk4_stepper(
    lindbladian: _Lindbladian, s: np.ndarray, delta: float, dt: float, rho0: np.ndarray
) -> tuple[np.ndarray, Callable[[float], None]]:
    """The state ρ and the RK4 step from t0 that updates it in place (see :func:`evolve_lindblad`).

    ``lindbladian`` is built before the state: its weight tables pass
    through temporaries of several dim².
    """
    lindbladian.drive(s, delta)
    rho = _hermitian_copy(rho0)
    # RK4 scratch, reused every step: the weighted stage sum, the latest stage and the stage state
    acc, k, stage = (np.empty_like(rho) for _ in range(3))
    at = lindbladian.at
    rhs_rho = lindbladian.bind(rho, acc)
    rhs_stage = lindbladian.bind(stage, k)
    half_dt = 0.5 * dt

    def advance(t0: float) -> None:
        nonlocal acc, k, rho  # updated in place, never rebound to another array
        # ρ + (dt/6)·(k1 + 2·k2 + 2·k3 + k4), summed in acc
        at(t0)
        rhs_rho()
        np.add(rho, np.multiply(acc, half_dt, out=stage), out=stage)
        at(t0 + half_dt)
        for h in (half_dt, dt):
            rhs_stage()
            np.add(rho, np.multiply(k, h, out=stage), out=stage)
            k *= 2.0
            acc += k
        at(t0 + dt)
        rhs_stage()
        acc += k
        acc *= dt / 6.0
        rho += acc

    return rho, advance


def _exact_stepper(
    s: np.ndarray, delta: float, d: int, dt: float, rho0: np.ndarray
) -> tuple[np.ndarray, Callable[[float], None]]:
    """The state ρ and the exact step ρ ← U_n·ρ·U_n† of a closed system, whatever t0.

    In the frame V(t) = e^{−iδt·n̂} the generator is the constant H̃ = H(0) − δ·n̂,
    so U_n = V(n·dt)·e^{−i·dt·H̃}·V((n−1)·dt)†; U_1 is formed before the state.
    """
    dim = s.shape[0] * d
    fock = np.arange(dim) % d
    h = _dense_drive(s, d)
    h.reshape(-1)[:: dim + 1] -= delta * fock
    h *= -1j * dt
    u = matexp(h)
    del h
    u *= np.exp(-1j * delta * dt * fock)[:, None]  # V(dt)·e^{−i·dt·H̃}
    # Φ∘U_n = V(dt)·U_n·V(dt)†, one exp per entry: the outer product of V(dt)'s phases is off
    # unit modulus by up to 2ε, which the steps compound (trajectory: 3.8e-12, not 1.9e-14)
    phi = np.exp(-1j * delta * dt * (fock[:, None] - fock[None, :]))
    rho = _hermitian_copy(rho0)
    x, y = np.empty_like(rho), np.empty_like(rho)

    def advance(t0: float) -> None:
        nonlocal rho, u  # updated in place, never rebound to another array
        np.matmul(u, rho, out=x)
        # U·(U·ρ)† = U·ρ·U†, since ρ is Hermitian
        np.matmul(u, np.conjugate(x.T, out=y), out=rho)
        rho += np.conjugate(rho.T, out=x)
        rho *= 0.5
        u *= phi

    return rho, advance


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
        :mod:`geomgate.model`).  Like :func:`evolve_unitary`, it reads the
        provider's rotating frame ``frame`` = (δ, G), and it takes only
        G = 0, the H₂ drive P(t) = e^{iδt}·S.  The provider is called three
        times: at t=0, where S = P(0) fixes the shape and the drive of every
        step, and at t_end and t_end/φ (φ the golden ratio, a time off the
        step grid), where P must match e^{iδt}·S to within
        :func:`evolve_unitary`'s bound.  ``cfg`` is checked again at
        ``max_frequency`` = |δ|, so dt resolves the drive.
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
        expectation values Re Tr(Oρ) are recorded alongside the fidelity.

    Every 10th record also stores the minimum eigenvalue of ρ in
    ``positivity_checks``; the full ``eigvalsh`` costs more than the rest of a
    record, so it is not taken on every one.

    With any rate, or above dim 192, a step is RK4 in three dim×dim scratch
    arrays: ``acc`` takes k1, ``k`` each later stage and ``stage`` the next
    stage state, formed from k before w·k (w = 2, 2, 1) is added to acc;
    then ρ += (dt/6)·acc.  The right-hand side is bound once to (ρ, acc) and
    once to (stage, k), and its drive block is written once per distinct
    stage time: t0, t0 + dt/2 (k2 and k3) and t0 + dt.  With no rates, up to
    dim 192, a step is exact: ρ ← U_n·ρ·U_n†, with
    U_1 = V(dt)·e^{−i·dt·(H(0) − δ·n̂)} from one
    :func:`~geomgate.core.matexp` per run and U_{n+1} = Φ∘U_n,
    Φ[i, k] = e^{−iδ·dt·(n_i − n_k)}, so ρ stays in the lab frame.

    The initial ρ is replaced by (ρ + ρ†)/2 once, which is exactly Hermitian.
    RK4 keeps it so, bit for bit, with no re-symmetrisation per step: a
    right-hand side forms E + E† as conj(Eᵀ) + E, whose (i, k) and (k, i)
    entries are conjugate sums of the same two numbers; every dissipator
    channel is added uniformly, with symmetric weights w[i, k] = w[k, i], in
    the same order at (i, k) and (k, i); and RK4 mixes the stages with real
    scalars only.  A change to any of these must restore the per-step
    symmetrisation, which the exact step, Hermitian only to roundoff, takes.

    Raises
    ------
    ValueError
        If P(t) is not 2^N×2^N, the target or an observable has the wrong
        shape, the provider carries no finite ``frame`` or one with G ≠ 0, dt
        undersamples |δ|, or P departs from the frame.
    IntegratorError
        On a non-finite P, trace drift beyond 1e-6 or non-finite values
        (with step context).
    """
    space = initial.space
    dim = space.dim
    q = space.qubit_dim
    s = np.asarray(h_of_t(0.0), dtype=complex)
    if s.shape != (q, q):
        raise ValueError(f"Hamiltonian provider returns shape {s.shape}, expected ({q}, {q})")
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
    if not np.all(np.isfinite(s)):
        raise IntegratorError("non-finite Hamiltonian at t=0")
    delta, g = _frame(h_of_t, q)
    if np.any(g != 0):
        raise ValueError("the frame must have G = 0, so that P(t) = e^{i delta t}·P(0)")
    replace(cfg, max_frequency=abs(delta))  # the sampling check of IntegratorConfig, at |δ|

    n_steps = cfg.n_steps
    dt = cfg.dt_effective
    stride = cfg.record_stride
    t_end = n_steps * dt
    # t_end/φ lies off the step grid: a drive that leaves its frame mid-run is refused too
    for where, t in (("the end", t_end), ("mid-run", t_end * 2.0 / (1.0 + math.sqrt(5.0)))):
        predicted = cmath.exp(1j * delta * t) * s
        _check_frame(_finite_drive(h_of_t, t, where), predicted, n_steps, f"{where} t={t:.6g}")

    if rates.any_active or dim > _EXACT_MAX_DIM:
        rho, advance = _rk4_stepper(_Lindbladian(space, rates), s, delta, dt, initial.rho)
    else:
        rho, advance = _exact_stepper(s, delta, space.cavity_dim, dt, initial.rho)
    times: list[float] = []
    fids: list[float] = []
    traces: list[float] = []
    purities: list[float] = []
    obs_records: dict[str, list[float]] = {name: [] for name, _ in obs_items}
    positivity: list[tuple[float, float]] = []

    def record(t: float, tr: complex) -> None:
        times.append(t)
        traces.append(float(tr.real))
        purities.append(float(np.vdot(rho, rho).real))
        if target is not None:
            reduced = _reduced_qubit_rho(rho, space.n_qubits, space.cavity_dim)
            fids.append(float(np.real(np.vdot(target, reduced @ target))))
        else:
            fids.append(math.nan)
        for name, op in obs_items:
            # Re Σ conj(O[i, k])·ρ[i, k] = Re Tr(O†·ρ) = Re Tr(O·ρ), since ρ is Hermitian
            obs_records[name].append(float(np.vdot(op, rho).real))
        if (len(times) - 1) % 10 == 0:
            positivity.append((t, float(np.linalg.eigvalsh(rho)[0])))

    record(0.0, np.trace(rho))
    for step in range(1, n_steps + 1):
        advance((step - 1) * dt)
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
            record(step * dt, tr)

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


def _dense_drive(p: np.ndarray, d: int) -> np.ndarray:
    """The dense H = P⊗a + P†⊗a† of a q×q register matrix P and a d-level cavity.

    P·√(n+1) and its conjugate are written into one zeroed array where a and
    a† are nonzero (nowhere at d = 1), through :func:`_ladder`, with no
    Kronecker product.
    """
    q = p.shape[0]
    sqrt_n = np.sqrt(np.arange(1.0, d))[:, None]
    h = np.zeros((q * d, q * d), dtype=complex)
    np.multiply(p[:, None, :], sqrt_n, out=_ladder(h, q, d))
    np.multiply(p.conj()[:, None, :], sqrt_n, out=_ladder(h, q, d, adjoint=True))
    return h


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
    is taken.  U_1 exponentiates the dense H(dt/2) of :func:`_dense_drive`.

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
    delta, g = _frame(h_of_t, q)
    n_steps = cfg.n_steps
    dt = cfg.dt_effective
    p_first = _finite_drive(h_of_t, 0.5 * dt, "the first midpoint")
    r = matexp(-1j * dt * g)

    t_last = (n_steps - 0.5) * dt
    p_last = _finite_drive(h_of_t, t_last, "the last midpoint")
    r_last = np.linalg.matrix_power(r, n_steps - 1)
    predicted = np.exp(1j * delta * (n_steps - 1) * dt) * (r_last @ p_first @ r_last.conj().T)
    _check_frame(p_last, predicted, n_steps, f"the last midpoint t={t_last:.6g}")

    # V(dt)† on the Fock levels: e^{iδ·dt·n}
    back = np.exp(1j * delta * dt * np.arange(d))
    # W = V(dt)†·U_1, with −i·dt·H(dt/2) formed in place and U_1 not kept: each is dim², and
    # at the dimension cap the room matters to the squarings
    h = _dense_drive(p_first, d)
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
        If the result holds no records, or a NaN fidelity (a run without a target).
    """
    if result.times.size == 0:
        raise ValueError("empty evolution result")
    if np.isnan(result.fidelities).any():
        raise ValueError("no fidelity recorded: the run had no target state")
    idx = int(np.argmax(result.fidelities))
    return float(result.times[idx]), float(result.fidelities[idx])
