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
plan.  With rates, each step is classical 4th-order RK4 from one generator
built once per run, with no dense H(t), on one of two states.  When S = P(0)
and ρ₀ are unchanged by every qubit permutation (equal couplings and phases,
a symmetric start), no observable is recorded, N ≥ 3 and dim ≥ 32, ρ stays
⊕_j ρ_j ⊗ I_{deg_j} in a Dicke basis, and the state is the blocks ρ_j of
(2j+1)·d rows each (:mod:`geomgate.dicke`): 35 register pairs × d² at N = 4
instead of 256 × d².  Otherwise it is the full density matrix
(:class:`_Lindbladian`).  Without rates, ρ₀ = X·X† is factored once, one
column for a pure start, and each step is exact: X̃ ← W·X̃ with
W = e^{−i·dt·(H(0) − δ·n̂)} from one exponential; a record reads the
lab-frame X = e^{−iδt·n̂}·X̃.  Each state supplies the record's readings.

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
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from .core import HilbertSpace, QuantumState, _reduced_qubit_rho, matexp

if TYPE_CHECKING:
    from .dicke import DickeLindbladian

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
    holds (time, min eigenvalue) spot checks of ρ, none in a closed run.
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


class _Drive:
    """ρ ↦ E + E†, E = −i·H·ρ, for the drive H = P⊗a + P†⊗a† on a q-state register.

    E is formed without H: a and a† act on the C-ordered ρ as two √n-weighted
    moves by one Fock level, stacked into T = [aρ; a†ρ] of shape (2q, size/q),
    and E = A·T with the q × 2q drive block A = −i·[P, P†].  The drive is
    P(t) = e^{iδt}·S (:meth:`drive`), so :meth:`at` writes A for a stage time t
    as e^{iδt}·(−i·S) and e^{−iδt}·(−i·S†), two scalar multiplies; without a
    drive, A = 0.

    ρ is one dense (q·d)² matrix, laid out (m, n, m', n') for register states
    m, m' and Fock levels n, n', or, ``pair_major``, one block of a
    permutation-invariant ρ laid out (m, m', n, n').  The register index m
    leads in both, so A·T is one product; E† reads E through the transpose
    that swaps m with m' and n with n'.
    """

    def __init__(self, q: int, d: int, pair_major: bool = False) -> None:
        size = (q * d) ** 2
        self._shape = (q, q, d, d) if pair_major else (q, d, q, d)
        self._adjoint = (1, 0, 3, 2) if pair_major else (2, 3, 0, 1)
        # entries from one Fock level n to the next: aρ is ρ moved up this far and a†ρ moved
        # down, both weighted by √n of the row they land in, which is 0 where a move would
        # cross into the next register index (everywhere at d = 1).  Complex: no cast per product.
        self._row = row = d if pair_major else q * d
        self._sqrt_n = np.repeat(np.sqrt(np.arange(size // row) % d + 0j), row)[row:]
        # T flattened; the row each shift leaves empty stays zero
        self._shifts = np.zeros((2, size), dtype=complex)
        self._stacked = self._shifts.reshape(2 * q, size // q)
        self._e = np.empty(size, dtype=complex)
        self._e_rows = self._e.reshape(q, size // q)
        self._a = np.zeros((q, 2 * q), dtype=complex)
        self._a_p, self._a_p_adj = self._a[:, :q], self._a[:, q:]
        self.drive(np.zeros((q, q), dtype=complex), 0.0)

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
        """E + E† from ``rho`` into ``out``, two C-ordered buffers of the layout's size.

        Every view it reads is built here, once: the returned function takes
        no argument, reads ``rho`` as it is at the call under the block of the
        latest :meth:`at`, writes E + E† into ``out`` and returns ``out``.
        """
        if not (rho.flags.c_contiguous and out.flags.c_contiguous):
            raise ValueError("the right-hand side binds C-ordered buffers only")
        row, sqrt_n, a, stacked, e, e_rows = (
            self._row, self._sqrt_n, self._a, self._stacked, self._e, self._e_rows
        )
        e_adj = e.reshape(self._shape).transpose(self._adjoint)
        x, y, y4 = rho.reshape(-1), out.reshape(-1), out.reshape(self._shape)
        up_out, up_in = self._shifts[0, :-row], x[row:]
        down_out, down_in = self._shifts[1, row:], x[:-row]

        def rhs() -> np.ndarray:
            np.multiply(sqrt_n, up_in, out=up_out)
            np.multiply(sqrt_n, down_in, out=down_out)
            np.matmul(a, stacked, out=e_rows)
            # -i[H, ρ] = E + E† for Hermitian H, ρ: one product, not two, and no -i pass
            np.conjugate(e_adj, out=y4)
            np.add(y, e, out=y)
            return out

        return rhs


class _Lindbladian(_Drive):
    """ρ ↦ dρ/dt = E + E† + D(ρ) for the drive H = P⊗a + P†⊗a† and fixed rates.

    E + E† is :class:`_Drive`'s on the dense ρ.  D is N+2 shifted diagonals of
    vec(ρ).  With the layout i = q·d + n and vec(ρ)[i·dim + k] = ρ[i, k]
    (C order), the decay anticommutators and the full dephasing channel give
    the main diagonal; the jump σ_j⁻ρσ_j⁺ of qubit j adds γ₁·ρ[i + b, k + b] to
    ρ[i, k] where qubit j is |0⟩ on both sides, with b = 2^(N-j)·d; the cavity
    jump adds κ√((n+1)(n'+1))·ρ[i + 1, k + 1] below the truncation edge.  Each
    channel keeps one complex weight array, cut to the entries its offset
    reaches.  Per chunk, every channel whose weights there are not all zero
    adds its product to ``out`` through one ``term`` scratch, in ascending
    offset; the weights are symmetric, w[i, k] = w[k, i], so (i, k) and (k, i)
    get equal sums.

    T, the E scratch, A and the chunk table are built once: one object per
    run.  :meth:`bind` builds every view one (input, output) pair needs, once.
    The record readers (:meth:`norms` and the rest) read a dense ρ.
    """

    # entries per chunk: as fast per dissipator pass as 2¹⁴ at N = 4, d = 8 and 24
    _CHUNK = 8192

    def __init__(self, space: HilbertSpace, rates: DecoherenceRates) -> None:
        q, d, dim = space.qubit_dim, space.cavity_dim, space.dim
        super().__init__(q, d)
        self._space = space
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

    def bind(self, rho: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
        """The right-hand side from ``rho`` into ``out``, two C-ordered dim×dim buffers.

        Every view it reads is built here, once: the returned function takes
        no argument, reads ``rho`` as it is at the call under the block of the
        latest :meth:`at`, writes dρ/dt into ``out`` and returns ``out``.
        """
        drive = super().bind(rho, out)
        x, y = rho.reshape(-1), out.reshape(-1)
        # (out slice, weights, in slice, term) per channel slice, in the chunk table's order
        terms = [
            (y[start : start + w.size], w, x[lo : lo + w.size], term)
            for start, entries in self._chunks
            for lo, w, term in entries
        ]

        def rhs() -> np.ndarray:
            drive()
            for ys, w, xs, term in terms:
                ys += np.multiply(w, xs, out=term)
            return out

        return rhs

    def start(self, rho0: np.ndarray) -> np.ndarray:
        return _hermitian_copy(rho0)

    def trace(self, rho: np.ndarray) -> complex:
        return np.trace(rho)

    def norms(self, rho: np.ndarray) -> tuple[float, float]:
        """(Tr ρ, Tr ρ²)."""
        return float(np.trace(rho).real), float(np.vdot(rho, rho).real)

    def fidelity(self, target: np.ndarray) -> Callable[[np.ndarray], float]:
        """ρ ↦ ⟨target|ρ_qubit|target⟩."""
        n, d = self._space.n_qubits, self._space.cavity_dim
        return lambda rho: float(np.real(np.vdot(target, _reduced_qubit_rho(rho, n, d) @ target)))

    def expect(self, rho: np.ndarray, op: np.ndarray) -> float:
        # Re Tr(O·ρ) = Re Σ conj(O[i, k])·ρ[i, k], since ρ is Hermitian
        return float(np.vdot(op, rho).real)

    def least_eigenvalue(self, rho: np.ndarray) -> float:
        return float(np.linalg.eigvalsh(rho)[0])

    def dense(self, rho: np.ndarray) -> np.ndarray:
        return rho


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
    """(ρ₀ + ρ₀†)/2 as a new C-ordered array: |ψ⟩⟨ψ| of a complex ψ, like a closed
    run's final X·X†, is Hermitian only to roundoff, RK4 keeps whatever asymmetry
    its start has, and its steps read ρ through reshaped views."""
    rho = np.array(rho0, dtype=complex, order="C")
    rho += rho.conj().T
    rho *= 0.5
    return rho


# Whole symmetric runs (500 steps, 2 vCPUs) took 0.09–0.80× the dense kernel's time from
# (N, d) = (3, 4) and (4, 2), dim 32, up to (6, 2), but 1.07× at (3, 3) and 1.18× at (3, 2),
# where per-call overhead outweighs the work.  At N = 2 the blocks keep 10 of the 16 register
# pairs: 0.72× at d = 24, 0.99× at d = 8 and 1.28× at d = 4, so N = 2 stays dense.
_DICKE_MIN_QUBITS = 3
_DICKE_MIN_DIM = 32


def _rk4_stepper(
    lindbladian: _Lindbladian | DickeLindbladian,
    s: np.ndarray,
    delta: float,
    dt: float,
    rho0: np.ndarray,
) -> tuple[Callable[[float], np.ndarray], Callable[[float], complex]]:
    """ρ at any t (the one array the step updates) and the RK4 step from t0, which returns Tr ρ.

    ``lindbladian`` is built before the state: its weight tables pass
    through temporaries of several dim².  Its ``start`` is exactly Hermitian,
    and on the dense ρ the step keeps it so bit for bit: E + E† is formed as
    conj(Eᵀ) + E, every dissipator channel is added with symmetric weights in
    the same order at (i, k) and (k, i), and the stages mix with real scalars
    only.  A change to any of these must restore a per-step symmetrisation.
    On the blocks, the jump product's sums run in BLAS's order, so they stay
    Hermitian to roundoff only; the generator maps anti-Hermitian parts to
    anti-Hermitian parts without growth, and the blocks' ``dense`` symmetrises
    the final ρ once.
    """
    lindbladian.drive(s, delta)
    rho = lindbladian.start(rho0)
    # RK4 scratch, reused every step: the weighted stage sum, the latest stage and the stage state
    acc, k, stage = (np.empty_like(rho) for _ in range(3))
    at, trace = lindbladian.at, lindbladian.trace
    rhs_rho = lindbladian.bind(rho, acc)
    rhs_stage = lindbladian.bind(stage, k)
    half_dt = 0.5 * dt

    def advance(t0: float) -> complex:
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
        return trace(rho)

    return lambda t: rho, advance


def _factor(rho0: np.ndarray) -> np.ndarray:
    """X of shape (dim, r) with X·X† = ρ₀, by a pivoted Cholesky: r = 1 for a pure ρ₀.

    Each column is the residual ρ₀ − X·X† at its largest diagonal entry's column, over
    that entry's root.  Once none exceeds dim·ε·max(diag ρ₀), what is left is dropped:
    a pure start's roundoff, or a negative part, which QuantumState admits to −1e-8.
    """
    diag = rho0.diagonal().real.copy()
    tol = diag.size * np.finfo(float).eps * diag.max()
    x = np.empty((diag.size, 0), dtype=complex)
    for _ in range(diag.size):
        k = int(np.argmax(diag))
        if not diag[k] > tol:
            break
        col = (rho0[:, k] - x @ x[k].conj()) / math.sqrt(diag[k])
        diag -= col.real**2 + col.imag**2
        x = np.column_stack((x, col))
    return x


def _closed_stepper(
    s: np.ndarray, delta: float, d: int, dt: float, rho0: np.ndarray
) -> tuple[Callable[[float], np.ndarray], Callable[[float], complex]]:
    """The lab-frame factor X(t) of ρ = X·X† and the exact step from t0, which returns Tr ρ.

    In the frame V(t) = e^{−iδt·n̂} the generator is the constant H̃ = H(0) − δ·n̂,
    so a step is X̃ ← W·X̃ with W = e^{−i·dt·H̃}, formed before the factor.
    X(t) = V(t)·X̃ takes its phases from t, so no roundoff compounds in them.
    """
    dim = s.shape[0] * d
    fock = np.arange(dim) % d
    h = _dense_drive(s, d)
    h.reshape(-1)[:: dim + 1] -= delta * fock
    h *= -1j * dt
    w = matexp(h)
    x = _factor(rho0)

    def advance(t0: float) -> complex:
        nonlocal x
        x = w @ x
        return np.vdot(x, x)

    def lab(t: float) -> np.ndarray:
        return np.exp(-1j * delta * t * fock)[:, None] * x

    return lab, advance


class _FactorReadout:
    """The record readers of a closed run's lab-frame factor X, with ρ = X·X†."""

    @staticmethod
    def norms(x: np.ndarray) -> tuple[float, float]:
        """(Tr ρ, Tr ρ²), read from X†X, which shares them."""
        gram = x.conj().T @ x
        return float(np.trace(gram).real), float(np.vdot(gram, gram).real)

    @staticmethod
    def fidelity(target: np.ndarray) -> Callable[[np.ndarray], float]:
        def fidelity(x: np.ndarray) -> float:
            m = x.reshape(target.size, -1)  # ρ_a = M·M† for X as M of shape (2^N, d·r)
            return float(np.real(np.vdot(target, (m @ m.conj().T) @ target)))

        return fidelity

    @staticmethod
    def expect(x: np.ndarray, op: np.ndarray) -> float:
        return float(np.vdot(x, op @ x).real)  # Re Tr(O·ρ) = Re⟨X, O·X⟩

    @staticmethod
    def dense(x: np.ndarray) -> np.ndarray:
        return _hermitian_copy(x @ x.conj().T)


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

    With any rate, a step is RK4 (:func:`_rk4_stepper`), and every 10th
    record stores the minimum eigenvalue of ρ in ``positivity_checks``.  RK4
    steps the Dicke blocks (:mod:`geomgate.dicke`) when P(0) and
    ``initial.rho`` are exactly unchanged by every qubit permutation, no
    ``observables`` are given, N ≥ 3 and dim ≥ 32; each block ρ_j holds the
    (2j+1)·d rows of one copy of spin j, the minimum eigenvalue is the least
    over the blocks, and ``final_rho`` is the dense ρ, formed once and made
    exactly Hermitian.  Otherwise it steps the dense ρ, kept exactly
    Hermitian.  Both run the same step plan and agree to roundoff.  With no
    rates, a step is exact on a factor of ρ = X·X† (:func:`_closed_stepper`):
    no dim×dim ρ is held while it steps, ρ is positive by construction, so no
    eigenvalue is taken, and ``final_rho`` is (X·X† + (X·X†)†)/2, formed once.

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

    closed = not rates.any_active
    if closed:
        readout = _FactorReadout()
        lab, advance = _closed_stepper(s, delta, space.cavity_dim, dt, initial.rho)
    else:
        generator: type[_Lindbladian | DickeLindbladian] = _Lindbladian
        if not obs_items and space.n_qubits >= _DICKE_MIN_QUBITS and dim >= _DICKE_MIN_DIM:
            from . import dicke  # compiled only by the runs that may take the blocks

            if dicke.permutation_invariant(space.n_qubits, space.cavity_dim, s, initial.rho):
                generator = dicke.DickeLindbladian
        readout = generator(space, rates)
        lab, advance = _rk4_stepper(readout, s, delta, dt, initial.rho)
    fidelity = readout.fidelity(target) if target is not None else None
    times: list[float] = []
    fids: list[float] = []
    traces: list[float] = []
    purities: list[float] = []
    obs_records: dict[str, list[float]] = {name: [] for name, _ in obs_items}
    positivity: list[tuple[float, float]] = []

    def record(t: float) -> None:
        a = lab(t)
        trace, purity = readout.norms(a)
        times.append(t)
        traces.append(trace)
        purities.append(purity)
        fids.append(fidelity(a) if fidelity is not None else math.nan)
        for name, op in obs_items:
            obs_records[name].append(readout.expect(a, op))
        if not closed and (len(times) - 1) % 10 == 0:
            positivity.append((t, readout.least_eigenvalue(a)))

    record(0.0)
    for step in range(1, n_steps + 1):
        tr = advance((step - 1) * dt)
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
        final_rho=readout.dense(lab(t_end)),
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

    The provider is called four times: at t=0 for the shape, at the first
    midpoint for U_1, and at the midpoints n = ⌈N/φ⌉ (φ the golden ratio) and
    n = N, where P must match the frame's prediction
    e^{iδ(n−1)dt}·R(dt)^{n−1}·P(dt/2)·R(dt)^{n−1}†, the P that the n-th
    factor of the product stands for, to within
    (1e-9 + 16·N·ε)·max(1, max|P|).  The N·ε term covers the roundoff that
    R(dt)^{N−1} accumulates (at most 3.2·N·ε measured with up to 6 qubits and
    N = 4·10⁶ steps); a wrong frame departs by far more.

    Raises
    ------
    ValueError
        If the columns of ``initial`` are not orthonormal (a state not
        normalized) to 1e-8, P(t) is not square with a size dividing dim, or
        the provider carries no finite ``frame`` with a Hermitian G, or
        departs from it at a checked midpoint.
    IntegratorError
        On a non-finite P(t) at a midpoint it reads, a non-finite
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

    # midpoint ⌈N/φ⌉ lies off the grid's simple fractions; the last pass leaves R(dt)^{N−1}
    for where, n in (("mid-run", math.ceil(n_steps * 2.0 / (1.0 + math.sqrt(5.0)))),
                     ("the last midpoint", n_steps)):
        t = (n - 0.5) * dt
        r_last = np.linalg.matrix_power(r, n - 1)
        predicted = np.exp(1j * delta * (n - 1) * dt) * (r_last @ p_first @ r_last.conj().T)
        _check_frame(_finite_drive(h_of_t, t, where), predicted, n_steps, f"{where} t={t:.6g}")

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
