"""The Dicke-block state of a permutation-invariant ρ, for symmetric open runs.

When the drive's register matrix and the start are unchanged by every
permutation of the qubits, and every qubit has the same channels, ρ stays in
the commutant of the permutations, ⊕_j M_{(2j+1)d} ⊗ I_{deg_j} (Schur–Weyl;
Shammah et al., Phys. Rev. A 98, 063815 (2018); Gegg & Richter, New J. Phys.
18, 043037 (2016)).  :class:`DickeLindbladian` steps its blocks ρ_j under
:func:`geomgate.dynamics.evolve_lindblad`'s RK4 and reads the records from
them; :func:`permutation_invariant` is the routing test.  Only runs that may
take the blocks import this module.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import HilbertSpace
from .dynamics import DecoherenceRates, _Drive

__all__ = ["DickeLindbladian", "permutation_invariant"]


def _cg(j2: int, l2: int, m2: np.ndarray, s: int) -> np.ndarray:
    """⟨l, m − s/2; ½, s/2 | j, m⟩ for j = l ± ½, spins doubled (j2 = 2j, ...), s = ±1.

    Condon–Shortley phases; zero where m − s/2 falls outside −l..l.
    """
    if j2 == l2 + 1:
        return np.sqrt(np.maximum(l2 + s * m2 + 1, 0) / (2.0 * l2 + 2))
    return -s * np.sqrt(np.maximum(l2 - s * m2 + 1, 0) / (2.0 * l2 + 2))


def _dicke_basis(n: int) -> dict[int, np.ndarray]:
    """{2j: B_j} for n qubits, descending: B_j[s, r, α] = ⟨s|j, m = j − r, α⟩, real.

    |0⟩ is spin up (σ^z = +1).  Qubit k + 1 is coupled to the spins of qubits
    1..k by the Clebsch–Gordan series, as the least significant bit, so each
    copy α carries the standard J± phases, the columns are orthonormal, and
    the last axis has length deg_j.  No matrix is diagonalised.
    """
    blocks = {0: np.ones((1, 1, 1))}
    for _ in range(n):
        coupled: dict[int, list[np.ndarray]] = {}
        for l2, b in blocks.items():
            for j2 in (l2 + 1, l2 - 1):
                if j2 < 0:
                    continue
                m2 = j2 - 2 * np.arange(j2 + 1)
                out = np.zeros((b.shape[0], 2, j2 + 1, b.shape[2]))
                for bit, s in ((0, 1), (1, -1)):
                    r = (l2 - m2 + s) // 2  # row of m − s/2 in b
                    ok = (r >= 0) & (r <= l2)
                    out[:, bit, ok] = _cg(j2, l2, m2[ok], s)[:, None] * b[:, r[ok]]
                coupled.setdefault(j2, []).append(out.reshape(2 * b.shape[0], j2 + 1, -1))
        blocks = {j2: np.concatenate(bs, axis=2) for j2, bs in coupled.items()}
    return dict(sorted(blocks.items(), reverse=True))


def _multiplicity(n: int, j2: int) -> int:
    """deg_j, the number of copies of spin j = j2/2 among n qubits (0 if there is none)."""
    k = (n - j2) // 2
    if j2 < 0 or j2 > n or (n - j2) % 2:
        return 0
    return math.comb(n, k) - (math.comb(n, k - 1) if k else 0)


def _jump_matrix(n: int, rates: DecoherenceRates) -> np.ndarray:
    """γ₁Σ_iσ_i⁻·σ_i⁺ + γ₂Σ_iσ_i^z·σ_i^z on the blocks' register pairs (j, m, m'), P × P.

    An invariant ρ is spanned by E^j_{mm'} = Σ_α |j m α⟩⟨j m' α|, of squared
    norm deg_j.  Both channels keep that span, and on it Σ_i X_i·ρ·X_i† has
    the coefficients of N·X_N·ρ·X_N†, X_N on the last qubit alone.  Coupling
    that qubit (spin ½) to the spin l of qubits 1..N−1, which X_N leaves
    alone, gives E^j_{mm'} ↦ (N/deg_{j'})·Σ_l deg^{(N−1)}_l·c_l(m)·c_l(m')·E^{j'}_{kk'}
    in the coefficients C of :func:`_cg`.  For σ⁻ = |0⟩⟨1| (spin raising)
    k = m+1 and c_l(m) = C^{j', m+1}_{l, m+½; ½, ½}·C^{j, m}_{l, m+½; ½, −½};
    for σ^z, k = m and c_l(m) = Σ_s 2s·C^{j', m}_{l, m−s; ½, s}·C^{j, m}_{l, m−s; ½, s}.
    No register operator is formed.  Rows and columns run over the blocks in
    descending j, each (m, m') in C order with m = j − r.
    """
    j2s = range(n, -1, -2)
    offset = dict(zip(j2s, np.cumsum([0] + [(j2 + 1) ** 2 for j2 in j2s]).tolist()))
    pairs = sum((j2 + 1) ** 2 for j2 in j2s)
    jumps = np.zeros((pairs, pairs))
    for j2 in j2s:
        m2 = j2 - 2 * np.arange(j2 + 1)
        for jp2 in (j2 + 2, j2, j2 - 2):
            for rate, s in ((rates.gamma1, 2), (rates.gamma2, 0)):
                if rate == 0 or not _multiplicity(n, jp2):
                    continue
                mp2 = m2 + s  # 2m of the image in block j'
                ok = np.flatnonzero(np.abs(mp2) <= jp2)
                coeff = np.zeros((ok.size, ok.size))
                for l2 in (j2 - 1, j2 + 1):
                    if abs(jp2 - l2) != 1 or not _multiplicity(n - 1, l2):
                        continue
                    if s:
                        c = _cg(jp2, l2, mp2[ok], 1) * _cg(j2, l2, m2[ok], -1)
                    else:
                        c = sum(t * _cg(jp2, l2, m2[ok], t) * _cg(j2, l2, m2[ok], t)
                                for t in (1, -1))
                    coeff += _multiplicity(n - 1, l2) * np.outer(c, c)
                rows = (jp2 - mp2[ok]) // 2
                out_idx = offset[jp2] + rows[:, None] * (jp2 + 1) + rows[None, :]
                in_idx = offset[j2] + ok[:, None] * (j2 + 1) + ok[None, :]
                jumps[out_idx, in_idx] += rate * n / _multiplicity(n, jp2) * coeff
    return jumps


def _real_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m·x for a real m (a × b) and a complex x of b rows, as (a, x.size/b) complex.

    One real product on the (re, im) pairs of x: half a complex one's work.
    With default threads, OpenBLAS 0.3.31 on 2 vCPUs took 8–16 ms per complex
    product of these sizes at N = 4, against 0.01–0.04 ms per real one.
    """
    pairs = np.ascontiguousarray(x, dtype=complex).reshape(m.shape[1], -1).view(float)
    return (m @ pairs).view(complex)


class DickeLindbladian:
    """dρ/dt of the dense ``_Lindbladian`` on the blocks of a permutation-invariant ρ.

    ρ = ⊕_j ρ_j ⊗ I_{deg_j} in the Dicke basis |j, m, α⟩ ⊗ |n⟩ of
    :func:`_dicke_basis`.  The state is one flat C-ordered buffer of P × d²
    entries: the blocks ρ_j in descending j, each (2j+1)² register pairs
    (m, m') times the d² Fock pairs (n, n').  Its right-hand side is

    - per block, ``_Drive``'s E + E† with S_j, S on one copy of spin j, pair-major;
    - one elementwise weight: both anticommutators and the −γ₂·N term;
    - κ·aρa†, the flat shift by d+1, weighted κ√((n+1)(n'+1)) below the edge;
    - the local jumps, one real product of :func:`_jump_matrix` (P × P) with
      the buffer seen as P × 2d² reals.

    Trace and purity weigh each block by deg_j, positivity is the least
    eigenvalue over the blocks, the fidelity reads each pair's cavity trace
    against the target's overlaps with every copy, and :meth:`dense` forms ρ.
    """

    def __init__(self, space: HilbertSpace, rates: DecoherenceRates) -> None:
        n, d = space.n_qubits, space.cavity_dim
        self._d = d
        self._basis = list(_dicke_basis(n).values())
        sizes = [b.shape[1] for b in self._basis]  # 2j + 1
        ends = np.cumsum([(k * d) ** 2 for k in sizes]).tolist()
        # per block: (first entry, entries, Dicke states)
        self._blocks = [(end - (k * d) ** 2, (k * d) ** 2, k) for end, k in zip(ends, sizes)]
        self._size = ends[-1]
        self._drives = [_Drive(k, d, pair_major=True) for k in sizes]
        # per register pair (j, m, m'): deg_j, whether m = m', and the excitations of m plus m'
        pairs = [k * k for k in sizes]
        self._deg = np.repeat([float(b.shape[2]) for b in self._basis], pairs)
        diag = np.concatenate([np.eye(k).ravel() for k in sizes])
        exc = np.concatenate([np.add.outer(np.arange(k), np.arange(k)).ravel() for k in sizes])
        exc += np.repeat([n + 1 - k for k in sizes], pairs)
        self._trace_w = (self._deg * diag).astype(complex)
        fock = np.arange(d)
        weight = (
            -(0.5 * rates.gamma1 * exc + rates.gamma2 * n)[:, None]
            - 0.5 * rates.kappa * np.add.outer(fock, fock).ravel()
        )
        # complex, like the buffer: real weights would be cast on every product
        self._weight = weight.reshape(-1).astype(complex)
        self._cavity = None
        if rates.kappa > 0 and d >= 2:
            w = np.where(fock < d - 1, np.sqrt(fock + 1.0), 0.0)
            self._cavity = np.tile(rates.kappa * np.outer(w, w).ravel(), diag.size)[: -d - 1] + 0j
        self._jumps = _jump_matrix(n, rates) if rates.gamma1 > 0 or rates.gamma2 > 0 else None

    def drive(self, s: np.ndarray, delta: float) -> None:
        """Take P(t) = e^{iδt}·S: block j drives with S_j = ⟨j · 1|S|j · 1⟩, its first copy."""
        for drive, b in zip(self._drives, self._basis):
            one_t = b[:, :, 0].T
            drive.drive(_real_product(one_t, _real_product(one_t, s).T).T, delta)

    def at(self, t: float) -> None:
        for drive in self._drives:
            drive.at(t)

    def _views(self, x: np.ndarray) -> list[np.ndarray]:
        """The blocks of a buffer as (2j+1, 2j+1, d, d) views."""
        d = self._d
        return [x[lo : lo + size].reshape(q, q, d, d) for lo, size, q in self._blocks]

    def start(self, rho0: np.ndarray) -> np.ndarray:
        """The blocks of ρ₀, read on the first copy of each spin, made exactly Hermitian."""
        d, q = self._d, self._basis[0].shape[0]
        x = np.empty(self._size, dtype=complex)
        for view, b in zip(self._views(x), self._basis):
            one_t, k = b[:, :, 0].T, b.shape[1]
            # ρ_j[r, r', n, n'] = Σ ⟨j r|s⟩·ρ₀[s, n, s', n']·⟨s'|j r'⟩, over s, then s'
            half = _real_product(one_t, rho0).reshape(k, d, q, d)
            both = _real_product(one_t, half.transpose(2, 0, 1, 3)).reshape(k, k, d, d)
            view[:] = both.transpose(1, 0, 2, 3)
            view += view.transpose(1, 0, 3, 2).conj()
            view *= 0.5
        return x

    def _cavity_traces(self, x: np.ndarray) -> np.ndarray:
        """Tr_c of every register pair's d × d Fock block, (P,)."""
        d = self._d
        return x.reshape(-1, d * d)[:, :: d + 1].sum(axis=1)

    def trace(self, x: np.ndarray) -> complex:
        return np.dot(self._trace_w, self._cavity_traces(x))

    def bind(self, rho: np.ndarray, out: np.ndarray) -> Callable[[], np.ndarray]:
        """The right-hand side from ``rho`` into ``out``, two flat buffers of the blocks."""
        drives = [
            drive.bind(rho[lo : lo + size], out[lo : lo + size])
            for drive, (lo, size, _) in zip(self._drives, self._blocks)
        ]
        weight, cavity, jumps = self._weight, self._cavity, self._jumps
        term = np.empty_like(out)
        shift = self._d + 1
        cav_out, cav_in, cav_term = out[:-shift], rho[shift:], term[:-shift]
        rho_re, term_re = (a.view(float).reshape(self._deg.size, -1) for a in (rho, term))

        def rhs() -> np.ndarray:
            for drive in drives:
                drive()
            np.add(out, np.multiply(weight, rho, out=term), out=out)
            if cavity is not None:
                np.add(cav_out, np.multiply(cavity, cav_in, out=cav_term), out=cav_out)
            if jumps is not None:
                np.matmul(jumps, rho_re, out=term_re)
                np.add(out, term, out=out)
            return out

        return rhs

    def norms(self, x: np.ndarray) -> tuple[float, float]:
        """(Tr ρ, Tr ρ²): Σ_j deg_j·Tr ρ_j and Σ_j deg_j·Tr ρ_j²."""
        sq = (x.real**2 + x.imag**2).reshape(self._deg.size, -1).sum(axis=1)
        return float(self.trace(x).real), float(np.dot(self._deg, sq))

    def fidelity(self, target: np.ndarray) -> Callable[[np.ndarray], float]:
        """ρ ↦ ⟨t|ρ_qubit|t⟩ = Σ_j Σ_{mm'} Tr_c(ρ_j)[m, m']·Σ_α ⟨t|j m α⟩⟨j m' α|t⟩."""
        overlaps = []
        for b in self._basis:
            v = _real_product(b.reshape(b.shape[0], -1).T, target).reshape(b.shape[1:])
            overlaps.append((v.conj() @ v.T).ravel())
        g = np.concatenate(overlaps)
        return lambda x: float(np.dot(g, self._cavity_traces(x)).real)

    def least_eigenvalue(self, x: np.ndarray) -> float:
        """The least over the blocks: ρ's spectrum is the union of the ρ_j's."""
        return min(
            float(np.linalg.eigvalsh(v.transpose(0, 2, 1, 3).reshape(q * self._d, -1))[0])
            for v, (_, _, q) in zip(self._views(x), self._blocks)
        )

    def dense(self, x: np.ndarray) -> np.ndarray:
        """ρ = Σ_j Σ_α (|j · α⟩ ⊗ I)·ρ_j·(⟨j · α| ⊗ I), made exactly Hermitian in place."""
        d, q = self._d, self._basis[0].shape[0]
        rho = np.zeros((q, d, q, d), dtype=complex)
        for view, b in zip(self._views(x), self._basis):
            k, copies = b.shape[1:]
            by_copy = b.transpose(0, 2, 1)  # ⟨s|j r α⟩ as [s, α, r]
            # Σ_r ⟨s|j r α⟩·ρ_j[r, r', n, n'] as [s, α, r', n, n'], then Σ_{α, r'} ⟨s'|j r' α⟩·that
            half = _real_product(by_copy.reshape(-1, k), view).reshape(q, copies, k, d, d)
            full = _real_product(by_copy.reshape(q, -1), half.transpose(1, 2, 0, 3, 4))
            rho += full.reshape(q, q, d, d).transpose(1, 2, 0, 3)
            del half, full  # each up to a dim²: the next block's must not find them held
        rho = rho.reshape(q * d, q * d)
        rho += rho.conj().T
        rho *= 0.5
        return rho


def permutation_invariant(n: int, d: int, *ops: np.ndarray) -> bool:
    """Whether qubit permutations leave every register (2^n square) or joint (2^n·d
    square) matrix exactly unchanged: tested on the swap of qubits 1 and 2 and on the
    cycle 1 → 2 → … → n, which generate them.  n ≥ 2."""
    q = 2**n
    s = np.arange(q)
    swap = s ^ (((s >> (n - 1)) ^ (s >> (n - 2))) & 1) * (3 << (n - 2))
    cycle = ((s << 1) | (s >> (n - 1))) & (q - 1)
    for op in ops:
        k = op.shape[0] // q
        for perm in (swap, cycle):
            p = (perm[:, None] * k + np.arange(k)).ravel()
            if not np.array_equal(op[np.ix_(p, p)], op):
                return False
    return True
