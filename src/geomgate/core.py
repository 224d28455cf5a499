"""Dense complex linear algebra over a qubits ⊗ cavity tensor-product space.

Everything in this package lives on the joint Hilbert space of N qubits and a
single bosonic mode truncated to ``d`` Fock levels.  Operators and states are
plain ``numpy.ndarray`` objects with ``complex128`` entries; no wrapper class
is interposed between the caller and the array.

Index layout
------------
The layout is fixed globally and shared by every builder in the package:

* qubit 1 is the **most significant** tensor factor, the cavity the least
  significant;
* a joint basis index decomposes as ``i = q * d + n`` where ``q`` encodes the
  qubit bitstring (qubit 1 in the highest bit) and ``n`` is the Fock level;
* the bit of qubit ``j`` (1-based) inside ``q`` is ``(q >> (N - j)) & 1``.

Qubit basis convention: ``|0⟩, |1⟩`` with ``σ^z = diag(1, -1)`` (so
``σ^z|0⟩ = +|0⟩``) and ``σ⁺ = |1⟩⟨0|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CAVITY",
    "SIGMA_X",
    "SIGMA_Z",
    "SIGMA_MINUS",
    "HilbertSpace",
    "QuantumState",
    "matexp",
    "annihilation",
    "embed",
    "fock_state",
    "ground_state",
    "quadrature_x",
    "quadrature_p",
]

#: Sentinel naming the cavity factor in :func:`embed`.
CAVITY = "cavity"

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
#: Lowering operator |0⟩⟨1|.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class HilbertSpace:
    """Shape of the joint space: ``n_qubits`` two-level systems ⊗ ``cavity_dim`` Fock levels.

    Attributes
    ----------
    n_qubits:
        Number of qubits N (may be 0 for a cavity-only space).
    cavity_dim:
        Fock truncation d of the cavity mode (``d = 1`` collapses the cavity
        to a trivial factor).
    """

    n_qubits: int
    cavity_dim: int

    def __post_init__(self) -> None:
        if self.n_qubits < 0:
            raise ValueError(f"n_qubits must be non-negative, got {self.n_qubits}")
        if self.cavity_dim < 1:
            raise ValueError(f"cavity_dim must be positive, got {self.cavity_dim}")

    @property
    def qubit_dim(self) -> int:
        """Dimension 2^N of the qubit register alone."""
        return 2**self.n_qubits

    @property
    def dim(self) -> int:
        """Total dimension 2^N × d of the joint space."""
        return self.qubit_dim * self.cavity_dim


@dataclass
class QuantumState:
    """A density matrix together with the space it lives on.

    Construction validates the physical invariants once, so that numerical
    code downstream can work on the raw array without re-checking:

    * ``trace(rho) = 1`` within 1e-9,
    * ``rho`` Hermitian within 1e-10 (entrywise),
    * minimum eigenvalue ≥ -1e-8.
    """

    space: HilbertSpace
    rho: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex)
        dim = self.space.dim
        if rho.shape != (dim, dim):
            raise ValueError(
                f"rho has shape {rho.shape}, expected ({dim}, {dim}) for {self.space}"
            )
        trace_dev = abs(np.trace(rho) - 1.0)
        if trace_dev > 1e-9:
            raise ValueError(f"trace(rho) deviates from 1 by {trace_dev:.3e}")
        herm_dev = np.abs(rho - rho.conj().T).max()
        if herm_dev > 1e-10:
            raise ValueError(f"rho deviates from Hermiticity by {herm_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh(rho)[0])
        if min_eig < -1e-8:
            raise ValueError(f"rho has negative eigenvalue {min_eig:.3e}")
        self.rho = rho

    @classmethod
    def from_pure(cls, space: HilbertSpace, psi: np.ndarray) -> "QuantumState":
        """Build the projector |ψ⟩⟨ψ| from a (normalized) state vector."""
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        if psi.shape != (space.dim,):
            raise ValueError(f"psi has length {psi.size}, expected {space.dim}")
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"psi norm deviates from 1 by {abs(norm - 1.0):.3e}")
        return cls(space=space, rho=np.outer(psi, psi.conj()))


def matexp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential ``e^A`` of an anti-Hermitian generator ``A = -iH``.

    Every exponential the model needs is a unitary ``e^{-iHt}``, so ``A`` must
    be anti-Hermitian (``A + A†`` below 1e-12 relative to max |A_ij|).  It is
    exponentiated as ``V e^{-iw} V†`` from one eigendecomposition of the
    Hermitian ``H = iA``, which keeps the result unitary to machine precision.

    Raises
    ------
    ValueError
        If ``a`` is not a square matrix, or is square but not anti-Hermitian.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matexp expects a square matrix, got shape {a.shape}")
    h = 1j * a
    # written as `not <=` so that a NaN entry is refused too
    if not np.abs(h - h.conj().T).max() <= 1e-12 * max(1.0, float(np.abs(a).max())):
        raise ValueError("matexp expects an anti-Hermitian generator A = -iH")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def annihilation(d: int) -> np.ndarray:
    """Annihilation operator on a ``d``-level Fock space.

    Entries ``a[n-1, n] = sqrt(n)`` for ``n = 1..d-1``.  The truncated
    commutator ``[a, a†]`` equals the identity except for the bottom-right
    entry ``1 - d`` — callers must keep populated levels well below ``d``.

    Raises
    ------
    ValueError
        If ``d < 2`` (no ladder exists on fewer than two levels).
    """
    if d < 2:
        raise ValueError(f"annihilation requires d >= 2, got {d}")
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)


def embed(op: np.ndarray, site: int | str, space: HilbertSpace) -> np.ndarray:
    """Lift a single-site operator to the joint space.

    Parameters
    ----------
    op:
        2×2 matrix for a qubit site, d×d matrix for the cavity.
    site:
        Qubit index 1..N (1 = most significant factor) or :data:`CAVITY`.
    space:
        Target joint space.

    Raises
    ------
    ValueError
        If the site is unknown or the operator dimension does not match it.
    """
    op = np.asarray(op, dtype=complex)
    n, d = space.n_qubits, space.cavity_dim
    if site == CAVITY:
        if op.shape != (d, d):
            raise ValueError(f"cavity operator must be {d}x{d}, got {op.shape}")
        return np.kron(np.eye(2**n, dtype=complex), op)
    if not isinstance(site, (int, np.integer)) or not 1 <= site <= n:
        raise ValueError(f"site must be a qubit index 1..{n} or CAVITY, got {site!r}")
    if op.shape != (2, 2):
        raise ValueError(f"qubit operator must be 2x2, got {op.shape}")
    left = np.eye(2 ** (site - 1), dtype=complex)
    right = np.eye(2 ** (n - site) * d, dtype=complex)
    return np.kron(np.kron(left, op), right)


def _reduced_qubit_rho(rho: np.ndarray, n_qubits: int, cavity_dim: int) -> np.ndarray:
    # hot path for per-step fidelity records: no validation here
    nq = 2**n_qubits
    r4 = rho.reshape(nq, cavity_dim, nq, cavity_dim)
    return np.trace(r4, axis1=1, axis2=3)


def fock_state(d: int, n: int) -> np.ndarray:
    """Fock basis vector |n⟩ on a ``d``-level cavity."""
    if not 0 <= n < d:
        raise ValueError(f"Fock level {n} outside truncation 0..{d - 1}")
    psi = np.zeros(d, dtype=complex)
    psi[n] = 1.0
    return psi


def ground_state(space: HilbertSpace) -> np.ndarray:
    """Joint basis vector |0…0⟩ ⊗ |vac⟩."""
    psi = np.zeros(space.dim, dtype=complex)
    psi[0] = 1.0
    return psi


def quadrature_x(d: int) -> np.ndarray:
    """Dimensionless position quadrature x = (a + a†)/√2."""
    a = annihilation(d)
    return (a + a.conj().T) / math.sqrt(2.0)


def quadrature_p(d: int) -> np.ndarray:
    """Dimensionless momentum quadrature p = i(a† - a)/√2, so [x, p] = i."""
    a = annihilation(d)
    return 1j * (a.conj().T - a) / math.sqrt(2.0)
