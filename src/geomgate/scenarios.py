"""Scenario runners wiring the model and dynamics layers into CSV-emitting experiments.

Each ``run_*`` function validates its :class:`ScenarioSpec`, integrates the
corresponding experiment, writes one CSV artifact and returns a summary dict.
CSV files are self-describing: leading ``# key=value`` comment lines record
the fully resolved spec, then a header row, then data rows.  Runs are
deterministic — same spec, same bytes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CAVITY,
    HilbertSpace,
    QuantumState,
    embed,
    fock_state,
    ground_state,
    quadrature_p,
    quadrature_x,
)
from .dynamics import (
    DecoherenceRates,
    IntegratorConfig,
    evolve_lindblad,
    evolve_unitary,
    max_fidelity,
)
from .model import (
    DriveParams,
    bell_target,
    default_dt,
    ghz_target,
    hamiltonian_h1_provider,
    hamiltonian_h2_provider,
    loop_time,
    trajectory,
)

__all__ = [
    "SpecError",
    "ScenarioSpec",
    "DEFAULT_M_SWEEP",
    "DEFAULT_OMEGA_SCAN",
    "run_bell",
    "run_ghz_sweep",
    "run_trajectory",
    "run_rwa_scan",
]

SCENARIO_KINDS = ("bell", "ghz-sweep", "trajectory", "rwa-scan")
DEFAULT_M_SWEEP = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_OMEGA_SCAN = (25.0, 50.0, 100.0, 200.0)
_FLOAT_FIELDS = (
    "delta_over_eta",
    "kappa_over_eta",
    "gamma1_over_eta",
    "gamma2_over_eta",
    "dt_override",
    "eta_mhz",
)


class SpecError(ValueError):
    """A scenario spec violates its constraints (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Resolved parameter set for one scenario run.  All rates in units of η."""

    kind: str
    n_qubits: int = 2
    delta_over_eta: float = 4.0
    n_loops: int = 1
    phis: tuple[float, ...] | None = None
    kappa_over_eta: float = 1e-3
    gamma1_over_eta: float = 1e-3
    gamma2_over_eta: float = 1e-3
    cavity_dim: int = 16
    dt_override: float | None = None
    output_path: str = ""
    eta_mhz: float | None = None

    def validated(self) -> "ScenarioSpec":
        """Check constraints and return a fully resolved copy (phis, output path).

        Raises
        ------
        SpecError
            On any violated constraint.
        """
        if self.kind not in SCENARIO_KINDS:
            raise SpecError(f"unknown scenario kind {self.kind!r}; choose from {SCENARIO_KINDS}")
        # NaN slips through every ordering check below, and inf reaches integer step counts
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise SpecError(f"{name} must be finite, got {value}")
        n_qubits = 1 if self.kind == "trajectory" else self.n_qubits
        if n_qubits < 1:
            raise SpecError(f"n_qubits must be >= 1, got {self.n_qubits}")
        if self.kind == "bell" and n_qubits != 2:
            raise SpecError(f"bell runs on exactly 2 qubits, got {self.n_qubits}")
        if self.kind == "ghz-sweep" and n_qubits < 2:
            raise SpecError(f"ghz-sweep needs at least 2 qubits, got {self.n_qubits}")
        if self.delta_over_eta <= 0:
            raise SpecError(f"delta_over_eta must be positive, got {self.delta_over_eta}")
        if self.n_loops < 1:
            raise SpecError(f"n_loops must be >= 1, got {self.n_loops}")
        for name in ("kappa_over_eta", "gamma1_over_eta", "gamma2_over_eta"):
            if getattr(self, name) < 0:
                raise SpecError(f"{name} must be non-negative, got {getattr(self, name)}")
        if self.cavity_dim < 2:
            raise SpecError(f"cavity_dim must be >= 2, got {self.cavity_dim}")
        if self.dt_override is not None and self.dt_override <= 0:
            raise SpecError(f"dt_override must be positive, got {self.dt_override}")
        phis = self.phis if self.phis is not None else (0.0,) * n_qubits
        phis = tuple(float(p) for p in phis)
        if not all(math.isfinite(p) for p in phis):
            raise SpecError(f"drive phases must be finite, got {list(phis)}")
        if len(phis) != n_qubits:
            raise SpecError(f"got {len(phis)} drive phases for {n_qubits} qubits")
        if self.kind == "trajectory" and any(p != 0.0 for p in phis):
            raise SpecError("the trajectory scenario compares against the zero-phase closed form; phis must be 0")
        out = self.output_path or f"{self.kind}.csv"
        return replace(self, n_qubits=n_qubits, phis=phis, output_path=out)


def _metadata(spec: ScenarioSpec, **extra: object) -> dict[str, object]:
    meta: dict[str, object] = {
        "kind": spec.kind,
        "n_qubits": spec.n_qubits,
        "delta_over_eta": spec.delta_over_eta,
        "n_loops": spec.n_loops,
        "phis": list(spec.phis or ()),
        "kappa_over_eta": spec.kappa_over_eta,
        "gamma1_over_eta": spec.gamma1_over_eta,
        "gamma2_over_eta": spec.gamma2_over_eta,
        "cavity_dim": spec.cavity_dim,
    }
    if spec.eta_mhz is not None:
        meta["eta_mhz"] = spec.eta_mhz
    meta.update(extra)
    return meta


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(
    path: str,
    metadata: dict[str, object],
    header: Sequence[str],
    rows: Iterable[Sequence[float]],
) -> str:
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8", newline="") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}={_fmt(value)}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            # repr of a Python float is the shortest round-trip form: exact re-parse
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(out)


def run_bell(spec: ScenarioSpec) -> dict:
    """Two-qubit entangling run: open-system fidelity against the Bell target.

    Integrates the master equation under the spin-dependent force drive over
    n_loops closed loops and writes rows (eta_t_over_pi, fidelity, trace,
    purity).  Prints and returns the final fidelity at τ_n.
    """
    spec = spec.validated()
    if spec.kind != "bell":
        raise SpecError(f"run_bell needs kind='bell', got {spec.kind!r}")
    space = HilbertSpace(n_qubits=2, cavity_dim=spec.cavity_dim)
    drive = DriveParams(etas=(1.0, 1.0), phis=spec.phis, delta=spec.delta_over_eta)
    provider = hamiltonian_h2_provider(drive, space)
    t_end = loop_time(spec.delta_over_eta, spec.n_loops)
    dt = spec.dt_override if spec.dt_override is not None else default_dt(drive)
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-9)))
    stride = max(1, n_steps // 400)
    cfg = IntegratorConfig(
        dt=t_end / n_steps,
        t_end=t_end,
        record_stride=stride,
        max_frequency=provider.max_frequency,
    )
    rates = DecoherenceRates(
        kappa=spec.kappa_over_eta,
        gamma1=spec.gamma1_over_eta,
        gamma2=spec.gamma2_over_eta,
    )
    initial = QuantumState.from_pure(space, ground_state(space))
    result = evolve_lindblad(provider, rates, initial, bell_target(), cfg)

    meta = _metadata(
        spec,
        t_end=t_end,
        dt=cfg.dt_effective,
        n_steps=cfg.n_steps,
        record_stride=cfg.record_stride,
    )
    rows = zip(result.times / math.pi, result.fidelities, result.traces, result.purities)
    path = _write_csv(spec.output_path, meta, ("eta_t_over_pi", "fidelity", "trace", "purity"), rows)
    print(f"bell: F(tau_{spec.n_loops}) = {result.final_fidelity:.6f} at eta*t/pi = {t_end / math.pi:.6f}")
    return {
        "final_fidelity": result.final_fidelity,
        "t_end": t_end,
        "path": path,
        "result": result,
    }


def _ghz_point(
    m: float,
    spec: ScenarioSpec,
    space: HilbertSpace,
    provider,
    target: np.ndarray,
    cfg: IntegratorConfig,
) -> dict:
    rates = DecoherenceRates(
        kappa=spec.kappa_over_eta,
        gamma1=m * spec.kappa_over_eta,
        gamma2=m * spec.kappa_over_eta,
    )
    initial = QuantumState.from_pure(space, ground_state(space))
    result = evolve_lindblad(provider, rates, initial, target, cfg)
    t_at_max, f_max = max_fidelity(result)
    return {"m": m, "f_max": f_max, "t_at_max": t_at_max, "result": result}


def run_ghz_sweep(spec: ScenarioSpec, m_values: Sequence[float] = DEFAULT_M_SWEEP) -> dict:
    """Sweep the qubit-to-cavity decay ratio m = γ/κ and record the peak GHZ fidelity.

    For each m the N-qubit scenario runs with γ₁ = γ₂ = m·κ over the window
    [0, 2τ_n] (≥500 recorded samples) and the maximum of F(t) is written as a
    row (m, f_max, t_at_max).  Points run one after another in ascending m,
    so the rows and bytes do not depend on the order of ``m_values``.
    """
    spec = spec.validated()
    if spec.kind != "ghz-sweep":
        raise SpecError(f"run_ghz_sweep needs kind='ghz-sweep', got {spec.kind!r}")
    if not m_values:
        raise SpecError("m_values must be non-empty")
    if not all(math.isfinite(m) for m in m_values):
        raise SpecError(f"m values must be finite, got {list(m_values)}")
    if any(m < 0 for m in m_values):
        raise SpecError(f"m values must be non-negative, got {list(m_values)}")
    space = HilbertSpace(n_qubits=spec.n_qubits, cavity_dim=spec.cavity_dim)
    drive = DriveParams(etas=(1.0,) * spec.n_qubits, phis=spec.phis, delta=spec.delta_over_eta)
    provider = hamiltonian_h2_provider(drive, space)
    t_end = 2.0 * loop_time(spec.delta_over_eta, spec.n_loops)
    dt = spec.dt_override if spec.dt_override is not None else default_dt(drive)
    # >= 500 recorded samples across the search window
    n_steps = max(500, int(math.ceil(t_end / dt - 1e-9)))
    cfg = IntegratorConfig(
        dt=t_end / n_steps,
        t_end=t_end,
        record_stride=max(1, n_steps // 500),
        max_frequency=provider.max_frequency,
    )
    target = ghz_target(spec.n_qubits)

    ms = sorted(float(m) for m in m_values)
    points = [_ghz_point(m, spec, space, provider, target, cfg) for m in ms]

    meta = _metadata(
        spec,
        m_values=ms,
        t_window=t_end,
        dt=cfg.dt_effective,
        n_steps=cfg.n_steps,
        record_stride=cfg.record_stride,
    )
    rows = [(p["m"], p["f_max"], p["t_at_max"]) for p in points]
    path = _write_csv(spec.output_path, meta, ("m", "f_max", "t_at_max"), rows)
    return {"points": points, "path": path, "t_window": t_end}


def run_trajectory(spec: ScenarioSpec) -> dict:
    """Phase-space loop of the driven cavity: closed form next to a simulated check.

    Writes rows (t, x_plus, p_plus, x_minus, p_minus, x_sim, p_sim): the
    analytic loops of the two σ^x branches (mirror images through the
    origin) and the propagated ⟨x⟩, ⟨p⟩ of the σ^x eigenstate that traces
    the positive-x loop under this drive convention (the -1 eigenstate).
    Decoherence rates in the scenario parameters are ignored (closed-system check).
    """
    spec = spec.validated()
    if spec.kind != "trajectory":
        raise SpecError(f"run_trajectory needs kind='trajectory', got {spec.kind!r}")
    delta = spec.delta_over_eta
    space = HilbertSpace(n_qubits=1, cavity_dim=spec.cavity_dim)
    drive = DriveParams(etas=(1.0,), phis=spec.phis, delta=delta)
    provider = hamiltonian_h2_provider(drive, space)
    t_end = loop_time(delta, spec.n_loops)
    n_rows = 512 * spec.n_loops
    dt_target = spec.dt_override if spec.dt_override is not None else default_dt(drive)
    steps_per_row = max(1, int(math.ceil(t_end / dt_target / n_rows - 1e-9)))
    n_steps = n_rows * steps_per_row
    cfg = IntegratorConfig(
        dt=t_end / n_steps,
        t_end=t_end,
        record_stride=steps_per_row,
        max_frequency=provider.max_frequency,
    )
    # σ^x = -1 eigenstate ⊗ vacuum: the branch tracing the positive-x loop
    qubit_minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    psi0 = np.kron(qubit_minus, fock_state(spec.cavity_dim, 0))
    observables = {
        "x": embed(quadrature_x(spec.cavity_dim), CAVITY, space),
        "p": embed(quadrature_p(spec.cavity_dim), CAVITY, space),
    }
    result = evolve_lindblad(
        provider,
        DecoherenceRates(),
        QuantumState.from_pure(space, psi0),
        None,
        cfg,
        observables=observables,
    )
    analytic = trajectory(1.0, delta, result.times)
    x_sim = result.observables["x"]
    p_sim = result.observables["p"]

    meta = _metadata(
        spec,
        t_end=t_end,
        dt=cfg.dt_effective,
        n_steps=cfg.n_steps,
        record_stride=cfg.record_stride,
    )
    rows = zip(
        analytic.times, analytic.xs, analytic.ps, -analytic.xs, -analytic.ps, x_sim, p_sim
    )
    path = _write_csv(
        spec.output_path,
        meta,
        ("t", "x_plus", "p_plus", "x_minus", "p_minus", "x_sim", "p_sim"),
        rows,
    )
    max_dev = max(
        float(np.abs(x_sim - analytic.xs).max()), float(np.abs(p_sim - analytic.ps).max())
    )
    return {
        "path": path,
        "max_sim_deviation": max_dev,
        "analytic_closure": math.hypot(analytic.xs[-1], analytic.ps[-1]),
        "simulated_closure": math.hypot(x_sim[-1], p_sim[-1]),
        "x_max_analytic": float(analytic.xs.max()),
        "result": result,
    }


def _rwa_point(omega: float, spec: ScenarioSpec, space: HilbertSpace) -> dict:
    delta = spec.delta_over_eta
    drive = DriveParams(
        etas=(1.0,) * spec.n_qubits, phis=spec.phis, delta=delta, omega=omega
    )
    full = hamiltonian_h1_provider(drive, space)
    approx = hamiltonian_h2_provider(drive, space)
    t_end = loop_time(delta, spec.n_loops)
    dt = spec.dt_override if spec.dt_override is not None else default_dt(drive)
    cfg = IntegratorConfig(dt=dt, t_end=t_end, max_frequency=full.max_frequency)
    psi0 = ground_state(space)
    psi_full, _ = evolve_unitary(full, psi0, cfg)
    psi_approx, _ = evolve_unitary(approx, psi0, cfg)
    infid = 1.0 - abs(np.vdot(psi_approx, psi_full)) ** 2
    return {"omega": omega, "infidelity": float(infid)}


def run_rwa_scan(spec: ScenarioSpec, omega_values: Sequence[float] = DEFAULT_OMEGA_SCAN) -> dict:
    """Strong-driving validity scan: overlap infidelity between the full and
    drive-only Hamiltonians after one loop, as a function of Ω/η.

    The recorded infidelity is 1 - |⟨ψ_approx(τ)|ψ_full(τ)⟩|² from unitary
    propagation of both Hamiltonians on a common time grid.  Rows are
    (omega_over_eta, infidelity, fitted_local_exponent), where the local
    exponent is the finite-difference log-log slope at each point; the
    overall least-squares slope lands in the metadata and the summary.
    """
    spec = spec.validated()
    if spec.kind != "rwa-scan":
        raise SpecError(f"run_rwa_scan needs kind='rwa-scan', got {spec.kind!r}")
    if not omega_values:
        raise SpecError("omega_values must be non-empty")
    omegas = sorted(float(w) for w in omega_values)
    if not all(math.isfinite(w) for w in omegas):
        raise SpecError(f"omega values must be finite, got {list(omega_values)}")
    if omegas[0] <= 0:
        raise SpecError(f"omega values must be positive, got {list(omega_values)}")
    slow = [w for w in omegas if w < 10.0 * spec.delta_over_eta]
    if slow:
        warnings.warn(
            f"omega values {slow} are not well above delta={spec.delta_over_eta}; "
            "the strong-driving comparison is unreliable there",
            stacklevel=2,
        )
    space = HilbertSpace(n_qubits=spec.n_qubits, cavity_dim=spec.cavity_dim)
    points = [_rwa_point(w, spec, space) for w in omegas]

    log_w = np.log([p["omega"] for p in points])
    log_i = np.log([p["infidelity"] for p in points])
    n = len(points)
    exponents = np.full(n, math.nan)
    for i in range(n):
        if n < 2:
            break
        lo = max(0, i - 1)
        hi = min(n - 1, i + 1)
        exponents[i] = (log_i[hi] - log_i[lo]) / (log_w[hi] - log_w[lo])
    slope = float(np.polyfit(log_w, log_i, 1)[0]) if n >= 2 else math.nan

    meta = _metadata(spec, omega_values=omegas, overall_slope=slope)
    rows = [
        (p["omega"], p["infidelity"], exponents[i]) for i, p in enumerate(points)
    ]
    path = _write_csv(
        spec.output_path, meta, ("omega_over_eta", "infidelity", "fitted_local_exponent"), rows
    )
    return {"points": points, "slope": slope, "path": path}
