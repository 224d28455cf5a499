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
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

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
    _step_count,
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

# what each kind resolves the fields in _KIND_FIELDS to when the spec leaves them unset.  A
# rate of None is one the kind's run never takes, and validated() drops it: every ghz-sweep
# point runs at γ₁ = γ₂ = m·κ, the trajectory is a closed system and rwa-scan is unitary
_KIND_FIELDS = ("n_qubits", "cavity_dim", "kappa_over_eta", "gamma1_over_eta", "gamma2_over_eta")
_KIND_DEFAULTS = {
    "bell": (2, 16, 1e-3, 1e-3, 1e-3),
    "ghz-sweep": (4, 24, 1e-3, None, None),
    "trajectory": (1, 16, None, None, None),
    "rwa-scan": (2, 16, None, None, None),
}
SCENARIO_KINDS = tuple(_KIND_DEFAULTS)
DEFAULT_M_SWEEP = (0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
DEFAULT_OMEGA_SCAN = (25.0, 50.0, 100.0, 200.0)
# IntegratorConfig recounts the steps from dt = t_end/n; t_end/(t_end/n) carries
# two roundings of 2^-53 each, which beat the 1e-9 slack of the count from
# n ≈ 4.5e6 on and would add a step to the plan.  Longer plans are refused.
_MAX_STEPS = 4_000_000
# Largest dt·Λ a Lindblad plan may take, with Λ the generator bound of _plan.  RK4's
# stability region holds the left half-disk of radius 2.6156 about the origin, and
# the Lindbladian's spectrum lies in the left half-plane within |z| ≤ Λ.  The exact
# closed-system step needs no such bound; see _plan for why no-rate plans keep it.
_MAX_DT_NORM = 2.5
# Largest joint dimension 2^N·d a run may allocate (N=6, d=32): far larger ones
# would fail in a dense allocation with a MemoryError instead of a SpecError.
_MAX_DIM = 2048


class SpecError(ValueError):
    """A scenario spec violates its constraints (maps to CLI exit code 2)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameter set for one scenario run.  All rates in units of η.

    ``n_qubits``, ``cavity_dim`` and the three rates left unset resolve per
    kind in :meth:`validated`, which also drops a rate the kind never takes.
    """

    kind: str
    n_qubits: int | None = None
    delta_over_eta: float = 4.0
    n_loops: int = 1
    phis: tuple[float, ...] | None = None
    kappa_over_eta: float | None = None
    gamma1_over_eta: float | None = None
    gamma2_over_eta: float | None = None
    cavity_dim: int | None = None
    dt_override: float | None = None
    output_path: str = ""
    eta_mhz: float | None = None

    def validated(self) -> "ScenarioSpec":
        """Check constraints and return a fully resolved copy.

        The copy fills in the kind's defaults, the zero phases and the output
        path, and sets to None each rate the kind's run never takes, once it
        has passed the checks.  A trajectory always runs on one qubit.

        Raises
        ------
        SpecError
            On any violated constraint.
        """
        if self.kind not in SCENARIO_KINDS:
            raise SpecError(f"unknown scenario kind {self.kind!r}; choose from {SCENARIO_KINDS}")
        defaults = dict(zip(_KIND_FIELDS, _KIND_DEFAULTS[self.kind]))
        spec = replace(self, **{k: v for k, v in defaults.items() if getattr(self, k) is None})
        if spec.kind == "trajectory":
            spec = replace(spec, n_qubits=1)  # its closed form traces one qubit's loop
        for field in fields(spec):
            value = getattr(spec, field.name)
            # NaN slips through every ordering check below, and inf reaches integer step counts
            if isinstance(value, float) and not math.isfinite(value):
                raise SpecError(f"{field.name} must be finite, got {value}")
            # loop_time takes n_loops to a float, and a later message would echo every digit;
            # the dimension and step caps keep every valid integer far below 2**53
            if isinstance(value, int) and abs(value) > 2**53:
                raise SpecError(f"{field.name} must fit a float, got {value.bit_length()} bits")
        n_qubits, cavity_dim = spec.n_qubits, spec.cavity_dim
        if n_qubits < 1:
            raise SpecError(f"n_qubits must be >= 1, got {n_qubits}")
        if self.kind == "bell" and n_qubits != 2:
            raise SpecError(f"bell runs on exactly 2 qubits, got {n_qubits}")
        if self.kind == "ghz-sweep" and n_qubits < 2:
            raise SpecError(f"ghz-sweep needs at least 2 qubits, got {n_qubits}")
        if self.delta_over_eta <= 0:
            raise SpecError(f"delta_over_eta must be positive, got {self.delta_over_eta}")
        if self.n_loops < 1:
            raise SpecError(f"n_loops must be >= 1, got {self.n_loops}")
        for name in ("kappa_over_eta", "gamma1_over_eta", "gamma2_over_eta"):
            value = getattr(spec, name)
            if value is not None and value < 0:
                raise SpecError(f"{name} must be non-negative, got {value}")
        if cavity_dim < 2:
            raise SpecError(f"cavity_dim must be >= 2, got {cavity_dim}")
        # d > ⌊_MAX_DIM/2^N⌋ is 2^N·d > _MAX_DIM, without forming 2^N for a huge N
        if cavity_dim > _MAX_DIM >> n_qubits:
            raise SpecError(
                f"joint dimension 2^{n_qubits}·{cavity_dim} exceeds the {_MAX_DIM} allowed"
            )
        if self.dt_override is not None and self.dt_override <= 0:
            raise SpecError(f"dt_override must be positive, got {self.dt_override}")
        if self.eta_mhz is not None and self.eta_mhz <= 0:
            raise SpecError(f"eta_mhz must be positive, got {self.eta_mhz}")
        phis = self.phis if self.phis is not None else (0.0,) * n_qubits
        phis = tuple(float(p) for p in phis)
        if not all(math.isfinite(p) for p in phis):
            raise SpecError(f"drive phases must be finite, got {list(phis)}")
        if len(phis) != n_qubits:
            raise SpecError(f"got {len(phis)} drive phases for {n_qubits} qubits")
        if self.kind == "trajectory" and any(p != 0.0 for p in phis):
            raise SpecError("the trajectory scenario compares against the zero-phase closed form; phis must be 0")
        out = self.output_path or f"{self.kind}.csv"
        # _write_csv opens the path only after the run, so one it cannot create is refused here
        if Path(out).is_dir() or any(p.exists() and not p.is_dir() for p in Path(out).parents):
            raise SpecError(f"output path {out!r} is a directory or lies under a file")
        unused = {name: None for name, default in defaults.items() if default is None}
        return replace(spec, phis=phis, output_path=out, **unused)


def _resolved(
    spec: ScenarioSpec, kind: str
) -> tuple[ScenarioSpec, HilbertSpace, DriveParams, Callable]:
    """The validated spec of ``kind``, its joint space, its drive with every η_j = 1 and
    that drive's H₂ provider, which all four runners drive with."""
    spec = spec.validated()
    if spec.kind != kind:
        raise SpecError(f"the {kind} runner needs kind={kind!r}, got {spec.kind!r}")
    space = HilbertSpace(n_qubits=spec.n_qubits, cavity_dim=spec.cavity_dim)
    drive = DriveParams((1.0,) * spec.n_qubits, spec.phis, spec.delta_over_eta)
    return spec, space, drive, hamiltonian_h2_provider(drive, space)


def _sweep_values(name: str, values: Sequence[float], positive: bool) -> list[float]:
    """Sweep values in ascending order, so the rows do not depend on the given order.

    A repeated value would integrate one point twice and, in the RWA scan,
    divide by a zero log-spacing.
    """
    if len(values) == 0:  # not `not values`: a numpy array has no truth value
        raise SpecError(f"{name} values must be non-empty")
    ordered = sorted(float(v) for v in values)
    if not all(math.isfinite(v) for v in ordered):
        raise SpecError(f"{name} values must be finite, got {list(values)}")
    if ordered[0] < 0 or (positive and ordered[0] == 0):
        bound = "positive" if positive else "non-negative"
        raise SpecError(f"{name} values must be {bound}, got {list(values)}")
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        raise SpecError(f"{name} values must be distinct, got {list(values)}")
    return ordered


def _plan(
    spec: ScenarioSpec,
    drive: DriveParams,
    provider,
    t_end: float,
    records: int = 0,
    min_steps: int = 1,
    step_multiple: int = 1,
    rates: tuple[float, float, float] | None = None,
) -> IntegratorConfig:
    """Step plan over [0, t_end] with steps no longer than the override or :func:`default_dt`.

    The step count is raised to ``min_steps`` and then to a multiple of
    ``step_multiple``; the stride keeps about ``records`` records (all when 0).
    A dt or t_end that is not positive and finite (a tiny δ overflows t_end, a
    huge Ω underflows the default dt), a plan of more than ``_MAX_STEPS``
    steps and a plan the integrator rejects are spec errors.

    ``rates`` = (κ, γ₁, γ₂) marks a plan for
    :func:`~geomgate.dynamics.evolve_lindblad`, with the largest rates any of
    its runs takes.  Such a plan is also a spec error when dt·Λ > 2.5, where

        Λ = 4·Σ_j|η_j|·√(d−1) + 2κ(d−1) + 2N(γ₁ + γ₂)

    bounds the norm of the Lindbladian, and so its spectral radius: 2·‖H‖ for
    the commutator, with ‖H‖ ≤ 2·Σ_j|η_j|·‖a‖ and ‖a‖ = √(d−1), and
    4·(rate/2)·‖A‖² for each L(A).  Below 2.5 every dt·λ lies inside RK4's
    stability region.  The integrator chooses its step; where it takes the
    exact closed-system step, stable at any dt, the bound is only a dt bound,
    kept so that such plans are refused (exit 2) as before.  It guards no
    truncation: `trajectory --delta-over-eta 0.05` is refused, but adding
    `--dt-over-eta 0.01` passes with the same branch mean photon number
    (2/δ)² = 1600 far past d = 16; only a Fock truncation check would catch it.
    """
    dt = spec.dt_override if spec.dt_override is not None else default_dt(drive)
    if not (0 < dt < math.inf and 0 < t_end < math.inf and t_end / dt < math.inf):
        raise SpecError(f"no finite step plan for dt={dt!r} over t_end={t_end!r}")
    n_steps = max(min_steps, _step_count(t_end, dt))
    n_steps += -n_steps % step_multiple  # round up to a multiple
    if n_steps > _MAX_STEPS:
        raise SpecError(f"step plan needs {n_steps} steps, more than the {_MAX_STEPS} allowed")
    if rates is not None:
        kappa, gamma1, gamma2 = rates
        d = spec.cavity_dim
        # Python floats: a huge rate overflows to inf and is refused, with no warning
        bound = (
            4.0 * sum(abs(e) for e in drive.etas) * math.sqrt(d - 1)
            + 2.0 * kappa * (d - 1)
            + 2.0 * drive.n_qubits * (gamma1 + gamma2)
        )
        if t_end / n_steps * bound > _MAX_DT_NORM:
            raise SpecError(
                f"dt={t_end / n_steps:.3e} times the generator bound {bound:.3e} exceeds "
                f"{_MAX_DT_NORM}, the largest a Lindblad step plan may take"
            )
    stride = max(1, n_steps // records) if records else 1
    try:
        return IntegratorConfig(
            dt=t_end / n_steps,
            t_end=t_end,
            record_stride=stride,
            max_frequency=provider.max_frequency,
        )
    except ValueError as exc:
        raise SpecError(f"step plan rejected: {exc}") from exc


def _write_csv(
    spec: ScenarioSpec,
    cfg: IntegratorConfig | None,
    header: Sequence[str],
    rows: Iterable[Sequence[float]],
    **extra: object,
) -> str:
    # the resolved spec in field order; the plan records dt, and an unset eta_mhz is left out
    meta: dict[str, object] = {}
    for field in fields(spec):
        value = getattr(spec, field.name)
        if field.name not in ("dt_override", "output_path") and value is not None:
            meta[field.name] = list(value) if isinstance(value, tuple) else value
    meta.update(extra)
    if cfg is not None:
        meta.update(dt=cfg.dt_effective, n_steps=cfg.n_steps, record_stride=cfg.record_stride)
    out = Path(spec.output_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8", newline="") as fh:
        for key, value in meta.items():
            # every value is a Python scalar or list, and str of a Python float is its repr
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            # repr of a Python float is the shortest round-trip form: exact re-parse
            fh.write(",".join(map(repr, map(float, row))) + "\n")
    return str(out)


def run_bell(spec: ScenarioSpec) -> dict:
    """Two-qubit entangling run: open-system fidelity against the Bell target.

    Integrates the master equation under the spin-dependent force drive over
    n_loops closed loops and writes rows (eta_t_over_pi, fidelity, trace,
    purity).  Returns the final fidelity at τ_n.
    """
    spec, space, drive, provider = _resolved(spec, "bell")
    t_end = loop_time(spec.delta_over_eta, spec.n_loops)
    rates = (spec.kappa_over_eta, spec.gamma1_over_eta, spec.gamma2_over_eta)
    cfg = _plan(spec, drive, provider, t_end, records=400, rates=rates)
    initial = QuantumState.from_pure(space, ground_state(space))
    result = evolve_lindblad(provider, DecoherenceRates(*rates), initial, bell_target(), cfg)

    rows = zip(result.times / math.pi, result.fidelities, result.traces, result.purities)
    header = ("eta_t_over_pi", "fidelity", "trace", "purity")
    path = _write_csv(spec, cfg, header, rows, t_end=t_end)
    return {
        "final_fidelity": result.final_fidelity,
        "t_end": t_end,
        "path": path,
        "result": result,
    }


def run_ghz_sweep(spec: ScenarioSpec, m_values: Sequence[float] = DEFAULT_M_SWEEP) -> dict:
    """Sweep the qubit-to-cavity decay ratio m = γ/κ and record the peak GHZ fidelity.

    For each m the N-qubit scenario runs with γ₁ = γ₂ = m·κ over the window
    [0, 2τ_n] (≥500 recorded samples) and the maximum of F(t) is written as a
    row (m, f_max, t_at_max).  Points run one after another in ascending m,
    so the rows and bytes do not depend on the order of ``m_values``.
    """
    spec, space, drive, provider = _resolved(spec, "ghz-sweep")
    ms = _sweep_values("m", m_values, positive=False)
    t_end = 2.0 * loop_time(spec.delta_over_eta, spec.n_loops)
    # the plan serves every point, so it is bounded at the largest γ₁ = γ₂ = m·κ
    gamma = ms[-1] * spec.kappa_over_eta
    # >= 500 steps and about 500 recorded samples across the search window
    cfg = _plan(
        spec,
        drive,
        provider,
        t_end,
        records=500,
        min_steps=500,
        rates=(spec.kappa_over_eta, gamma, gamma),
    )
    target = ghz_target(spec.n_qubits)
    # evolve_lindblad copies initial.rho, so one state serves every point
    initial = QuantumState.from_pure(space, ground_state(space))
    points = []
    for m in ms:
        gamma_m = m * spec.kappa_over_eta
        rates = DecoherenceRates(kappa=spec.kappa_over_eta, gamma1=gamma_m, gamma2=gamma_m)
        result = evolve_lindblad(provider, rates, initial, target, cfg)
        t_at_max, f_max = max_fidelity(result)
        points.append({"m": m, "f_max": f_max, "t_at_max": t_at_max, "result": result})

    rows = [(p["m"], p["f_max"], p["t_at_max"]) for p in points]
    path = _write_csv(spec, cfg, ("m", "f_max", "t_at_max"), rows, m_values=ms, t_window=t_end)
    return {"points": points, "path": path, "t_window": t_end}


def run_trajectory(spec: ScenarioSpec) -> dict:
    """Phase-space loop of the driven cavity: closed form next to a simulated check.

    Writes rows (t, x_plus, p_plus, x_minus, p_minus, x_sim, p_sim): the
    analytic loops of the two σ^x branches (mirror images through the
    origin) and the propagated ⟨x⟩, ⟨p⟩ of the σ^x eigenstate that traces
    the positive-x loop under this drive convention (the -1 eigenstate).
    A closed-system check: validation drops the spec's rates, so the header records none.
    """
    spec, space, drive, provider = _resolved(spec, "trajectory")
    delta = spec.delta_over_eta
    t_end = loop_time(delta, spec.n_loops)
    # exactly 512 rows per loop: the step count is a multiple of the row count
    n_rows = 512 * spec.n_loops
    cfg = _plan(
        spec, drive, provider, t_end, records=n_rows, step_multiple=n_rows, rates=(0.0, 0.0, 0.0)
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
    xs, ps = trajectory(1.0, delta, result.times)
    x_sim = result.observables["x"]
    p_sim = result.observables["p"]

    rows = zip(result.times, xs, ps, -xs, -ps, x_sim, p_sim)
    header = ("t", "x_plus", "p_plus", "x_minus", "p_minus", "x_sim", "p_sim")
    path = _write_csv(spec, cfg, header, rows, t_end=t_end)
    max_dev = max(float(np.abs(x_sim - xs).max()), float(np.abs(p_sim - ps).max()))
    return {
        "path": path,
        "max_sim_deviation": max_dev,
        "analytic_closure": math.hypot(xs[-1], ps[-1]),
        "simulated_closure": math.hypot(x_sim[-1], p_sim[-1]),
        "x_max_analytic": float(xs.max()),
        "result": result,
    }


def run_rwa_scan(spec: ScenarioSpec, omega_values: Sequence[float] = DEFAULT_OMEGA_SCAN) -> dict:
    """Strong-driving validity scan: overlap infidelity between the full and
    drive-only Hamiltonians after one loop, as a function of Ω/η.

    The recorded infidelity is 1 - |⟨ψ_approx(τ)|ψ_full(τ)⟩|² from unitary
    propagation of both Hamiltonians on a common time grid.  Rows are
    (omega_over_eta, infidelity, fitted_local_exponent), where the local
    exponent is the finite-difference log-log slope at each point; the
    overall least-squares slope lands in the metadata and the summary.
    """
    spec, space, drive, approx = _resolved(spec, "rwa-scan")
    omegas = _sweep_values("omega", omega_values, positive=True)
    slow = [w for w in omegas if w < 10.0 * spec.delta_over_eta]
    if slow:
        warnings.warn(
            f"omega values {slow} are not well above delta={spec.delta_over_eta}; "
            "the strong-driving comparison is unreliable there",
            stacklevel=2,
        )
    t_end = loop_time(spec.delta_over_eta, spec.n_loops)
    psi0 = ground_state(space)
    points = []
    # H₂ does not depend on Ω, so the one provider of _resolved serves every point
    for omega in omegas:
        drive = replace(drive, omega=omega)
        full = hamiltonian_h1_provider(drive, space)
        cfg = _plan(spec, drive, full, t_end)
        psi_full = evolve_unitary(full, psi0, cfg)
        psi_approx = evolve_unitary(approx, psi0, cfg)
        infid = 1.0 - abs(np.vdot(psi_approx, psi_full)) ** 2
        points.append({"omega": omega, "infidelity": float(infid)})

    log_w = np.log([p["omega"] for p in points])
    log_i = np.log([p["infidelity"] for p in points])
    n = len(points)
    if n >= 2:
        # central differences inside, one-sided at the two ends
        lo = np.maximum(np.arange(n) - 1, 0)
        hi = np.minimum(np.arange(n) + 1, n - 1)
        exponents = (log_i[hi] - log_i[lo]) / (log_w[hi] - log_w[lo])
        slope = float(np.polyfit(log_w, log_i, 1)[0])
    else:
        exponents, slope = np.full(n, math.nan), math.nan

    rows = [
        (p["omega"], p["infidelity"], exponents[i]) for i, p in enumerate(points)
    ]
    header = ("omega_over_eta", "infidelity", "fitted_local_exponent")
    path = _write_csv(spec, None, header, rows, omega_values=omegas, overall_slope=slope)
    return {"points": points, "slope": slope, "path": path}
