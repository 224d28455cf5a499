"""Geometric-phase entangling gates for driven qubits coupled through a cavity.

A simulation library and CLI for a driven circuit-QED model: qubits share a
cavity mode and a strong classical drive, producing a spin-dependent force
that drags the cavity around closed phase-space loops.  Each closed loop
imprints a collective geometric phase — an entangling gate — on the qubits.
The package builds the model Hamiltonians, propagates closed (unitary) and
open (Lindblad) dynamics, and reproduces Bell/GHZ fidelities and the
phase-space trajectories as CSV artifacts.

Layers: :mod:`geomgate.core` (operators and states), :mod:`geomgate.model`
(Hamiltonians, gates, analytic results), :mod:`geomgate.dynamics`
(propagation and fidelities), :mod:`geomgate.scenarios` (experiment runners
behind the ``geomgate`` CLI).
"""

from .core import (
    CAVITY,
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HilbertSpace,
    QuantumState,
    annihilation,
    displaced_vacuum,
    embed,
    expectation,
    fock_state,
    ground_state,
    matexp,
    partial_trace_cavity,
    quadrature_p,
    quadrature_x,
)
from .dynamics import (
    DecoherenceRates,
    EvolutionResult,
    IntegratorConfig,
    IntegratorError,
    evolve_lindblad,
    evolve_unitary,
    fidelity,
    max_fidelity,
    propagator_gate_distance,
)
from .model import (
    ETA_REFERENCE_MHZ,
    DriveParams,
    PhysicalParams,
    Trajectory,
    bell_target,
    default_dt,
    effective_all_to_all,
    effective_chain,
    effective_coupling,
    effective_pair_hamiltonian,
    gate_unitary,
    ghz_target,
    hamiltonian_h1_provider,
    hamiltonian_h2_provider,
    loop_time,
    pair_coupling_rate,
    rate_to_mhz,
    theta_of_schedule,
    time_to_us,
    trajectory,
)
from .scenarios import (
    DEFAULT_M_SWEEP,
    DEFAULT_OMEGA_SCAN,
    ScenarioSpec,
    SpecError,
    run_bell,
    run_ghz_sweep,
    run_rwa_scan,
    run_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "CAVITY",
    "IDENTITY_2",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "HilbertSpace",
    "QuantumState",
    "annihilation",
    "displaced_vacuum",
    "embed",
    "expectation",
    "fock_state",
    "ground_state",
    "matexp",
    "partial_trace_cavity",
    "quadrature_p",
    "quadrature_x",
    "DecoherenceRates",
    "EvolutionResult",
    "IntegratorConfig",
    "IntegratorError",
    "evolve_lindblad",
    "evolve_unitary",
    "fidelity",
    "max_fidelity",
    "propagator_gate_distance",
    "ETA_REFERENCE_MHZ",
    "DriveParams",
    "PhysicalParams",
    "Trajectory",
    "bell_target",
    "default_dt",
    "effective_all_to_all",
    "effective_chain",
    "effective_coupling",
    "effective_pair_hamiltonian",
    "gate_unitary",
    "ghz_target",
    "hamiltonian_h1_provider",
    "hamiltonian_h2_provider",
    "loop_time",
    "pair_coupling_rate",
    "rate_to_mhz",
    "theta_of_schedule",
    "time_to_us",
    "trajectory",
    "DEFAULT_M_SWEEP",
    "DEFAULT_OMEGA_SCAN",
    "ScenarioSpec",
    "SpecError",
    "run_bell",
    "run_ghz_sweep",
    "run_rwa_scan",
    "run_trajectory",
    "__version__",
]
