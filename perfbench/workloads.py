"""The benchmark's three workloads, each a closed loop of scenario operations.

One operation is one scenario call that writes its CSV.  Each workload
draws the inputs of an operation from the run's seeded generator, calls the
runners through the ``geomgate.scenarios`` module it is handed (so a traced
run sees its patched names), and checks the returned values against
references frozen from the seed implementation.

Why these workloads:

* ``ghz-n4`` loads the dense Lindblad kernel (H·ρ, dissipator, positivity
  ``eigvalsh``) at N=4 and runs two m-points through the sweep pool.
* ``rwa-scan`` never touches the Lindblad kernel: its work is
  ``evolve_unitary`` -> ``matexp`` (one ``eigh`` per step) and the H1/H2
  providers, two Ω-points through the sweep pool.  It is the bypass
  workload for any Lindblad change.
* ``bell-traj`` is small matrices and many records: per-call Python
  overhead and per-record work, one integration per call and no pool.

GHZ runs at d=8 and the RWA scan at d=8 with Ω ∈ {25, 50} rather than at
the CLI defaults (d=24, d=16 with four Ω), so that one operation takes
seconds, a run holds several of them, and a full set of runs fits its
time budget.  The RWA operation is the one whose wall time varies most
from call to call (two pool threads each drive multi-threaded BLAS), so it
is sized for about eight operations per run.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

# Absolute tolerance on every frozen reference value (fidelities, infidelities,
# slope, trajectory deviations).  Roundoff between BLAS builds is ~1e-14; a
# wrong kernel moves these values by far more.
TOLERANCE = 1e-9

DELTA = 4.0


def _header_steps(path: str) -> int:
    """The ``# n_steps=`` value a runner wrote into its CSV header."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            if line.startswith("# n_steps="):
                return int(line.split("=", 1)[1])
    raise ValueError(f"{path} has no n_steps header line")


class GhzSweep:
    name = "ghz-n4"

    def __init__(self, smoke: bool) -> None:
        if smoke:
            self.n_qubits, self.cavity_dim, self.m_values = 2, 8, (1.0,)
            self.reference = {
                "f_max[m=1.0]": 0.9968675032610881,
                "t_at_max[m=1.0]": 1.5707963267948966,
            }
        else:
            self.n_qubits, self.cavity_dim, self.m_values = 4, 8, (1.0, 2.0)
            self.reference = {
                "f_max[m=1.0]": 0.9822606362919776,
                "t_at_max[m=1.0]": 1.5456635855661782,
                "f_max[m=2.0]": 0.9762720391881965,
                "t_at_max[m=2.0]": 1.5456635855661782,
            }

    def inputs(self, rng: random.Random) -> list[float]:
        """The m-values in a seeded order; the runner sorts them, so the CSV bytes must not change."""
        ms = list(self.m_values)
        rng.shuffle(ms)
        return ms

    def run(self, scenarios, inputs: list[float], out: Path) -> tuple[dict[str, float], list[str]]:
        spec = scenarios.ScenarioSpec(
            kind="ghz-sweep",
            n_qubits=self.n_qubits,
            cavity_dim=self.cavity_dim,
            output_path=str(out / "ghz-sweep.csv"),
        )
        result = scenarios.run_ghz_sweep(spec, inputs)
        values = {}
        for p in result["points"]:
            values[f"f_max[m={p['m']}]"] = p["f_max"]
            values[f"t_at_max[m={p['m']}]"] = p["t_at_max"]
        return values, [result["path"]]

    def steps(self, geomgate, paths: list[str]) -> int:
        return _header_steps(paths[0]) * len(self.m_values)

    def build(self, geomgate) -> None:
        space = geomgate.HilbertSpace(n_qubits=self.n_qubits, cavity_dim=self.cavity_dim)
        drive = geomgate.DriveParams(
            etas=(1.0,) * self.n_qubits, phis=(0.0,) * self.n_qubits, delta=DELTA
        )
        geomgate.hamiltonian_h2_provider(drive, space)
        geomgate.ghz_target(self.n_qubits)
        geomgate.QuantumState.from_pure(space, geomgate.ground_state(space))


class RwaScan:
    name = "rwa-scan"

    def __init__(self, smoke: bool) -> None:
        self.n_qubits = 2
        self.cavity_dim = 8
        if smoke:
            self.omegas = (25.0,)
            self.reference = {"infidelity[omega=25.0]": 0.03733177638725771}
        else:
            self.omegas = (25.0, 50.0)
            self.reference = {
                "infidelity[omega=25.0]": 0.03733177638725771,
                "infidelity[omega=50.0]": 0.007233377348228931,
                "slope": -2.3676628384327407,
            }

    def inputs(self, rng: random.Random) -> list[float]:
        """The Ω-values in a seeded order; the runner sorts them, so the CSV bytes must not change."""
        omegas = list(self.omegas)
        rng.shuffle(omegas)
        return omegas

    def run(self, scenarios, inputs: list[float], out: Path) -> tuple[dict[str, float], list[str]]:
        spec = scenarios.ScenarioSpec(
            kind="rwa-scan",
            n_qubits=self.n_qubits,
            cavity_dim=self.cavity_dim,
            output_path=str(out / "rwa-scan.csv"),
        )
        result = scenarios.run_rwa_scan(spec, inputs)
        values = {f"infidelity[omega={p['omega']}]": p["infidelity"] for p in result["points"]}
        if len(result["points"]) > 1:
            values["slope"] = result["slope"]
        return values, [result["path"]]

    def _drive(self, geomgate, omega: float):
        return geomgate.DriveParams(
            etas=(1.0,) * self.n_qubits, phis=(0.0,) * self.n_qubits, delta=DELTA, omega=omega
        )

    def steps(self, geomgate, paths: list[str]) -> int:
        """Σ n_steps of both propagations per Ω, from the public step plan (the CSV records none)."""
        t_end = geomgate.loop_time(DELTA, 1)
        return sum(
            2 * geomgate.IntegratorConfig(
                dt=geomgate.default_dt(self._drive(geomgate, w)), t_end=t_end
            ).n_steps
            for w in self.omegas
        )

    def build(self, geomgate) -> None:
        space = geomgate.HilbertSpace(n_qubits=self.n_qubits, cavity_dim=self.cavity_dim)
        for w in self.omegas:
            drive = self._drive(geomgate, w)
            geomgate.hamiltonian_h1_provider(drive, space)
            geomgate.hamiltonian_h2_provider(drive, space)
        geomgate.ground_state(space)


class BellTrajectory:
    name = "bell-traj"
    cavity_dim = 16

    def __init__(self, smoke: bool) -> None:
        # one operation is already small; the smoke run uses the full size
        self.reference = {
            "bell.final_fidelity": 0.9968693429432962,
            "trajectory.max_sim_deviation": 5.568767669217323e-12,
            "trajectory.simulated_closure": 4.2016912151227135e-16,
        }

    def inputs(self, rng: random.Random) -> list[str]:
        """The order of the two calls inside one operation."""
        order = ["bell", "trajectory"]
        rng.shuffle(order)
        return order

    def run(self, scenarios, inputs: list[str], out: Path) -> tuple[dict[str, float], list[str]]:
        values: dict[str, float] = {}
        paths: dict[str, str] = {}
        for kind in inputs:
            spec = scenarios.ScenarioSpec(
                kind=kind, cavity_dim=self.cavity_dim, output_path=str(out / f"{kind}.csv")
            )
            if kind == "bell":
                result = scenarios.run_bell(spec)
                values["bell.final_fidelity"] = result["final_fidelity"]
            else:
                result = scenarios.run_trajectory(spec)
                values["trajectory.max_sim_deviation"] = result["max_sim_deviation"]
                values["trajectory.simulated_closure"] = result["simulated_closure"]
            paths[kind] = result["path"]
        return values, [paths["bell"], paths["trajectory"]]

    def steps(self, geomgate, paths: list[str]) -> int:
        return sum(_header_steps(p) for p in paths)

    def build(self, geomgate) -> None:
        import numpy as np

        d = self.cavity_dim
        bell_space = geomgate.HilbertSpace(n_qubits=2, cavity_dim=d)
        bell_drive = geomgate.DriveParams(etas=(1.0, 1.0), phis=(0.0, 0.0), delta=DELTA)
        geomgate.hamiltonian_h2_provider(bell_drive, bell_space)
        geomgate.bell_target()
        geomgate.QuantumState.from_pure(bell_space, geomgate.ground_state(bell_space))

        space = geomgate.HilbertSpace(n_qubits=1, cavity_dim=d)
        drive = geomgate.DriveParams(etas=(1.0,), phis=(0.0,), delta=DELTA)
        geomgate.hamiltonian_h2_provider(drive, space)
        geomgate.embed(geomgate.quadrature_x(d), geomgate.CAVITY, space)
        geomgate.embed(geomgate.quadrature_p(d), geomgate.CAVITY, space)
        qubit_minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
        psi0 = np.kron(qubit_minus, geomgate.fock_state(d, 0))
        geomgate.QuantumState.from_pure(space, psi0)


WORKLOADS = {w.name: w for w in (GhzSweep, RwaScan, BellTrajectory)}


def check(reference: dict[str, float], values: dict[str, float]) -> list[str]:
    """Every reference value must be matched within ``TOLERANCE``; returns the misses."""
    problems = []
    for key, ref in reference.items():
        got = values.get(key)
        if got is None or not math.isfinite(got):
            problems.append(f"{key}: missing or non-finite ({got!r})")
        elif abs(got - ref) > TOLERANCE:
            problems.append(f"{key}: {got!r} differs from reference {ref!r} by {abs(got - ref):.3e}")
    return problems
