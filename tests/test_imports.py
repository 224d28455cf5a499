"""What importing and running geomgate loads (numpy only, open-system runs included) and writes."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import geomgate

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""

_CLOSED_SYSTEM = """
import geomgate as g
space = g.HilbertSpace(2, 4)
drive = g.DriveParams((1.0, 1.0), (0.0, 0.5), 4.0, omega=25.0)
g.hamiltonian_h1_provider(drive, space)
g.hamiltonian_h2_provider(drive, space)
g.bell_target()
g.ghz_target(3)
g.QuantumState.from_pure(space, g.ground_state(space))
g.run_trajectory(g.ScenarioSpec(kind="trajectory", cavity_dim=4, output_path=OUT))
"""

_OPEN_SYSTEM = """
import geomgate as g
g.run_bell(g.ScenarioSpec(kind="bell", cavity_dim=4, kappa_over_eta=0.01, output_path=OUT))
"""


def _scipy_modules_after(script: str, out: pathlib.Path) -> list[str]:
    # a fresh interpreter: this test process has long since loaded scipy
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = f"OUT = {str(out)!r}\n{script}{_REPORT}"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "script,csv_name",
    [(_CLOSED_SYSTEM, "trajectory.csv"), (_OPEN_SYSTEM, "bell.csv")],
    ids=["closed-system", "open-system"],
)
def test_runs_load_no_scipy(tmp_path, script, csv_name):
    # the open-system run builds the Lindblad dissipator; the closed-system one does not
    assert _scipy_modules_after(script, tmp_path / csv_name) == []


def test_matexp_is_one_object_under_every_name():
    # perfbench/tracing.py patches dynamics.matexp and model.matexp by name; a
    # missing or diverging alias breaks every traced benchmark run
    assert geomgate.dynamics.matexp is geomgate.model.matexp is geomgate.core.matexp


def test_public_names():
    # the package's public surface, pinned: a removal or an addition is a test edit
    names = sorted(geomgate.__all__)
    assert len(set(names)) == len(names)
    assert names == [
        "CAVITY", "DEFAULT_M_SWEEP", "DEFAULT_OMEGA_SCAN", "DecoherenceRates", "DriveParams",
        "EvolutionResult", "HilbertSpace", "IntegratorConfig", "IntegratorError",
        "QuantumState", "SIGMA_MINUS", "SIGMA_X", "SIGMA_Z", "ScenarioSpec", "SpecError",
        "__version__", "annihilation", "bell_target", "default_dt", "effective_all_to_all",
        "effective_coupling", "embed", "evolve_lindblad", "evolve_unitary", "fock_state",
        "gate_unitary", "ghz_target", "ground_state", "hamiltonian_h1_provider",
        "hamiltonian_h2_provider", "loop_time", "matexp", "max_fidelity", "pair_coupling_rate",
        "quadrature_p", "quadrature_x", "run_bell", "run_ghz_sweep", "run_rwa_scan",
        "run_trajectory", "theta_of_schedule", "trajectory",
    ]


def _print_calls(path: pathlib.Path) -> list[int]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]


def test_only_the_cli_prints():
    # library code reports through `logging`; the terminal belongs to the CLI, whose own
    # calls show that the scan finds them
    modules = sorted((SRC / "geomgate").glob("*.py"))
    calls = {path.name: _print_calls(path) for path in modules}
    assert calls.pop("cli.py")
    assert {name: lines for name, lines in calls.items() if lines} == {}
