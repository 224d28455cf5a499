"""Command-line entry point: ``geomgate <scenario> [flags]`` emitting CSV artifacts.

Exit codes: 0 success, 2 invalid scenario spec, 3 integrator abort.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from typing import Sequence

from .dynamics import IntegratorError
from .scenarios import (
    ScenarioSpec,
    SpecError,
    run_bell,
    run_ghz_sweep,
    run_rwa_scan,
    run_trajectory,
)


def build_parser() -> argparse.ArgumentParser:
    # each dest is a ScenarioSpec field or a sweep argument; an absent flag keeps its default
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--n-qubits", type=int, help="number of driven qubits")
    common.add_argument("--delta-over-eta", type=float, help="drive-cavity detuning (units of eta)")
    common.add_argument("--n-loops", type=int, help="closed phase-space loops n")
    common.add_argument(
        "--phi", dest="phis", type=float, nargs="+", metavar="RAD",
        help="per-qubit drive phases (radians)",
    )
    common.add_argument("--kappa-over-eta", type=float, help="cavity decay rate")
    common.add_argument("--gamma1-over-eta", type=float, help="qubit decay rate")
    common.add_argument("--gamma2-over-eta", type=float, help="qubit dephasing rate")
    common.add_argument("--cavity-dim", type=int, help="Fock truncation of the cavity")
    common.add_argument(
        "--dt-over-eta", dest="dt_override", type=float, metavar="DT_OVER_ETA",
        help="integration step override (units of 1/eta)",
    )
    common.add_argument(
        "--out", dest="output_path", metavar="OUT", help="output CSV path (default <scenario>.csv)"
    )
    common.add_argument(
        "--eta-mhz", type=float, help="annotate outputs with a physical eta/2pi in MHz"
    )

    parser = argparse.ArgumentParser(
        prog="geomgate",
        description="Geometric-phase entangling-gate simulations for driven qubits in a cavity",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    sub.add_parser("bell", parents=[common], help="two-qubit Bell fidelity dynamics")
    ghz = sub.add_parser(
        "ghz-sweep", parents=[common], help="peak GHZ fidelity vs decay ratio m = gamma/kappa"
    )
    ghz.add_argument(
        "--m-values", type=float, nargs="+", default=argparse.SUPPRESS,
        help="decay ratios m to sweep",
    )
    sub.add_parser(
        "trajectory", parents=[common], help="cavity phase-space loop, analytic vs simulated"
    )
    rwa = sub.add_parser(
        "rwa-scan", parents=[common], help="strong-driving infidelity scan over Rabi strength"
    )
    rwa.add_argument(
        "--omega-values", type=float, nargs="+", default=argparse.SUPPRESS,
        help="Rabi strengths (units of eta) to scan",
    )
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    # one line without the source path and line number, so stderr does not depend on the checkout
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    given = vars(build_parser().parse_args(argv))
    sweep = [given.pop(name) for name in ("m_values", "omega_values") if name in given]
    spec = ScenarioSpec(**given)
    # the runners are module globals looked up at call time, so replacing them here takes effect
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            if spec.kind == "bell":
                summary = run_bell(spec)
                lines = [
                    f"bell: F(tau_{spec.n_loops}) = {summary['final_fidelity']:.6f} "
                    f"at eta*t/pi = {summary['t_end'] / math.pi:.6f}"
                ]
            elif spec.kind == "ghz-sweep":
                summary = run_ghz_sweep(spec, *sweep)
                lines = [
                    f"ghz-sweep: m={point['m']:g} f_max={point['f_max']:.6f} "
                    f"at t={point['t_at_max']:.6f}"
                    for point in summary["points"]
                ]
            elif spec.kind == "trajectory":
                summary = run_trajectory(spec)
                lines = [
                    f"trajectory: max|sim-analytic| = {summary['max_sim_deviation']:.3e}, "
                    f"simulated closure = {summary['simulated_closure']:.3e}"
                ]
            else:
                summary = run_rwa_scan(spec, *sweep)
                lines = [
                    f"rwa-scan: omega={point['omega']:g} infidelity={point['infidelity']:.6e}"
                    for point in summary["points"]
                ]
                lines.append(f"rwa-scan: log-log slope = {summary['slope']:.4f}")
    except SpecError as exc:
        print(f"error: invalid scenario: {exc}", file=sys.stderr)
        return 2
    except IntegratorError as exc:
        print(f"error: integration aborted: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    print(f"wrote {summary['path']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
