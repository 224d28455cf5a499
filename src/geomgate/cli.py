"""Command-line entry point: ``geomgate <scenario> [flags]`` emitting CSV artifacts.

Exit codes: 0 success, 2 invalid scenario spec, 3 integrator abort.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .dynamics import IntegratorError
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


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n-qubits", type=int, help="number of driven qubits")
    common.add_argument(
        "--delta-over-eta", type=float, default=4.0, help="drive-cavity detuning (units of eta)"
    )
    common.add_argument("--n-loops", type=int, default=1, help="closed phase-space loops n")
    common.add_argument(
        "--phi", type=float, nargs="+", metavar="RAD", help="per-qubit drive phases (radians)"
    )
    common.add_argument("--kappa-over-eta", type=float, default=1e-3, help="cavity decay rate")
    common.add_argument("--gamma1-over-eta", type=float, default=1e-3, help="qubit decay rate")
    common.add_argument("--gamma2-over-eta", type=float, default=1e-3, help="qubit dephasing rate")
    common.add_argument("--cavity-dim", type=int, help="Fock truncation of the cavity")
    common.add_argument(
        "--dt-over-eta", type=float, help="integration step override (units of 1/eta)"
    )
    common.add_argument("--out", help="output CSV path (default <scenario>.csv)")
    common.add_argument(
        "--eta-mhz", type=float, help="annotate outputs with a physical eta/2pi in MHz"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomgate",
        description="Geometric-phase entangling-gate simulations for driven qubits in a cavity",
    )
    sub = parser.add_subparsers(dest="kind", required=True)

    # one fresh parent per subcommand: set_defaults must not leak across
    # subparsers through shared action objects
    bell = sub.add_parser("bell", parents=[_common_flags()], help="two-qubit Bell fidelity dynamics")
    bell.set_defaults(n_qubits=2, cavity_dim=16)

    ghz = sub.add_parser(
        "ghz-sweep", parents=[_common_flags()], help="peak GHZ fidelity vs decay ratio m = gamma/kappa"
    )
    ghz.set_defaults(n_qubits=4, cavity_dim=24)
    ghz.add_argument(
        "--m-values", type=float, nargs="+", default=list(DEFAULT_M_SWEEP),
        help="decay ratios m to sweep",
    )

    traj = sub.add_parser(
        "trajectory", parents=[_common_flags()], help="cavity phase-space loop, analytic vs simulated"
    )
    traj.set_defaults(n_qubits=1, cavity_dim=16)

    rwa = sub.add_parser(
        "rwa-scan", parents=[_common_flags()], help="strong-driving infidelity scan over Rabi strength"
    )
    rwa.set_defaults(n_qubits=2, cavity_dim=16)
    rwa.add_argument(
        "--omega-values", type=float, nargs="+", default=list(DEFAULT_OMEGA_SCAN),
        help="Rabi strengths (units of eta) to scan",
    )
    return parser


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    return ScenarioSpec(
        kind=args.kind,
        n_qubits=args.n_qubits,
        delta_over_eta=args.delta_over_eta,
        n_loops=args.n_loops,
        phis=tuple(args.phi) if args.phi else None,
        kappa_over_eta=args.kappa_over_eta,
        gamma1_over_eta=args.gamma1_over_eta,
        gamma2_over_eta=args.gamma2_over_eta,
        cavity_dim=args.cavity_dim,
        dt_override=args.dt_over_eta,
        output_path=args.out or "",
        eta_mhz=args.eta_mhz,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    spec = _spec_from_args(args)
    # the runners are module globals looked up at call time, so replacing them here takes effect
    try:
        if args.kind == "bell":
            summary = run_bell(spec)
            lines = [
                f"bell: F(tau_{spec.n_loops}) = {summary['final_fidelity']:.6f} "
                f"at eta*t/pi = {summary['t_end'] / math.pi:.6f}"
            ]
        elif args.kind == "ghz-sweep":
            summary = run_ghz_sweep(spec, args.m_values)
            lines = [
                f"ghz-sweep: m={point['m']:g} f_max={point['f_max']:.6f} at t={point['t_at_max']:.6f}"
                for point in summary["points"]
            ]
        elif args.kind == "trajectory":
            summary = run_trajectory(spec)
            lines = [
                f"trajectory: max|sim-analytic| = {summary['max_sim_deviation']:.3e}, "
                f"simulated closure = {summary['simulated_closure']:.3e}"
            ]
        else:
            summary = run_rwa_scan(spec, args.omega_values)
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
