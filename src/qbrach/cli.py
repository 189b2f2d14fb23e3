"""Command-line interface: load problems, dispatch solvers, emit results.

Subcommands: solve-free, solve-closed, solve-m1, solve-2qubit, shoot,
verify, sweep-m1.  Solutions are written as compact JSON with floats in
Python's shortest round-trip form: every float64 reads back bit for bit,
identical inputs give byte-identical output, and NaN and infinities are
written as the NaN, Infinity and -Infinity tokens.  `--csv` adds a
plot-ready table of t, multipliers, energy spread and constraint residuals.
Exit codes: 0 success, 1 validation failure, 2 no solution, 3 numerical
failure, which includes a solution that fails its own certificate (it is
not written).  Set QB_LOG=debug|info|warning for logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import Optional, Tuple

import numpy as np

from .algebra import basis_of
from .dynamics import _MAX_SAMPLES, ControlProblem, MultiplierVector, Trajectory, _from_pairs
from .solvers import (
    ExtremalSolution,
    NoSolutionError,
    shoot,
    solve_closed_subalgebra,
    solve_free,
    solve_m1_two_level,
    solve_two_qubit_example,
    sweep_m1,
)
from .states import PureState
from .verify import Tolerances, certify

log = logging.getLogger("qbrach")


# -- output ------------------------------------------------------------------


def _write_json(doc: dict, path: Optional[str]) -> None:
    """Write `doc` as compact JSON to `path`, or to stdout for None or "-"."""
    text = json.dumps(doc, separators=(",", ":"))
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- problem files -----------------------------------------------------------


def _read_problem(path: str, solvers: Tuple[str, ...]) -> dict:
    """A problem file, parsed once; its optional "solver" field must be one of `solvers`."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("a problem file holds one JSON object")
    solver = data.get("solver")
    if solver is not None and solver not in solvers:
        raise ValueError(
            f"problem file names solver {solver!r} but the subcommand runs {solvers[0]!r}"
        )
    return data


# what a value of the wrong type or shape in a problem file raises while it
# is parsed; every one of them is invalid input
_MALFORMED = (TypeError, IndexError, OverflowError)


def _load_problem(path: str, solvers: Tuple[str, ...]) -> Tuple[ControlProblem, dict]:
    data = _read_problem(path, solvers)
    try:
        if int(data.get("version", 1)) != 1:
            raise ValueError(f"unsupported problem-file version {data.get('version')}")
        if "dimension" not in data or "omega" not in data or "psi_i" not in data:
            raise ValueError("problem file needs 'dimension', 'omega' and 'psi_i'")
        basis = basis_of(str(data.get("basis", "gellmann")), int(data["dimension"]))
        psi_i = PureState(_from_pairs(data["psi_i"]))
        psi_f = PureState(_from_pairs(data["psi_f"])) if data.get("psi_f") is not None else None
        forbidden = tuple(data.get("forbidden", ()))
        problem = ControlProblem(
            basis=basis,
            psi_i=psi_i,
            omega=float(data["omega"]),
            forbidden=forbidden,
            psi_f=psi_f,
        )
        return problem, dict(data.get("solver_params", {}))
    except _MALFORMED as exc:
        raise ValueError(f"malformed problem file: {exc}") from exc


def _seed_from_params(params: dict, problem: ControlProblem) -> Tuple[np.ndarray, MultiplierVector]:
    if "H0" not in params:
        raise ValueError("solver_params must supply the seed Hamiltonian 'H0' as [re, im] pairs")
    try:
        H0 = _from_pairs(params["H0"])
        lam0 = float(params.get("lambda0", 1.0))
        lams = np.asarray(params.get("lambdas", np.zeros(problem.n_forbidden)), dtype=float)
    except _MALFORMED as exc:
        raise ValueError(f"malformed solver_params: {exc}") from exc
    if lam0 == 0.0:
        raise ValueError("solver_params.lambda0 = 0 is a singular gauge")
    return H0, MultiplierVector(lam0, lams)


def _number(flag: Optional[float], params: dict, key: str) -> Optional[float]:
    """The command-line value, else params[key] as a float, else None."""
    if flag is not None:
        return flag
    value = params.get(key)
    if value is None:
        return None
    try:
        return float(value)
    except _MALFORMED + (ValueError,) as exc:
        raise ValueError(f"{key} must be a number, got {value!r}") from exc


def _count(params: dict, key: str, default: int) -> int:
    """params[key] as a whole number, else `default`."""
    value = _number(None, params, key)
    if value is not None and not value.is_integer():
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return default if value is None else int(value)


def _parse_grid(spec: str) -> Tuple[np.ndarray, np.ndarray]:
    """Parse 'a,b,n x c,d,m' (or with the multiplication sign) into two grids.

    A grid of more than `_MAX_SAMPLES` cells is refused before either half
    is built.
    """
    txt = spec.replace("×", "x")
    if "x" in txt:
        left, _, right = txt.partition("x")
        halves = [left, right]
    else:
        flat = [p for p in txt.split(",") if p.strip() != ""]
        if len(flat) != 6:
            raise ValueError(
                "grid must be 'min,max,n x min,max,m' (six numbers); got " + spec
            )
        halves = [",".join(flat[:3]), ",".join(flat[3:])]
    specs = []
    for half in halves:
        vals = [p.strip() for p in half.split(",") if p.strip() != ""]
        if len(vals) != 3:
            raise ValueError(f"each grid half needs 'min,max,count': {half!r}")
        lo, hi, n = float(vals[0]), float(vals[1]), int(vals[2])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid bounds must be finite: {half!r}")
        if n < 1:
            raise ValueError(f"grid count must be at least 1, got {n}")
        specs.append((lo, hi, n))
    cells = specs[0][2] * specs[1][2]
    if cells > _MAX_SAMPLES:
        raise ValueError(f"the grid has {cells} cells, more than {_MAX_SAMPLES}")
    return tuple(np.linspace(*spec) for spec in specs)


def _solution_out(args, sol: ExtremalSolution) -> None:
    """Write a solution; one whose certificate fails is refused, nothing written."""
    if sol.report is not None and not sol.report.passed:
        failed = [k for k, ok in sol.report.verdict.items() if not ok and k != "overall"]
        raise ArithmeticError(
            f"the solution fails its certificate ({', '.join(failed)}); nothing written"
        )
    _write_json(sol.to_dict(), args.output)
    if getattr(args, "csv", None):
        if sol.trajectory is None:
            raise ValueError("the degenerate T = 0 solution has no trajectory to export")
        sol.trajectory.to_csv(args.csv)


# -- subcommand handlers -----------------------------------------------------


def _cmd_solve_free(args) -> int:
    problem, params = _load_problem(args.input, ("free",))
    if problem.psi_f is None:
        raise ValueError("solve-free needs 'psi_f' in the problem file")
    sol = solve_free(problem.psi_i, problem.psi_f, problem.omega, dt=_number(args.dt, params, "dt"))
    _solution_out(args, sol)
    return 0


def _cmd_solve_closed(args) -> int:
    problem, params = _load_problem(args.input, ("closed_subalgebra",))
    H0, m0 = _seed_from_params(params, problem)
    t_max = _number(args.t_max, params, "t_max")
    if t_max is None:
        raise ValueError("solve-closed needs --t-max (or solver_params.t_max)")
    sol = solve_closed_subalgebra(problem, H0, m0, t_max, dt=_number(args.dt, params, "dt"))
    _solution_out(args, sol)
    return 0


def _cmd_solve_m1(args) -> int:
    data: dict = {}
    params: dict = {}
    if args.input:
        data = _read_problem(args.input, ("m1_two_level",))
        params = data.get("solver_params", {})
        if not isinstance(params, dict):
            raise ValueError("solver_params must be a JSON object")
    omega_b = _number(args.omega_b, params, "omega_b")
    phi = _number(args.phi, params, "phi")
    omega = _number(args.omega, data, "omega")
    if omega_b is None or phi is None or omega is None:
        raise ValueError("solve-m1 needs --omega-b, --phi and --omega")
    if _number(args.dt, params, "dt") is not None:
        raise ValueError(
            "solve-m1 takes no --dt: each branch's certified step follows from its flow"
        )
    branches = solve_m1_two_level(
        omega_b, phi, omega, k_max=_count(params, "k_max", 20), l_max=_count(params, "l_max", 20)
    )
    doc = {
        "kind": "m1_two_level",
        "T_min": branches[0].T,
        "n_branches": len(branches),
        "branches": [sol.to_dict() for sol in branches],
    }
    _write_json(doc, args.output)
    if args.csv:
        branches[0].trajectory.to_csv(args.csv)
    return 0


def _cmd_solve_2qubit(args) -> int:
    if args.omega_b is None or args.omega is None:
        raise ValueError("solve-2qubit needs --omega-b and --omega")
    sol = solve_two_qubit_example(args.omega_b, args.omega, dt=args.dt)
    _solution_out(args, sol)
    return 0


def _cmd_shoot(args) -> int:
    problem, params = _load_problem(args.input, ("shot", "shoot"))
    H0, m0 = _seed_from_params(params, problem)
    t_max = _number(args.t_max, params, "t_max")
    if t_max is None:
        raise ValueError("shoot needs --t-max (or solver_params.t_max)")
    sol = shoot(
        problem,
        H0,
        m0,
        t_max,
        dt=_number(args.dt, params, "dt"),
        target_bures_angle=_number(args.target_bures_angle, params, "target_bures_angle"),
    )
    _solution_out(args, sol)
    return 0


def _verify_one(traj_dict: dict, embedded: Optional[dict], args) -> bool:
    traj = Trajectory.from_dict(traj_dict)
    tols = Tolerances.analytic() if args.tol == "analytic" else Tolerances.integrated()
    report = certify(traj, tols, gate=args.gate)
    sys.stdout.write(report.render_table() + "\n")
    ok = report.passed
    if embedded is not None:
        worst = 0.0
        fresh = report.as_dict()
        for key, old in embedded.items():
            if key in ("verdict",) or key not in fresh:
                continue
            new = fresh[key]
            if isinstance(old, bool) or isinstance(new, bool) or old is None or new is None:
                continue
            if isinstance(old, (int, float)) and isinstance(new, (int, float)):
                dev = abs(float(new) - float(old))
                if math.isnan(dev) or dev > worst:  # max() would drop a NaN
                    worst = dev
        sys.stdout.write(
            f"round-trip agreement with embedded report: max deviation {worst:.3e}\n"
        )
        if not worst <= 1e-12:
            sys.stdout.write("round-trip FAIL: recomputed residuals deviate beyond 1e-12\n")
            ok = False
    return ok


def _cmd_verify(args) -> int:
    with open(args.path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    ok = True
    if "branches" in data:
        for k, sol in enumerate(data["branches"]):
            sys.stdout.write(f"-- branch {k} --\n")
            if sol.get("trajectory") is None:
                raise ValueError(f"branch {k} carries no trajectory")
            ok = _verify_one(sol["trajectory"], sol.get("report"), args) and ok
    elif "trajectory" in data:
        if data["trajectory"] is None:
            raise ValueError("the solution carries no trajectory (degenerate T = 0)")
        ok = _verify_one(data["trajectory"], data.get("report"), args)
    elif "times" in data:
        ok = _verify_one(data, None, args)
    else:
        raise ValueError(
            "unrecognized file: expected a solution (with 'trajectory'), a "
            "branch list, or a bare trajectory (with 'times')"
        )
    return 0 if ok else 1


def _cmd_sweep_m1(args) -> int:
    if not args.grid:
        raise ValueError("sweep-m1 needs --grid 'min,max,n x min,max,m'")
    lam_grid, t_grid = _parse_grid(args.grid)
    fields = sweep_m1(lam_grid, t_grid, omega=args.omega)
    doc = {
        "kind": "sweep_m1",
        "omega": args.omega,
        **{name: values.tolist() for name, values in fields.items()},
    }
    _write_json(doc, args.output)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("lambda1_tilde,T,amplitude,im_field,re_field\n")
            for i, lam in enumerate(fields["lambda1_tilde"]):
                for j, t in enumerate(fields["T"]):
                    fh.write(
                        f"{lam:.17g},{t:.17g},{fields['amplitude'][i, j]:.17g},"
                        f"{fields['im_field'][i, j]:.17g},{fields['re_field'][i, j]:.17g}\n"
                    )
    return 0


# -- argument parsing --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbrach",
        description="Minimum-time quantum evolution under energy and "
        "forbidden-direction constraints: solvers and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input: bool = False, input_optional: bool = False):
        if needs_input or input_optional:
            p.add_argument(
                "--input", "-i", required=needs_input, help="problem JSON file"
            )
        p.add_argument("--output", "-o", default=None, help="output JSON (default stdout)")
        p.add_argument("--csv", default=None, help="also write a plot-ready CSV table")
        p.add_argument(
            "--dt", type=float, default=None,
            help="cap on the certified sample step, itself at most 1e-3/omega (1.5e-3/omega "
            "for solve-free); refused where it needs more than 200,000 samples; for shoot "
            "also the integration step; solve-m1 takes none",
        )

    p = sub.add_parser("solve-free", help="unrestricted minimum-time evolution")
    common(p, needs_input=True)
    p.set_defaults(func=_cmd_solve_free)

    p = sub.add_parser("solve-closed", help="closed-subalgebra constant-multiplier solution")
    common(p, needs_input=True)
    p.add_argument("--t-max", type=float, default=None, help="endpoint search window")
    p.set_defaults(func=_cmd_solve_closed)

    p = sub.add_parser("solve-m1", help="two-level problem with sigma_z forbidden")
    common(p, input_optional=True)
    p.add_argument("--omega-b", type=float, default=None, help="Bures angle")
    p.add_argument("--phi", type=float, default=None, help="relative phase of the target")
    p.add_argument("--omega", type=float, default=None, help="energy scale")
    p.set_defaults(func=_cmd_solve_m1)

    p = sub.add_parser("solve-2qubit", help="two-qubit example with local terms forbidden")
    common(p)
    p.add_argument("--omega-b", type=float, default=None, help="Bures angle")
    p.add_argument("--omega", type=float, default=None, help="energy scale")
    p.set_defaults(func=_cmd_solve_2qubit)

    p = sub.add_parser("shoot", help="forward shooting to the endpoint condition")
    common(p, needs_input=True)
    p.add_argument("--t-max", type=float, default=None, help="integration window")
    p.add_argument(
        "--target-bures-angle",
        type=float,
        default=None,
        help="stopping angle when the endpoint condition is degenerate",
    )
    p.set_defaults(func=_cmd_shoot)

    p = sub.add_parser("verify", help="re-certify a stored trajectory or solution")
    p.add_argument("path", help="solution or trajectory JSON file")
    p.add_argument(
        "--tol",
        choices=("analytic", "integrated"),
        default="integrated",
        help="tolerance preset (default integrated)",
    )
    p.add_argument(
        "--gate",
        action="store_true",
        help="also check the trace form Tr[H(T)F(T)] = 1",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep-m1", help="endpoint-condition fields on a (lambda1~, T) grid")
    p.add_argument("--grid", required=True, help="'min,max,n x min,max,m'")
    p.add_argument("--omega", type=float, default=10.0, help="energy scale (default 10)")
    p.add_argument("--output", "-o", default=None, help="output JSON (default stdout)")
    p.add_argument("--csv", default=None, help="also write the grid as CSV rows")
    p.set_defaults(func=_cmd_sweep_m1)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("QB_LOG", "").upper()
    if level:
        logging.basicConfig(level=getattr(logging, level, logging.INFO))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoSolutionError as exc:
        sys.stderr.write(f"no solution: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
