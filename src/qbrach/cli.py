"""Command-line interface: load problems, dispatch solvers, emit results.

Subcommands: solve-free, solve-closed, solve-m1, solve-2qubit, shoot,
verify, sweep-m1.  Solutions are written as compact JSON with floats in
Python's shortest round-trip form: every float64 reads back bit for bit,
identical inputs give byte-identical output, and NaN and infinities are
written as the NaN, Infinity and -Infinity tokens.  `--csv` adds a
plot-ready table of t, multipliers, energy spread and constraint residuals,
written by np.savetxt.
Exit codes: 0 success, 1 usage or validation error, 2 no solution, 3 numerical
failure, which includes a solution that fails its own certificate (it is
not written).  Set QB_LOG=debug|info|warning for logging verbosity.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from typing import Optional, Tuple

import numpy as np

from .algebra import basis_of
from .dynamics import (
    _MAX_SAMPLES, ControlProblem, MultiplierVector, Trajectory, _file_number, _from_pairs,
    _number_array, _whole_number,
)
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


def _nested(shape, cell: str) -> str:
    """`cell` once per element, in the nested brackets JSON writes an array of `shape` in."""
    for n in reversed(shape):
        cell = "[" + ",".join([cell] * n) + "]"
    return cell


def _float_array_text(a: np.ndarray) -> str:
    """A float array as JSON text: json.dumps of each distinct float once, told apart
    by its bits (0.0 is not -0.0), spread over the nested brackets of its shape."""
    keys, where = np.unique(np.ascontiguousarray(a, np.float64).ravel().view(np.int64),
                            return_inverse=True)
    texts = np.array(json.dumps(keys.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    return _nested(a.shape, "%s") % tuple(texts[where].tolist())


def _write_json(doc: dict, path: Optional[str]) -> None:
    """Write `doc` as compact JSON to `path`, or to stdout for None or "-".

    The text is json.dumps(doc, separators=(",", ":")) with every array
    leaf taken as its tolist(), byte for byte.  json.dumps writes a float
    array as a placeholder string, and its text, made in one step, is
    spliced in afterwards.  The whole text is rendered before the file is
    opened, so an error writes nothing.
    """
    arrays: list = []

    def leaf(a):
        if not isinstance(a, np.ndarray):
            raise TypeError(f"an object of type {type(a).__name__} is not JSON serializable")
        if a.dtype.kind in "biu":
            return a.tolist()
        if a.dtype.kind != "f" or a.dtype.itemsize > 8:
            raise TypeError(
                f"an array of dtype {a.dtype} is not JSON serializable; "
                "complex arrays are written as [re, im] pairs"
            )
        arrays.append(_float_array_text(a))
        return "\0"

    pieces = json.dumps(doc, separators=(",", ":"), default=leaf).split('"\\u0000"')
    if len(pieces) != len(arrays) + 1:
        raise ValueError('a string of the document holds "\\u0000", the array placeholder')
    parts = [""] * (2 * len(pieces) - 1)
    parts[::2], parts[1::2] = pieces, arrays
    text = "".join(parts)
    if path is None or path == "-":
        sys.stdout.write(text)
        sys.stdout.write("\n")  # not text + "\n": no second copy of the whole text
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# -- input -------------------------------------------------------------------


def _read_object(path: str, kind: str) -> dict:
    """json.load of a UTF-8 `kind` file, refused unless it holds one JSON object."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"a {kind} file holds one JSON object")
    return data


def _read_problem(path: str, solvers: Tuple[str, ...]) -> dict:
    """A problem file, parsed once; its optional "solver" field must be one of `solvers`."""
    data = _read_object(path, "problem")
    solver = data.get("solver")
    if solver is not None and solver not in solvers:
        raise ValueError(
            f"problem file names solver {solver!r} but the subcommand runs {solvers[0]!r}"
        )
    return data


# what a value of the wrong type or shape in a problem file raises while it
# is parsed; every one of them is invalid input
_MALFORMED = (TypeError, IndexError, OverflowError)


def _field(data: dict, key: str, convert):
    """convert(data[key]), with the field named in a refusal."""
    try:
        return convert(data[key])
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from exc


def _load_problem(path: str, solvers: Tuple[str, ...]) -> Tuple[ControlProblem, dict]:
    data = _read_problem(path, solvers)
    try:
        if _whole_number(data.get("version", 1), "version") != 1:
            raise ValueError(f"unsupported problem-file version {data.get('version')}")
        if "dimension" not in data or "omega" not in data or "psi_i" not in data:
            raise ValueError("problem file needs 'dimension', 'omega' and 'psi_i'")
        dimension = _whole_number(data["dimension"], "dimension")
        basis = basis_of(str(data.get("basis", "gellmann")), dimension)
        psi_i = PureState(_field(data, "psi_i", _from_pairs))
        psi_f = PureState(_field(data, "psi_f", _from_pairs)) if data.get("psi_f") is not None else None
        forbidden = tuple(data.get("forbidden", ()))
        problem = ControlProblem(
            basis=basis,
            psi_i=psi_i,
            omega=_file_number(data["omega"], "omega"),
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
        H0 = _field(params, "H0", _from_pairs)
        lam0 = _file_number(params.get("lambda0", 1.0), "lambda0")
        lams = (_field(params, "lambdas", _number_array) if "lambdas" in params
                else np.zeros(problem.n_forbidden))
    except _MALFORMED as exc:
        raise ValueError(f"malformed solver_params: {exc}") from exc
    if lam0 == 0.0:
        raise ValueError("solver_params.lambda0 = 0 is a singular gauge")
    return H0, MultiplierVector(lam0, lams)


def _number(flag: Optional[float], params: dict, key: str) -> Optional[float]:
    """The command-line value, else the number params[key] as a float, else None."""
    if flag is not None:
        return flag
    value = params.get(key)
    return None if value is None else _file_number(value, key)


def _count(params: dict, key: str, default: int) -> int:
    """params[key] as a whole number, else `default`."""
    value = _number(None, params, key)
    return default if value is None else _whole_number(value, key)


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


def _refuse_failed(*sols: ExtremalSolution) -> None:
    """ArithmeticError (exit 3) when a solution's certificate fails."""
    for sol in sols:
        if sol.report is not None and not sol.report.passed:
            failed = [k for k, ok in sol.report.verdict.items() if not ok and k != "overall"]
            raise ArithmeticError(
                f"the solution fails its certificate ({', '.join(failed)}); nothing written"
            )


def _solution_out(args, sol: ExtremalSolution) -> None:
    """Write a solution; one whose certificate fails is refused, nothing written."""
    _refuse_failed(sol)
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
    _refuse_failed(*branches)
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


_ABSENT = object()


def _report_fields(report: dict) -> dict:
    """A report's fields by name, each verdict as its own `verdict.<check>`."""
    out = {}
    for key, value in report.items():
        if isinstance(value, dict):
            out.update((f"{key}.{k}", v) for k, v in value.items())
        else:
            out[key] = value
    return out


def _verify_one(traj_dict: dict, embedded: Optional[dict], args) -> bool:
    try:
        traj = Trajectory.from_dict(traj_dict)
        stored = None if embedded is None else _report_fields(embedded)
    except _MALFORMED + (AttributeError,) as exc:
        raise ValueError(f"malformed trajectory or report: {exc}") from exc
    tols = Tolerances.analytic() if args.tol == "analytic" else Tolerances.integrated()
    report = certify(traj, tols)
    sys.stdout.write(report.render_table() + "\n")
    ok = report.passed
    if stored is not None:
        # numbers agree to 1e-12; every other field, and which fields there
        # are, exactly
        worst, worst_key, differs = 0.0, None, None
        fresh = _report_fields(report.as_dict())
        for key in [*fresh, *(k for k in stored if k not in fresh)]:
            old, new = stored.get(key, _ABSENT), fresh.get(key, _ABSENT)
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
                dev = abs(float(new) - float(old))
                if math.isnan(dev) or dev > worst:  # max() would drop a NaN
                    worst, worst_key = dev, key
            elif differs is None and not (type(old) is type(new) and old == new):
                shown = ["missing" if v is _ABSENT else json.dumps(v) for v in (old, new)]
                differs = f"{key} is {shown[0]}, recomputed {shown[1]}"
        sys.stdout.write(
            f"round-trip agreement with embedded report: max deviation {worst:.3e}\n"
        )
        if not worst <= 1e-12:
            sys.stdout.write(
                f"round-trip FAIL: recomputed {worst_key} deviates from the embedded "
                f"report by {worst:.3e}, beyond 1e-12\n"
            )
            ok = False
        if differs is not None:
            sys.stdout.write(f"round-trip FAIL: the embedded report's {differs}\n")
            ok = False
    return ok


def _cmd_verify(args) -> int:
    data = _read_object(args.path, "solution")
    try:
        if "branches" in data:
            # a solution's report is compared field by field: a null or
            # missing one differs in every field
            found = [
                (f"-- branch {k} --\n", sol.get("trajectory"), sol.get("report") or {})
                for k, sol in enumerate(data["branches"])
            ]
        elif "trajectory" in data:
            found = [("", data["trajectory"], data.get("report") or {})]
        elif "times" in data:
            found = [("", data, None)]
        else:
            raise ValueError(
                "unrecognized file: expected a solution (with 'trajectory'), a "
                "branch list, or a bare trajectory (with 'times')"
            )
    except _MALFORMED + (AttributeError,) as exc:
        raise ValueError(f"malformed solution file: {exc}") from exc
    if not found:
        raise ValueError("malformed solution file: the branch list is empty")
    ok = True
    for k, (heading, traj, report) in enumerate(found):
        sys.stdout.write(heading)
        if traj is None:
            raise ValueError(
                f"branch {k} carries no trajectory" if heading
                else "the solution carries no trajectory (degenerate T = 0)"
            )
        ok = _verify_one(traj, report, args) and ok
    return 0 if ok else 1


def _cmd_sweep_m1(args) -> int:
    if not args.grid:
        raise ValueError("sweep-m1 needs --grid 'min,max,n x min,max,m'")
    lam_grid, t_grid = _parse_grid(args.grid)
    fields = sweep_m1(lam_grid, t_grid, omega=args.omega)
    doc = {
        "kind": "sweep_m1",
        "omega": args.omega,
        **fields,
    }
    _write_json(doc, args.output)
    if args.csv:
        names = ("lambda1_tilde", "T", "amplitude", "im_field", "re_field")
        lam, t = np.meshgrid(fields["lambda1_tilde"], fields["T"], indexing="ij")
        table = np.column_stack([lam.ravel(), t.ravel()] + [fields[n].ravel() for n in names[2:]])
        np.savetxt(args.csv, table, fmt="%.17g", delimiter=",", header=",".join(names),
                   comments="", encoding="utf-8")
    return 0


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors exit 1, the invalid-input code: 2 means no solution."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# built once per process, with the _cmd_* functions of that build: a parse leaves it unchanged
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            help="cap on every step, also where it exceeds the window: the certified "
            "sample step, itself sized to the flow's rates for the sixth-order "
            "certificate, and for shoot the pass step, itself 0.1/r at the flow's rate "
            "bound r; refused where a grid needs more than 200,000 steps; solve-m1 "
            "takes none",
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
        help="stopping Bures angle, in (0, pi/2], when the endpoint condition is degenerate",
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
