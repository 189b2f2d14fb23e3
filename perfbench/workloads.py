"""The four benchmark workloads.

Each workload turns the benchmark seed into inputs (`setup`), yields its
operations in rounds (`round`), runs one operation (`run`), and checks its
result independently of the code that produced it (`check`).  A round is
the unit the run loop repeats: a sample spanning the cost range for
shoot-su4, the fixed subcommand mix for the two CLI workloads, one
integration for two-level.  Measuring whole rounds keeps the mix of
operations in a run the same whatever the seed or the machine speed.

`negative` perturbs a good result and reports whether `check` rejects it,
which shows the correctness gate is live.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np

import inputs
import qbrach.cli
import qbrach.dynamics
import qbrach.solvers
from qbrach.dynamics import MultiplierVector, Trajectory
from qbrach.verify import Tolerances, certify

POOL_PATH = Path(__file__).resolve().parent / "su4_pool.json"

# verdicts of certify that hold at every sample of any integrated
# trajectory; the endpoint family needs an extremal stopping time and the
# finite-difference residuals (chko, aa, equivalence) are step-limited
POINTWISE_VERDICTS = (
    "traceless",
    "norm",
    "term",
    "initial_cond",
    "speed_excess",
    "trf2",
    "lambda0",
    "eig_drift",
    "speed_decomp",
    "u_mismatch",
)


class Op:
    """One benchmark operation: a label for reports and its arguments."""

    __slots__ = ("label", "args")

    def __init__(self, label: str, *args):
        self.label = label
        self.args = args


class Workload:
    name = ""
    why = ""
    # bytes the operation reads from / writes to files or stdout, in MB
    in_mb = 0.0
    out_mb = 0.0

    def setup(self, seed: int, tmpdir: Path) -> None:
        raise NotImplementedError

    def round(self, k: int) -> list:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result):
        """Return (failure reason or None, error against the reference)."""
        raise NotImplementedError

    def negative(self, op: Op, result) -> bool:
        """Perturb a good result; True when `check` rejects the perturbation."""
        raise NotImplementedError


class ShootSu4(Workload):
    name = "shoot-su4"
    why = "general su(4) shooting, eta != 0: two integration passes, root search, certify"
    problems_per_round = 24

    def setup(self, seed, tmpdir):
        """A systematic sample of the vetted recipe seeds, one per 1/24 of
        the pool in cost order, from a start the seed draws.  The whole
        sample is one round, so however many rounds a run completes, every
        seed runs the same mix of cheap and expensive solves."""
        pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))["by_samples"]
        step = len(pool) / self.problems_per_round
        start = np.random.default_rng([seed, 1]).uniform(0.0, step)
        self.ops = [
            Op(f"cost{q:02d}", *inputs.su4_problem(pool[int(start + q * step)][0]))
            for q in range(self.problems_per_round)
        ]

    def round(self, k):
        return self.ops

    def run(self, op):
        problem, h0, m0 = op.args
        return qbrach.solvers.shoot(problem, h0, m0, inputs.SU4_T_MAX)

    def check(self, op, sol):
        report = certify(sol.trajectory, Tolerances.integrated(), renormalized=True)
        w2 = sol.trajectory.omega**2
        err = max(abs(report.endpoint_im) / w2, abs(report.endpoint_re - 1.0))
        if not report.passed:
            failed = [k for k, v in report.verdict.items() if not v]
            return f"independent certify failed: {failed}", err
        if not sol.report.passed:
            return "embedded report failed", err
        if not 0.0 < sol.T <= inputs.SU4_T_MAX:
            return f"T = {sol.T} outside (0, t_max]", err
        return None, err

    def negative(self, op, sol):
        traj = sol.trajectory
        H = traj.H.copy()
        k = traj.n_samples // 2
        H[k] = H[k] + 1e-3 * traj.omega * traj.basis.generators[0]
        bad = dataclasses.replace(sol, trajectory=dataclasses.replace(traj, H=H))
        return self.check(op, bad)[0] is not None


class TwoLevel(Workload):
    name = "two-level"
    why = "qubit with sigma_z forbidden (M = 1, eta = 0): 5000 RK4 steps, no root search, no JSON"
    lambdas_prepared = 256

    def setup(self, seed, tmpdir):
        self.problem = inputs.two_level_problem()
        self.h0 = self.problem.basis.generators[1]
        self.lambdas = inputs.two_level_lambdas(seed, self.lambdas_prepared)

    def round(self, k):
        lam = float(self.lambdas[k % self.lambdas.size])
        return [Op("integrate", MultiplierVector(1.0, [lam]))]

    def run(self, op):
        return qbrach.dynamics.integrate(
            self.problem, op.args[0], self.h0, inputs.TWO_LEVEL_T_MAX, inputs.TWO_LEVEL_DT
        )

    def check(self, op, traj):
        lam = float(op.args[0].lambdas[0])
        ref = inputs.m1_reference_u(lam, inputs.TWO_LEVEL_OMEGA, traj.times)
        err = float(np.linalg.norm((traj.U - ref).reshape(traj.n_samples, -1), axis=1).max())
        if not err <= 1e-7:
            return f"propagator off the closed form by {err:.3e}", err
        report = certify(traj, Tolerances.integrated())
        failed = [k for k in POINTWISE_VERDICTS if not report.verdict[k]]
        if failed:
            return f"independent certify failed: {failed}", err
        return None, err

    def negative(self, op, traj):
        U, psi = traj.U.copy(), traj.psi.copy()
        k = traj.n_samples // 2
        phase = np.exp(1e-5j)
        U[k] *= phase
        psi[k] *= phase
        return self.check(op, dataclasses.replace(traj, U=U, psi=psi))[0] is not None


def _cli(argv: list) -> tuple:
    """qbrach.cli.main in-process, stdout captured in memory."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = qbrach.cli.main(argv)
    return code, buf.getvalue()


def _solve_mix(files: dict) -> list:
    """(label, argv, closed-form T) of the solving subcommands."""
    return [
        ("solve-closed", ["solve-closed", "-i", str(files["closed"])], inputs.CLOSED_T),
        ("solve-free", ["solve-free", "-i", str(files["free"])],
         inputs.FREE_BURES_ANGLE / inputs.FREE_OMEGA),
        ("solve-2qubit", ["solve-2qubit", "--omega-b", repr(inputs.TWO_QUBIT_OMEGA_B),
                          "--omega", "10"], math.sqrt(2.0) * inputs.TWO_QUBIT_OMEGA_B / 10.0),
        ("solve-m1", ["solve-m1", "--omega-b", repr(inputs.M1_OMEGA_B),
                      "--phi", repr(inputs.M1_PHI), "--omega", "10"], inputs.M1_T),
    ]


def _input_mb(argv: list) -> float:
    paths = [argv[argv.index("-i") + 1]] if "-i" in argv else []
    if argv[0] == "verify":
        paths.append(argv[1])
    return sum(Path(p).stat().st_size for p in paths) / 1e6


class CliWorkload(Workload):
    """A fixed mix of in-process CLI commands, `self.mix`, is one round."""

    def round(self, k):
        return self.mix

    def run(self, op):
        code, text = _cli(op.args[0])
        self.in_mb = _input_mb(op.args[0])
        self.out_mb = len(text) / 1e6
        return code, text


class CliSolve(CliWorkload):
    name = "cli-solve"
    why = "write path: in-process CLI solves and a 200x200 sweep, JSON emission dominates"

    def setup(self, seed, tmpdir):
        files = inputs.cli_problem_files(seed, tmpdir)
        self.mix = [
            Op(label, argv, t_ref) for label, argv, t_ref in _solve_mix(files)
        ]
        self.mix.append(
            Op("sweep-m1", ["sweep-m1", "--grid", inputs.SWEEP_GRID, "--omega", "10"], None)
        )
        self.digests = {}

    def check(self, op, result):
        code, text = result
        if code != 0:
            return f"exit code {code}", math.inf
        digest = hashlib.sha256(text.encode()).hexdigest()
        if op.label in self.digests:
            if digest != self.digests[op.label][0]:
                return "output differs from the first run of identical inputs", math.inf
            return None, self.digests[op.label][1]
        reason, err = self.check_document(op, text)
        if reason is None:
            self.digests[op.label] = (digest, err)
        return reason, err

    def check_document(self, op, text):
        """Embedded verdicts, reference values and an independent certify."""
        doc = json.loads(text)
        t_ref = op.args[1]
        if doc["kind"] == "sweep_m1":
            w2 = float(doc["omega"]) ** 2
            re_field = np.asarray(doc["re_field"], dtype=float)
            err = float(np.abs(re_field - w2).max()) / w2
            if not err <= 1e-9:
                return f"sweep real field off omega^2 by {err:.3e}", err
            if not np.all(np.isfinite(np.asarray(doc["im_field"], dtype=float))):
                return "sweep imaginary field is not finite", err
            return None, err
        sols = doc["branches"] if "branches" in doc else [doc]
        t_first = doc.get("T_min", doc.get("T"))
        err = abs(t_first - t_ref)
        if not err <= 1e-10:
            return f"T = {t_first!r}, reference {t_ref!r}", err
        for sol in sols:
            if not sol["report"]["verdict"]["overall"]:
                return "embedded verdict failed", err
            report = certify(Trajectory.from_dict(sol["trajectory"]), Tolerances.analytic())
            if not report.passed:
                failed = [k for k, v in report.verdict.items() if not v]
                return f"independent certify failed: {failed}", err
        return None, err

    def negative(self, op, result):
        doc = json.loads(result[1])
        doc["trajectory"]["H"][5][0][1][0] += 0.02
        return self.check_document(op, json.dumps(doc))[0] is not None


_DEVIATION = re.compile(r"max deviation (\S+)")


class CliVerify(CliWorkload):
    name = "cli-verify"
    why = "read path: in-process qbrach verify of the solution files the cli-solve mix writes"
    # a Gell-Mann, a Pauli-string and a branch-list file; an odd count of
    # well-separated costs keeps the median inside one command's times
    verified = ("solve-closed", "solve-2qubit", "solve-m1")

    def setup(self, seed, tmpdir):
        files = inputs.cli_problem_files(seed, tmpdir)
        self.mix = []
        for label, argv, _ in _solve_mix(files):
            if label not in self.verified:
                continue
            out = tmpdir / f"{label}.out.json"
            code, _ = _cli(argv + ["-o", str(out)])
            if code != 0:
                raise RuntimeError(f"{label} exited {code} while writing the verify inputs")
            self.mix.append(Op(f"verify {label}", ["verify", str(out), "--tol", "analytic"]))
        self.tmpdir = tmpdir

    def check(self, op, result):
        code, text = result
        devs = [float(m) for m in _DEVIATION.findall(text)]
        err = max(devs, default=math.inf)
        if code != 0:
            return f"exit code {code}", err
        if not devs or not err <= 1e-12:
            return f"round-trip deviation {err:.3e}", err
        if "FAIL" in text:
            return "a verdict failed", err
        return None, err

    def negative(self, op, result):
        doc = json.loads(Path(op.args[0][1]).read_text(encoding="utf-8"))
        doc["trajectory"]["H"][5][0][1][0] += 0.02
        bad = self.tmpdir / "tampered.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        bad_op = Op(op.label, ["verify", str(bad), "--tol", "analytic"])
        return self.check(bad_op, self.run(bad_op))[0] is not None


WORKLOADS = {w.name: w for w in (ShootSu4, TwoLevel, CliSolve, CliVerify)}
