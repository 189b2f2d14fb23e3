"""Seeded inputs for the benchmark workloads.

Everything a workload feeds to qbrach is built here from integers, so the
same benchmark seed always yields the same problems.  The recipes are kept
in the benchmark's own files on purpose: an edit to the test suite cannot
change what the benchmark measures.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS threads are pinned before numpy loads, so both sides of a comparison
# run the same single-threaded kernels and the benchmark is one thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def require_package() -> None:
    """Put the checkout's src/ first on sys.path, or exit 2 if it is absent."""
    if not (SRC / "qbrach" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qbrach package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))


require_package()

import numpy as np  # noqa: E402

from qbrach.algebra import build_gellmann_basis  # noqa: E402
from qbrach.dynamics import ControlProblem, MultiplierVector  # noqa: E402
from qbrach.states import PureState  # noqa: E402

SQ2 = 1.0 / math.sqrt(2.0)

# shoot-su4: window and energy scale of every problem
SU4_T_MAX = 3.0
SU4_OMEGA = 1.0

# two-level: sigma_z forbidden, |+x> start, sigma_y seed, 5000 RK4 steps
TWO_LEVEL_OMEGA = 1.0
TWO_LEVEL_T_MAX = 5.0
TWO_LEVEL_DT = 1e-3
TWO_LEVEL_LAMBDA = (-5.0, 5.0)

# the designed two-level endpoint (README) and its extremal time
M1_OMEGA_B = 0.6732909377195485
M1_PHI = -2.953791334823616
M1_T = 0.37613750263324641

# the README's closed-subalgebra problem and its extremal time
CLOSED_T = 0.07619481378479523
SWEEP_GRID = "-0.02,0.02,200 x 0.003,0.6,200"

# cli-solve: the restricted two-qubit transport at Bures angle pi/2, and
# N = 5 free evolution at a fixed Bures angle, so that a solve's cost (its
# sample count) does not depend on the seed.  At 1.5 rad the free solve
# costs about twice the closed one and less than the two-qubit one, so
# the median of the five-command mix sits inside one command's times
TWO_QUBIT_OMEGA_B = math.pi / 2
FREE_BURES_ANGLE = 1.5
FREE_OMEGA = 1.0


def su4_problem(recipe_seed: int):
    """A 4-level shooting instance: 3 random forbidden Gell-Mann directions,
    a random allowed-span seed Hamiltonian on the energy shell and moderate
    random seed multipliers.  Returns (problem, H0, m0)."""
    rng = np.random.default_rng(recipe_seed)
    basis = build_gellmann_basis(4)
    forbidden = tuple(sorted(rng.choice(15, size=3, replace=False).tolist()))
    psi_i = random_state(rng, 4)
    problem = ControlProblem(
        basis=basis, psi_i=psi_i, omega=SU4_OMEGA, forbidden=forbidden, psi_f=None
    )
    allowed = [m for m in range(15) if m not in forbidden]
    coef = rng.normal(size=len(allowed))
    h0 = np.einsum("m,mij->ij", coef, basis.generators[allowed])
    h0 *= np.sqrt(2.0) * SU4_OMEGA / np.sqrt(np.real(np.einsum("ab,ba->", h0, h0)))
    m0 = MultiplierVector(1.0, rng.normal(size=3) * 0.5)
    return problem, h0, m0


def random_state(rng: np.random.Generator, n: int) -> PureState:
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState(amp / np.linalg.norm(amp))


def two_level_problem() -> ControlProblem:
    return ControlProblem(
        basis=build_gellmann_basis(2),
        psi_i=PureState([SQ2, SQ2]),
        omega=TWO_LEVEL_OMEGA,
        forbidden=(2,),
    )


def two_level_lambdas(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 2]).uniform(*TWO_LEVEL_LAMBDA, size=n)


def m1_reference_u(lambda1: float, omega: float, times: np.ndarray) -> np.ndarray:
    """Closed-form propagator exp[i l sz t] exp[-i (omega sy + l sz) t] of the
    sigma_z-forbidden qubit, independent of the integrator."""
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    w, q = np.linalg.eigh(omega * sy + lambda1 * sz)
    free = np.einsum("ab,kb,cb->kac", q, np.exp(-1.0j * np.outer(times, w)), q.conj())
    frame = np.zeros((times.size, 2, 2), dtype=complex)
    frame[:, 0, 0] = np.exp(1.0j * lambda1 * times)
    frame[:, 1, 1] = np.exp(-1.0j * lambda1 * times)
    return frame @ free


def _pairs(values) -> list:
    arr = np.asarray(values, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def cli_problem_files(seed: int, directory: Path) -> dict:
    """Write the problem files of the cli-solve mix; returns name -> path.

    The README's closed-subalgebra problem is fixed; the N = 5 free-evolution
    pair is drawn from the seed at Bures angle FREE_BURES_ANGLE."""
    rng = np.random.default_rng([seed, 3])
    psi_i = random_state(rng, 5).amplitudes
    perp = random_state(rng, 5).amplitudes
    perp = perp - np.vdot(psi_i, perp) * psi_i
    perp /= np.linalg.norm(perp)
    psi_f = np.cos(FREE_BURES_ANGLE) * psi_i + np.sin(FREE_BURES_ANGLE) * perp
    closed = {
        "version": 1,
        "dimension": 2,
        "omega": 10.0,
        "basis": "gellmann",
        "psi_i": _pairs([SQ2, SQ2]),
        "forbidden": [2],
        "solver_params": {
            "H0": [[[0.0, 0.0], [0.0, -10.0]], [[0.0, 10.0], [0.0, 0.0]]],
            "lambda0": 1.0,
            "lambdas": [2.5],
            "t_max": 0.5,
        },
    }
    free = {
        "version": 1,
        "dimension": 5,
        "omega": FREE_OMEGA,
        "basis": "gellmann",
        "psi_i": _pairs(psi_i),
        "psi_f": _pairs(psi_f),
    }
    paths = {}
    for name, doc in (("closed", closed), ("free", free)):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[name] = path
    return paths

