"""Toolkit for time-optimal quantum evolution under operator constraints.

Given an initial state, an energy budget omega (fixing Tr[H^2] = 2*omega^2)
and a set of forbidden Hamiltonian directions, the package produces
time-extremal Hamiltonians H(t), propagators U(t) and minimum times T, and
certifies them against every constraint of the underlying variational
problem -- including the movable-endpoint condition
<psi_f|H(T)F(T)|psi_f> = 1 whose imaginary part separates true extremals
from mere solutions of the evolution equations.
"""

from .algebra import (
    GeneratorBasis,
    basis_of,
    build_gellmann_basis,
    is_closed_subalgebra,
)
from .states import DegenerateProblemError, PureState
from .dynamics import (
    ControlProblem,
    MultiplierVector,
    SingularGaugeError,
    Trajectory,
    integrate,
)
from .solvers import (
    ExtremalSolution,
    NoSolutionError,
    NotClosedError,
    SolutionKind,
    shoot,
    solve_closed_subalgebra,
    solve_free,
    solve_m1_two_level,
    solve_two_qubit_example,
    sweep_m1,
)
from .verify import Tolerances, VerificationReport, certify

__version__ = "0.1.0"

__all__ = [
    "GeneratorBasis",
    "basis_of",
    "build_gellmann_basis",
    "is_closed_subalgebra",
    "DegenerateProblemError",
    "PureState",
    "ControlProblem",
    "MultiplierVector",
    "SingularGaugeError",
    "Trajectory",
    "integrate",
    "ExtremalSolution",
    "NoSolutionError",
    "NotClosedError",
    "SolutionKind",
    "shoot",
    "solve_closed_subalgebra",
    "solve_free",
    "solve_m1_two_level",
    "solve_two_qubit_example",
    "sweep_m1",
    "Tolerances",
    "VerificationReport",
    "certify",
    "__version__",
]
