"""Extremal-solution generators.

Three analytic fast paths — unrestricted (free) evolution, the
single-forbidden-direction two-level problem and the restricted two-qubit
example — are the constant-multiplier flow of a closed forbidden
subalgebra (eta = 0) with a closed-form T; each keeps only that T, its
seed in the gauge lambda_0 = 1 and its own check that the flow reaches
the target.  The general forward-shooting generator `shoot` runs one
pass of the coupled system until the endpoint condition
Im<psi|H F|psi> = 0 is met.  The closed-subalgebra solver is its
eta = 0 case: it checks the closure and hands the exact pass
(`dynamics.exact_pass`) to the core both share (`_extremal`).  One scan
of a pass (`_root_scan`) finds T there: the endpoint root, or, where the
endpoint function vanishes identically, where the flow reaches a target.
All five end in one tail (`_certified`): the certified grid, whose own
step is lifted to T/`dynamics._MAX_SAMPLES` and which `dt` only caps, the
trajectory, the renormalization and the certificate.  Every grid, of a
pass or certified, is `dynamics._grid`, and every `dt` is checked by
`dynamics._step_cap`.

All returned trajectories are renormalized: the multipliers are divided by
c = Re<psi(T)|H(T)F(T)|psi(T)> so the endpoint constraint evaluates to 1.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import dynamics
from .algebra import basis_of, forbidden_sum
from .dynamics import (
    ControlProblem,
    MultiplierVector,
    PassSamples,
    SingularGaugeError,
    Trajectory,
    _as_pairs,
    _binade_scaled,
    _constant_rows,
    _energy_scale,
    _grid,
    _hermitian_seed,
    _pass_rate,
    _seed_operators,
    _state_vectors,
    _step_cap,
    exact_pass,
    finalize_trajectory,
    integrate_blocks,
)
from .states import PureState, boundary_data, free_hamiltonian
from .verify import Tolerances, VerificationReport, certify, endpoint_constraint

__all__ = [
    "SolutionKind",
    "ExtremalSolution",
    "NoSolutionError",
    "NotClosedError",
    "solve_free",
    "solve_closed_subalgebra",
    "m1_trajectory",
    "m1_final_state",
    "m1_boundary",
    "solve_m1_two_level",
    "solve_two_qubit_example",
    "shoot",
    "sweep_m1",
]

log = logging.getLogger("qbrach")

# two-level boundary convention: evolution starts at |+x> and the
# orthogonal complement is |-x>
M1_PSI_I = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
M1_PSI_PERP = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))

# forbidden directions of the restricted two-qubit problem: every string
# containing a sigma^1 factor plus both single-site strings of each letter
TWO_QUBIT_FORBIDDEN = (
    "σ1¹",
    "σ1²",
    "σ1³",
    "σ2¹",
    "σ2²",
    "σ2³",
    "σ1¹σ2¹",
    "σ1¹σ2²",
    "σ1²σ2¹",
    "σ1¹σ2³",
    "σ1³σ2¹",
)


class NoSolutionError(RuntimeError):
    """No extremal trajectory exists for the requested data/window."""


class NotClosedError(ValueError):
    """The forbidden set does not span a closed subalgebra."""


class SolutionKind(Enum):
    FREE = "free"
    CLOSED_SUBALGEBRA = "closed_subalgebra"
    M1_TWO_LEVEL = "m1_two_level"
    TWO_QUBIT_EXAMPLE = "two_qubit_example"
    SHOT = "shot"


@dataclass(frozen=True)
class ExtremalSolution:
    """A certified time-extremal trajectory.

    `T` is the duration, `H0` the physical initial Hamiltonian (unchanged
    by multiplier renormalization), `multipliers0` the renormalized initial
    multipliers, `branch` the (k, l) pair for two-level enumeration
    solutions.  For the degenerate zero-angle problem T = 0 and both the
    trajectory and the report are absent.
    """

    kind: SolutionKind
    T: float
    H0: np.ndarray
    multipliers0: MultiplierVector
    trajectory: Optional[Trajectory]
    report: Optional[VerificationReport]
    branch: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        if self.report is not None and not self.report.verdict.get("endpoint_im", False):
            raise ValueError(
                "refusing to construct an extremal solution whose endpoint "
                "condition Im<psi|HF|psi> = 0 fails verification"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "T": self.T,
            "branch": list(self.branch) if self.branch is not None else None,
            "multipliers0": {
                "lambda0": self.multipliers0.lambda0,
                "lambdas": self.multipliers0.lambdas.copy(),
            },
            "H0": _as_pairs(np.asarray(self.H0, dtype=complex)),
            "report": self.report.as_dict() if self.report is not None else None,
            "trajectory": self.trajectory.to_dict() if self.trajectory is not None else None,
        }


def _certified_step(
    omega: float, G: np.ndarray, F0: np.ndarray, lambda0: float, T: float, tols: Tolerances,
    stepped: bool,
) -> float:
    """Own step of a certified grid on [0, T], sized for the sixth-order certificate.

    `verify._derivative` errs by at most h^6 ||f^(7)||/7, the factor of its
    worst one-sided row (1/140 inside the grid).  Two checks difference the
    samples: chko, dF/dt normalized by omega ||F(0)||_F, and aa, d psi/dt
    through sqrt(g_tt) = ||(1 - P) psi'||, which is 1-Lipschitz in psi'
    (||1 - P|| = 1), so that its error is at most that of psi'.  With B_c a
    bound on ||F^(7)||_F/||F(0)||_F (chko) or on ||psi^(7)|| (aa,
    ||psi|| = 1), the step h_c = (7 tau_c omega / B_c)^(1/6) keeps check
    c's truncation at tau_c, a quarter of its tolerance in `tols`.  The
    step is the least h_c; a B_c of 0 drops its check.  The flow of the
    seed (G, F(0), lambda_0) sets the bounds:

    - on the constant-multiplier flow F(t) = e^{iGt} F(0) e^{-iGt}, so
      F^(n) = (i ad_G)^n F(0).  In G's eigenbasis (eigenvalues g_a) ad_G
      scales entry (a, b) by g_a - g_b, at most spread(G) = g_max - g_min,
      so ||F^(7)||_F <= spread(G)^6 ||[G, F(0)]||_F: B_chko is that over
      ||F(0)||_F, 0 where G commutes with F(0).  And psi(t) = e^{iGt}
      e^{-iAt} psi_i with A = F(0)/lambda_0, so by the binomial expansion
      psi^(7) = sum_k C(7, k) (iG)^k e^{iGt} (-iA)^(7-k) e^{-iAt} psi_i,
      whose norm is at most (||G||_2 + ||A||_2)^7: B_aa = (||G||_2 +
      rho(F(0))/|lambda_0|)^7.  Both bounds are proved.
    - on a `stepped` pass B_chko = B_aa = r^7, with r the rate bound
      `dynamics._pass_rate`: the n-th time derivatives of F and psi are
      taken to be at most r^n ||F(0)|| and r^n.  That is asserted, not
      proved: r bounds the rates of the flow (Tr[G^2] is conserved and F
      is isospectral), not its derivatives of every order.  On the 198
      problems of the `shoot-su4` benchmark pool the largest chko residual
      is 1/15.7 of its tau_chko and the largest aa gap 1/2.29 of its
      tau_aa, and the tests keep both within tau on every pool problem.

    B_c scales as omega^7, so it is taken of the flow in units of u, the
    power of two just above omega, (G/u, F(0)/u, omega/u): exact, and clear
    of overflow.  That flow's step, over u, is lifted to
    T/`dynamics._MAX_SAMPLES`, so `dynamics._grid` never refuses it.
    """
    unit = math.ldexp(1.0, math.frexp(omega)[1])
    G, F0 = G / unit, F0 / unit
    if stepped:
        b_chko = b_aa = _pass_rate(G, F0, lambda0) ** 7
    else:
        g = np.linalg.eigvalsh(G)
        f_rad = float(np.abs(np.linalg.eigvalsh(F0)).max())
        comm = float(np.linalg.norm(G @ F0 - F0 @ G))
        b_chko = float(g[-1] - g[0]) ** 6 * comm / float(np.linalg.norm(F0))
        b_aa = (float(np.abs(g).max()) + f_rad / abs(lambda0)) ** 7
    checks = ((tols.chko, b_chko), (tols.aa, b_aa))
    step = min(((7.0 * (tol / 4.0) * (omega / unit) / b) ** (1.0 / 6.0) for tol, b in checks
                if b > 0), default=math.inf) / unit
    # at the lift, T/step must not round up past the cap, which `_grid` refuses
    return max(step, T / dynamics._MAX_SAMPLES * (1.0 + 1e-12))


def _certified(
    problem: ControlProblem, kind: SolutionKind, H0: np.ndarray, m0: MultiplierVector,
    T: float, re_T: float, cap: float, smp: Optional[PassSamples] = None,
    branch: Optional[Tuple[int, int]] = None,
) -> ExtremalSolution:
    """The certified extremal of the seed (H0, m0) on [0, T]: every solver's tail.

    The grid (`_grid`) is uniform on [0, T].  Its own step is
    `_certified_step` on the seed's (G, F(0)) (`_seed_operators`), one rule
    for every solver, at the bounds of the flow the rows come from: a
    stepped pass (`smp` with slopes) or the constant-multiplier flow (no
    pass, or the exact pass).  A user's `cap` (`_step_cap`) only refines
    that step, and one needing more than `dynamics._MAX_SAMPLES` steps is
    refused.  The rows are the pass `smp` on that grid or, without a pass,
    the constant-multiplier flow of the seed.  `re_T` is Re<psi|HF|psi> at
    T in the seed's gauge; the trajectory and the multipliers are divided
    by it, so the endpoint evaluates to 1.  A SHOT is judged with the
    integrated tolerances, every other kind with the analytic ones.
    """
    tols = Tolerances.integrated() if kind is SolutionKind.SHOT else Tolerances.analytic()
    G, F0 = _seed_operators(problem, m0, H0)
    stepped = smp is not None and smp.slopes is not None
    own = _certified_step(problem.omega, G, F0, m0.lambda0, T, tols, stepped)
    times = _grid(T, min(cap, own))
    rows = _constant_rows(problem, m0, times) if smp is None else smp.rows_at(problem, times)
    traj = finalize_trajectory(problem, times, rows, F0, re_T)
    m = MultiplierVector(m0.lambda0 / re_T, m0.lambdas / re_T)
    report = certify(traj, tols, renormalized=True)
    return ExtremalSolution(kind, float(T), H0, m, traj, report, branch)


# -- free evolution ----------------------------------------------------------


def solve_free(
    psi_i: PureState, psi_f: PureState, omega: float, dt: Optional[float] = None
) -> ExtremalSolution:
    """Unrestricted minimum-time transport: constant H, T = Omega_B/omega.

    The multipliers carry lambda_0 = 1/omega^2, the value that normalizes
    the endpoint constraint <psi_f|H F|psi_f> to exactly 1 (F = lambda_0 H
    and <H^2> = omega^2 on the two-dimensional evolution subspace).  The
    sample step is `_certified_step`'s, or `dt` where that is finer: with
    G = 0 only the aa check sizes it, at (7 tau omega/omega^7)^(1/6) =
    0.110/omega, so a grid of at most 15 steps (Bures angle pi/2).
    Identical endpoints (Bures angle 0) return the trivial T = 0 solution
    with no trajectory.
    """
    problem = ControlProblem(basis_of("gellmann", psi_i.dim), psi_i, omega)
    boundary = boundary_data(psi_i, psi_f)
    cap = _step_cap(dt)
    if boundary.psi_perp is None:
        N = psi_i.dim
        m0 = MultiplierVector(1.0 / omega**2, np.zeros(0))
        return ExtremalSolution(SolutionKind.FREE, 0.0, np.zeros((N, N), complex), m0, None, None)
    # in the gauge lambda_0 = 1, F = H and Re<psi|HF|psi> = <H^2> = omega^2
    H_F = free_hamiltonian(psi_i, boundary, omega)
    m0 = MultiplierVector(1.0, np.zeros(0))
    T = boundary.omega_b / omega
    sol = _certified(problem, SolutionKind.FREE, H_F, m0, T, omega**2, cap)
    fid = abs(np.vdot(psi_f.amplitudes, sol.trajectory.psi[-1]))
    if fid < 1.0 - 1e-9:
        raise ArithmeticError(
            f"free propagation missed the target state (fidelity {fid:.12f}); "
            "the constant-H construction is inconsistent"
        )
    return sol


# -- closed subalgebra -------------------------------------------------------


def solve_closed_subalgebra(
    problem: ControlProblem,
    H0: np.ndarray,
    m0: MultiplierVector,
    t_max: float,
    dt: Optional[float] = None,
) -> ExtremalSolution:
    """Constant-multiplier solution on a closed forbidden subalgebra.

    H(t) = e^{iGt} H(0) e^{-iGt} and U(t) = e^{iGt} e^{-i(H(0)+G)t}.  This
    is `shoot` on the exact flow: the seed is projected as there, and the
    same core (`_extremal`) takes T from the one pass (`exact_pass`, at
    the stepped pass's own step) and certifies the trajectory, here with
    the analytic tolerances.  When Im<psi|HF|psi> vanishes identically
    (G central for the flow, e.g. [G, H0] = 0 or no forbidden directions)
    T is where the flow first reaches psi_f, which is then required.
    `dt` caps the certified sample step.

    A forbidden set that spans no subalgebra is still accepted when the
    projected seed keeps every forbidden trace Tr[H(t)X_j] at zero on the
    whole window, because that trace measures exactly the multiplier drift
    the closure assumption is meant to rule out; otherwise NotClosedError.
    The trace is checked on the same pass the solution is taken from.
    """
    H0, m0 = _project_seed(problem, H0, m0)
    smp = exact_pass(problem, m0, H0, t_max)
    closed, closure_resid = problem.closure
    if not closed:
        # The set spans no subalgebra, but the constant-multiplier flow is
        # still exact for this seed iff the forbidden traces vanish along it:
        # Tr[H(t)X_j] = (N/lambda0)[lambda_j(t) - lambda_j(0)], so a vanishing
        # trace on the window is equivalent to the multipliers staying put.
        Hs = smp.at(problem, smp.times)[2]
        Xf = problem.forbidden_generators()
        term = float(np.abs(np.real(np.einsum("kab,jba->kj", Hs, Xf))).max()) / problem.omega
        if term > 1e-8:
            raise NotClosedError(
                "the forbidden set is not closed under i[.,.] (worst projection "
                f"residual {closure_resid:.3e}) and the projected seed's "
                "constant-multiplier flow violates the forbidden-direction traces "
                f"(max |Tr[H(t)X_j]| = {term:.3e} omega); this solver does not apply"
            )
        log.warning(
            "forbidden set is not closed (projection residual %.3e); "
            "proceeding because the projected seed keeps every forbidden "
            "trace below %.1e omega on the window, which makes the "
            "constant-multiplier flow exact for this seed",
            closure_resid,
            term,
        )
    return _extremal(problem, SolutionKind.CLOSED_SUBALGEBRA, H0, m0, [smp], dt, problem.psi_f)


# -- two-level, one forbidden direction --------------------------------------


def _m1_problem(omega: float) -> ControlProblem:
    """The two-level problem: evolution from |+x> with sigma_z forbidden."""
    return ControlProblem(basis_of("gellmann", 2), PureState(M1_PSI_I), omega, forbidden=(2,))


def m1_trajectory(
    lambda1: float,
    T: float,
    omega: float,
    renormalize: bool = False,
) -> Trajectory:
    """Analytic two-level trajectory with the population direction forbidden.

    Evolution starts at |+x>; the forbidden generator is sigma_z with
    constant multiplier lambda1 (gauge lambda_0 = 1), giving

        H(t) = omega e^{i lambda1 sigma_z t} sigma_y e^{-i lambda1 sigma_z t},
        U(t) = e^{i lambda1 sigma_z t} e^{-i(omega sigma_y + lambda1 sigma_z)t}.

    With renormalize=True the multipliers are divided by omega^2, the value
    of Re<psi|HF|psi> along this flow, so the endpoint real part becomes 1.
    The grid is `_grid` at `_certified_step`'s step for the analytic
    tolerances on this constant-multiplier flow.
    """
    if not T > 0:
        raise ValueError(f"duration must be positive, got {T}")
    problem = _m1_problem(omega)
    sz = problem.basis.generators[2]
    F0 = omega * problem.basis.generators[1] + lambda1 * sz
    own = _certified_step(omega, lambda1 * sz, F0, 1.0, T, Tolerances.analytic(), False)
    times = _grid(T, own)
    rows = _constant_rows(problem, MultiplierVector(1.0, [lambda1]), times)
    return finalize_trajectory(problem, times, rows, F0, omega**2 if renormalize else None)


def m1_final_state(omega_b: float, phi: float) -> PureState:
    """Target state e^{i phi} cos(Omega_B)|+x> + sin(Omega_B)|-x>."""
    plus = np.asarray(M1_PSI_I, dtype=complex)
    minus = np.asarray(M1_PSI_PERP, dtype=complex)
    return PureState(np.exp(1.0j * phi) * math.cos(omega_b) * plus + math.sin(omega_b) * minus)


def m1_boundary(psi: PureState) -> Tuple[float, float]:
    """(Omega_B, phi) of a two-level state in the fixed (|+x>, |-x>) frame.

    The two-level enumeration pins the orthogonal direction to |-x>, so
    phi is the phase of <+x|psi> relative to <-x|psi> — not the bare
    argument of the overlap with |+x>, which depends on the global phase
    the propagator happened to produce.  States parallel to either frame
    vector have no meaningful phi; zero is returned for those.
    """
    amp = psi.amplitudes if isinstance(psi, PureState) else np.asarray(psi, dtype=complex)
    z1 = complex(np.vdot(np.asarray(M1_PSI_I, dtype=complex), amp))
    z2 = complex(np.vdot(np.asarray(M1_PSI_PERP, dtype=complex), amp))
    omega_b = math.atan2(abs(z2), abs(z1))
    if abs(z1) < 1e-12 or abs(z2) < 1e-12:
        return omega_b, 0.0
    return omega_b, float(np.angle(z1 * np.conj(z2)))


def solve_m1_two_level(
    omega_b: float,
    phi: float,
    omega: float,
    k_max: int = 20,
    l_max: int = 20,
) -> List[ExtremalSolution]:
    """Enumerate extremal branches of the forbidden-sigma_z two-level problem.

    Candidate branches come from Lambda_1 T = pi/4 + k pi/2 (the endpoint
    condition lambda_1 cos(2 Lambda_1 T) = 0 with lambda_1 != 0) and
    lambda_1 T = [arccot(sin phi tan 2Omega_B) + l pi]/2; a pair (k, l)
    survives only if the duration radicand, (omega T)^2, is positive with
    omega T above 1e-12, and all three boundary-matching residuals vanish
    within 1e-9.  omega is checked as `ControlProblem` checks it.  The returned
    list is sorted by duration (the global minimum first).  An empty
    surviving set raises: the extremal-time trajectory need not exist for
    arbitrary (Omega_B, phi).  A negative count, or more than
    `dynamics._MAX_SAMPLES` pairs (k_max + 1)(2 l_max + 1), is a ValueError.
    """
    if not 0 < omega_b < math.pi / 2:
        raise ValueError(f"Bures angle must lie in (0, pi/2), got {omega_b}")
    _energy_scale(omega)
    cap = dynamics._MAX_SAMPLES
    if min(k_max, l_max) < 0 or (k_max + 1) * (2 * l_max + 1) > cap:
        raise ValueError(
            f"branch counts k_max = {k_max} and l_max = {l_max} must be non-negative and "
            f"give at most {cap} pairs (k_max + 1)(2 l_max + 1)"
        )
    if abs(math.sin(phi)) < 1e-12:
        raise ValueError(
            "phi equal to a multiple of pi makes the constraint non-binding "
            "(free evolution); the enumeration requires sin(phi) != 0"
        )
    x = math.sin(phi) * math.tan(2.0 * omega_b)
    half_arccot = 0.5 * math.atan2(1.0, x)
    sin2ob = math.sin(2.0 * omega_b)
    cos2ob = math.cos(2.0 * omega_b)
    target = m1_final_state(omega_b, phi)

    found: List[Tuple[float, float, int, int]] = []
    for k in range(0, k_max + 1):
        a = math.pi / 4.0 + k * math.pi / 2.0
        sign_k = -1.0 if k % 2 else 1.0
        for l in range(-l_max, l_max + 1):
            b = half_arccot + l * math.pi / 2.0
            rad = a * a - b * b
            if rad <= 0.0 or math.sqrt(rad) <= 1e-12:  # omega T = sqrt(rad)
                continue
            T = math.sqrt(rad) / omega
            sin_t = b / a
            cos_t = math.sqrt(max(0.0, 1.0 - sin_t * sin_t))
            r1 = sign_k * cos_t + math.cos(phi) * sin2ob
            r2 = sign_k * sin_t * math.sin(2.0 * b) - cos2ob
            r3 = sign_k * sin_t * math.cos(2.0 * b) - math.sin(phi) * sin2ob
            if max(abs(r1), abs(r2), abs(r3)) > 1e-9:
                continue
            found.append((T, b / T, k, l))
    if not found:
        raise NoSolutionError(
            "no (k, l) branch satisfies the boundary-matching conditions for "
            f"Omega_B = {omega_b:g}, phi = {phi:g}; the extremal-time "
            "trajectory may not exist for this endpoint pair"
        )
    found.sort(key=lambda item: item[0])
    problem = _m1_problem(omega)
    H0 = omega * problem.basis.generators[1]
    solutions = []
    for T, lam1, k, l in found:
        # Re<psi|HF|psi> = omega^2 along this flow in the gauge lambda_0 = 1
        sol = _certified(
            problem, SolutionKind.M1_TWO_LEVEL, H0, MultiplierVector(1.0, [lam1]), T,
            omega**2, math.inf, branch=(k, l),
        )
        fid = abs(np.vdot(target.amplitudes, sol.trajectory.psi[-1]))
        if fid < 1.0 - 1e-9:
            raise ArithmeticError(
                f"branch (k={k}, l={l}) passed the matching residuals but "
                f"missed the target state (fidelity {fid:.12f})"
            )
        solutions.append(sol)
    return solutions


def sweep_m1(
    lambda1_tilde: Sequence[float],
    T_values: Sequence[float],
    omega: float = 10.0,
) -> Dict[str, np.ndarray]:
    """Endpoint-condition fields over a (renormalized lambda_1, T) grid.

    For each grid point the two-level flow with lambda_1 = lambda1_tilde
    omega^2 is evaluated at time T and three fields are recorded:
    `amplitude` = |<psi(T)|psi(0)>|, `im_field` = Im<psi(T)|H F~|psi(T)>
    with F~ = F/omega^2 (the gauge matching the lambda1_tilde axis), and
    `re_field` = Re<psi(T)|H F|psi(T)> in the raw gauge, which equals
    omega^2 identically along this flow.  Rows index lambda1_tilde, columns
    index T.  Fields are computed from the propagated states, not from any
    closed-form shortcut, so they double as a consistency check: the two
    amplitudes of psi(T) = U(T) psi(0) per cell, then the overlap and
    <H psi(T)|F psi(T)> with H and F = H + lambda_1 sigma_z written out.  A grid
    of more than `dynamics._MAX_SAMPLES` cells is a ValueError, and so is
    an omega `ControlProblem` refuses and a grid whose lambda_1^2 or phases
    2 sqrt(lambda_1^2 + omega^2) T overflow: no field is ever non-finite.
    """
    lt = np.asarray(lambda1_tilde, dtype=float).ravel()
    ts = np.asarray(T_values, dtype=float).ravel()
    if lt.size * ts.size > dynamics._MAX_SAMPLES:
        raise ValueError(
            f"a {lt.size} x {ts.size} sweep grid has more than {dynamics._MAX_SAMPLES} cells"
        )
    if not (np.all(np.isfinite(lt)) and np.all(np.isfinite(ts))):
        raise ValueError("sweep grid values must be finite")
    if np.any(ts <= 0):
        raise ValueError("sweep times must be positive")
    w = _energy_scale(omega)
    lam_top, t_top = float(np.abs(lt).max(initial=0.0)) * w**2, float(ts.max(initial=0.0))
    # on Python floats a product that overflows is inf, with no warning
    if not 2.0 * math.sqrt(lam_top * lam_top + w * w) * t_top < math.inf:
        raise ValueError(f"sweep lambda_1 up to {lam_top:.3g} and T up to {t_top:.3g} overflow")
    lam = lt[:, None] * w**2
    T = ts[None, :]
    Lam = np.sqrt(lam**2 + w**2)
    a, lamT = Lam * T, lam * T
    ca, sa = np.cos(a), np.sin(a)

    # psi(T) = U(T) psi_0 = (c0, c1) with U(T) = diag(e^{i lam T}, e^{-i lam T})
    # [cos(a) - i sin(a)(w sy + lam sz)/Lam], each amplitude an array over the grid
    p0, p1 = M1_PSI_I
    phase = np.exp(1.0j * lamT)
    sw, sl = sa * w / Lam, sa * lam / Lam
    c0 = phase * ((ca - 1.0j * sl) * p0 - sw * p1)
    c1 = phase.conj() * (sw * p0 + (ca + 1.0j * sl) * p1)
    amplitude = np.abs(c0.conj() * p0 + c1.conj() * p1)

    # <psi|H F|psi> = <H psi|(H + lam sz) psi> with H = [[0, h], [h*, 0]]
    h = -1.0j * w * np.exp(2.0j * lamT)
    hc0, hc1 = h * c1, h.conj() * c0
    val = hc0.conj() * (hc0 + lam * c0) + hc1.conj() * (hc1 - lam * c1)
    return {
        "lambda1_tilde": lt,
        "T": ts,
        "amplitude": amplitude,
        "im_field": val.imag / w**2,
        "re_field": val.real,
    }


# -- restricted two-qubit example --------------------------------------------


def solve_two_qubit_example(
    omega_b: float, omega: float, dt: Optional[float] = None
) -> ExtremalSolution:
    """Minimum-time |11> -> final-state transport with all local terms forbidden.

    H = (omega/sqrt 2) s2s2 constant, G = -(omega/sqrt 2) s1s1, duration
    T = sqrt(2) Omega_B / omega — a factor sqrt(2) slower than the free
    bound, with energy spread omega/sqrt(2) throughout.  The final state is
    cos(Omega_B) e^{-i pi/2} |11> + sin(Omega_B) |00> up to a global phase.
    The seed is H(0) = (omega/sqrt 2) s2s2 with lambda(s1s1) = -omega/sqrt 2
    and every other multiplier zero: the paper's F(0), whose general form
    adds mu23 s2s3 + mu32 s3s2 and three free multipliers, with
    mu23 = mu32 = 0 and the free choices at zero, which never raises T.
    `dt` caps the certified sample step, which is otherwise
    `_certified_step`'s on this constant-multiplier flow (about 4.5e-3 at
    omega = 10: 49 steps at Omega_B = pi/2).
    """
    if not 0 < omega_b <= math.pi / 2:
        raise ValueError(f"Bures angle must lie in (0, pi/2], got {omega_b}")
    basis = basis_of("pauli_strings", 4)
    ket11 = np.zeros(4, dtype=complex)
    ket11[3] = 1.0
    problem = ControlProblem(basis, PureState(ket11), omega, forbidden=TWO_QUBIT_FORBIDDEN)
    cap = _step_cap(dt)
    mu = omega / math.sqrt(2.0)
    H0 = mu * basis.generators[basis.index_of("σ1²σ2²")]
    lams = np.zeros(problem.n_forbidden)
    lams[problem.forbidden.index(basis.index_of("σ1¹σ2¹"))] = -mu
    # Re<psi|HF|psi> = omega^2 along this flow in the gauge lambda_0 = 1
    T = math.sqrt(2.0) * omega_b / omega
    sol = _certified(
        problem, SolutionKind.TWO_QUBIT_EXAMPLE, H0, MultiplierVector(1.0, lams), T, omega**2, cap
    )
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    expected = math.cos(omega_b) * ket11 + 1.0j * math.sin(omega_b) * ket00
    gap = float(np.linalg.norm(sol.trajectory.psi[-1] - expected))
    if gap > 1e-9:
        raise ArithmeticError(
            f"propagated final state deviates from the closed form by {gap:.3e}"
        )
    return sol


# -- general forward shooting ------------------------------------------------


def _project_seed(
    problem: ControlProblem, H0_seed: np.ndarray, m0_seed: MultiplierVector
) -> Tuple[np.ndarray, MultiplierVector]:
    """(H0, m0) of a seed projected onto the structure the endpoint needs.

    The seed F(0) = lambda_0 H0 + sum_j lambda_j X_j keeps only its
    first-row/column block in the psi_i frame (the removed share is
    logged), the multipliers are re-extracted from the projection and
    everything is rescaled to the energy shell Tr[H0^2] = 2 omega^2 in the
    gauge lambda_0 = 1, where Re<psi|HF|psi> = Tr[H0^2]/2 = omega^2 at
    t = 0.  Only lambda_0 = 0 is a singular gauge: the seed is first
    scaled by the power of two that brings its largest multiplier into
    [1/2, 1), and F(0) then by the one that brings its largest entry
    there (`dynamics._binade_scaled`): exact, and clear of overflow and
    underflow for any finite seed and gauge.
    Any finite Hermitian N x N seed is accepted (`_hermitian_seed`, the
    one check of a seed, made first); the projection does the rest.
    """
    H0_seed = _hermitian_seed(problem, H0_seed)
    lam0 = m0_seed.lambda0
    if lam0 == 0.0:
        raise SingularGaugeError("lambda_0(0) = 0 is a singular gauge")
    if m0_seed.size != problem.n_forbidden:
        raise ValueError(
            f"multiplier seed length {m0_seed.size} != forbidden set size "
            f"{problem.n_forbidden}"
        )
    psi_i = problem.psi_i.amplitudes
    Xf = problem.forbidden_generators()
    c = math.ldexp(1.0, -math.frexp(np.abs(m0_seed.lambdas).max(initial=abs(lam0)))[1])
    F_seed = (c * lam0) * H0_seed + forbidden_sum(c * m0_seed.lambdas, Xf)
    F_seed = _binade_scaled(F_seed)
    f_norm = float(np.linalg.norm(F_seed))
    fpsi = F_seed @ psi_i
    col = fpsi - complex(psi_i.conj() @ fpsi) * psi_i  # Pi_perp F0 psi_i
    F_proj = np.outer(col, psi_i.conj())
    F_proj = F_proj + F_proj.conj().T
    removed = float(np.linalg.norm(F_seed - F_proj))
    if removed > 1e-12 * f_norm:
        log.warning(
            "seed F(0) violated the first-row/column structure; removed a "
            "component of relative magnitude %.3e", removed / f_norm,
        )
    if float(np.linalg.norm(F_proj)) <= 1e-12 * f_norm:
        raise ValueError(
            "seed F(0) vanishes after structure projection; no evolution "
            "direction survives"
        )
    lams = np.real(np.einsum("jab,ba->j", Xf, F_proj)) / problem.dim
    H0_eff = F_proj - forbidden_sum(lams, Xf)
    h_norm_sq = float(np.real(np.einsum("ab,ba->", H0_eff, H0_eff)))
    if h_norm_sq <= 1e-24 * f_norm**2:
        raise ValueError(
            "the allowed component of the projected seed vanishes; "
            "Tr[H0^2] = 2 omega^2 cannot be met"
        )
    scale = math.copysign(math.sqrt(2.0 * problem.omega**2 / h_norm_sq), lam0)
    return scale * H0_eff, MultiplierVector(1.0, scale * lams)


# the most evaluations of f one `_bracketed_root` call makes; bisection
# alone takes a scan bracket [t_k, t_k+1] to a few ulp in about 40 halvings,
# on a smooth s(t) a handful of evaluations do, and the cap bounds the work
# where the interpolation stalls
_ROOT_EVALS = 100


def _bracketed_root(
    f: Callable[[float], float], a: float, b: float, fa: float, fb: float
) -> Tuple[float, float, int]:
    """(t, f(t), evaluations) for a root of f bracketed by [a, b].

    Chandrupatla's safeguarded inverse quadratic interpolation (Adv. Eng.
    Software 28 (1997) 145), a variant of Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 4) that falls back to
    bisection whenever the last three points do not look like a smooth
    crossing, so a flat (multiple) root costs about as many evaluations
    as bisection.  fa = f(a) and fb = f(b) are given, must not have the
    same sign and cost no evaluation; the first step is the secant one,
    and every iterate lies strictly inside the current bracket.  It stops
    when f is exactly 0, when the bracket is narrower than 2 eps |t| (a
    few ulp of t), or after `_ROOT_EVALS` evaluations, returning the end
    of the last bracket with the smaller |f|.
    """
    a, b = float(a), float(b)
    if fa == 0.0:
        return a, fa, 0
    if fb == 0.0:
        return b, fb, 0
    if (fa > 0.0) == (fb > 0.0):
        raise ValueError(f"f({a!r}) = {fa:g} and f({b!r}) = {fb:g} do not bracket a root")
    eps = np.finfo(float).eps
    # a is the newest point, b the end across the root from it and c the
    # point a replaced; the next point is a + x (b - a), first the secant one
    x = fa / (fa - fb)
    evals = 0
    while True:
        tol = eps * max(abs(a), abs(b))
        if 2.0 * tol > abs(b - a) or evals == _ROOT_EVALS:
            return (a, fa, evals) if abs(fa) <= abs(fb) else (b, fb, evals)
        lim = tol / abs(b - a)
        t = a + min(1.0 - lim, max(lim, x)) * (b - a)
        ft = f(t)
        evals += 1
        if ft == 0.0:
            return t, ft, evals
        if (ft > 0.0) == (fa > 0.0):
            c, fc = a, fa
        else:
            b, c, fb, fc = a, b, fa, fb
        a, fa = t, ft
        xi = (a - b) / (c - b)
        phi = (fa - fb) / (fc - fb)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:  # inverse quadratic
            x = fa / (fb - fa) * fc / (fb - fc)
            x += (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb)
        else:
            x = 0.5


def _root_scan(
    problem: ControlProblem, blocks: Iterable[PassSamples],
    scalar: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    accept: Callable[[PassSamples, float], bool],
) -> Tuple[Optional[float], PassSamples, np.ndarray]:
    """(T, last block, sampled values) of the first accepted root of a scalar on a pass.

    `scalar(psi, H psi, F psi)` maps stacks of those vectors (no U, F or
    H is formed) to one value each.  The blocks of one pass are scanned as
    they arrive, each on the rows past the prefix scanned so far, and the
    candidates taken in order: an interior sample with |value| <= 1e-10 as
    it is, a strict sign change resolved by `_bracketed_root` from the two
    sampled values, evaluating `PassSamples.vectors_at` inside the
    bracket.  The first candidate t with `accept(block, t)` is T; T is
    None when none is, and then the values cover the whole pass.
    Evaluation counts, rejected candidates and the stopping step are
    logged at debug level.  The candidates and their
    resolution are those of a scan of the whole window: a bracket
    [t_k, t_k+1] is resolved only once every sample of its dense-output
    stencil exists, sample max(k + 2, 3) (`PassSamples.rows_at`), and
    nothing is resolved until max|value| >= 1e-12, the test that tells a
    scalar vanishing identically apart.
    """
    T, s, done, live, nxt = None, None, 0, False, 0

    def value_at(t: float) -> float:
        return float(scalar(*smp.vectors_at(problem, t))[0])

    for smp in blocks:
        n_steps, times = smp.n_steps, smp.times
        if s is None:
            s = np.empty(n_steps + 1)
        m = times.size
        r, done = slice(done, m), m
        rows = (smp.V[r], smp.lambda0[r], smp.lambdas[r], smp.tau_acc[r])
        s[r] = scalar(*_state_vectors(problem, rows, smp.F0_eig))
        live = live or not float(np.abs(s[r]).max()) < 1e-12
        if not live:
            continue
        last = n_steps - 1 if m == n_steps + 1 else m - 3 if m > 3 else -1
        for k in range(nxt, last + 1):
            if abs(s[k]) <= 1e-10 and k > 0:
                root = float(times[k])
            elif s[k] * s[k + 1] < 0:
                root, _, evals = _bracketed_root(value_at, times[k], times[k + 1], s[k], s[k + 1])
                log.debug(
                    "root scan: resolved [%.12g, %.12g] in %d evaluations",
                    times[k], times[k + 1], evals,
                )
            else:
                continue
            if accept(smp, root):
                T, last = root, k
                break
            log.debug("root scan: rejected candidate at t = %.12g", root)
        nxt = last + 1
        if T is not None:
            break
    stop = min(nxt + 1, n_steps) if T is not None else n_steps
    log.debug(
        "root scan: pass 1 stopped at step %d of %d (t = %.6g); %d steps integrated",
        stop, n_steps, times[stop], m - 1,
    )
    return T, smp, s


# samples of the fine grid over [t_k-1, t_k+1] that resolves the sampled
# closest approach of s to zero at t_k
_CLOSEST_GRID = 257


def _extremal(
    problem: ControlProblem, kind: SolutionKind, H0: np.ndarray, m0: MultiplierVector,
    blocks: Iterable[PassSamples], dt: Optional[float], psi_f: Optional[PureState] = None,
    bures_angle: Optional[float] = None,
) -> ExtremalSolution:
    """The certified extremal of a projected seed (H0, m0) from its one pass.

    T is the first root of s = Im<psi|HF|psi>/omega^2 that `_root_scan`
    finds with |Im| <= 1e-10 omega^2; NoSolutionError when s is not
    negligible but no root is accepted, naming the closest approach of s
    to zero (the smallest interior local minimum of |s| on the samples,
    resolved on a fine grid of the pass over its two neighbouring steps).
    Only where s vanishes identically (every stopping time is extremal)
    the scan runs once more, on the complete pass: given `psi_f`, T is the
    first root of minus the fidelity rate 2 Im(conj(a) <psi_f|H|psi>),
    a = <psi_f|psi>, with |a| >= 1 - 1e-9; otherwise where the Bures angle
    from psi_i first reaches `bures_angle`.  The certified trajectory is
    the pass on [0, T] (`_certified`, its step capped by `dt`) in the
    gauge where the endpoint evaluates to 1, which exists, as
    Re<psi|HF|psi> = omega^2 in the gauge of the projected seed.
    """
    cap = _step_cap(dt)
    w2 = problem.omega**2
    ends: Dict[float, complex] = {}  # <psi|HF|psi> where evaluated, so at T once

    def endpoint(smp: PassSamples, t: float) -> complex:
        _, F, H, psi = smp.at(problem, t)
        ends[t] = complex(*endpoint_constraint(psi[0], H[0], F[0]))
        return ends[t]

    def im_part(psi: np.ndarray, hpsi: np.ndarray, fpsi: np.ndarray) -> np.ndarray:
        return np.einsum("ka,ka->k", hpsi.conj(), fpsi).imag / w2

    T, smp, s = _root_scan(
        problem, blocks, im_part, lambda block, t: abs(endpoint(block, t).imag) <= 1e-10 * w2
    )
    if T is None and not float(np.abs(s).max()) < 1e-12:
        mag = np.abs(s)
        dips = 1 + np.nonzero((mag[1:-1] <= mag[:-2]) & (mag[1:-1] <= mag[2:]))[0]
        if dips.size:
            k = int(dips[np.argmin(mag[dips])])
            # the sampled minimum, resolved on a fine grid of the pass around it
            fine = np.linspace(smp.times[k - 1], smp.times[k + 1], _CLOSEST_GRID)
            near = np.abs(im_part(*smp.vectors_at(problem, fine)))
            j = int(np.argmin(near))
            closest = f"closest approach |s| = {near[j]:.2e} omega^2 at t = {fine[j]:.4g}"
        else:
            closest = "|s| has no interior local minimum"
        changes = int(np.count_nonzero(s[:-1] * s[1:] < 0))
        raise NoSolutionError(
            "no accepted root of Im<psi|HF|psi> found in "
            f"(0, {smp.times[-1]:g}]; {closest}, "
            + (f"{changes} sign change(s), each root rejected" if changes else "no sign change")
        )
    if T is None:
        if psi_f is None and bures_angle is None:
            raise NoSolutionError(
                "Im<psi|HF|psi> vanishes identically along this seed, so every "
                "stopping time is extremal; a target state (solve-closed) or "
                "target_bures_angle (shoot) selects one"
            )
        ref = (problem.psi_i if psi_f is None else psi_f).amplitudes.conj()

        def target(psi: np.ndarray, hpsi: np.ndarray, fpsi: np.ndarray) -> np.ndarray:
            a = psi @ ref
            if psi_f is None:
                return np.arccos(np.minimum(1.0, np.abs(a))) - bures_angle
            return -2.0 * (np.conj(a) * (hpsi @ ref)).imag

        def reached(block: PassSamples, t: float) -> bool:
            return psi_f is None or abs(block.vectors_at(problem, t)[0][0] @ ref) >= 1.0 - 1e-9

        T = _root_scan(problem, [smp], target, reached)[0]
        if T is None:
            goal = "the target state" if psi_f is not None else f"Bures angle {bures_angle:g}"
            raise NoSolutionError(f"the flow never reaches {goal} within (0, {smp.times[-1]:g}]")
        endpoint(smp, T)
    return _certified(problem, kind, H0, m0, T, ends[T].real, cap, smp)


def shoot(
    problem: ControlProblem,
    H0_seed: np.ndarray,
    m0_seed: MultiplierVector,
    t_max: float,
    dt: Optional[float] = None,
    target_bures_angle: Optional[float] = None,
) -> ExtremalSolution:
    """Forward-shoot the coupled system until the endpoint condition holds.

    The seed is projected and rescaled (`_project_seed`), and its one
    integration pass (`integrate_blocks`) goes to the core it shares with
    `solve_closed_subalgebra` (`_extremal`).  The pass samples steps of
    0.075/r, with r the flow's rate bound (`dynamics._pass_rate`), or of
    `dt` where that is finer: `dt` only caps the step, here as on the
    certified grid.  A stepped pass takes eighth-order Adams steps there,
    after seven sixth-order Runge-Kutta steps that start it (`rk6_step`),
    and stops at the first accepted root of Im<psi|HF|psi>
    (`_root_scan`): it is scanned at each drift checkpoint (0.1/omega
    apart) once its check has passed, and runs no further than the first
    checkpoint past the sample T needs; a closed forbidden set yields its
    exact flow on the same grid at once (`exact_pass`).  That one pass is
    the whole integration: the certified trajectory is the pass evaluated
    on a uniform grid of [0, T] (`PassSamples.rows_at`, the Hermite
    interpolant of the pass's own samples and slopes around each grid
    time).  T is the one a scan of the whole window would find.

    Seeds for which s vanishes identically (e.g. no forbidden directions)
    admit every stopping time; then `target_bures_angle` selects T as the
    first time the Bures angle from psi_i reaches that value.
    """
    H0, m0 = _project_seed(problem, H0_seed, m0_seed)
    blocks = integrate_blocks(problem, m0, H0, t_max, dt)
    return _extremal(problem, SolutionKind.SHOT, H0, m0, blocks, dt, bures_angle=target_bures_angle)
