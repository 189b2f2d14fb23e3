"""Residual checks certifying a trajectory as time-extremal.

Every check evaluates one defining property of the extremal system:
the three Hamiltonian constraints (tracelessness, energy normalization,
forbidden directions), the conservation-law residual dF/dt + i[H, F] = 0
and its initial structure {F(0), P(0)} = F(0), the endpoint condition
<psi(T)|H(T)F(T)|psi(T)> = 1 of a state target, the speed bound
DeltaE <= omega with its multiplier decomposition, conservation of
Tr[F^2], the metric identity sqrt(g_tt) = DeltaE, the propagator's own
equation i dU/dt = H U on the stored samples (`_u_defect`), and the speed
theorem's efficiency arccos|<psi(0)|psi(T)>|/(omega T) <= 1.
Residuals are dimensionless: traces are normalized by powers of omega and
operator norms by ||F(0)||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Dict, Optional, Tuple

import numpy as np

from .algebra import forbidden_sum, stack_product

__all__ = [
    "Tolerances",
    "VerificationReport",
    "check_constraints",
    "chko_residual",
    "initial_condition_residual",
    "endpoint_constraint",
    "speed_profile",
    "speed_efficiency",
    "equivalence_residuals",
    "certify",
]

_TINY = 1e-300


@dataclass(frozen=True)
class Tolerances:
    """Pass thresholds for the report verdicts.

    Scale conventions: `speed_excess` and `aa` multiply omega;
    `endpoint_im` and `endpoint_re_floor` multiply omega^2; `eig_drift`
    multiplies max(1, spectral radius of F(0)); everything else applies to
    an already-dimensionless residual.  `speed_excess` also bounds
    `speed_efficiency` - 1, the same slack integrated over [0, T].
    """

    traceless: float = 1e-8
    norm: float = 1e-8
    term: float = 1e-8
    chko: float = 1e-8
    initial_cond: float = 1e-8
    endpoint_re: float = 1e-8
    endpoint_im: float = 1e-8
    endpoint_re_floor: float = 1e-6
    speed_excess: float = 1e-9
    trf2: float = 1e-8
    lambda0: float = 1e-9
    eig_drift: float = 1e-7
    aa: float = 1e-6
    equivalence: float = 1e-8
    endpoint_equiv: float = 1e-8
    speed_decomp: float = 1e-8
    u_mismatch: float = 1e-8

    @classmethod
    def analytic(cls) -> "Tolerances":
        """For trajectories built from closed-form expressions."""
        return cls()

    @classmethod
    def integrated(cls) -> "Tolerances":
        """For trajectories from the fixed-step integrator (dt^2-limited)."""
        return cls(
            traceless=1e-6,
            norm=1e-6,
            term=1e-6,
            chko=1e-6,
            endpoint_re=1e-6,
            endpoint_im=1e-6,
            equivalence=1e-6,
            u_mismatch=1e-6,
        )


@dataclass(frozen=True)
class VerificationReport:
    """All residuals for one trajectory, plus per-field verdicts.

    `endpoint_re` is judged against 1 when the multipliers were
    renormalized, otherwise only against a nonzero floor (a nonzero real
    part is what makes the renormalization possible).  `u_defect`
    (`_u_defect`) is judged by the `u_mismatch` verdict and tolerance.
    `speed_efficiency` is the Bures angle travelled over omega T, at most 1
    by the speed theorem; its verdict allows 1 + `speed_excess`, the slack
    the energy spread has at each sample.
    """

    traceless_max: float
    norm_max: float
    term_max: float
    chko_residual: float
    initial_cond_residual: float
    endpoint_re: float
    endpoint_im: float
    speed_max_excess: float
    trf2_drift: float
    aa_identity_max: float
    eig_drift_max: float
    lambda0_drift: float
    endpoint_equiv_gap: float
    speed_decomp_gap: float
    equivalence_max: float
    u_defect: float
    speed_efficiency: float
    omega: float
    renormalized: bool
    verdict: Dict[str, bool] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict.get("overall", False)

    def as_dict(self) -> dict:
        """Every field in declaration order, the verdicts as a copy."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["verdict"] = dict(self.verdict)
        return out

    def render_table(self) -> str:
        mapping = {
            "traceless": self.traceless_max,
            "norm": self.norm_max,
            "term": self.term_max,
            "chko": self.chko_residual,
            "initial_cond": self.initial_cond_residual,
            "endpoint_re": self.endpoint_re,
            "endpoint_im": self.endpoint_im,
            "speed_excess": self.speed_max_excess,
            "trf2": self.trf2_drift,
            "lambda0": self.lambda0_drift,
            "eig_drift": self.eig_drift_max,
            "aa": self.aa_identity_max,
            "equivalence": self.equivalence_max,
            "endpoint_equiv": self.endpoint_equiv_gap,
            "speed_decomp": self.speed_decomp_gap,
            "u_mismatch": self.u_defect,
            "speed_efficiency": self.speed_efficiency,
        }
        rows = []
        for name in sorted(self.verdict):
            if name == "overall":
                continue
            flag = "PASS" if self.verdict[name] else "FAIL"
            rows.append(f"{name:<16} {mapping[name]:>14.6e}  {flag}")
        status = "PASS" if self.passed else "FAIL"
        rows.append(f"{'overall':<16} {'':>14}  {status}")
        return "\n".join(rows)


# -- individual checks -------------------------------------------------------


def _constraint_profiles(traj, omega: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample residuals of the three Hamiltonian constraints.

    traceless: |Tr H|/omega; norm: |Tr H^2 - 2 omega^2|/(2 omega^2);
    term: max over forbidden j of |Tr[H X_j]|/omega (zero without any).
    """
    H = traj.H
    traceless = np.abs(np.einsum("kaa->k", H).real) / omega
    norm = np.abs(np.real(np.einsum("kab,kba->k", H, H)) - 2 * omega**2) / (2 * omega**2)
    if traj.forbidden:
        xf = traj.forbidden_generators()
        term = np.abs(np.real(np.einsum("kab,jba->kj", H, xf))).max(axis=1) / omega
    else:
        term = np.zeros(H.shape[0])
    return traceless, norm, term


def check_constraints(traj, omega: float) -> Tuple[float, float, float]:
    """Max residuals of the three Hamiltonian constraints over the grid.

    traceless: |Tr H|/omega; norm: |Tr H^2 - 2 omega^2|/(2 omega^2);
    term: |Tr[H X_j]|/omega over all forbidden j.
    """
    return tuple(float(r.max()) for r in _constraint_profiles(traj, omega))


# The interpolation weights below are ratios of integers, each rounded
# once by Python's correctly rounded int / int; each p's table on its first use.


def _lagrange_rows(p: int, num: int, den: int) -> list:
    """Weights of the interpolant through samples at 0..p-1 at x = num/den:
    L_j(x) = prod_{i != j} (x - i)/(j - i)."""
    return [
        math.prod(num - i * den for i in range(p) if i != j)
        / math.prod(den * (j - i) for i in range(p) if i != j)
        for j in range(p)
    ]


# `_derivative`'s rows at p = 7, per unit step: the central (-1, 9, -45, 0,
# 45, -9, 1)/60, which errs by h^6 f^(7)/140, and the one-sided rows of the
# three samples at each end, the worst of which, (-147, 360, -450, 400,
# -225, 72, -10)/60, errs by h^6 f^(7)/7
@lru_cache(maxsize=None)
def _derivative_rows(p: int) -> np.ndarray:
    """D[i, j] = L_j'(i): the derivative of the interpolant through samples
    at 0..p-1, at each of them (Fornberg's weights on a unit grid)."""

    def prod(x: int, skip: tuple) -> int:
        return math.prod(x - m for m in range(p) if m not in skip)

    def weight(i: int, j: int) -> float:
        if i == j:  # the sum over k != i of 1/(i - k)
            return sum(prod(i, (i, k)) for k in range(p) if k != i) / prod(i, (i,))
        return prod(i, (i, j)) / prod(j, (j,))

    return np.array([[weight(i, j) for j in range(p)] for i in range(p)])


def _derivative(f: np.ndarray, times: np.ndarray) -> np.ndarray:
    """df/dt on a uniform grid from the samples f (sample-major), sixth order.

    At each sample it is the derivative of the sextic through the seven
    nearest samples: inside the grid (-f_{k-3} + 9 f_{k-2} - 45 f_{k-1} +
    45 f_{k+1} - 9 f_{k+2} + f_{k+3})/60h, at the three samples of either
    end the one-sided rows of `_derivative_rows`.  `Trajectory` holds a
    grid to seven samples or more and every step to the mean step, the step here.
    """
    K = times.size
    D = _derivative_rows(7) * ((K - 1) / (times[-1] - times[0]))
    out = np.empty(f.shape, dtype=np.result_type(f, float))
    out[:3] = np.tensordot(D[:3], f[:7], axes=1)
    out[-3:] = np.tensordot(D[4:], f[-7:], axes=1)
    out[3:-3] = (
        D[3, 0] * (f[:-6] - f[6:]) + D[3, 1] * (f[1:-5] - f[5:-1]) + D[3, 2] * (f[2:-4] - f[4:-2])
    )
    return out


def _conservation_residuals(traj) -> Tuple[float, float, float]:
    """(chko, state form, anticommutator form) from one dF/dt + i[H, F].

    See chko_residual and equivalence_residuals.
    """
    fdot = _derivative(traj.F, traj.times)
    resid = fdot + 1.0j * (stack_product(traj.H, traj.F) - stack_product(traj.F, traj.H))
    fnorm = max(float(np.linalg.norm(traj.F[0])), _TINY)
    per_sample = np.linalg.norm(resid.reshape(resid.shape[0], -1), axis=1)
    chko = float(per_sample.max()) / (traj.omega * fnorm)
    state_res = np.linalg.norm(np.einsum("kab,kb->ka", resid, traj.psi), axis=1)
    state_max = float(state_res.max()) / (traj.omega * fnorm)
    fpsi = np.einsum("kab,kb->ka", traj.F, traj.psi)
    fp = np.einsum("ka,kb->kab", fpsi, traj.psi.conj())
    anti = fp + np.conj(np.transpose(fp, (0, 2, 1))) - traj.F
    anti_max = float(
        np.linalg.norm(anti.reshape(anti.shape[0], -1), axis=1).max()
    ) / fnorm
    return chko, state_max, anti_max


def chko_residual(traj) -> float:
    """Max normalized Frobenius norm of dF/dt + i[H, F] on the grid.

    dF/dt is `_derivative`, sixth order (seven-point central differences,
    one-sided rows at the three samples of either end), so for an exact
    trajectory the residual is the O(dt^6) differencing truncation.
    Normalization: omega ||F(0)||_F.
    """
    return _conservation_residuals(traj)[0]


def initial_condition_residual(F0: np.ndarray, psi_i) -> float:
    """||F(0)P(0) + P(0)F(0) - F(0)||_F with P(0) = |psi_i><psi_i|.

    Zero exactly when F(0) is supported on the first row and column (with
    vanishing corner) of any basis whose first vector is psi_i.
    """
    amp = psi_i.amplitudes if hasattr(psi_i, "amplitudes") else np.asarray(psi_i, complex)
    F0 = np.asarray(F0, dtype=complex)
    fpsi = F0 @ amp
    fp = np.outer(fpsi, amp.conj())
    return float(np.linalg.norm(fp + fp.conj().T - F0))


def endpoint_constraint(psi_T, H_T: np.ndarray, F_T: np.ndarray) -> Tuple[float, float]:
    """(Re, Im) of <psi_T|H(T)F(T)|psi_T>.

    Extremality requires the imaginary part to vanish; a nonzero real part
    is then rescaled to 1 by renormalizing all multipliers by 1/Re.
    """
    amp = psi_T.amplitudes if hasattr(psi_T, "amplitudes") else np.asarray(psi_T, complex)
    val = complex(amp.conj() @ (H_T @ (F_T @ amp)))
    return val.real, val.imag


def speed_profile(traj, omega: float) -> Tuple[np.ndarray, float]:
    """Energy spread DeltaE(t) on the grid and its maximum excess over omega."""
    hpsi = np.einsum("kab,kb->ka", traj.H, traj.psi)
    mean = np.real(np.einsum("ka,ka->k", traj.psi.conj(), hpsi))
    mean_sq = np.real(np.einsum("ka,ka->k", hpsi.conj(), hpsi))
    de = np.sqrt(np.maximum(mean_sq - mean**2, 0.0))
    return de, float((de - omega).max())


def speed_efficiency(traj) -> float:
    """arccos|<psi(0)|psi(T)>| / (omega T): the share of the speed limit used.

    The Bures angle travelled is at most the integral of DeltaE, itself at
    most omega T, so the efficiency is at most 1, and 1 exactly on a
    geodesic at full speed.  The angle is taken as atan2 of the overlap's
    orthogonal and parallel parts, which keeps its precision where the
    overlap is near 1 and arccos would lose half the digits.
    """
    psi0, psiT = traj.psi[0], traj.psi[-1]
    overlap = complex(np.vdot(psi0, psiT))
    across = float(np.linalg.norm(psiT - overlap * psi0))
    angle = math.atan2(across, abs(overlap))
    return angle / (traj.omega * float(traj.times[-1] - traj.times[0]))


def _g_stack(traj) -> np.ndarray:
    return forbidden_sum(traj.lambdas / traj.lambda0[:, None], traj.forbidden_generators())


def equivalence_residuals(traj) -> Tuple[float, float]:
    """The two equivalent reformulations of the conservation law.

    state form: max ||(dF/dt + i[H,F]) psi|| / (omega ||F(0)||);
    anticommutator form: max ||F P + P F - F||_F / ||F(0)||, P = |psi><psi|.
    """
    return _conservation_residuals(traj)[1:]


# entries of H per block of `_u_defect`, N^2 a step, which bounds its
# temporaries (about 28 bytes an entry, as real 2N x 2N blocks) whatever the
# trajectory's length: 96 steps a block at N = 4, 384 at N = 2
_DIRECT_BLOCK = 1536

# the stage times of two half-steps of Butcher's sixth-order Runge-Kutta
# method strictly inside a step, in units of the step, as (numerator,
# denominator): the first half-step's inner stages at 1/6, 1/4 and 1/3, its
# end at 1/2, and the second half-step's inner stages at 2/3, 3/4 and 5/6
_STAGES = ((1, 6), (1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (5, 6))

# `_u_defect`'s weights of H at those stage times on a grid of p = min(8, K)
# samples, 7 or 8: _stage_rows(p)[o, c] holds the degree-(p - 1)
# interpolant's weights on a stencil's p samples at stage c of its step o
@lru_cache(maxsize=None)
def _stage_rows(p: int) -> np.ndarray:
    return np.array([[_lagrange_rows(p, o * d + n, d) for n, d in _STAGES] for o in range(p - 1)])


def _real_generators(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """-iH of a stack of H = re + i im as real 2N x 2N blocks [[Im H, Re H],
    [-Re H, Im H]]: the block times [Re X; Im X] is [Re(-iHX); Im(-iHX)]."""
    N = re.shape[-1]
    out = np.empty((*re.shape[:-2], 2 * N, 2 * N))
    out[..., :N, :N] = out[..., N:, N:] = im
    out[..., :N, N:] = re
    np.negative(re, out=out[..., N:, :N])
    return out


def _stage_hamiltonians(H: np.ndarray, a: int, b: int) -> Tuple[np.ndarray, np.ndarray]:
    """-iH (`_real_generators`) at the samples a..b of a uniform grid, and at
    t_k + (1/6, 1/4, 1/3, 1/2, 2/3, 3/4, 5/6) h for the steps k = a..b-1.

    The results are a (b - a + 1, 2N, 2N) and a (b - a, 7, 2N, 2N) stack,
    the steps leading.  Step k's stencil is the p = min(8, K) samples from
    s_k = min(max(k - 3, 0), K - p): the eight nearest samples, one-sided on
    the three steps at either end, and all seven on a grid of seven, the
    fewest there are.  Each value is the degree-(p - 1) interpolant through
    the stencil, which errs by O(step^8): all seven of a step are one
    product of its row `_stage_rows(p)[k - s_k]` with its stencil, and the
    stencils of the block are one gather.
    """
    K, N = H.shape[:2]
    p = min(8, K)
    k = np.arange(a, b)
    s = np.clip(k - 3, 0, K - p)
    # each step's seven values are one product of its weights with its
    # stencil, the entries of H as [re, im] float pairs, as the weights are real
    stencils = H[s[:, None] + np.arange(p)].view(float).reshape(b - a, p, 2 * N * N)
    stages = (_stage_rows(p)[k - s] @ stencils).reshape(b - a, -1, N, N, 2)
    del stencils  # before the real blocks are formed: the largest temporaries
    ends = H[a : b + 1]
    return _real_generators(ends.real, ends.imag), _real_generators(stages[..., 0], stages[..., 1])


def _u_defect(times: np.ndarray, H: np.ndarray, U: np.ndarray) -> float:
    """sum_k ||U_{k+1} - P_k U_k||_F, P_k two RK6 half-steps of i dU/dt = H U.

    P_k is two steps of size h/2 of Butcher's sixth-order method, stepped
    as `dynamics.rk6_step` steps, on its tableau `_RK6_A` and `_RK6_B`:
    the stages fall at t_k + (0, 1/6, 1/3, 1/6, 1/4, 1/4, 1/2) h and t_k +
    (1/2, 2/3, 5/6, 2/3, 3/4, 3/4, 1) h.  -iH at the step's ends
    is the sample there and at the seven inner stage times the interpolant
    `_stage_hamiltonians`, which adds O(step^9) to a step.  Each step's RK6
    truncation is O(step^7), a 64th of that of one step of size h, so the
    check stays at rounding level on the grids `_derivative`'s sixth-order
    differences are sized for.  P_k is the RK6 map of a skew-Hermitian
    generator, so ||P_k||_2 = 1 + O(step^7), and by the triangle inequality
    the sum bounds, to that order, the largest gap between U and the RK6
    propagation of the H samples from U_0.  It reads `times`, `H` and `U`
    alone, block by block, in real arithmetic with the steps leading: -iH
    as a real 2N x 2N block and U as [Re U; Im U], so each stage of a block
    is one batched real product and each stage input, and the step, one
    product of a tableau row with the stacked stages.
    """
    # not at the top: `dynamics` imports this module (for `Trajectory.to_csv`)
    from .dynamics import _RK6_A, _RK6_B

    def increment(X, gens, hh):
        # one RK6 step of dX/dt = -iH X from X, of size hh, with gens the -iH
        # at its nodes
        Q = np.empty((7, *X.shape))
        rows = Q.reshape(7, -1)
        np.matmul(gens[0], X, out=Q[0])
        for i in range(1, 7):
            np.matmul(gens[i], X + hh * (_RK6_A[i, :i] @ rows[:i]).reshape(X.shape), out=Q[i])
        return hh * (_RK6_B @ rows).reshape(X.shape)

    N = H.shape[-1]
    block = max(1, _DIRECT_BLOCK // (N * N))
    total = 0.0
    for a in range(0, times.size - 1, block):
        b = min(a + block, times.size - 1)
        ends, stages = _stage_hamiltonians(H, a, b)
        g16, g14, g13, g12, g23, g34, g56 = stages.swapaxes(0, 1)
        Us = np.concatenate((U[a : b + 1].real, U[a : b + 1].imag), axis=1)
        hh = (0.5 * np.diff(times[a : b + 1]))[:, None, None]  # half-step
        Uk = Us[:-1]
        half = Uk + increment(Uk, (ends[:-1], g16, g13, g16, g14, g14, g12), hh)
        gap = Us[1:] - half - increment(half, (g12, g23, g56, g23, g34, g34, ends[1:]), hh)
        total += float(np.linalg.norm(gap.reshape(b - a, 2 * N * N), axis=1).sum())
    return total


# -- full certification ------------------------------------------------------


def certify(
    traj,
    tolerances: Optional[Tolerances] = None,
    renormalized: Optional[bool] = None,
) -> VerificationReport:
    """Evaluate every residual on a trajectory and attach verdicts.

    `renormalized` defaults to the trajectory's own flag; it decides
    whether the endpoint real part is compared against 1 or merely against
    a nonzero floor.
    """
    tol = tolerances if tolerances is not None else Tolerances.integrated()
    if renormalized is None:
        renormalized = bool(getattr(traj, "renormalized", False))
    w = traj.omega
    N = traj.dim
    traceless, norm, term = check_constraints(traj, w)
    chko, state_form, anti_form = _conservation_residuals(traj)
    icr = initial_condition_residual(traj.F[0], traj.psi[0])
    f0_norm = max(float(np.linalg.norm(traj.F[0])), _TINY)
    re, im = endpoint_constraint(traj.psi[-1], traj.H[-1], traj.F[-1])
    de, excess = speed_profile(traj, w)
    G = _g_stack(traj)
    # DeltaE^2 against its multiplier form omega^2 - (Tr[G^2]/2 - Var G),
    # both sides from the stored samples
    trg2 = np.real(np.einsum("kab,kba->k", G, G))
    gpsi = np.einsum("kab,kb->ka", G, traj.psi)
    g_mean = np.real(np.einsum("ka,ka->k", traj.psi.conj(), gpsi))
    var_g = np.real(np.einsum("ka,ka->k", gpsi.conj(), gpsi)) - g_mean**2
    decomp = float(np.abs(de**2 - (w**2 - (trg2 / 2.0 - var_g))).max()) / w**2

    vals = 2 * w**2 * traj.lambda0**2 + N * np.einsum("km,km->k", traj.lambdas, traj.lambdas)
    trf2_drift = float(vals.max() - vals.min()) / max(abs(float(vals[0])), _TINY)
    lam0_drift = float(np.abs(traj.lambda0 - traj.lambda0[0]).max())

    eigs = traj.F_spectrum
    eig_scale = max(1.0, float(np.abs(eigs[0]).max()))
    eig_drift = float(np.abs(eigs - eigs[0]).max())

    psi_dot = _derivative(traj.psi, traj.times)
    g_tt = np.real(np.einsum("ka,ka->k", psi_dot.conj(), psi_dot)) - np.abs(
        np.einsum("ka,ka->k", traj.psi.conj(), psi_dot)
    ) ** 2
    aa = float(np.abs(np.sqrt(np.maximum(g_tt, 0.0)) - de).max())

    G_T = G[-1]
    comm = 1.0j * (traj.H[-1] @ G_T - G_T @ traj.H[-1])
    c2 = float(np.real(traj.psi[-1].conj() @ (comm @ traj.psi[-1])))
    equiv_gap = abs(im + traj.lambda0[-1] * c2 / 2.0) / w**2

    eq_max = max(state_form, anti_form)
    u_defect = _u_defect(traj.times, traj.H, traj.U)
    efficiency = speed_efficiency(traj)

    verdict = {
        "traceless": bool(traceless <= tol.traceless),
        "norm": bool(norm <= tol.norm),
        "term": bool(term <= tol.term),
        "chko": bool(chko <= tol.chko),
        "initial_cond": bool(icr / f0_norm <= tol.initial_cond),
        "endpoint_re": bool(
            abs(re - 1.0) <= tol.endpoint_re
            if renormalized
            else abs(re) >= tol.endpoint_re_floor * w**2
        ),
        "endpoint_im": bool(abs(im) <= tol.endpoint_im * w**2),
        "speed_excess": bool(excess <= tol.speed_excess * w),
        "trf2": bool(trf2_drift <= tol.trf2),
        "lambda0": bool(lam0_drift <= tol.lambda0),
        "eig_drift": bool(eig_drift <= tol.eig_drift * eig_scale),
        "aa": bool(aa <= tol.aa * w),
        "equivalence": bool(eq_max <= tol.equivalence),
        "endpoint_equiv": bool(equiv_gap <= tol.endpoint_equiv),
        "speed_decomp": bool(decomp <= tol.speed_decomp),
        "u_mismatch": bool(u_defect <= tol.u_mismatch),
        "speed_efficiency": bool(efficiency <= 1.0 + tol.speed_excess),
    }
    verdict["overall"] = all(verdict.values())
    return VerificationReport(
        traceless_max=traceless,
        norm_max=norm,
        term_max=term,
        chko_residual=chko,
        initial_cond_residual=icr,
        endpoint_re=re,
        endpoint_im=im,
        speed_max_excess=excess,
        trf2_drift=trf2_drift,
        aa_identity_max=aa,
        eig_drift_max=eig_drift,
        lambda0_drift=lam0_drift,
        endpoint_equiv_gap=equiv_gap,
        speed_decomp_gap=decomp,
        equivalence_max=eq_max,
        u_defect=u_defect,
        speed_efficiency=efficiency,
        omega=w,
        renormalized=renormalized,
        verdict=verdict,
    )
