"""Solvers: free transport, closed-subalgebra flows, two-level enumeration,
the restricted two-qubit instance and general forward shooting."""

import logging
import math
import re

import numpy as np
import pytest

import helpers
from qbrach import dynamics, solvers, verify
from qbrach.algebra import basis_of, is_closed_subalgebra
from qbrach.dynamics import ControlProblem, MultiplierVector, SingularGaugeError, Trajectory
from qbrach.solvers import (
    TWO_QUBIT_FORBIDDEN,
    ExtremalSolution,
    NoSolutionError,
    NotClosedError,
    SolutionKind,
    m1_boundary,
    m1_final_state,
    m1_trajectory,
    shoot,
    solve_closed_subalgebra,
    solve_free,
    solve_m1_two_level,
    solve_two_qubit_example,
    sweep_m1,
)
from qbrach.states import PureState
from qbrach.verify import Tolerances, certify, endpoint_constraint

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# endpoint pair produced by the lambda_1 = 3 branch at omega = 10 (duration
# sqrt(a^2 - b^2)/omega with a = pi/4 + 2*pi/2, b = 3 T)
DESIGNED_OB = 0.6732909377195485
DESIGNED_PHI = -2.953791334823616
DESIGNED_T = 0.37613750263324641


def m1_oracle_fields(lams, Ts, omega):
    """Final states and endpoint values of the forbidden-sigma_z flow on a
    (lambda_1, T) grid, built from the closed-form 2x2 propagator
    U = diag(e^{i lam T}, e^{-i lam T}) exp(-i (omega sy + lam sz) T)."""
    lam = np.asarray(lams, float)[:, None]
    T = np.asarray(Ts, float)[None, :]
    big = np.sqrt(lam**2 + omega**2)
    a = big * T
    ca, sa = np.cos(a), np.sin(a)
    E = np.empty((lam.shape[0], T.shape[1], 2, 2), dtype=complex)
    E[..., 0, 0] = ca - 1j * sa * lam / big
    E[..., 0, 1] = -sa * omega / big
    E[..., 1, 0] = sa * omega / big
    E[..., 1, 1] = ca + 1j * sa * lam / big
    ph = np.exp(1j * lam * T)
    U = np.empty_like(E)
    U[..., 0, :] = ph[..., None] * E[..., 0, :]
    U[..., 1, :] = ph.conj()[..., None] * E[..., 1, :]
    psiT = np.einsum("nmab,b->nma", U, helpers.PLUS_X.amplitudes)
    th = 2.0 * lam * T
    H = np.zeros_like(E)
    H[..., 0, 1] = -1j * omega * np.exp(1j * th)
    H[..., 1, 0] = 1j * omega * np.exp(-1j * th)
    F = np.zeros_like(E)
    F[..., 0, 0] = lam + 0.0 * T
    F[..., 1, 1] = -(lam + 0.0 * T)
    F[..., 0, 1] = H[..., 0, 1]
    F[..., 1, 0] = H[..., 1, 0]
    val = np.einsum("nma,nmab,nmbc,nmc->nm", psiT.conj(), H, F, psiT)
    return psiT, val


def m1_oracle_mismatch(omega_b, phi, lams, Ts, omega):
    """max(1 - fidelity, |Im<psi|HF|psi>|/omega^2) over the grid; any true
    extremal reaching (omega_b, phi) zeroes both entries simultaneously."""
    psiT, val = m1_oracle_fields(lams, Ts, omega)
    tgt = m1_final_state(omega_b, phi).amplitudes
    fid = np.abs(np.einsum("a,nma->nm", tgt.conj(), psiT))
    return np.maximum(1.0 - fid, np.abs(val.imag) / omega**2)


# -------------------------------------------------------------- solve_free


def test_solve_free_bit_flip():
    sol = solve_free(helpers.KET0, helpers.KET1, omega=1.0)
    assert sol.kind is SolutionKind.FREE
    assert sol.T == pytest.approx(np.pi / 2, abs=1e-14)
    assert sol.multipliers0.lambda0 == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(sol.H0, SY, atol=1e-14)
    traj = sol.trajectory
    assert traj.renormalized
    re, im = endpoint_constraint(traj.psi[-1], traj.H[-1], traj.F[-1])
    assert re == pytest.approx(1.0, abs=1e-12)
    assert abs(im) <= 1e-12
    assert sol.report.passed
    fid = abs(np.vdot(helpers.KET1.amplitudes, traj.psi[-1]))
    assert fid == pytest.approx(1.0, abs=1e-12)


def test_solve_free_degenerate_pair_is_trivial():
    sol = solve_free(helpers.PLUS_X, helpers.PLUS_X, omega=3.0)
    assert sol.T == 0.0
    assert sol.trajectory is None
    assert sol.report is None
    np.testing.assert_array_equal(sol.H0, np.zeros((2, 2)))


def test_solve_free_random_five_level():
    rng = np.random.default_rng(3)
    psi_i = helpers.random_state(rng, 5)
    psi_f = helpers.random_state(rng, 5)
    omega = 2.0
    sol = solve_free(psi_i, psi_f, omega)
    ob = math.acos(min(1.0, abs(psi_i.overlap(psi_f))))
    assert sol.T == pytest.approx(ob / omega, rel=1e-14)
    assert sol.report.passed
    fid = abs(np.vdot(psi_f.amplitudes, sol.trajectory.psi[-1]))
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_solve_free_rejects_bad_omega():
    with pytest.raises(ValueError):
        solve_free(helpers.KET0, helpers.KET1, omega=0.0)


def test_analytic_grids_refuse_work_beyond_the_cap():
    # a user step that needs more than _MAX_SAMPLES steps is refused before
    # the grid is built; the step _certified_step clamps to is never refused
    with pytest.raises(ValueError, match="more than 200000"):
        dynamics._grid(1.0, 1e-7)
    with pytest.raises(ValueError, match="more than 200000"):
        solve_free(helpers.KET0, helpers.KET1, omega=1.0, dt=1e-7)
    f0 = np.diag([1.0, -1.0]).astype(complex) + 0.5 * SY
    for T in np.random.default_rng(0).uniform(1e-3, 1e3, 50):
        for stepped in (True, False):
            step = solvers._certified_step(1.0, 1e8 * SY, f0, 1.0, T, Tolerances.analytic(), stepped)
            assert dynamics._grid(T, step).size == dynamics._MAX_SAMPLES + 1


def _constant_flow(kind, N, commuting, seed, omega=10.0):
    """(problem, G, F(0), m0) of a random constant-multiplier flow.

    H0 is random on the energy shell, or with `commuting` a polynomial in
    G (then [G, F(0)] = 0); lambda_0 is random in sign and size."""
    rng = np.random.default_rng([seed, N])
    basis = basis_of(kind, N)
    forbidden = tuple(sorted(rng.choice(basis.size, size=min(3, basis.size - 1), replace=False)))
    problem = ControlProblem(basis, helpers.random_state(rng, N), omega, forbidden=forbidden)
    lam0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    m0 = MultiplierVector(lam0, lam0 * omega * rng.normal(size=len(forbidden)))
    G = dynamics.g_operator(m0, basis, forbidden)
    if commuting:
        H0 = G + rng.normal() * (G @ G - np.trace(G @ G) / N * np.eye(N))
    else:
        H0 = np.einsum("m,mij->ij", rng.normal(size=basis.size), basis.generators)
    H0 *= np.sqrt(2.0) * omega / np.sqrt(np.real(np.einsum("ab,ba->", H0, H0)))
    return problem, G, lam0 * (H0 + G), m0


@pytest.mark.parametrize("tols", [Tolerances.analytic(), Tolerances.integrated()])
@pytest.mark.parametrize("commuting", [False, True])
@pytest.mark.parametrize("kind, N", [("gellmann", 2), ("gellmann", 3), ("gellmann", 4),
                                     ("pauli_strings", 2), ("pauli_strings", 4)])
def test_constant_flow_grid_keeps_each_check_within_a_quarter_of_its_tolerance(
    kind, N, commuting, tols
):
    # the certified step of the constant-multiplier flow is sized from each
    # check's own fifth-derivative bound, at a quarter of its tolerance
    for seed in range(3):
        problem, G, F0, m0 = _constant_flow(kind, N, commuting, seed)
        comm = np.linalg.norm(G @ F0 - F0 @ G) / np.linalg.norm(F0)
        assert (comm < 1e-12) == commuting
        T = 0.5
        step = solvers._certified_step(problem.omega, G, F0, m0.lambda0, T, tols, False)
        times = dynamics._grid(T, step)
        traj = dynamics.finalize_trajectory(
            problem, times, dynamics._constant_rows(problem, m0, times), F0
        )
        report = certify(traj, tols)
        assert report.chko_residual <= tols.chko / 4
        assert report.aa_identity_max <= tols.aa * problem.omega / 4
        assert report.u_defect <= tols.u_mismatch / 100


@pytest.mark.parametrize("omega, lam", [(10.0, 2.5), (10.0, 25.0), (3.0, 0.0)])
def test_constant_flow_step_is_the_least_of_its_two_checks(omega, lam):
    # the sigma_z-forbidden flow in closed form: spread(G) = 2 lambda,
    # ||[G, F(0)]||_F/||F(0)||_F = 2 lambda omega/sqrt(omega^2 + lambda^2)
    # and rho(F(0)) = sqrt(omega^2 + lambda^2).  At lambda = 2.5 the aa
    # check sets the step, at 25 the chko check; at 0 G = 0 and chko drops
    F0 = omega * SY + lam * SZ
    rho = math.hypot(omega, lam)
    for tols in (Tolerances.analytic(), Tolerances.integrated()):
        b_chko = (2 * lam) ** 4 * 2 * lam * omega / rho
        h_chko = (5 * tols.chko / 4 * omega / b_chko) ** 0.25 if b_chko else math.inf
        h_aa = (5 * tols.aa / 4 * omega / (lam + rho) ** 5) ** 0.25
        step = solvers._certified_step(omega, lam * SZ, F0, 1.0, 1.0, tols, False)
        assert step == pytest.approx(min(h_chko, h_aa), rel=1e-12)
        assert (h_chko < h_aa) == (lam == 25.0 and tols == Tolerances.analytic())


@pytest.mark.parametrize("seed", [2, 7])
def test_stepped_certified_step_is_the_rate_rule(seed):
    # on a stepped pass both checks keep the rate bound r^5 and the step is
    # (5 tau omega/r^5)^(1/4) at tau = min(chko, aa)/4, bit for bit
    problem, h0, m0_seed = helpers.su4_shoot_seed(seed)
    assert not is_closed_subalgebra(problem.basis, problem.forbidden)[0]
    H0, m0 = solvers._project_seed(problem, h0, m0_seed)
    G = dynamics.g_operator(m0, problem.basis, problem.forbidden)
    F0 = m0.lambda0 * (H0 + G)
    sol = shoot(problem, h0, m0_seed, t_max=3.0)
    r = dynamics._pass_rate(G, F0, m0.lambda0)
    for tols in (Tolerances.analytic(), Tolerances.integrated()):
        tau = min(tols.chko, tols.aa) / 4.0
        rule = max((5.0 * tau * 1.0 / r**5) ** 0.25, sol.T / dynamics._MAX_SAMPLES * (1.0 + 1e-12))
        assert solvers._certified_step(1.0, G, F0, m0.lambda0, sol.T, tols, True) == rule
        if tols == Tolerances.integrated():
            assert sol.trajectory.n_samples == dynamics._grid(sol.T, rule).size


def test_own_step_is_lifted_and_a_finer_dt_is_refused(monkeypatch):
    # the cap is made small so that no test starts the work it bounds, and
    # below each solver's own grid: its own step is lifted to
    # T/_MAX_SAMPLES, while a user's dt stays a cap and is refused where it
    # needs more samples than that.  The own grids are 47 steps (free) and
    # 171 (two-qubit); a root-searching solver's pass must fit under the
    # cap, so the closed seed is lambda_1 = 25 over t_max = 0.04 (100 pass
    # steps, 162 certified steps) and the shot is stepped recipe seed 7 over
    # t_max = 1 (77 pass steps, 144 certified steps)
    problem = helpers.m1_problem(10.0)
    shot = helpers.su4_shoot_seed(7)
    solves = [
        (40, lambda dt: solve_free(helpers.KET0, helpers.KET1, omega=1.0, dt=dt)),
        (120, lambda dt: solve_closed_subalgebra(
            problem, 10.0 * SY, MultiplierVector(1.0, [25.0]), t_max=0.04, dt=dt
        )),
        (120, lambda dt: solve_two_qubit_example(np.pi / 2, 10.0, dt=dt)),
        (120, lambda dt: shoot(*shot, t_max=1.0, dt=dt)),
    ]
    for cap, solve in solves:
        monkeypatch.setattr(dynamics, "_MAX_SAMPLES", cap)
        sol = solve(None)
        assert sol.trajectory.n_samples == cap + 1
        with pytest.raises(ValueError, match=f"more than {cap}"):
            solve(sol.T / 400)


def test_analytic_dt_is_a_cap_on_the_certified_step():
    # a step coarser than the default (about 1.3e-3 here) is capped to it:
    # the certificate passes and the trajectory is the default one bit for bit
    sol = solve_two_qubit_example(np.pi / 2, 10.0, dt=2e-3)
    ref = solve_two_qubit_example(np.pi / 2, 10.0)
    assert sol.report.passed
    for name in ("times", "V", "U", "H", "F", "psi", "lambdas", "tau_acc"):
        np.testing.assert_array_equal(getattr(sol.trajectory, name), getattr(ref.trajectory, name))
    coarse = solve_free(helpers.KET0, helpers.KET1, omega=1.0, dt=1.0)
    np.testing.assert_array_equal(
        coarse.trajectory.psi, solve_free(helpers.KET0, helpers.KET1, omega=1.0).trajectory.psi
    )


# ------------------------------------------------------ two-qubit instance


def test_two_qubit_full_rotation_reaches_bell_partner():
    sol = solve_two_qubit_example(np.pi / 2, omega=1.0)
    assert sol.kind is SolutionKind.TWO_QUBIT_EXAMPLE
    assert sol.T == pytest.approx(np.pi / np.sqrt(2.0), rel=1e-14)
    _, ket11, ket00 = helpers.two_qubit_kets()
    final = sol.trajectory.psi[-1]
    # |11> rotates fully onto i|00>
    assert np.vdot(ket00, final) == pytest.approx(1j, abs=1e-9)
    assert sol.report.passed


def test_two_qubit_slowdown_is_sqrt_two():
    omega, omega_b = 10.0, 0.7
    basis, ket11, ket00 = helpers.two_qubit_kets()
    sol = solve_two_qubit_example(omega_b, omega)
    target = PureState(np.cos(omega_b) * ket11 + 1j * np.sin(omega_b) * ket00)
    free = solve_free(PureState(ket11), target, omega)
    assert sol.T == pytest.approx(np.sqrt(2.0) * free.T, rel=1e-12)
    # constant H0 = (omega/sqrt2) s2s2 and energy spread omega/sqrt2 throughout
    np.testing.assert_allclose(
        sol.H0, omega / np.sqrt(2.0) * np.kron(SY, SY), atol=1e-12
    )
    traj = sol.trajectory
    hp = np.einsum("kab,kb->ka", traj.H, traj.psi)
    mean = np.real(np.einsum("ka,ka->k", traj.psi.conj(), hp))
    de = np.sqrt(np.real(np.einsum("ka,ka->k", hp.conj(), hp)) - mean**2)
    np.testing.assert_allclose(de, omega / np.sqrt(2.0), atol=1e-9 * omega)
    assert sol.report.passed


def test_two_qubit_small_angle_continuity():
    omega = 1.0
    sol = solve_two_qubit_example(1e-3, omega)
    assert sol.T == pytest.approx(np.sqrt(2.0) * 1e-3, rel=1e-12)
    assert sol.report.passed


def test_two_qubit_rejects_bad_angles():
    with pytest.raises(ValueError):
        solve_two_qubit_example(0.0, 1.0)
    with pytest.raises(ValueError):
        solve_two_qubit_example(2.0, 1.0)
    with pytest.raises(ValueError):
        solve_two_qubit_example(0.5, -1.0)


def test_build_two_qubit_f0_structure_and_relations():
    mu22, mu23, mu32 = 1.1, -0.7, 0.3
    omega = math.sqrt(2.0 * (mu22**2 + mu23**2 + mu32**2))
    free = {"10": 0.25, "01": -0.15, "12": 0.4}
    h0, f0 = helpers.build_two_qubit_f0(mu22, mu23, mu32, free_lambdas=free, omega=omega)
    basis, ket11, _ = helpers.two_qubit_kets()
    # H(0) carries exactly the three mu terms
    expected_h0 = (
        mu22 * np.kron(SY, SY) + mu23 * np.kron(SY, SZ) + mu32 * np.kron(SZ, SY)
    )
    np.testing.assert_allclose(h0, expected_h0, atol=1e-13)
    # multiplier coefficients obey the linear relations that kill every
    # matrix element of F(0) outside the first row/column of the psi_i frame
    coef = basis.coefficients(f0)
    table = {
        "σ1¹": free["10"],
        "σ1²": -mu23,
        "σ1³": 0.0,
        "σ2¹": free["01"],
        "σ2²": -mu32,
        "σ2³": 0.0,
        "σ1¹σ2¹": -mu22,
        "σ1¹σ2²": free["12"],
        "σ1²σ2¹": free["12"],
        "σ1¹σ2³": -free["10"],
        "σ1³σ2¹": -free["01"],
    }
    for label, value in table.items():
        assert coef[basis.index_of(label)] == pytest.approx(value, abs=1e-12)
    # structure check: F(0) psi_i spans everything F(0) does
    fpsi = f0 @ ket11
    overlap = complex(ket11.conj() @ fpsi)
    col = fpsi - overlap * ket11
    proj = np.outer(col, ket11.conj())
    proj = proj + proj.conj().T
    assert float(np.linalg.norm(f0 - proj)) <= 1e-12
    assert abs(overlap) <= 1e-12


@pytest.mark.parametrize("omega", [10.0, 1.0, 3.7, 0.3])
def test_two_qubit_example_seed_is_the_reference_f0_seed(omega):
    # the solver's H0 is the general builder's at mu22 = omega/sqrt 2,
    # mu23 = mu32 = 0, bit for bit and with the same signs of zero
    sol = solve_two_qubit_example(0.7, omega)
    h0, _ = helpers.build_two_qubit_f0(omega / math.sqrt(2.0), 0.0, 0.0, omega=omega)
    assert sol.H0.dtype == h0.dtype == np.complex128
    assert np.array_equal(sol.H0.view(np.uint64), h0.view(np.uint64))


def test_build_two_qubit_f0_validation():
    with pytest.raises(ValueError):
        helpers.build_two_qubit_f0(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        helpers.build_two_qubit_f0(1.0, 0.0, 0.0, omega=3.0)
    with pytest.raises(ValueError):
        helpers.build_two_qubit_f0(1.0, 0.0, 0.0, free_lambdas={"22": 1.0})
    # omitted omega falls back to the value implied by the norm constraint
    h0, _ = helpers.build_two_qubit_f0(1.0, 0.0, 0.0)
    assert np.real(np.trace(h0 @ h0)) == pytest.approx(2.0 * 2.0, rel=1e-12)


# ------------------------------------------------- two-level enumeration


def test_m1_designed_pair_recovers_branch():
    omega = 10.0
    sols = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, omega)
    assert len(sols) == 1
    sol = sols[0]
    assert sol.kind is SolutionKind.M1_TWO_LEVEL
    assert sol.branch == (2, 0)
    assert sol.T == pytest.approx(DESIGNED_T, abs=1e-12)
    lam1 = sol.multipliers0.lambdas[0] * omega**2
    assert lam1 == pytest.approx(3.0, abs=1e-9)
    assert sol.report.passed
    fid = abs(
        np.vdot(
            m1_final_state(DESIGNED_OB, DESIGNED_PHI).amplitudes,
            sol.trajectory.psi[-1],
        )
    )
    assert fid == pytest.approx(1.0, abs=1e-9)


def test_m1_branch_satisfies_matching_identities():
    omega = 10.0
    sol = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, omega)[0]
    k, _ = sol.branch
    lam1 = sol.multipliers0.lambdas[0] * omega**2
    a = math.hypot(omega, lam1) * sol.T
    b = lam1 * sol.T
    sin_t, cos_t = b / a, omega * sol.T / a
    sgn = -1.0 if k % 2 else 1.0
    sin2ob, cos2ob = math.sin(2 * DESIGNED_OB), math.cos(2 * DESIGNED_OB)
    r1 = sgn * cos_t + math.cos(DESIGNED_PHI) * sin2ob
    r2 = sgn * sin_t * math.sin(2.0 * b) - cos2ob
    r3 = sgn * sin_t * math.cos(2.0 * b) - math.sin(DESIGNED_PHI) * sin2ob
    assert max(abs(r1), abs(r2), abs(r3)) <= 1e-8
    # hypotenuse identity and the endpoint selection rule
    assert a * a - b * b == pytest.approx((omega * sol.T) ** 2, abs=1e-10)
    assert abs(lam1 * math.cos(2.0 * a)) <= 1e-8


def test_m1_enumeration_agrees_with_grid_oracle():
    omega = 10.0
    sols = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, omega)
    T_enum = sols[0].T
    lam1 = sols[0].multipliers0.lambdas[0] * omega**2
    # the enumerated point zeroes both endpoint conditions in the oracle
    psiT, val = m1_oracle_fields([lam1], [T_enum], omega)
    tgt = m1_final_state(DESIGNED_OB, DESIGNED_PHI).amplitudes
    assert abs(np.vdot(tgt, psiT[0, 0])) == pytest.approx(1.0, abs=1e-12)
    assert abs(val[0, 0].imag) / omega**2 <= 1e-12
    assert val[0, 0].real == pytest.approx(omega**2, rel=1e-12)
    # and no earlier stopping time admits a competing solution anywhere on
    # a dense multiplier range: the joint residual stays bounded away from 0
    lams = np.linspace(-6.0, 6.0, 481)
    ts = np.linspace(0.005, 0.95 * T_enum, 600)
    mm = m1_oracle_mismatch(DESIGNED_OB, DESIGNED_PHI, lams, ts, omega)
    assert float(mm.min()) > 1e-3


def test_m1_unreachable_pair_raises():
    with pytest.raises(NoSolutionError):
        solve_m1_two_level(np.pi / 3, np.pi / 2, omega=1.0)


def test_m1_enumeration_refuses_negative_or_too_many_branches(monkeypatch):
    # 4 x 7 pairs hold the global minimum of the full enumeration
    sol = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, 10.0, k_max=3, l_max=3)[0]
    assert sol.branch == (2, 0) and sol.T == DESIGNED_T and sol.report.passed
    # the cap is made small so that no test starts the work it bounds
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 500)
    for k_max, l_max in ((-1, 20), (20, -1), (20, 20)):
        with pytest.raises(ValueError, match="must be non-negative and give at most 500"):
            solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, 10.0, k_max=k_max, l_max=l_max)


@pytest.mark.parametrize("omega", [1e13, 1e20])
def test_m1_branch_cutoff_is_on_omega_t(omega):
    # the cutoff of a branch of no duration is on omega T = sqrt(rad), so the
    # designed branch's omega T is the same at every energy scale
    ref = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, 10.0)[0]
    sol = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, omega)[0]
    assert sol.branch == ref.branch
    assert omega * sol.T == pytest.approx(10.0 * ref.T, rel=1e-12, abs=0.0)
    assert sol.report.passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega", [1e60, 1e100])
def test_m1_certified_grid_does_not_overflow_at_a_huge_omega(omega):
    # the certified step's bounds scale as omega^5 and are taken in units of
    # a power of two near omega: the designed branch keeps the grid it has
    # at omega = 10, not one lifted to the 200,000-step cap
    ref = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, 10.0)[0]
    sol = solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, omega)[0]
    assert sol.trajectory.times.size == ref.trajectory.times.size == 187
    assert sol.report.passed


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("k", [-300, -40, 40, 300])
@pytest.mark.parametrize("stepped", [False, True])
def test_certified_step_scales_exactly_with_a_power_of_two(k, stepped):
    # the flow sped up by 2^k has its step divided by 2^k, bit for bit, up
    # to entries near 1e90 whose fifth powers overflow
    s = 2.0**k
    f0 = 10.0 * SY + 2.5 * SZ
    for tols in (Tolerances.analytic(), Tolerances.integrated()):
        step = solvers._certified_step(10.0, 2.5 * SZ, f0, 1.0, 0.4, tols, stepped)
        assert solvers._certified_step(s * 10.0, s * 2.5 * SZ, s * f0, 1.0, 0.4 / s, tols,
                                       stepped) == step / s


def test_m1_unreachable_pair_confirmed_by_grid_oracle():
    # independent confirmation: over a dense (lambda_1, T) grid the joint
    # endpoint residual never comes close to zero for this endpoint pair
    omega = 10.0
    lams = np.linspace(-6.0, 6.0, 481)
    ts = np.linspace(0.005, 0.8, 1061)
    mm = m1_oracle_mismatch(np.pi / 3, np.pi / 2, lams, ts, omega)
    assert float(mm.min()) > 0.01


def test_m1_rejects_non_binding_or_out_of_range_input():
    with pytest.raises(ValueError):
        solve_m1_two_level(0.5, 0.0, 1.0)  # sin(phi) = 0: constraint is free
    with pytest.raises(ValueError):
        solve_m1_two_level(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_m1_two_level(np.pi / 2, 1.0, 1.0)
    for omega in (-1.0, 1e-200, 1e200):  # refused by ControlProblem's rule
        with pytest.raises(ValueError, match="energy scale omega"):
            solve_m1_two_level(0.5, 1.0, omega)


def test_m1_trajectory_renormalization_gauge():
    omega = 10.0
    traj = m1_trajectory(3.0, 0.35, omega, renormalize=True)
    assert traj.renormalized
    np.testing.assert_allclose(traj.lambda0, 1.0 / omega**2, rtol=1e-13)
    np.testing.assert_allclose(traj.lambdas[:, 0], 3.0 / omega**2, rtol=1e-13)
    raw = m1_trajectory(3.0, 0.35, omega, n_samples=traj.n_samples - 1)
    # renormalization changes neither H nor the motion
    np.testing.assert_allclose(raw.H, traj.H, atol=1e-12)
    np.testing.assert_allclose(raw.psi, traj.psi, atol=1e-13)
    with pytest.raises(ValueError):
        m1_trajectory(1.0, 0.0, omega)
    with pytest.raises(ValueError):
        m1_trajectory(1.0, 0.5, -1.0)


def test_m1_trajectory_frame_is_the_sigma_z_phase():
    # V(t) = e^{i lambda1 sigma_z t} is diagonal; the flow samples it from G
    lam1 = 2.7
    traj = m1_trajectory(lam1, 0.8, 10.0, renormalize=True)
    expected = np.zeros_like(traj.V)
    expected[:, 0, 0] = np.exp(1j * lam1 * traj.times)
    expected[:, 1, 1] = np.exp(-1j * lam1 * traj.times)
    assert float(np.abs(traj.V - expected).max()) <= 1e-15


def test_m1_boundary_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(25):
        ob = rng.uniform(0.05, np.pi / 2 - 0.05)
        phi = rng.uniform(-np.pi + 1e-6, np.pi)
        psi = m1_final_state(ob, phi)
        ob2, phi2 = m1_boundary(psi)
        assert ob2 == pytest.approx(ob, abs=1e-12)
        assert np.exp(1j * phi2) == pytest.approx(np.exp(1j * phi), abs=1e-10)
        # global phases do not change the answer
        shifted = PureState(np.exp(1.3j) * psi.amplitudes)
        ob3, phi3 = m1_boundary(shifted)
        assert ob3 == pytest.approx(ob2, abs=1e-12)
        assert np.exp(1j * phi3) == pytest.approx(np.exp(1j * phi2), abs=1e-10)


def test_m1_boundary_degenerate_directions():
    ob, phi = m1_boundary(helpers.PLUS_X)
    assert ob == pytest.approx(0.0, abs=1e-12)
    assert phi == 0.0
    ob, phi = m1_boundary(helpers.MINUS_X)
    assert ob == pytest.approx(np.pi / 2, abs=1e-12)
    assert phi == 0.0


# ------------------------------------------------------------------ sweep


def test_sweep_m1_fields():
    omega = 10.0
    lt = np.array([0.0, 0.03])
    ts = np.linspace(0.05, 0.5, 40)
    out = sweep_m1(lt, ts, omega)
    assert out["amplitude"].shape == (2, 40)
    # lambda_1 = 0 is free evolution from |+x>: overlap amplitude |cos wT|
    np.testing.assert_allclose(out["amplitude"][0], np.abs(np.cos(omega * ts)), atol=1e-12)
    np.testing.assert_allclose(out["im_field"][0], 0.0, atol=1e-12)
    # the raw-gauge real part sits at omega^2 over the whole grid
    np.testing.assert_allclose(out["re_field"], omega**2, rtol=1e-9)


def test_sweep_m1_vanishes_on_designed_branch():
    omega = 10.0
    out = sweep_m1([3.0 / omega**2], [DESIGNED_T], omega)
    assert abs(out["im_field"][0, 0]) <= 1e-9


def test_sweep_m1_matches_matrix_product_oracle():
    # per cell, psi(T) from the eigendecomposition propagator and
    # <psi|HF|psi> from H = omega v sy v^dag, v = e^{i lambda sz T}, and
    # F = H + lambda sz as 2 x 2 matrices, all to rounding; the grid holds
    # lambda~_1 = 0, a +- pair and T up to 0.6
    omega = 10.0
    rng = np.random.default_rng(23)
    lt = np.concatenate([rng.uniform(-0.05, 0.05, size=6), [-0.011, 0.0, 0.011]])
    ts = np.concatenate([rng.uniform(0.05, 0.6, size=7), [0.003, DESIGNED_T, 0.6]])
    out = sweep_m1(lt, ts, omega)
    for i, ltv in enumerate(lt):
        for j, t in enumerate(ts):
            lam1 = ltv * omega**2
            u = helpers.m1_reference_u(lam1, omega, np.array([t]))[0]
            psi = u @ helpers.PLUS_X.amplitudes
            amp = abs(np.vdot(psi, helpers.PLUS_X.amplitudes))
            assert abs(out["amplitude"][i, j] - amp) <= 1e-14
            v = np.diag([np.exp(1j * lam1 * t), np.exp(-1j * lam1 * t)])
            h = omega * v @ SY @ v.conj().T
            f = h + lam1 * SZ
            val = psi.conj() @ h @ f @ psi
            assert abs(out["im_field"][i, j] - val.imag / omega**2) <= 1e-14
            assert abs(out["re_field"][i, j] - val.real) <= 1e-14 * omega**2


def test_sweep_m1_rejects_nonpositive_times():
    with pytest.raises(ValueError):
        sweep_m1([0.0], [0.0])


@pytest.mark.parametrize(
    "lams, times",
    [([0.0, math.nan], [0.1]), ([math.inf], [0.1]), ([0.0], [0.1, math.nan]), ([0.0], [math.inf])],
    ids=["lambda-nan", "lambda-inf", "T-nan", "T-inf"],
)
def test_sweep_m1_rejects_non_finite_grid(lams, times):
    with pytest.raises(ValueError, match="finite"):
        sweep_m1(lams, times)


# --------------------------------------------------- closed-subalgebra flow


def test_closed_solver_single_forbidden_direction():
    omega = 10.0
    problem = helpers.m1_problem(omega)
    sol = solve_closed_subalgebra(
        problem, omega * SY, MultiplierVector(1.0, [2.5]), t_max=0.5
    )
    assert sol.kind is SolutionKind.CLOSED_SUBALGEBRA
    assert sol.T == pytest.approx(0.07619481378479523, abs=1e-12)
    assert sol.report.passed
    # renormalized multipliers divide the raw seed by Re<psi|HF|psi> = w^2
    assert sol.multipliers0.lambda0 == pytest.approx(1.0 / omega**2, rel=1e-9)
    assert sol.multipliers0.lambdas[0] == pytest.approx(2.5 / omega**2, rel=1e-9)


def test_closed_solution_confirmed_by_branch_enumeration():
    omega = 10.0
    problem = helpers.m1_problem(omega)
    sol = solve_closed_subalgebra(
        problem, omega * SY, MultiplierVector(1.0, [2.5]), t_max=0.5
    )
    ob, phi = m1_boundary(PureState(sol.trajectory.psi[-1]))
    assert ob == pytest.approx(0.7402464323959657, abs=1e-9)
    assert phi == pytest.approx(2.913553727284504, abs=1e-9)
    branches = solve_m1_two_level(ob, phi, omega)
    assert branches[0].branch == (0, 0)
    assert branches[0].T == pytest.approx(sol.T, abs=1e-10)
    lam1 = branches[0].multipliers0.lambdas[0] * omega**2
    assert lam1 == pytest.approx(2.5, abs=1e-8)
    # the free problem for the same endpoints is strictly faster
    free = solve_free(problem.psi_i, PureState(sol.trajectory.psi[-1]), omega)
    assert free.T < sol.T


def test_closed_solver_empty_forbidden_matches_free_time(monkeypatch):
    # s vanishes identically, so T is where the flow reaches psi_f: a root of
    # the fidelity's time derivative, resolved in a handful of evaluations
    problem = ControlProblem(
        basis=helpers.build_gellmann_basis(2),
        psi_i=helpers.KET0,
        omega=1.0,
        forbidden=(),
        psi_f=helpers.KET1,
    )
    calls = []
    at = dynamics.PassSamples.at

    def counted(self, problem, times):
        calls.append(times)
        return at(self, problem, times)

    monkeypatch.setattr(dynamics.PassSamples, "at", counted)
    sol = solve_closed_subalgebra(
        problem, SY, MultiplierVector(1.0, []), t_max=2.0
    )
    assert sol.T == pytest.approx(np.pi / 2, abs=1e-12)
    assert len(calls) <= 15
    assert sol.report.passed


def test_closed_solver_two_qubit_open_set_accepted_with_warning(caplog):
    omega, omega_b = 10.0, 0.7
    basis, ket11, ket00 = helpers.two_qubit_kets()
    target = PureState(np.cos(omega_b) * ket11 + 1j * np.sin(omega_b) * ket00)
    problem = ControlProblem(
        basis=basis,
        psi_i=PureState(ket11),
        omega=omega,
        forbidden=TWO_QUBIT_FORBIDDEN,
        psi_f=target,
    )
    mu = omega / math.sqrt(2.0)
    h0 = mu * np.kron(SY, SY)
    lams = np.zeros(len(TWO_QUBIT_FORBIDDEN))
    lams[problem.forbidden.index(basis.index_of("σ1¹σ2¹"))] = -mu
    with caplog.at_level(logging.WARNING, logger="qbrach"):
        sol = solve_closed_subalgebra(
            problem, h0, MultiplierVector(1.0, lams), t_max=0.5
        )
    assert "not closed" in caplog.text
    assert sol.T == pytest.approx(math.sqrt(2.0) * omega_b / omega, abs=1e-7)
    # the flow is constant here: H(t) never leaves the seed
    np.testing.assert_allclose(
        sol.trajectory.H, np.broadcast_to(h0, sol.trajectory.H.shape), atol=1e-9
    )
    assert sol.report.passed


def test_closed_solver_rejects_drifting_open_set():
    # sigma_x, sigma_y forbidden from |0>: the projected seed keeps only the
    # first-row/column block, which lies inside the forbidden span
    basis = helpers.m1_problem(1.0).basis
    problem = ControlProblem(
        basis=basis, psi_i=helpers.KET0, omega=1.0, forbidden=(0, 1)
    )
    with pytest.raises(ValueError, match="allowed component of the projected seed vanishes"):
        solve_closed_subalgebra(
            problem, SZ, MultiplierVector(1.0, [0.5, 0.5]), t_max=1.0
        )


def test_closed_solver_checks_the_projected_seed():
    # s12, s13 of su(3) span no subalgebra.  With zero multipliers the seed as
    # given never moves, so its forbidden traces stay zero, but the projected
    # seed's flow drifts off them: the solver refuses it rather than return a
    # solution that fails its own trace verdict
    basis = helpers.build_gellmann_basis(3)
    x = {lab: basis.generators[basis.index_of(lab)] for lab in ("s23", "a12", "a23", "d1", "d2")}
    h0 = math.sqrt(2.0 / 33.0) * (2 * x["s23"] + x["a12"] - x["a23"] - x["d1"] - 2 * x["d2"])
    problem = ControlProblem(
        basis=basis,
        psi_i=PureState([0.6, 0.8j, 0.0]),
        omega=1.0,
        forbidden=(basis.index_of("s12"), basis.index_of("s13")),
        psi_f=helpers.ket(3, 2),
    )
    with pytest.raises(NotClosedError, match="projected seed"):
        solve_closed_subalgebra(problem, h0, MultiplierVector(1.0, [0.0, 0.0]), t_max=5.0)


def test_closed_solver_takes_an_off_shell_seed_as_shoot_does():
    # 5 sigma_y is off the energy shell Tr[H0^2] = 2 omega^2; both solvers
    # project and rescale it, and stop at the same root
    problem = helpers.m1_problem(10.0)
    m0 = MultiplierVector(1.0, [2.5])
    shot = shoot(problem, 5.0 * SY, m0, t_max=0.5)
    closed = solve_closed_subalgebra(problem, 5.0 * SY, m0, t_max=0.5)
    assert shot.T == 0.07024814731040725
    assert closed.T == pytest.approx(shot.T, rel=1e-12)
    assert closed.report.passed and shot.report.passed


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1), (1, 0)])
@pytest.mark.filterwarnings("error")
def test_root_searching_solvers_refuse_a_non_finite_seed(entry, bad):
    # one check of a seed, made before any arithmetic on it, names H0
    problem = helpers.m1_problem(10.0)
    h0 = 10.0 * SY
    h0[entry] = bad
    for solve in (shoot, solve_closed_subalgebra):
        with pytest.raises(ValueError, match="^H0 has non-finite entries"):
            solve(problem, h0, MultiplierVector(1.0, [2.5]), t_max=0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solve", [shoot, solve_closed_subalgebra])
def test_a_huge_seed_is_checked_and_projected_without_overflow(solve):
    # the seed check and the projection scale the seed by a power of two
    # before any norm: the README seed times 2^660 is the README seed, bit
    # for bit, and 1e200 sigma_y with lambda = 2.5 projects to sigma_y with
    # a multiplier near 1e-199, whose Im<psi|HF|psi> vanishes identically
    problem = helpers.m1_problem(10.0)
    ref = solve(problem, 10.0 * SY, MultiplierVector(1.0, [2.5]), t_max=0.5)
    big = 2.0**660
    sol = solve(problem, big * 10.0 * SY, MultiplierVector(1.0, [big * 2.5]), t_max=0.5)
    assert sol.T == ref.T and np.array_equal(sol.H0, ref.H0)
    with pytest.raises(NoSolutionError, match="vanishes identically"):
        solve(problem, 1e200 * SY, MultiplierVector(1.0, [2.5]), t_max=0.5)
    with pytest.raises(ValueError, match="^H0 is not Hermitian"):
        solve(problem, 1e200 * (SY + 1e-6 * SX * 1j), MultiplierVector(1.0, [2.5]), t_max=0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("solve", [shoot, solve_closed_subalgebra])
def test_the_seed_check_is_the_same_at_every_scale(solve):
    # the deviation from Hermitian is taken relative to the seed's own norm
    # at every scale, also where its entries are far below 1: an
    # upper-triangular seed of 1e-11 is refused as one of 1 is, 1e-11 sigma_x
    # is taken, and the README seed times 2^-600 is the README seed, bit for bit
    problem = ControlProblem(
        basis=helpers.m1_problem(10.0).basis, psi_i=PureState([0.6, 0.8]), omega=10.0,
        forbidden=(2,),
    )
    m0 = MultiplierVector(1.0, [2.5])
    for scale in (1e-11, 1.0):
        with pytest.raises(ValueError, match="^H0 is not Hermitian"):
            solve(problem, scale * np.array([[0, 1], [0, 0]], dtype=complex), m0, t_max=0.5)
    assert solve(problem, 1e-11 * SX, m0, t_max=0.5).T == 0.04398229715025711
    readme = helpers.m1_problem(10.0)
    ref = solve(readme, 10.0 * SY, m0, t_max=0.5)
    small = 2.0**-600
    sol = solve(readme, small * 10.0 * SY, MultiplierVector(1.0, [small * 2.5]), t_max=0.5)
    assert sol.T == ref.T and np.array_equal(sol.H0, ref.H0)


def test_closed_solver_window_too_short():
    problem = helpers.m1_problem(10.0)
    with pytest.raises(NoSolutionError):
        solve_closed_subalgebra(
            problem, 10.0 * SY, MultiplierVector(1.0, [2.5]), t_max=0.01
        )


def test_closed_solver_degenerate_needs_target():
    problem = ControlProblem(
        basis=helpers.m1_problem(1.0).basis, psi_i=helpers.KET0, omega=1.0
    )
    with pytest.raises(NoSolutionError):
        solve_closed_subalgebra(problem, SY, MultiplierVector(1.0, []), t_max=2.0)


def test_root_searching_solvers_refuse_a_window_beyond_the_root_scan_cap():
    # the exact pass takes the stepped pass's grid, steps of 0.05/r on at
    # most 200,000 steps, and refuses before sampling a window that needs
    # more: here t_max = 2000 needs 1,107,464
    omega = 10.0
    problem = helpers.m1_problem(omega)
    for solve in (solve_closed_subalgebra, shoot):
        with pytest.raises(
            ValueError,
            match=r"\[0, 2000\] at steps of at most 0.001806 needs 1107464 steps, more than 200000",
        ):
            solve(problem, omega * SY, MultiplierVector(1.0, [2.5]), t_max=2000.0)


def test_closed_solver_rejects_singular_gauge():
    problem = helpers.m1_problem(1.0)
    with pytest.raises(SingularGaugeError):
        solve_closed_subalgebra(problem, SY, MultiplierVector(0.0, [1.0]), t_max=1.0)


# ------------------------------------------------------------------- shoot


def test_shoot_agrees_with_closed_solver():
    # on a closed set shoot's pass is the exact flow on a grid that resolves
    # its rates, so a coarse integration step cannot step over the first root
    omega = 10.0
    problem = helpers.m1_problem(omega)
    closed = solve_closed_subalgebra(
        problem, omega * SY, MultiplierVector(1.0, [2.5]), t_max=0.5
    )
    for dt in (None, 0.05, 0.25):
        shot = shoot(problem, omega * SY, MultiplierVector(1.0, [2.5]), t_max=0.5, dt=dt)
        assert shot.kind is SolutionKind.SHOT
        assert shot.T == pytest.approx(closed.T, abs=1e-12), dt
        assert shot.report.passed, dt


@pytest.mark.parametrize("lam0", [1e-300, 1e-11, 1e-8, -1.0, 1e3, 1e300])
@pytest.mark.parametrize("solver", [solve_closed_subalgebra, shoot])
def test_seed_gauge_leaves_the_solution_unchanged(solver, lam0):
    # (lambda_0, lambda_1) = c (1, 2.5) is one seed for every finite c != 0:
    # the projection returns the gauge lambda_0 = 1, so the endpoint
    # acceptance and the renormalized multipliers do not depend on c
    omega = 10.0
    problem = helpers.m1_problem(omega)
    ref = solver(problem, omega * SY, MultiplierVector(1.0, [2.5]), t_max=0.5)
    sol = solver(problem, omega * SY, MultiplierVector(lam0, [2.5 * lam0]), t_max=0.5)
    assert sol.T == pytest.approx(ref.T, abs=1e-12)
    assert sol.multipliers0.lambda0 == pytest.approx(ref.multipliers0.lambda0, rel=1e-12)
    np.testing.assert_allclose(sol.multipliers0.lambdas, ref.multipliers0.lambdas, rtol=1e-12)
    assert sol.report.passed


def test_closed_solver_projects_the_seed_as_shoot_does(caplog):
    # a closed non-abelian set (su(2) on the first qubit) with a random
    # allowed seed on the energy shell that violates the first-row/column
    # structure: the closed solver projects it as shoot does, passes its
    # certificate and stops at shoot's root
    basis = helpers.build_pauli_string_basis(2)
    rng = np.random.default_rng(3)
    problem = ControlProblem(
        basis=basis, psi_i=helpers.random_state(rng, 4), omega=1.0,
        forbidden=("σ1¹", "σ1²", "σ1³"),
    )
    allowed = np.delete(basis.generators, problem.forbidden, axis=0)
    h0 = np.tensordot(rng.normal(size=len(allowed)), allowed, axes=1)
    h0 *= math.sqrt(2.0) / math.sqrt(float(np.real(np.einsum("ab,ba->", h0, h0))))
    m0 = MultiplierVector(1.0, 0.5 * rng.normal(size=3))
    with caplog.at_level(logging.WARNING, logger="qbrach"):
        closed = solve_closed_subalgebra(problem, h0, m0, t_max=3.0)
    assert "first-row/column" in caplog.text
    assert closed.report.passed
    shot = shoot(problem, h0, m0, t_max=3.0)
    assert shot.report.passed
    assert closed.T == pytest.approx(shot.T, abs=1e-12)
    assert closed.T == pytest.approx(0.43075443973027655, abs=1e-12)


def test_shoot_free_seed_stops_at_target_angle():
    omega = 10.0
    problem = ControlProblem(
        basis=helpers.m1_problem(1.0).basis, psi_i=helpers.KET0, omega=omega
    )
    sol = shoot(
        problem,
        omega * SY,
        MultiplierVector(1.0, []),
        t_max=0.2,
        target_bures_angle=0.9,
    )
    assert sol.T == pytest.approx(0.09, abs=1e-10)
    assert sol.report.passed
    with pytest.raises(NoSolutionError):
        shoot(problem, omega * SY, MultiplierVector(1.0, []), t_max=0.2)


def test_shoot_is_deterministic():
    problem, h0, m0 = helpers.su4_shoot_seed(9)
    a = shoot(problem, h0, m0, t_max=3.0)
    b = shoot(problem, h0, m0, t_max=3.0)
    assert a.T == b.T
    assert np.array_equal(a.trajectory.U, b.trajectory.U)
    assert np.array_equal(a.trajectory.lambdas, b.trajectory.lambdas)


def test_shoot_four_level_random_seed():
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    assert problem.forbidden == (8, 10, 12)
    sol = shoot(problem, h0, m0, t_max=3.0)
    assert sol.T == pytest.approx(0.90530825891501188, abs=1e-9)
    assert sol.report.passed
    # multipliers genuinely move along a generic non-closed instance
    lam = sol.trajectory.lambdas
    assert float(np.abs(lam - lam[0]).max()) > 1e-4 * float(np.abs(lam).max())


def test_shoot_closed_non_abelian_seed_takes_the_exact_flow(caplog):
    # recipe seed 90 forbids a closed set whose generators do not commute;
    # pass 1 samples the exact flow on the whole window at once instead of
    # stepping to the checkpoint past the root, on the grid a stepped pass
    # takes at its rate bound, the one solve_closed_subalgebra takes (here
    # 229 steps)
    problem, h0, m0 = helpers.su4_shoot_seed(90)
    with caplog.at_level(logging.DEBUG, logger="qbrach"):
        sol = shoot(problem, h0, m0, t_max=3.0)
    assert sol.T == pytest.approx(1.3106731910989768, abs=1e-12)
    assert sol.report.passed
    assert dynamics.exact_pass(problem, sol.multipliers0, sol.H0, 3.0).n_steps == 229
    assert re.search(r"pass 1 stopped at step \d+ of 229 .*; 229 steps integrated", caplog.text)


def test_shoot_pass1_stops_just_past_the_first_root(caplog):
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    with caplog.at_level(logging.DEBUG, logger="qbrach"):
        sol = shoot(problem, h0, m0, t_max=3.0)
    # the T of a scan of the whole window
    assert sol.T == pytest.approx(0.90530825891501188, abs=1e-12)
    found = re.search(
        r"pass 1 stopped at step (\d+) of (\d+) .*; (\d+) steps integrated", caplog.text
    )
    stop, n_steps, stepped = (int(g) for g in found.groups())
    step = 3.0 / n_steps
    # the window takes the rate rule's 229 steps, no longer than 0.05/r
    G = dynamics.g_operator(sol.multipliers0, problem.basis, problem.forbidden)
    F0 = sol.multipliers0.lambda0 * (sol.H0 + G)
    assert n_steps == 229
    assert step <= 0.05 / dynamics._pass_rate(G, F0, sol.multipliers0.lambda0) < 3.0 / 228
    assert sol.T <= stop * step <= sol.T + 2 * step
    # the pass runs on to the first drift checkpoint (0.1/omega
    # apart, every 8 steps here) at or after that sample, and no further
    every = round(0.1 / step)
    assert every == 8
    assert stepped == every * math.ceil(stop / every)


@pytest.mark.parametrize("seed", [7, 50])
def test_shoot_default_pass_steps_at_the_flow_rate(seed):
    # without a dt the stepped pass takes a step resolved to the flow's
    # rate bound, far fewer than the 3,000 of a step of 1e-3/omega, and
    # lands on the T of that finer pass; a coarser dt only caps that step,
    # so it changes nothing
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    H0, m = solvers._project_seed(problem, h0, m0)
    n_steps = list(dynamics.integrate_blocks(problem, m, H0, t_max=3.0))[-1].n_steps
    assert n_steps < 3000
    fine = shoot(problem, h0, m0, t_max=3.0, dt=1e-3)
    sol = shoot(problem, h0, m0, t_max=3.0)
    assert sol.T == pytest.approx(fine.T, rel=1e-12)
    assert sol.report.passed
    assert shoot(problem, h0, m0, t_max=3.0, dt=0.3).T == sol.T


def test_shoot_pass1_carries_no_cross_check_channel(monkeypatch):
    # shoot integrates once: pass 1 only feeds the root search, and the
    # certified trajectory is evaluated from pass 1's samples, so integrate
    # never runs.  Neither pass 1 nor the trajectory built from it checks
    # U against H: that is done once, by certify, on the
    # certified grid, on the exact and the stepped path.  The check reads
    # the grid's own samples, so the rows of the pass `shoot` evaluates
    # are the root scan's, one per evaluation and one per candidate's
    # endpoint, which at T is not evaluated again, and the K rows of the
    # grid: no K - 1 midpoints
    grids = []
    u_defect = verify._u_defect

    def counted(times, H, U):
        grids.append(times)
        return u_defect(times, H, U)

    def forbidden(*args, **kwargs):
        raise AssertionError("shoot re-integrated")

    blocks = []
    integrate_blocks = solvers.integrate_blocks

    def recorded(*args, **kwargs):
        for block in integrate_blocks(*args, **kwargs):
            blocks.append(block)
            yield block

    rows, scans = [], []
    rows_at, root_scan = dynamics.PassSamples.rows_at, solvers._root_scan

    def counted_rows(self, problem, times):
        rows.append(np.atleast_1d(times).size)
        return rows_at(self, problem, times)

    def scanned(*args, **kwargs):
        start = len(rows)
        try:
            return root_scan(*args, **kwargs)
        finally:
            scans.append((start, len(rows)))

    monkeypatch.setattr(verify, "_u_defect", counted)
    monkeypatch.setattr(dynamics, "integrate", forbidden)
    monkeypatch.setattr(solvers, "integrate", forbidden, raising=False)
    monkeypatch.setattr(solvers, "integrate_blocks", recorded)
    monkeypatch.setattr(dynamics.PassSamples, "rows_at", counted_rows)
    monkeypatch.setattr(solvers, "_root_scan", scanned)
    for seed, n_blocks in ((90, 1), (7, 9)):
        grids.clear()
        blocks.clear()
        rows.clear()
        scans.clear()
        problem, h0, m0 = helpers.su4_shoot_seed(seed)
        sol = shoot(problem, h0, m0, t_max=3.0)
        assert len(blocks) == n_blocks
        assert all((b.slopes is None) == (seed == 90) for b in blocks)
        assert len(grids) == 1
        np.testing.assert_array_equal(grids[0], sol.trajectory.times)
        assert 0.0 < sol.report.u_defect and sol.report.verdict["u_mismatch"]
        assert sol.report.passed
        K = sol.trajectory.n_samples
        assert scans == [(0, len(rows) - 1)]
        assert 0 < len(rows) - 1 and set(rows[:-1]) == {1}
        assert rows[-1] == K


def test_shoot_evaluates_the_endpoint_at_its_t_once(monkeypatch):
    # the acceptance of a candidate evaluates <psi|HF|psi> there, and the
    # renormalization at T takes that value: one evaluation per candidate,
    # on a stepped pass (seed 7), the exact flow (seed 90) and where the
    # endpoint function vanishes identically and a Bures angle selects T
    calls = []
    endpoint_constraint = solvers.endpoint_constraint

    def counted(psi, H, F):
        calls.append(1)
        return endpoint_constraint(psi, H, F)

    monkeypatch.setattr(solvers, "endpoint_constraint", counted)
    free = ControlProblem(basis=helpers.build_gellmann_basis(2), psi_i=helpers.KET0, omega=1.0)
    shots = [helpers.su4_shoot_seed(7) + ({},), helpers.su4_shoot_seed(90) + ({},),
             (free, SY, MultiplierVector(1.0, []), {"target_bures_angle": 1.0})]
    for problem, h0, m0, kwargs in shots:
        calls.clear()
        sol = shoot(problem, h0, m0, t_max=3.0, **kwargs)
        assert len(calls) == 1 and sol.report.passed


@pytest.mark.parametrize("seed", [2, 7])
def test_shoot_trajectory_matches_integrate_on_its_grid(seed):
    # the trajectory evaluated from pass 1's samples agrees with a fresh
    # integration of the renormalized seed on the same grid
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    sol = shoot(problem, h0, m0, t_max=3.0)
    traj = sol.trajectory
    n = traj.n_samples - 1
    ref = dynamics.integrate(problem, sol.multipliers0, sol.H0, sol.T, sol.T / n)
    np.testing.assert_array_equal(ref.times, traj.times)
    for name in ("V", "U", "H", "F", "psi", "lambda0", "lambdas", "tau_acc"):
        got, want = getattr(traj, name), getattr(ref, name)
        assert float(np.abs(got - want).max()) <= 1e-12 * float(np.abs(want).max()), name
    assert abs(sol.report.u_defect - certify(ref).u_defect) <= 1e-12


def test_shoot_t_is_step_converged():
    # an accuracy pin on the stepper: a step of 2.5e-4, about 50 times finer
    # than the default rate-resolved one, moves T of a non-closed seed by no
    # more than 1e-10 relative
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    coarse = shoot(problem, h0, m0, t_max=3.0)
    fine = shoot(problem, h0, m0, t_max=3.0, dt=0.25e-3)
    assert abs(coarse.T - fine.T) <= 1e-10 * fine.T


_JUST_ABOVE_3 = math.nextafter(3.0, 4.0)


@pytest.mark.parametrize(
    "f, root",
    [
        (math.sin, math.pi),
        (lambda t: t - 3.0, 3.0),  # the root is the left end
        (lambda t: t - 3.5, 3.5),  # the root is the right end
        (lambda t: (t - 3.3) ** 3, 3.3),  # a flat crossing
        (lambda t: t - _JUST_ABOVE_3, _JUST_ABOVE_3),  # 1 ulp from an end
        (lambda t: math.tanh(1e6 * (t - 3.2)), 3.2),  # a steep crossing
    ],
    ids=["sin", "left-end", "right-end", "cubic", "ulp-from-end", "steep"],
)
def test_bracketed_root_reaches_a_few_ulp_within_the_cap(f, root):
    seen = []

    def counted(t):
        seen.append(t)
        return f(t)

    t, ft, evals = solvers._bracketed_root(counted, 3.0, 3.5, f(3.0), f(3.5))
    assert abs(t - root) <= 4 * math.ulp(root)
    assert ft == f(t)
    assert evals == len(seen) < solvers._ROOT_EVALS
    assert all(3.0 < s < 3.5 for s in seen)
    if f(3.0) == 0.0 or f(3.5) == 0.0:
        assert evals == 0


def test_bracketed_root_is_superlinear_on_a_smooth_crossing():
    # bisection would need 50 halvings of [3, 3.5] to reach a few ulp
    evals = solvers._bracketed_root(math.sin, 3.0, 3.5, math.sin(3.0), math.sin(3.5))[2]
    assert evals <= 6
    with pytest.raises(ValueError, match="do not bracket"):
        solvers._bracketed_root(math.sin, 2.0, 3.0, math.sin(2.0), math.sin(3.0))


def test_root_scan_takes_a_near_zero_sample():
    # on the free qubit from |0> with H = sigma_y, <1|psi(t)> = sin t exactly
    problem = ControlProblem(basis=helpers.build_gellmann_basis(2), psi_i=helpers.KET0, omega=1.0)
    m0 = MultiplierVector(1.0, [])
    # the rate bound is r = 2, so the pass steps at 0.025 unless dt is finer
    coarse = dynamics.exact_pass(problem, m0, SY, 2.0)
    fine = dynamics.exact_pass(problem, m0, SY, 2.0, dt=2.0 / 600)
    assert (coarse.n_steps, fine.n_steps) == (80, 600)
    # a touch of zero from above is no sign change: only the sample within
    # 1e-10 of zero is a candidate, taken as it is
    t0 = float(coarse.times[27])
    T = solvers._root_scan(
        problem, [coarse], lambda psi, hpsi, fpsi: (psi[:, 1].real - math.sin(t0)) ** 2 + 1e-11,
        lambda block, t: True,
    )[0]
    assert T == t0


@pytest.mark.parametrize("t_max", [0.04, 0.1])
def test_root_scan_by_blocks_matches_the_complete_pass(t_max, monkeypatch):
    # a drift checkpoint at every step makes the first block two samples,
    # shorter than the dense output's stencil; at n_steps = 4 (t_max =
    # 0.04, the fewest steps a grid has) and 10, a root in the first step
    # and one in the second are found at the same T scanning the blocks as
    # they come as scanning the complete pass
    monkeypatch.setattr(dynamics, "_CHECK_SPAN", 0.0)
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    blocks = list(dynamics.integrate_blocks(problem, m0, h0, t_max=t_max, dt=0.01))
    whole = blocks[-1]
    assert blocks[0].times.size == 2 and whole.n_steps == round(t_max / 0.01) == len(blocks)
    for t_root in (0.006, 0.016):
        c = whole.at(problem, t_root)[3][0, 0].real

        def scalar(psi, hpsi, fpsi):
            return psi[:, 0].real - c

        T = solvers._root_scan(problem, blocks, scalar, lambda block, t: True)[0]
        assert T == solvers._root_scan(problem, [whole], scalar, lambda block, t: True)[0]
        assert T == pytest.approx(t_root, abs=1e-12)


def test_shoot_resolves_its_bracket_in_a_handful_of_evaluations(caplog, monkeypatch):
    # every single-time evaluation of the pass is one `PassSamples.rows_at`
    # call, by `vectors_at` in the bracket or `at` in the acceptance; the
    # root scan logs its count per resolved bracket
    single = []
    rows_at = dynamics.PassSamples.rows_at

    def counted(self, problem, times):
        if np.ndim(times) == 0:
            single.append(times)
        return rows_at(self, problem, times)

    monkeypatch.setattr(dynamics.PassSamples, "rows_at", counted)
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    with caplog.at_level(logging.DEBUG, logger="qbrach"):
        sol = shoot(problem, h0, m0, t_max=3.0)
    assert sol.T == pytest.approx(0.90530825891501188, abs=1e-12)
    resolved = re.findall(
        r"root scan: resolved \[(\S+), (\S+)\] in (\d+) evaluations", caplog.text
    )
    assert len(resolved) == 1
    lo, hi, evals = resolved[0]
    assert float(lo) <= sol.T <= float(hi)
    assert 1 <= int(evals) <= 15
    assert len(single) <= 15


def test_every_pool_seed_passes_within_the_speed_limit():
    # the 198 recipe seeds of the benchmark pool (0-199 but 144 and 168):
    # each shot passes its certificate, its conservation residuals within a
    # quarter of their tolerances, and covers its Bures angle no faster
    # than the speed theorem allows, arccos|<psi(0)|psi(T)>| <= omega T
    tol = Tolerances.integrated()
    worst = {"chko": 0.0, "aa": 0.0, "equivalence": 0.0, "efficiency": 0.0}
    for seed in range(200):
        if seed in (144, 168):
            continue
        problem, h0, m0 = helpers.su4_shoot_seed(seed)
        report = shoot(problem, h0, m0, t_max=3.0).report
        assert report.passed, seed
        worst["chko"] = max(worst["chko"], report.chko_residual / tol.chko)
        worst["aa"] = max(worst["aa"], report.aa_identity_max / (tol.aa * problem.omega))
        worst["equivalence"] = max(worst["equivalence"], report.equivalence_max / tol.equivalence)
        worst["efficiency"] = max(worst["efficiency"], report.speed_efficiency)
    assert max(worst["chko"], worst["aa"], worst["equivalence"]) <= 0.25, worst
    assert worst["efficiency"] <= 1.0


@pytest.mark.parametrize("seed, closest, t", [(144, 3.85e-2, 1.454), (168, 9.13e-3, 1.435)])
def test_shoot_without_a_root_reports_the_closest_approach(seed, closest, t):
    # the recipe seeds left out of the benchmark pool: s = Im<psi|HF|psi>/omega^2
    # dips towards zero once in the window but never changes sign
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    with pytest.raises(NoSolutionError) as err:
        shoot(problem, h0, m0, t_max=3.0)
    found = re.search(
        r"closest approach \|s\| = (\S+) omega\^2 at t = (\S+), no sign change", str(err.value)
    )
    assert float(found.group(1)) == pytest.approx(closest, rel=1e-2)
    assert float(found.group(2)) == pytest.approx(t, abs=2e-3)


def test_shoot_on_the_four_qubit_chain_certifies_on_a_grid_near_the_pass(monkeypatch):
    # chain seed 1 finds its root at T = 0.5896: the certified grid, sized
    # by the rate bound for the fourth-order certificate, holds at most 4
    # times the pass's own steps on [0, T], and the solution passes
    steps = []
    integrate_blocks = solvers.integrate_blocks

    def recorded(*args, **kwargs):
        for block in integrate_blocks(*args, **kwargs):
            steps.append(float(block.times[1]))
            yield block

    monkeypatch.setattr(solvers, "integrate_blocks", recorded)
    problem, h0, m0 = helpers.chain_shoot_seed(1)
    sol = shoot(problem, h0, m0, t_max=3.0)
    assert sol.report.passed
    assert sol.T == pytest.approx(0.589616496587697, rel=1e-12)
    assert sol.trajectory.n_samples - 1 <= 4.0 * sol.T / steps[0]


def test_shoot_on_the_four_qubit_chain_names_its_closest_approach():
    # the 4-qubit chain set (M = 216, N = 16): s dips towards zero in the
    # window but never changes sign.  The closest approach is resolved on a
    # 257-point grid of the pass, its dense output, which evaluates no
    # right-hand side
    problem, h0, m0 = helpers.chain_shoot_seed(2)
    assert problem.n_forbidden == 216
    with pytest.raises(NoSolutionError) as err:
        shoot(problem, h0, m0, t_max=3.0)
    found = re.search(
        r"closest approach \|s\| = (\S+) omega\^2 at t = (\S+), no sign change", str(err.value)
    )
    assert float(found.group(1)) == pytest.approx(0.242, rel=1e-2)
    assert float(found.group(2)) == pytest.approx(2.803, abs=2e-3)


def test_shoot_logs_rejected_candidates_and_scans_the_whole_window(caplog, monkeypatch):
    # a root is accepted where |Im<psi|HF|psi>| <= 1e-10 omega^2; an offset
    # of 1e-9 omega^2 in the acceptance's evaluation rejects every root of
    # seed 7 while the scan still brackets and resolves each one
    endpoint_constraint = solvers.endpoint_constraint

    def offset(psi, H, F):
        re, im = endpoint_constraint(psi, H, F)
        return re, im + 1e-9 * problem.omega**2

    monkeypatch.setattr(solvers, "endpoint_constraint", offset)
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    with caplog.at_level(logging.DEBUG, logger="qbrach"):
        with pytest.raises(NoSolutionError, match=r"sign change\(s\), each root rejected"):
            shoot(problem, h0, m0, t_max=3.0)
    rejected = re.findall(r"root scan: rejected candidate at t = (\S+)", caplog.text)
    resolved = re.findall(r"root scan: resolved \[(\S+), (\S+)\]", caplog.text)
    assert len(rejected) == len(resolved) >= 2
    assert float(rejected[0]) == pytest.approx(0.905, abs=0.005)
    assert all(float(lo) <= float(t) <= float(hi) for t, (lo, hi) in zip(rejected, resolved))
    stop, n_steps = re.search(r"pass 1 stopped at step (\d+) of (\d+) ", caplog.text).groups()
    assert stop == n_steps


def test_shoot_projects_structure_violating_seed(caplog):
    basis = helpers.m1_problem(1.0).basis
    problem = ControlProblem(
        basis=basis, psi_i=helpers.KET0, omega=1.0, forbidden=(0,)
    )
    h0 = (SY + SZ) / math.sqrt(2.0)
    with caplog.at_level(logging.WARNING, logger="qbrach"):
        sol = shoot(problem, h0, MultiplierVector(1.0, [0.3]), t_max=2.0)
    assert "first-row/column" in caplog.text
    assert sol.T == pytest.approx(0.7230176141676502, abs=1e-9)
    assert sol.report.passed
    assert sol.multipliers0.lambdas[0] == pytest.approx(0.424264068712, abs=1e-8)


def test_shoot_validation():
    problem = helpers.m1_problem(1.0)
    with pytest.raises(SingularGaugeError):
        shoot(problem, SY, MultiplierVector(0.0, [1.0]), t_max=1.0)
    with pytest.raises(ValueError):
        shoot(problem, SY, MultiplierVector(1.0, [1.0, 2.0]), t_max=1.0)
    with pytest.raises(ValueError):
        shoot(problem, np.array([[0.0, 1.0], [0.0, 0.0]]), MultiplierVector(1.0, [1.0]), t_max=1.0)
    free = ControlProblem(basis=problem.basis, psi_i=helpers.KET0, omega=1.0)
    # a seed parallel to the initial state projects to nothing
    with pytest.raises(ValueError):
        shoot(free, SZ, MultiplierVector(1.0, []), t_max=1.0)


# --------------------------------------------------------- solution object


def test_extremal_solution_serialization():
    sol = solve_free(helpers.KET0, helpers.KET1, omega=1.0)
    data = sol.to_dict()
    assert data["kind"] == "free"
    assert data["branch"] is None
    assert data["T"] == sol.T
    assert data["report"]["verdict"]["endpoint_im"] is True
    assert data["trajectory"]["dimension"] == 2
    assert data["multipliers0"]["lambda0"] == pytest.approx(1.0)


def test_serialized_arrays_are_copies():
    # the arrays of a document are its own: writing to them leaves the
    # solution and its trajectory as they were
    sol = solve_free(helpers.KET0, helpers.KET1, omega=1.0)
    traj = sol.trajectory
    times, U, H0 = traj.times.copy(), traj.U.copy(), np.array(sol.H0, copy=True)
    data = traj.to_dict()
    data["times"][:] = -1.0
    data["U"][3][0][1][0] += 0.05
    data = sol.to_dict()
    data["H0"][:] = 7.0
    data["trajectory"]["U"][:] = 0.0
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.U, U)
    np.testing.assert_array_equal(sol.H0, H0)
    back = Trajectory.from_dict(traj.to_dict())
    for name in ("times", "V", "U", "H", "F", "psi", "lambda0", "lambdas", "tau_acc"):
        np.testing.assert_array_equal(getattr(back, name), getattr(traj, name), err_msg=name)
