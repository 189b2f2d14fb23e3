"""Coupled frame/multiplier integration and the trajectory container."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import helpers
from qbrach import dynamics, solvers, verify
from qbrach.algebra import (
    build_gellmann_basis,
    forbidden_sum,
    is_closed_subalgebra,
)
from qbrach.cli import _write_json
from qbrach.dynamics import (
    ControlProblem,
    MultiplierVector,
    SingularGaugeError,
    Trajectory,
    _constant_rows,
    constant_g_frames,
    finalize_trajectory,
    g_operator,
    integrate,
    stepped_rhs,
)
from qbrach.solvers import shoot, solve_two_qubit_example
from qbrach.states import PureState
from qbrach.verify import Tolerances, certify

SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# certify verdicts that hold at every sample of an integrated trajectory;
# the endpoint family needs an extremal stopping time and the
# finite-difference residuals are step-limited
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


def su3_drifting_instance():
    """A genuinely non-abelian forbidden pair whose multipliers move."""
    basis = build_gellmann_basis(3)
    forbidden = (0, 1)
    rng = np.random.default_rng(5)
    allowed = [m for m in range(8) if m not in forbidden]
    coef = rng.normal(size=len(allowed))
    h0 = np.einsum("m,mij->ij", coef, basis.generators[allowed])
    h0 *= np.sqrt(2.0) / np.sqrt(np.real(np.einsum("ab,ba->", h0, h0)))
    problem = ControlProblem(
        basis=basis,
        psi_i=helpers.ket(3, 0),
        omega=1.0,
        forbidden=forbidden,
    )
    m0 = MultiplierVector(1.0, [0.4, -0.7])
    return problem, m0, h0


# ---------------------------------------------------------- ControlProblem


def test_problem_resolves_forbidden_labels():
    basis = build_gellmann_basis(2)
    p = ControlProblem(basis=basis, psi_i=helpers.KET0, omega=1.0, forbidden=("d1",))
    assert p.forbidden == (2,)
    assert p.n_forbidden == 1
    np.testing.assert_array_equal(p.forbidden_generators()[0], SZ)


@pytest.mark.parametrize("forbidden", [(), (2,), ("d1", 0)])
def test_forbidden_stack_is_built_once_and_read_only(forbidden):
    # a problem and a trajectory build their stack of forbidden generators
    # once: every call returns the same read-only array, the generators the
    # set indexes bit for bit
    problem = ControlProblem(build_gellmann_basis(2), helpers.KET0, 1.0, forbidden=forbidden)
    m0 = MultiplierVector(1.0, np.full(len(forbidden), 0.5))
    traj = integrate(problem, m0, SY, t_max=0.1)
    want = problem.basis.generators[list(problem.forbidden)]
    for owner in (problem, traj):
        stack = owner.forbidden_generators()
        assert stack is owner.forbidden_generators()
        assert not stack.flags.writeable
        assert stack.shape == (len(forbidden), 2, 2)
        np.testing.assert_array_equal(stack, want)


def test_problem_validation():
    basis = build_gellmann_basis(2)
    with pytest.raises(ValueError):
        ControlProblem(basis=basis, psi_i=helpers.KET0, omega=0.0)
    with pytest.raises(ValueError):
        ControlProblem(basis=basis, psi_i=helpers.ket(3, 0), omega=1.0)
    with pytest.raises(ValueError):
        ControlProblem(
            basis=basis, psi_i=helpers.KET0, omega=1.0, forbidden=(2, "d1")
        )


# ------------------------------------------------------ pointwise algebra


def test_g_operator_cases():
    basis = build_gellmann_basis(2)
    empty = g_operator(MultiplierVector(1.0, []), basis, ())
    np.testing.assert_array_equal(empty, np.zeros((2, 2)))
    g = g_operator(MultiplierVector(2.0, [3.0]), basis, (2,))
    np.testing.assert_allclose(g, 1.5 * SZ, atol=1e-15)
    with pytest.raises(SingularGaugeError):
        g_operator(MultiplierVector(0.0, [3.0]), basis, (2,))
    with pytest.raises(ValueError):
        g_operator(MultiplierVector(1.0, [3.0, 1.0]), basis, (2,))


def multiplier_rates(problem, lam0, lams, V, F0):
    """d(lambda_j)/dt from the lambda slots of `stepped_rhs` at the frame V."""
    rhs = stepped_rhs(F0, problem.forbidden_generators(), lam0)
    k = rhs(np.concatenate((V.ravel(), np.asarray(lams, dtype=float))))
    n2 = problem.dim**2
    assert k.size == n2 + problem.n_forbidden
    assert np.all(k[n2:].imag == 0.0)
    return k[n2:].real


def rates_at_h(problem, h, lam0, lams):
    """Multiplier rates at V = 1, with F(0) chosen so that H(0) = h."""
    G = forbidden_sum(np.asarray(lams, dtype=float) / lam0, problem.forbidden_generators())
    return multiplier_rates(problem, lam0, lams, np.eye(problem.dim, dtype=complex), lam0 * (h + G))


def test_eta_matrix_pauli_pair():
    # eta_jl = Tr[H i[X_j, X_l]] is N times the rate of lambda_j at lambda = e_l
    omega = 2.0
    problem = ControlProblem(
        basis=build_gellmann_basis(2), psi_i=helpers.KET0, omega=omega, forbidden=(2, 0)
    )
    eta = np.column_stack(
        [2.0 * rates_at_h(problem, omega * SY, 1.0, e) for e in np.eye(2)]
    )
    np.testing.assert_allclose(eta, [[0.0, -4.0 * omega], [4.0 * omega, 0.0]], atol=1e-12)


def pauli_pair_instance():
    omega = 2.0
    problem = ControlProblem(
        basis=build_gellmann_basis(2), psi_i=helpers.KET0, omega=omega, forbidden=(2, 0)
    )
    return problem, MultiplierVector(1.0, [0.3, -0.6]), omega * SY


RATE_CASES = ["pauli-pair", "su3", "su4-2", "su4-7"]


def rate_instance(case):
    """(problem, m0, F(0)) of a case of RATE_CASES."""
    if case == "pauli-pair":
        problem, m0, h0 = pauli_pair_instance()
    elif case == "su3":
        problem, m0, h0 = su3_drifting_instance()
    else:
        problem, h0, m0 = helpers.su4_shoot_seed(int(case[-1]))
    return problem, m0, m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))


@pytest.mark.parametrize("case", RATE_CASES)
def test_multiplier_rates_match_the_commutator_tensor(case):
    # the rates of stepped_rhs, from the one-commutator contraction
    # Tr[X_j i[G, F]], against (1/N) eta lambda with eta_jl = Tr[H i[X_j, X_l]]
    # built from the commutator tensor, at a random frame and multipliers
    problem, m0, f0 = rate_instance(case)
    N, M = problem.dim, problem.n_forbidden
    rng = np.random.default_rng(11)
    xf = problem.forbidden_generators()
    K = helpers.commutator_tensor(problem.basis, problem.forbidden)
    for _ in range(5):
        v, _ = np.linalg.qr(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)))
        lam0 = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
        lams = rng.normal(size=M) * problem.omega
        h = v @ f0 @ v.conj().T / lam0 - forbidden_sum(lams / lam0, xf)
        eta = np.einsum("jlab,ba->jl", K, h).real
        np.testing.assert_allclose(eta, -eta.T, atol=0.0)
        want = eta @ lams / N
        got = multiplier_rates(problem, lam0, lams, v, f0)
        assert float(np.abs(got - want).max()) <= 1e-13


def test_lambda0_rate_guard(monkeypatch):
    # d(lambda_0)/dt = -lambda.(eta lambda)/(2 omega^2 lambda_0) vanishes by
    # the antisymmetry of eta, which needs a Hermitian F; a non-Hermitian
    # F(0) breaks it.  The right-hand side does not check: the guard reads
    # the slopes its callers have formed, directly, in a pass and in a
    # pass's dense output, which reads the slopes the pass stored
    problem, m0, h0 = su3_drifting_instance()
    f0 = m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))
    xf, eye = problem.forbidden_generators(), np.eye(3)
    bad_rhs = stepped_rhs(f0 + 0.5j * eye, xf, 1.0)
    y = np.concatenate((eye.ravel() + 0j, m0.lambdas))
    good = stepped_rhs(f0, xf, 1.0)(y)
    dynamics._check_lambda0_rate(problem, 1.0, y, good)
    with pytest.raises(ArithmeticError, match="antisymmetry"):
        dynamics._check_lambda0_rate(problem, 1.0, y, bad_rhs(y))
    with pytest.raises(ArithmeticError, match="antisymmetry"):
        dynamics._check_lambda0_rate(problem, 1.0, np.stack((y, y)), np.stack((good, bad_rhs(y))))
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    states = np.concatenate((smp.V.reshape(-1, 9), smp.lambdas), axis=1)
    bad_slopes = np.stack([bad_rhs(y) for y in states])
    smp.rows_at(problem, [0.5])
    with pytest.raises(ArithmeticError, match="antisymmetry"):
        smp._replace(slopes=bad_slopes).rows_at(problem, [0.5])
    # the same F(0) inside a pass fails its first check, before any block
    monkeypatch.setattr(
        dynamics, "stepped_rhs", lambda F0, Xf, lam0: stepped_rhs(F0 + 0.5j * eye, Xf, lam0)
    )
    with pytest.raises(ArithmeticError, match="antisymmetry"):
        next(dynamics.integrate_blocks(problem, m0, h0, t_max=1.0, dt=0.01))


def test_pass_guards_lambda0_at_its_checkpoints(monkeypatch):
    # the pass checks the multipliers of y(0) and of the state at every
    # drift checkpoint (each block's last row), with their rates in the
    # slope rhs(y) there
    problem, m0, h0 = su3_drifting_instance()
    seen = []
    check = dynamics._check_lambda0_rate

    def recorded(problem, lambda0, lams, dlams):
        seen.append((lams.copy(), dlams.copy()))
        check(problem, lambda0, lams, dlams)

    monkeypatch.setattr(dynamics, "_check_lambda0_rate", recorded)
    blocks = list(dynamics.integrate_blocks(problem, m0, h0, t_max=1.0, dt=0.01))
    monkeypatch.undo()
    assert len(seen) == 1 + len(blocks) and len(blocks) > 1
    rows = [0] + [b.times.size - 1 for b in blocks]
    for (lams, dlams), k in zip(seen, rows):
        np.testing.assert_array_equal(lams, blocks[-1].lambdas[k])
        np.testing.assert_array_equal(dlams, blocks[-1].slopes[k, 9:].real)


def test_eta_matrix_single_direction_is_zero():
    problem = ControlProblem(
        basis=build_gellmann_basis(2), psi_i=helpers.KET0, omega=1.0, forbidden=(2,)
    )
    dlams = rates_at_h(problem, SY, 1.0, [1.0])
    np.testing.assert_array_equal(dlams, np.zeros(1))


def test_multiplier_rhs_is_zero_for_commuting_directions():
    basis = build_gellmann_basis(3)
    problem = ControlProblem(basis=basis, psi_i=helpers.ket(3, 0), omega=1.0, forbidden=(6, 7))
    # the two diagonal generators commute, so eta = 0 and nothing moves
    h = basis.generators[0] * np.sqrt(2.0 / 3.0)
    dlams = rates_at_h(problem, h, 1.0, [0.3, -0.2])
    np.testing.assert_array_equal(dlams, np.zeros(2))


def test_multiplier_rhs_empty_forbidden():
    problem = ControlProblem(basis=build_gellmann_basis(2), psi_i=helpers.KET0, omega=1.0)
    dlams = rates_at_h(problem, SY, 1.0, [])
    assert dlams.size == 0


def test_multiplier_rhs_rejects_singular_gauge():
    # lambda_0 is constant along the flow, so the one check of a singular
    # gauge is g_operator's, which integrate_blocks calls on lambda_0(0)
    # before either path; only lambda_0 = 0 is singular, whatever its sign bit
    exact = ControlProblem(
        basis=build_gellmann_basis(2), psi_i=helpers.KET0, omega=1.0, forbidden=(2,)
    )
    problem, m0, h0 = su3_drifting_instance()
    for prob, lams, h in ((exact, [1.0], SY), (problem, m0.lambdas, h0)):
        for lam0 in (0.0, -0.0):
            with pytest.raises(SingularGaugeError):
                next(dynamics.integrate_blocks(prob, MultiplierVector(lam0, lams), h, t_max=1.0))


def test_multiplier_rhs_matches_finite_differences():
    problem, m0, h0 = su3_drifting_instance()
    dt = 1e-3
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=dt)
    # the multipliers genuinely move on this instance
    assert np.abs(smp.lambdas - smp.lambdas[0]).max() > 0.1
    F0 = m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))
    worst = 0.0
    for k in range(1, smp.times.size - 1, 97):
        dlams = multiplier_rates(problem, smp.lambda0[k], smp.lambdas[k], smp.V[k], F0)
        fd = (smp.lambdas[k + 1] - smp.lambdas[k - 1]) / (2.0 * dt)
        worst = max(worst, float(np.abs(dlams - fd).max()))
    assert worst <= 1e-6


def test_assemble_hamiltonian_inverts_seed():
    # H(0) = V(0) F(0) V(0)^dag / lambda_0 - G(0) with V(0) = 1 gives back the seed
    problem, m0, h0 = su3_drifting_instance()
    traj = integrate(problem, m0, h0, t_max=0.01, dt=1e-3)
    np.testing.assert_allclose(traj.H[0], h0, atol=1e-13)
    with pytest.raises(SingularGaugeError):
        integrate(problem, MultiplierVector(0.0, [0.4, -0.7]), h0, t_max=0.01, dt=1e-3)


# --------------------------------------------------------------- integrate


@pytest.mark.parametrize("n", [2, 4, 8])
def test_constant_g_frames_of_zero_g_is_the_identity_bit_for_bit(n):
    # a zero G (no forbidden set, or zero multipliers) takes the eigensplit
    # like any other, and its frames are the identity to the last bit,
    # signs of zero included
    times = np.linspace(0.0, 3.0, 7)
    eye = np.broadcast_to(np.eye(n, dtype=complex), (times.size, n, n))
    V = constant_g_frames(np.zeros((n, n), dtype=complex), times)
    np.testing.assert_array_equal(V.view(np.uint64), np.ascontiguousarray(eye).view(np.uint64))


def test_integrate_free_problem_is_exact_exponential():
    omega = 2.0
    basis = build_gellmann_basis(2)
    problem = ControlProblem(basis=basis, psi_i=helpers.KET0, omega=omega)
    h0 = omega * SY
    smp = helpers.complete_pass(problem, MultiplierVector(1.0, []), h0, t_max=1.2, dt=1e-3)
    traj = smp.trajectory(problem)
    worst = max(
        float(np.linalg.norm(traj.U[k] - helpers.expm_herm(h0, t)))
        for k, t in enumerate(traj.times)
    )
    assert worst <= 1e-8
    # the frame never moves and H stays at the seed
    np.testing.assert_allclose(smp.V, np.broadcast_to(np.eye(2), smp.V.shape), atol=1e-12)
    np.testing.assert_allclose(traj.H, np.broadcast_to(h0, traj.H.shape), atol=1e-10)


def test_integrate_single_forbidden_direction_matches_closed_form():
    omega, lam1 = 1.0, 2.5
    problem = helpers.m1_problem(omega)
    h0 = omega * SY
    traj = integrate(problem, MultiplierVector(1.0, [lam1]), h0, t_max=1.0, dt=1e-3)
    ref = helpers.m1_reference_u(lam1, omega, traj.times)
    gap = float(np.linalg.norm((traj.U - ref).reshape(traj.n_samples, -1), axis=1).max())
    assert gap <= 1e-8
    # multipliers are frozen when only one direction is forbidden
    np.testing.assert_allclose(traj.lambdas, lam1, atol=1e-12)
    assert certify(traj).u_defect <= 1e-8


def test_integrate_conserves_invariants():
    problem, m0, h0 = su3_drifting_instance()
    w = problem.omega
    traj = integrate(problem, m0, h0, t_max=1.0, dt=1e-3)
    n = problem.dim
    # lambda_0 is conserved by the antisymmetry of eta
    assert float(np.abs(traj.lambda0 - m0.lambda0).max()) <= 1e-9
    # Tr[F^2] = 2 omega^2 lambda_0^2 + N sum_j lambda_j^2 stays put
    quad = 2 * w**2 * traj.lambda0**2 + n * np.einsum("kj,kj->k", traj.lambdas, traj.lambdas)
    assert float(np.abs(quad - quad[0]).max() / quad[0]) <= 1e-8
    # the recorded multipliers agree with the projection of F onto X_j
    xf = traj.forbidden_generators()
    proj = np.real(np.einsum("kab,jba->kj", traj.F, xf)) / n
    assert float(np.abs(proj - traj.lambdas).max()) <= 1e-7
    # pointwise constraints persist along the flow
    assert float(np.abs(np.einsum("kaa->k", traj.H).real).max()) / w <= 1e-8
    norms = np.real(np.einsum("kab,kba->k", traj.H, traj.H))
    assert float(np.abs(norms - 2 * w**2).max()) / (2 * w**2) <= 1e-6
    terms = np.real(np.einsum("kab,jba->kj", traj.H, xf))
    assert float(np.abs(terms).max()) / w <= 1e-6
    # F(t) really is isospectral to F(0)
    eigs = np.linalg.eigvalsh(traj.F)
    assert float(np.abs(eigs - eigs[0]).max()) <= 1e-7


def test_integrate_multiplier_rescale_leaves_motion_invariant():
    problem, m0, h0 = su3_drifting_instance()
    c = 3.7
    scaled = MultiplierVector(c * m0.lambda0, c * np.asarray(m0.lambdas))
    a_pass = helpers.complete_pass(problem, m0, h0, t_max=0.5, dt=1e-3)
    b_pass = helpers.complete_pass(problem, scaled, h0, t_max=0.5, dt=1e-3)
    a, b = a_pass.trajectory(problem), b_pass.trajectory(problem)
    assert float(np.abs(a.H - b.H).max()) <= 1e-10
    assert float(np.abs(a.U - b.U).max()) <= 1e-10
    np.testing.assert_allclose(b.lambda0, c * a.lambda0, rtol=1e-9)
    # gauge time compensates the rescaling
    np.testing.assert_allclose(b_pass.tau_acc, a_pass.tau_acc / c, rtol=1e-9, atol=1e-12)


def test_integrate_rejects_bad_input():
    problem, m0, h0 = su3_drifting_instance()
    with pytest.raises(SingularGaugeError):
        integrate(problem, MultiplierVector(0.0, [0.4, -0.7]), h0, t_max=1.0)
    with pytest.raises(ValueError):
        integrate(problem, MultiplierVector(1.0, [0.4]), h0, t_max=1.0)
    with pytest.raises(ValueError):
        integrate(problem, m0, h0, t_max=-1.0)
    for dt in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            integrate(problem, m0, h0, t_max=1.0, dt=dt)
    with pytest.raises(ValueError):
        integrate(problem, m0, np.eye(3, dtype=complex), t_max=1.0)  # traceful
    skew = h0 + 1e-3 * 1j * np.eye(3)
    with pytest.raises(ValueError):
        integrate(problem, m0, skew, t_max=1.0)
    bad_norm = 2.0 * h0
    with pytest.raises(ValueError):
        integrate(problem, m0, bad_norm, t_max=1.0)
    touches_forbidden = h0 + 0.1 * problem.basis.generators[0]
    with pytest.raises(ValueError):
        integrate(problem, m0, touches_forbidden, t_max=1.0)


def test_a_dt_coarser_than_the_window_is_the_default_grid():
    # dt only caps the pass step, also where it exceeds t_max
    problem, m0, h0 = su3_drifting_instance()
    capped = integrate(problem, m0, h0, t_max=1.0, dt=2.0)
    default = integrate(problem, m0, h0, t_max=1.0)
    np.testing.assert_array_equal(capped.times, default.times)
    np.testing.assert_array_equal(capped.U, default.U)


@pytest.mark.parametrize("t_max, dt", [(1.0, None), (1.0, 5.0), (1.0, 0.004), (0.01, None)])
def test_exact_and_stepped_passes_of_one_rate_take_the_same_grid(t_max, dt, monkeypatch):
    # seed 90's closed set takes the exact flow and seed 7's open one is
    # stepped; at one rate bound r both sample [0, t_max] at steps of
    # min(t_max, 0.075/r, dt), at least six of them
    monkeypatch.setattr(dynamics, "_pass_rate", lambda G, F0, lambda0: 20.0)
    grids = []
    for seed in (90, 7):
        problem, h0, m0 = helpers.su4_shoot_seed(seed)
        last = helpers.complete_pass(problem, m0, h0, t_max=t_max, dt=dt)
        assert (last.slopes is None) == (seed == 90)
        grids.append(last.times)
    np.testing.assert_array_equal(grids[0], grids[1])
    step = min(t_max, dynamics._STEP_PER_RATE / 20.0, math.inf if dt is None else dt)
    assert grids[0].size == max(7, math.ceil(t_max / step) + 1) and grids[0][-1] == t_max


def test_integrate_refuses_work_beyond_the_cap(monkeypatch):
    # the cap is made small so that no test starts the work it bounds
    monkeypatch.setattr(dynamics, "_MAX_SAMPLES", 100)
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    # a user step finer than the cap allows is refused before any step,
    # on the stepped path and on the exact one
    with pytest.raises(ValueError, match=r"\[0, 1\] at steps of at most 0.005 needs 200 steps"):
        next(dynamics.integrate_blocks(problem, m0, h0, t_max=1.0, dt=0.005))
    with pytest.raises(ValueError, match="more than 100; use a coarser dt"):
        integrate(helpers.m1_problem(1.0), MultiplierVector(1.0, [2.5]), SY, t_max=1.0, dt=0.005)
    # a window whose own rate-resolved step needs more is refused the same
    # way, with or without a coarser dt, since dt only caps that step
    refusal = re.escape(helpers.grid_refusal(4.0, helpers.own_step(problem, h0, m0)))
    for dt in (None, 0.5):
        with pytest.raises(ValueError, match=refusal + ", more than 100"):
            next(dynamics.integrate_blocks(problem, m0, h0, t_max=4.0, dt=dt))


def test_checkpoint_holds_the_frame_to_the_validation_bound(monkeypatch):
    # with 30 times seed 7's multipliers, the pass at its own step holds
    # the frame unitary to rounding with no projection, far inside the
    # 1e-8 that Trajectory validation puts on U
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    strong = MultiplierVector(1.0, 30.0 * m0.lambdas)
    last = helpers.complete_pass(problem, strong, h0, t_max=5.0)
    V = last.V
    drift = np.linalg.norm(V.conj().swapaxes(1, 2) @ V - np.eye(4), axis=(1, 2)).max()
    assert drift <= 1e-8
    assert certify(last.trajectory(problem)).u_defect <= Tolerances.integrated().u_mismatch
    # at 10 times the step the frame drifts by about 1.8e-6 over the 16
    # steps to the first checkpoint: a numerical failure naming the drift and
    # the step, never a restart and never invalid input
    monkeypatch.setattr(dynamics, "_STEP_PER_RATE", 1.0)
    with pytest.raises(ArithmeticError, match="beyond 1e-08, by step 16 at step size 2.577e-02"):
        next(dynamics.integrate_blocks(problem, strong, h0, t_max=5.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_multiplier_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        MultiplierVector(bad, [0.4])
    with pytest.raises(ValueError):
        MultiplierVector(1.0, [0.4, bad])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("path", ["exact", "stepped"])
def test_integrate_rejects_non_finite_h0(bad, path):
    if path == "exact":
        problem, m0, h0 = helpers.m1_problem(1.0), MultiplierVector(1.0, [2.5]), SY.copy()
    else:
        problem, m0, h0 = su3_drifting_instance()
        h0 = h0.copy()
    h0[0, 1] = bad
    with pytest.raises(ValueError):
        integrate(problem, m0, h0, t_max=0.1, dt=1e-3)


def test_integrate_commuting_forbidden_set_is_exact():
    # recipe seed 183 forbids the commuting diagonal set of su(4): eta = 0;
    # shooting projects its seed onto the structure the certificate expects
    problem, h0, m0 = helpers.su4_shoot_seed(183)
    assert problem.forbidden == (12, 13, 14)
    assert not helpers.commutator_tensor(problem.basis, problem.forbidden).any()
    sol = shoot(problem, h0, m0, t_max=3.0)
    h0, m0 = sol.H0, sol.multipliers0
    smp = helpers.complete_pass(problem, m0, h0, t_max=3.0)
    traj = smp.trajectory(problem)
    assert np.all(traj.lambda0 == m0.lambda0)
    assert np.all(traj.lambdas == m0.lambdas)
    np.testing.assert_array_equal(smp.tau_acc, smp.times / m0.lambda0)
    g = g_operator(m0, problem.basis, problem.forbidden)
    worst = max(
        float(np.linalg.norm(smp.V[k] - helpers.expm_herm(g, -t)))
        for k, t in enumerate(smp.times)
    )
    assert worst <= 1e-12
    report = certify(traj, Tolerances.integrated())
    assert report.u_defect <= 1e-8
    failed = [k for k in POINTWISE_VERDICTS if not report.verdict[k]]
    assert not failed


def test_constant_flow_reproduces_exact_integration():
    # on the commuting su(4) set integrate samples the constant-multiplier
    # flow; its rows on the same grid give the same trajectory, and
    # renormalizing them rescales the multipliers but leaves the motion
    # unchanged
    problem, h0, m0 = helpers.su4_shoot_seed(183)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=1e-3)
    traj = smp.trajectory(problem)
    f0 = m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))
    rows = _constant_rows(problem, m0, traj.times)
    assert float(np.abs(rows[0] - smp.V).max()) <= 1e-13
    flow = finalize_trajectory(problem, traj.times, rows, f0)
    assert not flow.renormalized
    for name in ("U", "H", "F", "psi"):
        gap = float(np.abs(getattr(flow, name) - getattr(traj, name)).max())
        assert gap <= 1e-13, name
    c = 2.5
    rescaled = finalize_trajectory(problem, traj.times, rows, f0, renormalized=c)
    assert rescaled.renormalized
    np.testing.assert_array_equal(rescaled.lambda0, m0.lambda0 / c)
    for name in ("U", "H", "psi"):
        gap = float(np.abs(getattr(rescaled, name) - getattr(traj, name)).max())
        assert gap <= 1e-13, name
    assert float(np.abs(rescaled.F - traj.F / c).max()) <= 1e-13


def _random_unitaries(rng, k, n):
    z = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _rk6_step(u, h, c):
    """One RK6 step of i dU/dt = H U from u of size h, with H at the stage
    times t + (0, 1/3, 2/3, 1/3, 1/2, 1/2, 1) h given as c."""
    a = [
        [],
        [1 / 3],
        [0, 2 / 3],
        [1 / 12, 4 / 12, -1 / 12],
        [-1 / 16, 18 / 16, -3 / 16, -6 / 16],
        [0, 9 / 8, -3 / 8, -6 / 8, 4 / 8],
        [9 / 44, -36 / 44, 63 / 44, 72 / 44, 0, -64 / 44],
    ]
    ks = []
    for i in range(7):
        x = u + h * sum(w * kj for w, kj in zip(a[i], ks))
        ks.append(-1j * c[i] @ x)
    b = (11, 0, 81, 81, -32, -32, 11)
    return u + h / 120 * sum(w * kj for w, kj in zip(b, ks))


def _rk6_defect(times, h_ends, h_stages, U):
    """sum_k ||U_{k+1} - two RK6 half-steps of i dU/dt = H U from U_k||_F,
    step by step.

    Butcher's tableau on each half-step, its stages at (0, 1/3, 2/3, 1/3,
    1/2, 1/2, 1) of it; h_stages[k] holds H at t_k + (1/6, 1/4, 1/3, 1/2,
    2/3, 3/4, 5/6) h."""
    total = 0.0
    for k, h in enumerate(np.diff(times)):
        h16, h14, h13, h12, h23, h34, h56 = h_stages[k]
        half = _rk6_step(U[k], h / 2, [h_ends[k], h16, h13, h16, h14, h14, h12])
        full = _rk6_step(half, h / 2, [h12, h23, h56, h23, h34, h34, h_ends[k + 1]])
        total += float(np.linalg.norm(U[k + 1] - full))
    return total


_STAGE_FRACTIONS = (1 / 6, 1 / 4, 1 / 3, 1 / 2, 2 / 3, 3 / 4, 5 / 6)


@pytest.mark.parametrize("dim", [2, 4])
def test_u_defect_matches_sequential_rk6_steps(dim, monkeypatch):
    # the batched per-step check against a plain step-by-step loop, over
    # more than one block, with -iH at each step's inner stage times the
    # degree-7 interpolant through the eight nearest samples (one-sided on
    # the three steps at either end), on stored U far from the flow of H so
    # every step counts
    rng = np.random.default_rng(dim)
    basis = build_gellmann_basis(dim)
    g = np.tensordot(rng.normal(size=dim - 1), basis.generators[-(dim - 1):], axes=1)
    f0 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    f0 = f0 + f0.conj().T
    lam0, h = 0.8, 2e-3
    block = verify._DIRECT_BLOCK // dim**2  # steps a block
    times = np.arange(block + 90) * h
    n = times.size - 1
    V = np.array([helpers.expm_herm(g, -t) for t in times])
    H = V @ f0 @ V.conj().transpose(0, 2, 1) / lam0 - g

    def septic(k, c):
        # Lagrange weights of the eight samples from `first` at t_k + c h
        first = min(max(k - 3, 0), n - 7)
        x = k - first + c
        out = 0
        for j in range(8):
            w = np.prod([(x - i) / (j - i) for i in range(8) if i != j])
            out = out + w * H[first + j]
        return out

    stages = [[septic(k, c) for c in _STAGE_FRACTIONS] for k in range(n)]
    U = _random_unitaries(rng, n + 1, dim)
    ref = _rk6_defect(times, H, stages, U)
    # the steps are checked block by block
    blocks, stage_hamiltonians = [], verify._stage_hamiltonians

    def recorded(H, a, b):
        blocks.append((a, b))
        return stage_hamiltonians(H, a, b)

    monkeypatch.setattr(verify, "_stage_hamiltonians", recorded)
    got = verify._u_defect(times, H, U)
    assert blocks == [(0, block), (block, n)]
    assert abs(got - ref) <= 1e-12 * ref


def test_u_defect_is_sixth_order():
    # on H(t) = e^{i lambda sz t} omega sy e^{-i lambda sz t}, whose
    # propagator e^{i lambda sz t} e^{-i(omega sy + lambda sz)t} is closed
    # form, halving the step cuts the summed defect of that propagator by
    # 2^6: the two RK6 half-steps keep RK6's order.  The interpolated stage
    # values err by O(h^8) summed, which shows only where H turns fast
    # against U (at lambda = 2.5, omega = 1 the ratios read 316-390), so H
    # turns at lambda = 1 under omega = 4.  The defects (5.9e-9 down to
    # 1.4e-12) stay far above the rounding floor
    lam, w = 1.0, 4.0
    defects = []
    for n in (20, 40, 80):
        times = np.linspace(0.0, 1.0, n + 1)
        V = np.array([helpers.expm_herm(SZ, -lam * t) for t in times])
        H = w * V @ SY @ V.conj().transpose(0, 2, 1)
        defects.append(verify._u_defect(times, H, helpers.m1_reference_u(lam, w, times)))
    for coarse, fine in zip(defects, defects[1:]):
        assert 56.0 <= coarse / fine <= 72.0


@pytest.mark.parametrize("K", [7, 8, 9])
def test_u_defect_takes_grids_of_seven_samples_and_more(K):
    # a grid of seven samples, the fewest a trajectory has, takes the
    # sextic through all of them, a longer one the degree-7 interpolant
    # through eight: on an H(t) polynomial of degree min(8, K) - 1, the one
    # they reproduce, the stage values are exact, and the check is two RK6
    # half-steps with H evaluated at the stage times
    rng = np.random.default_rng(K)
    B = rng.normal(size=(8, 3, 3)) + 1j * rng.normal(size=(8, 3, 3))
    B = B + B.conj().transpose(0, 2, 1)

    def h_at(t):
        return sum(B[p] * t**p for p in range(min(K, 8)))

    times = np.linspace(0.0, 0.3, K)
    U = _random_unitaries(rng, K, 3)
    got = verify._u_defect(times, np.array([h_at(t) for t in times]), U)
    stages = [[h_at(t + c * h) for c in _STAGE_FRACTIONS] for t, h in zip(times, np.diff(times))]
    ref = _rk6_defect(times, [h_at(t) for t in times], stages, U)
    assert abs(got - ref) <= 1e-13 * ref


@pytest.mark.parametrize("t_max, K", [(5e-4, 7), (2.5e-3, 7)])
def test_integrate_below_one_default_step(t_max, K):
    # a window below one step of 1e-3 (dt only caps the step, so a coarser
    # one is accepted) is six steps, the fewest a grid has, as is a window
    # of two and a half: seven samples, which certify differences dF/dt
    # over, and the check of U against H takes those grids, its stage
    # values on the sextic through them.  The seed is not projected onto
    # the structure of F(0), so only the verdicts that need no such
    # structure are asked to pass
    problem, m0, h0 = su3_drifting_instance()
    traj = integrate(problem, m0, h0, t_max=t_max, dt=1e-3)
    assert traj.n_samples == K and traj.times[-1] == t_max
    report = certify(traj, Tolerances.integrated())
    assert 0.0 < report.u_defect <= 1e-9
    assert all(report.verdict[k] for k in ("chko", "aa", "u_mismatch"))


@pytest.mark.parametrize("seed", [7, 90])
def test_batched_at_matches_scalar_calls(seed):
    # a stepped pass (seed 7) and the exact flow of a closed set (seed 90):
    # the batched evaluation equals one call per time, on samples, at both
    # ends of the window and between samples, for the observables, the
    # rows and the state vectors
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    assert (smp.slopes is None) == (seed == 90)
    rng = np.random.default_rng(seed)
    times = np.concatenate((smp.times[[0, 1, 37, -2, -1]], np.sort(rng.uniform(0.0, 1.0, 276))))
    names = ("U", "F", "H", "psi"), ("V", "lambda0", "lambdas", "tau"), ("psi", "Hpsi", "Fpsi")
    evaluations = (smp.at, smp.rows_at, smp.vectors_at)
    for evaluate, stacks in zip(evaluations, names):
        batched = evaluate(problem, times)
        for k, t in enumerate(times):
            for name, got, one in zip(stacks, batched, evaluate(problem, t)):
                gap = float(np.abs(got[k] - one[0]).max())
                assert gap <= 1e-14 * max(1.0, float(np.abs(one).max())), (name, t)
    # on a sample the evaluation is the sample itself
    rows = smp.rows_at(problem, smp.times[:3])
    np.testing.assert_array_equal(rows[0], smp.V[:3])
    np.testing.assert_array_equal(rows[2], smp.lambdas[:3])


@pytest.mark.parametrize("seed", [0, 7, 50, 100, 182])
def test_state_vectors_give_the_matrix_endpoint_scalar(seed):
    # the root scan's scalar Im<H psi|F psi>/omega^2, from matrix-vector
    # products on the frame, is Im<psi|HF|psi>/omega^2 of the U, F, H and
    # psi stacks on every sample of the pass of a pool seed
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    h0, m0 = solvers._project_seed(problem, h0, m0)
    smp = helpers.complete_pass(problem, m0, h0, t_max=3.0)
    rows = (smp.V, smp.lambda0, smp.lambdas, smp.tau_acc)
    psi, hpsi, fpsi = dynamics._state_vectors(problem, rows, smp.F0_eig)
    _, F, H, psi_ref = dynamics._observables(problem, *rows, smp.F0, smp.F0_eig)
    want = np.einsum("ka,kab,kbc,kc->k", psi_ref.conj(), H, F, psi_ref).imag
    got = np.einsum("ka,ka->k", hpsi.conj(), fpsi).imag
    w2 = problem.omega**2
    assert smp.times.size > 100 and float(np.abs(got - want).max()) <= 1e-14 * w2
    assert float(np.abs(psi - psi_ref).max()) <= 1e-14


def stepped_instance(case):
    """(problem, m0, H0) of a stepped case: "su3" or "su4-<recipe seed>"."""
    if case == "su3":
        return su3_drifting_instance()
    problem, h0, m0 = helpers.su4_shoot_seed(int(case[4:]))
    return problem, m0, h0


@pytest.mark.parametrize("case", ["su3", "su4-7"])
def test_hermite_rows_agree_with_one_rk6_step(case):
    # the Hermite dense output of the pass's samples and slopes against one
    # rk6_step of the right-hand side from the sample left of each time,
    # on samples, between them and at both ends of the window: at dt =
    # 0.01 the two agree to rounding
    problem, m0, h0 = stepped_instance(case)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    rhs = stepped_rhs(smp.F0, problem.forbidden_generators(), smp.lambda0[0])
    rng = np.random.default_rng(4)
    times = np.concatenate((smp.times[[0, 1, 37, -2, -1]], np.sort(rng.uniform(0.0, 1.0, 276))))
    V, _, lams, _ = smp.rows_at(problem, times)
    n2 = problem.dim**2
    for t, v, lam in zip(times, V, lams):
        k = min(int(np.searchsorted(smp.times, t, side="right")) - 1, smp.times.size - 2)
        y = np.concatenate((smp.V[k].ravel(), smp.lambdas[k]))
        y = dynamics.rk6_step(rhs, y, t - smp.times[k], rhs(y))
        want = np.concatenate((y[:n2], y[n2:].real))
        got = np.concatenate((v.ravel(), lam))
        assert float(np.abs(got - want).max()) <= 1e-14 * float(np.abs(want).max()), t


@pytest.mark.parametrize("case", ["su3", "su4-7"])
def test_dense_output_on_a_sample_is_the_sample(case):
    # the interpolation weights are exactly 0 and 1 on the nodes, so the
    # rows on the pass's own times are its samples bit for bit
    problem, m0, h0 = stepped_instance(case)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    V, lam0, lams, tau = smp.rows_at(problem, smp.times)
    assert V.tobytes() == np.ascontiguousarray(smp.V).tobytes()
    assert lams.tobytes() == np.ascontiguousarray(smp.lambdas).tobytes()
    np.testing.assert_array_equal(lam0, smp.lambda0)
    np.testing.assert_array_equal(tau, smp.tau_acc)


@pytest.mark.parametrize("case", ["su3", "su4-7"])
def test_dense_output_matches_the_node_by_node_weights(case):
    # rows_at forms the Hermite weights of all four nodes in one broadcast;
    # the double loop over the nodes gives the same rows to rounding, on
    # samples, between them and at both ends of the window
    problem, m0, h0 = stepped_instance(case)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    rng = np.random.default_rng(5)
    times = np.concatenate((smp.times[[0, 1, 37, -2, -1]], np.sort(rng.uniform(0.0, 1.0, 276))))
    V, _, lams, _ = smp.rows_at(problem, times)
    V_ref, lams_ref = helpers.hermite_rows_reference(smp, times)
    assert float(np.abs(V - V_ref).max()) <= 1e-15 * float(np.abs(V_ref).max())
    assert float(np.abs(lams - lams_ref).max()) <= 1e-15 * float(np.abs(lams_ref).max())


@pytest.mark.parametrize("case", ["su3", "su4-7"])
def test_dense_output_is_c1_across_samples(case):
    # at every interior sample the one-sided second-order differences of
    # the interpolant from the left and from the right both give the
    # stored slope: no jump for certify's differences to see
    problem, m0, h0 = stepped_instance(case)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    t, e = smp.times[1:-1], 1e-6

    def y(times):
        V, _, lams, _ = smp.rows_at(problem, times)
        return np.concatenate((V.reshape(times.size, -1), lams), axis=1)

    y0 = y(t)
    right = (4.0 * y(t + e) - y(t + 2.0 * e) - 3.0 * y0) / (2.0 * e)
    left = (3.0 * y0 - 4.0 * y(t - e) + y(t - 2.0 * e)) / (2.0 * e)
    slopes = smp.slopes[1:-1]
    tol = 1e-8 * float(np.abs(slopes).max())
    assert float(np.abs(right - left).max()) <= tol
    assert float(np.abs(right - slopes).max()) <= tol


@pytest.mark.parametrize("case", ["su3", "su4-2"])
def test_dense_output_error_falls_2_6_per_halving(case, monkeypatch):
    # a pass thinned to every fourth sample of a pass at a quarter of its
    # step, against that pass's samples in between: the samples are shared,
    # so the error is the dense output's alone (degree 7, about 2^8 per
    # halving).  The step is lifted off the rate bound, so dt sets it
    problem, m0, h0 = stepped_instance(case)
    monkeypatch.setattr(dynamics, "_STEP_PER_RATE", math.inf)
    errs = []
    for n in (5, 10, 20):
        fine = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=1.0 / (4 * n))
        assert fine.n_steps == 4 * n
        rows = (fine.times, fine.V, fine.lambda0, fine.lambdas, fine.tau_acc)
        coarse = dynamics.PassSamples(
            *(a[::4] for a in rows), fine.F0, n, fine.slopes[::4], np.linalg.eigh(fine.F0)
        )
        V, _, lams, _ = coarse.rows_at(problem, fine.times)
        errs.append(max(float(np.abs(V - fine.V).max()), float(np.abs(lams - fine.lambdas).max())))
    assert errs[0] / errs[1] >= 64.0 and errs[1] / errs[2] >= 64.0


def test_dense_output_of_a_pass_at_rest_is_its_sample():
    # the value weights sum to 1 only up to rounding, so the interpolant is
    # formed as the nearest sample plus a correction: on equal samples with
    # zero slopes it is that sample exactly, at any time
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    rest = smp._replace(
        V=np.broadcast_to(smp.V[37], smp.V.shape),
        lambdas=np.broadcast_to(smp.lambdas[37], smp.lambdas.shape),
        slopes=np.zeros_like(smp.slopes),
    )
    V, _, lams, _ = rest.rows_at(problem, np.linspace(0.0, 1.0, 997))
    assert np.all(V == smp.V[37]) and np.all(lams == smp.lambdas[37])


def test_rows_at_evaluates_no_right_hand_side(monkeypatch):
    # the pass evaluates the right-hand side once at y(0), seven times on
    # each of its seven RK6 start steps (six stages and the new slope) and
    # twice on each Adams step after them (at the prediction and at the new
    # sample), and its dense output, on any batch of times, never
    calls = []

    def counted(F0, Xf, lam0):
        rhs = stepped_rhs(F0, Xf, lam0)
        return lambda y: calls.append(1) or rhs(y)

    monkeypatch.setattr(dynamics, "stepped_rhs", counted)
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    n = smp.n_steps
    pass_calls = 1 + 7 * min(n, 7) + 2 * max(n - 7, 0)
    assert n > 7 and len(calls) == pass_calls
    smp.at(problem, np.linspace(0.0, 1.0, 1001))
    smp.at(problem, 0.5)
    assert len(calls) == pass_calls


def test_rows_at_refuses_a_time_whose_stencil_is_not_sampled():
    # a time in [t_k, t_k+1] needs samples up to max(k + 2, 3): on a block
    # that is short of them it is a ValueError, not an extrapolation
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    blocks = list(dynamics.integrate_blocks(problem, m0, h0, t_max=1.0, dt=0.01))
    first, m = blocks[0], blocks[0].times.size
    assert len(blocks) > 1 and m > 4
    t = first.times[m - 3] + 0.5 * first.times[1]
    np.testing.assert_array_equal(first.rows_at(problem, t)[0], blocks[-1].rows_at(problem, t)[0])
    with pytest.raises(ValueError, match="needs samples up to"):
        first.rows_at(problem, first.times[m - 2])


@pytest.mark.parametrize("seed", [7, 90])
def test_cross_check_reads_only_the_h_samples(seed, monkeypatch):
    # on a stepped pass (seed 7) and on the exact flow (seed 90) certify
    # cross-checks U against H once, from the trajectory's own times and
    # H and U samples: it evaluates no row of the pass, and builds no U,
    # F, H or psi of its own
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    traj = smp.trajectory(problem)
    calls = []
    u_defect = verify._u_defect

    def recorded(times, H, U):
        calls.append((times, H, U))
        return u_defect(times, H, U)

    def forbidden(*args, **kwargs):
        raise AssertionError("the check built U, F, H and psi")

    def no_rows(*args, **kwargs):
        raise AssertionError("the check evaluated rows of the pass")

    monkeypatch.setattr(verify, "_u_defect", recorded)
    monkeypatch.setattr(dynamics, "_observables", forbidden)
    monkeypatch.setattr(dynamics.PassSamples, "rows_at", no_rows)
    report = certify(traj, Tolerances.integrated())
    monkeypatch.undo()
    assert len(calls) == 1
    times, H, U = calls[0]
    assert times is traj.times and H is traj.H and U is traj.U
    assert report.u_defect == u_defect(traj.times, traj.H, traj.U) <= 1e-9


@pytest.mark.parametrize("seed", [7, 90])
def test_perturbed_pass_sample_fails_the_cross_check(seed):
    # the check reads the pass's own values after the pass; a sample
    # knocked off the flow (a unitary rotation of one frame, which keeps
    # the trajectory valid) shows up in u_defect
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    smp = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.01)
    tol = Tolerances.integrated().u_mismatch
    assert certify(smp.trajectory(problem)).u_defect <= 1e-9
    V = smp.V.copy()
    V[50] = helpers.expm_herm(problem.basis.generators[0], 1e-4) @ V[50]
    report = certify(smp._replace(V=V).trajectory(problem), Tolerances.integrated())
    assert report.u_defect > tol
    assert not report.verdict["u_mismatch"]


def test_rk6_tableau_meets_butchers_conditions():
    # explicit stages whose rows sum to the nodes c, and weights that
    # integrate 1, t, ..., t^5 exactly: the quadrature conditions of order 6
    A, b = dynamics._RK6_A, dynamics._RK6_B
    c = np.array([0.0, 1 / 3, 2 / 3, 1 / 3, 1 / 2, 1 / 2, 1.0])
    assert A.shape == (7, 6) and b.shape == (7,)
    assert not np.triu(A).any()
    assert float(np.abs(A.sum(axis=1) - c).max()) <= 1e-15
    assert abs(float(b.sum()) - 1.0) <= 1e-15
    for q in range(1, 6):
        assert abs(float(b @ c**q) - 1.0 / (q + 1)) <= 1e-15, q


def test_rk6_step_matches_the_hand_expanded_stages():
    # the tableau products of rk6_step give the step the seven stages
    # written out by hand give, to rounding, from states along seed 7's pass
    problem, h0, m0 = helpers.su4_shoot_seed(7)
    smp = helpers.complete_pass(problem, m0, h0, t_max=3.0)
    n2 = problem.dim**2
    rhs = stepped_rhs(smp.F0, problem.forbidden_generators(), m0.lambda0)
    h = float(smp.times[1])
    for k in range(0, smp.times.size, 25):
        y = np.concatenate((smp.V[k].ravel(), smp.lambdas[k]))
        k1 = rhs(y)
        ref = helpers.rk6_reference(rhs, y, h, k1)
        got = dynamics.rk6_step(rhs, y, h, k1)
        assert float(np.linalg.norm(got - ref)) <= 1e-15 * float(np.linalg.norm(ref)), k
        assert float(np.abs(ref[:n2] - y[:n2]).max()) > 1e-6  # the step moves the frame


@pytest.mark.parametrize("seed", [2, 7])
def test_integrate_non_commuting_su4_is_sixth_order(seed):
    # rk6_step, the pass's starter, is sixth order: the error of V(1) from
    # its steps alone against a fine pass falls by 2^6 when the step halves, at
    # steps coarser than a pass's own, whose errors stay well above rounding
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    assert not is_closed_subalgebra(problem.basis, problem.forbidden)[0]
    ref = helpers.complete_pass(problem, m0, h0, t_max=1.0, dt=0.005).V[-1]
    f0 = m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))
    rhs = stepped_rhs(f0, problem.forbidden_generators(), m0.lambda0)
    errs = []
    for h in (0.2, 0.1):
        y = np.concatenate((np.eye(problem.dim, dtype=complex).ravel(), m0.lambdas))
        for _ in range(round(1.0 / h)):
            y = dynamics.rk6_step(rhs, y, h, rhs(y))
        errs.append(float(np.linalg.norm(y[: problem.dim**2].reshape(ref.shape) - ref)))
    assert 48.0 <= errs[0] / errs[1] <= 80.0


def test_adams_weights_integrate_degree_seven_exactly():
    # the weights are integers over 120960, and they integrate 1, s, ..., s^7
    # over the step [0, 1] exactly from their nodes, counted in steps from
    # the last sample: -7..0 (Adams-Bashforth) and -6..1 (Adams-Moulton)
    for weights, first in ((dynamics._AB8, -7), (dynamics._AM8, -6)):
        ints = [round(w * 120960) for w in weights]
        assert (np.array(ints) / 120960.0 == weights).all()
        for d in range(8):
            nodes = range(first, first + 8)
            moment = sum(Fraction(k, 120960) * s**d for k, s in zip(ints, nodes))
            assert moment == Fraction(1, d + 1), d


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_integrate_non_commuting_su4_is_eighth_order(seed, monkeypatch):
    # the Adams step: with the rate step raised so that dt sets the step,
    # halving it from 0.1 to 0.05 divides the error of U(2) against a pass
    # at 0.0025 by 226-278 on these seeds, about 2^8, where a seventh-order
    # step gives about 2^7; the seven RK6 start steps add an h^7 term, at
    # most a quarter of these errors, and both stay well above rounding
    monkeypatch.setattr(dynamics, "_STEP_PER_RATE", 100.0)
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    ref = integrate(problem, m0, h0, t_max=2.0, dt=0.0025).U[-1]
    errs = [
        float(np.linalg.norm(integrate(problem, m0, h0, t_max=2.0, dt=h).U[-1] - ref))
        for h in (0.1, 0.05)
    ]
    assert errs[1] > 1e-13
    assert 200.0 <= errs[0] / errs[1] <= 320.0


def test_integrate_closed_non_abelian_su4_is_exact():
    # recipe seed 0 forbids a closed set whose generators do not commute:
    # eta vanishes along the flow, so integrate samples the exact flow in
    # one block, with constant multipliers, instead of stepping it
    problem, h0, m0 = helpers.su4_shoot_seed(0)
    assert helpers.commutator_tensor(problem.basis, problem.forbidden).any()
    assert is_closed_subalgebra(problem.basis, problem.forbidden)[0]
    blocks = list(dynamics.integrate_blocks(problem, m0, h0, t_max=1.0, dt=0.01))
    assert len(blocks) == 1 and blocks[0].slopes is None
    traj = integrate(problem, m0, h0, t_max=1.0, dt=0.01)
    assert np.all(traj.lambda0 == m0.lambda0)
    assert np.all(traj.lambdas == m0.lambdas)
    # the stepped system at a fine step, from the same seed, as reference
    n2 = problem.dim**2
    f0 = m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))
    rhs = stepped_rhs(f0, problem.forbidden_generators(), m0.lambda0)
    y = np.concatenate((np.eye(problem.dim, dtype=complex).ravel(), m0.lambdas))
    for _ in range(1000):
        y = dynamics.rk6_step(rhs, y, 1e-3, rhs(y))
    V, lams, tau = y[:n2].reshape(problem.dim, -1), y[n2:].real, 1.0 / m0.lambda0
    w, q = np.linalg.eigh(f0)
    u_ref = V @ (q * np.exp(-1j * w * tau)) @ q.conj().T
    assert float(np.linalg.norm(traj.U[-1] - u_ref)) <= 1e-12
    np.testing.assert_allclose(lams, m0.lambdas, atol=1e-12)


# -------------------------------------------------------------- Trajectory


def _short_trajectory_doc() -> dict:
    """A short trajectory's document as json.load gives it: lists, not arrays."""
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.05, dt=1e-2)
    return json.loads(json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                                  for k, v in traj.to_dict().items()}))


def test_trajectory_round_trip_is_exact():
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.3, dt=1e-3)
    data = traj.to_dict()
    assert data["version"] == 1
    assert data["forbidden"] == ["d1"]
    back = Trajectory.from_dict(data)
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.U, traj.U)
    np.testing.assert_array_equal(back.H, traj.H)
    np.testing.assert_array_equal(back.F, traj.F)
    np.testing.assert_array_equal(back.psi, traj.psi)
    np.testing.assert_array_equal(back.lambdas, traj.lambdas)
    assert back.omega == traj.omega
    assert back.renormalized == traj.renormalized
    assert back.forbidden == traj.forbidden


@pytest.mark.parametrize(
    "field, edit",
    [("omega", lambda d: d.update(omega="1.0")),
     ("dimension", lambda d: d.update(dimension="2")),
     ("renormalized", lambda d: d.update(renormalized="false")),
     ("renormalized", lambda d: d.update(renormalized=0)),
     ("times", lambda d: d.update(times=["0.0"] + d["times"][1:])),
     ("lambdas", lambda d: d.update(lambdas=[[True]] + d["lambdas"][1:])),
     ("U", lambda d: d["U"][0][0][0].__setitem__(0, True))],
    ids=["omega-string", "dimension-string", "renormalized-string", "renormalized-number",
         "times-string", "lambdas-boolean", "U-boolean"],
)
def test_trajectory_from_dict_refuses_a_value_of_the_wrong_json_type(field, edit):
    # float(), bool() and a float array conversion would read each of these
    data = _short_trajectory_doc()
    Trajectory.from_dict(data)
    edit(data)
    with pytest.raises(ValueError, match=field):
        Trajectory.from_dict(data)


def test_trajectory_json_file_round_trip(tmp_path):
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.1, dt=1e-3)
    path = tmp_path / "traj.json"
    _write_json(traj.to_dict(), str(path))
    back = Trajectory.from_dict(json.loads(path.read_text()))
    np.testing.assert_array_equal(back.U, traj.U)


def test_trajectory_csv_layout(tmp_path):
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.1, dt=1e-3)
    path = tmp_path / "traj.csv"
    traj.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,lambda0,lambda_d1,delta_e,resid_traceless,resid_norm,resid_term_max"
    assert len(lines) == traj.n_samples + 1
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == 1.0
    assert first[2] == 2.5


def test_trajectory_rejects_tampered_data():
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.1, dt=1e-3)
    data = traj.to_dict()
    # breaking unitarity of U is caught on reconstruction
    data["U"][3][0][1][0] += 0.05
    with pytest.raises(ValueError):
        Trajectory.from_dict(data)
    data = traj.to_dict()
    data["basis"] = "fourier"
    with pytest.raises(ValueError):
        Trajectory.from_dict(data)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "field", ["U", "psi", "H", "F", "times", "lambda0", "lambdas"]
)
def test_trajectory_rejects_non_finite_samples(field, bad):
    # each field is named, at N = 2 and N = 4; every entry of F is checked,
    # above, on and below the diagonal, before its spectrum is taken
    m1 = integrate(helpers.m1_problem(1.0), MultiplierVector(1.0, [2.5]), SY, t_max=0.1, dt=1e-3)
    two_qubit = solve_two_qubit_example(0.7, 1.0).trajectory
    for traj in (m1, two_qubit):
        n = traj.dim
        entries = [(3, 0, 1, 0)]
        if field == "F":
            entries += [(0, 0, 0, 0), (3, n - 1, n - 1, 0), (3, n - 1, 0, 0), (0, 1, 0, 1)]
        for entry in entries:
            data = traj.to_dict()
            data[field][entry[: data[field].ndim]] = bad
            with pytest.raises(ValueError, match=f"^{field} has a non-finite entry"):
                Trajectory.from_dict(data)


def test_trajectory_rejects_inconsistent_grid():
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.1, dt=1e-3)
    data = traj.to_dict()
    data["times"] = list(reversed(data["times"]))
    with pytest.raises(ValueError):
        Trajectory.from_dict(data)
