"""Coupled frame/multiplier integration and the trajectory container."""

import json

import numpy as np
import pytest

import helpers
from qbrach import dynamics
from qbrach.algebra import build_gellmann_basis, commutator_tensor, is_closed_subalgebra
from qbrach.dynamics import (
    ControlProblem,
    MultiplierVector,
    SingularGaugeError,
    Trajectory,
    constant_flow,
    coupled_rhs,
    forbidden_sum,
    g_operator,
    integrate,
    pack_state,
    unpack_state,
)
from qbrach.solvers import shoot
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


def test_problem_resolves_labels_and_complement():
    basis = build_gellmann_basis(2)
    p = ControlProblem(basis=basis, psi_i=helpers.KET0, omega=1.0, forbidden=("d1",))
    assert p.forbidden == (2,)
    assert p.allowed == (0, 1)
    assert p.n_forbidden == 1
    np.testing.assert_array_equal(p.forbidden_generators()[0], SZ)


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
    """(d lambda_0/dt, d lambda_j/dt) from the lambda slots of `coupled_rhs`."""
    N, M = problem.dim, problem.n_forbidden
    rhs = coupled_rhs(
        F0,
        problem.forbidden_generators(),
        commutator_tensor(problem.basis, problem.forbidden),
        problem.omega,
        direct=False,
    )
    k = rhs(pack_state(V, lam0, np.asarray(lams, dtype=float), 0.0))
    _, dlam0, dlams, _, _ = unpack_state(k, N, M)
    return dlam0, dlams


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
        [2.0 * rates_at_h(problem, omega * SY, 1.0, e)[1] for e in np.eye(2)]
    )
    np.testing.assert_allclose(eta, [[0.0, -4.0 * omega], [4.0 * omega, 0.0]], atol=1e-12)


def test_eta_matrix_single_direction_is_zero():
    problem = ControlProblem(
        basis=build_gellmann_basis(2), psi_i=helpers.KET0, omega=1.0, forbidden=(2,)
    )
    dlam0, dlams = rates_at_h(problem, SY, 1.0, [1.0])
    assert dlam0 == 0.0
    np.testing.assert_array_equal(dlams, np.zeros(1))


def test_multiplier_rhs_is_zero_for_commuting_directions():
    basis = build_gellmann_basis(3)
    problem = ControlProblem(basis=basis, psi_i=helpers.ket(3, 0), omega=1.0, forbidden=(6, 7))
    # the two diagonal generators commute, so eta = 0 and nothing moves
    h = basis.generators[0] * np.sqrt(2.0 / 3.0)
    dlam0, dlams = rates_at_h(problem, h, 1.0, [0.3, -0.2])
    assert dlam0 == 0.0
    np.testing.assert_array_equal(dlams, np.zeros(2))


def test_multiplier_rhs_empty_forbidden():
    problem = ControlProblem(basis=build_gellmann_basis(2), psi_i=helpers.KET0, omega=1.0)
    dlam0, dlams = rates_at_h(problem, SY, 1.0, [])
    assert dlam0 == 0.0
    assert dlams.size == 0


def test_multiplier_rhs_rejects_singular_gauge():
    problem = ControlProblem(
        basis=build_gellmann_basis(2), psi_i=helpers.KET0, omega=1.0, forbidden=(2,)
    )
    with pytest.raises(SingularGaugeError):
        multiplier_rates(problem, 0.0, [1.0], np.eye(2, dtype=complex), SY)


def test_multiplier_rhs_matches_finite_differences():
    problem, m0, h0 = su3_drifting_instance()
    dt = 1e-3
    traj = integrate(problem, m0, h0, t_max=1.0, dt=dt)
    # the multipliers genuinely move on this instance
    assert np.abs(traj.lambdas - traj.lambdas[0]).max() > 0.1
    F0 = m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))
    worst = 0.0
    for k in range(1, traj.n_samples - 1, 97):
        _, dlams = multiplier_rates(problem, traj.lambda0[k], traj.lambdas[k], traj.V[k], F0)
        fd = (traj.lambdas[k + 1] - traj.lambdas[k - 1]) / (2.0 * dt)
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


def test_integrate_free_problem_is_exact_exponential():
    omega = 2.0
    basis = build_gellmann_basis(2)
    problem = ControlProblem(basis=basis, psi_i=helpers.KET0, omega=omega)
    h0 = omega * SY
    traj = integrate(problem, MultiplierVector(1.0, []), h0, t_max=1.2, dt=1e-3)
    worst = max(
        float(np.linalg.norm(traj.U[k] - helpers.expm_herm(h0, t)))
        for k, t in enumerate(traj.times)
    )
    assert worst <= 1e-8
    # the frame never moves and H stays at the seed
    np.testing.assert_allclose(traj.V, np.broadcast_to(np.eye(2), traj.V.shape), atol=1e-12)
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
    assert traj.u_mismatch <= 1e-8


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
    a = integrate(problem, m0, h0, t_max=0.5, dt=1e-3)
    b = integrate(problem, scaled, h0, t_max=0.5, dt=1e-3)
    assert float(np.abs(a.H - b.H).max()) <= 1e-10
    assert float(np.abs(a.U - b.U).max()) <= 1e-10
    np.testing.assert_allclose(b.lambda0, c * a.lambda0, rtol=1e-9)
    # gauge time compensates the rescaling
    np.testing.assert_allclose(b.tau_acc, a.tau_acc / c, rtol=1e-9, atol=1e-12)


def test_integrate_rejects_bad_input():
    problem, m0, h0 = su3_drifting_instance()
    with pytest.raises(SingularGaugeError):
        integrate(problem, MultiplierVector(0.0, [0.4, -0.7]), h0, t_max=1.0)
    with pytest.raises(ValueError):
        integrate(problem, MultiplierVector(1.0, [0.4]), h0, t_max=1.0)
    with pytest.raises(ValueError):
        integrate(problem, m0, h0, t_max=-1.0)
    with pytest.raises(ValueError):
        integrate(problem, m0, h0, t_max=1.0, dt=2.0)
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
    assert not commutator_tensor(problem.basis, problem.forbidden).any()
    sol = shoot(problem, h0, m0, t_max=3.0)
    h0, m0 = sol.H0, sol.multipliers0
    traj = integrate(problem, m0, h0, t_max=3.0)
    assert np.all(traj.lambda0 == m0.lambda0)
    assert np.all(traj.lambdas == m0.lambdas)
    np.testing.assert_array_equal(traj.tau_acc, traj.times / m0.lambda0)
    g = g_operator(m0, problem.basis, problem.forbidden)
    worst = max(
        float(np.linalg.norm(traj.V[k] - helpers.expm_herm(g, -t)))
        for k, t in enumerate(traj.times)
    )
    assert worst <= 1e-12
    assert traj.u_mismatch <= 1e-8
    report = certify(traj, Tolerances.integrated())
    failed = [k for k in POINTWISE_VERDICTS if not report.verdict[k]]
    assert not failed


def test_constant_flow_reproduces_exact_integration():
    # on the commuting su(4) set integrate samples the constant-multiplier
    # flow; constant_flow gives the same trajectory, and renormalizing it
    # rescales the multipliers but leaves the motion unchanged
    problem, h0, m0 = helpers.su4_shoot_seed(183)
    traj = integrate(problem, m0, h0, t_max=1.0, dt=1e-3)
    f0 = m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))
    flow = constant_flow(problem, m0, f0, traj.times)
    assert not flow.renormalized
    for name in ("V", "U", "H", "F", "psi"):
        gap = float(np.abs(getattr(flow, name) - getattr(traj, name)).max())
        assert gap <= 1e-13, name
    c = 2.5
    rescaled = constant_flow(problem, m0, f0, traj.times, renormalized=c)
    assert rescaled.renormalized
    np.testing.assert_array_equal(rescaled.lambda0, m0.lambda0 / c)
    for name in ("V", "U", "H", "psi"):
        gap = float(np.abs(getattr(rescaled, name) - getattr(traj, name)).max())
        assert gap <= 1e-13, name
    assert float(np.abs(rescaled.F - traj.F / c).max()) <= 1e-13


@pytest.mark.parametrize("dim", [2, 4])
def test_direct_propagators_match_sequential_rk4(dim):
    # the batched, prefix-chained cross-check channel against the plain
    # step-by-step RK4 loop it replaces, over more than one block
    rng = np.random.default_rng(dim)
    basis = build_gellmann_basis(dim)
    g = np.tensordot(rng.normal(size=dim - 1), basis.generators[-(dim - 1):], axes=1)
    f0 = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    f0 = f0 + f0.conj().T
    lam0, h = 0.8, 2e-3
    times = np.arange(dynamics._DIRECT_BLOCK + 90) * h

    def minus_ih(t):
        v = helpers.expm_herm(g, -t)
        return -1j * (v @ f0 @ v.conj().T / lam0 - g)

    u = np.eye(dim, dtype=complex)
    ref = [u]
    for t in times[:-1]:
        k1 = minus_ih(t) @ u
        k2 = minus_ih(t + h / 2) @ (u + h / 2 * k1)
        k3 = minus_ih(t + h / 2) @ (u + h / 2 * k2)
        k4 = minus_ih(t + h) @ (u + h * k3)
        u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        ref.append(u)
    got = dynamics._direct_propagators(g, f0, lam0, times)
    assert float(np.abs(got - np.array(ref)).max()) <= 1e-12


@pytest.mark.parametrize("seed", [2, 7])
def test_integrate_non_commuting_su4_is_fourth_order(seed):
    # the stepped RK4 path: U(T) error against a fine-step reference falls
    # by 2^4 when the step halves
    problem, h0, m0 = helpers.su4_shoot_seed(seed)
    assert not is_closed_subalgebra(problem.basis, problem.forbidden)[0]
    ref = integrate(problem, m0, h0, t_max=1.0, dt=0.005).U[-1]
    errs = [
        float(np.linalg.norm(integrate(problem, m0, h0, t_max=1.0, dt=dt).U[-1] - ref))
        for dt in (0.04, 0.02)
    ]
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_integrate_closed_non_abelian_su4_is_exact():
    # recipe seed 0 forbids a closed set whose generators do not commute:
    # eta vanishes along the flow, so integrate samples the exact flow in
    # one block, with constant multipliers, instead of stepping RK4
    problem, h0, m0 = helpers.su4_shoot_seed(0)
    assert commutator_tensor(problem.basis, problem.forbidden).any()
    assert is_closed_subalgebra(problem.basis, problem.forbidden)[0]
    blocks = list(dynamics.integrate_blocks(problem, m0, h0, t_max=1.0, dt=0.01))
    assert len(blocks) == 1 and blocks[0].rhs is None
    traj = integrate(problem, m0, h0, t_max=1.0, dt=0.01)
    assert np.all(traj.lambda0 == m0.lambda0)
    assert np.all(traj.lambdas == m0.lambdas)
    # the stepped system at a fine step, from the same seed, as reference
    N, M = problem.dim, problem.n_forbidden
    f0 = m0.lambda0 * (h0 + g_operator(m0, problem.basis, problem.forbidden))
    rhs = coupled_rhs(
        f0, problem.forbidden_generators(), commutator_tensor(problem.basis, problem.forbidden),
        problem.omega, direct=False,
    )
    y = pack_state(np.eye(N, dtype=complex), m0.lambda0, m0.lambdas, 0.0)
    for _ in range(1000):
        y = dynamics.rk4_step(rhs, y, 1e-3)
    V, lam0, lams, tau, _ = unpack_state(y, N, M)
    w, q = np.linalg.eigh(f0)
    u_ref = V @ (q * np.exp(-1j * w * tau)) @ q.conj().T
    assert float(np.linalg.norm(traj.U[-1] - u_ref)) <= 1e-12
    np.testing.assert_allclose(lams, m0.lambdas, atol=1e-12)


# -------------------------------------------------------------- Trajectory


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


def test_trajectory_json_file_round_trip(tmp_path):
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.1, dt=1e-3)
    path = tmp_path / "traj.json"
    path.write_text(json.dumps(traj.to_dict()))
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


@pytest.mark.parametrize("field", ["U", "psi"])
def test_trajectory_rejects_non_finite_samples(field):
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.1, dt=1e-3)
    data = traj.to_dict()
    data[field][3][0][0] = float("nan")
    with pytest.raises(ValueError):
        Trajectory.from_dict(data)


def test_trajectory_rejects_inconsistent_grid():
    problem = helpers.m1_problem(1.0)
    traj = integrate(problem, MultiplierVector(1.0, [2.5]), SY, t_max=0.1, dt=1e-3)
    data = traj.to_dict()
    data["times"] = list(reversed(data["times"]))
    with pytest.raises(ValueError):
        Trajectory.from_dict(data)
