"""Residual checks and the certification report."""

import dataclasses
import math

import numpy as np
import pytest

import helpers
from qbrach import verify
from qbrach.dynamics import Trajectory
from qbrach.solvers import (
    m1_trajectory,
    solve_free,
    solve_two_qubit_example,
)
from qbrach.verify import (
    Tolerances,
    certify,
    check_constraints,
    chko_residual,
    endpoint_constraint,
    equivalence_residuals,
    initial_condition_residual,
    speed_profile,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# frozen reference point for an off-extremal evaluation: the flow with
# renormalized multiplier 0.015 stopped at T = 0.35 misses the endpoint
# condition by a fixed amount while satisfying every local constraint
OFF_LAMBDA_TILDE = 0.015
OFF_T = 0.35
OFF_OMEGA = 10.0
OFF_ENDPOINT_IM = 0.10502915367412119


@pytest.fixture(scope="module")
def free_traj():
    return solve_free(helpers.KET0, helpers.KET1, omega=1.0).trajectory


@pytest.fixture(scope="module")
def m1_traj():
    # stop exactly on the first extremal branch: Lambda_1 T = pi/4
    t_branch = (math.pi / 4.0) / math.hypot(10.0, 2.5)
    return m1_trajectory(2.5, t_branch, 10.0, renormalize=True)


@pytest.fixture(scope="module")
def off_traj():
    lam1 = OFF_LAMBDA_TILDE * OFF_OMEGA**2
    return m1_trajectory(lam1, OFF_T, OFF_OMEGA, renormalize=True)


# ------------------------------------------------------------- constraints


def test_constraints_on_free_trajectory(free_traj):
    traceless, norm, term = check_constraints(free_traj, free_traj.omega)
    assert traceless <= 1e-10
    assert norm <= 1e-10
    assert term == 0.0


def test_constraints_detect_forbidden_component(m1_traj):
    eps = 0.01
    data = m1_traj.to_dict()
    for k in range(len(data["times"])):
        data["H"][k][0][0][0] += eps
        data["H"][k][1][1][0] -= eps
    tampered = Trajectory.from_dict(data)
    traceless, norm, term = check_constraints(tampered, tampered.omega)
    w = tampered.omega
    assert term == pytest.approx(2 * eps / w, rel=1e-9)
    assert traceless <= 1e-10
    # Tr[H'^2] = 2 w^2 + 2 eps^2 since the injected direction was orthogonal
    assert norm == pytest.approx(2 * eps**2 / (2 * w**2), rel=1e-6)


# ------------------------------------------------------------ conservation


def test_chko_residual_zero_for_constant_flow(free_traj):
    # constant F: interior differences vanish identically, only the
    # sixth-order one-sided edge stencils leave rounding-level residue
    assert chko_residual(free_traj) <= 1e-12


def test_chko_residual_has_sixth_order_truncation():
    # dF/dt is sixth order: halving the step divides the residual by 2^6.
    # On these grids the residual (1.3e-10 and 2.0e-12) is far above the
    # rounding floor (about 2e-13 at 200 steps), so the truncation law shows
    lam1, T, omega = 2.5, 0.35, 10.0
    coarse = chko_residual(helpers.m1_fixed_grid(lam1, T, omega, 50))
    fine = chko_residual(helpers.m1_fixed_grid(lam1, T, omega, 100))
    assert fine >= 1e-12
    assert 56.0 <= coarse / fine <= 72.0


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_a_document_of_fewer_than_seven_samples_is_refused(m1_traj, K):
    # seven samples are the stencil of the sixth-order differences, so a
    # document of fewer is invalid input, refused by the validation
    data = m1_traj.to_dict()
    for key in ("times", "lambda0", "lambdas", "tau_acc", "psi", "V", "U", "H", "F"):
        data[key] = data[key][:K]
    with pytest.raises(ValueError, match=f"at least 7 samples, got {K}$"):
        Trajectory.from_dict(data)


def test_interpolation_tables_are_formed_on_first_use_bit_for_bit():
    # each p's table of differencing or stage weights is formed on its
    # first use and kept, with the bits of the tables as built eagerly, at
    # every p a grid of seven samples or more takes
    eager = [
        (verify._derivative_rows, {7: verify._derivative_rows.__wrapped__(7)}),
        (verify._stage_rows, {
            p: np.array([[verify._lagrange_rows(p, o * d + n, d) for n, d in verify._STAGES]
                         for o in range(p - 1)])
            for p in (7, 8)
        }),
    ]
    for table, want in eager:
        for p, rows in want.items():
            got = table(p)
            assert got is table(p)
            assert got.shape == rows.shape and got.tobytes() == rows.tobytes(), p


def test_chko_residual_detects_frozen_conservation_law(m1_traj):
    data = m1_traj.to_dict()
    data["F"] = [data["F"][0]] * len(data["times"])
    tampered = Trajectory.from_dict(data)
    assert chko_residual(tampered) > 1e-3
    state_form, _ = equivalence_residuals(tampered)
    assert state_form > 1e-3


# -------------------------------------------------------- initial condition


def test_initial_condition_residual_values():
    assert initial_condition_residual(SZ, helpers.KET0) == pytest.approx(
        math.sqrt(2.0), rel=1e-12
    )
    assert initial_condition_residual(SX, helpers.KET0) <= 1e-15
    _, f0 = helpers.build_two_qubit_f0(1.1, -0.7, 0.3, free_lambdas={"10": 0.25, "12": 0.4})
    _, ket11, _ = helpers.two_qubit_kets()
    assert initial_condition_residual(f0, ket11) <= 1e-12


# ---------------------------------------------------------------- endpoint


def test_endpoint_constraint_on_renormalized_flows(free_traj, m1_traj):
    re, im = endpoint_constraint(free_traj.psi[-1], free_traj.H[-1], free_traj.F[-1])
    assert re == pytest.approx(1.0, abs=1e-12)
    assert abs(im) <= 1e-12
    re, im = endpoint_constraint(m1_traj.psi[-1], m1_traj.H[-1], m1_traj.F[-1])
    assert re == pytest.approx(1.0, abs=1e-10)


def test_endpoint_constraint_off_extremal_point(off_traj):
    _, im = endpoint_constraint(off_traj.psi[-1], off_traj.H[-1], off_traj.F[-1])
    assert im == pytest.approx(OFF_ENDPOINT_IM, abs=1e-12)


# ------------------------------------------------------------------- speed


def test_speed_profile_saturates_free_bound(free_traj):
    de, excess = speed_profile(free_traj, free_traj.omega)
    np.testing.assert_allclose(de, free_traj.omega, atol=1e-12)
    assert excess <= 1e-9


def test_speed_profile_two_qubit_runs_slower():
    sol = solve_two_qubit_example(0.7, 10.0)
    traj = sol.trajectory
    de, excess = speed_profile(traj, traj.omega)
    np.testing.assert_allclose(de, traj.omega / np.sqrt(2.0), atol=1e-9)
    assert excess < 0


def test_speed_efficiency_is_one_free_and_one_over_root_two_restricted(free_traj):
    # the speed theorem: the Bures angle travelled is at most omega T.  Free
    # evolution runs the geodesic at full speed; the restricted two-qubit
    # example covers its angle sqrt 2 times slower
    report = certify(free_traj, Tolerances.analytic(), renormalized=True)
    assert report.speed_efficiency == pytest.approx(1.0, abs=1e-12)
    assert report.verdict["speed_efficiency"] is True
    assert verify.speed_efficiency(free_traj) == report.speed_efficiency
    sol = solve_two_qubit_example(0.7, 10.0)
    assert sol.report.speed_efficiency == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert sol.report.verdict["speed_efficiency"] is True
    assert "speed_efficiency" in sol.report.render_table()


def test_speed_efficiency_verdict_fails_beyond_the_speed_limit(free_traj):
    # the same path labelled as covered in half the time claims twice the
    # speed limit: the efficiency reads 2 and its verdict fails
    data = free_traj.to_dict()
    data["times"] = data["times"] / 2.0
    report = certify(Trajectory.from_dict(data), Tolerances.analytic(), renormalized=True)
    assert report.speed_efficiency == pytest.approx(2.0, rel=1e-12)
    assert report.verdict["speed_efficiency"] is False


def test_speed_decomposition_identity(free_traj, m1_traj):
    assert certify(free_traj).speed_decomp_gap <= 1e-8
    assert certify(m1_traj).speed_decomp_gap <= 1e-8
    sol = solve_two_qubit_example(0.7, 10.0)
    assert sol.report.speed_decomp_gap <= 1e-8


def test_certify_builds_the_speed_profile_and_g_stack_once(m1_traj, monkeypatch):
    # DeltaE(t) and the G stack feed the speed verdicts, the decomposition
    # gap and the endpoint equivalence; certify forms each once
    calls = {"speed_profile": 0, "_g_stack": 0}
    for name in calls:

        def counted(*args, _fn=getattr(verify, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(verify, name, counted)
    certify(m1_traj)
    assert calls == {"speed_profile": 1, "_g_stack": 1}


# ------------------------------------------------------------- equivalence


def test_equivalence_residuals_on_extremal_flows(free_traj, m1_traj):
    state_form, anti_form = equivalence_residuals(free_traj)
    assert state_form <= 1e-10
    assert anti_form <= 1e-10
    state_form, anti_form = equivalence_residuals(m1_traj)
    assert state_form <= 1e-8
    assert anti_form <= 1e-8
    assert certify(m1_traj).equivalence_max == max(state_form, anti_form)


# ----------------------------------------------------------------- certify


def test_certify_passes_analytic_flows(free_traj, m1_traj):
    for traj in (free_traj, m1_traj):
        report = certify(traj, Tolerances.analytic(), renormalized=True)
        assert report.passed
        assert all(report.verdict.values())
        assert isinstance(report.verdict["chko"], bool)


def test_certify_flags_off_extremal_endpoint(off_traj):
    report = certify(off_traj, Tolerances.analytic(), renormalized=True)
    assert not report.passed
    assert report.verdict["endpoint_im"] is False
    # every local-in-time property still holds; only the stopping time is wrong
    for name in ("traceless", "norm", "term", "chko", "initial_cond", "endpoint_re"):
        assert report.verdict[name] is True
    assert report.endpoint_im == pytest.approx(OFF_ENDPOINT_IM, abs=1e-12)


def test_certify_unrenormalized_uses_floor():
    raw = m1_trajectory(2.5, 0.35, 10.0, renormalize=False)
    report = certify(raw, Tolerances.analytic(), renormalized=False)
    # the raw endpoint real part is omega^2, far above the nonzero floor
    assert report.verdict["endpoint_re"] is True
    assert report.endpoint_re == pytest.approx(raw.omega**2, rel=1e-10)


def test_certify_report_serialization_and_table(free_traj):
    report = certify(free_traj, Tolerances.analytic(), renormalized=True)
    data = report.as_dict()
    # every field in declaration order, the layout of a document's report
    assert list(data) == [
        "traceless_max",
        "norm_max",
        "term_max",
        "chko_residual",
        "initial_cond_residual",
        "endpoint_re",
        "endpoint_im",
        "speed_max_excess",
        "trf2_drift",
        "aa_identity_max",
        "eig_drift_max",
        "lambda0_drift",
        "endpoint_equiv_gap",
        "speed_decomp_gap",
        "equivalence_max",
        "u_defect",
        "speed_efficiency",
        "omega",
        "renormalized",
        "verdict",
    ]
    assert all(isinstance(v, bool) for v in data["verdict"].values())
    table = report.render_table()
    lines = table.splitlines()
    assert lines[-1].startswith("overall")
    assert lines[-1].endswith("PASS")
    names = [line.split()[0] for line in lines[:-1]]
    assert names == sorted(names)
    assert all(line.endswith(("PASS", "FAIL")) for line in lines)


def test_certify_table_marks_failures(off_traj):
    report = certify(off_traj, Tolerances.analytic(), renormalized=True)
    table = report.render_table()
    assert "endpoint_im" in table
    assert "FAIL" in table
    assert table.splitlines()[-1].endswith("FAIL")


def test_certify_flags_recorded_u_mismatch(m1_traj):
    # a document whose recorded U does not solve its own H fails the
    # u_mismatch verdict, even when it carries the old layout's stored
    # u_mismatch member claiming a clean check: certify reads only the
    # recorded times, H and U
    perp = np.array([-m1_traj.psi[0][1].conj(), m1_traj.psi[0][0].conj()])
    A = 4.0 * m1_traj.omega * np.outer(perp, perp.conj())
    drift = np.array([helpers.expm_herm(A, t / 2.0) for t in m1_traj.times])
    data = dataclasses.replace(m1_traj, U=m1_traj.U @ drift).to_dict()
    data["u_mismatch"] = 0.0
    tampered = Trajectory.from_dict(data)
    report = certify(tampered, Tolerances.analytic(), renormalized=True)
    assert report.u_defect > 0.1
    assert report.verdict["u_mismatch"] is False
    assert not report.passed


def test_certify_flags_a_u_that_does_not_solve_its_h(m1_traj):
    # U(t) e^{-iAt/2} with A supported off psi_i is unitary and carries
    # psi_i to the same psi(t), so only the check of i dU/dt = H U sees it
    assert m1_traj.to_dict().keys().isdisjoint({"u_mismatch", "u_defect"})
    report = certify(m1_traj, Tolerances.analytic(), renormalized=True)
    assert report.passed and report.u_defect <= 1e-8
    perp = np.array([-m1_traj.psi[0][1].conj(), m1_traj.psi[0][0].conj()])
    A = 4.0 * m1_traj.omega * np.outer(perp, perp.conj())
    drift = np.array([helpers.expm_herm(A, t / 2.0) for t in m1_traj.times])
    tampered = dataclasses.replace(m1_traj, U=m1_traj.U @ drift)
    assert float(np.abs(tampered.U - m1_traj.U).max()) > 0.1
    report = certify(tampered, Tolerances.analytic(), renormalized=True)
    assert report.u_defect > 0.1
    assert report.verdict["u_mismatch"] is False
    assert not report.passed
