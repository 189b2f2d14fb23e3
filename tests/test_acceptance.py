"""Acceptance gate: every stated correctness criterion, one verdict line each.

Each test prints exactly one `[k] name: PASS/FAIL (...)` line on the real
stdout (so the lines survive pytest's capture) and then asserts the criterion
at its stated tolerance.  Later criteria reuse the trajectories produced by
earlier ones; standalone runs rebuild a smaller but equivalent pool.
"""

import math
import sys
import time

import numpy as np
import pytest

import helpers
from qbrach.algebra import (
    build_gellmann_basis,
    build_pauli_string_basis,
    is_closed_subalgebra,
)
from qbrach.dynamics import MultiplierVector, Trajectory, integrate
from qbrach.solvers import (
    TWO_QUBIT_FORBIDDEN,
    m1_boundary,
    m1_trajectory,
    shoot,
    solve_free,
    solve_m1_two_level,
    solve_two_qubit_example,
    sweep_m1,
)
from qbrach.states import PureState
from qbrach.verify import (
    Tolerances,
    certify,
    chko_residual,
    equivalence_residuals,
    speed_profile,
)

# an endpoint pair whose branch enumeration yields exactly one extremal
DESIGNED_OB = 0.6732909377195485
DESIGNED_PHI = -2.953791334823616

# (renormalized lambda_1, branch index k) pairs used for branch recovery
DESIGNED_BRANCHES = [(0.005, 0), (0.005, 3), (0.012, 1), (-0.018, 2)]

# conservation and speed metrics for every trajectory produced by the gate,
# plus a bounded pool of full trajectories for the reformulation checks
STASH = {"metrics": [], "trajs": []}

_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    """Expose the capture handle so verdict lines reach the real terminal."""
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    line = f"[{num}] {name}: {tag}{suffix}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        sys.__stdout__.write(line + "\n")
        sys.__stdout__.flush()


def _record(label: str, traj: Trajectory, tol_label: str, keep: bool = False) -> None:
    w = traj.omega
    N = traj.psi.shape[1]
    quad = 2.0 * w**2 * traj.lambda0**2 + N * np.einsum(
        "km,km->k", traj.lambdas, traj.lambdas
    )
    quad_drift = float(quad.max() - quad.min()) / max(abs(float(quad[0])), 1e-300)
    eigs = np.linalg.eigvalsh(traj.F)
    _, excess = speed_profile(traj, w)
    STASH["metrics"].append(
        {
            "label": label,
            "omega": w,
            "speed_excess": excess,
            "quad_drift": quad_drift,
            "lambda0_drift": float(np.abs(traj.lambda0 - traj.lambda0[0]).max()),
            "eig_drift": float(np.abs(eigs - eigs[0]).max()),
        }
    )
    if keep:
        STASH["trajs"].append((label, traj, tol_label))


def _ensure_baseline() -> None:
    """Standalone-run fallback: a smaller pool when criteria 1-4 did not run."""
    if STASH["metrics"]:
        return
    rng = np.random.default_rng(2024)
    for i in range(14):
        n = 2 + i % 4
        sol = solve_free(helpers.random_state(rng, n), helpers.random_state(rng, n), 1.0)
        _record("free", sol.trajectory, "analytic", keep=True)
    for ob in (0.2, 0.7, math.pi / 2):
        for w in (1.0, 10.0):
            sol = solve_two_qubit_example(ob, w)
            _record("two_qubit", sol.trajectory, "analytic", keep=True)
    for sol in solve_m1_two_level(DESIGNED_OB, DESIGNED_PHI, 10.0):
        _record("branch", sol.trajectory, "analytic", keep=True)


def test_01_free_evolution_minimum_time():
    name = "free-evolution minimum time"
    try:
        rng = np.random.default_rng(11)
        sols = []
        worst_dt = worst_inf = 0.0
        t0 = time.perf_counter()
        for i in range(100):
            n = 2 + i % 4
            a = helpers.random_state(rng, n)
            b = helpers.random_state(rng, n)
            sol = solve_free(a, b, 1.0)
            omega_b = math.acos(min(1.0, abs(np.vdot(a.amplitudes, b.amplitudes))))
            worst_dt = max(worst_dt, abs(sol.T - omega_b))
            reached = sol.trajectory.U[-1] @ a.amplitudes
            worst_inf = max(worst_inf, 1.0 - abs(np.vdot(b.amplitudes, reached)))
            sols.append(sol)
        elapsed = time.perf_counter() - t0
        for i, sol in enumerate(sols):
            _record("free", sol.trajectory, "analytic", keep=i < 8)
    except Exception as exc:
        _report(1, name, False, f"(error: {exc})")
        raise
    ok = worst_dt <= 1e-10 and worst_inf <= 1e-9 and elapsed < 1.0
    _report(
        1,
        name,
        ok,
        f"(100 solves, worst |T - Omega_B/omega| {worst_dt:.2e}, "
        f"worst infidelity {worst_inf:.2e}, {elapsed:.2f}s)",
    )
    assert worst_dt <= 1e-10
    assert worst_inf <= 1e-9
    assert elapsed < 1.0


def test_02_two_qubit_restricted_transport():
    name = "restricted two-qubit transport"
    try:
        _, ket11, ket00 = helpers.two_qubit_kets()
        sols = []
        worst_t = worst_fid = worst_de = 0.0
        t0 = time.perf_counter()
        for ob in (0.2, 0.7, math.pi / 2):
            for w in (1.0, 10.0):
                sol = solve_two_qubit_example(ob, w)
                worst_t = max(worst_t, abs(sol.T - math.sqrt(2.0) * ob / w))
                # target family with phase e^{i phi}, phi = -pi/2, on the
                # initial-state amplitude; equal to the propagated endpoint
                # up to a global phase, and fidelity ignores that phase
                target = (
                    math.cos(ob) * np.exp(-0.5j * math.pi) * ket11
                    + math.sin(ob) * ket00
                )
                fid = abs(np.vdot(target, sol.trajectory.psi[-1]))
                worst_fid = max(worst_fid, 1.0 - fid)
                de, _ = speed_profile(sol.trajectory, w)
                worst_de = max(
                    worst_de, float(np.abs(de - w / math.sqrt(2.0)).max())
                )
                sols.append(sol)
        elapsed = time.perf_counter() - t0
        for sol in sols:
            _record("two_qubit", sol.trajectory, "analytic", keep=True)
    except Exception as exc:
        _report(2, name, False, f"(error: {exc})")
        raise
    ok = worst_t <= 1e-10 and worst_fid <= 1e-9 and worst_de <= 1e-9 and elapsed < 1.0
    _report(
        2,
        name,
        ok,
        f"(6 instances, worst |T - sqrt(2) Omega_B/omega| {worst_t:.2e}, worst "
        f"infidelity {worst_fid:.2e}, worst |DeltaE - omega/sqrt(2)| {worst_de:.2e}, "
        f"{elapsed:.2f}s)",
    )
    assert worst_t <= 1e-10
    assert worst_fid <= 1e-9
    assert worst_de <= 1e-9
    assert elapsed < 1.0


# the conservation-law residual above which test_03 reads its truncation
# law: 20 times the rounding floor of its differences at a step of 5e-3,
# about 5e-12
CHKO_RESOLVED = 1e-10

_SAMPLE_FIELDS = ("times", "U", "H", "F", "psi", "lambda0", "lambdas")


def _thinned(traj: Trajectory, j: int) -> Trajectory:
    """The trajectory on every j-th sample of its grid."""
    return Trajectory(**{name: getattr(traj, name)[::j] for name in _SAMPLE_FIELDS},
                      omega=traj.omega, basis=traj.basis, forbidden=traj.forbidden)


def test_03_two_level_integration_matches_closed_form():
    name = "two-level integration vs closed form"
    try:
        rng = np.random.default_rng(303)
        problem = helpers.m1_problem(1.0)
        sy = problem.basis.generators[1]
        kept = []
        worst_u = 0.0
        worst_u_fine = 0.0
        chko_pairs = []
        u_ratios = []
        t0 = time.perf_counter()
        for i in range(20):
            lam = float(rng.uniform(-5.0, 5.0))
            traj = integrate(problem, MultiplierVector(1.0, [lam]), sy, t_max=5.0, dt=1e-3)
            ref = helpers.m1_reference_u(lam, 1.0, traj.times)
            err = float(
                np.linalg.norm((traj.U - ref).reshape(traj.times.size, -1), axis=1).max()
            )
            worst_u = max(worst_u, err)
            kept.append((i, traj))
            if i < 3:
                chko_pairs.append(
                    (chko_residual(_thinned(traj, 20)), chko_residual(_thinned(traj, 10)))
                )
                fine = integrate(
                    problem, MultiplierVector(1.0, [lam]), sy, t_max=5.0, dt=5e-4
                )
                ref_f = helpers.m1_reference_u(lam, 1.0, fine.times)
                err_f = float(
                    np.linalg.norm(
                        (fine.U - ref_f).reshape(fine.times.size, -1), axis=1
                    ).max()
                )
                worst_u_fine = max(worst_u_fine, err_f)
                u_ratios.append(err / err_f)
        elapsed = time.perf_counter() - t0
        for i, traj in kept:
            _record("m1_integrated", traj, "integrated", keep=i < 3)
    except Exception as exc:
        _report(3, name, False, f"(error: {exc})")
        raise
    resolved = [coarse >= CHKO_RESOLVED for coarse, _ in chko_pairs]
    ratios_ok = all(
        56.0 <= coarse / fine <= 72.0 if res else max(coarse, fine) < CHKO_RESOLVED
        for (coarse, fine), res in zip(chko_pairs, resolved)
    )
    ok = worst_u <= 1e-7 and ratios_ok and worst_u_fine <= 1e-7 and elapsed < 10.0
    chko_txt = "/".join(f"{coarse / fine:.2f}" for coarse, fine in chko_pairs)
    u_txt = "/".join(f"{r:.1f}" for r in u_ratios)
    _report(
        3,
        name,
        ok,
        f"(20 runs, max ||U_num - U_closed||_F {worst_u:.2e}, step-halving "
        f"residual ratios {chko_txt}, propagator-error ratios {u_txt}, {elapsed:.1f}s)",
    )
    assert worst_u <= 1e-7
    # halving the step from 2e-2 to 1e-2 divides the conservation-law
    # residual by 64 (within 12.5%) where the truncation of the sixth-order
    # differencing shows above rounding (all three pairs, at 63.8-63.9, with
    # residuals from 9.4e-7 down to 2.5e-10); a pair whose flow is slow
    # enough that both residuals sit below CHKO_RESOLVED would be exempt.
    # The steps are those of the trajectory at dt = 1e-3 thinned to every
    # 20th and 10th sample: a pass's own step, 0.075/r, caps any dt, and
    # there the sixth-order truncation (about 2e-11) is at rounding.  The
    # propagator
    # error itself sits at the rounding-accumulation floor (~1e-10 over
    # 5000 steps), so its halving ratio from 1e-3 to 5e-4 is reported but
    # only bounded, not pinned to a scaling law.
    assert any(resolved)
    for (coarse, fine), res in zip(chko_pairs, resolved):
        if res:
            assert 56.0 <= coarse / fine <= 72.0
        else:
            assert max(coarse, fine) < CHKO_RESOLVED
    assert worst_u_fine <= 1e-7
    assert elapsed < 10.0


def test_04_endpoint_field_sweep_and_branches():
    name = "endpoint-field sweep and branch recovery"
    try:
        t0 = time.perf_counter()
        lt = np.linspace(-0.02, 0.02, 200)
        ts = np.linspace(0.6 / 200.0, 0.6, 200)
        fields = sweep_m1(lt, ts, omega=10.0)
        signs = np.signbit(fields["im_field"])
        crossings = int(np.count_nonzero(signs[:, 1:] != signs[:, :-1]))
        worst_re = float(np.abs(fields["re_field"] - 100.0).max()) / 100.0
        recovered = 0
        worst_dt = 0.0
        worst_on_set = 0.0
        branch_sols = []
        for lam_tilde, k in DESIGNED_BRANCHES:
            lam = lam_tilde * 100.0
            T_d = (math.pi / 4.0 + k * math.pi / 2.0) / math.hypot(10.0, lam)
            u_T = helpers.m1_reference_u(lam, 10.0, np.array([0.0, T_d]))[-1]
            ob, ph = m1_boundary(PureState(u_T @ helpers.PLUS_X.amplitudes))
            sols = solve_m1_two_level(ob, ph, 10.0)
            match = [s for s in sols if s.branch[0] == k and abs(s.T - T_d) <= 1e-9]
            if match:
                recovered += 1
                worst_dt = max(worst_dt, abs(match[0].T - T_d))
                branch_sols.append(match[0])
            for s in sols:
                lam_b = float(s.multipliers0.lambdas[0])
                if s.T <= 0.6 and abs(lam_b) <= 0.02:
                    point = sweep_m1([lam_b], [s.T], omega=10.0)
                    worst_on_set = max(
                        worst_on_set, abs(float(point["im_field"][0, 0]))
                    )
        elapsed = time.perf_counter() - t0
        for sol in branch_sols:
            _record("branch", sol.trajectory, "analytic", keep=True)
    except Exception as exc:
        _report(4, name, False, f"(error: {exc})")
        raise
    ok = (
        crossings > 0
        and worst_re <= 1e-8
        and recovered == len(DESIGNED_BRANCHES)
        and worst_on_set <= 1e-6
        and elapsed < 30.0
    )
    _report(
        4,
        name,
        ok,
        f"(200x200 grid, {crossings} zero-set sign changes, max |Re - omega^2|/omega^2 "
        f"{worst_re:.2e}, {recovered}/{len(DESIGNED_BRANCHES)} designed branches "
        f"recovered within {worst_dt:.1e}, on-set |Im|/omega^2 <= {worst_on_set:.2e}, "
        f"{elapsed:.1f}s)",
    )
    assert crossings > 0
    assert worst_re <= 1e-8
    assert recovered == len(DESIGNED_BRANCHES)
    assert worst_on_set <= 1e-6
    assert elapsed < 30.0


def test_05_speed_bound():
    name = "energy-spread speed bound"
    try:
        _ensure_baseline()
        rng = np.random.default_rng(505)
        problem2 = helpers.m1_problem(1.0)
        sy = problem2.basis.generators[1]
        all_passed = True
        t0 = time.perf_counter()
        for _ in range(10):
            lam = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.5 else -1.0)
            sol = shoot(problem2, sy, MultiplierVector(1.0, [lam]), t_max=1.0)
            all_passed = all_passed and sol.report.passed
            _record("shot_su2", sol.trajectory, "integrated", keep=True)
        for seed in range(7, 17):
            problem, h0, m0 = helpers.su4_shoot_seed(seed)
            sol = shoot(problem, h0, m0, t_max=3.0)
            all_passed = all_passed and sol.report.passed
            _record("shot_su4", sol.trajectory, "integrated", keep=True)
        elapsed = time.perf_counter() - t0
        worst = max(m["speed_excess"] / m["omega"] for m in STASH["metrics"])
        n_traj = len(STASH["metrics"])
    except Exception as exc:
        _report(5, name, False, f"(error: {exc})")
        raise
    ok = worst <= 1e-9 and all_passed and elapsed < 30.0
    _report(
        5,
        name,
        ok,
        f"({n_traj} trajectories incl. 20 shots, max (DeltaE - omega)/omega "
        f"{worst:.2e}, {elapsed:.1f}s)",
    )
    assert all_passed
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_06_conserved_quantities():
    name = "conserved quantities along flows"
    try:
        _ensure_baseline()
        worst_quad = max(m["quad_drift"] for m in STASH["metrics"])
        worst_lam0 = max(m["lambda0_drift"] for m in STASH["metrics"])
        worst_eig = max(m["eig_drift"] for m in STASH["metrics"])
        n_traj = len(STASH["metrics"])
    except Exception as exc:
        _report(6, name, False, f"(error: {exc})")
        raise
    ok = worst_quad <= 1e-8 and worst_lam0 <= 1e-9 and worst_eig <= 1e-7
    _report(
        6,
        name,
        ok,
        f"({n_traj} trajectories, quadratic-invariant drift {worst_quad:.2e}, "
        f"lambda_0 drift {worst_lam0:.2e}, F-spectrum drift {worst_eig:.2e})",
    )
    assert worst_quad <= 1e-8
    assert worst_lam0 <= 1e-9
    assert worst_eig <= 1e-7


def test_07_closure_detection():
    name = "closure detection"
    try:
        t0 = time.perf_counter()
        basis2 = build_gellmann_basis(2)
        closed_z, res_z = is_closed_subalgebra(basis2, [2])
        closed_xy, _ = is_closed_subalgebra(basis2, [0, 1])
        basis4 = build_pauli_string_basis(2)
        subset = [basis4.index_of(lbl) for lbl in TWO_QUBIT_FORBIDDEN]
        closed_11, defect_11 = is_closed_subalgebra(basis4, subset)
        elapsed = time.perf_counter() - t0
    except Exception as exc:
        _report(7, name, False, f"(error: {exc})")
        raise
    ok = (
        closed_z
        and res_z <= 1e-10
        and not closed_xy
        and closed_11
        and defect_11 <= 1e-10
        and elapsed < 1.0
    )
    if ok:
        _report(7, name, True, f"({elapsed:.2f}s)")
        return
    _report(
        7,
        name,
        False,
        f"(expected: the 11-operator two-qubit set is not closed, defect "
        f"{defect_11:.1f}; singleton and pair cases behave as required, {elapsed:.2f}s)",
    )
    # the attainable parts must still hold exactly as stated
    assert closed_z
    assert res_z <= 1e-10
    assert not closed_xy
    assert elapsed < 1.0
    # the remaining clause is mathematically unattainable: the 11-operator
    # two-qubit set is not closed under i[.,.] — e.g. i[s1y, s1x s2y] =
    # 2 s1z s2y lies outside its span (defect 4 in Frobenius norm), and
    # su(4) admits no 11-dimensional proper subalgebra at all
    assert not closed_11
    assert defect_11 == pytest.approx(4.0, abs=1e-12)
    pytest.xfail(
        "closure of the 11-operator two-qubit forbidden set cannot hold; "
        "the detector correctly reports it as not closed"
    )


def test_08_endpoint_discrimination():
    name = "off-extremal endpoint discrimination"
    try:
        traj = m1_trajectory(1.5, 0.35, 10.0, renormalize=True)
        report = certify(traj, Tolerances.analytic(), renormalized=True)
        verdict = report.verdict
        must_pass = ("traceless", "norm", "term", "chko", "initial_cond", "endpoint_re")
        locals_ok = all(verdict[key] for key in must_pass)
        flagged = not verdict["endpoint_im"]
        im_val = abs(report.endpoint_im)
    except Exception as exc:
        _report(8, name, False, f"(error: {exc})")
        raise
    ok = locals_ok and flagged
    _report(
        8,
        name,
        ok,
        f"(off-zero-set point flagged: |Im| {im_val:.6f} with constraint, "
        f"conservation and initial-condition checks all passing)",
    )
    assert flagged
    assert locals_ok
    assert im_val == pytest.approx(0.10502915367412119, abs=1e-12)


def test_09_conservation_law_reformulations():
    name = "conservation-law reformulations"
    try:
        _ensure_baseline()
        checked = 0
        worst_frac = 0.0
        for _, traj, tol_label in STASH["trajs"]:
            tol = Tolerances.analytic() if tol_label == "analytic" else Tolerances.integrated()
            if chko_residual(traj) > tol.chko:
                continue
            state_form, anti_form = equivalence_residuals(traj)
            worst_frac = max(worst_frac, max(state_form, anti_form) / tol.equivalence)
            checked += 1
        donor = next(t for (label, t, _) in STASH["trajs"] if label == "branch")
        doc = donor.to_dict()
        doc["F"] = [doc["F"][0]] * len(doc["F"])
        frozen = Trajectory.from_dict(doc)
        broken_state, _ = equivalence_residuals(frozen)
    except Exception as exc:
        _report(9, name, False, f"(error: {exc})")
        raise
    ok = checked >= 20 and worst_frac <= 1.0 and broken_state > 1e-3
    _report(
        9,
        name,
        ok,
        f"({checked} passing trajectories, both forms within tolerance "
        f"(worst at {worst_frac:.2f}x), frozen-F state-form residual "
        f"{broken_state:.1e})",
    )
    assert checked >= 20
    assert worst_frac <= 1.0
    assert broken_state > 1e-3
