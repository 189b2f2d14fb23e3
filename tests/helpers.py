"""Shared builders for the test suite: random states, reference propagators,
the dense commutator stack, seeded shooting problems and the restricted
two-qubit example's general F(0)."""

import itertools
import math

import numpy as np

from qbrach import dynamics
from qbrach.algebra import CLOSURE_TOL, build_gellmann_basis, build_pauli_string_basis
from qbrach.dynamics import ControlProblem, MultiplierVector
from qbrach.states import PureState

SQ2 = 1.0 / np.sqrt(2.0)
PLUS_X = PureState([SQ2, SQ2])
MINUS_X = PureState([SQ2, -SQ2])
KET0 = PureState([1.0, 0.0])
KET1 = PureState([0.0, 1.0])


def expm_herm(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition."""
    w, q = np.linalg.eigh(h)
    return (q * np.exp(-1j * w * t)) @ q.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """i[A, B], Hermitian for Hermitian A, B."""
    return 1j * (a @ b - b @ a)


def commutator_tensor(basis, subset) -> np.ndarray:
    """Stack K[j, l] = i[X_j, X_l] over the pairs of a subset, exactly antisymmetric."""
    idx = [basis.index_of(j) for j in subset]
    M, N = len(idx), basis.dim
    K = np.zeros((M, M, N, N), dtype=complex)
    for p in range(M):
        for q in range(p + 1, M):
            c = commutator(basis.generators[idx[p]], basis.generators[idx[q]])
            K[p, q] = c
            K[q, p] = -c
    return K


def dense_closure(basis, subset):
    """(closed, worst residual) from the projection of every pair's commutator
    onto the subset's span, the reference `is_closed_subalgebra` must match."""
    idx = [basis.index_of(j) for j in subset]
    gens, K = basis.generators[idx], commutator_tensor(basis, idx)
    coeff = np.real(np.einsum("mij,pqji->pqm", gens, K)) / basis.dim
    resid = K - np.einsum("pqm,mij->pqij", coeff, gens)
    worst = float(np.linalg.norm(resid, axis=(2, 3)).max())
    return worst <= CLOSURE_TOL, worst


def rk6_reference(rhs, y: np.ndarray, h: float, k1: np.ndarray) -> np.ndarray:
    """One step of Butcher's sixth-order method with its seven stages written
    out by hand, each row of the tableau over its common denominator: the
    reference `dynamics.rk6_step` must match."""
    k2 = rhs(y + (h / 3.0) * k1)
    k3 = rhs(y + (h / 1.5) * k2)
    k4 = rhs(y + (h / 12.0) * (k1 + 4.0 * k2 - k3))
    k5 = rhs(y + (h / 16.0) * (18.0 * k2 - k1 - 3.0 * k3 - 6.0 * k4))
    k6 = rhs(y + (h / 8.0) * (9.0 * k2 - 3.0 * k3 - 6.0 * k4 + 4.0 * k5))
    k7 = rhs(y + (h / 44.0) * (9.0 * k1 - 36.0 * k2 + 63.0 * k3 + 72.0 * k4 - 64.0 * k6))
    return y + (h / 120.0) * (11.0 * (k1 + k7) + 81.0 * (k3 + k4) - 32.0 * (k5 + k6))


def hermite_rows_reference(smp, times: np.ndarray):
    """(V, lambda_j) of a stepped pass's dense output at `times`, with the
    Hermite weights formed node by node in a double loop over the four
    stencil nodes: the reference `PassSamples.rows_at` must match."""
    N, n, p, h = smp.V.shape[1], smp.n_steps, 4, smp.times[1]
    n2 = N * N
    k = np.clip(np.searchsorted(smp.times, times, side="right") - 1, 0, n - 1)
    start = np.clip(k - 1, 0, n + 1 - p)
    s = (smp.times[start[:, None] + np.arange(p)] - smp.times[start, None]) / h
    d = ((times - smp.times[start]) / h)[:, None] - s
    near = start + np.argmin(np.abs(d), axis=1)
    V0, lams0 = smp.V[near], smp.lambdas[near]
    dV, dlams = np.zeros_like(V0), np.zeros_like(lams0)
    for j in range(p):
        L2, dL = 1.0, 0.0
        for i in range(p):
            if i != j:
                L2 = L2 * (d[:, i] / (s[:, j] - s[:, i])) ** 2
                dL = dL + 1.0 / (s[:, j] - s[:, i])
        a = (1.0 - 2.0 * dL * d[:, j]) * L2
        b = h * d[:, j] * L2
        f = smp.slopes[start + j]
        dV += a[:, None, None] * (smp.V[start + j] - V0)
        dV += b[:, None, None] * f[:, :n2].reshape(-1, N, N)
        dlams += a[:, None] * (smp.lambdas[start + j] - lams0) + b[:, None] * f[:, n2:].real
    return V0 + dV, lams0 + dlams


def random_state(rng: np.random.Generator, n: int) -> PureState:
    amp = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState(amp / np.linalg.norm(amp))


def ket(n: int, k: int) -> PureState:
    amp = np.zeros(n, dtype=complex)
    amp[k] = 1.0
    return PureState(amp)


def m1_reference_u(lambda1: float, omega: float, times: np.ndarray) -> np.ndarray:
    """exp[i lambda1 sz t] exp[-i (omega sy + lambda1 sz) t] per sample."""
    basis = build_gellmann_basis(2)
    f0 = omega * basis.generators[1] + lambda1 * basis.generators[2]
    w, q = np.linalg.eigh(f0)
    out = np.empty((times.size, 2, 2), dtype=complex)
    for k, t in enumerate(times):
        v = np.diag([np.exp(1j * lambda1 * t), np.exp(-1j * lambda1 * t)])
        out[k] = v @ (q * np.exp(-1j * w * t)) @ q.conj().T
    return out


def m1_problem(omega: float, psi_f: PureState = None) -> ControlProblem:
    """Two-level problem with sigma_z forbidden, started from |+x>."""
    return ControlProblem(
        basis=build_gellmann_basis(2),
        psi_i=PLUS_X,
        omega=omega,
        forbidden=(2,),
        psi_f=psi_f,
    )


def m1_fixed_grid(lambda1: float, T: float, omega: float, n_steps: int):
    """`solvers.m1_trajectory`'s flow, not renormalized, on the grid of
    `n_steps` equal steps of [0, T] in place of its certified one."""
    problem = m1_problem(omega)
    times = np.linspace(0.0, T, n_steps + 1)
    rows = dynamics._constant_rows(problem, MultiplierVector(1.0, [lambda1]), times)
    f0 = omega * problem.basis.generators[1] + lambda1 * problem.basis.generators[2]
    return dynamics.finalize_trajectory(problem, times, rows, f0)


def complete_pass(problem: ControlProblem, m0: MultiplierVector, h0, t_max: float, dt=None):
    """The last block of `integrate_blocks`: the complete pass that `integrate` finalizes,
    with the frame V and gauge time tau that a trajectory does not keep."""
    *_, smp = dynamics.integrate_blocks(problem, m0, h0, t_max, dt)
    return smp


def own_step(problem: ControlProblem, h0: np.ndarray, m0: MultiplierVector) -> float:
    """The own step of a pass of the seed (h0, m0): `_STEP_PER_RATE`/r, r = `_pass_rate`."""
    G, F0 = dynamics._seed_operators(problem, m0, h0)
    return dynamics._STEP_PER_RATE / dynamics._pass_rate(G, F0, m0.lambda0)


def grid_refusal(t_max: float, step: float) -> str:
    """The head of `_grid`'s refusal of [0, t_max] at steps of at most `step`."""
    return f"[0, {t_max:g}] at steps of at most {step:.4g} needs {math.ceil(t_max / step)} steps"


def su4_shoot_seed(seed: int, omega: float = 1.0):
    """A reproducible 4-level shooting instance: 3 random forbidden
    directions, a random allowed-span seed Hamiltonian at the right norm and
    moderate random seed multipliers.

    At omega = 1 this is the recipe of `perfbench/inputs.su4_problem`, kept
    as a copy so the tests do not import the benchmark: recipe seeds 183
    and 197 draw the commuting diagonal set (12, 13, 14), the others a
    non-commuting one."""
    rng = np.random.default_rng(seed)
    basis = build_gellmann_basis(4)
    forbidden = tuple(sorted(rng.choice(15, size=3, replace=False).tolist()))
    psi_i = random_state(rng, 4)
    problem = ControlProblem(
        basis=basis, psi_i=psi_i, omega=omega, forbidden=forbidden, psi_f=None
    )
    allowed = [m for m in range(15) if m not in forbidden]
    coef = rng.normal(size=len(allowed))
    h0 = np.einsum("m,mij->ij", coef, basis.generators[allowed])
    h0 *= np.sqrt(2.0) * omega / np.sqrt(np.real(np.einsum("ab,ba->", h0, h0)))
    m0 = MultiplierVector(1.0, rng.normal(size=3) * 0.5)
    return problem, h0, m0


def four_qubit_chain_set():
    """Indices, in the 4-qubit Pauli-string basis, of every string of
    weight >= 3 and every two-body string between sites that are not
    neighbours on the open chain: M = 216 of su(16)."""
    subset = []
    for code, word in enumerate(itertools.product(range(4), repeat=4)):
        sites = np.flatnonzero(word)
        if sites.size >= 3 or (sites.size == 2 and sites[1] - sites[0] > 1):
            subset.append(code - 1)
    return subset


def chain_shoot_seed(seed: int):
    """A reproducible shooting instance on the 4-qubit chain set at omega =
    1: a random initial state, a random allowed-span seed Hamiltonian at
    the right norm and small random seed multipliers."""
    rng = np.random.default_rng(seed)
    basis = build_pauli_string_basis(4)
    forbidden = tuple(four_qubit_chain_set())
    problem = ControlProblem(
        basis=basis, psi_i=random_state(rng, 16), omega=1.0, forbidden=forbidden
    )
    allowed = [m for m in range(basis.size) if m not in forbidden]
    h0 = np.einsum("m,mij->ij", rng.normal(size=len(allowed)), basis.generators[allowed])
    h0 *= np.sqrt(2.0) / np.sqrt(np.real(np.einsum("ab,ba->", h0, h0)))
    return problem, h0, MultiplierVector(1.0, rng.normal(size=len(forbidden)) * 0.05)


def two_qubit_kets():
    """(basis, |11>, |00>) in the two-qubit Pauli-string convention."""
    basis = build_pauli_string_basis(2)
    ket11 = np.zeros(4, dtype=complex)
    ket11[3] = 1.0
    ket00 = np.zeros(4, dtype=complex)
    ket00[0] = 1.0
    return basis, ket11, ket00


def build_two_qubit_f0(mu22, mu23, mu32, free_lambdas=None, omega=None):
    """Initial (H0, F0) for the two-qubit problem with both locals forbidden:
    the reference for the paper's linear relations among the multipliers.

    H(0) = mu22 s2s2 + mu23 s2s3 + mu32 s3s2 (the mu33 coefficient must
    vanish), subject to mu22^2 + mu23^2 + mu32^2 = omega^2/2.  F(0) adds
    the multiplier terms with the linear relations that enforce the
    first-row/column structure in the {|11>, |00>, |10>, |01>} frame:
    lambda_20 = -mu23, lambda_02 = -mu32, lambda_11 = -mu22,
    lambda_13 = -lambda_10, lambda_31 = -lambda_01, lambda_21 = lambda_12,
    lambda_30 = lambda_03 = 0.  The remaining multipliers ("10", "01",
    "12") are free and default to zero.  `solve_two_qubit_example` takes
    the seed with mu23 = mu32 = 0 and every free multiplier zero.
    """
    norm_sq = mu22**2 + mu23**2 + mu32**2
    if norm_sq <= 0.0:
        raise ValueError("all mu coefficients vanish")
    if omega is not None and abs(norm_sq - omega**2 / 2.0) > 1e-10 * omega**2:
        raise ValueError(f"mu22^2 + mu23^2 + mu32^2 = {norm_sq!r} != omega^2/2")
    free = {"10": 0.0, "01": 0.0, "12": 0.0}
    unknown = set(free_lambdas or ()) - set(free)
    if unknown:
        raise ValueError(f"unknown free multipliers {sorted(unknown)}")
    free.update(free_lambdas or {})
    basis = build_pauli_string_basis(2)

    def gen(word: str) -> np.ndarray:
        label = "".join(
            f"σ{site + 1}{'¹²³'[int(ch) - 1]}" for site, ch in enumerate(word) if ch != "0"
        )
        return basis.generators[basis.index_of(label)]

    H0 = mu22 * gen("22") + mu23 * gen("23") + mu32 * gen("32")
    lam = {
        "10": free["10"],
        "20": -mu23,
        "30": 0.0,
        "01": free["01"],
        "02": -mu32,
        "03": 0.0,
        "11": -mu22,
        "12": free["12"],
        "21": free["12"],
        "13": -free["10"],
        "31": -free["01"],
    }
    F0 = H0 + sum(v * gen(k) for k, v in lam.items())
    return H0, F0
