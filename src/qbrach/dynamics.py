"""Coupled dynamics of time-extremal quantum evolution.

The unknowns are the frame V(t) obeying dV/dt = iG(t)V(t) and the Lagrange
multipliers lambda_0 (energy normalization) and lambda_j (one per forbidden
direction).  lambda_0 is constant along the flow, so the gauge time is
tau = t/lambda_0.  The optimal Hamiltonian is never integrated; it is
reassembled algebraically at every instant,

    H(t) = V(t) F(0) V(t)^dag / lambda_0 - G(t),
    G(t) = sum_j (lambda_j(t)/lambda_0) X_j,

and the conserved operator is obtained by conjugation, F(t) = U F(0) U^dag
= V F(0) V^dag, which keeps its spectrum exactly fixed.  The propagator is
U(t) = V(t) exp(-i F(0) tau(t)).  A direct RK4 integration of
i dU/dt = H U is the one cross-check, of either flow: H at each step's
ends is the trajectory's own, and H at its midpoint comes from the pass
(`PassSamples.rows_at`).  It is built after the pass on the grid a
trajectory is sampled on, never carried in the stepped state.

When the forbidden set is closed under i[.,.] (every i[X_j, X_l] in its
span, e.g. commuting generators or at most one) eta vanishes along the
flow and the multipliers stay constant.  The flow is then closed-form:
G is constant and V(t) = exp(iGt).  `_constant_rows` samples this flow
on any grid, for the analytic solvers' trajectories and for
`exact_pass`, the pass of it that `integrate` and both root-searching
solvers take; `finalize_trajectory` turns any rows, of either flow, into
a validated `Trajectory`.  The commutator tensor of the forbidden set is
built only for that closure test.  Other forbidden sets are stepped with
fixed-step RK4: one step function (`rk4_step`) on one right-hand side
(`stepped_rhs`), whose state is (V, lambda_j).  `integrate_blocks`
yields the samples at each re-unitarization checkpoint, so a caller such
as `shoot` can stop a pass early, and `PassSamples.at` evaluates a pass
at any batch of times, one RK4 step from the sample to the left of each.

The multiplier equations

    d(lambda_j)/dt = (1/N) sum_l eta_jl lambda_l,  eta_jl = Tr[H i[X_j, X_l]],

are written once, inside `stepped_rhs`, through the identity
sum_l eta_jl lambda_l = Tr[X_j i[G, F]]; d(lambda_0)/dt, which vanishes by
the antisymmetry of eta, is evaluated there only as a guard.  Outside that
per-step hot path every G = sum_j c_j X_j is contracted by
`algebra.forbidden_sum`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .algebra import (
    CLOSURE_TOL,
    GeneratorBasis,
    basis_of,
    closure_residual,
    commutator_tensor,
    forbidden_sum,
    stack_product,
)
from .states import PureState
from .verify import _constraint_profiles, speed_profile

__all__ = [
    "ControlProblem",
    "MultiplierVector",
    "Trajectory",
    "SingularGaugeError",
    "g_operator",
    "integrate",
]


class SingularGaugeError(ArithmeticError):
    """lambda_0 reached zero: H = V F(0) V^dag / lambda_0 - G is singular."""


@dataclass(frozen=True)
class ControlProblem:
    """Problem statement: basis, boundary states, energy scale, forbidden set.

    `forbidden` entries may be given as basis indices or labels; they are
    resolved and stored as an ordered index tuple.  `allowed` is the
    complement, in basis order.  psi_f is absent in shooting mode.
    """

    basis: GeneratorBasis
    psi_i: PureState
    omega: float
    forbidden: Tuple[int, ...] = ()
    psi_f: Optional[PureState] = None
    allowed: Tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        w = float(self.omega)
        # omega^2 and 1/omega^2 are normal floats exactly when 2^-1022 <= omega^2 <= 2^1022
        if not (0 < w < math.inf and sys.float_info.min <= w * w <= 1.0 / sys.float_info.min):
            raise ValueError(
                f"energy scale omega must be positive and finite, with omega^2 and "
                f"1/omega^2 normal floats, got {self.omega}"
            )
        if self.psi_i.dim != self.basis.dim:
            raise ValueError(
                f"psi_i dimension {self.psi_i.dim} != basis dimension {self.basis.dim}"
            )
        if self.psi_f is not None and self.psi_f.dim != self.basis.dim:
            raise ValueError(
                f"psi_f dimension {self.psi_f.dim} != basis dimension {self.basis.dim}"
            )
        idx = tuple(self.basis.index_of(j) for j in self.forbidden)
        if len(set(idx)) != len(idx):
            raise ValueError("forbidden set contains duplicate generators")
        object.__setattr__(self, "forbidden", idx)
        allowed = tuple(i for i in range(self.basis.size) if i not in set(idx))
        if self.allowed is not None and tuple(self.allowed) != allowed:
            raise ValueError("allowed set must be the complement of the forbidden set")
        object.__setattr__(self, "allowed", allowed)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def n_forbidden(self) -> int:
        return len(self.forbidden)

    def forbidden_generators(self) -> np.ndarray:
        return self.basis.generators[list(self.forbidden)]


@dataclass(frozen=True)
class MultiplierVector:
    """Lagrange multipliers (lambda_0, lambda_j) with j indexed like `forbidden`."""

    lambda0: float
    lambdas: np.ndarray

    def __post_init__(self):
        lam0 = float(self.lambda0)
        lams = np.array(self.lambdas, dtype=float).ravel()
        if not (math.isfinite(lam0) and np.all(np.isfinite(lams))):
            raise ValueError(f"multipliers must be finite, got lambda0={lam0}, lambdas={lams}")
        lams.setflags(write=False)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "lambda0", lam0)

    @property
    def size(self) -> int:
        return self.lambdas.size


def _as_pairs(a: np.ndarray) -> list:
    """Complex array -> nested lists of [re, im] pairs (row-major)."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _from_pairs(data) -> np.ndarray:
    """Nested lists of [re, im] pairs -> complex array; any other shape is a ValueError."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ValueError(f"expected an array of [re, im] pairs, got shape {arr.shape}")
    return np.ascontiguousarray(arr).view(complex)[..., 0]


# the largest unitarity drift |U^dag U - 1| (Frobenius) a trajectory may
# have; a stepped pass holds its frame V to the same bound at every
# checkpoint, so the samples it yields pass the validation
_UNITARITY_TOL = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """Sampled extremal evolution on a uniform-in-construction time grid.

    All matrix stacks are sample-major: V[k] is the frame at times[k], etc.
    `lambdas` has one column per forbidden index (possibly zero columns).
    `renormalized` records whether the multipliers (and with them F) have
    been rescaled so the endpoint constraint evaluates to 1 rather than to
    a generic nonzero real value.  `u_mismatch` is the recorded maximum
    Frobenius gap between U from the frame factorization and U from the
    direct cross-check propagation of i dU/dt = H U.  `F_spectrum` holds
    the eigenvalues of every F sample, computed once by the validation.
    """

    times: np.ndarray
    V: np.ndarray
    U: np.ndarray
    H: np.ndarray
    F: np.ndarray
    psi: np.ndarray
    lambda0: np.ndarray
    lambdas: np.ndarray
    tau_acc: np.ndarray
    omega: float
    basis: GeneratorBasis
    forbidden: Tuple[int, ...]
    renormalized: bool = False
    u_mismatch: float = 0.0
    F_spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        K = times.size
        N = self.basis.dim
        M = len(self.forbidden)
        stacks = {}
        for name, shape in (
            ("V", (K, N, N)),
            ("U", (K, N, N)),
            ("H", (K, N, N)),
            ("F", (K, N, N)),
            ("psi", (K, N)),
        ):
            arr = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            stacks[name] = arr
        lam0 = np.asarray(self.lambda0, dtype=float).ravel()
        lams = np.asarray(self.lambdas, dtype=float).reshape(K, M)
        tau = np.asarray(self.tau_acc, dtype=float).ravel()
        if lam0.size != K or tau.size != K:
            raise ValueError("multiplier/tau arrays must match the time grid length")
        if K > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("time grid must be strictly increasing")
        U = stacks["U"]
        uni = stack_product(U.conj().swapaxes(-1, -2), U) - np.eye(N)
        uni_err = float(np.sqrt(np.abs(np.einsum("kij,kij->k", uni, uni.conj()))).max())
        if not uni_err <= _UNITARITY_TOL:
            raise ValueError(f"U is not unitary on the grid: max drift {uni_err:.3e}")
        prop = stacks["psi"] - np.einsum("kab,b->ka", U, stacks["psi"][0])
        prop_err = float(np.linalg.norm(prop, axis=1).max())
        if not prop_err <= 1e-8:
            raise ValueError(
                f"psi(t) != U(t) psi(0) on the grid: max gap {prop_err:.3e}"
            )
        eigs = np.linalg.eigvalsh(stacks["F"])
        spec_tol = 1e-7 * max(1.0, float(np.abs(eigs[0]).max()))
        spec_err = float(np.abs(eigs - eigs[0]).max())
        if not spec_err <= spec_tol:
            raise ValueError(
                f"F(t) is not isospectral to F(0): max eigenvalue drift {spec_err:.3e}"
            )
        for arr in (times, lam0, lams, tau, eigs, *stacks.values()):
            arr.setflags(write=False)
        object.__setattr__(self, "F_spectrum", eigs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "lambda0", lam0)
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "tau_acc", tau)
        for name, arr in stacks.items():
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "forbidden", tuple(int(j) for j in self.forbidden))

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.basis.dim

    def multipliers(self, k: int) -> MultiplierVector:
        return MultiplierVector(lambda0=self.lambda0[k], lambdas=self.lambdas[k])

    def forbidden_generators(self) -> np.ndarray:
        return self.basis.generators[list(self.forbidden)]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "dimension": self.dim,
            "omega": self.omega,
            "basis": self.basis.kind,
            "forbidden": [self.basis.labels[j] for j in self.forbidden],
            "renormalized": self.renormalized,
            "u_mismatch": self.u_mismatch,
            "times": self.times.tolist(),
            "lambda0": self.lambda0.tolist(),
            "lambdas": self.lambdas.tolist(),
            "tau_acc": self.tau_acc.tolist(),
            "psi": _as_pairs(self.psi),
            "V": _as_pairs(self.V),
            "U": _as_pairs(self.U),
            "H": _as_pairs(self.H),
            "F": _as_pairs(self.F),
        }

    @staticmethod
    def from_dict(data: dict) -> "Trajectory":
        basis = basis_of(str(data["basis"]), int(data["dimension"]))
        forbidden = tuple(basis.index_of(j) for j in data["forbidden"])
        return Trajectory(
            times=np.asarray(data["times"], dtype=float),
            V=_from_pairs(data["V"]),
            U=_from_pairs(data["U"]),
            H=_from_pairs(data["H"]),
            F=_from_pairs(data["F"]),
            psi=_from_pairs(data["psi"]),
            lambda0=np.asarray(data["lambda0"], dtype=float),
            lambdas=np.asarray(data["lambdas"], dtype=float).reshape(
                len(data["times"]), len(forbidden)
            ),
            tau_acc=np.asarray(data["tau_acc"], dtype=float),
            omega=float(data["omega"]),
            basis=basis,
            forbidden=forbidden,
            renormalized=bool(data.get("renormalized", False)),
            u_mismatch=float(data.get("u_mismatch", 0.0)),
        )

    def to_csv(self, path: str) -> None:
        """Plot-ready table: t, multipliers, energy spread, constraint residuals."""
        de, _ = speed_profile(self, self.omega)
        traceless, norm_resid, term = _constraint_profiles(self, self.omega)
        cols = [self.times, self.lambda0]
        names = ["t", "lambda0"]
        for c, j in enumerate(self.forbidden):
            cols.append(self.lambdas[:, c])
            names.append(f"lambda_{self.basis.labels[j]}")
        cols += [de, traceless, norm_resid, term]
        names += ["delta_e", "resid_traceless", "resid_norm", "resid_term_max"]
        table = np.column_stack(cols)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(names) + "\n")
            for row in table:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


# -- pointwise assembly ----------------------------------------------------


def g_operator(m: MultiplierVector, basis: GeneratorBasis, forbidden: Sequence[int]) -> np.ndarray:
    """G = sum_j (lambda_j/lambda_0) X_j over the forbidden directions."""
    if m.lambda0 == 0.0:
        raise SingularGaugeError(
            "lambda_0 vanished; G = sum_j (lambda_j/lambda_0) X_j is undefined"
        )
    idx = [basis.index_of(j) for j in forbidden]
    if len(idx) != m.size:
        raise ValueError(
            f"multiplier vector has {m.size} entries for {len(idx)} forbidden directions"
        )
    return forbidden_sum(m.lambdas / m.lambda0, basis.generators[idx])


# -- trajectory synthesis --------------------------------------------------


def constant_g_frames(G: np.ndarray, times: np.ndarray) -> np.ndarray:
    """V(t) = e^{iGt} on a batch of times via one eigensplit (none when G = 0)."""
    if not G.any():
        return np.broadcast_to(np.eye(G.shape[0], dtype=complex), (times.size, *G.shape)).copy()
    w, Q = np.linalg.eigh(G)
    return stack_product(Q * np.exp(1.0j * np.outer(times, w))[:, None, :], Q.conj().T)


# steps per block of the direct cross-check propagation, and rows per
# batched RK4 step of `PassSamples.rows_at`; both bound the temporaries to a
# few blocks of matrices whatever the window length
_DIRECT_BLOCK = 512
_AT_BLOCK = 1024

# maps per chunk of the prefix product `_chained`
_SCAN_CHUNK = 8


def _chained(P: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """out[k] = P[k] P[k-1] ... P[0] carry over a stack P of N x N maps.

    A work-efficient prefix product (Blelloch, CMU-CS-90-190, 1990): the
    maps of each chunk of `_SCAN_CHUNK` are chained in place, the chunk
    totals are chained the same way from `carry`, and one product per map
    applies the chain of the chunks before it.  That is about two products
    per map, where a Hillis-Steele scan takes log2 of the length.
    """
    n, N = P.shape[0], P.shape[-1]
    if n <= _SCAN_CHUNK:
        out = np.empty((n, N, N), dtype=complex)
        for k in range(n):
            carry = out[k] = stack_product(P[k], carry)
        return out
    c = -(-n // _SCAN_CHUNK)
    W = np.empty((c * _SCAN_CHUNK, N, N), dtype=complex)
    W[:n] = P
    W[n:] = np.eye(N)  # identities pad the last chunk
    W = W.reshape(c, _SCAN_CHUNK, N, N)
    for j in range(1, _SCAN_CHUNK):
        W[:, j] = stack_product(W[:, j], W[:, j - 1])
    carries = np.empty((c, N, N), dtype=complex)
    carries[0] = carry
    carries[1:] = _chained(W[:-1, -1], carry)
    return stack_product(W, carries[:, None]).reshape(-1, N, N)[:n]


def _direct_propagators(
    times: np.ndarray,
    ends: Callable[[slice], np.ndarray],
    mids: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """RK4 solution of i dU/dt = H U on `times`, from U(0) = 1.

    `ends(r)` is -iH at times[r] and `mids(t)` is -iH at an array of times,
    here the midpoints of the steps, both in one fixed frame (the result is
    in that frame).  Each step's RK4 map is built as a batch and the maps
    are chained by a prefix product (`_chained`), block by block.  Nothing
    here uses U = V exp(-i F(0) tau).
    """
    n = times.size - 1
    out = None
    for a in range(0, n, _DIRECT_BLOCK):
        b = min(a + _DIRECT_BLOCK, n)
        t = times[a : b + 1]
        A, Am = ends(slice(a, b + 1)), mids(0.5 * (t[:-1] + t[1:]))
        if out is None:
            eye = np.eye(A.shape[-1])
            out = np.empty((n + 1, *eye.shape), dtype=complex)
            out[0] = eye
        h = np.diff(t)[:, None, None]
        k1 = A[:-1]
        k2 = stack_product(Am, eye + 0.5 * h * k1)
        k3 = stack_product(Am, eye + 0.5 * h * k2)
        k4 = stack_product(A[1:], eye + h * k3)
        P = eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out[a + 1 : b + 1] = _chained(P, out[a])
    return out


def _observables(
    problem: ControlProblem,
    V: np.ndarray,
    lambda0: np.ndarray,
    lambdas: np.ndarray,
    tau_acc: np.ndarray,
    F0: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U, F, H, psi) on a stack of frame samples; see finalize_trajectory."""
    w_eig, Q = np.linalg.eigh(F0)
    expF = stack_product(Q * np.exp(-1.0j * np.outer(tau_acc, w_eig))[:, None, :], Q.conj().T)
    U = stack_product(V, expF)
    F, H = _hamiltonians(problem, V, lambda0, lambdas, F0)
    psi = np.einsum("kab,b->ka", U, problem.psi_i.amplitudes)
    return U, F, H, psi


def _hamiltonians(
    problem: ControlProblem,
    V: np.ndarray,
    lambda0: np.ndarray,
    lambdas: np.ndarray,
    F0: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(F, H) on a stack of frame samples: F = V F(0) V^dag, H = F/lambda_0 - G."""
    F = stack_product(stack_product(V, F0), V.conj().swapaxes(-1, -2))
    H = F / lambda0[:, None, None] - forbidden_sum(
        lambdas / lambda0[:, None], problem.forbidden_generators()
    )
    return F, H


def finalize_trajectory(
    problem: ControlProblem,
    times: np.ndarray,
    rows: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    F0: np.ndarray,
    renormalized: Optional[float] = None,
    U_direct: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> Trajectory:
    """The validated trajectory of the frame rows (V, lambda_0, lambda_j, tau).

    U(t) = V(t) exp(-i F(0) tau(t)) via one eigendecomposition of F(0);
    F(t) = V F(0) V^dag (identical to U F(0) U^dag since F(0) commutes with
    its own exponential); H(t) = F(t)/lambda_0(t) - G(t); psi = U psi_i.
    A `renormalized` value c divides the multipliers and F(0) and
    multiplies tau, which leaves V, U and H unchanged, and marks the
    trajectory renormalized.  `U_direct`, when given, maps the H samples to
    the cross-check propagator on `times`; `u_mismatch` is its largest
    Frobenius gap to U.
    """
    times = np.asarray(times, dtype=float)
    V, lam0, lams, tau = rows
    if renormalized is not None:
        c = renormalized
        lam0, lams, tau, F0 = lam0 / c, lams / c, tau * c, F0 / c
    # own copies of a stepped pass's strided views, not its whole state array
    V = np.ascontiguousarray(V, dtype=complex)
    lams = np.ascontiguousarray(lams, dtype=float)
    U, F, H, psi = _observables(problem, V, lam0, lams, tau, F0)
    u_mismatch = 0.0
    if U_direct is not None:
        u_mismatch = float(np.linalg.norm((U - U_direct(H)).reshape(times.size, -1), axis=1).max())
    return Trajectory(
        times=times, V=V, U=U, H=H, F=F, psi=psi, lambda0=lam0, lambdas=lams, tau_acc=tau,
        omega=problem.omega, basis=problem.basis, forbidden=problem.forbidden,
        renormalized=renormalized is not None, u_mismatch=u_mismatch,
    )


def _constant_rows(
    problem: ControlProblem, m: MultiplierVector, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(V, lambda_0, lambda_j, tau) of the constant-multiplier flow on `times`:
    V = e^{iGt} with G = g_operator(m) and tau = t/lambda_0."""
    V = constant_g_frames(g_operator(m, problem.basis, problem.forbidden), times)
    lams = np.repeat(m.lambdas[None, :], times.size, axis=0)
    return V, np.full(times.size, m.lambda0), lams, times / m.lambda0


def _validate_h0(problem: ControlProblem, H0: np.ndarray, tol: float = 1e-8) -> None:
    w = problem.omega
    if H0.shape != (problem.dim, problem.dim):
        raise ValueError(f"H0 has shape {H0.shape}, expected square of dim {problem.dim}")
    if not np.all(np.isfinite(H0)):
        raise ValueError("H0 has non-finite entries")
    herm = float(np.linalg.norm(H0 - H0.conj().T)) / max(1.0, float(np.linalg.norm(H0)))
    if herm > 1e-10:
        raise ValueError(f"H0 is not Hermitian (relative deviation {herm:.3e})")
    tr = abs(complex(np.trace(H0))) / w
    if tr > tol:
        raise ValueError(f"H0 violates Tr[H] = 0: |Tr H0|/omega = {tr:.3e}")
    nrm = abs(float(np.real(np.einsum("ab,ba->", H0, H0))) - 2 * w**2) / (2 * w**2)
    if nrm > tol:
        raise ValueError(
            f"H0 violates the energy normalization Tr[H^2] = 2 omega^2 "
            f"(relative residual {nrm:.3e})"
        )
    for j in problem.forbidden:
        x = problem.basis.generators[j]
        t = abs(float(np.real(np.einsum("ab,ba->", H0, x)))) / w
        if t > tol:
            raise ValueError(
                f"H0 violates the forbidden-direction constraint "
                f"Tr[H X] = 0 for X = {problem.basis.labels[j]}: |Tr|/omega = {t:.3e}"
            )


def stepped_rhs(
    F0: np.ndarray,
    Xf: np.ndarray,
    lambda0: float,
    omega: float,
):
    """Right-hand side of the stepped frame/multiplier system.

    A state is a row concatenating V (N*N entries) and the lambda_j; the
    right-hand side takes a single state or a stack of them along leading
    axes.  lambda_0 is constant and tau = t/lambda_0, so neither is
    stepped, and the cross-check U_d is not part of the state.  With
    G = sum_l (lambda_l/lambda_0) X_l and F = V F(0) V^dag, [G, H] =
    [G, F]/lambda_0 gives

        sum_l eta_jl lambda_l = Tr[X_j i[G, F]] = 2 Re Tr[X_j (iG V) F(0) V^dag],

    which reuses dV/dt = iG V and costs one contraction with the
    transposed forbidden generators `Xf`.  d(lambda_0)/dt =
    -lambda.(eta lambda)/(2 omega^2 lambda_0) vanishes by the antisymmetry
    of eta; it is evaluated for every row of every call as a guard.
    """
    N = F0.shape[0]
    M = Xf.shape[0]
    n2 = N * N
    iXf2 = Xf.reshape(M, n2) * (1.0j / lambda0)
    # (iG F).ravel() @ XfT2 = (2/N) Tr[X_j iG F], whose real part is d(lambda_j)/dt
    XfT2 = (np.ascontiguousarray(Xf.transpose(0, 2, 1)).reshape(M, n2) * (2.0 / N)).T
    dlam0_per = -N / (2.0 * omega**2 * lambda0)

    def rhs(y: np.ndarray) -> np.ndarray:
        lead = y.shape[:-1]
        V = y[..., :n2].reshape(lead + (N, N))
        lams = y[..., n2:].real
        iG = (lams @ iXf2).reshape(lead + (N, N))
        dV = iG @ V
        FV = F0 @ V.conj().swapaxes(-1, -2)  # F = V FV
        dlams = ((dV @ FV).reshape(lead + (n2,)) @ XfT2).real
        if y.ndim == 1:  # one state, the per-step hot path: float arithmetic
            dlam0 = float(lams @ dlams) * dlam0_per
            bad = abs(dlam0) > 1e-9 * omega * (1.0 + float(lams @ lams) / omega**2)
        else:
            dlam0 = (lams * dlams).sum(-1) * dlam0_per
            bad = (abs(dlam0) > 1e-9 * omega * (1.0 + (lams * lams).sum(-1) / omega**2)).any()
        if bad:
            raise ArithmeticError(
                "the contraction sum_jl lambda_j lambda_l eta_jl must vanish by antisymmetry "
                f"of eta, but d(lambda_0)/dt = {float(np.abs(dlam0).max()):.3e}"
            )
        return np.concatenate((dV.reshape(lead + (n2,)), dlams), axis=-1)

    return rhs


def rk4_step(rhs, y: np.ndarray, h) -> np.ndarray:
    """One classical RK4 step of dy/dt = rhs(y) of size h.

    On a stack of states h may be a column of step sizes, one per row.
    """
    half = 0.5 * h
    k1 = rhs(y)
    k2 = rhs(y + half * k1)
    k3 = rhs(y + half * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


# steps between the re-unitarization checkpoints of the stepped path
_CHECK_EVERY = 100

# the most steps of one integration pass, a halving restart included
_MAX_SAMPLES = 200_000


class PassSamples(NamedTuple):
    """Rows [0, m) of one integration pass on its uniform grid.

    `n_steps` counts the steps of the whole window [0, t_max], so the pass
    is complete when there are n_steps + 1 rows.  `start` is the first row
    that is new since the previous block of the same pass; 0 opens a pass
    (the first one, or a restart at half the step).  `F0` is F(0).  `rhs`
    is a stepped pass's `stepped_rhs`, None on the exact flow.  A pass is
    defined at any time of its window (`rows_at`, `at`), and so is the
    cross-check U_d on any grid of it (`direct`).
    """

    times: np.ndarray
    V: np.ndarray
    lambda0: np.ndarray
    lambdas: np.ndarray
    tau_acc: np.ndarray
    F0: np.ndarray
    n_steps: int
    start: int
    rhs: Optional[Callable[[np.ndarray], np.ndarray]]

    def rows_at(self, problem: ControlProblem, times) -> Tuple[np.ndarray, ...]:
        """(V, lambda_0, lambda_j, tau) at each of `times` in the window.

        A constant-multiplier pass takes its exact flow.  A stepped pass
        takes, for each time t, one RK4 step of size t - t_k from the
        sample t_k just left of t (of size 0 on a sample): a dense output
        of the pass, evaluated for a block of times in one batch.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        lam0 = self.lambda0[0]
        if self.rhs is None:
            return _constant_rows(problem, MultiplierVector(lam0, self.lambdas[0]), times)
        N = problem.dim
        n2 = N * N
        k = np.searchsorted(self.times, times, side="right") - 1
        k = np.clip(k, 0, self.times.size - 2)
        V = np.empty((times.size, N, N), dtype=complex)
        lams = np.empty((times.size, problem.n_forbidden))
        for a in range(0, times.size, _AT_BLOCK):
            r = slice(a, a + _AT_BLOCK)
            left = k[r]
            y = np.concatenate((self.V[left].reshape(-1, n2), self.lambdas[left]), axis=1)
            y = rk4_step(self.rhs, y, (times[r] - self.times[left])[:, None])
            V[r] = y[:, :n2].reshape(-1, N, N)
            lams[r] = y[:, n2:].real
        lam0s = np.full(times.size, lam0)
        return V, lam0s, lams, times / lam0s

    def at(self, problem: ControlProblem, times):
        """(U, F, H, psi) at each of `times` (one time or an array) as stacks."""
        return _observables(problem, *self.rows_at(problem, times), self.F0)

    def direct(self, problem: ControlProblem, times: np.ndarray) -> Callable:
        """The cross-check: H on `times` -> U_d there, from U_d(0) = 1.

        U_d solves i dU/dt = H U by RK4 on the grid (`_direct_propagators`),
        -iH at each step's ends from the given H samples and at its midpoint
        from F/lambda_0 - G on the `rows_at` rows there (no U, psi or
        eigendecomposition), on the stepped and the exact flow alike.
        """

        def mids(t: np.ndarray) -> np.ndarray:
            V, lam0, lams, _ = self.rows_at(problem, t)
            return -1.0j * _hamiltonians(problem, V, lam0, lams, self.F0)[1]

        return lambda H: _direct_propagators(times, lambda r: -1.0j * H[r], mids)

    def trajectory(self, problem: ControlProblem) -> Trajectory:
        """The validated trajectory on the pass's own rows; `u_mismatch` is
        measured against the cross-check `direct` on the same grid."""
        rows = (self.V, self.lambda0, self.lambdas, self.tau_acc)
        direct = self.direct(problem, self.times)
        return finalize_trajectory(problem, self.times, rows, self.F0, None, direct)


def exact_pass(
    problem: ControlProblem, m0: MultiplierVector, H0: np.ndarray, t_max: float,
    dt: Optional[float] = None,
) -> PassSamples:
    """The constant-multiplier flow of the seed (H0, m0) on [0, t_max] as one pass.

    The uniform grid resolves the flow's fastest rate, 2 (rho(G) +
    rho(F(0))/|lambda_0|) with rho the spectral radius: 4/pi steps per
    unit of rate times t_max and at least 400, or steps of `dt` where
    those are finer.  A window the rate rule gives more than 50,000 steps
    is a ValueError: it is refused, not thinned.
    """
    G = g_operator(m0, problem.basis, problem.forbidden)
    F0 = m0.lambda0 * (H0 + G)
    g_rad, f_rad = (float(np.abs(np.linalg.eigvalsh(A)).max()) for A in (G, F0))
    rate = 2.0 * (g_rad + f_rad / abs(m0.lambda0))
    n = max(400, math.ceil(t_max * rate * 4.0 / math.pi))
    if n > 50_000:
        raise ValueError(
            f"the window t_max = {t_max:g} needs {n} root-scan samples at this "
            "seed's rates, more than 50000; shorten t_max"
        )
    if dt is not None:
        n = max(n, math.ceil(t_max / dt - 1e-12))
    times = np.linspace(0.0, t_max, n + 1)
    return PassSamples(times, *_constant_rows(problem, m0, times), F0, n, 0, None)


def integrate_blocks(
    problem: ControlProblem,
    m0: MultiplierVector,
    H0: np.ndarray,
    t_max: float,
    dt: Optional[float] = None,
) -> Iterator[PassSamples]:
    """The samples of `integrate`, yielded as they grow.

    A stepped pass yields at every re-unitarization checkpoint (every
    `_CHECK_EVERY` steps) once the frame-drift check there has passed, and
    once more when it is complete, so every yielded row but those of the
    final partial segment has passed a drift check, as in `integrate`.  A
    pass that restarts at half the step is abandoned, and the next yield
    opens the new pass with `start == 0`.  The exact path (a closed
    forbidden set) yields its complete window at once (`exact_pass`).  A
    caller may stop iterating at any block.  No cross-check is carried: it
    is built after the pass, on the grid a trajectory is sampled on
    (`PassSamples.direct`).

    A pass takes at most `_MAX_SAMPLES` steps: a finer `dt` is a
    ValueError, and a halving restart that would need more an
    ArithmeticError.
    """
    H0 = np.asarray(H0, dtype=complex)
    _validate_h0(problem, H0)
    lam0 = m0.lambda0
    if lam0 == 0.0:
        raise SingularGaugeError("lambda_0(0) = 0 is a singular gauge")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    w = problem.omega
    if dt is None:
        dt = 1e-3 / w
    if not 0 < dt <= t_max:
        raise ValueError(f"dt must lie in (0, t_max], got {dt}")
    n_steps = max(1, math.ceil(t_max / dt - 1e-12))
    if n_steps > _MAX_SAMPLES:
        raise ValueError(
            f"dt = {dt:g} needs {n_steps} steps over t_max = {t_max:g}, more than "
            f"{_MAX_SAMPLES}; use a coarser step"
        )

    Xf = problem.forbidden_generators()
    if closure_residual(Xf, commutator_tensor(problem.basis, problem.forbidden)) <= CLOSURE_TOL:
        yield exact_pass(problem, m0, H0, t_max, dt)
        return

    M = problem.n_forbidden
    F0 = lam0 * (H0 + g_operator(m0, problem.basis, problem.forbidden))
    N = problem.dim
    n2 = N * N
    rhs = stepped_rhs(F0, Xf, lam0, w)
    y0 = np.concatenate((np.eye(N, dtype=complex).ravel(), m0.lambdas))
    while True:
        step = t_max / n_steps
        times = np.arange(n_steps + 1) * step
        times[-1] = t_max
        ys = np.empty((n_steps + 1, n2 + M), dtype=complex)
        lam0s = np.full(n_steps + 1, lam0)
        taus = times / lam0

        def rows(m: int, start: int) -> PassSamples:
            return PassSamples(
                times[:m], ys[:m, :n2].reshape(m, N, N), lam0s[:m], ys[:m, n2:].real,
                taus[:m], F0, n_steps, start, rhs,
            )

        y = ys[0] = y0
        start = 0
        for i in range(1, n_steps + 1):
            y = rk4_step(rhs, y, step)
            if i % _CHECK_EVERY == 0:
                V = y[0:n2].reshape(N, N)
                drift = float(np.linalg.norm(V.conj().T @ V - np.eye(N)))
                if not drift <= _UNITARITY_TOL:
                    break
                uu, _, vt = np.linalg.svd(V)
                y[0:n2] = (uu @ vt).ravel()
            ys[i] = y
            if i % _CHECK_EVERY == 0 and i < n_steps:
                yield rows(i + 1, start)
                start = i + 1
        else:
            yield rows(n_steps + 1, start)
            return
        # the frame drifted: the whole pass restarts at half the step
        dt /= 2.0
        n_steps = max(1, math.ceil(t_max / dt - 1e-12))
        if n_steps > _MAX_SAMPLES:
            raise ArithmeticError(
                f"frame unitarity drifted beyond {_UNITARITY_TOL:g} at step size "
                f"{step:.3e}, and halving it needs {n_steps} steps, more than "
                f"{_MAX_SAMPLES}"
            )


def integrate(
    problem: ControlProblem,
    m0: MultiplierVector,
    H0: np.ndarray,
    t_max: float,
    dt: Optional[float] = None,
) -> Trajectory:
    """Sample the coupled frame/multiplier system on a uniform grid.

    The grid has n = ceil(t_max/dt) steps and ends exactly at t_max.  F(0)
    is fixed once from the seed, F(0) = lambda_0(0) (H0 + G(0)), and only
    conjugated afterwards.

    Exact path (eta = 0: a forbidden set closed under i[.,.], decided
    from the commutator tensor): the multipliers and G are constant,
    V(t) = exp(iGt) comes from one eigendecomposition of G and
    tau = t/lambda_0.  Its grid (`exact_pass`) has more steps than
    ceil(t_max/dt) where the flow's rates need them.

    Stepped path (a forbidden set that is not closed): fixed-step RK4
    (`rk4_step` on `stepped_rhs`) on the vector concatenating V and the
    lambda_j; lambda_0 is constant and tau = t/lambda_0.  V is
    re-unitarized every 100 steps by polar projection; if its unitarity has
    drifted beyond the validation's 1e-8 at such a checkpoint the whole
    integration restarts at half the step (never past `_MAX_SAMPLES`
    steps), preserving a uniform grid.
    `integrate_blocks` yields the same samples checkpoint by checkpoint.

    On either path the cross-check U_d (i dU_d/dt = H U_d) is propagated
    with RK4 on the same grid after the pass, from H at the samples and at
    the half steps (`PassSamples.direct`); `u_mismatch` is its largest gap
    to U.
    """
    for samples in integrate_blocks(problem, m0, H0, t_max, dt):
        pass
    return samples.trajectory(problem)
