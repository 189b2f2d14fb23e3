"""Coupled dynamics of time-extremal quantum evolution.

The unknowns are the frame V(t) obeying dV/dt = iG(t)V(t), the Lagrange
multipliers lambda_0 (energy normalization) and lambda_j (one per forbidden
direction), and the accumulated gauge time tau with dtau/dt = 1/lambda_0.
The optimal Hamiltonian is never integrated; it is reassembled
algebraically at every instant,

    H(t) = V(t) F(0) V(t)^dag / lambda_0(t) - G(t),
    G(t) = sum_j (lambda_j(t)/lambda_0(t)) X_j,

and the conserved operator is obtained by conjugation, F(t) = U F(0) U^dag
= V F(0) V^dag, which keeps its spectrum exactly fixed.  The propagator is
U(t) = V(t) exp(-i F(0) tau(t)); a direct integration of i dU/dt = H U is
carried along purely as a cross-check channel.

When the forbidden set is closed under i[.,.] (every i[X_j, X_l] in its
span, e.g. commuting generators or at most one) eta vanishes along the
flow and the multipliers stay constant.  The flow is then closed-form:
G is constant, V(t) = exp(iGt) and tau(t) = t/lambda_0.  `constant_flow`
is the one sampler of this flow, for `integrate` on a closed set and for
every analytic solver.  Other forbidden sets are stepped with fixed-step
RK4: one step function (`rk4_step`) on one right-hand side
(`coupled_rhs`).  `integrate_blocks` yields the samples at each
re-unitarization checkpoint, so a caller such as `shoot` can stop a pass
early, and `PassSamples.at` evaluates a pass at any one time.

The multiplier equations

    d(lambda_j)/dt = (1/N) sum_l eta_jl lambda_l,  eta_jl = Tr[H i[X_j, X_l]],

and d(lambda_0)/dt, which vanishes by the antisymmetry of eta, are written
once, inside `coupled_rhs`.  Outside that per-step hot path the solvers
contract every G = sum_j c_j X_j with `forbidden_sum`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .algebra import CLOSURE_TOL, GeneratorBasis, basis_of, closure_residual, commutator_tensor
from .states import PureState
from .verify import _constraint_profiles, speed_profile

__all__ = [
    "ControlProblem",
    "MultiplierVector",
    "Trajectory",
    "SingularGaugeError",
    "constant_flow",
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
        if not 0 < self.omega < math.inf:
            raise ValueError(f"energy scale omega must be positive and finite, got {self.omega}")
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
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1.0j * arr[..., 1]


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
        uni = np.einsum("kji,kjl->kil", U.conj(), U) - np.eye(N)
        uni_err = float(np.sqrt(np.abs(np.einsum("kij,kij->k", uni, uni.conj()))).max())
        if not uni_err <= 1e-8:
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


def forbidden_sum(coeffs: np.ndarray, Xf: np.ndarray) -> np.ndarray:
    """sum_j coeffs[..., j] X_j over a stack Xf of forbidden generators.

    G = forbidden_sum(lambdas / lambda0, Xf); a leading sample axis on
    `coeffs` gives a stack of G.  An empty stack gives zero matrices.
    """
    return np.tensordot(coeffs, Xf, axes=1)


def g_operator(m: MultiplierVector, basis: GeneratorBasis, forbidden: Sequence[int]) -> np.ndarray:
    """G = sum_j (lambda_j/lambda_0) X_j over the forbidden directions."""
    if abs(m.lambda0) < 1e-12:
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
    phases = np.exp(1.0j * np.outer(times, w))
    return np.einsum("ab,kb,cb->kac", Q, phases, Q.conj())


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched product of small matrices, one broadcast term per inner index.

    On stacks of 2x2 matrices this is about five times faster than
    np.matmul, whose cost is dominated by a per-matrix overhead; at 4x4
    the two are about even.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


# steps per block of the direct cross-check propagation; bounds its
# temporaries to a few blocks of matrices whatever the window length
_DIRECT_BLOCK = 512


def _direct_propagators(
    G: np.ndarray, F0: np.ndarray, lam0: float, times: np.ndarray
) -> np.ndarray:
    """RK4 solution of i dU/dt = H U on `times` for the constant-G flow.

    H(t) = e^{iGt} F(0) e^{-iGt}/lambda_0 - G is evaluated from the exact
    frames at t_k, t_k + h/2 and t_{k+1}; each step's RK4 map is built as
    a batch and the maps are chained by a prefix product, block by block.
    The work happens in the eigenbasis of G, where H(t) is F(0) with phased
    entries minus a diagonal.  Nothing here uses U = V exp(-i F(0) tau).
    """
    w, Q = np.linalg.eigh(G)
    N = w.size
    eye = np.eye(N)
    Ft = (Q.conj().T @ F0 @ Q) / lam0
    W = np.diag(w)

    def minus_ih(t: np.ndarray) -> np.ndarray:
        ph = np.exp(1.0j * np.outer(t, w))
        return -1.0j * (ph[:, :, None] * Ft * ph.conj()[:, None, :] - W)

    n = times.size - 1
    out = np.empty((n + 1, N, N), dtype=complex)
    out[0] = eye
    for a in range(0, n, _DIRECT_BLOCK):
        b = min(a + _DIRECT_BLOCK, n)
        t = times[a : b + 1]
        h = np.diff(t)[:, None, None]
        A = minus_ih(t)
        Am = minus_ih(0.5 * (t[:-1] + t[1:]))
        k1 = A[:-1]
        k2 = _bmm(Am, eye + 0.5 * h * k1)
        k3 = _bmm(Am, eye + 0.5 * h * k2)
        k4 = _bmm(A[1:], eye + h * k3)
        P = eye + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        s = 1
        while s < P.shape[0]:
            P[s:] = _bmm(P[s:], P[:-s])
            s *= 2
        out[a + 1 : b + 1] = _bmm(P, out[a])
    return _bmm(_bmm(Q, out), Q.conj().T)


def _observables(
    basis: GeneratorBasis,
    forbidden: Tuple[int, ...],
    psi_i: PureState,
    V: np.ndarray,
    lambda0: np.ndarray,
    lambdas: np.ndarray,
    tau_acc: np.ndarray,
    F0: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U, F, H, psi) on a stack of frame samples; see finalize_trajectory."""
    w_eig, Q = np.linalg.eigh(F0)
    phases = np.exp(-1.0j * np.outer(tau_acc, w_eig))
    expF = np.einsum("ab,kb,cb->kac", Q, phases, Q.conj())
    U = V @ expF
    F = V @ F0 @ np.conj(np.transpose(V, (0, 2, 1)))
    G = forbidden_sum(lambdas / lambda0[:, None], basis.generators[list(forbidden)])
    H = F / lambda0[:, None, None] - G
    psi = np.einsum("kab,b->ka", U, psi_i.amplitudes)
    return U, F, H, psi


def finalize_trajectory(
    *,
    basis: GeneratorBasis,
    forbidden: Tuple[int, ...],
    omega: float,
    psi_i: PureState,
    times: np.ndarray,
    V: np.ndarray,
    lambda0: np.ndarray,
    lambdas: np.ndarray,
    tau_acc: np.ndarray,
    F0: np.ndarray,
    U_direct: Optional[np.ndarray] = None,
    renormalized: bool = False,
    u_mismatch: float = 0.0,
) -> Trajectory:
    """Derive the full sampled trajectory from the integrated frame data.

    U(t) = V(t) exp(-i F(0) tau(t)) via one eigendecomposition of F(0);
    F(t) = V F(0) V^dag (identical to U F(0) U^dag since F(0) commutes with
    its own exponential); H(t) = F(t)/lambda_0(t) - G(t); psi = U psi_i.
    `u_mismatch` is recorded as given unless `U_direct` is passed, in
    which case it is measured against U.
    """
    times = np.asarray(times, dtype=float)
    V = np.asarray(V, dtype=complex)
    U, F, H, psi = _observables(basis, forbidden, psi_i, V, lambda0, lambdas, tau_acc, F0)
    if U_direct is not None:
        u_mismatch = float(
            np.linalg.norm((U - U_direct).reshape(times.size, -1), axis=1).max()
        )
    return Trajectory(
        times=times,
        V=V,
        U=U,
        H=H,
        F=F,
        psi=psi,
        lambda0=lambda0,
        lambdas=lambdas,
        tau_acc=tau_acc,
        omega=omega,
        basis=basis,
        forbidden=forbidden,
        renormalized=renormalized,
        u_mismatch=u_mismatch,
    )


def _constant_rows(
    problem: ControlProblem,
    m: MultiplierVector,
    times: np.ndarray,
    renormalized: Optional[float] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(V, lambda_0, lambda_j, tau) of the constant-multiplier flow on `times`.

    V = e^{iGt} with G = g_operator(m) and tau = t/lambda_0, both in the
    gauge of m; a `renormalized` value c then divides the multipliers and
    multiplies tau, which leaves V, U and H unchanged.
    """
    V = constant_g_frames(g_operator(m, problem.basis, problem.forbidden), times)
    lam0, lams, tau = m.lambda0, m.lambdas, times / m.lambda0
    if renormalized is not None:
        lam0, lams, tau = lam0 / renormalized, lams / renormalized, tau * renormalized
    return V, np.full(times.size, lam0), np.repeat(lams[None, :], times.size, axis=0), tau


def constant_flow(
    problem: ControlProblem,
    m: MultiplierVector,
    F0: np.ndarray,
    times: np.ndarray,
    renormalized: Optional[float] = None,
) -> Trajectory:
    """The validated trajectory of the constant-multiplier flow on `times`.

    This is the exact flow whenever eta vanishes along it (a closed
    forbidden subalgebra, pairwise commuting or at most one forbidden
    generator): V(t) = e^{iGt}, G = sum_j (lambda_j/lambda_0) X_j, constant
    multipliers, tau = t/lambda_0 and U(t) = V(t) e^{-i F(0) tau}.  `m` and
    F(0) are given in one gauge; `renormalized`, when given, is the value
    c of Re<psi|HF|psi> in that gauge, and the multipliers and F(0) are
    divided by c so the trajectory is marked renormalized.
    """
    times = np.asarray(times, dtype=float)
    V, lam0, lams, tau = _constant_rows(problem, m, times, renormalized)
    return finalize_trajectory(
        basis=problem.basis,
        forbidden=problem.forbidden,
        omega=problem.omega,
        psi_i=problem.psi_i,
        times=times,
        V=V,
        lambda0=lam0,
        lambdas=lams,
        tau_acc=tau,
        F0=F0 if renormalized is None else F0 / renormalized,
        renormalized=renormalized is not None,
    )


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


def coupled_rhs(
    F0: np.ndarray,
    Xf: np.ndarray,
    Kten: np.ndarray,
    omega: float,
    direct: bool = True,
):
    """Right-hand side of the coupled frame/multiplier system on a flat state.

    The state concatenates V (N*N entries), lambda_0, the lambda_j, tau and,
    when `direct`, the cross-check propagator U_d (N*N entries, i dU_d/dt =
    H U_d).  `Xf` stacks the forbidden generators and `Kten` is their
    `commutator_tensor` (all zero when at most one is forbidden).
    """
    N = F0.shape[0]
    M = Xf.shape[0]
    n2 = N * N
    Xf2 = Xf.reshape(M, n2)
    i_lam0 = n2
    sl_lams = slice(n2 + 1, n2 + 1 + M)
    i_tau = n2 + 1 + M
    size = i_tau + 1 + (n2 if direct else 0)
    inv2w2 = 1.0 / (2.0 * omega**2)

    def rhs(y: np.ndarray) -> np.ndarray:
        V = y[0:n2].reshape(N, N)
        lam0 = y[i_lam0].real
        if abs(lam0) < 1e-10:
            raise SingularGaugeError(
                "lambda_0 crossed zero during integration; the gauge is singular"
            )
        lams = y[sl_lams].real
        inv_lam0 = 1.0 / lam0
        # the dot that np.tensordot(lams * inv_lam0, Xf, axes=1) reduces to,
        # without its Python overhead: the same bits
        G = np.dot((lams * inv_lam0)[None, :], Xf2).reshape(N, N)
        H = (V @ F0 @ V.conj().T) * inv_lam0 - G
        k = np.empty(size, dtype=complex)
        eta = np.einsum("jlab,ba->jl", Kten, H).real
        etalam = eta @ lams
        dlam0 = -float(lams @ etalam) * inv2w2 * inv_lam0
        guard = 1e-9 * omega * (1.0 + float(lams @ lams) / omega**2)
        if abs(dlam0) > guard:
            raise ArithmeticError(
                "the contraction sum_jl lambda_j lambda_l eta_jl must vanish "
                f"by antisymmetry of eta, but d(lambda_0)/dt = {dlam0:.3e}"
            )
        k[0:n2] = (1.0j * (G @ V)).ravel()
        k[i_lam0] = dlam0
        k[sl_lams] = etalam / N
        k[i_tau] = inv_lam0
        if direct:
            Ud = y[i_tau + 1 :].reshape(N, N)
            k[i_tau + 1 :] = (-1.0j * (H @ Ud)).ravel()
        return k

    return rhs


def rk4_step(rhs, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = rhs(y) of size h."""
    half = 0.5 * h
    k1 = rhs(y)
    k2 = rhs(y + half * k1)
    k3 = rhs(y + half * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def pack_state(V: np.ndarray, lambda0: float, lambdas: np.ndarray, tau: float) -> np.ndarray:
    """The flat state of `coupled_rhs` without the cross-check channel."""
    return np.concatenate((V.ravel(), [lambda0], lambdas, [tau])).astype(complex)


def unpack_state(y: np.ndarray, N: int, M: int):
    """(V, lambda_0, lambda_j, tau, U_d) of a flat state; U_d may be empty."""
    n2 = N * N
    return (
        y[0:n2].reshape(N, N),
        y[n2].real,
        y[n2 + 1 : n2 + 1 + M].real,
        y[n2 + 1 + M].real,
        y[n2 + 2 + M :],
    )


# steps between the re-unitarization checkpoints of the stepped path
_CHECK_EVERY = 100


class PassSamples(NamedTuple):
    """Rows [0, m) of one integration pass on its uniform grid.

    `n_steps` counts the steps of the whole window [0, t_max], so the pass
    is complete when there are n_steps + 1 rows.  `start` is the first row
    that is new since the previous block of the same pass; 0 opens a pass
    (the first one, or a restart at half the step).  `F0` is F(0).
    `U_direct` (the cross-check channel) may be None.  `rhs` is a stepped
    pass's `coupled_rhs` without that channel, None on the exact flow.
    """

    times: np.ndarray
    V: np.ndarray
    lambda0: np.ndarray
    lambdas: np.ndarray
    tau_acc: np.ndarray
    U_direct: Optional[np.ndarray]
    F0: np.ndarray
    n_steps: int
    start: int
    rhs: Optional[Callable[[np.ndarray], np.ndarray]]

    def at(self, problem: ControlProblem, t: float):
        """(U, F, H, psi) at one time t of the window, as one-row stacks.

        A constant-multiplier pass takes its exact flow at t; a stepped
        pass takes one RK4 step from the sample just left of t.
        """
        if self.rhs is None:
            m = MultiplierVector(self.lambda0[0], self.lambdas[0])
            rows = _constant_rows(problem, m, np.array([t]))
        else:
            k = int(np.searchsorted(self.times, t, side="right") - 1)
            k = min(max(k, 0), self.times.size - 2)
            h = t - float(self.times[k])
            y = pack_state(self.V[k], self.lambda0[k], self.lambdas[k], self.tau_acc[k])
            if h > 0:
                y = rk4_step(self.rhs, y, h)
            V, lam0, lams, tau, _ = unpack_state(y, problem.dim, problem.n_forbidden)
            rows = (V[None], np.array([lam0]), lams[None], np.array([tau]))
        return _observables(problem.basis, problem.forbidden, problem.psi_i, *rows, self.F0)

    def trajectory(self, problem: ControlProblem, rows: Optional[int] = None) -> Trajectory:
        """The validated trajectory over the first `rows` rows (default: all)."""
        r = slice(0, rows)
        return finalize_trajectory(
            basis=problem.basis,
            forbidden=problem.forbidden,
            omega=problem.omega,
            psi_i=problem.psi_i,
            times=self.times[r],
            V=self.V[r],
            lambda0=self.lambda0[r],
            lambdas=self.lambdas[r],
            tau_acc=self.tau_acc[r],
            F0=self.F0,
            U_direct=self.U_direct[r],
        )


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
    forbidden set) yields its complete window at once.  A caller may stop
    iterating at any block.
    """
    H0 = np.asarray(H0, dtype=complex)
    _validate_h0(problem, H0)
    if m0.size != problem.n_forbidden:
        raise ValueError(
            f"multiplier vector length {m0.size} != forbidden set size {problem.n_forbidden}"
        )
    if abs(m0.lambda0) < 1e-10:
        raise SingularGaugeError("lambda_0(0) = 0 is a singular gauge")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    w = problem.omega
    if dt is None:
        dt = 1e-3 / w
    if not 0 < dt <= t_max:
        raise ValueError(f"dt must lie in (0, t_max], got {dt}")

    M = problem.n_forbidden
    Xf = problem.forbidden_generators()
    G0 = g_operator(m0, problem.basis, problem.forbidden)
    F0 = m0.lambda0 * (H0 + G0)
    Kten = commutator_tensor(problem.basis, problem.forbidden)

    if closure_residual(Xf, Kten) <= CLOSURE_TOL:
        n_steps = max(1, math.ceil(t_max / dt - 1e-12))
        times = np.arange(n_steps + 1) * (t_max / n_steps)
        times[-1] = t_max
        U_direct = _direct_propagators(G0, F0, m0.lambda0, times)
        yield PassSamples(
            times, *_constant_rows(problem, m0, times), U_direct, F0, n_steps, 0, None
        )
        return

    N = problem.dim
    n2 = N * N
    rhs = coupled_rhs(F0, Xf, Kten, w)
    bare_rhs = coupled_rhs(F0, Xf, Kten, w, direct=False)  # for PassSamples.at
    eye = np.eye(N, dtype=complex)
    y0 = np.concatenate((pack_state(eye, m0.lambda0, m0.lambdas, 0.0), eye.ravel()))
    sign0 = 1.0 if m0.lambda0 > 0 else -1.0
    last_err: Optional[Exception] = None
    for halving in range(21):
        step = dt / (2**halving)
        n_steps = max(1, math.ceil(t_max / step - 1e-12))
        step = t_max / n_steps
        times = np.arange(n_steps + 1) * step
        times[-1] = t_max
        Vs = np.empty((n_steps + 1, N, N), dtype=complex)
        Uds = np.empty((n_steps + 1, N, N), dtype=complex)
        lam0s = np.empty(n_steps + 1)
        lamss = np.empty((n_steps + 1, M))
        taus = np.empty(n_steps + 1)

        def store(i: int, y: np.ndarray) -> None:
            Vs[i], lam0s[i], lamss[i], taus[i], Ud = unpack_state(y, N, M)
            Uds[i] = Ud.reshape(N, N)

        def rows(m: int, start: int) -> PassSamples:
            return PassSamples(
                times[:m], Vs[:m], lam0s[:m], lamss[:m], taus[:m], Uds[:m], F0, n_steps,
                start, bare_rhs,
            )

        y = y0
        store(0, y)
        start = 0
        drifted = False
        for i in range(1, n_steps + 1):
            y = rk4_step(rhs, y, step)
            if y[n2].real * sign0 <= 1e-10:
                raise SingularGaugeError(
                    "lambda_0 crossed zero during integration; the gauge is singular"
                )
            if i % _CHECK_EVERY == 0:
                V = y[0:n2].reshape(N, N)
                drift = float(np.linalg.norm(V.conj().T @ V - np.eye(N)))
                if not drift <= 1e-6:
                    drifted = True
                    break
                uu, _, vt = np.linalg.svd(V)
                y[0:n2] = (uu @ vt).ravel()
            store(i, y)
            if i % _CHECK_EVERY == 0 and i < n_steps:
                yield rows(i + 1, start)
                start = i + 1
        if drifted:
            last_err = ArithmeticError(
                f"frame unitarity drifted beyond 1e-6 at step size {step:.3e}"
            )
            continue
        yield rows(n_steps + 1, start)
        return
    raise ArithmeticError(
        "frame unitarity could not be maintained after 20 step halvings"
    ) from last_err


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
    tau = t/lambda_0.  Nothing is stepped except the cross-check U_d,
    which is propagated with RK4 on the same grid from H at the exact
    frames.

    Stepped path (a forbidden set that is not closed): fixed-step RK4
    (`rk4_step` on `coupled_rhs`) on the vector concatenating V, lambda_0,
    the lambda_j, tau and the cross-check U_d (i dU_d/dt = H U_d).  V is
    re-unitarized every 100 steps by polar projection; if its unitarity
    has drifted beyond 1e-6 at such a checkpoint the whole integration
    restarts at half the step (at most 20 halvings), preserving a uniform
    grid.  `integrate_blocks` yields the same samples checkpoint by
    checkpoint.
    """
    for samples in integrate_blocks(problem, m0, H0, t_max, dt):
        pass
    return samples.trajectory(problem)
