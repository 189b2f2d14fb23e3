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
U(t) = V(t) exp(-i F(0) tau(t)).  Nothing here propagates i dU/dt = H U:
`verify.certify` checks that equation on a trajectory's own samples.

When the forbidden set is closed under i[.,.] (every i[X_j, X_l] in its
span, e.g. commuting generators or at most one) eta vanishes along the
flow and the multipliers stay constant.  The flow is then closed-form:
G is constant and V(t) = exp(iGt).  `_constant_rows` samples this flow
on any grid, for the analytic solvers' trajectories and for
`exact_pass`, the pass of it that `integrate` and both root-searching
solvers take; `finalize_trajectory` turns any rows, of either flow, into
a validated `Trajectory`.  `algebra.is_closed_subalgebra` decides the
closure and forms no commutator.  Other forbidden sets are stepped at a
fixed step on one right-hand side (`stepped_rhs`), whose state is
(V, lambda_j): seven steps of Butcher's sixth-order Runge-Kutta method
(`rk6_step`) start a pass, and every later step is the eighth-order
Adams-Bashforth-Moulton predictor-corrector on the slopes the pass
stores, two right-hand sides a step.  Every uniform grid, of either pass or of a certified
trajectory, is `_grid`, at least `_MIN_SAMPLES` samples and at most `_MAX_SAMPLES` steps.
Either pass steps at 0.1/r, with r a bound on the flow's rates that
holds along the whole pass (`_pass_rate`), or at a given step `dt`
where that is finer (`_step_cap`).  That step holds the frame unitary
to rounding, so the frame is never projected;
`integrate_blocks` keeps the slope at every sample, checks the frame's
drift at a checkpoint every `_CHECK_STEPS` steps and yields the samples
there, so a caller such as `shoot` can stop a pass early.
`PassSamples.rows_at` evaluates a pass at any batch of times by Hermite
interpolation of four neighbouring samples and their slopes: a dense
output of the step's order, eight, that evaluates no right-hand side.

The multiplier equations

    d(lambda_j)/dt = (1/N) sum_l eta_jl lambda_l,  eta_jl = Tr[H i[X_j, X_l]],

are written once, inside `stepped_rhs`, through the identity
sum_l eta_jl lambda_l = Tr[X_j i[G, F]].  d(lambda_0)/dt, which vanishes
by the antisymmetry of eta, is evaluated only as a guard
(`_check_lambda0_rate`), on slopes already formed: at the pass's start
and drift checkpoints and at the samples a dense output interpolates.
Outside the right-hand side every G = sum_j c_j X_j is contracted by
`algebra.forbidden_sum`.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .algebra import GeneratorBasis, basis_of, forbidden_sum, is_closed_subalgebra
from .algebra import stack_product, stack_spectra
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


def _generator_stack(basis: GeneratorBasis, forbidden: Tuple[int, ...]) -> np.ndarray:
    """The read-only stack of the generators `forbidden` indexes."""
    stack = basis.generators[list(forbidden)]
    stack.setflags(write=False)
    return stack


def _energy_scale(omega) -> float:
    """omega as a float, the one check of an energy scale: a ValueError unless it is
    positive and finite with omega^2 and 1/omega^2 normal floats."""
    w = float(omega)
    # omega^2 and 1/omega^2 are normal floats exactly when 2^-1022 <= omega^2 <= 2^1022
    if not (0 < w < math.inf and sys.float_info.min <= w * w <= 1.0 / sys.float_info.min):
        raise ValueError(
            f"energy scale omega must be positive and finite, with omega^2 and "
            f"1/omega^2 normal floats, got {omega}"
        )
    return w


@dataclass(frozen=True)
class ControlProblem:
    """Problem statement: basis, boundary states, energy scale, forbidden set.

    `forbidden` entries may be given as basis indices or labels; they are
    resolved and stored as an ordered index tuple.  psi_f is absent in
    shooting mode; its closure verdict `closure` is formed on first use.
    """

    basis: GeneratorBasis
    psi_i: PureState
    omega: float
    forbidden: Tuple[int, ...] = ()
    psi_f: Optional[PureState] = None
    _forbidden_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _energy_scale(self.omega)
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
        object.__setattr__(self, "_forbidden_stack", _generator_stack(self.basis, idx))

    @property
    def dim(self) -> int:
        return self.basis.dim

    @property
    def n_forbidden(self) -> int:
        return len(self.forbidden)

    def forbidden_generators(self) -> np.ndarray:
        """The (M, N, N) stack of the forbidden generators, built once, read-only."""
        return self._forbidden_stack

    @cached_property
    def closure(self) -> Tuple[bool, float]:
        """`is_closed_subalgebra` of the forbidden set, (True, 0.0) for none."""
        return is_closed_subalgebra(self.basis, self.forbidden) if self.forbidden else (True, 0.0)


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


def _as_pairs(a: np.ndarray) -> np.ndarray:
    """Complex array -> a new float array with a trailing [re, im] axis."""
    return np.stack([a.real, a.imag], axis=-1)


def _is_number_type(kind: type) -> bool:
    """Whether a value of type `kind` is a number of a file: real, not boolean."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _file_number(value, name: str) -> float:
    """A scalar number of a problem or trajectory file as a float.

    Only a number is one: a string such as "10.0" or a boolean, which
    float() would read, is a ValueError naming the field, and so is an
    integer too large for a float.
    """
    if _is_number_type(type(value)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _whole_number(value, name: str) -> int:
    """`value` as an int; a ValueError where it has a fractional part, which int() drops."""
    number = _file_number(value, name)
    if not number.is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(number)


def _number_array(data) -> np.ndarray:
    """An array field of a file, as nested lists or an array, as a float array.

    A leaf that is not a number is a ValueError: a float conversion would
    read a string such as "0.5" or a boolean.  The nesting (lists, or
    arrays inside lists) is walked level by level, each level one flat
    list, which costs no more than NumPy's own conversion of nested lists;
    a ragged nesting or a non-numeric string keeps NumPy's own message.
    """
    if isinstance(data, np.ndarray) and data.dtype.kind in "fiu":
        return data.astype(float, copy=False)
    level, shape = [data], []
    try:
        while level and isinstance(level[0], (list, np.ndarray)):
            (size,) = set(map(len, level))  # a ValueError where the lengths differ
            shape.append(size)
            level = list(chain.from_iterable(level))
        numbers_only = all(map(_is_number_type, set(map(type, level))))
    except (TypeError, ValueError):  # a leaf beside a list, or lists of unequal length
        numbers_only = False
    if not numbers_only:
        np.asarray(data, dtype=float)  # raises for a ragged nesting or an unreadable token
        bad = next(v for v in level if not _is_number_type(type(v)))
        raise ValueError(f"expected numbers, got {bad!r}")
    return np.array(level, dtype=float).reshape(shape)


def _from_pairs(data) -> np.ndarray:
    """[re, im] pairs, as a float array or nested lists of numbers -> complex array.

    A contiguous float64 array is viewed, not copied; any other shape than
    (..., 2) or a leaf that is not a number is a ValueError.
    """
    arr = _number_array(data)
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ValueError(f"expected an array of [re, im] pairs, got shape {arr.shape}")
    return np.ascontiguousarray(arr).view(complex)[..., 0]


# the largest unitarity drift |U^dag U - 1| (Frobenius) a trajectory may
# have; a stepped pass checks its frame V against the same bound at every
# checkpoint, so the samples it yields pass the validation
_UNITARITY_TOL = 1e-8

# the fewest samples of a uniform grid: the stencil of `verify._derivative`'s
# sixth-order differences
_MIN_SAMPLES = 7

# the largest relative gap between a trajectory's step and its mean step:
# `verify.certify` differences and interpolates with fixed uniform-grid weights
_UNIFORM_TOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Sampled extremal evolution on a uniform time grid.

    All matrix stacks are sample-major: U[k] is the propagator at times[k], etc.
    `lambdas` has one column per forbidden index (possibly zero columns).
    `renormalized` records whether the multipliers (and with them F) have
    been rescaled so the endpoint constraint evaluates to 1 rather than to
    a generic nonzero real value.  `F_spectrum` holds the eigenvalues of
    every F sample, computed once by the validation (`algebra.stack_spectra`,
    in closed form at N = 2).  The validation refuses a time grid of fewer
    than `_MIN_SAMPLES` samples or not uniform to `_UNIFORM_TOL`, a U that
    is not unitary, a psi that is not U psi(0), an F whose spectrum drifts
    and a non-finite entry in any sample array or multiplier.
    """

    times: np.ndarray
    U: np.ndarray
    H: np.ndarray
    F: np.ndarray
    psi: np.ndarray
    lambda0: np.ndarray
    lambdas: np.ndarray
    omega: float
    basis: GeneratorBasis
    forbidden: Tuple[int, ...]
    renormalized: bool = False
    F_spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    _forbidden_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        K = times.size
        if K < _MIN_SAMPLES:
            raise ValueError(f"a trajectory needs at least {_MIN_SAMPLES} samples, got {K}")
        N = self.basis.dim
        M = len(self.forbidden)
        stacks = {}
        for name, shape in (
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
        if lam0.size != K:
            raise ValueError("the lambda0 array must match the time grid length")
        for name, arr in dict(stacks, times=times, lambda0=lam0, lambdas=lams).items():
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has a non-finite entry")
        steps = np.diff(times)
        if not np.all(steps > 0):
            raise ValueError("time grid must be strictly increasing")
        mean = (times[-1] - times[0]) / (K - 1)
        off = float(np.abs(steps - mean).max()) / mean
        if not off <= _UNIFORM_TOL:
            raise ValueError(
                f"time grid must be uniform: a step differs from the mean step by "
                f"{off:.3e} of it, beyond {_UNIFORM_TOL:g}"
            )
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
        eigs = stack_spectra(stacks["F"])
        spec_tol = 1e-7 * max(1.0, float(np.abs(eigs[0]).max()))
        spec_err = float(np.abs(eigs - eigs[0]).max())
        if not spec_err <= spec_tol:
            raise ValueError(
                f"F(t) is not isospectral to F(0): max eigenvalue drift {spec_err:.3e}"
            )
        for arr in (times, lam0, lams, eigs, *stacks.values()):
            arr.setflags(write=False)
        object.__setattr__(self, "F_spectrum", eigs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "lambda0", lam0)
        object.__setattr__(self, "lambdas", lams)
        for name, arr in stacks.items():
            object.__setattr__(self, name, arr)
        forbidden = tuple(int(j) for j in self.forbidden)
        object.__setattr__(self, "forbidden", forbidden)
        object.__setattr__(self, "_forbidden_stack", _generator_stack(self.basis, forbidden))

    @property
    def n_samples(self) -> int:
        return self.times.size

    @property
    def dim(self) -> int:
        return self.basis.dim

    def forbidden_generators(self) -> np.ndarray:
        """The (M, N, N) stack of the forbidden generators, built once, read-only."""
        return self._forbidden_stack

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "dimension": self.dim,
            "omega": self.omega,
            "basis": self.basis.kind,
            "forbidden": [self.basis.labels[j] for j in self.forbidden],
            "renormalized": self.renormalized,
            "times": self.times.copy(),
            "lambda0": self.lambda0.copy(),
            "lambdas": self.lambdas.copy(),
            "psi": _as_pairs(self.psi),
            "U": _as_pairs(self.U),
            "H": _as_pairs(self.H),
            "F": _as_pairs(self.F),
        }

    @staticmethod
    def from_dict(data: dict) -> "Trajectory":
        basis = basis_of(str(data["basis"]), _whole_number(data["dimension"], "dimension"))
        forbidden = tuple(basis.index_of(j) for j in data["forbidden"])
        lambdas_shape = (len(data["times"]), len(forbidden))
        renormalized = data.get("renormalized", False)
        if not isinstance(renormalized, bool):
            raise ValueError(f"renormalized must be true or false, got {renormalized!r}")

        def read(name: str, convert=_number_array):
            try:
                return convert(data[name])
            except ValueError as exc:
                raise ValueError(f"trajectory field {name!r}: {exc}") from exc

        return Trajectory(
            times=read("times"),
            U=read("U", _from_pairs),
            H=read("H", _from_pairs),
            F=read("F", _from_pairs),
            psi=read("psi", _from_pairs),
            lambda0=read("lambda0"),
            lambdas=read("lambdas", lambda v: _number_array(v).reshape(lambdas_shape)),
            omega=_file_number(data["omega"], "omega"),
            basis=basis,
            forbidden=forbidden,
            renormalized=renormalized,
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
        # UTF-8: the Pauli-string labels of the header are not Latin-1
        np.savetxt(path, np.column_stack(cols), fmt="%.17g", delimiter=",",
                   header=",".join(names), comments="", encoding="utf-8")


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
    """V(t) = e^{iGt} on a batch of times via one eigensplit."""
    w, Q = np.linalg.eigh(G)
    return stack_product(Q * np.exp(1.0j * np.outer(times, w))[:, None, :], Q.conj().T)


def _observables(
    problem: ControlProblem,
    V: np.ndarray,
    lambda0: np.ndarray,
    lambdas: np.ndarray,
    tau_acc: np.ndarray,
    F0: np.ndarray,
    F0_eig: tuple,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(U, F, H, psi) on a stack of frame samples, F0_eig = eigh(F(0)); see finalize_trajectory."""
    w_eig, Q = F0_eig
    expF = stack_product(Q * np.exp(-1.0j * np.outer(tau_acc, w_eig))[:, None, :], Q.conj().T)
    U = stack_product(V, expF)
    F = stack_product(stack_product(V, F0), V.conj().swapaxes(-1, -2))
    H = F / lambda0[:, None, None] - forbidden_sum(
        lambdas / lambda0[:, None], problem.forbidden_generators()
    )
    psi = np.einsum("kab,b->ka", U, problem.psi_i.amplitudes)
    return U, F, H, psi


def _state_vectors(problem: ControlProblem, rows: tuple, F0_eig: tuple) -> tuple:
    """(psi, H psi, F psi) on frame rows (V, lambda_0, lambda_j, tau), from matrix-vector
    products alone: with phi = e^{-i F(0) tau} psi_i by F0_eig = (w, Q) = eigh(F(0)),
    psi = V phi, F psi = V F(0) phi and H psi = F psi/lambda_0 - G psi."""
    (V, lam0, lams, tau), (w, Q) = rows, F0_eig
    c = np.exp(-1.0j * tau[:, None] * w) * (Q.conj().T @ problem.psi_i.amplitudes)
    # phi and F(0) phi of each sample as the two rows of a (2, N) block, times
    # V^T.  A sample's bits do not depend on how many samples are taken at
    # once: a 2-D product of one or two rows takes another BLAS path than
    # one of many, so these are an einsum, which sums each row the same way,
    # and stacks of one product per sample
    x = np.einsum("kj,ij->ki", c, np.concatenate((Q, Q * w))).reshape(-1, 2, w.size)
    psi, fpsi = (x @ V.swapaxes(-1, -2)).swapaxes(0, 1)
    Xf = problem.forbidden_generators()
    G = ((lams / lam0[:, None])[:, None] @ Xf.reshape(Xf.shape[0], w.size**2)).reshape(V.shape)
    return psi, fpsi / lam0[:, None] - (G @ psi[:, :, None])[:, :, 0], fpsi


def finalize_trajectory(
    problem: ControlProblem,
    times: np.ndarray,
    rows: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    F0: np.ndarray,
    renormalized: Optional[float] = None,
) -> Trajectory:
    """The validated trajectory of the frame rows (V, lambda_0, lambda_j, tau).

    U(t) = V(t) exp(-i F(0) tau(t)) via one eigendecomposition of F(0);
    F(t) = V F(0) V^dag (identical to U F(0) U^dag since F(0) commutes with
    its own exponential); H(t) = F(t)/lambda_0(t) - G(t); psi = U psi_i.
    A `renormalized` value c divides the multipliers and F(0) and
    multiplies tau, which leaves V, U and H unchanged, and marks the
    trajectory renormalized.
    """
    times = np.asarray(times, dtype=float)
    V, lam0, lams, tau = rows
    if renormalized is not None:
        c = renormalized
        lam0, lams, tau, F0 = lam0 / c, lams / c, tau * c, F0 / c
    # contiguous copies of a stepped pass's strided views: the trajectory keeps
    # lams, not the whole state array, and V's products take one kernel however
    # V was laid out
    V = np.ascontiguousarray(V, dtype=complex)
    lams = np.ascontiguousarray(lams, dtype=float)
    U, F, H, psi = _observables(problem, V, lam0, lams, tau, F0, np.linalg.eigh(F0))
    return Trajectory(
        times=times, U=U, H=H, F=F, psi=psi, lambda0=lam0, lambdas=lams,
        omega=problem.omega, basis=problem.basis, forbidden=problem.forbidden,
        renormalized=renormalized is not None,
    )


def _constant_rows(
    problem: ControlProblem, m: MultiplierVector, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(V, lambda_0, lambda_j, tau) of the constant-multiplier flow on `times`:
    V = e^{iGt} with G = g_operator(m) and tau = t/lambda_0."""
    V = constant_g_frames(g_operator(m, problem.basis, problem.forbidden), times)
    lams = np.repeat(m.lambdas[None, :], times.size, axis=0)
    return V, np.full(times.size, m.lambda0), lams, times / m.lambda0


def _binade_scaled(A: np.ndarray) -> np.ndarray:
    """A times 2^-e, which brings its largest entry into [1/2, 1): exact at every scale
    of A, in two factors as 2^-e overflows for a subnormal one; A = 0 stays 0."""
    e = math.frexp(float(np.abs(A).max()))[1]
    return A * math.ldexp(1.0, -(e // 2)) * math.ldexp(1.0, e // 2 - e)


def _hermitian_seed(problem: ControlProblem, H0) -> np.ndarray:
    """H0 as a complex array, the one check of a seed: a ValueError naming H0 unless
    it is N x N, finite and Hermitian to 1e-10 of ||H0||_F, the norms taken of
    `_binade_scaled` H0, so the check is the same at every scale."""
    H0 = np.asarray(H0, dtype=complex)
    if H0.shape != (problem.dim, problem.dim):
        raise ValueError(f"H0 has shape {H0.shape}, expected square of dim {problem.dim}")
    if not np.all(np.isfinite(H0)):
        raise ValueError("H0 has non-finite entries")
    Hc = _binade_scaled(H0)
    herm = float(np.linalg.norm(Hc - Hc.conj().T)) / (float(np.linalg.norm(Hc)) or 1.0)
    if herm > 1e-10:
        raise ValueError(f"H0 is not Hermitian (relative deviation {herm:.3e})")
    return H0


def _validate_h0(problem: ControlProblem, H0) -> np.ndarray:
    """A Hermitian seed (`_hermitian_seed`) on the constraint surface: traceless,
    Tr[H0^2] = 2 omega^2 and Tr[H0 X_j] = 0 on the forbidden set, each to 1e-8."""
    H0 = _hermitian_seed(problem, H0)
    w, tol = problem.omega, 1e-8
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
    return H0


def stepped_rhs(F0: np.ndarray, Xf: np.ndarray, lambda0: float):
    """Right-hand side of the stepped frame/multiplier system.

    A state concatenates V (N*N entries) and the lambda_j; lambda_0 is
    constant and tau = t/lambda_0, so neither is stepped.  With
    G = sum_l (lambda_l/lambda_0) X_l and F = V F(0) V^dag,
    [G, H] = [G, F]/lambda_0 gives

        sum_l eta_jl lambda_l = Tr[X_j i[G, F]] = 2 Re Tr[X_j (iG V) F(0) V^dag],

    which reuses dV/dt = iG V: three N x N products and one contraction
    with the transposed forbidden generators `Xf`.  At the sizes a pass
    steps, a call costs NumPy's per-call overhead more than arithmetic, so
    every product is `ndarray.dot` (cheaper to call than `@`) and dV and
    the d(lambda_j)/dt are joined into the new state by one concatenate.
    d(lambda_0)/dt is not formed here: `_check_lambda0_rate` guards it on
    the slopes the callers already hold.
    """
    N = F0.shape[0]
    M = Xf.shape[0]
    n2 = N * N
    iXf2 = Xf.reshape(M, n2) * (1.0j / lambda0)
    # (iG F).ravel() @ XfT2 = (2/N) Tr[X_j iG F], whose real part is d(lambda_j)/dt
    XfT2 = (np.ascontiguousarray(Xf.transpose(0, 2, 1)).reshape(M, n2) * (2.0 / N)).T

    def rhs(y: np.ndarray) -> np.ndarray:
        V = y[:n2].reshape(N, N)
        dV = y[n2:].real.dot(iXf2).reshape(N, N).dot(V)
        return np.concatenate((dV.ravel(), dV.dot(F0.dot(V.conj().T)).ravel().dot(XfT2).real))

    return rhs


def _check_lambda0_rate(
    problem: ControlProblem, lambda0: float, lams: np.ndarray, dlams: np.ndarray
) -> None:
    """Guard the conservation of lambda_0 at multipliers lams with rates dlams,
    the lambda_j of states and their slopes rhs(y).

    d(lambda_0)/dt = -lambda.(eta lambda)/(2 omega^2 lambda_0) =
    -N lambda.(d lambda/dt)/(2 omega^2 lambda_0) vanishes by the
    antisymmetry of eta, which needs a Hermitian F(0); beyond 1e-9 omega
    (1 + |lambda|^2/omega^2) on any row it is an ArithmeticError.  The
    pass runs it on y(0) and at every drift checkpoint, and
    `PassSamples.rows_at` on the stored slopes of the samples it
    interpolates.
    """
    N, w = problem.dim, problem.omega
    dlam0 = (lams * dlams).sum(-1) * (-N / (2.0 * w**2 * lambda0))
    if np.any(np.abs(dlam0) > 1e-9 * w * (1.0 + (lams * lams).sum(-1) / w**2)):
        raise ArithmeticError(
            "the contraction sum_jl lambda_j lambda_l eta_jl must vanish by antisymmetry "
            f"of eta, but d(lambda_0)/dt = {float(np.abs(dlam0).max()):.3e}"
        )


# Butcher's seven-stage sixth-order tableau (J. Austral. Math. Soc. 4
# (1964) 179): row i of _RK6_A weighs stages 1..i in the input of stage
# i + 1 (row 0, of the first stage, is empty), _RK6_B weighs the stages in
# the step; the nodes are c = (0, 1/3, 2/3, 1/3, 1/2, 1/2, 1)
_RK6_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 3.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 2.0 / 3.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 12.0, 4.0 / 12.0, -1.0 / 12.0, 0.0, 0.0, 0.0],
    [-1.0 / 16.0, 18.0 / 16.0, -3.0 / 16.0, -6.0 / 16.0, 0.0, 0.0],
    [0.0, 9.0 / 8.0, -3.0 / 8.0, -6.0 / 8.0, 4.0 / 8.0, 0.0],
    [9.0 / 44.0, -36.0 / 44.0, 63.0 / 44.0, 72.0 / 44.0, 0.0, -64.0 / 44.0],
])
_RK6_B = np.array([11.0, 0.0, 81.0, 81.0, -32.0, -32.0, 11.0]) / 120.0


@lru_cache(maxsize=1)
def _rk6_rows(h: float) -> tuple:
    """h times the rows a_i[:i] (i = 1..6) of `_RK6_A` and h `_RK6_B`, once per step size."""
    hA = h * _RK6_A
    return tuple(hA[i, :i] for i in range(1, 7)), h * _RK6_B


def rk6_step(rhs, y: np.ndarray, h, k1: np.ndarray) -> np.ndarray:
    """One step of Butcher's seven-stage sixth-order Runge-Kutta method
    (J. Austral. Math. Soc. 4 (1964) 179) of dy/dt = rhs(y) of size h.

    It starts a stepped pass: its first seven steps, before the Adams step
    has the eight slopes it needs.  The tableau is `_RK6_A` and `_RK6_B`,
    scaled by h in `_rk6_rows`, and `verify._u_defect` steps on it too.  The
    stages fill the rows of one stack K, so each stage's input y + h a_i.K
    and the step y + h b.K are one product each.  The first stage k1 =
    rhs(y) is the caller's: the pass keeps it as the slope of the sample y,
    for its checks and its dense output, so a step evaluates rhs six times.
    """
    K = np.empty((7, y.size), dtype=complex)
    K[0] = k1
    hA, hB = _rk6_rows(h)
    for i, a in enumerate(hA, 1):
        K[i] = rhs(y + a.dot(K[:i]))
    return y + hB.dot(K)


# the Adams-Bashforth-Moulton pair of order eight (Hairer, Norsett & Wanner,
# Solving ODEs I, III.1): _AB8 weighs the slopes f_{n-7}..f_n in the
# prediction of y_{n+1}, _AM8 the slopes f_{n-6}..f_n and the slope at that
# prediction in its correction
_AB8 = np.array([
    -36799, 295767, -1041723, 2102243, -2664477, 2183877, -1152169, 434241,
]) / 120960.0
_AM8 = np.array([
    1375, -11351, 41499, -88547, 123133, -121797, 139849, 36799,
]) / 120960.0


# a stepped pass's own step is this fraction of 1/r, r the rate bound of
# `_pass_rate`; shoot's worst relative T deviation from a pass at 0.0125/r:
#   step     su(4) pool  su(4) 1000-1299  chain seed 1
#   0.05/r   6.39e-14    5.78e-13         3.0e-14
#   0.075/r  9.30e-14    7.27e-13         6.8e-14
#   0.1/r    6.42e-13    7.21e-13         2.9e-13
# (held-out seed 1246, T = 1.7e-4, scatters by about 2e-13 at every step
# from 0.1/r to 0.003/r: the 0.05/r and 0.075/r held-out figures are its).
# Its drift checkpoints, and the blocks it yields, are this many steps apart
_STEP_PER_RATE = 0.1
_CHECK_STEPS = 16

# the most steps of one uniform grid, an integration pass or a certified grid
_MAX_SAMPLES = 200_000


def _grid(T: float, step: float) -> np.ndarray:
    """Uniform samples of [0, T], at least `_MIN_SAMPLES`, no further apart than `step`.

    More than `_MAX_SAMPLES` steps is a ValueError, raised before anything
    is allocated.
    """
    n = max(_MIN_SAMPLES - 1, math.ceil(T / step - 1e-12))
    if n > _MAX_SAMPLES:
        raise ValueError(
            f"[0, {T:g}] at steps of at most {step:.4g} needs {n} steps, more than "
            f"{_MAX_SAMPLES}; use a coarser dt or a shorter window"
        )
    return np.linspace(0.0, T, n + 1)


def _step_cap(dt: Optional[float]) -> float:
    """A user's cap on a grid's step: `dt`, or inf without one.

    A `dt` that is not positive and finite is a ValueError, raised before
    any work.
    """
    if dt is None:
        return math.inf
    if not 0 < dt < math.inf:
        raise ValueError(f"step dt must be positive and finite, got {dt}")
    return dt


def _seed_operators(problem: ControlProblem, m0: MultiplierVector, H0: np.ndarray) -> tuple:
    """(G, F(0)) of the seed (H0, m0): G = g_operator(m0), which refuses lambda_0 = 0,
    and F(0) = lambda_0 (H0 + G)."""
    G = g_operator(m0, problem.basis, problem.forbidden)
    return G, m0.lambda0 * (H0 + G)


def _pass_grid(t_max: float, G: np.ndarray, F0: np.ndarray, lambda0: float,
               dt: Optional[float]) -> np.ndarray:
    """A pass's grid of [0, t_max], `_grid` at steps of at most min(t_max, 0.1/r, `dt`),
    r = `_pass_rate`; a t_max that is not positive and finite is a ValueError."""
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    return _grid(t_max, min(t_max, _STEP_PER_RATE / _pass_rate(G, F0, lambda0), _step_cap(dt)))


def _pass_rate(G: np.ndarray, F0: np.ndarray, lambda0: float) -> float:
    """r = 2 (||G(0)||_F + rho(F(0))/|lambda_0|), a bound on the stepped flow's rates.

    It holds along the whole pass: Tr[G^2] is conserved (eta is
    antisymmetric) and F(t) is isospectral to F(0).
    """
    f_rad = float(np.abs(np.linalg.eigvalsh(F0)).max())
    return 2.0 * (float(np.linalg.norm(G)) + f_rad / abs(lambda0))


# a dense output's stencil nodes j = 0..3 steps from its first sample: the
# pairs i != j, prod_{i != j} (j - i)^2 and L_j'(j) = sum_{i != j} 1/(j - i)
_OFF = ~np.eye(4, dtype=bool)
_NODE_GAP2 = np.array([36.0, 4.0, 4.0, 36.0])
_NODE_DL = np.array([-11.0, -3.0, 3.0, 11.0]) / 6.0


class PassSamples(NamedTuple):
    """Rows [0, m) of one integration pass on its uniform grid.

    `n_steps` counts the steps of the whole window [0, t_max], so the pass
    is complete when there are n_steps + 1 rows; each block of a pass
    extends the one before it.  `F0` is F(0), `F0_eig` its eigensplit
    eigh(F(0)), formed once by the pass.  `slopes` holds a stepped pass's
    right-hand side at each row, None on the exact flow.  A pass is defined
    at any time of its window (`rows_at`, `at`, `vectors_at`).
    """

    times: np.ndarray
    V: np.ndarray
    lambda0: np.ndarray
    lambdas: np.ndarray
    tau_acc: np.ndarray
    F0: np.ndarray
    n_steps: int
    slopes: Optional[np.ndarray]
    F0_eig: Tuple[np.ndarray, np.ndarray]

    def rows_at(self, problem: ControlProblem, times) -> Tuple[np.ndarray, ...]:
        """(V, lambda_0, lambda_j, tau) at each of `times` in the window.

        A constant-multiplier pass takes its exact flow.  A stepped pass
        takes, for a time t in [t_k, t_k+1], the Hermite interpolant of the
        samples and slopes of the stencil of four samples from
        min(max(k - 1, 0), n_steps - 3), of degree 7 (Hairer, Norsett &
        Wanner, Solving ODEs I, II.6): a dense output of the step's order,
        eight, that evaluates no right-hand side, by one path for one time
        or many.  Its weights are exactly 0 and 1 on the nodes, so a
        row on a sample is that sample, and it is C^1 across samples.  The
        stencil depends on k and `n_steps` alone, so a block gives the rows
        the complete pass gives; a time whose stencil is not sampled yet is
        a ValueError.  `_check_lambda0_rate` guards the stencils' slopes.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        lam0 = self.lambda0[0]
        if self.slopes is None:
            return _constant_rows(problem, MultiplierVector(lam0, self.lambdas[0]), times)
        N, t, h = problem.dim, self.times, self.times[1]
        start = np.minimum(np.maximum(t.searchsorted(times, "right") - 2, 0), self.n_steps - 3)
        lo, hi = int(start.min()), int(start.max()) + 4
        if hi > t.size:
            raise ValueError(
                f"a time needs samples up to {hi - 1} of the pass, "
                f"which has {t.size - 1} so far"
            )
        # the frames, multipliers and slopes of the samples the stencils span,
        # the multipliers and their rates real
        n2 = N * N
        yV, yl = self.V[lo:hi].reshape(-1, n2), self.lambdas[lo:hi]
        dyV, dyl = self.slopes[lo:hi, :n2], self.slopes[lo:hi, n2:].real
        _check_lambda0_rate(problem, lam0, yl, dyl)
        # d_j = s - s_j in units of the step, s_j the node t_j: exactly 0 on it
        nodes = start[:, None] + np.arange(4)
        d = ((times - t[start]) / h)[:, None] - (t[nodes] - t[start, None]) / h
        # L_j^2 = prod_{i != j} (d_i / (j - i))^2 on the uniform grid for every
        # node j at once, and the weights of the values (A_j) and slopes (B_j)
        L2 = np.where(_OFF, d[:, None, :], 1.0).prod(-1) ** 2 / _NODE_GAP2
        A, B = (1.0 - 2.0 * _NODE_DL * d) * L2, h * d * L2
        # the value weights sum to 1, so the interpolant is the nearest node's
        # state plus a correction: it rounds less, and on a node it is exactly
        # 0.  Summed node by node, K times take temporaries of (K, N^2) complex
        # and (K, M) real entries only
        nodes -= lo
        near = nodes[np.arange(times.size), abs(d).argmin(1)]
        rows = []
        for y, dy in ((yV, dyV), (yl, dyl)):
            y0 = y[near]
            row = np.zeros_like(y0)
            for j in range(4):
                row += A[:, j, None] * (y[nodes[:, j]] - y0)
                row += B[:, j, None] * dy[nodes[:, j]]
            row += y0
            rows.append(row)
        V, lams = rows
        V = V.reshape(-1, N, N)
        return V, np.full(times.size, lam0), lams, times / lam0

    def at(self, problem: ControlProblem, times):
        """(U, F, H, psi) at each of `times` (one time or an array) as stacks."""
        return _observables(problem, *self.rows_at(problem, times), self.F0, self.F0_eig)

    def vectors_at(self, problem: ControlProblem, times):
        """(psi, H psi, F psi) at each of `times` (one time or an array) as stacks."""
        return _state_vectors(problem, self.rows_at(problem, times), self.F0_eig)

    def trajectory(self, problem: ControlProblem) -> Trajectory:
        """The validated trajectory on the pass's own rows."""
        rows = (self.V, self.lambda0, self.lambdas, self.tau_acc)
        return finalize_trajectory(problem, self.times, rows, self.F0)


def exact_pass(
    problem: ControlProblem, m0: MultiplierVector, H0: np.ndarray, t_max: float,
    dt: Optional[float] = None,
) -> PassSamples:
    """The constant-multiplier flow of the seed (H0, m0) on [0, t_max] as one pass.

    Its grid is the one a stepped pass of the same seed takes
    (`_pass_grid`).  The flow itself is exact at any time (`rows_at`), so
    the grid only sets where the root scan looks.
    """
    G, F0 = _seed_operators(problem, m0, H0)
    times = _pass_grid(t_max, G, F0, m0.lambda0, dt)
    F0_eig = np.linalg.eigh(F0)
    return PassSamples(times, *_constant_rows(problem, m0, times), F0, times.size - 1, None, F0_eig)


def integrate_blocks(
    problem: ControlProblem,
    m0: MultiplierVector,
    H0: np.ndarray,
    t_max: float,
    dt: Optional[float] = None,
) -> Iterator[PassSamples]:
    """The samples of one integration pass of [0, t_max], yielded as they grow.

    Either pass samples the grid `_pass_grid` of [0, t_max], at steps of
    at most min(t_max, 0.1/r, `dt`), with r the pass's rate bound
    (`_pass_rate`): `dt` only caps the step.  A stepped pass (a forbidden
    set that is not closed) steps `stepped_rhs` there: `rk6_step` on its
    first seven steps, then, for step i, the Adams-Bashforth prediction
    from the slopes of samples i - 8..i - 1 (`_AB8`), one right-hand side
    there and the Adams-Moulton correction from the slopes of samples
    i - 7..i - 1 and that one (`_AM8`), a PECE step of order eight.  It
    checks the frame's drift |V^dag V - 1| at every checkpoint, every
    `_CHECK_STEPS` steps whatever the step and omega, and at its last
    step, and yields there, so every yielded row has passed a drift
    check.  A drift beyond `_UNITARITY_TOL` is an ArithmeticError naming
    the drift and the step: the pass never projects its frame and never
    restarts.  The slope at each sample is
    kept (`PassSamples.slopes`): it is a starting step's first stage, the
    Adams steps' history and the dense output's derivative, and at y(0)
    and every checkpoint `_check_lambda0_rate` guards it.  The exact path
    (a closed forbidden set) yields `exact_pass`, its complete window at
    once.  A caller may stop iterating at any block.
    """
    H0 = _validate_h0(problem, H0)
    if problem.closure[0]:
        yield exact_pass(problem, m0, H0, t_max, dt)
        return
    lam0 = m0.lambda0
    G, F0 = _seed_operators(problem, m0, H0)
    times = _pass_grid(t_max, G, F0, lam0, dt)
    n_steps, step = times.size - 1, float(times[1])
    F0_eig = np.linalg.eigh(F0)

    M = problem.n_forbidden
    N = problem.dim
    n2 = N * N
    rhs = stepped_rhs(F0, problem.forbidden_generators(), lam0)
    ys = np.empty((n_steps + 1, n2 + M), dtype=complex)
    lam0s = np.full(n_steps + 1, lam0)
    taus = times / lam0
    slopes = np.empty_like(ys)
    # complex, as the slopes are, so neither product casts its weights
    hab, ham = step * _AB8.astype(complex), step * _AM8.astype(complex)
    y = ys[0] = np.concatenate((np.eye(N, dtype=complex).ravel(), m0.lambdas))
    dy = slopes[0] = rhs(y)
    _check_lambda0_rate(problem, lam0, y[n2:].real, dy[n2:].real)
    for i in range(1, n_steps + 1):
        if i < _AB8.size:
            y = ys[i] = rk6_step(rhs, y, step, dy)
        else:
            # the slope at the prediction takes the row of the sample's own,
            # so the correction is one product with the last eight rows
            slopes[i] = rhs(y + hab.dot(slopes[i - 8:i]))
            y = ys[i] = y + ham.dot(slopes[i - 7:i + 1])
        dy = slopes[i] = rhs(y)
        if i % _CHECK_STEPS and i < n_steps:
            continue
        _check_lambda0_rate(problem, lam0, y[n2:].real, dy[n2:].real)
        V = y[:n2].reshape(N, N)
        drift = float(np.linalg.norm(V.conj().T @ V - np.eye(N)))
        if not drift <= _UNITARITY_TOL:
            raise ArithmeticError(
                f"frame unitarity drifted by {drift:.3e}, beyond {_UNITARITY_TOL:g}, "
                f"by step {i} at step size {step:.3e}"
            )
        m = i + 1
        yield PassSamples(
            times[:m], ys[:m, :n2].reshape(m, N, N), lam0s[:m], ys[:m, n2:].real,
            taus[:m], F0, n_steps, slopes[:m], F0_eig,
        )


def integrate(
    problem: ControlProblem,
    m0: MultiplierVector,
    H0: np.ndarray,
    t_max: float,
    dt: Optional[float] = None,
) -> Trajectory:
    """Sample the coupled frame/multiplier system on a uniform grid.

    The grid is the complete pass of `integrate_blocks`, the same on both
    paths: steps of 0.1/r with r the flow's rate bound, capped by `dt`,
    ending at t_max.  F(0) = lambda_0(0) (H0 + G(0)) is fixed once from
    the seed and only conjugated afterwards.

    Exact path (eta = 0: a forbidden set closed under i[.,.], decided
    by `is_closed_subalgebra`): the multipliers and G are constant,
    V(t) = exp(iGt) comes from one eigendecomposition of G and
    tau = t/lambda_0 (`exact_pass`).

    Stepped path (a forbidden set that is not closed): fixed steps on
    `stepped_rhs`, seven of sixth-order Runge-Kutta (`rk6_step`) to start
    and eighth-order Adams-Bashforth-Moulton after them, on the vector
    concatenating V and the lambda_j; lambda_0 is constant and
    tau = t/lambda_0.  V is never projected: its unitarity drift is
    checked against the validation's 1e-8 at checkpoints `_CHECK_STEPS`
    steps apart and at the end, and a drift beyond it is an
    ArithmeticError.  `integrate_blocks` yields the same samples
    checkpoint by checkpoint.
    """
    for samples in integrate_blocks(problem, m0, H0, t_max, dt):
        pass
    return samples.trajectory(problem)
