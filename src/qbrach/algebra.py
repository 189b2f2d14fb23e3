"""su(N) generator bases, commutators and subalgebra closure.

All bases follow the normalization Tr(X_i X_j) = N delta_ij, so projection
coefficients onto a basis element are Tr(A X_m)/N (`coefficients`); the
structure constants of i[X_j, X_l] are the coefficients of a commutator.
Two constructions are provided: generalized Gell-Mann matrices (any
N >= 2) and Pauli strings (N = 2^n), both Hermitian, traceless and
deterministically ordered.  `basis_of` builds either by its kind name,
once per (kind, dimension).  Closure under i[.,.] is read from the
stacked commutators of a subset (`commutator_tensor`, `closure_residual`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "GeneratorBasis",
    "basis_of",
    "build_gellmann_basis",
    "build_pauli_string_basis",
    "closure_residual",
    "commutator_tensor",
    "hermitian_commutator",
    "is_closed_subalgebra",
]

_SUPERSCRIPTS = {1: "¹", 2: "²", 3: "³"}

# largest `closure_residual` of a subset taken as closed under i[.,.]
CLOSURE_TOL = 1e-10

_PAULI = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class GeneratorBasis:
    """An ordered, orthonormal set of N^2 - 1 Hermitian traceless generators.

    Attributes
    ----------
    dim : Hilbert-space dimension N.
    generators : array of shape (N^2 - 1, N, N), complex, read-only.
    labels : human-readable label per generator (e.g. "a12" or "σ1²σ2³").
    kind : "gellmann" or "pauli_strings".
    """

    dim: int
    generators: np.ndarray
    labels: Tuple[str, ...]
    kind: str
    label_map: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=complex)
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        if not self.label_map:
            object.__setattr__(
                self, "label_map", {lab: i for i, lab in enumerate(self.labels)}
            )
        n = self.dim * self.dim - 1
        if gens.shape != (n, self.dim, self.dim):
            raise ValueError(
                f"expected {n} generators of shape ({self.dim},{self.dim}), "
                f"got array of shape {gens.shape}"
            )

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, key) -> int:
        """Resolve a generator reference (integer index or string label)."""
        if isinstance(key, (int, np.integer)):
            idx = int(key)
            if not 0 <= idx < self.size:
                raise IndexError(f"generator index {idx} out of range 0..{self.size - 1}")
            return idx
        if key in self.label_map:
            return self.label_map[key]
        raise KeyError(f"unknown generator label {key!r}")

    def coefficients(self, a: np.ndarray) -> np.ndarray:
        """Expansion coefficients of a traceless Hermitian matrix: Tr(A X_m)/N."""
        return np.real(np.einsum("mij,ji->m", self.generators, a)) / self.dim


def build_gellmann_basis(N: int) -> GeneratorBasis:
    """Generalized Gell-Mann matrices rescaled so that Tr(X_i X_j) = N delta_ij.

    Ordering is deterministic: symmetric off-diagonal matrices first
    (row-major over index pairs j < k), then the antisymmetric ones in the
    same pair order, then the N - 1 diagonal matrices.  For N = 2 this is
    exactly (sigma_x, sigma_y, sigma_z).
    """
    if N < 2:
        raise ValueError(f"invalid dimension N={N}; need N >= 2")
    scale = np.sqrt(N / 2.0)
    gens: List[np.ndarray] = []
    labels: List[str] = []
    for j in range(N):
        for k in range(j + 1, N):
            m = np.zeros((N, N), dtype=complex)
            m[j, k] = 1.0
            m[k, j] = 1.0
            gens.append(scale * m)
            labels.append(f"s{j + 1}{k + 1}")
    for j in range(N):
        for k in range(j + 1, N):
            m = np.zeros((N, N), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            gens.append(scale * m)
            labels.append(f"a{j + 1}{k + 1}")
    for l in range(1, N):
        d = np.zeros(N, dtype=complex)
        d[:l] = 1.0
        d[l] = -l
        m = np.diag(d) * np.sqrt(2.0 / (l * (l + 1)))
        gens.append(scale * m)
        labels.append(f"d{l}")
    return GeneratorBasis(
        dim=N, generators=np.array(gens), labels=tuple(labels), kind="gellmann"
    )


def pauli_string_label(word: Sequence[int]) -> str:
    """Label of a Pauli string, identity factors omitted (e.g. (2, 3) -> "σ1²σ2³")."""
    parts = [
        f"σ{site + 1}{_SUPERSCRIPTS[alpha]}"
        for site, alpha in enumerate(word)
        if alpha != 0
    ]
    return "".join(parts)


def build_pauli_string_basis(n_qubits: int) -> GeneratorBasis:
    """Tensor-product Pauli-string basis of su(2^n).

    The 4^n - 1 non-identity strings already satisfy Tr(P_a P_b) =
    2^n delta_ab, so no rescaling is applied.  Strings are ordered by the
    base-4 value of their letter word (first qubit most significant):
    for two qubits the order is σ2¹, σ2², σ2³, σ1¹, σ1¹σ2¹, ...
    """
    if n_qubits < 1:
        raise ValueError(f"invalid qubit count {n_qubits}; need >= 1")
    N = 2**n_qubits
    gens: List[np.ndarray] = []
    labels: List[str] = []
    for code in range(1, 4**n_qubits):
        word = []
        c = code
        for _ in range(n_qubits):
            word.append(c % 4)
            c //= 4
        word = word[::-1]  # first qubit most significant
        m = np.array([[1.0]], dtype=complex)
        for alpha in word:
            m = np.kron(m, _PAULI[alpha])
        gens.append(m)
        labels.append(pauli_string_label(word))
    return GeneratorBasis(
        dim=N, generators=np.array(gens), labels=tuple(labels), kind="pauli_strings"
    )


@lru_cache(maxsize=8)
def basis_of(kind: str, dim: int) -> GeneratorBasis:
    """The basis of su(dim) named by `kind`, built once and then shared.

    `kind` is "gellmann" (any dim >= 2) or "pauli_strings" (dim a power
    of two), the value a `GeneratorBasis` records as its `kind`.  Callers
    that read `kind` from a file pass str(kind), so that a malformed value
    is an unknown kind rather than an unhashable cache key.
    """
    if kind == "gellmann":
        return build_gellmann_basis(dim)
    if kind == "pauli_strings":
        n = round(math.log2(dim))
        if 2**n != dim:
            raise ValueError(f"pauli_strings basis needs a power-of-two dimension, got {dim}")
        return build_pauli_string_basis(n)
    raise ValueError(f"unknown basis kind {kind!r}")


def _check_hermitian(a: np.ndarray, name: str, tol: float = 1e-10) -> None:
    scale = max(1.0, float(np.linalg.norm(a)))
    dev = float(np.linalg.norm(a - a.conj().T))
    if dev > tol * scale:
        raise ValueError(f"{name} is not Hermitian (deviation {dev:.3e})")


def hermitian_commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """i[A, B] = i(AB - BA) for Hermitian A, B; the result is Hermitian.

    Traceless inputs give a traceless result.  Example (Pauli algebra):
    hermitian_commutator(sigma_z, sigma_x) = -2 sigma_y.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    _check_hermitian(a, "first operand")
    _check_hermitian(b, "second operand")
    c = 1.0j * (a @ b - b @ a)
    # enforce exact Hermiticity against rounding in the products
    return 0.5 * (c + c.conj().T)


def commutator_tensor(basis: GeneratorBasis, subset: Sequence) -> np.ndarray:
    """Stack K[j, l] = i[X_j, X_l] over the pairs of a subset, exactly antisymmetric."""
    idx = [basis.index_of(j) for j in subset]
    M, N = len(idx), basis.dim
    K = np.zeros((M, M, N, N), dtype=complex)
    for p in range(M):
        for q in range(p + 1, M):
            c = hermitian_commutator(basis.generators[idx[p]], basis.generators[idx[q]])
            K[p, q] = c
            K[q, p] = -c
    return K


def closure_residual(gens: np.ndarray, K: np.ndarray) -> float:
    """Largest Frobenius norm of a K[j, l] minus its projection onto span(gens),
    for K the `commutator_tensor` of the subset stacked in `gens`."""
    N = gens.shape[-1]
    coeff = np.real(np.einsum("mij,pqji->pqm", gens, K)) / N
    resid = K - np.einsum("pqm,mij->pqij", coeff, gens)
    return float(np.linalg.norm(resid, axis=(2, 3)).max(initial=0.0))


def is_closed_subalgebra(
    basis: GeneratorBasis, subset: Sequence[int], tol: float = CLOSURE_TOL
) -> Tuple[bool, float]:
    """Whether span{X_j : j in subset} is closed under i[.,.].

    Returns (closed, worst_residual) where the residual of a pair is the
    Frobenius norm of i[X_j, X_l] minus its orthogonal projection onto the
    subset's span.  A singleton (or any abelian set) is trivially closed.
    """
    idx = [basis.index_of(j) for j in subset]
    if not idx:
        raise ValueError("subset must be nonempty")
    worst = closure_residual(basis.generators[idx], commutator_tensor(basis, idx))
    return worst <= tol, worst
