"""su(N) generator bases, expansion coefficients and subalgebra closure.

All bases follow the normalization Tr(X_i X_j) = N delta_ij, so projection
coefficients onto a basis element are Tr(A X_m)/N (`coefficients`); the
structure constants of i[X_j, X_l] are the coefficients of a commutator.
Two constructions are provided: generalized Gell-Mann matrices (any
N >= 2) and Pauli strings (N = 2^n), both Hermitian, traceless and
deterministically ordered.  `basis_of` builds either by its kind name,
once per (kind, dimension).  Closure of a subset under i[.,.] is read
from the generators outside it (`is_closed_subalgebra`).
`stack_product` multiplies stacks of small matrices, the products every
sampled trajectory is built from (a stack times one fixed matrix as one
tall GEMM), `stack_spectra` gives the eigenvalues of such a stack (in
closed form at N = 2) for the trajectory validation, and `forbidden_sum`
is the one contraction sum_j c_j X_j every G is assembled by.
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
    "forbidden_sum",
    "is_closed_subalgebra",
    "stack_product",
    "stack_spectra",
]

_SUPERSCRIPTS = {1: "¹", 2: "²", 3: "³"}

# largest projection residual of a subset taken as closed under i[.,.]
CLOSURE_TOL = 1e-10

# largest dimension `basis_of` builds: a basis holds (N^2 - 1) N^2 complex
# numbers, 268 MB at N = 64 and about 26 GB at N = 200
MAX_DIM = 64

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
    label_map: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = np.asarray(self.generators, dtype=complex)
        gens.setflags(write=False)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "label_map", {lab: i for i, lab in enumerate(self.labels)})
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
        """Resolve a generator reference (integer index or string label).

        A boolean is neither: it is looked up as a label, and so refused.
        """
        if isinstance(key, (int, np.integer)) and not isinstance(key, bool):
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

    `kind` is "gellmann" (dim >= 2) or "pauli_strings" (dim a power of
    two), the value a `GeneratorBasis` records as its `kind`.  Callers
    that read `kind` from a file pass str(kind), so that a malformed value
    is an unknown kind rather than an unhashable cache key.  A dimension
    above `MAX_DIM` is refused before anything is allocated.
    """
    if not dim <= MAX_DIM:
        raise ValueError(f"dimension {dim} is above the largest supported, {MAX_DIM}")
    if kind == "gellmann":
        return build_gellmann_basis(dim)
    if kind == "pauli_strings":
        n = round(math.log2(dim))
        if 2**n != dim:
            raise ValueError(f"pauli_strings basis needs a power-of-two dimension, got {dim}")
        return build_pauli_string_basis(n)
    raise ValueError(f"unknown basis kind {kind!r}")


def stack_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a stack (..., N, N) times a stack of the same length or one
    fixed N x N matrix, on either side; strided operands are fine.

    A stack times one fixed matrix on its right is one tall GEMM, (K*N x N)
    times N x N, whatever N: at K = 5,001 it took 0.06 / 0.17 / 0.15 ms
    at N = 2 / 3 / 4 against 0.34 / 0.97 / 1.28 ms for the per-matrix
    forms below (best of 7, OpenBLAS on one thread).  Its rounding is the
    GEMM's: at N >= 4 the same bits as np.matmul, at N = 2 and 3 within
    rounding of the broadcast form.  Other products at N <= 3 are N
    broadcast multiply-adds, about four times faster than np.matmul at
    N = 2, where matmul's cost is a per-matrix overhead; larger N go to
    np.matmul, at about 0.3 us a matrix at N = 4.
    """
    N = a.shape[-1]
    if b.ndim == 2:
        return (a.reshape(-1, N) @ b).reshape(a.shape)
    if N > 3:
        return np.matmul(a, b)
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for j in range(1, N):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def stack_spectra(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack (..., N, N) of Hermitian matrices,
    as np.linalg.eigvalsh gives them, reading only the lower triangle.

    At N = 2 they are m -+ r in closed form, with m the mean of the real
    diagonal and r = hypot(half its difference, |a_10|): 0.09 ms for
    5,001 matrices against 2.3 ms for eigvalsh (best of 5), and equal to
    it within rounding (4.4e-15 at a spectral scale of 4.3).  Larger N go
    to eigvalsh.  The entries must be finite: a `Trajectory` checks every
    entry of its F before it takes the spectra.
    """
    if a.shape[-1] != 2:
        return np.linalg.eigvalsh(a)
    d0, d1 = a[..., 0, 0].real, a[..., 1, 1].real
    m = 0.5 * d0 + 0.5 * d1
    r = np.hypot(0.5 * d0 - 0.5 * d1, np.abs(a[..., 1, 0]))
    return np.stack([m - r, m + r], axis=-1)


def forbidden_sum(coeffs: np.ndarray, Xf: np.ndarray) -> np.ndarray:
    """sum_j coeffs[..., j] X_j over a stack Xf of forbidden generators.

    G = forbidden_sum(lambdas / lambda0, Xf); a leading sample axis on
    `coeffs` gives a stack of G.  An empty stack gives zero matrices.  It
    is one product with the stack flattened to (M, N^2), the same bits as
    np.tensordot at a fifth of its call overhead for one set of coeffs.
    """
    M, N = Xf.shape[0], Xf.shape[-1]
    return (coeffs @ Xf.reshape(M, N * N)).reshape(*coeffs.shape[:-1], N, N)


def is_closed_subalgebra(basis: GeneratorBasis, subset: Sequence[int]) -> Tuple[bool, float]:
    """Whether span{X_j : j in subset} is closed under i[.,.].

    Returns (closed, worst_residual) where the residual of a pair is the
    Frobenius norm of i[X_a, X_b] minus its orthogonal projection onto the
    subset's span; closed means a worst residual of at most CLOSURE_TOL.
    A singleton (or any abelian set) is trivially closed.  The basis is
    orthonormal and complete, so by Parseval the squared residual is
    (1/N) sum_{c outside} Tr(X_c i[X_a, X_b])^2 = (4/N) sum (Im Tr(X_a X_c X_b))^2:
    per generator outside the subset one complex GEMM and two real ones
    for the imaginary part alone, and no commutator formed.
    """
    idx = [basis.index_of(j) for j in subset]
    if not idx:
        raise ValueError("subset must be nonempty")
    M, N = len(idx), basis.dim
    sub = basis.generators[idx]
    stacked = sub.reshape(M * N, N)
    flat_t = sub.transpose(0, 2, 1).reshape(M, N * N).T  # column b: X_b^T row-major
    re_t, im_t = flat_t.real.copy(), flat_t.imag.copy()
    acc = np.zeros((M, M))
    for c in np.delete(np.arange(basis.size), idx):
        p = (stacked @ basis.generators[c]).reshape(M, N * N)
        # Im(P B) = Re P Im B + Im P Re B: the real part is never formed
        acc += (p.real @ im_t + p.imag @ re_t) ** 2
    worst = 2.0 * math.sqrt(float(acc.max()) / N)
    return worst <= CLOSURE_TOL, worst
