"""Generator bases, commutators, structure constants and closure checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbrach.algebra import (
    basis_of,
    build_gellmann_basis,
    build_pauli_string_basis,
    commutator_tensor,
    hermitian_commutator,
    is_closed_subalgebra,
    pauli_string_label,
)
from qbrach.solvers import TWO_QUBIT_FORBIDDEN

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------- bases


def test_gellmann_n2_is_pauli():
    basis = build_gellmann_basis(2)
    assert basis.dim == 2
    assert basis.size == 3
    assert basis.kind == "gellmann"
    np.testing.assert_array_equal(basis.generators[0], SX)
    np.testing.assert_array_equal(basis.generators[1], SY)
    np.testing.assert_array_equal(basis.generators[2], SZ)
    assert basis.labels == ("s12", "a12", "d1")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gellmann_orthonormality(n):
    basis = build_gellmann_basis(n)
    gens = basis.generators
    assert gens.shape == (n * n - 1, n, n)
    gram = np.real(np.einsum("mij,lji->ml", gens, gens))
    np.testing.assert_allclose(gram, n * np.eye(n * n - 1), atol=1e-12)
    # Hermitian and traceless, entry by entry
    np.testing.assert_allclose(gens, np.conj(np.swapaxes(gens, 1, 2)), atol=0)
    np.testing.assert_allclose(np.einsum("mii->m", gens), 0.0, atol=1e-14)


@pytest.mark.parametrize("n_qubits", [1, 2])
def test_pauli_string_orthonormality(n_qubits):
    basis = build_pauli_string_basis(n_qubits)
    dim = 2**n_qubits
    assert basis.dim == dim
    assert basis.size == dim * dim - 1
    gram = np.real(np.einsum("mij,lji->ml", basis.generators, basis.generators))
    np.testing.assert_allclose(gram, dim * np.eye(dim * dim - 1), atol=1e-12)


def test_pauli_string_single_qubit_matches_pauli():
    basis = build_pauli_string_basis(1)
    np.testing.assert_array_equal(basis.generators[0], SX)
    np.testing.assert_array_equal(basis.generators[1], SY)
    np.testing.assert_array_equal(basis.generators[2], SZ)


def test_pauli_string_labels_and_order():
    assert pauli_string_label((2, 3)) == "σ1²σ2³"
    assert pauli_string_label((1, 0)) == "σ1¹"
    assert pauli_string_label((0, 2)) == "σ2²"
    basis = build_pauli_string_basis(2)
    # base-4 enumeration with the first qubit most significant: the word
    # (a, b) sits at index 4a + b - 1 once the identity word is dropped
    assert basis.labels[0] == "σ2¹"
    assert basis.labels[3] == "σ1¹"
    assert basis.index_of("σ1²σ2³") == 4 * 2 + 3 - 1
    # explicit tensor product check for one mixed string
    np.testing.assert_allclose(
        basis.generators[basis.index_of("σ1¹σ2²")], np.kron(SX, SY), atol=0
    )


def test_index_of_accepts_labels_and_ints():
    basis = build_gellmann_basis(3)
    assert basis.index_of(4) == 4
    assert basis.index_of("s12") == 0
    assert basis.index_of(np.int64(7)) == 7
    with pytest.raises(IndexError):
        basis.index_of(8)
    with pytest.raises(IndexError):
        basis.index_of(-1)
    with pytest.raises(KeyError):
        basis.index_of("sigma_q")


def test_build_gellmann_rejects_small_dimension():
    with pytest.raises(ValueError):
        build_gellmann_basis(1)


def test_basis_of_builds_each_kind_once():
    g3 = basis_of("gellmann", 3)
    assert g3 is basis_of("gellmann", 3)
    assert g3.labels == build_gellmann_basis(3).labels
    np.testing.assert_array_equal(g3.generators, build_gellmann_basis(3).generators)
    p4 = basis_of("pauli_strings", 4)
    assert p4.kind == "pauli_strings"
    np.testing.assert_array_equal(p4.generators, build_pauli_string_basis(2).generators)
    with pytest.raises(ValueError, match="power-of-two"):
        basis_of("pauli_strings", 6)
    with pytest.raises(ValueError, match="unknown basis kind"):
        basis_of("spin", 2)


def test_coefficients_reconstruct_matrix():
    basis = build_gellmann_basis(4)
    rng = np.random.default_rng(11)
    coef = rng.normal(size=15)
    a = np.einsum("m,mij->ij", coef, basis.generators)
    np.testing.assert_allclose(basis.coefficients(a), coef, atol=1e-12)


# ---------------------------------------------------------- commutators


def test_commutator_pauli_table():
    np.testing.assert_allclose(hermitian_commutator(SZ, SX), -2.0 * SY, atol=1e-14)
    np.testing.assert_allclose(hermitian_commutator(SX, SY), -2.0 * SZ, atol=1e-14)
    np.testing.assert_allclose(hermitian_commutator(SY, SZ), -2.0 * SX, atol=1e-14)


def test_commutator_self_is_zero():
    np.testing.assert_array_equal(hermitian_commutator(SY, SY), np.zeros((2, 2)))


def test_commutator_mixed_string_leaves_subset():
    basis = build_pauli_string_basis(2)
    a = basis.generators[basis.index_of("σ1¹σ2²")]
    b = basis.generators[basis.index_of("σ1¹σ2³")]
    expected = -2.0 * basis.generators[basis.index_of("σ2¹")]
    np.testing.assert_allclose(hermitian_commutator(a, b), expected, atol=1e-13)
    # a local operator against a string it anticommutes with on one site
    c = basis.generators[basis.index_of("σ1²")]
    d = basis.generators[basis.index_of("σ1¹σ2²")]
    expected = 2.0 * np.kron(SZ, SY)
    np.testing.assert_allclose(hermitian_commutator(c, d), expected, atol=1e-13)


def test_commutator_rejects_bad_input():
    with pytest.raises(ValueError):
        hermitian_commutator(SX, np.eye(3))
    with pytest.raises(ValueError):
        hermitian_commutator(np.array([[0.0, 1.0], [0.0, 0.0]]), SX)


@settings(max_examples=50, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_commutator_is_hermitian_traceless(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = a + a.conj().T
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    b = b + b.conj().T
    c = hermitian_commutator(a, b)
    np.testing.assert_array_equal(c, c.conj().T)
    assert abs(np.trace(c)) <= 1e-10 * max(1.0, float(np.linalg.norm(c)))


@settings(max_examples=50, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_coefficients_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    basis = build_gellmann_basis(n)
    coef = rng.normal(size=basis.size)
    a = np.einsum("m,mij->ij", coef, basis.generators)
    np.testing.assert_allclose(basis.coefficients(a), coef, atol=1e-10)


# ---------------------------------------------------- structure constants
# The coefficients of i[X_j, X_l] are read from the commutator stack the
# solvers integrate with, `commutator_tensor`, by `basis.coefficients`.


def test_structure_tensor_su2():
    basis = build_gellmann_basis(2)
    K = commutator_tensor(basis, (0, 1, 2))
    assert K.shape == (3, 3, 2, 2)
    np.testing.assert_allclose(basis.coefficients(K[0, 1]), [0.0, 0.0, -2.0], atol=1e-13)
    # antisymmetry is exact: the reversed pair is the stored negation
    np.testing.assert_array_equal(K[1, 0], -K[0, 1])
    np.testing.assert_array_equal(K[2, 2], np.zeros((2, 2)))
    # no two Pauli matrices commute
    assert all(K[p, q].any() for p, q in ((0, 1), (0, 2), (1, 2)))


def test_structure_tensor_accepts_labels():
    basis = build_gellmann_basis(2)
    K = commutator_tensor(basis, ("s12", "a12"))
    np.testing.assert_array_equal(K, commutator_tensor(basis, (0, 1)))
    np.testing.assert_allclose(basis.coefficients(K[0, 1]), [0.0, 0.0, -2.0], atol=1e-13)


def test_structure_tensor_empty_subset():
    basis = build_gellmann_basis(2)
    K = commutator_tensor(basis, ())
    assert K.shape == (0, 0, 2, 2)
    with pytest.raises(IndexError):
        K[0, 1]


def test_structure_tensor_reconstructs_commutators():
    basis = build_gellmann_basis(3)
    subset = (0, 2, 5, 7)
    K = commutator_tensor(basis, subset)
    for p, j in enumerate(subset):
        for q, l in enumerate(subset):
            comm = hermitian_commutator(basis.generators[j], basis.generators[l])
            rebuilt = np.einsum("m,mij->ij", basis.coefficients(K[p, q]), basis.generators)
            np.testing.assert_allclose(rebuilt, comm, atol=1e-10)


# ------------------------------------------------------------- closure


def test_singleton_is_closed():
    basis = build_gellmann_basis(2)
    closed, resid = is_closed_subalgebra(basis, (2,))
    assert closed is True
    assert resid == 0.0


def test_full_basis_is_closed():
    basis = build_gellmann_basis(3)
    closed, resid = is_closed_subalgebra(basis, range(8))
    assert closed
    assert resid <= 1e-10


def test_sx_sy_pair_is_open():
    # i[sx, sy] = -2 sz lies entirely outside span{sx, sy}
    basis = build_gellmann_basis(2)
    closed, resid = is_closed_subalgebra(basis, (0, 1))
    assert not closed
    np.testing.assert_allclose(resid, 2.0 * np.sqrt(2.0), rtol=1e-12)


def test_cartan_pair_su3_is_closed():
    basis = build_gellmann_basis(3)
    closed, resid = is_closed_subalgebra(basis, (6, 7))
    assert closed
    assert resid <= 1e-12


def test_restricted_two_qubit_set_is_open():
    # the 11-operator single-body-plus-x-string set does not close: e.g.
    # i[σ1², σ1¹σ2²] = 2 σ1³σ2² has no component inside the set, and su(4)
    # admits no 11-dimensional proper subalgebra at all
    basis = build_pauli_string_basis(2)
    closed, resid = is_closed_subalgebra(basis, TWO_QUBIT_FORBIDDEN)
    assert closed is False
    np.testing.assert_allclose(resid, 4.0, rtol=1e-12)
    a = basis.generators[basis.index_of("σ1²")]
    b = basis.generators[basis.index_of("σ1¹σ2²")]
    escaped = hermitian_commutator(a, b)
    np.testing.assert_allclose(escaped, 2.0 * np.kron(SZ, SY), atol=1e-13)
    idx = [basis.index_of(lab) for lab in TWO_QUBIT_FORBIDDEN]
    overlap = basis.coefficients(escaped)[idx]
    np.testing.assert_allclose(overlap, 0.0, atol=1e-13)


def test_closure_rejects_empty_subset():
    basis = build_gellmann_basis(2)
    with pytest.raises(ValueError):
        is_closed_subalgebra(basis, ())
