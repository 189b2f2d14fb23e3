"""Generator bases, commutators, structure constants and closure checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from qbrach.algebra import (
    MAX_DIM,
    basis_of,
    build_gellmann_basis,
    build_pauli_string_basis,
    forbidden_sum,
    is_closed_subalgebra,
    pauli_string_label,
    stack_product,
    stack_spectra,
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
    # a boolean is no index, though Python counts True as 1
    with pytest.raises(KeyError):
        basis.index_of(True)


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
    np.testing.assert_allclose(helpers.commutator(SZ, SX), -2.0 * SY, atol=1e-14)
    np.testing.assert_allclose(helpers.commutator(SX, SY), -2.0 * SZ, atol=1e-14)
    np.testing.assert_allclose(helpers.commutator(SY, SZ), -2.0 * SX, atol=1e-14)


def test_commutator_self_is_zero():
    np.testing.assert_array_equal(helpers.commutator(SY, SY), np.zeros((2, 2)))


def test_commutator_mixed_string_leaves_subset():
    basis = build_pauli_string_basis(2)
    a = basis.generators[basis.index_of("σ1¹σ2²")]
    b = basis.generators[basis.index_of("σ1¹σ2³")]
    expected = -2.0 * basis.generators[basis.index_of("σ2¹")]
    np.testing.assert_allclose(helpers.commutator(a, b), expected, atol=1e-13)
    # a local operator against a string it anticommutes with on one site
    c = basis.generators[basis.index_of("σ1²")]
    d = basis.generators[basis.index_of("σ1¹σ2²")]
    expected = 2.0 * np.kron(SZ, SY)
    np.testing.assert_allclose(helpers.commutator(c, d), expected, atol=1e-13)


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
# The coefficients of i[X_j, X_l] are read by `basis.coefficients`.


def test_structure_tensor_reconstructs_commutators():
    basis = build_gellmann_basis(3)
    subset = (0, 2, 5, 7)
    for j in subset:
        for l in subset:
            comm = helpers.commutator(basis.generators[j], basis.generators[l])
            rebuilt = np.einsum("m,mij->ij", basis.coefficients(comm), basis.generators)
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
    escaped = helpers.commutator(a, b)
    np.testing.assert_allclose(escaped, 2.0 * np.kron(SZ, SY), atol=1e-13)
    idx = [basis.index_of(lab) for lab in TWO_QUBIT_FORBIDDEN]
    overlap = basis.coefficients(escaped)[idx]
    np.testing.assert_allclose(overlap, 0.0, atol=1e-13)


@pytest.mark.parametrize(
    "kind, dim",
    [("pauli_strings", 2), ("pauli_strings", 4), ("pauli_strings", 8)]
    + [("gellmann", n) for n in (2, 3, 4, 5)],
)
def test_closure_matches_the_dense_commutator_projection(kind, dim):
    # random subsets, mostly open, and random sets of commuting diagonal
    # generators and the whole basis, which are closed, against the
    # projection of every pair's commutator built one by one
    basis = basis_of(kind, dim)
    diagonal = [j for j, x in enumerate(basis.generators) if not (x - np.diag(np.diag(x))).any()]
    rng = np.random.default_rng(dim)
    subsets = [range(basis.size)]
    for _ in range(12):
        pool = diagonal if rng.random() < 0.3 else range(basis.size)
        size = int(rng.integers(1, len(pool) + 1))
        subsets.append(rng.choice(pool, size=size, replace=False).tolist())
    verdicts = set()
    for subset in subsets:
        closed, resid = is_closed_subalgebra(basis, subset)
        want_closed, want_resid = helpers.dense_closure(basis, subset)
        assert closed == want_closed
        assert abs(resid - want_resid) <= 1e-12
        verdicts.add(closed)
    assert verdicts == {True, False}


def test_four_qubit_chain_set_is_open():
    # every Pauli string of weight >= 3 and every two-body string between
    # sites that are not neighbours on the open chain: M = 216 of su(16).
    # Two anticommuting strings give i[P_a, P_b] = +-2 P_ab, so an escaped
    # product string has residual 2 sqrt(N) = 8
    basis = build_pauli_string_basis(4)
    subset = helpers.four_qubit_chain_set()
    assert len(subset) == 216
    closed, resid = is_closed_subalgebra(basis, subset)
    assert closed is False
    np.testing.assert_allclose(resid, 8.0, rtol=1e-12)


def test_closure_rejects_empty_subset():
    basis = build_gellmann_basis(2)
    with pytest.raises(ValueError):
        is_closed_subalgebra(basis, ())


@pytest.mark.parametrize("kind", ["gellmann", "pauli_strings"])
@pytest.mark.parametrize("dim", [MAX_DIM + 1, 10**6])
def test_basis_of_refuses_a_dimension_above_the_cap(kind, dim):
    # a basis holds (N^2 - 1) N^2 complex numbers; the cap is checked before
    # anything is built
    with pytest.raises(ValueError, match="largest supported"):
        basis_of(kind, dim)


def test_basis_of_builds_at_small_dimensions_under_the_cap():
    assert basis_of("gellmann", 5).dim == 5
    assert basis_of("pauli_strings", 8).dim == 8


# ---------------------------------------------------------- stack products


def _complex_stack(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _assert_product(got, ref):
    scale = float(np.abs(ref).max())
    assert got.shape == ref.shape
    assert float(np.abs(got - ref).max()) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 513, 1025])
def test_stack_product_matches_matmul(n, k):
    # both sides of the broadcast/matmul switch at N = 3, a stack times a
    # stack and a stack times one fixed matrix on either side
    rng = np.random.default_rng(100 * n + k)
    a, b = _complex_stack(rng, k, n, n), _complex_stack(rng, k, n, n)
    m = _complex_stack(rng, n, n)
    _assert_product(stack_product(a, b), np.matmul(a, b))
    _assert_product(stack_product(a, m), np.einsum("kab,bc->kac", a, m))
    _assert_product(stack_product(m, b), np.einsum("ab,kbc->kac", m, b))
    c = a.reshape(1, k, n, n)
    _assert_product(stack_product(c, m), np.einsum("jkab,bc->jkac", c, m))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stack_product_takes_strided_operands(n):
    # the V of a stepped pass is a strided view into rows of (V, lambda_j),
    # and U^dag is a transposed view; neither is copied first
    rng = np.random.default_rng(n)
    k, m = 37, 3
    state = _complex_stack(rng, k, n * n + m)
    V = state[:, : n * n].reshape(k, n, n)
    assert not V.flags.c_contiguous
    U = _complex_stack(rng, k, n, n)
    Ud = U.conj().swapaxes(-1, -2)
    _assert_product(stack_product(V, Ud), np.matmul(V, Ud))
    _assert_product(stack_product(Ud[:19], V[::2]), np.matmul(Ud[:19], V[::2]))
    # one fixed matrix on the right is one tall GEMM of the stack's rows
    m = _complex_stack(rng, n, n)
    for a in (V, Ud, V[::2]):
        _assert_product(stack_product(a, m), np.einsum("kab,bc->kac", a, m))


def _hermitian_2x2_stacks():
    rng = np.random.default_rng(23)
    z = _complex_stack(rng, 500, 2, 2)
    rand = z + z.conj().swapaxes(-1, -2)
    diag = np.zeros((6, 2, 2), dtype=complex)
    diag[:, 0, 0] = [3.0, -1.0, 0.0, 2.5, -7.0, 1e-300]
    diag[:, 1, 1] = [-2.0, -1.0, 0.0, 2.5, 4.0, 0.0]
    ident = np.arange(-3.0, 4.0)[:, None, None] * np.eye(2)
    # eigvalsh reads the lower triangle only, and Re of the diagonal
    skew = rand.copy()
    skew[:, 0, 1] = _complex_stack(rng, 500)
    skew[:, 0, 0] += 1j * rng.normal(size=500)
    stacks = {"random": rand, "diagonal": diag, "identity": ident,
              "zero": np.zeros((4, 2, 2), dtype=complex), "upper disagrees": skew}
    for scale in (1e-150, 1e150):
        stacks[f"random x {scale:g}"] = scale * rand
    return stacks


@pytest.mark.parametrize("name", list(_hermitian_2x2_stacks()))
def test_stack_spectra_matches_eigvalsh_at_n2(name):
    a = _hermitian_2x2_stacks()[name]
    got, ref = stack_spectra(a), np.linalg.eigvalsh(a)
    assert got.shape == ref.shape
    # within 1e-13 |lambda|max of each matrix, which is stricter than
    # 1e-13 max(1, |lambda|max) and holds at the scales 1e-150 and 1e150
    scale = np.abs(ref).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)
    assert np.all(got[..., 0] <= got[..., 1])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_stack_spectra_above_n2_is_eigvalsh(n, monkeypatch):
    z = _complex_stack(np.random.default_rng(n), 9, n, n)
    a = z + z.conj().swapaxes(-1, -2)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: calls.append(x) or eigvalsh(x))
    np.testing.assert_array_equal(stack_spectra(a), eigvalsh(a))
    assert len(calls) == 1 and calls[0] is a


# ---------------------------------------------------------- forbidden sum


@pytest.mark.parametrize("shape", [(3,), (5, 3), (200, 3), (4, 0)])
def test_forbidden_sum_is_tensordot_bit_for_bit(shape):
    # one product with the stack flattened to (M, N^2) gives the bits of
    # np.tensordot, for one set of coefficients and for a stack of them, on
    # su(4) forbidden sets drawn as the shooting recipe draws them; an
    # empty set gives zero matrices
    basis = build_gellmann_basis(4)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        Xf = basis.generators[sorted(rng.choice(15, size=shape[-1], replace=False))]
        coeffs = rng.normal(size=shape)
        got = forbidden_sum(coeffs, Xf)
        assert got.shape == (*shape[:-1], 4, 4)
        np.testing.assert_array_equal(got, np.tensordot(coeffs, Xf, axes=1))
