"""Boundary geometry of pure-state pairs and the unrestricted optimum."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from qbrach.states import DegenerateProblemError, PureState, boundary_data, free_hamiltonian

SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


# ------------------------------------------------------------- PureState


def test_pure_state_basics():
    psi = PureState([1.0, 0.0])
    assert psi.dim == 2
    other = PureState([0.0, 1.0j])
    assert psi.overlap(other) == 0.0
    assert other.overlap(other) == pytest.approx(1.0)


def test_pure_state_exact_renormalization():
    # within the 1e-9 gate the amplitudes are snapped to unit norm exactly
    eps = 3e-10
    psi = PureState([1.0 + eps, 0.0])
    assert float(np.linalg.norm(psi.amplitudes)) == pytest.approx(1.0, abs=1e-15)


def test_pure_state_rejects_bad_input():
    with pytest.raises(ValueError):
        PureState([1.0])
    with pytest.raises(ValueError):
        PureState([1.0, 1.0])
    with pytest.raises(ValueError):
        PureState([0.7, 0.7])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # |nan - 1| > 1e-9 is False, so the normalization test alone accepts NaN
    with pytest.raises(ValueError, match="non-finite"):
        PureState([bad, 0.0])


def test_pure_state_is_immutable():
    psi = PureState([1.0, 0.0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


# ---------------------------------------------------------- boundary_data


def test_boundary_decomposition_with_phase():
    psi_i = helpers.ket(2, 0)
    amp = np.array([np.exp(1j * np.pi / 3), 1.0]) / np.sqrt(2.0)
    psi_f = PureState(amp)
    b = boundary_data(psi_i, psi_f)
    assert b.omega_b == pytest.approx(np.pi / 4, abs=1e-12)
    assert b.phi == pytest.approx(np.pi / 3, abs=1e-12)
    np.testing.assert_allclose(b.psi_perp.amplitudes, [0.0, 1.0], atol=1e-12)


def test_boundary_identical_states():
    psi = helpers.PLUS_X
    b = boundary_data(psi, psi)
    assert b.omega_b == 0.0
    assert b.phi == 0.0
    assert b.psi_perp is None


def test_boundary_pure_phase_difference():
    alpha = 1.234
    psi_i = helpers.PLUS_X
    psi_f = PureState(np.exp(1j * alpha) * psi_i.amplitudes)
    b = boundary_data(psi_i, psi_f)
    assert b.omega_b == pytest.approx(0.0, abs=1e-8)
    assert b.phi == pytest.approx(alpha, abs=1e-12)
    assert b.psi_perp is None


def test_boundary_orthogonal_pair_has_free_phase():
    b = boundary_data(helpers.KET0, helpers.KET1)
    assert b.omega_b == pytest.approx(np.pi / 2, abs=1e-12)
    assert b.phi == 0.0
    np.testing.assert_allclose(b.psi_perp.amplitudes, [0.0, 1.0], atol=1e-12)


def test_boundary_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        boundary_data(helpers.KET0, helpers.ket(3, 0))


@settings(max_examples=50, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_boundary_reconstructs_final_state(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    psi_i = helpers.random_state(rng, n)
    psi_f = helpers.random_state(rng, n)
    b = boundary_data(psi_i, psi_f)
    rebuilt = np.cos(b.omega_b) * np.exp(1j * b.phi) * psi_i.amplitudes
    if b.psi_perp is not None:
        rebuilt = rebuilt + np.sin(b.omega_b) * b.psi_perp.amplitudes
    np.testing.assert_allclose(rebuilt, psi_f.amplitudes, atol=1e-10)


@settings(max_examples=50, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
def test_boundary_phase_covariance(seed, alpha):
    rng = np.random.default_rng(seed)
    psi_i = helpers.random_state(rng, 3)
    psi_f = helpers.random_state(rng, 3)
    base = boundary_data(psi_i, psi_f)
    shifted = boundary_data(psi_i, PureState(np.exp(1j * alpha) * psi_f.amplitudes))
    assert shifted.omega_b == pytest.approx(base.omega_b, abs=1e-12)
    if abs(psi_i.overlap(psi_f)) > 1e-12:
        # compare on the circle to stay clear of the branch cut
        assert np.exp(1j * shifted.phi) == pytest.approx(
            np.exp(1j * (base.phi + alpha)), abs=1e-10
        )


# ------------------------------------------------------- free_hamiltonian


def test_free_hamiltonian_bit_flip_is_sigma_y():
    b = boundary_data(helpers.KET0, helpers.KET1)
    h = free_hamiltonian(helpers.KET0, b, omega=2.5)
    np.testing.assert_allclose(h, 2.5 * SY, atol=1e-14)


@pytest.mark.parametrize("omega", [1.0, 10.0])
def test_free_hamiltonian_transports_with_phase_convention(omega):
    psi_i = helpers.ket(3, 0)
    amp = np.zeros(3, dtype=complex)
    amp[0] = np.exp(1j * np.pi / 3) * np.cos(0.7)
    amp[2] = np.sin(0.7)
    psi_f = PureState(amp)
    b = boundary_data(psi_i, psi_f)
    h = free_hamiltonian(psi_i, b, omega)
    # invariants: traceless, Tr[H^2] = 2 omega^2, zero expectation in psi_i
    assert abs(np.trace(h)) <= 1e-12 * omega
    assert np.real(np.trace(h @ h)) == pytest.approx(2 * omega**2, rel=1e-12)
    mean = np.real(psi_i.amplitudes.conj() @ h @ psi_i.amplitudes)
    assert abs(mean) <= 1e-12 * omega
    # energy spread equals the budget
    hp = h @ psi_i.amplitudes
    de = np.sqrt(np.real(hp.conj() @ hp) - mean**2)
    assert de == pytest.approx(omega, rel=1e-12)
    # transport: exp(-i H T) psi_i lands on psi_f up to the global phase e^{-i phi}
    t_min = b.omega_b / omega
    u = helpers.expm_herm(h, t_min)
    reached = u @ psi_i.amplitudes
    assert abs(np.vdot(psi_f.amplitudes, reached)) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        reached, np.exp(-1j * b.phi) * psi_f.amplitudes, atol=1e-12
    )


def test_free_hamiltonian_rejects_degenerate_pair():
    b = boundary_data(helpers.KET0, helpers.KET0)
    with pytest.raises(DegenerateProblemError):
        free_hamiltonian(helpers.KET0, b, 1.0)

