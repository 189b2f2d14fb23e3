"""Pure-state boundary geometry.

Everything a solver needs to know about an (initial, final) state pair:
the Bures angle Omega_B, the relative phase phi, the orthogonal complement
|psi_f_perp>, the unrestricted (free) optimal Hamiltonian acting on the
two-dimensional subspace they span, and the test deciding whether a set of
forbidden directions actually binds for that pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "PureState",
    "BoundaryData",
    "DegenerateProblemError",
    "boundary_data",
    "free_hamiltonian",
    "is_trivially_restricted",
]


class DegenerateProblemError(ValueError):
    """The boundary pair leaves the problem underdetermined (e.g. psi_f = psi_i)."""


@dataclass(frozen=True)
class PureState:
    """A normalized state vector.  Input must be finite and normalized to
    1e-9; it is then renormalized exactly so downstream algebra sees
    ||psi|| = 1 to machine precision."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amp.size < 2:
            raise ValueError(f"state vector needs dimension >= 2, got {amp.size}")
        if not np.all(np.isfinite(amp)):
            raise ValueError("state vector has non-finite amplitudes")
        if not np.abs(amp).max() <= 2.0:  # a norm that would overflow is not 1 either
            raise ValueError("state vector is not normalized: an amplitude exceeds 2")
        nrm = float(np.linalg.norm(amp))
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"state vector is not normalized: ||psi|| = {nrm:.12g}")
        amp = amp / nrm
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "PureState") -> complex:
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class BoundaryData:
    """Decomposition psi_f = cos(omega_b) e^{i phi} psi_i + sin(omega_b) psi_perp.

    omega_b : Bures angle arccos|<psi_i|psi_f>|, in [0, pi/2].
    phi : arg <psi_i|psi_f>, in (-pi, pi]; set to 0 (flagged) when the
        overlap vanishes and the phase is a free gauge choice.
    psi_perp : unit vector orthogonal to psi_i, absent when omega_b = 0.
    degenerate_phase : True when phi was not determined by the overlap.
    """

    omega_b: float
    phi: float
    psi_perp: Optional[PureState]
    degenerate_phase: bool = False


def boundary_data(psi_i: PureState, psi_f: PureState) -> BoundaryData:
    """Bures angle, relative phase and orthogonal complement of a state pair.

    Omega_B = arccos|<psi_i|psi_f>| (clamped), phi = arg<psi_i|psi_f>, and
    psi_perp = (psi_f - <psi_i|psi_f> psi_i)/sin(Omega_B) whenever
    sin(Omega_B) > 1e-12.  For orthogonal pairs phi is a free choice; it is
    set to 0 and degenerate_phase is flagged.
    """
    if psi_i.dim != psi_f.dim:
        raise ValueError(f"dimension mismatch: {psi_i.dim} vs {psi_f.dim}")
    z = psi_i.overlap(psi_f)
    omega_b = float(np.arccos(min(1.0, abs(z))))
    if abs(z) <= 1e-12:
        phi, degenerate = 0.0, True
    else:
        phi, degenerate = float(np.angle(z)), False
    psi_perp = None
    s = np.sin(omega_b)
    if s > 1e-12:
        raw = psi_f.amplitudes - z * psi_i.amplitudes
        psi_perp = PureState(raw / s)
    return BoundaryData(
        omega_b=omega_b, phi=phi, psi_perp=psi_perp, degenerate_phase=degenerate
    )


def free_hamiltonian(psi_i: PureState, boundary: BoundaryData, omega: float) -> np.ndarray:
    """Constant optimal Hamiltonian for the unrestricted problem.

    On span{psi_i, psi_perp} with the effective Pauli operators
    sx = |psi_i><psi_perp| + h.c. and sy = -i(|psi_i><psi_perp| - h.c.),
    the time-optimal generator is

        H_F = omega (sin(phi) sx + cos(phi) sy),

    which drives e^{-i H_F T} psi_i onto psi_f at T = Omega_B/omega.
    It is traceless with Tr[H_F^2] = 2 omega^2 (nonzero only on the 2D
    subspace) and has vanishing expectation in psi_i.
    """
    if boundary.psi_perp is None:
        raise DegenerateProblemError(
            "initial and final states coincide (Bures angle 0); "
            "no transport Hamiltonian is defined"
        )
    ketbra = np.outer(psi_i.amplitudes, boundary.psi_perp.amplitudes.conj())
    # sin(phi) sx + cos(phi) sy collapses to a single off-diagonal phase:
    # the |psi_i><psi_perp| coefficient is sin(phi) - i cos(phi) = -i e^{i phi}.
    upper = -1.0j * np.exp(1.0j * boundary.phi) * ketbra
    return omega * (upper + upper.conj().T)


def is_trivially_restricted(problem, boundary: BoundaryData) -> Tuple[bool, Optional[int]]:
    """Whether the forbidden directions are non-binding for this boundary pair.

    The restriction has no effect exactly when the free Hamiltonian already
    satisfies every constraint, i.e. Tr[H_F X_j] = 0 for all forbidden j.
    Each trace equals 2 omega Im[<psi_perp|X_j|psi_i> e^{i phi}], so the
    test is omega-independent.  Returns (True, None) if all vanish within
    1e-9, else (False, j) with the first forbidden basis index j violating it.

    For orthogonal boundary pairs the verdict applies to the recorded phase
    gauge (phi = 0); other gauges of the degenerate family may differ.
    """
    if boundary.psi_perp is None:
        raise DegenerateProblemError(
            "Bures angle is 0: every Hamiltonian direction is trivially admissible"
        )
    phase = np.exp(1.0j * boundary.phi)
    bra_perp = boundary.psi_perp.amplitudes.conj()
    ket_i = problem.psi_i.amplitudes if hasattr(problem, "psi_i") else None
    if ket_i is None or problem.psi_i.dim != boundary.psi_perp.dim:
        raise ValueError("problem.psi_i missing or inconsistent with boundary data")
    for j in problem.forbidden:
        x = problem.basis.generators[problem.basis.index_of(j)]
        w = np.imag(phase * (bra_perp @ x @ ket_i))
        if abs(w) > 1e-9:
            return False, problem.basis.index_of(j)
    return True, None
