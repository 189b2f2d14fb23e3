"""Pure-state boundary geometry.

Everything a solver needs to know about an (initial, final) state pair:
the Bures angle Omega_B, the relative phase phi, the orthogonal complement
|psi_f_perp> and the unrestricted (free) optimal Hamiltonian acting on
the two-dimensional subspace they span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "PureState",
    "BoundaryData",
    "DegenerateProblemError",
    "boundary_data",
    "free_hamiltonian",
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
    phi : arg <psi_i|psi_f>, in (-pi, pi]; set to 0 when the overlap
        vanishes and the phase is a free gauge choice.
    psi_perp : unit vector orthogonal to psi_i, absent when omega_b = 0.
    """

    omega_b: float
    phi: float
    psi_perp: Optional[PureState]


def boundary_data(psi_i: PureState, psi_f: PureState) -> BoundaryData:
    """Bures angle, relative phase and orthogonal complement of a state pair.

    Omega_B = arccos|<psi_i|psi_f>| (clamped), phi = arg<psi_i|psi_f>, and
    psi_perp = (psi_f - <psi_i|psi_f> psi_i)/sin(Omega_B) whenever
    sin(Omega_B) > 1e-12.  For orthogonal pairs (|<psi_i|psi_f>| <= 1e-12)
    phi is a free choice; it is set to 0.
    """
    if psi_i.dim != psi_f.dim:
        raise ValueError(f"dimension mismatch: {psi_i.dim} vs {psi_f.dim}")
    z = psi_i.overlap(psi_f)
    omega_b = float(np.arccos(min(1.0, abs(z))))
    phi = 0.0 if abs(z) <= 1e-12 else float(np.angle(z))
    psi_perp = None
    s = np.sin(omega_b)
    if s > 1e-12:
        raw = psi_f.amplitudes - z * psi_i.amplitudes
        psi_perp = PureState(raw / s)
    return BoundaryData(omega_b=omega_b, phi=phi, psi_perp=psi_perp)


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

