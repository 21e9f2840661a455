"""Two-qubit state tomography by linear inversion (comparison baseline).

The sixteen tensor products of single-qubit Paulis (I, X, Y, Z) form an
orthogonal operator basis; linear inversion reads

    rho = (1/4) sum_ij <sigma_i (x) sigma_j> sigma_i (x) sigma_j.

No positivity projection is applied: a noisy input can produce negative
eigenvalues, which are flagged on the result rather than repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DEFAULT_TOL, LinearOperator, PureState, inner

PAULI_LABELS = ("I", "X", "Y", "Z")
_PAULIS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

SETTING_LABELS = tuple(a + b for a in PAULI_LABELS for b in PAULI_LABELS)
_SETTINGS = tuple(LinearOperator((2, 2), np.kron(_PAULIS[a], _PAULIS[b]))
                  for a in PAULI_LABELS for b in PAULI_LABELS)


@dataclass(frozen=True)
class DensityMatrix:
    """Linear-inversion estimate; Hermitian and unit trace by construction.

    ``positive`` records whether the spectrum is non-negative (within the
    structural tolerance); linear inversion does not enforce it.
    """

    mat: np.ndarray
    min_eigenvalue: float
    positive: bool

    def __post_init__(self):
        mat = np.array(self.mat, dtype=np.complex128)
        if mat.shape != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if np.max(np.abs(mat - mat.conj().T)) > DEFAULT_TOL.structural:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(mat).real - 1.0) > DEFAULT_TOL.structural:
            raise ValueError("density matrix must have unit trace")
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)


def tomography_settings() -> tuple[LinearOperator, ...]:
    """The 16 Pauli-product observables, ordered II, IX, ..., ZZ."""
    return _SETTINGS


def pauli_expectations(psi: PureState) -> np.ndarray:
    """Exact <psi|sigma_i (x) sigma_j|psi> for all 16 settings."""
    if psi.dims != (2, 2):
        raise ValueError("tomography expects a two-qubit state")
    return np.array([np.vdot(psi.amps, obs.mat @ psi.amps).real
                     for obs in _SETTINGS])


def linear_inversion(expectations, *, identity_tol: float = 1e-6) -> DensityMatrix:
    """Density matrix from the 16 Pauli expectations (II, IX, ..., ZZ order)."""
    values = np.asarray(expectations, dtype=float).reshape(-1)
    if values.size != 16:
        raise ValueError(f"expected 16 expectation values, got {values.size}")
    if abs(values[0] - 1.0) > identity_tol:
        raise ValueError("the identity-identity expectation must equal 1")
    mat = np.zeros((4, 4), dtype=np.complex128)
    for value, obs in zip(values, _SETTINGS):
        mat += value * obs.mat
    mat /= 4.0
    eigenvalues = np.linalg.eigvalsh(mat)
    min_eig = float(eigenvalues[0])
    return DensityMatrix(mat, min_eig, min_eig >= -DEFAULT_TOL.structural)


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi|rho|psi>; real for Hermitian rho, residual imaginary part dropped."""
    if psi.dims != (2, 2):
        raise ValueError("fidelity_pure expects a two-qubit state")
    return float(np.vdot(psi.amps, rho.mat @ psi.amps).real)


def fidelity_states(psi: PureState, phi: PureState) -> float:
    """|<psi|phi>|^2 between pure states; invariant under global phases."""
    return abs(inner(psi, phi)) ** 2
