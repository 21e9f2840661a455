"""Two-qubit state tomography by linear inversion (comparison baseline).

The sixteen tensor products of single-qubit Paulis (I, X, Y, Z) form an
orthogonal operator basis; linear inversion reads

    rho = (1/4) sum_ij <sigma_i (x) sigma_j> sigma_i (x) sigma_j.

No positivity projection is applied: a noisy input can produce negative
eigenvalues, which are flagged on the result rather than repaired.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import STRUCTURAL_TOL, PureState, _abs2, _frozen_complex


def _pauli_products() -> np.ndarray:
    """sigma_i (x) sigma_j over the Paulis (I, X, Y, Z) as one read-only
    (16, 4, 4) array, ordered II, IX, ..., ZZ."""
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                       [[1, 0], [0, -1]]], dtype=np.complex128)
    products = np.array([np.kron(a, b) for a in paulis for b in paulis])
    products.flags.writeable = False
    return products


_SETTINGS = _pauli_products()


@dataclass(frozen=True)
class DensityMatrix:
    """Linear-inversion estimate; Hermitian and unit trace by construction.

    ``min_eigenvalue`` and ``positive`` (a spectrum non-negative within the
    structural tolerance, which linear inversion does not enforce) are read
    off ``mat`` on first use. A batch carries leading trial axes: ``mat`` is
    (..., 4, 4), every trial checked, and the other two are (...) arrays.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = _frozen_complex(self.mat, np.shape(self.mat))  # nan or inf fails here
        if mat.shape[-2:] != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if np.max(np.abs(mat - np.swapaxes(mat, -1, -2).conj())) > STRUCTURAL_TOL:
            raise ValueError("density matrix must be Hermitian")
        if np.max(np.abs(np.trace(mat, axis1=-2, axis2=-1).real - 1.0)) > STRUCTURAL_TOL:
            raise ValueError("density matrix must have unit trace")
        object.__setattr__(self, "mat", mat)

    @functools.cached_property
    def min_eigenvalue(self) -> float | np.ndarray:
        value = np.linalg.eigvalsh(self.mat)[..., 0]
        return float(value) if value.ndim == 0 else value

    @functools.cached_property
    def positive(self) -> bool | np.ndarray:
        return self.min_eigenvalue >= -STRUCTURAL_TOL


def pauli_expectations(psi: PureState) -> np.ndarray:
    """Exact <psi|sigma_i (x) sigma_j|psi> for all 16 settings, one stacked product."""
    if psi.dims != (2, 2):
        raise ValueError("tomography expects a two-qubit state")
    return np.vecdot(psi.amps, np.matvec(_SETTINGS, psi.amps)).real


def linear_inversion(expectations) -> DensityMatrix:
    """Density matrix from the 16 Pauli expectations (II, IX, ..., ZZ order).

    rho = (1/4) sum_i v_i sigma_i, as one product of the (16 entries, 16
    settings) coefficient matrix with the values. The values must be finite.
    Leading axes of the (..., 16) input are trials, each inverted bit for bit
    as a one-trial call.
    """
    values = np.asarray(expectations, dtype=float)
    if values.shape[-1:] != (16,):
        raise ValueError(f"expected 16 expectation values, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("expectation values must be finite")
    if np.any(np.abs(values[..., 0] - 1.0) > STRUCTURAL_TOL):
        raise ValueError("the identity-identity expectation must equal 1")
    mat = np.matvec(_SETTINGS.reshape(16, 16).T, values) / 4.0
    return DensityMatrix(mat.reshape(values.shape[:-1] + (4, 4)))


def _amplitudes(state) -> np.ndarray:
    """A PureState's amplitudes or a stack (..., d) of them, checked finite."""
    amps = state.amps if isinstance(state, PureState) else np.asarray(state, dtype=complex)
    if not np.all(np.isfinite(amps)):
        raise ValueError("entries must be finite")
    return amps


def fidelity_pure(rho: DensityMatrix, psi) -> float | np.ndarray:
    """<psi|rho|psi>; real for Hermitian rho, residual imaginary part dropped.

    ``psi`` is a PureState or amplitudes (..., 4); leading trial axes of rho
    and psi broadcast, and one trial gives a float.
    """
    amps = _amplitudes(psi)
    if getattr(psi, "dims", (2, 2)) != (2, 2) or amps.shape[-1:] != (4,):
        raise ValueError("fidelity_pure expects a two-qubit state")
    value = np.vecdot(amps, np.matvec(rho.mat, amps)).real
    return float(value) if value.ndim == 0 else value


def fidelity_states(psi, phi) -> float | np.ndarray:
    """|<psi|phi>|^2 between pure states, each overlap squared as re^2 + im^2;
    invariant under global phases.

    Either state is a PureState or amplitudes (..., d); leading trial axes
    broadcast, and one pair of states gives a float.
    """
    if isinstance(psi, PureState) and isinstance(phi, PureState) and psi.dims != phi.dims:
        raise ValueError(f"dimension mismatch: {psi.dims} vs {phi.dims}")
    fidelities = _abs2(np.vecdot(_amplitudes(psi), _amplitudes(phi)))
    return float(fidelities) if fidelities.ndim == 0 else fidelities
