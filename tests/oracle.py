"""The dense meter (x) system simulator, the independent oracle of the tests.

``modval.protocol`` reads the meter out of closed-form plan overlaps and
never builds a joint-space operator. These helpers do it the textbook way: the
full controlled-phase unitary on (meter A, meter B, system A, system B)
applied to meter (x) system, the system postselected with ``partial_inner``,
then ``normalize`` and the two detector states of ``detector_states``.
``tests.conftest.dense_run_protocol`` composes them.

The dense operator type ``LinearOperator`` and its builders (``basis_state``,
``identity``, ``tensor``, ``projector``), the reference quantities
``modular_definitional`` (a dense ``eigh`` exponential of any Hermitian
observable), ``weak_definitional`` and ``shift_modular``, the Pauli products
``tomography_settings`` and the row-by-row draw ``row_by_row_counts`` (the
reference for ``modval.noise._binomial_counts``) live here too: only the
tests need them. So does the shot-noise oracle: the closed-form
readout ``forward_probabilities`` and the delta-method spread ``modular_std``
of modular values inverted from counted frequencies.
``plan_observable`` builds a measurement-plan observable from projectors,
and ``plan_diagonals`` reads every plan observable's diagonal off it: the
row-plus-column structure that ``modval.protocol``'s closed form rests on.
``modval.protocol`` reads out only its own measurement plan, so the
validation of a caller's ``(kind, j, l)`` setting, ``check_setting``, lives
here with the dense builders that take any setting.

The loop forms that the library replaced with whole-array calls stay here as
references: ``loop_pauli_expectations`` (one ``np.vdot`` per setting), which
the library matches bit for bit, and ``loop_linear_inversion`` (the 16-term
sum) and ``per_quantity_estimates`` (each Monte Carlo estimate reduced on its
own with ``modval.noise._complex_stats``), which it matches within the
tolerances the tests state: they add in another order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from modval.errors import OrthogonalPostselection
from modval.hilbert import (
    STRUCTURAL_TOL,
    PureState,
    _checked_dims,
    _frozen_complex,
    _product,
    _require_same_dims,
    inner,
)
from modval.noise import _complex_stats
from modval.protocol import IDX_DOWN_UP, IDX_UP_DOWN, ORTHOGONAL_TOL, measurement_plan
from modval.tomography import fidelity_states

# the meter: two path qubits (A, B), each with levels up and down
UP, DOWN = 0, 1
METER_DIMS = (2, 2)

InteractionKind = Literal["pair", "single_a", "single_b"]

PAULIS = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


@dataclass(frozen=True)
class LinearOperator:
    """Square complex matrix acting on a declared factor structure."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        total = _product(dims)
        mat = np.asarray(self.mat)
        if mat.shape != (total, total):
            raise ValueError(
                f"matrix shape {mat.shape} does not match dims {dims} (side {total})"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mat", _frozen_complex(mat, (total, total)))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def basis_state(dims, index: int) -> PureState:
    """Computational basis vector |index> on the given factor structure."""
    dims = _checked_dims(dims)
    total = _product(dims)
    if not 0 <= index < total:
        raise ValueError(f"basis index {index} out of range for dimension {total}")
    amps = np.zeros(total, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(dims, amps)


def identity(dims) -> LinearOperator:
    return LinearOperator(_checked_dims(dims), np.eye(_product(dims), dtype=np.complex128))


def tensor(a, b):
    """Tensor product of two states or two operators (Kronecker convention).

    The result's dims are the concatenation; lexicographic basis order makes
    this a plain ``np.kron`` on the amplitudes/matrices.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.dims + b.dims, np.kron(a.amps, b.amps))
    if isinstance(a, LinearOperator) and isinstance(b, LinearOperator):
        return LinearOperator(a.dims + b.dims, np.kron(a.mat, b.mat))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def projector(dims, target) -> LinearOperator:
    """Rank-1 projector |v><v| from a basis index or a unit vector.

    A vector target must already be normalized (within the structural
    tolerance); a non-normalized vector is an error, not silently fixed.
    """
    dims = _checked_dims(dims)
    total = _product(dims)
    if isinstance(target, (int, np.integer)):
        vec = basis_state(dims, int(target)).amps
    else:
        vec = np.asarray(target.amps if isinstance(target, PureState) else target,
                         dtype=np.complex128).reshape(-1)
        if vec.size != total:
            raise ValueError(f"vector length {vec.size} does not match dims {dims}")
        if abs(np.linalg.norm(vec) - 1.0) > STRUCTURAL_TOL:
            raise ValueError("projector target vector is not normalized")
    return LinearOperator(dims, np.outer(vec, vec.conj()))


def embedded(side: Literal["a", "b"], index: int, dims=(2, 2)) -> LinearOperator:
    """|index><index| on system A (side "a") or B, identity on the other side."""
    m, n = dims
    if side == "a":
        return tensor(projector((m,), index), identity((n,)))
    return tensor(identity((m,)), projector((n,), index))


def pair_sum(j: int, l: int, dims=(2, 2)) -> LinearOperator:
    return LinearOperator(dims, embedded("a", j, dims).mat + embedded("b", l, dims).mat)


def pair_product(j: int, l: int, dims=(2, 2)) -> LinearOperator:
    return LinearOperator(dims, embedded("a", j, dims).mat @ embedded("b", l, dims).mat)


def check_setting(kind: InteractionKind, j: int | None, l: int | None,
                  dims) -> tuple[bool, bool]:
    """Validate one setting; returns which sides (A, B) it couples."""
    m, n = dims
    if kind not in ("pair", "single_a", "single_b"):
        raise ValueError(f"unknown interaction kind {kind!r}")
    use_a = kind in ("pair", "single_a")
    use_b = kind in ("pair", "single_b")
    if use_a and (j is None or not 0 <= j < m):
        raise ValueError(f"system-A index {j} out of range for dimension {m}")
    if use_b and (l is None or not 0 <= l < n):
        raise ValueError(f"system-B index {l} out of range for dimension {n}")
    return use_a, use_b


def plan_observable(dims, kind: InteractionKind, j: int | None, l: int | None) -> LinearOperator:
    """A setting's observable: an embedded projector, or the pair's sum of two."""
    use_a, use_b = check_setting(kind, j, l, dims)
    if not use_b:
        return embedded("a", j, dims)
    if not use_a:
        return embedded("b", l, dims)
    return pair_sum(j, l, dims)


def plan_diagonals(dims) -> np.ndarray:
    """Diagonal of every plan observable, (S, m*n) intp in plan order, from ``plan_observable``."""
    return np.array([np.diag(plan_observable(dims, *setting).mat).real
                     for setting in measurement_plan(*dims)]).astype(np.intp)


def _postselection_denominator(psi: PureState, phi: PureState) -> complex:
    den = inner(phi, psi)
    if abs(den) < ORTHOGONAL_TOL:
        raise OrthogonalPostselection(
            f"|<phi|psi>| = {abs(den):.3e} < {ORTHOGONAL_TOL:.3e}"
        )
    return den


def modular_definitional(observable, g: float, psi: PureState, phi: PureState) -> complex:
    """<phi|exp(-i*g*O)|psi> / <phi|psi> via a dense matrix exponential.

    ``observable`` is a square Hermitian array on the state's product basis.
    exp(-i*g*O) is built from the eigendecomposition O = V diag(lam) V^dagger
    as V diag(e^{-i*g*lam}) V^dagger, so O must be Hermitian; a
    non-Hermitian observable is rejected instead of silently computing
    something else.
    """
    mat = np.asarray(observable, dtype=np.complex128)
    if mat.shape != (psi.dim, psi.dim):
        raise ValueError(f"observable shape {mat.shape} does not match the state "
                         f"(side {psi.dim})")
    if not np.all(np.isfinite(mat)):
        raise ValueError("observable entries must be finite")
    if np.max(np.abs(mat - mat.conj().T)) > STRUCTURAL_TOL:
        raise ValueError("modular_definitional requires a Hermitian observable")
    den = _postselection_denominator(psi, phi)
    lam, vecs = np.linalg.eigh(mat)
    evolved = (vecs * np.exp(-1j * float(g) * lam)) @ (vecs.conj().T @ psi.amps)
    return complex(np.vdot(phi.amps, evolved) / den)


def weak_definitional(observable: LinearOperator, psi: PureState, phi: PureState) -> complex:
    """<phi|O|psi> / <phi|psi>."""
    if observable.dims != psi.dims:
        raise ValueError("observable dims must match the state")
    den = _postselection_denominator(psi, phi)
    return complex(np.vdot(phi.amps, observable.mat @ psi.amps) / den)


def shift_modular(value: complex, c: float, s: complex) -> complex:
    """Modular value after shifting the observable by c times the identity.

    Shifting O -> cI + O multiplies exp(-i*g*O) by the scalar e^{-i*g*c},
    which in terms of s = e^{-ig} - 1 is (1+s)^c. Non-integer c uses the
    principal branch of the complex power; the measurement plan only ever
    needs integer c.
    """
    return (1.0 + s) ** c * value


def tomography_settings() -> tuple[LinearOperator, ...]:
    """The 16 Pauli-product observables sigma_i (x) sigma_j, ordered II, IX, ..., ZZ."""
    return tuple(LinearOperator((2, 2), np.kron(a, b)) for a in PAULIS for b in PAULIS)


def is_idempotent(op: LinearOperator) -> bool:
    return bool(np.max(np.abs(op.mat @ op.mat - op.mat)) <= STRUCTURAL_TOL)


def exp_projector_phase(proj: LinearOperator, g: float) -> LinearOperator:
    """exp(-i*g*P) for an idempotent P, via the closed form I + (e^{-ig}-1) P.

    Equals the dense matrix exponential of -i*g*P; unitary whenever P is
    Hermitian. Rejects non-idempotent input instead of silently computing
    something else.
    """
    if not is_idempotent(proj):
        raise ValueError("exp_projector_phase requires an idempotent operator")
    phase = np.exp(-1j * float(g)) - 1.0
    mat = np.eye(proj.dim, dtype=np.complex128) + phase * proj.mat
    return LinearOperator(proj.dims, mat)


def apply(op: LinearOperator, state: PureState) -> PureState:
    _require_same_dims(op, state)
    return PureState(state.dims, op.mat @ state.amps)


def normalize(state: PureState) -> PureState:
    n = state.norm()
    if n < 1e-150:
        raise ValueError("cannot normalize a zero state")
    return PureState(state.dims, state.amps / n)


def partial_inner(phi: PureState, state: PureState) -> PureState:
    """Contract ``phi`` against the trailing factors of ``state``.

    Returns the (unnormalized) state left on the leading factors,
    (<phi| on trailing part) |state>; its squared norm is the probability
    of finding the trailing part in |phi>.
    """
    k = len(phi.dims)
    if k >= len(state.dims) or state.dims[-k:] != phi.dims:
        raise ValueError(
            f"trailing dims {state.dims} do not end with {phi.dims}"
        )
    lead = state.dims[:-k]
    block = state.amps.reshape(_product(lead), phi.dim)
    return PureState(lead, block @ phi.amps.conj())


def prepare_meter(epsilon: float) -> PureState:
    """Initial two-part meter (|ud> + eps |du>)/sqrt(1+eps^2)."""
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    amps = np.zeros(4, dtype=np.complex128)
    scale = 1.0 / math.sqrt(1.0 + epsilon * epsilon)
    amps[IDX_UP_DOWN] = scale
    amps[IDX_DOWN_UP] = epsilon * scale
    return PureState(METER_DIMS, amps)


def detector_states() -> tuple[PureState, PureState]:
    """The detectors (|ud> + |du>)/sqrt2 and (|ud> + i|du>)/sqrt2 on the meter."""
    def detector(phase: complex) -> PureState:
        amps = np.zeros(4, dtype=np.complex128)
        amps[IDX_UP_DOWN] = 1.0 / math.sqrt(2.0)
        amps[IDX_DOWN_UP] = phase / math.sqrt(2.0)
        return PureState(METER_DIMS, amps)

    return detector(1.0), detector(1j)


def _meter_side_projector(side: Literal["a", "b"]) -> LinearOperator:
    # A couples on its |down> component, B on its |up> component
    level = DOWN if side == "a" else UP
    return projector((2,), level)


def build_interaction(kind: InteractionKind, j: int | None, l: int | None,
                      g: float, dims) -> LinearOperator:
    """Controlled-phase unitary on the joint meter (x) system space.

    kind="single_a" couples meter A to system-A projector |j><j| only,
    kind="single_b" couples meter B to system-B projector |l><l| only,
    kind="pair" applies both (the two controlled phases commute).

    ``run_protocol`` never builds this operator; it is the dense reference
    the diagonal readout is checked against.
    """
    m, n = (int(d) for d in dims)
    use_a, use_b = check_setting(kind, j, l, (m, n))
    mat = None
    if use_a:
        q_a = tensor(tensor(_meter_side_projector("a"), identity((2,))),
                     tensor(projector((m,), j), identity((n,))))
        mat = exp_projector_phase(q_a, g).mat
    if use_b:
        q_b = tensor(tensor(identity((2,)), _meter_side_projector("b")),
                     tensor(identity((m,)), projector((n,), l)))
        exp_b = exp_projector_phase(q_b, g).mat
        mat = exp_b if mat is None else mat @ exp_b
    return LinearOperator((2, 2, m, n), mat)


def row_by_row_counts(probabilities, pairs: int, seed: int, trials: int) -> np.ndarray:
    """(T, k) counts drawn on one ``default_rng(seed)`` with one binomial call per row, in
    trial order: the reference for ``modval.noise._binomial_counts``."""
    rng = np.random.default_rng(seed)
    return np.array([rng.binomial(pairs, probabilities) for _ in range(trials)])


def forward_probabilities(modulars, epsilon: float):
    """(p1, p2): the detector probabilities of modular values read at ``epsilon``, from
    the conditional-meter closed form; elementwise over an array of modular values."""
    denom = 2.0 * (1.0 + epsilon * epsilon * np.abs(modulars) ** 2)
    return (np.abs(1.0 + epsilon * modulars) ** 2 / denom,
            np.abs(1.0 - 1j * epsilon * modulars) ** 2 / denom)


def modular_std(modulars, epsilon: float, pairs: int) -> np.ndarray:
    """Delta-method std(Re M) + 1j*std(Im M) of modular values inverted from the
    detector frequencies of ``pairs`` photon pairs per setting.

    Each frequency has variance p(1 - p)/N, independent across settings and
    detectors. The inversion's Jacobian is the inverse of the forward model's
    d(p1, p2)/d(Re M, Im M), taken by central differences.
    """
    modulars = np.asarray(modulars, dtype=np.complex128)
    step = 1e-6
    columns = [(np.array(forward_probabilities(modulars + shift, epsilon))
                - np.array(forward_probabilities(modulars - shift, epsilon))) / (2 * step)
               for shift in (step, 1j * step)]
    # (parts, probabilities, ...) -> (..., probabilities, parts)
    inverse = np.linalg.inv(np.moveaxis(np.array(columns), (0, 1), (-1, -2)))
    p = np.moveaxis(np.array(forward_probabilities(modulars, epsilon)), 0, -1)
    variance = np.sum(inverse ** 2 * (p * (1.0 - p) / pairs)[..., None, :], axis=-1)
    return np.sqrt(variance[..., 0]) + 1j * np.sqrt(variance[..., 1])


def loop_linear_inversion(expectations) -> np.ndarray:
    """(..., 4, 4) density matrices from (..., 16) Pauli expectations, each of the 16
    settings' terms added in II, ..., ZZ order into a zeroed matrix, then divided by 4."""
    values = np.asarray(expectations, dtype=float)
    mat = np.zeros(values.shape[:-1] + (4, 4), dtype=np.complex128)
    for value, obs in zip(np.moveaxis(values, -1, 0), tomography_settings()):
        mat += value[..., None, None] * obs.mat
    mat /= 4.0
    return mat


def loop_pauli_expectations(psi: PureState) -> np.ndarray:
    """<psi|sigma_i (x) sigma_j|psi>, one ``np.vdot`` per setting."""
    return np.array([np.vdot(psi.amps, obs.mat @ psi.amps).real
                     for obs in tomography_settings()])


def per_quantity_estimates(kept: np.ndarray, result, system_state: PureState) -> dict:
    """(mean, std) of each ``MonteCarloResult`` field over the kept trials of a
    ``noisy_trials`` result, every quantity reduced on its own."""
    amplitudes = result.amplitudes[kept]
    fidelity = fidelity_states(system_state, amplitudes.reshape(len(amplitudes), -1))
    return {"amplitudes": _complex_stats(amplitudes),
            "weak_values": _complex_stats(result.weak_values[kept]),
            "modulars": _complex_stats(result.modulars[kept]),
            "normalizer": _complex_stats(result.normalizer[kept]),
            "fidelity": _complex_stats(fidelity)}
