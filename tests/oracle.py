"""The dense meter (x) system simulator, the independent oracle of the tests.

``modval.protocol`` reads the meter out of a diagonal phase block and never
builds a joint-space operator. These helpers do it the textbook way: the
full controlled-phase unitary on (meter A, meter B, system A, system B)
applied to meter (x) system, the system postselected with ``partial_inner``,
then ``normalize``. ``tests.conftest.dense_run_protocol`` composes them.

The dense operator builders (``basis_state``, ``identity``, ``tensor``,
``projector``), the reference quantities ``weak_definitional`` and
``shift_modular``, the Pauli products ``tomography_settings`` and the
per-trial generator ``trial_rng`` (numpy's own SeedSequence, the reference
for ``modval.noise.trial_rngs``) live here too: only the tests need them.
``plan_observable`` builds a measurement-plan observable from projectors,
the reference for the diagonal observables of ``modval.reconstruction``.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from modval.hilbert import (
    DEFAULT_TOL,
    LinearOperator,
    PureState,
    _checked_dims,
    _product,
    _require_same_dims,
)
from modval.protocol import (
    DOWN,
    METER_DIMS,
    UP,
    InteractionKind,
    _check_setting,
    _entangled_meter,
)
from modval.reconstruction import _postselection_denominator

PAULIS = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


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
        if abs(np.linalg.norm(vec) - 1.0) > DEFAULT_TOL.structural:
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


def plan_observable(dims, kind: InteractionKind, j: int | None, l: int | None) -> LinearOperator:
    """A plan setting's observable: an embedded projector, or the pair's sum of two."""
    if kind == "single_a":
        return embedded("a", j, dims)
    if kind == "single_b":
        return embedded("b", l, dims)
    return pair_sum(j, l, dims)


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
    return bool(np.max(np.abs(op.mat @ op.mat - op.mat)) <= DEFAULT_TOL.structural)


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
    return PureState(METER_DIMS, _entangled_meter(epsilon))


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
    use_a, use_b = _check_setting(kind, j, l, (m, n))
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


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Trial ``trial``'s generator, seeded through numpy's own SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
