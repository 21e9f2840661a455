"""The dense meter (x) system simulator, the independent oracle of the tests.

``modval.protocol`` reads the meter out of a diagonal phase block and never
builds a joint-space operator. These helpers do it the textbook way: the
full controlled-phase unitary on (meter A, meter B, system A, system B)
applied to meter (x) system, the system postselected with ``partial_inner``,
then ``normalize``. ``tests.conftest.dense_run_protocol`` composes them.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from modval.hilbert import (
    DEFAULT_TOL,
    LinearOperator,
    PureState,
    _product,
    _require_same_dims,
    identity,
    projector,
    tensor,
)
from modval.protocol import (
    DOWN,
    METER_DIMS,
    UP,
    InteractionKind,
    _check_setting,
    _entangled_meter,
)


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
