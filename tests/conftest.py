import numpy as np
import pytest

from modval.errors import OrthogonalPostselection
from modval.hilbert import PureState, inner
from modval.protocol import ORTHOGONAL_TOL, PlanOutcome
from tests.oracle import (
    apply,
    build_interaction,
    detector_states,
    normalize,
    partial_inner,
    prepare_meter,
    tensor,
)


def random_state(rng, dims=(2, 2)) -> PureState:
    total = int(np.prod(dims))
    vec = rng.normal(size=total) + 1j * rng.normal(size=total)
    return PureState(dims, vec / np.linalg.norm(vec))


def random_pair(rng, dims=(2, 2), min_overlap=0.05):
    """Pre/postselection pair with a non-orthogonal overlap."""
    while True:
        psi, phi = random_state(rng, dims), random_state(rng, dims)
        if abs(np.vdot(phi.amps, psi.amps)) > min_overlap:
            return psi, phi


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def _check_overlap(cfg):
    overlap = inner(cfg.postselection, cfg.system_state)
    if abs(overlap) < ORTHOGONAL_TOL:
        raise OrthogonalPostselection("postselection orthogonal to the state")


def dense_meter(cfg, kind, j=None, l=None) -> PureState:
    """The meter that setting ``(kind, j, l)`` leaves once the system is postselected,
    unnormalized, on the full meter (x) system space: the dense controlled-phase
    unitary of ``build_interaction`` applied to meter (x) system, then ``partial_inner``.
    Its squared norm is the postselection probability."""
    joint = tensor(prepare_meter(cfg.epsilon), cfg.system_state)
    final = apply(build_interaction(kind, j, l, cfg.g, cfg.dims), joint)
    return partial_inner(cfg.postselection, final)


def _outcome(meters) -> PlanOutcome:
    """One ``PlanOutcome`` from per-setting unnormalized meter states."""
    d1, d2 = detector_states()
    conditionals = [normalize(meter) for meter in meters]
    return PlanOutcome(
        postselection_probability=np.array([meter.norm() ** 2 for meter in meters]),
        probabilities=np.array([[abs(inner(d1, conditional)) ** 2,
                                 abs(inner(d2, conditional)) ** 2]
                                for conditional in conditionals]),
    )


def dense_run_protocol(cfg, settings) -> PlanOutcome:
    """Reference meter readout on the full meter (x) system space.

    For each setting in turn, takes the postselected meter of ``dense_meter``,
    normalizes it and projects it onto the detector states. Over the oracle's
    ``measurement_plan(*cfg.dims)``, the library's ``run_protocol`` must agree
    with it field by field: the postselection probability and the two
    detector rates.
    """
    _check_overlap(cfg)
    return _outcome([dense_meter(cfg, *setting) for setting in settings])
