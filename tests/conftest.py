import numpy as np
import pytest

from modval.errors import OrthogonalPostselection
from modval.hilbert import DEFAULT_TOL, PureState, inner
from modval.protocol import PlanOutcome
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
    if abs(overlap) < DEFAULT_TOL.orthogonal:
        raise OrthogonalPostselection("postselection orthogonal to the state")


def _outcome(rows) -> PlanOutcome:
    """One ``PlanOutcome`` from per-setting (meter_proj, conditional) states."""
    d1, d2 = detector_states()
    return PlanOutcome(
        conditional_meter_amps=np.array([conditional.amps for _, conditional in rows]),
        postselection_probability=np.array([meter_proj.norm() ** 2 for meter_proj, _ in rows]),
        probabilities=np.array([[abs(inner(d1, conditional)) ** 2,
                                 abs(inner(d2, conditional)) ** 2] for _, conditional in rows]),
    )


def dense_run_protocol(cfg, settings) -> PlanOutcome:
    """Reference meter readout on the full meter (x) system space.

    For each setting in turn, builds the dense controlled-phase unitary with
    ``build_interaction``, applies it to meter (x) system, postselects the
    system with ``partial_inner`` and projects onto the detector states.
    Over ``measurement_plan(*cfg.dims)``, the library's ``run_protocol``
    must agree with it field by field.
    """
    _check_overlap(cfg)
    joint = tensor(prepare_meter(cfg.epsilon), cfg.system_state)
    rows = []
    for kind, j, l in settings:
        final = apply(build_interaction(kind, j, l, cfg.g, cfg.dims), joint)
        meter_proj = partial_inner(cfg.postselection, final)
        rows.append((meter_proj, normalize(meter_proj)))
    return _outcome(rows)
