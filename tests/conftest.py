import numpy as np
import pytest

from modval.errors import OrthogonalPostselection
from modval.hilbert import DEFAULT_TOL, PureState, inner
from modval.protocol import (
    METER_DIMS,
    MeterOutcome,
    _check_setting,
    _detectors,
    _initial_meter,
)
from modval.reconstruction import measurement_plan
from tests.oracle import apply, build_interaction, normalize, partial_inner, tensor


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


def dense_run_protocol(cfg, kind, j=None, l=None):
    """Reference meter readout on the full meter (x) system space.

    Builds the dense controlled-phase unitary with ``build_interaction``,
    applies it to meter (x) system, postselects the system with
    ``partial_inner`` and projects onto the detector states. The library's
    ``run_protocol`` must agree with it field by field.
    """
    overlap = inner(cfg.postselection, cfg.system_state)
    if abs(overlap) < DEFAULT_TOL.orthogonal:
        raise OrthogonalPostselection("postselection orthogonal to the state")
    meter0 = PureState(METER_DIMS, _initial_meter(cfg, kind))
    joint = tensor(meter0, cfg.system_state)
    final = apply(build_interaction(kind, j, l, cfg.g, cfg.dims), joint)
    meter_proj = partial_inner(cfg.postselection, final)
    conditional = normalize(meter_proj)
    d1, d2, t1, t2 = _detectors(kind, cfg.meter_mode)
    return MeterOutcome(
        conditional_meter_state=conditional,
        postselection_probability=meter_proj.norm() ** 2,
        p1=abs(inner(d1, conditional)) ** 2,
        p2=abs(inner(d2, conditional)) ** 2,
        p1_tilde=abs(inner(t1, conditional)) ** 2,
        p2_tilde=abs(inner(t2, conditional)) ** 2,
    )


def per_setting_run_protocol(cfg, kind, j=None, l=None):
    """The one-setting diagonal readout that ``run_protocol`` batches.

    One (4, m*n) phase block per setting, a gemv with conj(phi), then
    ``normalize`` and ``inner`` on ``PureState`` objects: the batched
    readout must reproduce it bit for bit.
    """
    overlap = inner(cfg.postselection, cfg.system_state)
    if abs(overlap) < DEFAULT_TOL.orthogonal:
        raise OrthogonalPostselection("postselection orthogonal to the state")
    meter0 = _initial_meter(cfg, kind)
    use_a, use_b = _check_setting(kind, j, l, cfg.dims)
    m, n = cfg.dims
    phase = 1.0 + (np.exp(-1j * float(cfg.g)) - 1.0)
    a = np.ones((m, n), dtype=np.complex128)
    b = np.ones((m, n), dtype=np.complex128)
    if use_a:
        a[j, :] = phase
    if use_b:
        b[:, l] = phase
    a, b = a.reshape(-1), b.reshape(-1)
    phases = np.stack([b, np.ones(m * n, dtype=np.complex128), a * b, a])
    psi, phi = cfg.system_state.amps, cfg.postselection.amps
    joint = meter0[:, None] * psi[None, :]
    meter_proj = PureState(METER_DIMS, (phases * joint) @ phi.conj())
    conditional = normalize(meter_proj)
    d1, d2, t1, t2 = _detectors(kind, cfg.meter_mode)
    return MeterOutcome(
        conditional_meter_state=conditional,
        postselection_probability=meter_proj.norm() ** 2,
        p1=abs(inner(d1, conditional)) ** 2,
        p2=abs(inner(d2, conditional)) ** 2,
        p1_tilde=abs(inner(t1, conditional)) ** 2,
        p2_tilde=abs(inner(t2, conditional)) ** 2,
    )


def per_setting_probabilities(cfg):
    """(S, 2) detector probabilities from one ``per_setting_run_protocol`` per plan entry."""
    outcomes = [per_setting_run_protocol(cfg, kind, j, l)
                for kind, j, l in measurement_plan(*cfg.dims)]
    return np.array([(outcome.p1, outcome.p2) for outcome in outcomes])
