"""Preparation-interaction-postselection-detection pipeline.

Two path qubits form the meter, one per subsystem; the bipartite system
carries the state being measured. The joint space is laid out with factor
order (meter_A, meter_B, system_A, system_B); meter basis is up=0, down=1.

The meter starts in (|ud> + eps |du>)/sqrt(1+eps^2). A controlled phase
couples meter and system: the A side applies exp(-i*g*P_j) to system A on
the meter-A |down> component, the B side applies exp(-i*g*P_l) to system B
on the meter-B |up> component. After postselecting the system, the meter
is read out against two detector states, (|ud> + |du>)/sqrt2 and
(|ud> + i|du>)/sqrt2, whose probabilities carry the real and imaginary
parts of the setting's modular value.

``measurement_plan`` fixes the settings and their order, the one index of
every per-setting quantity, and ``split_plan`` cuts plan-ordered values into
its blocks. Every plan observable is the indicator of a row j of A plus that
of a column l of B, so its unitary is (1 + s*a_j)(1 + s*b_l) with
s = e^{-ig} - 1. The entangled meter populates only |ud>, which sees no
phase, and |du>, which sees both, so postselecting the system on <phi| leaves
the meter in (<phi|psi>, eps*<phi|U_k|psi>)/sqrt(1+eps^2). With
X = conj(phi)*psi as an m x n matrix, T = <phi|psi>, R its row sums and C its
column sums, every overlap is a four-term sum: T + s*R_j (single_a),
T + s*C_l (single_b) and T + s*R_j + s*C_l + s^2*X_jl (pair). ``run_protocol``
reads the whole plan out of these overlaps in O(m*n), and
``reconstruction.definitional_modulars`` divides them by T. No joint-space
operator is built; the tests build the dense unitary and check the readout
against it.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import OrthogonalPostselection
from .hilbert import STRUCTURAL_TOL, PureState, _abs2, inner

# joint meter basis indices: |ud> is the reference component, |du> the signal
IDX_UP_DOWN = 1
IDX_DOWN_UP = 2

# smallest |s| = |e^{-ig} - 1| accepted: weak values are divided by s and s^2
_MIN_S = 1e-6
# smallest meter asymmetry accepted: the readout (p - 1/2)/epsilon loses
# log10(1/epsilon) digits, and the exact inversion's worst infidelity on
# fig4a-d and near-uniform 7x5 states grows from 1e-13 at 1e-8 to 2e-5 at
# 1e-12 and 0.27 at 1e-14
_MIN_EPSILON = 1e-8
# smallest postselection overlap |<phi|psi>| accepted: modular values divide by it
ORTHOGONAL_TOL = 1e-6


def _check_epsilon(epsilon) -> None:
    """The meter asymmetry's one rule, for ``ProtocolConfig`` and every inversion of
    detector probabilities: epsilon lies in [1e-8, 1], which nan and inf fail."""
    if not _MIN_EPSILON <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [1e-8, 1]")


@dataclass(frozen=True)
class ProtocolConfig:
    """One measurement configuration: states and coupling.

    ``g`` defaults to pi so the s-parameter e^{-ig}-1 equals -2; it must be
    finite with |s| >= 1e-6 (at g = 0 or 2*pi the meter carries no signal).
    epsilon is the meter asymmetry (0.2 in the reference setting), in
    [1e-8, 1]: a smaller one leaves too few digits in the readout. Both are
    real numbers, never bools.
    """

    system_state: PureState
    postselection: PureState
    epsilon: float = 0.2
    g: float = math.pi

    def __post_init__(self):
        for name in ("epsilon", "g"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
        if len(self.system_state.dims) != 2:
            raise ValueError("system state must have exactly two factors")
        if self.postselection.dims != self.system_state.dims:
            raise ValueError("postselection dims must match the system state")
        for name, state in (("system_state", self.system_state),
                            ("postselection", self.postselection)):
            if abs(state.norm() - 1.0) > STRUCTURAL_TOL:
                raise ValueError(f"{name} must be normalized")
        _check_epsilon(self.epsilon)
        try:
            finite = math.isfinite(self.g)
        except OverflowError:  # an int beyond the float range
            raise ValueError("coupling g must be finite, got an integer beyond the float "
                             "range") from None
        if not finite:
            raise ValueError(f"coupling g must be finite, got {self.g!r}")
        if abs(s_parameter(self.g)) < _MIN_S:
            raise ValueError(
                f"coupling g = {self.g!r} makes s = e^(-ig) - 1 vanish "
                f"(|s| < {_MIN_S:g}); weak values cannot be recovered"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return self.system_state.dims


def s_parameter(g: float) -> complex:
    """s = e^{-ig} - 1; equals -2 at the default coupling g = pi."""
    return cmath.exp(-1j * float(g)) - 1.0


def _postselection_overlap(cfg: ProtocolConfig) -> complex:
    """<postselection|state>, or OrthogonalPostselection when its magnitude falls
    below ORTHOGONAL_TOL: every modular value diverges there."""
    overlap = inner(cfg.postselection, cfg.system_state)
    if abs(overlap) < ORTHOGONAL_TOL:
        raise OrthogonalPostselection(
            f"|<postselection|state>| = {abs(overlap):.3e} < {ORTHOGONAL_TOL:.3e}"
        )
    return overlap


def measurement_plan(m: int, n: int) -> tuple[tuple[str, int | None, int | None], ...]:
    """Settings ``(kind, j, l)`` for an m x n system: singles on each side, then all pairs.

    ``kind`` is "single_a", "single_b" or "pair"; an unused index is None.
    Plan size is (m-1)+(n-1)+(m-1)(n-1) = m*n - 1 settings; with a real and
    an imaginary part each that is 2*m*n - 2 numbers, exactly the parameter
    count of a normalized state with one global phase removed. The plan
    depends only on (m, n) and is an immutable tuple; the readout follows its
    order in closed form (``_plan_overlaps``) and never builds it.
    """
    if m < 2 or n < 2:
        raise ValueError("both subsystem dimensions must be at least 2")
    return (tuple(("single_a", j, None) for j in range(1, m))
            + tuple(("single_b", None, l) for l in range(1, n))
            + tuple(("pair", j, l) for j in range(1, m) for l in range(1, n)))


def split_plan(values, dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut plan-ordered values (..., S) into the single_a (..., m-1), single_b
    (..., n-1) and pair (..., m-1, n-1) blocks; index j >= 1 sits at j-1."""
    m, n = dims
    values = np.asarray(values)
    return (values[..., :m - 1], values[..., m - 1:m + n - 2],
            values[..., m + n - 2:].reshape(values.shape[:-1] + (m - 1, n - 1)))


@dataclass(frozen=True)
class PlanOutcome:
    """Meter readout of the S plan settings; every field has the leading (S,) plan axis."""

    conditional_meter_amps: np.ndarray  # (S, 4) complex, unit norm
    postselection_probability: np.ndarray  # (S,)
    # (S, 2) rates of detectors d1 and d2, which carry Re and Im of the modular value
    probabilities: np.ndarray


def _plan_overlaps(cfg: ProtocolConfig) -> tuple[complex, np.ndarray]:
    """T = <phi|psi> and every plan setting's <phi|U_k|psi>, (S,) in plan order.

    U_k = 1 + s*a_j + s*b_l + s^2*a_j*b_l on the system, so each overlap sums
    T, s times a row sum R_j and a column sum C_l of X = conj(phi)*psi, and
    for a pair s^2*X_jl. Raises OrthogonalPostselection as the readout does.
    """
    total = _postselection_overlap(cfg)
    m, n = cfg.dims
    s = s_parameter(cfg.g)
    x = (cfg.postselection.amps.conj() * cfg.system_state.amps).reshape(m, n)
    single_a = total + s * x[1:].sum(axis=1)
    column_terms = s * x[:, 1:].sum(axis=0)
    pairs = single_a[:, None] + column_terms + (s * s) * x[1:, 1:]
    return total, np.concatenate([single_a, total + column_terms, pairs.ravel()])


def run_protocol(cfg: ProtocolConfig) -> PlanOutcome:
    """Run the measurement plan end to end and read out the meter.

    Postselection leaves setting k's meter in (T, eps*<phi|U_k|psi>)/sqrt(1+eps^2)
    on (|ud>, |du>), with the overlaps of ``_plan_overlaps``: O(m*n) work for
    the whole plan and no joint-space operator. Its squared norm is the
    postselection probability. The factor 1/sqrt(1+eps^2) cancels from the
    normalized state and from the detector rates |T + eps*<phi|U_k|psi>|^2 and
    |T - i*eps*<phi|U_k|psi>|^2 over twice the squared norm of (T, eps*<phi|U_k|psi>).
    Row k of the ``PlanOutcome`` is setting k of ``measurement_plan(*cfg.dims)``.
    Raises OrthogonalPostselection when the overlap |<postselection|system>|
    falls below ORTHOGONAL_TOL (the modular value diverges there and
    no meter readout is meaningful).
    """
    total, overlaps = _plan_overlaps(cfg)
    signal = cfg.epsilon * overlaps
    weight = _abs2(total) + _abs2(signal)
    conditional = np.zeros((len(signal), 4), dtype=np.complex128)
    conditional[:, IDX_UP_DOWN] = total
    conditional[:, IDX_DOWN_UP] = signal
    conditional /= np.sqrt(weight)[:, None]
    # the detectors (|ud> + |du>)/sqrt2 and (|ud> + i|du>)/sqrt2
    detected = np.stack([total + signal, total - 1j * signal], axis=-1)
    return PlanOutcome(
        conditional_meter_amps=conditional,
        postselection_probability=weight / (1.0 + cfg.epsilon * cfg.epsilon),
        probabilities=_abs2(detected) / (2.0 * weight[:, None]),
    )
