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
its blocks. Every coupling is diagonal in the product basis, so
``run_protocol`` reads out the whole plan at once. The entangled meter
populates only |ud> and |du>, so each setting needs only those two rows of
phases: an (S, 2, m*n) block times their rows of meter (x) system,
contracted with the postselection in one stacked matmul, then normalized
and projected onto the one (2, 4) detector block that serves every setting.
No joint-space operator is built; the tests build the dense unitary and
check the readout against it.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OrthogonalPostselection
from .hilbert import DEFAULT_TOL, PureState, inner

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
            if abs(state.norm() - 1.0) > DEFAULT_TOL.structural:
                raise ValueError(f"{name} must be normalized")
        if not _MIN_EPSILON <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [1e-8, 1]")
        try:
            finite = math.isfinite(self.g)
        except OverflowError:  # an int beyond the float range
            raise ValueError("coupling g must be finite, got an integer beyond the float "
                             "range") from None
        if not finite:
            raise ValueError(f"coupling g must be finite, got {self.g!r}")
        if abs(cmath.exp(-1j * self.g) - 1.0) < _MIN_S:
            raise ValueError(
                f"coupling g = {self.g!r} makes s = e^(-ig) - 1 vanish "
                f"(|s| < {_MIN_S:g}); weak values cannot be recovered"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return self.system_state.dims


def _postselection_overlap(cfg: ProtocolConfig) -> complex:
    """<postselection|state>, or OrthogonalPostselection when its magnitude falls
    below DEFAULT_TOL.orthogonal: every modular value diverges there."""
    overlap = inner(cfg.postselection, cfg.system_state)
    if abs(overlap) < DEFAULT_TOL.orthogonal:
        raise OrthogonalPostselection(
            f"|<postselection|state>| = {abs(overlap):.3e} < {DEFAULT_TOL.orthogonal:.3e}"
        )
    return overlap


def _entangled_meter(epsilon: float) -> np.ndarray:
    """Initial meter amplitudes (4,), the same for every setting."""
    amps = np.zeros(4, dtype=np.complex128)
    scale = 1.0 / math.sqrt(1.0 + epsilon * epsilon)
    amps[IDX_UP_DOWN] = scale
    amps[IDX_DOWN_UP] = epsilon * scale
    return amps


@functools.lru_cache(maxsize=32)
def measurement_plan(m: int, n: int) -> tuple[tuple[str, int | None, int | None], ...]:
    """Settings ``(kind, j, l)`` for an m x n system: singles on each side, then all pairs.

    ``kind`` is "single_a", "single_b" or "pair"; an unused index is None.
    Plan size is (m-1)+(n-1)+(m-1)(n-1) = m*n - 1 settings; with a real and
    an imaginary part each that is 2*m*n - 2 numbers, exactly the parameter
    count of a normalized state with one global phase removed. The plan
    depends only on (m, n), so it is built once per size (the last 32 sizes
    are kept), shared, and immutable.
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


# detector amplitudes d1 = (|ud> + |du>)/sqrt2 and d2 = (|ud> + i|du>)/sqrt2 on the
# joint meter basis (uu, ud, du, dd); the same two detectors read out every kind
_DETECTORS = np.array([[0, 1, 1, 0], [0, 1, 1j, 0]]) / math.sqrt(2.0)
_DETECTORS.flags.writeable = False

# settings contracted per block: each (block, 2, m*n) temporary stays within
# 128 KiB, small enough to be reused from the allocator's heap and to stay in
# cache (1 MiB blocks took up to twice as long at 12x12 and 16x16); a 7x5 plan
# is one block
_BLOCK_ELEMENTS = 2**13


def _phase_block(on_a: np.ndarray, on_b: np.ndarray, g: float) -> np.ndarray:
    """Diagonal of every setting's interaction on the populated meter states, (K, 2, m*n).

    A couples on its |down> level and B on its |up> level, so |ud> sees no
    phase and |du> sees both: with a (b) the system diagonal of
    exp(-i*g*P_j) (exp(-i*g*P_l)), 1 + s where ``on_a`` (``on_b``) is set
    and 1 elsewhere, the rows are [1, a*b]. |uu> and |dd> carry exact-zero
    meter amplitudes and are left out.
    """
    phase = 1.0 + (np.exp(-1j * float(g)) - 1.0)  # 1 + s, rounded as the diagonal of I + s P
    k, m, n = len(on_a), on_a.shape[1], on_b.shape[2]
    block = np.ones((k, 2, m, n), dtype=np.complex128)
    np.multiply(np.where(on_a, phase, 1), np.where(on_b, phase, 1), out=block[:, 1])
    return block.reshape(k, 2, m * n)


@dataclass(frozen=True)
class PlanOutcome:
    """Meter readout of the S plan settings; every field has the leading (S,) plan axis."""

    conditional_meter_amps: np.ndarray  # (S, 4) complex, unit norm
    postselection_probability: np.ndarray  # (S,)
    # (S, 2) rates of detectors d1 and d2, which carry Re and Im of the modular value
    probabilities: np.ndarray


class _PlanIndex(NamedTuple):
    """The run-independent part of a readout: each plan setting's coupling map, read-only.

    The one construction of the coupling pattern; the readout's phases and
    the definitional diagonals both derive from it.
    """

    on_a: np.ndarray  # (S, m, 1) bool: the coupled row of A, none where A is uncoupled
    on_b: np.ndarray  # (S, 1, n) bool: the coupled column of B, none where B is uncoupled


@functools.lru_cache(maxsize=32)
def _plan_index(dims: tuple[int, int]) -> _PlanIndex:
    """Index the measurement plan of an m x n system; built on first use, once per size."""
    m, n = dims
    plan = measurement_plan(m, n)
    # an uncoupled side's index is -1, which matches no row or column
    rows = np.array([-1 if j is None else j for _, j, _ in plan])
    cols = np.array([-1 if l is None else l for _, _, l in plan])
    index = _PlanIndex(rows[:, None, None] == np.arange(m)[:, None],
                       cols[:, None, None] == np.arange(n))
    for array in index:
        array.flags.writeable = False
    return index


def run_protocol(cfg: ProtocolConfig) -> PlanOutcome:
    """Run the measurement plan end to end and read out the meter.

    Every coupling is diagonal in the product basis, so each setting's
    interaction is a (2, m*n) phase block on the two populated meter states
    (x) system, and all settings are postselected in one stacked contraction
    with the postselection: O(m*n) work per setting and no joint-space
    operator.
    Each conditional meter state is normalized and projected onto the two
    detector states; row k of the ``PlanOutcome`` is setting k of
    ``measurement_plan(*cfg.dims)``.
    Raises OrthogonalPostselection when the overlap |<postselection|system>|
    falls below DEFAULT_TOL.orthogonal (the modular value diverges there and
    no meter readout is meaningful).
    """
    _postselection_overlap(cfg)
    m, n = cfg.dims
    on_a, on_b = _plan_index(cfg.dims)

    # meter (x) system first, then the phases: the same products, in the same
    # order, as the dense unitary applied to the joint state (its off-diagonal
    # terms are exact zeros); the stacked matmul repeats the one-setting gemv,
    # so the CLI tables stay byte-identical. Only |ud> and |du> are populated.
    populated = slice(IDX_UP_DOWN, IDX_DOWN_UP + 1)
    joint = _entangled_meter(cfg.epsilon)[populated, None] * cfg.system_state.amps
    phi_conj = cfg.postselection.amps.conj()
    meter_proj = np.zeros((len(on_a), 4), dtype=np.complex128)
    block = max(1, _BLOCK_ELEMENTS // (2 * m * n))
    for start in range(0, len(meter_proj), block):
        part = slice(start, start + block)
        phases = _phase_block(on_a[part], on_b[part], cfg.g)
        phases *= joint
        meter_proj[part, populated] = phases @ phi_conj

    # norm as np.linalg.norm of one state computes it
    norms = np.sqrt(np.vecdot(meter_proj.real, meter_proj.real)
                    + np.vecdot(meter_proj.imag, meter_proj.imag))
    if np.any(norms < 1e-150):
        raise ValueError("cannot normalize a zero state")
    conditional = meter_proj / norms[:, None]
    # vecdot conjugates the detector as np.vdot does; Python's abs(z) ** 2
    # rounds as a one-setting readout does (np.abs differs in the last bit)
    overlaps = np.vecdot(_DETECTORS, conditional[:, None, :]).ravel().tolist()
    return PlanOutcome(
        conditional_meter_amps=conditional,
        postselection_probability=np.array([x ** 2 for x in norms.tolist()]),
        probabilities=np.array([abs(z) ** 2 for z in overlaps]).reshape(-1, 2),
    )
