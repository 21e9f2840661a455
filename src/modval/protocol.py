"""Preparation-interaction-postselection-detection pipeline.

Two path qubits form the meter, one per subsystem; the bipartite system
carries the state being measured. The joint space is laid out with factor
order (meter_A, meter_B, system_A, system_B); meter basis is up=0, down=1.

The meter starts in (|ud> + eps |du>)/sqrt(1+eps^2). A controlled phase
couples meter and system: the A side applies exp(-i*g*P_j) to system A on
the meter-A |down> component, the B side applies exp(-i*g*P_l) to system B
on the meter-B |up> component. After postselecting the system, the meter
is read out against two detector states whose probabilities carry the real
and imaginary parts of the relevant modular value.

Every coupling is diagonal in the product basis, so ``run_protocol`` reads
out a whole list of settings at once: an (S, 4, m*n) block of phases times
meter (x) system, contracted with the postselection in one stacked matmul,
then normalized and projected onto each setting's detector states. Given one
``(kind, j, l)`` setting it returns that row of the same readout. No
joint-space operator is built; the tests build the dense unitary and check
the readout against it.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Literal, NamedTuple, overload

import numpy as np

from .errors import OrthogonalPostselection
from .hilbert import DEFAULT_TOL, PureState, inner

UP, DOWN = 0, 1
METER_DIMS = (2, 2)
# joint meter basis indices: |ud> is the reference component, |du> the signal
IDX_UP_DOWN = 1
IDX_DOWN_UP = 2

InteractionKind = Literal["pair", "single_a", "single_b"]
SettingSpec = tuple[InteractionKind, int | None, int | None]
MeterMode = Literal["entangled", "product"]

_KINDS = ("pair", "single_a", "single_b")
_MODES = ("entangled", "product")

# smallest |s| = |e^{-ig} - 1| accepted: weak values are divided by s and s^2
_MIN_S = 1e-6


@dataclass(frozen=True)
class ProtocolConfig:
    """One measurement configuration: states, coupling, and meter choice.

    ``g`` defaults to pi so the s-parameter e^{-ig}-1 equals -2; it must be
    finite with |s| >= 1e-6 (at g = 0 or 2*pi the meter carries no signal).
    epsilon is the meter asymmetry (0.2 in the reference setting).
    """

    system_state: PureState
    postselection: PureState
    epsilon: float = 0.2
    g: float = math.pi
    meter_mode: MeterMode = "entangled"

    def __post_init__(self):
        if len(self.system_state.dims) != 2:
            raise ValueError("system state must have exactly two factors")
        if self.postselection.dims != self.system_state.dims:
            raise ValueError("postselection dims must match the system state")
        for name, state in (("system_state", self.system_state),
                            ("postselection", self.postselection)):
            if abs(state.norm() - 1.0) > DEFAULT_TOL.structural:
                raise ValueError(f"{name} must be normalized")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if not math.isfinite(self.g):
            raise ValueError(f"coupling g must be finite, got {self.g!r}")
        if abs(cmath.exp(-1j * self.g) - 1.0) < _MIN_S:
            raise ValueError(
                f"coupling g = {self.g!r} makes s = e^(-ig) - 1 vanish "
                f"(|s| < {_MIN_S:g}); weak values cannot be recovered"
            )
        if self.meter_mode not in _MODES:
            raise ValueError(f"unknown meter mode {self.meter_mode!r}")

    @property
    def dims(self) -> tuple[int, int]:
        m, n = self.system_state.dims
        return (m, n)


@dataclass(frozen=True)
class MeterOutcome:
    """Conditional meter state and detector probabilities for one setting.

    p1/p2 come from the entangled detectors (|ud>+|du>)/sqrt2 and
    (|ud>+i|du>)/sqrt2; p1_tilde/p2_tilde from the half-rate product
    detectors and satisfy p_tilde = p/2 exactly.
    """

    conditional_meter_state: PureState
    postselection_probability: float
    p1: float
    p2: float
    p1_tilde: float
    p2_tilde: float


def _entangled_meter(epsilon: float) -> np.ndarray:
    amps = np.zeros(4, dtype=np.complex128)
    scale = 1.0 / math.sqrt(1.0 + epsilon * epsilon)
    amps[IDX_UP_DOWN] = scale
    amps[IDX_DOWN_UP] = epsilon * scale
    return amps


def _check_setting(kind: InteractionKind, j: int | None, l: int | None,
                   dims) -> tuple[bool, bool]:
    """Validate one setting; returns which sides (A, B) it couples."""
    m, n = dims
    if kind not in _KINDS:
        raise ValueError(f"unknown interaction kind {kind!r}")
    use_a = kind in ("pair", "single_a")
    use_b = kind in ("pair", "single_b")
    if use_a:
        if j is None or not 0 <= j < m:
            raise ValueError(f"system-A index {j} out of range for dimension {m}")
    if use_b:
        if l is None or not 0 <= l < n:
            raise ValueError(f"system-B index {l} out of range for dimension {n}")
    return use_a, use_b


def _single_part_detector(ref: int, phase: complex) -> np.ndarray:
    vec = np.zeros(2, dtype=np.complex128)
    vec[ref] = 1.0
    vec[1 - ref] = phase
    return vec / math.sqrt(2.0)


def _detectors(kind: InteractionKind, mode: MeterMode):
    """Joint detector states: (d1, d2, tilde1, tilde2) on the meter space.

    d1/d2 live on the (reference, signal) pair of joint components; the
    tilde detectors are full product states (half the projection rate). The
    i-phase factor of tilde2 sits on the meter part that carries the signal
    (part A for the entangled meter and A-side runs, part B for B-side runs
    in product mode).
    """
    if mode == "entangled":
        ref_idx, sig_idx = IDX_UP_DOWN, IDX_DOWN_UP
        phase_side = "a"
    elif kind == "single_a":
        ref_idx, sig_idx = IDX_UP_DOWN, 3  # |ud> -> |dd>, spectator B parked at down
        phase_side = "a"
    else:  # product, single_b
        ref_idx, sig_idx = IDX_UP_DOWN, 0  # |ud> -> |uu>, spectator A parked at up
        phase_side = "b"

    def pair_detector(phase: complex) -> PureState:
        amps = np.zeros(4, dtype=np.complex128)
        amps[ref_idx] = 1.0 / math.sqrt(2.0)
        amps[sig_idx] = phase / math.sqrt(2.0)
        return PureState(METER_DIMS, amps)

    uniform = np.ones(2, dtype=np.complex128) / math.sqrt(2.0)
    # per-part reference levels: A rests at up, B rests at down
    quad_a = _single_part_detector(UP, 1j) if phase_side == "a" else uniform
    quad_b = _single_part_detector(DOWN, 1j) if phase_side == "b" else uniform
    tilde1 = PureState(METER_DIMS, np.kron(uniform, uniform))
    tilde2 = PureState(METER_DIMS, np.kron(quad_a, quad_b))
    return pair_detector(1.0), pair_detector(1j), tilde1, tilde2


# detector states never depend on the run, so they are built once: the
# (d1, d2, tilde1, tilde2) amplitudes of each (kind, meter mode) as a (4, 4) block
_DETECTORS = {(kind, mode): np.stack([d.amps for d in _detectors(kind, mode)])
              for mode in _MODES for kind in _KINDS if (kind, mode) != ("pair", "product")}

# settings contracted per block: each (block, 4, m*n) temporary stays within
# 128 KiB, small enough to be reused from the allocator's heap and to stay in
# cache (1 MiB blocks took up to twice as long at 12x12 and 16x16); a 7x5 plan
# is one block
_BLOCK_ELEMENTS = 2**13


def _initial_meter(cfg: ProtocolConfig, kind: InteractionKind) -> np.ndarray:
    """Initial meter amplitudes (4,) for a setting of the given kind (a single
    one in product mode)."""
    if cfg.meter_mode == "entangled":
        return _entangled_meter(cfg.epsilon)
    scale = 1.0 / math.sqrt(1.0 + cfg.epsilon**2)
    if kind == "single_a":  # spectator B parked at down
        part_a, part_b = [scale, cfg.epsilon * scale], [0.0, 1.0]
    else:  # spectator A parked at up
        part_a, part_b = [1.0, 0.0], [cfg.epsilon * scale, scale]
    return np.kron(np.array(part_a, dtype=np.complex128), np.array(part_b, dtype=np.complex128))


def _phase_block(rows: np.ndarray, cols: np.ndarray, g: float,
                 dims: tuple[int, int]) -> np.ndarray:
    """Diagonal of every setting's interaction unitary as a (K, 4, m*n) block.

    Row r of setting k is the system-space diagonal on meter basis state r
    (uu, ud, du, dd). A couples on its |down> level and B on its |up> level,
    so with a (b) the system diagonal of exp(-i*g*P_j) (exp(-i*g*P_l)) the
    rows are [b, 1, a*b, a]. ``rows[k]`` (``cols[k]``) is the coupled A (B)
    index, or -1 where that side is uncoupled and contributes ones.
    """
    m, n = dims
    phase = 1.0 + (np.exp(-1j * float(g)) - 1.0)  # 1 + s, rounded as the diagonal of I + s P
    a = np.ones((len(rows), m, n), dtype=np.complex128)
    b = np.ones((len(cols), m, n), dtype=np.complex128)
    on_a, on_b = rows >= 0, cols >= 0
    a[on_a, rows[on_a], :] = phase
    b[on_b, :, cols[on_b]] = phase
    a, b = a.reshape(len(rows), m * n), b.reshape(len(cols), m * n)
    return np.stack([b, np.ones_like(a), a * b, a], axis=1)


@dataclass(frozen=True)
class PlanOutcome:
    """Meter readout of S settings; every field has the leading (S,) plan axis.

    ``outcome[k]`` is setting k as the ``MeterOutcome`` a one-setting run gives.
    """

    conditional_meter_amps: np.ndarray  # (S, 4) complex, unit norm
    postselection_probability: np.ndarray  # (S,)
    p1: np.ndarray  # (S,)
    p2: np.ndarray
    p1_tilde: np.ndarray
    p2_tilde: np.ndarray

    def __getitem__(self, k: int) -> MeterOutcome:
        return MeterOutcome(
            conditional_meter_state=PureState(METER_DIMS, self.conditional_meter_amps[k]),
            postselection_probability=float(self.postselection_probability[k]),
            p1=float(self.p1[k]), p2=float(self.p2[k]),
            p1_tilde=float(self.p1_tilde[k]), p2_tilde=float(self.p2_tilde[k]),
        )


class _SettingIndex(NamedTuple):
    """The run-independent part of a readout, as read-only (S,) arrays."""

    kinds: tuple[InteractionKind, ...]  # distinct kinds, in order of first use
    codes: np.ndarray  # position of each setting's kind in ``kinds``
    rows: np.ndarray  # coupled A index, -1 where A is uncoupled
    cols: np.ndarray  # coupled B index, -1 where B is uncoupled
    detectors: np.ndarray  # (S, 4, 4) detector amplitudes


@functools.lru_cache(maxsize=64)
def _index_settings(settings: tuple[SettingSpec, ...], dims: tuple[int, int],
                    mode: MeterMode) -> _SettingIndex:
    """Validate and index a list of settings; cached, so a plan is indexed once."""
    kinds: dict[InteractionKind, int] = {}
    codes, rows, cols = [], [], []
    for kind, j, l in settings:
        use_a, use_b = _check_setting(kind, j, l, dims)
        codes.append(kinds.setdefault(kind, len(kinds)))
        rows.append(j if use_a else -1)
        cols.append(l if use_b else -1)
    if mode == "product" and "pair" in kinds:
        raise ValueError("pair settings require the entangled meter mode")
    detectors = np.array([_DETECTORS[kind, mode] for kind in kinds]).reshape(-1, 4, 4)
    index = _SettingIndex(tuple(kinds), *(np.array(x, dtype=np.intp) for x in (codes, rows, cols)),
                          detectors[codes])
    for array in index[1:]:
        array.flags.writeable = False
    return index


def _read_out(cfg: ProtocolConfig, settings: Iterable[SettingSpec]) -> PlanOutcome:
    """The batched readout behind ``run_protocol``, one (S,) row per setting."""
    overlap = inner(cfg.postselection, cfg.system_state)
    if abs(overlap) < DEFAULT_TOL.orthogonal:
        raise OrthogonalPostselection(
            f"|<postselection|state>| = {abs(overlap):.3e} < {DEFAULT_TOL.orthogonal:.3e}"
        )
    m, n = cfg.dims
    if not isinstance(settings, tuple):
        settings = tuple(map(tuple, settings))
    kinds, codes, rows, cols, detectors = _index_settings(settings, (m, n), cfg.meter_mode)
    meter0 = np.array([_initial_meter(cfg, kind) for kind in kinds]).reshape(-1, 4)[codes]

    psi, phi_conj = cfg.system_state.amps, cfg.postselection.amps.conj()
    meter_proj = np.empty((len(codes), 4), dtype=np.complex128)
    block = max(1, _BLOCK_ELEMENTS // (4 * m * n))
    for start in range(0, len(codes), block):
        part = slice(start, start + block)
        # meter (x) system first, then the phases: the same products, in the
        # same order, as the dense unitary applied to the joint state (its
        # off-diagonal terms are exact zeros); the stacked matmul repeats the
        # one-setting gemv, so the CLI tables stay byte-identical
        joint = meter0[part, :, None] * psi
        phases = _phase_block(rows[part], cols[part], cfg.g, (m, n))
        phases *= joint
        meter_proj[part] = phases @ phi_conj

    # norm as np.linalg.norm of one state computes it
    norms = np.sqrt(np.vecdot(meter_proj.real, meter_proj.real)
                    + np.vecdot(meter_proj.imag, meter_proj.imag))
    if np.any(norms < 1e-150):
        raise ValueError("cannot normalize a zero state")
    conditional = meter_proj / norms[:, None]
    # vecdot conjugates the detector as np.vdot does; Python's abs(z) ** 2
    # rounds as a one-setting readout does (np.abs differs in the last bit)
    overlaps = np.vecdot(detectors, conditional[:, None, :]).ravel().tolist()
    probs = np.array([abs(z) ** 2 for z in overlaps]).reshape(-1, 4)
    return PlanOutcome(
        conditional_meter_amps=conditional,
        postselection_probability=np.array([x ** 2 for x in norms.tolist()]),
        p1=probs[:, 0], p2=probs[:, 1], p1_tilde=probs[:, 2], p2_tilde=probs[:, 3],
    )


@overload
def run_protocol(cfg: ProtocolConfig, kind: InteractionKind,
                 j: int | None = None, l: int | None = None) -> MeterOutcome: ...


@overload
def run_protocol(cfg: ProtocolConfig, kind: Iterable[SettingSpec]) -> PlanOutcome: ...


def run_protocol(cfg, kind, j=None, l=None):
    """Run settings end to end and read out the meter.

    ``run_protocol(cfg, kind, j, l)`` runs one setting and returns its
    ``MeterOutcome``; ``run_protocol(cfg, settings)`` runs a list of
    ``(kind, j, l)`` settings and returns their ``PlanOutcome``, whose row k
    is bit for bit the one-setting outcome of ``settings[k]``.

    Every coupling is diagonal in the product basis, so each setting's
    interaction is a (4, m*n) phase block on meter (x) system, and all
    settings are postselected in one stacked contraction with the
    postselection: O(m*n) work per setting and no joint-space operator.
    Each conditional meter state is normalized and projected onto its
    setting's detector states. Raises OrthogonalPostselection when the
    overlap |<postselection|system>| falls below DEFAULT_TOL.orthogonal (the
    modular value diverges there and no meter readout is meaningful), and
    ValueError for an invalid setting.
    """
    if isinstance(kind, str):
        return _read_out(cfg, ((kind, j, l),))[0]
    if j is not None or l is not None:
        raise TypeError("with a list of settings, j and l go inside each (kind, j, l)")
    return _read_out(cfg, kind)
