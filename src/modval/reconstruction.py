"""Modular values, joint weak values, and amplitude reconstruction.

The modular value of an observable O between preselection |psi> and
postselection |phi> is <phi|exp(-i*g*O)|psi>/<phi|psi>; the weak value is
<phi|O|psi>/<phi|psi>. For a projector P the two are tied by
(P)_m = 1 + s (P)_w with s = e^{-ig} - 1, and for commuting projectors on
the two subsystems the joint weak value follows from three modular values:

    (P_a P_b)_w = [ (P_a + P_b)_m - (P_a)_m - (P_b)_m + 1 ] / s^2

Measuring the (m-1)+(n-1) single-subsystem modular values plus the
(m-1)(n-1) pair combinations determines every product-basis amplitude;
components involving index 0 are completed through projector completeness
(P_0 = I - sum of the others) at the weak-value level, and the amplitude
matrix is fixed by normalization with a real-positive reference component.

Plan order (see ``protocol``) is the one index of every per-setting
quantity: detector probabilities are an (S, 2) array and modular values an
(..., S) complex array; ``split_plan`` cuts them into the single_a,
single_b and pair blocks. The inversions act elementwise, and
``reconstruct`` takes optional leading trial axes, so the exact pipeline
and a stack of noisy trials run through the same code.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import NegativeDiscriminant
from .hilbert import PureState
from .protocol import _MIN_S, _check_epsilon
from .protocol import ProtocolConfig, _plan_overlaps, run_protocol, s_parameter, split_plan

Method = Literal["first_order", "exact_inversion", "definitional"]
METHODS = ("first_order", "exact_inversion", "definitional")

# reference weak values below this fraction of the largest one count as zero
_REFERENCE_RTOL = 1e-9


@dataclass(frozen=True)
class ReconstructionResult:
    """Amplitudes plus every intermediate quantity of the pipeline.

    A batched reconstruction carries the same leading trial axes on every
    field; ``result[k]`` is trial k on its own. The (m, n) size is the shape
    of the last two axes of ``amplitudes``.
    """

    amplitudes: np.ndarray  # (..., m, n) complex, unit norm, reference real-positive
    weak_values: np.ndarray  # (..., m, n) complex, completed over all components
    modulars: np.ndarray  # (..., S) complex, plan order
    normalizer: float | np.ndarray  # (...)
    reference_component: tuple[int, int] | np.ndarray  # (..., 2) for a batch

    def __getitem__(self, k: int) -> ReconstructionResult:
        return ReconstructionResult(self.amplitudes[k], self.weak_values[k],
                                    self.modulars[k], float(self.normalizer[k]),
                                    tuple(int(i) for i in self.reference_component[k]))

    def state(self) -> PureState:
        if self.amplitudes.ndim != 2:
            raise ValueError(".state() takes one trial; use result[k].state() on a batch")
        return PureState(self.amplitudes.shape, self.amplitudes.reshape(-1))


def modular_first_order(p1, p2, epsilon: float):
    """First-order-in-epsilon readout (p1 - 1/2)/eps + i (p2 - 1/2)/eps, elementwise.

    epsilon must lie in [1e-8, 1], the range ``ProtocolConfig`` accepts: below it
    the readout loses too many digits, and 1/epsilon overflows for a subnormal one."""
    _check_epsilon(epsilon)
    return ((np.asarray(p1, dtype=float) - 0.5) / epsilon
            + 1j * ((np.asarray(p2, dtype=float) - 0.5) / epsilon))


def modular_exact_inversion(p1, p2, epsilon: float, *, clamp: bool = False):
    """Invert the exact detector probabilities back to the modular value M.

    Solves p1 = |1 + eps*M|^2 / (2 (1 + eps^2 |M|^2)) and the analogous p2
    equation: with the first-order readout a + ib, M = (a + ib) D where D is
    the root of eps^2 (a^2+b^2) D^2 - D + 1 = 0 that is continuous with
    D -> 1 as a, b -> 0 (computed stably as
    D = 2 / (1 + sqrt(1 - 4 eps^2 (a^2+b^2)))). This branch recovers M
    exactly whenever eps*|M| <= 1; beyond that the two roots swap and the
    readout is ambiguous.

    Elementwise over array or scalar probabilities. Noise can push (a, b)
    outside the reachable disk (negative discriminant); such points come
    back as nan, or with clamp=True are projected onto the disk boundary
    (|M| = 1/eps, phase preserved).
    """
    first = np.asarray(modular_first_order(p1, p2, epsilon))
    a, b = first.real, first.imag
    radius2 = a * a + b * b
    disc = 1.0 - 4.0 * epsilon * epsilon * radius2
    outside = disc < 0.0
    if clamp:
        with np.errstate(divide="ignore"):
            shrink = np.where(outside, 1.0 / (2.0 * epsilon * np.sqrt(radius2)), 1.0)
        a, b = a * shrink, b * shrink
    else:
        a, b = np.where(outside, np.nan, a), np.where(outside, np.nan, b)
    d = 2.0 / (1.0 + np.sqrt(np.where(outside, 0.0, disc)))
    return a * d + 1j * (b * d)


def invert_probabilities(probabilities, epsilon: float, method: Method,
                         *, clamp: bool = False) -> np.ndarray:
    """Modular values (..., S) from detector probabilities (..., S, 2); nan where unreachable."""
    p = np.asarray(probabilities, dtype=float)
    if method == "first_order":
        return modular_first_order(p[..., 0], p[..., 1], epsilon)
    if method == "exact_inversion":
        return modular_exact_inversion(p[..., 0], p[..., 1], epsilon, clamp=clamp)
    raise ValueError(f"method {method!r} cannot be applied to probabilities")


def weak_from_modulars(m_pair, m_a, m_b, s: complex):
    """Joint weak value of a projector pair from three modular values, elementwise.

    s must be finite with |s| >= 1e-6, the bound ``ProtocolConfig`` applies to
    s(g): a smaller s^2 would scale the modulars' rounding by more than 1e12."""
    if not (cmath.isfinite(s) and abs(s) >= _MIN_S):
        raise ValueError(f"s must be finite and nonzero (|s| >= {_MIN_S:g}), got {s!r}")
    return (np.asarray(m_pair) - m_a - m_b + 1.0) / (s * s)


def definitional_modulars(cfg: ProtocolConfig) -> np.ndarray:
    """Oracle modular values straight from the states (no meter involved), (S,) in plan order.

    A setting's modular value is <phi|e^{-igO_k}|psi> / <phi|psi>: the
    closed-form plan overlaps of ``protocol._plan_overlaps`` divided by
    T = <phi|psi>, O(m*n) for the whole plan. Raises OrthogonalPostselection
    as the readout does.
    """
    total, overlaps = _plan_overlaps(cfg)
    return overlaps / total


def _weak_value_matrix(modulars: np.ndarray, dims: tuple[int, int], s: complex) -> np.ndarray:
    """Complete the full (..., m, n) weak-value matrix from the measured plan.

    Pairs with j, l >= 1 come from the three-modular combination; singles
    convert through (P)_w = ((P)_m - 1)/s; rows/columns touching index 0
    follow from completeness P_0 = I - sum_{k>=1} P_k and linearity of the
    weak value (with (I)_w = 1), the row and column sums of the pair block
    taken over its last and second-to-last axes.
    """
    m, n = dims
    m_a, m_b, m_pair = split_plan(modulars, dims)
    weak = np.zeros(modulars.shape[:-1] + (m, n), dtype=np.complex128)
    pairs = weak[..., 1:, 1:]
    pairs[...] = weak_from_modulars(m_pair, m_a[..., :, None], m_b[..., None, :], s)
    # the single_a and single_b blocks are contiguous in plan order
    singles = (modulars[..., :m + n - 2] - 1.0) / s
    wa, wb = singles[..., :m - 1], singles[..., m - 1:]
    weak[..., 1:, 0] = wa - pairs.sum(axis=-1)
    weak[..., 0, 1:] = wb - pairs.sum(axis=-2)
    weak[..., 0, 0] = (1.0 - wa.sum(axis=-1) - wb.sum(axis=-1)
                       + pairs.sum(axis=(-2, -1)))
    return weak


def _select_reference(raw: np.ndarray) -> np.ndarray:
    """Flat index (...) of every trial's reference component: (0, 0) unless
    its weak value vanishes next to the largest, else the largest. Some
    component is always nonzero: were all others 0, the completion would
    give weak[0, 0] = 1."""
    m, n = raw.shape[-2:]
    magnitudes = np.abs(raw).reshape(raw.shape[:-2] + (m * n,))
    keep = magnitudes[..., 0] > _REFERENCE_RTOL * magnitudes.max(axis=-1)
    return np.where(keep, 0, np.argmax(magnitudes, axis=-1))


def require_full_support(postselection: PureState) -> None:
    """Raise ValueError if any product-basis amplitude of the postselection vanishes.

    Each weak value is divided by its conjugated postselection amplitude, so
    a zero amplitude leaves that component of the state undetermined.
    """
    magnitudes = np.abs(postselection.amps)
    k = int(np.argmin(magnitudes))
    if magnitudes[k] < 1e-12:
        component = tuple(int(i) for i in np.unravel_index(k, postselection.dims))
        raise ValueError("postselection must overlap every product basis component "
                         f"(amplitude {component} vanishes)")


def reconstruct(*, postselection: PureState, s: complex, modulars) -> ReconstructionResult:
    """Turn plan-ordered modular values (..., S) into normalized amplitudes.

    The (m, n) size is the postselection's ``dims``, so S = m*n - 1.
    Leading axes are independent trials, each reconstructed bit for bit as
    an unbatched call would; a trial holding nan stays nan. Per-component
    weak values are divided by the conjugated postselection amplitude (for
    the uniform postselection this is the usual division by the reference
    weak value and the norm factor), then scaled so the reference component
    is real and positive and the matrix has unit norm.
    """
    if len(postselection.dims) != 2:
        raise ValueError("postselection must have exactly two factors")
    m, n = postselection.dims
    modulars = np.asarray(modulars, dtype=np.complex128)
    if modulars.ndim == 0 or modulars.shape[-1] != m * n - 1:
        raise ValueError(f"modulars must have {m * n - 1} plan entries on the last axis")
    require_full_support(postselection)
    phi = postselection.amps.reshape(m, n)
    weak = _weak_value_matrix(modulars, (m, n), s)
    raw = weak / phi.conj()
    lead = raw.shape[:-2]
    ref = _select_reference(raw)
    with np.errstate(invalid="ignore"):  # nan trials stay nan without a warning
        ratios = raw / np.take_along_axis(raw.reshape(lead + (m * n,)), ref[..., None],
                                          axis=-1)[..., None]
        normalizer = np.sqrt(np.sum((np.abs(ratios) ** 2).reshape(lead + (m * n,)), axis=-1))
        amplitudes = ratios / normalizer[..., None, None]
    reference_component = np.stack(np.unravel_index(ref, (m, n)), axis=-1)
    if not lead:
        normalizer = float(normalizer)
        reference_component = (int(reference_component[0]), int(reference_component[1]))
    return ReconstructionResult(amplitudes=amplitudes, weak_values=weak,
                                modulars=modulars, normalizer=normalizer,
                                reference_component=reference_component)


def reconstruct_state(cfg: ProtocolConfig, method: Method = "exact_inversion") -> ReconstructionResult:
    """Full exact pipeline: protocol probabilities (or oracle modulars) in,
    normalized amplitudes out."""
    if method == "definitional":
        modulars = definitional_modulars(cfg)
    else:
        probabilities = run_protocol(cfg).probabilities
        modulars = invert_probabilities(probabilities, cfg.epsilon, method)
        unreachable = np.flatnonzero(np.isnan(modulars))
        if unreachable.size:
            p1, p2 = probabilities[unreachable[0]]
            raise NegativeDiscriminant(
                f"probabilities ({p1:.6f}, {p2:.6f}) are outside the reachable set"
            )
    return reconstruct(postselection=cfg.postselection, s=s_parameter(cfg.g),
                       modulars=modulars)
