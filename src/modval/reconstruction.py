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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal, Mapping, NamedTuple

import numpy as np

from .errors import NegativeDiscriminant, OrthogonalPostselection, ZeroReferenceWeakValue
from .hilbert import DEFAULT_TOL, LinearOperator, PureState, identity, inner, projector, tensor
from .protocol import ProtocolConfig, run_protocol

Method = Literal["first_order", "exact_inversion", "definitional"]
METHODS = ("first_order", "exact_inversion", "definitional")

# reference weak values below this fraction of the largest one count as zero
_REFERENCE_RTOL = 1e-9


class Setting(NamedTuple):
    """One entry of the measurement plan; unused indices are None."""

    kind: str  # "single_a" | "single_b" | "pair"
    j: int | None = None
    l: int | None = None

    @property
    def label(self) -> str:
        if self.kind == "single_a":
            return f"a{self.j}"
        if self.kind == "single_b":
            return f"b{self.l}"
        return f"a{self.j}b{self.l}"


@dataclass(frozen=True)
class PlanEntry:
    setting: Setting
    dims: tuple[int, int]

    @property
    def observable(self) -> LinearOperator:
        """The setting's observable, embedded on the full (m, n) system space.

        Built on demand: only the definitional oracle needs the dense matrix.
        """
        st = self.setting
        if st.kind == "single_a":
            return _embedded_projector(self.dims, "a", st.j)
        if st.kind == "single_b":
            return _embedded_projector(self.dims, "b", st.l)
        return LinearOperator(self.dims, _embedded_projector(self.dims, "a", st.j).mat
                              + _embedded_projector(self.dims, "b", st.l).mat)


@dataclass(frozen=True)
class MeasurementPlan:
    """All settings needed to determine an m x n pure state."""

    dims: tuple[int, int]
    entries: tuple[PlanEntry, ...]

    @property
    def n_settings(self) -> int:
        return len(self.entries)

    @property
    def n_parameters(self) -> int:
        # one complex number (two real parameters) per setting
        return 2 * len(self.entries)


@dataclass(frozen=True)
class ModularEstimate:
    value: complex
    method: Method
    epsilon_used: float


@dataclass(frozen=True)
class ReconstructionResult:
    """Amplitudes plus every intermediate quantity of the pipeline."""

    dims: tuple[int, int]
    amplitudes: np.ndarray  # (m, n) complex, unit norm, reference real-positive
    weak_values: np.ndarray  # (m, n) complex, completed over all components
    modulars: dict[Setting, complex]
    normalizer: float
    reference_component: tuple[int, int]

    def state(self) -> PureState:
        return PureState(self.dims, self.amplitudes.reshape(-1))


def _embedded_projector(dims, side: str, index: int) -> LinearOperator:
    m, n = dims
    if side == "a":
        return tensor(projector((m,), index), identity((n,)))
    return tensor(identity((m,)), projector((n,), index))


def measurement_plan(m: int, n: int) -> MeasurementPlan:
    """Settings for an m x n system: singles on each side, then all pairs.

    Plan size is (m-1)+(n-1)+(m-1)(n-1) = m*n - 1 settings; with a real and
    an imaginary part each that is 2*m*n - 2 numbers, exactly the parameter
    count of a normalized state with one global phase removed.
    """
    if m < 2 or n < 2:
        raise ValueError("both subsystem dimensions must be at least 2")
    dims = (m, n)
    settings = ([Setting("single_a", j=j) for j in range(1, m)]
                + [Setting("single_b", l=l) for l in range(1, n)]
                + [Setting("pair", j=j, l=l) for j in range(1, m) for l in range(1, n)])
    return MeasurementPlan(dims, tuple(PlanEntry(st, dims) for st in settings))


def _postselection_denominator(psi: PureState, phi: PureState, ortho_tol: float) -> complex:
    den = inner(phi, psi)
    if abs(den) < ortho_tol:
        raise OrthogonalPostselection(
            f"|<phi|psi>| = {abs(den):.3e} < {ortho_tol:.3e}"
        )
    return den


def modular_definitional(observable: LinearOperator, g: float, psi: PureState,
                         phi: PureState, *, ortho_tol: float = DEFAULT_TOL.orthogonal) -> complex:
    """<phi|exp(-i*g*O)|psi> / <phi|psi> via a dense matrix exponential.

    exp(-i*g*O) is built from the eigendecomposition O = V diag(lam) V^dagger
    as V diag(e^{-i*g*lam}) V^dagger, so O must be Hermitian; a
    non-Hermitian observable is rejected instead of silently computing
    something else.
    """
    if observable.dims != psi.dims:
        raise ValueError("observable dims must match the state")
    mat = observable.mat
    if np.max(np.abs(mat - mat.conj().T)) > DEFAULT_TOL.structural:
        raise ValueError("modular_definitional requires a Hermitian observable")
    den = _postselection_denominator(psi, phi, ortho_tol)
    lam, vecs = np.linalg.eigh(mat)
    evolved = (vecs * np.exp(-1j * float(g) * lam)) @ (vecs.conj().T @ psi.amps)
    return complex(np.vdot(phi.amps, evolved) / den)


def weak_definitional(observable: LinearOperator, psi: PureState, phi: PureState,
                      *, ortho_tol: float = DEFAULT_TOL.orthogonal) -> complex:
    """<phi|O|psi> / <phi|psi>."""
    if observable.dims != psi.dims:
        raise ValueError("observable dims must match the state")
    den = _postselection_denominator(psi, phi, ortho_tol)
    return complex(np.vdot(phi.amps, observable.mat @ psi.amps) / den)


def modular_first_order(p1: float, p2: float, epsilon: float) -> ModularEstimate:
    """First-order-in-epsilon readout: (p1 - 1/2)/eps + i (p2 - 1/2)/eps."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    value = complex((p1 - 0.5) / epsilon, (p2 - 0.5) / epsilon)
    return ModularEstimate(value, "first_order", epsilon)


def modular_exact_inversion(p1: float, p2: float, epsilon: float,
                            *, clamp: bool = False) -> ModularEstimate:
    """Invert the exact detector probabilities back to the modular value M.

    Solves p1 = |1 + eps*M|^2 / (2 (1 + eps^2 |M|^2)) and the analogous p2
    equation: with a = (2 p1 - 1)/(2 eps) and b = (2 p2 - 1)/(2 eps),
    M = (a + i b) D where D is the root of eps^2 (a^2+b^2) D^2 - D + 1 = 0
    that is continuous with D -> 1 as a, b -> 0 (computed stably as
    D = 2 / (1 + sqrt(1 - 4 eps^2 (a^2+b^2)))). This branch recovers M
    exactly whenever eps*|M| <= 1; beyond that the two roots swap and the
    readout is ambiguous.

    Noise can push (a, b) outside the reachable disk (negative
    discriminant); by default that raises, with clamp=True the point is
    projected onto the disk boundary (|M| = 1/eps, phase preserved).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    a = (2.0 * p1 - 1.0) / (2.0 * epsilon)
    b = (2.0 * p2 - 1.0) / (2.0 * epsilon)
    radius2 = a * a + b * b
    disc = 1.0 - 4.0 * epsilon * epsilon * radius2
    if disc < 0.0:
        if not clamp:
            raise NegativeDiscriminant(
                f"probabilities ({p1:.6f}, {p2:.6f}) are outside the reachable set"
            )
        shrink = 1.0 / (2.0 * epsilon * math.sqrt(radius2))
        a *= shrink
        b *= shrink
        disc = 0.0
    d = 2.0 / (1.0 + math.sqrt(disc))
    return ModularEstimate(complex(a * d, b * d), "exact_inversion", epsilon)


def weak_from_modulars(m_pair: complex, m_a: complex, m_b: complex, s: complex) -> complex:
    """Joint weak value of a projector pair from three modular values."""
    if s == 0:
        raise ValueError("s must be nonzero")
    return (m_pair - m_a - m_b + 1.0) / (s * s)


def shift_modular(value: complex, c: float, s: complex) -> complex:
    """Modular value after shifting the observable by c times the identity.

    Shifting O -> cI + O multiplies exp(-i*g*O) by the scalar e^{-i*g*c},
    which in terms of s = e^{-ig} - 1 is (1+s)^c. Non-integer c uses the
    principal branch of the complex power; the measurement plan only ever
    needs integer c.
    """
    return (1.0 + s) ** c * value


def s_parameter(g: float) -> complex:
    """s = e^{-ig} - 1; equals -2 at the default coupling g = pi."""
    return cmath.exp(-1j * float(g)) - 1.0


def collect_probabilities(cfg: ProtocolConfig,
                          plan: MeasurementPlan | None = None) -> dict[Setting, tuple[float, float]]:
    """Exact detector probabilities (p1, p2) for every plan setting."""
    if plan is None:
        plan = measurement_plan(*cfg.dims)
    probs: dict[Setting, tuple[float, float]] = {}
    for entry in plan.entries:
        st = entry.setting
        outcome = run_protocol(cfg, st.kind, j=st.j, l=st.l)
        probs[st] = (outcome.p1, outcome.p2)
    return probs


def modulars_from_probabilities(probabilities: Mapping[Setting, tuple[float, float]],
                                epsilon: float, method: Method,
                                *, clamp: bool = False) -> dict[Setting, ModularEstimate]:
    if method == "first_order":
        return {st: modular_first_order(p1, p2, epsilon) for st, (p1, p2) in probabilities.items()}
    if method == "exact_inversion":
        return {st: modular_exact_inversion(p1, p2, epsilon, clamp=clamp)
                for st, (p1, p2) in probabilities.items()}
    raise ValueError(f"method {method!r} cannot be applied to probabilities")


def definitional_modulars(cfg: ProtocolConfig,
                          plan: MeasurementPlan | None = None) -> dict[Setting, ModularEstimate]:
    """Oracle modular values straight from the states (no meter involved)."""
    if plan is None:
        plan = measurement_plan(*cfg.dims)
    out: dict[Setting, ModularEstimate] = {}
    for entry in plan.entries:
        value = modular_definitional(entry.observable, cfg.g, cfg.system_state,
                                     cfg.postselection, ortho_tol=cfg.ortho_tol)
        out[entry.setting] = ModularEstimate(value, "definitional", 0.0)
    return out


def _weak_value_matrix(modulars: Mapping[Setting, complex], dims: tuple[int, int],
                       s: complex) -> np.ndarray:
    """Complete the full (m, n) weak-value matrix from the measured plan.

    Pairs with j, l >= 1 come from the three-modular combination; singles
    convert through (P)_w = ((P)_m - 1)/s; rows/columns touching index 0
    follow from completeness P_0 = I - sum_{k>=1} P_k and linearity of the
    weak value (with (I)_w = 1).
    """
    m, n = dims
    weak = np.zeros((m, n), dtype=np.complex128)
    wa = np.zeros(m, dtype=np.complex128)
    wb = np.zeros(n, dtype=np.complex128)
    for j in range(1, m):
        wa[j] = (modulars[Setting("single_a", j=j)] - 1.0) / s
    for l in range(1, n):
        wb[l] = (modulars[Setting("single_b", l=l)] - 1.0) / s
    for j in range(1, m):
        for l in range(1, n):
            weak[j, l] = weak_from_modulars(modulars[Setting("pair", j=j, l=l)],
                                            modulars[Setting("single_a", j=j)],
                                            modulars[Setting("single_b", l=l)], s)
    for j in range(1, m):
        weak[j, 0] = wa[j] - weak[j, 1:].sum()
    for l in range(1, n):
        weak[0, l] = wb[l] - weak[1:, l].sum()
    weak[0, 0] = 1.0 - wa[1:].sum() - wb[1:].sum() + weak[1:, 1:].sum()
    return weak


def _select_reference(raw: np.ndarray, reference) -> tuple[int, int]:
    scale = float(np.max(np.abs(raw)))
    if scale == 0.0:
        raise ZeroReferenceWeakValue("all components have vanishing weak value")
    if reference == "auto":
        if abs(raw[0, 0]) > _REFERENCE_RTOL * scale:
            return (0, 0)
        idx = int(np.argmax(np.abs(raw)))
        return tuple(int(k) for k in np.unravel_index(idx, raw.shape))
    ref = (int(reference[0]), int(reference[1]))
    if abs(raw[ref]) <= _REFERENCE_RTOL * scale:
        raise ZeroReferenceWeakValue(
            f"weak value at reference component {ref} vanishes; choose another"
        )
    return ref


def reconstruct(*, dims: tuple[int, int], postselection: PureState, s: complex,
                modulars: Mapping[Setting, complex | ModularEstimate] | None = None,
                probabilities: Mapping[Setting, tuple[float, float]] | None = None,
                epsilon: float | None = None,
                method: Method = "exact_inversion",
                clamp: bool = False,
                reference="auto") -> ReconstructionResult:
    """Turn plan measurements into a normalized amplitude matrix.

    Exactly one of ``modulars`` / ``probabilities`` must be given; a
    probability table additionally needs the epsilon it was taken at and
    the inversion method. Per-component weak values are divided by the
    conjugated postselection amplitude (for the uniform postselection this
    is the usual division by the reference weak value and the norm factor),
    then scaled so the reference component is real and positive and the
    matrix has unit norm.
    """
    m, n = (int(d) for d in dims)
    if (modulars is None) == (probabilities is None):
        raise ValueError("pass exactly one of modulars= or probabilities=")
    if probabilities is not None:
        if epsilon is None:
            raise ValueError("epsilon is required with probabilities")
        estimates = modulars_from_probabilities(probabilities, epsilon, method, clamp=clamp)
    else:
        estimates = {st: (v if isinstance(v, ModularEstimate)
                          else ModularEstimate(complex(v), "definitional", 0.0))
                     for st, v in modulars.items()}
    values = {st: est.value for st, est in estimates.items()}
    weak = _weak_value_matrix(values, (m, n), s)

    if postselection.dims != (m, n):
        raise ValueError("postselection dims must match the reconstruction dims")
    phi = postselection.amps.reshape(m, n)
    if np.min(np.abs(phi)) < 1e-12:
        raise ValueError(
            "postselection must overlap every product basis component"
        )
    raw = weak / phi.conj()
    ref = _select_reference(raw, reference)
    ratios = raw / raw[ref]
    normalizer = float(np.sqrt(np.sum(np.abs(ratios) ** 2)))
    amplitudes = ratios / normalizer
    return ReconstructionResult(
        dims=(m, n),
        amplitudes=amplitudes,
        weak_values=weak,
        modulars=values,
        normalizer=normalizer,
        reference_component=ref,
    )


def reconstruct_state(cfg: ProtocolConfig, method: Method = "exact_inversion",
                      *, clamp: bool = False, reference="auto") -> ReconstructionResult:
    """Full exact pipeline: protocol probabilities (or oracle modulars) in,
    normalized amplitudes out."""
    s = s_parameter(cfg.g)
    if method == "definitional":
        return reconstruct(dims=cfg.dims, postselection=cfg.postselection, s=s,
                           modulars=definitional_modulars(cfg), reference=reference)
    probabilities = collect_probabilities(cfg)
    return reconstruct(dims=cfg.dims, postselection=cfg.postselection, s=s,
                       probabilities=probabilities, epsilon=cfg.epsilon,
                       method=method, clamp=clamp, reference=reference)
