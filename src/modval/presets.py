"""Named preparation and postselection states.

The ``fig3``/``fig4*`` identifiers are the state preset names of the CLI
schema: fig3 is the phase family (|HH> + e^{i theta}|VV>)/sqrt2, fig4a-fig4d
the four two-qubit demonstration states. ``postselection_preset`` sizes
``uniform_plus``, the uniform superposition, to the system's m x n dims;
``alt_postselection`` is the two-qubit (+,-)-product state used near the
orthogonal regime.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import PureState

STATE_PRESETS = ("fig3", "fig4a", "fig4b", "fig4c", "fig4d")
POSTSELECTION_PRESETS = ("uniform_plus", "alt_postselection")


def phase_bell(theta: float) -> PureState:
    """(|HH> + e^{i theta} |VV>)/sqrt2."""
    amps = np.array([1.0, 0.0, 0.0, np.exp(1j * theta)]) / math.sqrt(2.0)
    return PureState((2, 2), amps)


def uniform_plus(m: int = 2, n: int = 2) -> PureState:
    """Uniform product superposition |+...+>, the default postselection."""
    total = m * n
    return PureState((m, n), np.full(total, 1.0 / math.sqrt(total), dtype=np.complex128))


def alt_postselection() -> PureState:
    """(|H>+|V>)(|H>-|V>)/2, usable where the uniform postselection is orthogonal."""
    return PureState((2, 2), np.array([1.0, -1.0, 1.0, -1.0]) / 2.0)


def state_preset(name: str, theta: float | None = None) -> PureState:
    if name == "fig3":
        return phase_bell(0.0 if theta is None else theta)
    if name == "fig4a":
        return phase_bell(0.0)
    if name == "fig4b":
        return phase_bell(math.pi / 2.0)
    if name == "fig4c":
        # (|H>+|V>)(|H>-i|V>)/2, a product state
        return PureState((2, 2), np.array([1.0, -1j, 1.0, -1j]) / 2.0)
    if name == "fig4d":
        amps = np.array([0.8, -0.6j, -0.8, -0.6j]) / math.sqrt(2.0)
        return PureState((2, 2), amps)
    raise ValueError(f"unknown state preset {name!r}; choose from {STATE_PRESETS}")


def postselection_preset(name: str, dims: tuple[int, int]) -> PureState:
    """Postselection preset ``name`` for a system of ``dims``."""
    if name == "uniform_plus":
        return uniform_plus(*dims)
    if name == "alt_postselection":
        return alt_postselection()
    raise ValueError(f"unknown postselection preset {name!r}; "
                     f"choose from {POSTSELECTION_PRESETS}")
