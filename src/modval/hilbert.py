"""Pure states over small tensor-product Hilbert spaces.

Conventions shared by every module in the package:

* A space is an ordered tuple of factor dimensions ``dims``.
* Basis order is lexicographic with the FIRST factor most significant,
  i.e. index = ((i0*d1 + i1)*d2 + i2)*... for factor indices (i0, i1, ...).
* States are immutable after construction; every operation is a pure
  function returning fresh values, so concurrent use is safe.
* The package builds no operator and takes none: every coupling is diagonal
  in the product basis and is held as that diagonal (the dense operators of
  the tests live in ``tests/oracle.py``).

Dimensions are capped at a total of 4096 (desk-scale protocols only).
``STRUCTURAL_TOL`` is the tolerance of every structural check; each other
bound sits beside the one check that applies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_TOTAL_DIM = 4096


# unit norm of a configured state; Hermiticity, unit trace, positivity of a density matrix
STRUCTURAL_TOL = 1e-10


def _product(dims) -> int:
    return int(math.prod(dims))


def _checked_dims(dims) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"factor dimensions must be positive, got {dims}")
    total = _product(dims)
    if total > MAX_TOTAL_DIM:
        raise ValueError(
            f"total dimension {total} exceeds the supported cap of {MAX_TOTAL_DIM}"
        )
    return dims


def _frozen_complex(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PureState:
    """State vector with explicit tensor-factor dimensions."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = _checked_dims(self.dims)
        amps = _frozen_complex(self.amps, (_product(dims),))
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def dim(self) -> int:
        return self.amps.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _abs2(z):
    """|z|^2 as re^2 + im^2, which rounds closer than abs(z) ** 2."""
    return z.real * z.real + z.imag * z.imag


def _require_same_dims(a, b):
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")


def inner(a: PureState, b: PureState) -> complex:
    """Sesquilinear inner product <a|b>, conjugate-linear in the first slot."""
    _require_same_dims(a, b)
    return complex(np.vdot(a.amps, b.amps))
