"""Orthonormal analysis filter pairs for the three supported wavelet families.

All filters are stored in the orthonormal convention (sum(h) = sqrt(2),
sum(h^2) = 1), so the cascaded transform preserves energy and perfect
reconstruction needs no per-level gain. ``classical_convention`` rescales
to the normalizations the families are usually tabulated in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "Family",
    "FilterPair",
    "adjusted_haar_freq_magnitude",
    "classical_convention",
    "make_filter",
    "qmf_highpass",
]

_SQRT2 = math.sqrt(2.0)

# Guard against absurd filter lengths (2n + 2 taps for n interior zero pairs).
MAX_ADJUSTED_HAAR_ZEROS = 64


class Family(Enum):
    """Supported wavelet families, keyed by their CLI names."""

    DAUBECHIES4 = "db4"
    COIFLET1 = "coif1"
    ADJUSTED_HAAR = "ahaar"


def _frozen(values) -> np.ndarray:
    """A read-only, C-contiguous float64 copy that never aliases the caller's array."""
    arr = np.array(values, dtype=np.float64, order="C")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class FilterPair:
    """Low-pass/high-pass analysis pair for one wavelet family.

    ``param`` is the adjusted-Haar zero count n (2n zeros sit between the
    two nonzero taps); it is 0 for the other families. The high-pass is
    derived: the alternating flip g[k] = (-1)^k h[L-1-k] of the low-pass.
    """

    family: Family
    param: int
    lowpass: np.ndarray
    highpass: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lowpass", _frozen(self.lowpass))
        object.__setattr__(self, "highpass", _frozen(qmf_highpass(self.lowpass)))

    def __len__(self) -> int:
        return self.lowpass.size

    def validate(self) -> None:
        """Raise ValueError if any orthonormal-pair invariant is violated beyond 1e-12."""
        tol = 1e-12
        h, g = self.lowpass, self.highpass
        n = h.size  # even and positive: qmf_highpass refused any other low-pass
        if abs(float(h.sum()) - _SQRT2) > tol:
            raise ValueError(f"sum(h) = {float(h.sum())!r}, expected sqrt(2)")
        if abs(float(h @ h) - 1.0) > tol:
            raise ValueError(f"sum(h^2) = {float(h @ h)!r}, expected 1")
        if abs(float(g.sum())) > tol:
            raise ValueError(f"sum(g) = {float(g.sum())!r}, expected 0")
        for m in range(1, n // 2):
            corr = float(h[: n - 2 * m] @ h[2 * m :])
            if abs(corr) > tol:
                raise ValueError(f"double-shift correlation at offset {2 * m} is {corr!r}")
        if self.family is Family.ADJUSTED_HAAR:
            if n != 2 * self.param + 2 or np.count_nonzero(h[1:-1]):
                raise ValueError("adjusted-Haar taps must be [1, 0 x 2n, 1]/sqrt(2)")


def qmf_highpass(lowpass) -> np.ndarray:
    """Derive the quadrature mirror high-pass: g[k] = (-1)^k h[L-1-k]."""
    h = np.asarray(lowpass, dtype=np.float64)
    if h.ndim != 1 or h.size == 0 or h.size % 2:
        raise ValueError(f"lowpass must be a non-empty even-length vector, got shape {h.shape}")
    g = h[::-1].copy()
    g[1::2] = -g[1::2]
    return g


def _check_param(family: Family, param: int) -> None:
    """Raise ValueError unless ``family`` is a Family and ``param`` a zero count it can build."""
    if not isinstance(family, Family):
        raise ValueError(f"family must be a Family member, got {family!r}")
    if family is Family.ADJUSTED_HAAR:
        if not 0 <= param <= MAX_ADJUSTED_HAAR_ZEROS:
            raise ValueError(
                f"adjusted-Haar zero count must be in 0..{MAX_ADJUSTED_HAAR_ZEROS}, got {param}"
            )
    elif param != 0:
        raise ValueError(f"{family.value} takes no zero-count parameter, got {param}")


def make_filter(family: Family, param: int = 0) -> FilterPair:
    """Build the filter pair for ``family``; ``param`` is the adjusted-Haar zero count.

    db4 is the four-tap Daubechies filter with two vanishing wavelet
    moments. coif1 is the six-tap coiflet with vanishing moments on both
    the wavelet and scaling side, in closed form in sqrt(7); the test suite
    verifies its moment conditions rather than trusting tables. ahaar is
    the Haar low-pass with 2n interior zeros: [1, 0 x 2n, 1]/sqrt(2).
    """
    _check_param(family, param)
    if family is Family.ADJUSTED_HAAR:
        h = np.zeros(2 * param + 2)
        h[0] = h[-1] = 1.0 / _SQRT2
    elif family is Family.DAUBECHIES4:
        s3 = math.sqrt(3.0)
        h = np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * _SQRT2)
    else:
        s7 = math.sqrt(7.0)
        h = np.array(
            [s7 - 3.0, 1.0 - s7, 14.0 - 2.0 * s7, 14.0 + 2.0 * s7, 5.0 + s7, 1.0 - s7]
        ) / (16.0 * _SQRT2)
    return FilterPair(family, param, h)


def classical_convention(pair: FilterPair) -> tuple[np.ndarray, np.ndarray]:
    """Rescale a pair to its classical textbook normalization.

    Daubechies and coiflet taps are usually tabulated summing to 2; the
    Haar-family kernel is usually written with a 0.5 prefactor (summing
    to 1). Returns (lowpass, highpass) in that convention.
    """
    scale = 1.0 / _SQRT2 if pair.family is Family.ADJUSTED_HAAR else _SQRT2
    return pair.lowpass * scale, pair.highpass * scale


def adjusted_haar_freq_magnitude(n: int, omega: float) -> float:
    """Frequency magnitude sin^2((2n+1)w/4) / |(2n+1)w/4| of the adjusted Haar wavelet.

    Bounded above by 4/((2n+1)|w|) because sin^2 <= 1; the zero count n
    tightens the envelope by the factor 2n+1. The closed form is singular
    at w = 0, so zero is rejected rather than special-cased.
    """
    if n < 0:
        raise ValueError(f"zero count n must be non-negative, got {n}")
    w = float(omega)
    if w == 0.0:
        raise ValueError("omega must be nonzero")
    x = (2 * n + 1) * w / 4.0
    return math.sin(x) ** 2 / abs(x)
