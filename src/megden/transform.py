"""Cascaded QMF multiresolution analysis and synthesis, plus a pointwise CWT.

The discrete transform is dyadic (scale factor 2, unit shift) and
periodized: each level computes the decimated periodic correlations

    a[i] = sum_k h[k] * x[(2i + k) mod N]
    d[i] = sum_k g[k] * x[(2i + k) mod N]

after extending an odd-length working signal by repeating its final
sample. The even-index alignment above is a fixed convention so that
coefficient values are reproducible bit for bit.

Both kernels work on the even and odd phases x_0[j] = x[2j] and
x_1[j] = x[2j + 1] of the periodic signal, so every tap is a contiguous
slice,

    a[i] = sum_k h[k] * x_{k%2}[i + k//2],

and synthesis adds tap k's term h[k]*a + g[k]*d to output phase k%2
rotated by k//2. Every output element is summed from 0.0 over the taps
in ascending k. That order keeps the outputs byte-identical: reordering
the taps, starting from the first product (0.0 + -0.0 is 0.0), or a dot
product or convolution routine changes the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DepthError, StructureError
from .filters import FilterPair, _frozen

__all__ = [
    "CwtQuery",
    "Decomposition",
    "PiecewiseConstantWavelet",
    "cwt_point",
    "dwt_analyze",
    "dwt_synthesize",
    "haar_mother",
    "max_decomposition_depth",
]


@dataclass(frozen=True)
class Decomposition:
    """Multi-level DWT output.

    ``details[0]`` is the finest level (level 1) and ``approx`` the
    level-``levels`` approximation. ``lengths[j]`` records the signal
    length fed into level j+1; synthesis uses it to undo the odd-length
    extensions, so ``lengths[0]`` is the original signal length.
    """

    levels: int
    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "approx", _frozen(self.approx))
        object.__setattr__(self, "details", tuple(_frozen(d) for d in self.details))
        object.__setattr__(self, "lengths", tuple(int(n) for n in self.lengths))
        if self.levels != len(self.details) or self.levels != len(self.lengths):
            raise StructureError(
                f"levels = {self.levels} but {len(self.details)} detail bands "
                f"and {len(self.lengths)} recorded lengths"
            )


def max_decomposition_depth(length: int) -> int:
    """Number of ceil-halvings until the approximation shrinks to one sample."""
    if length < 2:
        raise ValueError(f"signal must have at least 2 samples, got {length}")
    depth, n = 0, length
    while n > 1:
        n = (n + 1) // 2
        depth += 1
    return depth


def _analyze_step(x: np.ndarray, h: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if x.size % 2:
        x = np.append(x, x[-1])  # repeat-last extension before the periodic wrap
    m = x.size // 2
    # np.resize tiles cyclically, so phases[p][j] == x[(2j + p) mod 2m] for every j;
    # each is a contiguous copy, so every tap reads a plain slice.
    phases = [np.resize(x[p::2], m + (h.size - 1) // 2) for p in (0, 1)]
    a = np.zeros(m)
    d = np.zeros(m)
    for k in range(h.size):
        window = phases[k % 2][k // 2 : k // 2 + m]
        a += h[k] * window
        d += g[k] * window
    return a, d


def _synthesize_step(
    a: np.ndarray, d: np.ndarray, h: np.ndarray, g: np.ndarray, out_len: int
) -> np.ndarray:
    m = a.size
    phases = (np.zeros(m), np.zeros(m))  # y[2j] and y[2j + 1]
    for k in range(h.size):
        # tap k lands on y[(2i + k) mod 2m]: phase k % 2, rotated by k // 2
        v = h[k] * a + g[k] * d
        phase, s = phases[k % 2], (k // 2) % m
        phase[s:] += v[: m - s]
        phase[:s] += v[m - s :]
    y = np.empty(2 * m)
    y[0::2], y[1::2] = phases
    return y[:out_len]


def dwt_analyze(signal, filters: FilterPair, levels: int) -> Decomposition:
    """Decompose ``signal`` into ``levels`` detail bands plus one approximation band."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {x.shape}")
    if x.size < 2:
        raise ValueError(f"signal must have at least 2 samples, got {x.size}")
    if levels < 1:
        raise ValueError(f"decomposition depth must be >= 1, got {levels}")
    deepest = max_decomposition_depth(x.size)
    if levels > deepest:
        raise DepthError(
            f"depth {levels} is too deep for a length-{x.size} signal; "
            f"max feasible depth is {deepest}"
        )
    h, g = filters.lowpass, filters.highpass
    lengths: list[int] = []
    details: list[np.ndarray] = []
    a = x
    for _ in range(levels):
        lengths.append(a.size)
        a, d = _analyze_step(a, h, g)
        details.append(d)
    return Decomposition(levels, a, tuple(details), tuple(lengths))


def dwt_synthesize(dec: Decomposition, filters: FilterPair) -> np.ndarray:
    """Invert :func:`dwt_analyze` exactly, given the same filter pair."""
    h, g = filters.lowpass, filters.highpass
    expected = (dec.lengths[-1] + 1) // 2
    if dec.approx.size != expected:
        raise StructureError(
            f"approximation band has {dec.approx.size} samples, expected {expected}"
        )
    for j, (d, n) in enumerate(zip(dec.details, dec.lengths)):
        if d.size != (n + 1) // 2:
            raise StructureError(
                f"detail band {j} has {d.size} samples, expected {(n + 1) // 2} "
                f"for recorded length {n}"
            )
    a = dec.approx
    for j in range(dec.levels - 1, -1, -1):
        a = _synthesize_step(a, dec.details[j], h, g, dec.lengths[j])
    return a


@dataclass(frozen=True)
class CwtQuery:
    """One continuous-transform evaluation point: scale, shift, and sample spacing."""

    scale: float
    shift: float
    dt: float = 1.0

    def __post_init__(self) -> None:
        if self.scale == 0.0:
            raise ValueError("scale must be nonzero")
        if self.dt <= 0.0:
            raise ValueError(f"sample spacing must be positive, got {self.dt}")


@dataclass(frozen=True)
class PiecewiseConstantWavelet:
    """Mother wavelet given as constant pieces (start, stop, value) on [start, stop).

    The pieces must integrate to zero (a wavelet has zero mean); points
    outside every piece evaluate to 0.
    """

    pieces: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        pieces = tuple((float(a), float(b), float(v)) for a, b, v in self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValueError("wavelet needs at least one piece")
        for a, b, _ in pieces:
            if not a < b:
                raise ValueError(f"piece [{a}, {b}) is empty or reversed")
        integral = sum(v * (b - a) for a, b, v in pieces)
        mass = sum(abs(v) * (b - a) for a, b, v in pieces)
        if abs(integral) > 1e-12 * max(mass, 1.0):
            raise ValueError(f"pieces integrate to {integral!r}, expected 0")

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for a, b, v in self.pieces:
            out += v * ((t >= a) & (t < b))
        return out


def haar_mother() -> PiecewiseConstantWavelet:
    """Unit-norm Haar mother wavelet: +1 on [0, 0.5), -1 on [0.5, 1)."""
    return PiecewiseConstantWavelet(((0.0, 0.5, 1.0), (0.5, 1.0, -1.0)))


def cwt_point(signal, query: CwtQuery, wavelet: PiecewiseConstantWavelet) -> float:
    """Rectangle-rule transform value sum_k x[k] |a|^(-1/2) psi((k*dt - b)/a) dt.

    Samples x[k] are taken at t = k*dt; the supported wavelets are real,
    so no conjugation is involved.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {x.shape}")
    t = np.arange(x.size) * query.dt
    psi = wavelet((t - query.shift) / query.scale)
    return float((x @ psi) * query.dt / math.sqrt(abs(query.scale)))
