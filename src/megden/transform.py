"""Cascaded QMF multiresolution analysis and synthesis.

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

Both kernels skip every tap k where h[k] and g[k] are zero (4 of the
adjusted Haar ahaar2's 6 taps, 16 of ahaar8's 18). For finite input this
leaves every output bit unchanged: each sum starts at +0.0, a float sum
is -0.0 only when both addends are -0.0, so a sum never holds -0.0, and
adding the +-0.0 that a zero tap times a finite sample gives leaves it
as it was. A nan or inf sample still reaches the output through the
non-zero taps, but not as the nan that 0 * inf would have made.

Synthesis skips g[k]*d where the detail band d is all +-0.0, as soft
thresholding zeroes whole fine bands. g[k]*d is then +-0.0, so h[k]*a and
h[k]*a + g[k]*d differ at most in the sign of a zero, and a sum that
never holds -0.0 adds either to the same bits. A band holding nan or inf
is not all zero, so it is never skipped.

:func:`dwt_approx` runs the low-pass half of the analysis cascade alone,
for callers that read only the approximation band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DepthError, StructureError
from .filters import FilterPair, _frozen

__all__ = [
    "Decomposition",
    "dwt_analyze",
    "dwt_approx",
    "dwt_synthesize",
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


def _live_taps(h: np.ndarray, g: np.ndarray | None = None) -> list[int]:
    """The taps k, ascending, where h[k] or g[k] is non-zero."""
    live = h != 0.0 if g is None else (h != 0.0) | (g != 0.0)
    return np.flatnonzero(live).tolist()


def _analyze_step(
    x: np.ndarray, taps: list[int], h: np.ndarray, g: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """One level over ``taps``: the approximation, and the details unless ``g`` is None."""
    if x.size % 2:
        x = np.append(x, x[-1])  # repeat-last extension before the periodic wrap
    m = x.size // 2
    # np.resize tiles cyclically, so phases[p][j] == x[(2j + p) mod 2m] for every j;
    # each is a contiguous copy, so every tap reads a plain slice.
    phases = [np.resize(x[p::2], m + (h.size - 1) // 2) for p in (0, 1)]
    a = np.zeros(m)
    d = None if g is None else np.zeros(m)
    for k in taps:
        window = phases[k % 2][k // 2 : k // 2 + m]
        a += h[k] * window
        if d is not None:
            d += g[k] * window
    return a, d


def _synthesize_step(
    a: np.ndarray, d: np.ndarray, taps: list[int], h: np.ndarray, g: np.ndarray, out_len: int
) -> np.ndarray:
    m = a.size
    phases = (np.zeros(m), np.zeros(m))  # y[2j] and y[2j + 1]
    has_details = d.any()
    for k in taps:
        # tap k lands on y[(2i + k) mod 2m]: phase k % 2, rotated by k // 2
        v = h[k] * a + g[k] * d if has_details else h[k] * a
        phase, s = phases[k % 2], (k // 2) % m
        phase[s:] += v[: m - s]
        phase[:s] += v[m - s :]
    y = np.empty(2 * m)
    y[0::2], y[1::2] = phases
    return y[:out_len]


def _checked_signal(signal, levels: int) -> np.ndarray:
    """``signal`` as float64, once it is 1-D and long enough for ``levels`` levels."""
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
    return x


def dwt_analyze(signal, filters: FilterPair, levels: int) -> Decomposition:
    """Decompose ``signal`` into ``levels`` detail bands plus one approximation band."""
    a = _checked_signal(signal, levels)
    h, g = filters.lowpass, filters.highpass
    taps = _live_taps(h, g)
    lengths: list[int] = []
    details: list[np.ndarray] = []
    for _ in range(levels):
        lengths.append(a.size)
        a, d = _analyze_step(a, taps, h, g)
        details.append(d)
    return Decomposition(levels, a, tuple(details), tuple(lengths))


def dwt_approx(signal, filters: FilterPair, levels: int) -> np.ndarray:
    """The level-``levels`` approximation band of :func:`dwt_analyze`, bit for bit.

    Only the low-pass half of each level runs; no detail band is computed.
    """
    a = _checked_signal(signal, levels)
    taps = _live_taps(filters.lowpass)
    for _ in range(levels):
        a, _ = _analyze_step(a, taps, filters.lowpass)
    return a


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
    taps = _live_taps(h, g)
    for j in range(dec.levels - 1, -1, -1):
        a = _synthesize_step(a, dec.details[j], taps, h, g, dec.lengths[j])
    return a
