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
rotated by k//2. Every output element starts from its first product
plus 0.0, which IEEE addition makes 0.0 + product bit for bit, and adds
the other taps in ascending k; a phase that no tap reaches is all zero.
That order keeps the outputs byte-identical: reordering the taps,
starting from the bare first product, which may be -0.0, or a dot
product or convolution routine changes the last bits.

Each analysis phase is built once: one strided copy of x, the repeated
last sample that ends phase 1 of an odd-length x, and the periodic wrap
copied from the phase's own start. Each tap's product goes into a buffer
that the level reuses, and synthesis reuses its h[k]*a and g[k]*d
buffers across taps. The operations and their order are those above, so
this changes no output bit; it only saves allocation and copying.

Both kernels skip every tap k where h[k] and g[k] are zero (4 of the
adjusted Haar ahaar2's 6 taps, 16 of ahaar8's 18). For finite input this
leaves every output bit unchanged: a first product plus 0.0 is never
-0.0, a float sum is -0.0 only when both addends are -0.0, so a sum
never holds -0.0, and adding the +-0.0 that a zero tap times a finite
sample gives leaves it as it was. A nan or inf sample still reaches the
output through the non-zero taps, but not as the nan that 0 * inf would
have made.

Synthesis skips g[k]*d where the detail band d is all +-0.0, as soft
thresholding zeroes whole fine bands. g[k]*d is then +-0.0, so h[k]*a and
h[k]*a + g[k]*d differ at most in the sign of a zero, and a sum that
never holds -0.0 adds either to the same bits. A band holding nan or inf
is not all zero, so it is never skipped.

:func:`dwt_approx` runs the low-pass half of the analysis cascade alone,
for callers that read only the approximation band. The analysis kernel
runs on the last axis, so a stack of signals gets each signal's own bits,
but for a nan's sign and payload, which x86 takes from operand order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterPair, _check_int

__all__ = [
    "dwt_analyze",
    "dwt_approx",
    "dwt_synthesize",
    "max_decomposition_depth",
]

# The largest level input per signal, in bytes, that ``_approx_rows`` runs stacked. A small
# level is mostly numpy's fixed per-call cost, which a stack pays once; a large stacked level
# outgrows the cache, and its temporaries make glibc trim and fault the heap back in. 274 x 241
# trials, 528 KB rows, stack from level 4: of the splits measured in six environments, whose
# sizes shift the heap layout, the one faster than every level alone in all six.
_BLOCK_BYTES = 70_000


@dataclass(frozen=True)
class Decomposition:
    """Multi-level DWT output of a length-``length`` signal.

    ``details[0]`` is the finest level (level 1) and ``approx`` the
    deepest approximation, so ``levels`` is ``len(details)``. ``lengths[j]``
    is the signal length fed into level j+1, ceil(length / 2**j) as each
    level ceil-halves; synthesis uses it to undo the odd-length extensions.
    Each band's size must match ``lengths``. A C-contiguous float64 band is
    kept and frozen in place, not copied; any other band is converted.
    """

    approx: np.ndarray
    details: tuple[np.ndarray, ...]
    length: int

    def __post_init__(self) -> None:
        approx, *details = (
            np.ascontiguousarray(band, dtype=np.float64) for band in (self.approx, *self.details)
        )
        for band in (approx, *details):
            band.setflags(write=False)
        object.__setattr__(self, "approx", approx)
        object.__setattr__(self, "details", tuple(details))
        if not details or self.length < 1:
            raise ValueError(
                f"need at least one detail band and length >= 1; got "
                f"{len(details)} bands, length {self.length}"
            )
        lengths = self.lengths
        if approx.size != (expected := (lengths[-1] + 1) // 2):
            raise ValueError(f"approximation band has {approx.size} samples, expected {expected}")
        for j, (d, n) in enumerate(zip(details, lengths)):
            if d.size != (n + 1) // 2:
                raise ValueError(
                    f"detail band {j} has {d.size} samples, expected {(n + 1) // 2} "
                    f"for level input length {n}"
                )

    @property
    def levels(self) -> int:
        return len(self.details)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(-(-self.length // 2**j) for j in range(self.levels))


def max_decomposition_depth(length: int) -> int:
    """Number of ceil-halvings until the approximation shrinks to one sample."""
    _check_int("signal length", length, 2)
    return (int(length) - 1).bit_length()


def _live_taps(h: np.ndarray, g: np.ndarray | None = None) -> list[int]:
    """The taps k, ascending, where h[k] or g[k] is non-zero."""
    live = h != 0.0 if g is None else (h != 0.0) | (g != 0.0)
    return np.flatnonzero(live).tolist()


def _analyze_step(
    x: np.ndarray, taps: list[int], h: np.ndarray, g: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """One level over ``taps`` on the last axis: the approximation, and the details unless
    ``g`` is None."""
    m, wrap = (x.shape[-1] + 1) // 2, (h.size - 1) // 2
    rows = x.shape[:-1]
    phases = []
    for p in (0, 1):
        # phase[..., j] == x[..., (2j + p) mod 2m] after the repeat-last extension of an odd x
        phase = np.empty(rows + (m + wrap,))
        head = x[..., p::2]
        phase[..., : head.shape[-1]] = head
        if head.shape[-1] < m:
            phase[..., m - 1] = x[..., -1]
        for j in range(m, m + wrap, m):  # the periodic wrap; it spans several periods if wrap > m
            end = min(j + m, m + wrap)
            phase[..., j:end] = phase[..., : end - j]
        phases.append(phase)
    a = d = None  # each sum starts from its first product plus 0.0
    product = np.empty(rows + (m,))
    for k in taps:
        window = phases[k % 2][..., k // 2 : k // 2 + m]
        if a is None:
            a = np.add(np.multiply(window, h[k], out=product), 0.0)
            d = None if g is None else np.add(np.multiply(window, g[k], out=product), 0.0)
            continue
        a += np.multiply(window, h[k], out=product)
        if d is not None:
            d += np.multiply(window, g[k], out=product)
    if a is None:  # an all-zero filter pair has no live tap
        a, d = np.zeros(rows + (m,)), None if g is None else np.zeros(rows + (m,))
    return a, d


def _synthesize_step(
    a: np.ndarray, d: np.ndarray, taps: list[int], h: np.ndarray, g: np.ndarray, out_len: int
) -> np.ndarray:
    m = a.size
    phases = [None, None]  # y[2j] and y[2j + 1]
    has_details = d.any()
    v = np.empty(m)  # h[k]*a + g[k]*d, with g[k]*d in gd
    gd = np.empty(m) if has_details else None
    for k in taps:
        # tap k lands on y[(2i + k) mod 2m]: phase k % 2, rotated by k // 2
        np.multiply(a, h[k], out=v)
        if gd is not None:
            v += np.multiply(d, g[k], out=gd)
        p, s = k % 2, (k // 2) % m
        first = phases[p] is None  # a phase's sums start as 0.0 + its first tap's term
        phase = phases[p] = np.empty(m) if first else phases[p]
        np.add(0.0 if first else phase[s:], v[: m - s], out=phase[s:])
        np.add(0.0 if first else phase[:s], v[m - s :], out=phase[:s])
    y = np.empty(2 * m)
    y[0::2], y[1::2] = (0.0 if phase is None else phase for phase in phases)
    return y[:out_len]


def _checked_signal(signal, levels: int) -> np.ndarray:
    """``signal`` as float64, once it is 1-D and long enough for ``levels`` levels."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {x.shape}")
    deepest = max_decomposition_depth(x.size)  # refuses fewer than 2 samples
    _check_int(f"depth for a length-{x.size} signal", levels, 1, deepest)
    return x


def dwt_analyze(signal, filters: FilterPair, levels: int) -> Decomposition:
    """Decompose ``signal`` into ``levels`` detail bands plus one approximation band."""
    x = _checked_signal(signal, levels)
    h, g = filters.lowpass, filters.highpass
    taps = _live_taps(h, g)
    a, details = x, []
    for _ in range(levels):
        a, d = _analyze_step(a, taps, h, g)
        details.append(d)
    return Decomposition(a, details, x.size)


def dwt_approx(signal, filters: FilterPair, levels: int) -> np.ndarray:
    """The level-``levels`` approximation band of :func:`dwt_analyze`, bit for bit.

    Only the low-pass half of each level runs; no detail band is computed.
    """
    return _approx_rows((signal,), 1, filters, levels)[0]


def _approx_rows(signals, count: int, filters: FilterPair, levels: int) -> np.ndarray:
    """:func:`dwt_approx` of each of ``count`` equal-length ``signals``, as a T x m block.

    Each signal runs its own levels while its level input is over
    ``_BLOCK_BYTES``; the remaining levels then run once on the block.
    ``signals`` may be a generator, so a caller builds each signal only when
    the cascade reaches it. The block is allocated once, before the first
    level, and each signal's result is copied in and freed, so every signal
    reuses the same temporaries: kept apart and stacked, the results made
    glibc trim and fault back in about 6 MB per call of 10 seed-42 trials.
    """
    _check_int("signal count", count, 1)
    h = filters.lowpass
    taps = _live_taps(h)
    block = None
    for t, signal in enumerate(signals):
        a = _checked_signal(signal, levels)
        if block is None:  # before any level's temporaries, so they never fragment around it
            split, m = 0, a.size
            while split < levels and 8 * m > _BLOCK_BYTES:
                split, m = split + 1, (m + 1) // 2
            block = np.empty((count, m))
        for _ in range(split):
            a, _ = _analyze_step(a, taps, h)
        block[t] = a
    for _ in range(split, levels):
        block, _ = _analyze_step(block, taps, h)
    return block


def dwt_synthesize(dec: Decomposition, filters: FilterPair) -> np.ndarray:
    """Invert :func:`dwt_analyze` exactly, given the same filter pair."""
    h, g = filters.lowpass, filters.highpass
    lengths = dec.lengths
    a = dec.approx
    taps = _live_taps(h, g)
    for j in range(dec.levels - 1, -1, -1):
        a = _synthesize_step(a, dec.details[j], taps, h, g, lengths[j])
    return a
