"""Straight-loop reference implementations of megden's text I/O, kernels and trial means.

The library writes CSV with one format string per row (a row of one
repeated value formats it once), parses it with ``np.loadtxt`` and
formats SVG points with one format string per polyline, the x
coordinates already filled in. These per-value versions are the semantic references the
tests hold those fast paths to, byte for byte and bit for bit. The
threshold mean is the per-trial loop that ``denoise --threshold`` ran
before it went through ``denoise_dataset``, over the threshold estimator
as it was written before it took its median from a partition and its
shrink from ``copysign``. The approximation mean is the loop that
``denoise_multi`` ran before it summed per-sensor estimates: it tiles
each trial's output and accumulates K x post values. The DWT references
read each tap through a stride-2 window and scatter it through an index
array; the library's phase-slice kernels must match them bit for bit.
The generator reference draws all the noise in one call and adds the
noise-free trials to it, as ``generate_synthetic`` did before it drew
the noise in chunks straight into the dataset's block.
"""

from __future__ import annotations

import math
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from megden.dataio import SplitMix64, SyntheticConfig
from megden.denoise import (
    DenoiseConfig,
    Mode,
    TrialSet,
    concatenate_post_stimulus,
    denoise_trial,
)
from megden.filters import FilterPair, make_filter
from megden.svgplot import _PALETTE, PlotSpec


def save_matrix_reference(matrix, path) -> None:
    """One ``format(v, ".17g")`` call per value."""
    m = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", encoding="ascii") as f:
        for row in m:
            f.write(",".join(format(v, ".17g") for v in row))
            f.write("\n")


def load_matrix_reference(path) -> np.ndarray:
    """``float()`` per token, line by line; accepts non-finite values.

    A line holding digit-grouping ``_`` or an ASCII separator (0x1c-0x1f,
    which ``strip()`` would take as whitespace) is malformed.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width = -1
    with open(path, encoding="ascii") as f:
        for lineno, line in enumerate(f, start=1):
            if any(c in line for c in "_\x1c\x1d\x1e\x1f"):
                raise ValueError(f"{path}:{lineno}: malformed row")
            line = line.strip()
            if not line:
                raise ValueError(f"{path}:{lineno}: blank line in data file")
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row") from None
            if width < 0:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}:1: empty data file")
    return np.array(rows, dtype=np.float64)


def analyze_step_reference(x: np.ndarray, h: np.ndarray, g: np.ndarray):
    """One analysis level: tap k reads the stride-2 window ``xp[k : k + n : 2]``."""
    if x.size % 2:
        x = np.append(x, x[-1])
    n = x.size
    xp = np.resize(x, n + h.size - 1)
    a = np.zeros(n // 2)
    d = np.zeros(n // 2)
    for k in range(h.size):
        window = xp[k : k + n : 2]
        a += h[k] * window
        d += g[k] * window
    return a, d


def synthesize_step_reference(a, d, h, g, out_len: int) -> np.ndarray:
    """One synthesis level: tap k scatters into ``y[(2i + k) mod n]`` by index array."""
    n = 2 * a.size
    y = np.zeros(n)
    even = 2 * np.arange(a.size)
    for k in range(h.size):
        pos = (even + k) % n  # distinct positions for fixed k, so += is collision free
        y[pos] += h[k] * a + g[k] * d
    return y[:out_len]


def dwt_analyze_reference(x, filters: FilterPair, levels: int):
    """(approx, details finest first, lengths) through ``analyze_step_reference``."""
    a = np.asarray(x, dtype=np.float64)
    details, lengths = [], []
    for _ in range(levels):
        lengths.append(a.size)
        a, d = analyze_step_reference(a, filters.lowpass, filters.highpass)
        details.append(d)
    return a, details, lengths


def dwt_synthesize_reference(approx, details, lengths, filters: FilterPair) -> np.ndarray:
    """Inverse of ``dwt_analyze_reference`` through ``synthesize_step_reference``."""
    a = approx
    for d, n in zip(reversed(details), reversed(lengths)):
        a = synthesize_step_reference(a, d, filters.lowpass, filters.highpass, n)
    return a


def same_bits(got, want) -> bool:
    """Equal bits, but for the sign and payload of a nan.

    x86 takes those from the order of a sum's operands, which numpy's loops
    choose by memory layout, so a stacked and a lone signal may differ there.
    """
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


def threshold_denoise_reference(
    trial, config: DenoiseConfig, pre: int, post: int, median=np.median
) -> np.ndarray:
    """The universal-rule shrinkage through ``median`` and ``np.sign * np.maximum``."""
    m = np.asarray(trial, dtype=np.float64)
    vec = concatenate_post_stimulus(m, pre, post)
    pair = make_filter(config.family, config.param)
    approx, details, lengths = dwt_analyze_reference(vec, pair, config.scales)
    sigma = float(median(np.abs(details[0]))) / 0.6745
    lam = sigma * math.sqrt(2.0 * math.log(vec.size))
    shrunk = [np.sign(d) * np.maximum(np.abs(d) - lam, 0.0) for d in details]
    return dwt_synthesize_reference(approx, shrunk, lengths, pair).reshape(m.shape[0], post)


def threshold_mean_reference(trials: TrialSet, config: DenoiseConfig, index: int = 0) -> np.ndarray:
    """Fixed trial-order mean of the reference estimator, accumulated from the first output."""
    if config.mode is Mode.SINGLE_TRIAL:
        picked = [trials.trials[index]]
    else:
        picked = list(trials.trials)
    acc = None
    for t in picked:
        out = threshold_denoise_reference(t, config, trials.pre_samples, trials.post_samples)
        acc = out if acc is None else acc + out
    return acc / len(picked)


def approx_mean_reference(trials: TrialSet, config: DenoiseConfig) -> np.ndarray:
    """Trial-order mean of the tiled per-trial outputs, accumulated K x post from zeros."""
    pre, post = trials.pre_samples, trials.post_samples
    acc = np.zeros((trials.sensors, post))
    for t in trials.trials:
        acc += denoise_trial(t, config, pre, post)
    return acc / len(trials)


def render_traces_reference(matrix, spec: PlotSpec = PlotSpec()) -> str:
    """SVG document with one f-string per point, escaped by ``xml.sax``."""
    m = np.asarray(matrix, dtype=np.float64)
    k, t = m.shape
    left, right, top, bottom = 72.0, 24.0, 48.0, 58.0
    inner_w = spec.width - left - right
    inner_h = spec.height - top - bottom

    lo, hi = float(m.min()), float(m.max())
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    y_lo, y_hi = lo - pad, hi + pad
    x_span = float(max(t - 1, 1))
    xs = left + np.arange(t) / x_span * inner_w

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect width="{spec.width}" height="{spec.height}" fill="white"/>',
    ]
    if spec.title:
        out.append(
            f'<text x="{spec.width / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{escape(spec.title)}</text>'
        )
    x0, y0 = left, top + inner_h
    out.append(
        f'<line x1="{x0}" y1="{top}" x2="{x0}" y2="{y0}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{x0}" y1="{y0}" x2="{left + inner_w}" y2="{y0}" '
        'stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{left + inner_w / 2:.1f}" y="{spec.height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">Time (ms)</text>'
    )
    out.append(
        f'<text x="20" y="{top + inner_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {top + inner_h / 2:.1f})">Magnetic field (fT)</text>'
    )
    for value, x_px in ((0.0, x0), (float(t - 1), left + inner_w)):
        out.append(
            f'<text x="{x_px:.1f}" y="{y0 + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{value:g}</text>'
        )
    for value in (lo, hi):
        y_px = top + (y_hi - value) / (y_hi - y_lo) * inner_h
        out.append(
            f'<text x="{x0 - 6:.1f}" y="{y_px + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:.4g}</text>'
        )

    opacity = 0.9 if k <= 8 else 0.4
    for i in range(k):
        ys = top + (y_hi - m[i]) / (y_hi - y_lo) * inner_h
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="0.8" '
            f'stroke-opacity="{opacity}" points="{points}"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def generate_synthetic_reference(config: SyntheticConfig) -> TrialSet:
    """The whole noise block in one draw, then the noise-free trials added to it."""
    rng = SplitMix64(config.seed)
    gains = 2.0 * rng.uniform(config.sensors) - 1.0

    total = config.pre_samples + config.post_samples
    t_ms = np.arange(config.post_samples, dtype=np.float64)  # time since stimulus
    # Finite but extreme options can overflow; the result is checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        response = (
            config.response_amp
            * np.exp(-t_ms / config.response_decay_ms)
            * np.sin(2.0 * math.pi * config.response_freq_hz * t_ms / 1000.0)
        )
        base = np.zeros((config.sensors, total))
        base[:, config.pre_samples :] = gains[:, None] * response[None, :]

        if config.noise_sigma > 0.0:
            shape = (config.trials, config.sensors, total)
            block = config.noise_sigma * rng.gaussian(math.prod(shape)).reshape(shape)
            block += base
        else:  # a zero block added to base would turn its -0.0 samples into 0.0
            block = np.broadcast_to(base, (config.trials, *base.shape)).copy()
    if not np.isfinite(block).all():
        raise ValueError(
            f"synthetic samples are not finite for noise_sigma={config.noise_sigma!r}, "
            f"response_amp={config.response_amp!r}, "
            f"response_freq_hz={config.response_freq_hz!r}, "
            f"response_decay_ms={config.response_decay_ms!r}"
        )
    return TrialSet(block, config.pre_samples)
