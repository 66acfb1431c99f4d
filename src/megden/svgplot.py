"""Static SVG rendering of multichannel traces: one polyline per sensor row."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = ["PlotSpec", "render_traces"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
X_LABEL = "Time (ms)"
Y_LABEL = "Magnetic field (fT)"

# Code points outside the XML 1.0 Char production: C0 controls other than
# tab, LF and CR, lone surrogates, U+FFFE and U+FFFF.
_NOT_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _escape(text: str) -> str:
    """ASCII SVG character data: ``&``, ``<``, ``>`` escaped, non-ASCII as ``&#N;``."""
    bad = _NOT_XML_CHAR.search(text)
    if bad:
        raise ValueError(f"plot text holds U+{ord(bad.group()):04X}, which XML 1.0 does not allow")
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return text.encode("ascii", "xmlcharrefreplace").decode("ascii")


@dataclass(frozen=True)
class PlotSpec:
    title: str = ""
    width: int = 960
    height: int = 600

    def __post_init__(self) -> None:
        if not (100 <= self.width <= 100_000 and 100 <= self.height <= 100_000):
            raise ValueError(
                f"plot sides must be 100..100000 px, got {self.width}x{self.height}"
            )


def render_traces(matrix, spec: PlotSpec = PlotSpec()) -> str:
    """Render a K x T matrix as an SVG document with exactly K polylines.

    The x axis spans the plotted window in milliseconds (column index at
    a 1 ms sample period); rows become overlaid traces.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 2:
        raise ValueError(
            f"plot input must be a 2-D matrix with at least 2 columns, got shape {m.shape}"
        )
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"plot input has a non-finite value at row {row}, column {col}")
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
            f'font-family="sans-serif" font-size="16">{_escape(spec.title)}</text>'
        )
    # Axes and labels.
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
        f'font-family="sans-serif" font-size="13">{_escape(X_LABEL)}</text>'
    )
    out.append(
        f'<text x="20" y="{top + inner_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {top + inner_h / 2:.1f})">{_escape(Y_LABEL)}</text>'
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
    points_format = " ".join(["%.2f,%.2f"] * t)
    xy = np.empty(2 * t)
    xy[0::2] = xs
    for i in range(k):
        xy[1::2] = top + (y_hi - m[i]) / (y_hi - y_lo) * inner_h
        points = points_format % tuple(xy.tolist())
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="0.8" '
            f'stroke-opacity="{opacity}" points="{points}"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
