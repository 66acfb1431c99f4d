"""Wavelet multiresolution denoising for multichannel evoked-response recordings.

The package covers the full batch pipeline: orthonormal filter construction,
cascaded two-channel decomposition and reconstruction with periodized
boundaries, the concatenation-based per-sensor denoiser, the SNIR quality
metric, deterministic synthetic data generation, CSV/JSON dataset files, and
an SVG trace plotter.
"""

from . import dataio, denoise, errors, filters, metrics, svgplot, transform
from .dataio import *  # noqa: F401,F403
from .denoise import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .filters import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .svgplot import *  # noqa: F401,F403
from .transform import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (dataio, denoise, errors, filters, metrics, svgplot, transform)
        for name in module.__all__
    }
)
