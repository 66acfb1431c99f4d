"""Wavelet multiresolution denoising for multichannel evoked-response recordings.

The package covers the full batch pipeline: orthonormal filter construction,
cascaded two-channel decomposition and reconstruction with periodized
boundaries, the concatenation-based per-sensor denoiser, the SNIR quality
metric, deterministic synthetic data generation, CSV/JSON dataset files, and
an SVG trace plotter.
"""

from .dataio import (
    Manifest,
    SplitMix64,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    load_manifest,
    load_matrix,
    load_trials,
    save_manifest,
    save_matrix,
    write_dataset,
)
from .denoise import (
    DenoiseConfig,
    Mode,
    SensorEstimate,
    TrialSet,
    average_trials,
    concatenate_post_stimulus,
    denoise_dataset,
    denoise_multi,
    denoise_trial,
    estimate_sensors,
    reconstruct_denoised,
    threshold_denoise,
)
from .errors import DatasetError, DepthError, StructureError
from .filters import (
    Family,
    FilterPair,
    adjusted_haar_freq_magnitude,
    classical_convention,
    make_adjusted_haar,
    make_coiflet1,
    make_daubechies4,
    make_filter,
    qmf_highpass,
)
from .metrics import SnirReport, rmse, snir
from .svgplot import PlotSpec, render_traces
from .transform import (
    CwtQuery,
    Decomposition,
    PiecewiseConstantWavelet,
    cwt_point,
    dwt_analyze,
    dwt_synthesize,
    haar_mother,
    max_decomposition_depth,
)

__version__ = "0.1.0"

__all__ = [
    "CwtQuery",
    "DatasetError",
    "Decomposition",
    "DenoiseConfig",
    "DepthError",
    "Family",
    "FilterPair",
    "Manifest",
    "Mode",
    "PiecewiseConstantWavelet",
    "PlotSpec",
    "SensorEstimate",
    "SnirReport",
    "SplitMix64",
    "StructureError",
    "SyntheticConfig",
    "TrialSet",
    "adjusted_haar_freq_magnitude",
    "average_trials",
    "classical_convention",
    "concatenate_post_stimulus",
    "cwt_point",
    "denoise_dataset",
    "denoise_multi",
    "denoise_trial",
    "dwt_analyze",
    "dwt_synthesize",
    "estimate_sensors",
    "generate_synthetic",
    "haar_mother",
    "load_dataset",
    "load_manifest",
    "load_matrix",
    "load_trials",
    "make_adjusted_haar",
    "make_coiflet1",
    "make_daubechies4",
    "make_filter",
    "max_decomposition_depth",
    "qmf_highpass",
    "reconstruct_denoised",
    "render_traces",
    "rmse",
    "save_manifest",
    "save_matrix",
    "snir",
    "threshold_denoise",
    "write_dataset",
]
