"""Multichannel denoising: concatenate post-stimulus rows, decompose, estimate, rebuild.

The pipeline concatenates all K sensor rows of the post-stimulus window
into one vector, runs a multi-scale decomposition, rescales the deep
approximation coefficients into per-sensor amplitude estimates (one
coefficient per sensor, surplus coefficients dropped), fills any sensors
left without a coefficient with their own post-stimulus temporal mean,
and emits each estimate constantly across the post-stimulus window.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import StructureError
from .filters import Family, _check_param, _frozen, make_filter
from .transform import Decomposition, dwt_analyze, dwt_approx, dwt_synthesize

__all__ = [
    "DenoiseConfig",
    "Mode",
    "TrialSet",
    "average_trials",
    "denoise_dataset",
]


class Mode(Enum):
    SINGLE_TRIAL = "single"
    MULTI_TRIAL = "multi"


@dataclass(frozen=True)
class TrialSet:
    """Stimulus-aligned recordings in fT: one read-only T x K x (pre+post) block.

    ``trials`` may be any T x K x (pre+post) array or a sequence of T
    K x (pre+post) matrices; it is copied once into a read-only float64
    block, so trials of mixed shapes are a ``ValueError``.
    """

    trials: np.ndarray
    pre_samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", _frozen(self.trials))
        shape = self.trials.shape
        if len(shape) != 3 or min(shape[:2]) < 1 or not 0 <= self.pre_samples < shape[2]:
            raise ValueError(
                f"need a T x K x (pre+post) block with T >= 1, K >= 1 and 0 <= pre < columns; "
                f"got shape {shape}, pre {self.pre_samples}"
            )

    @property
    def sensors(self) -> int:
        return self.trials.shape[1]

    @property
    def post_samples(self) -> int:
        return self.trials.shape[2] - self.pre_samples

    def __len__(self) -> int:
        return self.trials.shape[0]


@dataclass(frozen=True)
class SensorEstimate:
    """Per-sensor amplitude estimates; the first ``wavelet_count`` are wavelet, the rest mean-filled."""

    values: np.ndarray
    wavelet_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))
        if not 0 <= self.wavelet_count <= self.values.size:
            raise StructureError(
                f"{self.wavelet_count} wavelet estimates for {self.values.size} sensors"
            )

    @property
    def mean_filled_count(self) -> int:
        return self.values.size - self.wavelet_count


@dataclass(frozen=True)
class DenoiseConfig:
    """Wavelet family/parameter, decomposition depth, trial handling mode, and estimator.

    ``threshold`` picks the per-trial estimator: False (the default) is the
    approximation estimator of :func:`denoise_trial`, True the soft-threshold
    shrinkage of :func:`threshold_denoise`.
    """

    family: Family
    param: int = 0
    scales: int = 8
    mode: Mode = Mode.MULTI_TRIAL
    threshold: bool = False

    def __post_init__(self) -> None:
        if self.scales < 1:
            raise ValueError(f"scales must be >= 1, got {self.scales}")
        _check_param(self.family, self.param)  # a bad zero count fails here, not after loading


def concatenate_post_stimulus(trial, pre: int, post: int) -> np.ndarray:
    """Concatenate the post-stimulus rows sensor-major: out[k*post + t] = trial[k][pre+t]."""
    m = np.asarray(trial, dtype=np.float64)
    if m.ndim != 2:
        raise StructureError(f"trial must be a 2-D matrix, got shape {m.shape}")
    if pre < 0 or post < 1 or m.shape[1] != pre + post:
        raise StructureError(
            f"trial has {m.shape[1]} columns, expected pre + post = {pre} + {post}"
        )
    return m[:, pre:].reshape(-1)


@contextmanager
def _overflow_is_an_error(stage: str):
    """Raise StructureError where ``stage`` overflows float64; nan and inf stay quiet."""
    try:
        with np.errstate(over="raise", invalid="ignore"):
            yield
    except FloatingPointError:
        raise StructureError(f"{stage} overflows the float64 range") from None


@_overflow_is_an_error("denoised estimate")
def estimate_sensors(trial, config: DenoiseConfig, pre: int, post: int) -> SensorEstimate:
    """Estimate one amplitude per sensor from the deep approximation band.

    The post-stimulus rows are concatenated and decomposed; approximation
    coefficients are rescaled by 2^(-J/2) to undo the transform's
    per-level sqrt(2) gain. Coefficient i maps to sensor i; surplus
    coefficients are dropped, and sensors beyond the coefficient count
    get their own post-stimulus temporal mean instead.
    """
    m = np.asarray(trial, dtype=np.float64)
    vec = concatenate_post_stimulus(m, pre, post)
    approx = dwt_approx(vec, make_filter(config.family, config.param), config.scales)
    approx *= 2.0 ** (-config.scales / 2.0)
    sensors = m.shape[0]
    count = min(approx.size, sensors)
    values = np.empty(sensors)
    values[:count] = approx[:count]
    if count < sensors:
        values[count:] = m[count:, pre:].mean(axis=1)
    return SensorEstimate(values, count)


def reconstruct_denoised(est: SensorEstimate, post: int) -> np.ndarray:
    """Emit each sensor's estimate constantly across the post-stimulus window."""
    if post < 1:
        raise ValueError(f"post-stimulus length must be >= 1, got {post}")
    return np.tile(est.values[:, None], (1, post))


def denoise_trial(trial, config: DenoiseConfig, pre: int, post: int) -> np.ndarray:
    """Concatenate -> estimate -> reconstruct for one K x (pre+post) trial."""
    return reconstruct_denoised(estimate_sensors(trial, config, pre, post), post)


@_overflow_is_an_error("denoised estimate")
def denoise_multi(trials: TrialSet, config: DenoiseConfig) -> np.ndarray:
    """Mean of per-trial outputs of ``config``'s estimator, reduced in trial-index order.

    The approximation estimator's output is constant along each sensor's
    window, so its mean sums the K per-trial sensor estimates and tiles
    them once; the threshold estimator's sums its K x post outputs.
    """
    pre, post = trials.pre_samples, trials.post_samples
    if config.threshold:
        acc = np.zeros((trials.sensors, post))
        for t in trials.trials:
            acc += threshold_denoise(t, config, pre, post)
        return acc / len(trials)
    total = np.zeros(trials.sensors)
    for t in trials.trials:
        total += estimate_sensors(t, config, pre, post).values
    return np.tile((total / len(trials))[:, None], (1, post))


def denoise_dataset(trials: TrialSet, config: DenoiseConfig, trial_index: int = 0) -> np.ndarray:
    """Denoise ``trials`` with ``config``'s estimator: the one entry point for both.

    ``config.mode`` picks one designated trial (``trial_index``, range
    checked) or the fixed trial-order mean over all trials; ``config.threshold``
    picks the approximation or the soft-threshold estimator. An estimate
    that overflows the float64 range is a ``StructureError``.
    """
    if config.mode is Mode.SINGLE_TRIAL:
        if not 0 <= trial_index < len(trials):  # a negative index is an error, not a wrap
            raise ValueError(f"trial index {trial_index} out of range 0..{len(trials) - 1}")
        estimator = threshold_denoise if config.threshold else denoise_trial
        return estimator(
            trials.trials[trial_index], config, trials.pre_samples, trials.post_samples
        )
    return denoise_multi(trials, config)


@_overflow_is_an_error("trial sum")
def average_trials(trials: TrialSet) -> np.ndarray:
    """Element-wise mean across trials over the full pre+post window.

    A trial sum that overflows the float64 range is a ``StructureError``.
    """
    return np.add.reduce(trials.trials, axis=0, initial=0.0) / len(trials)


def _median(x: np.ndarray):
    """``np.median(x)``'s arithmetic on an in-place partition of ``x``, which sorts a nan last."""
    k, odd = divmod(x.size, 2)
    x.partition(k if odd else (k - 1, k))
    return x[k] if odd else (x[k - 1] + x[k]) / 2.0


@_overflow_is_an_error("denoised estimate")
def threshold_denoise(trial, config: DenoiseConfig, pre: int, post: int) -> np.ndarray:
    """Soft-threshold the detail bands of the concatenated vector and reconstruct.

    Universal rule: noise scale sigma = median(|d1|)/0.6745 from the
    finest details, threshold lambda = sigma * sqrt(2 ln(K*post)) applied
    to every detail band. The median takes ``np.median``'s middle partition
    element(s) and arithmetic, but leaves out a nan, which the shrink and
    rebuild still carry to the output. The shrink d - clip(d, -lambda, lambda)
    is sign(d) * max(|d| - lambda, 0) but for a zero's sign, which no synthesis
    sum keeps, and a nan's sign bit; which outputs are finite is the same.
    """
    m = np.asarray(trial, dtype=np.float64)
    vec = concatenate_post_stimulus(m, pre, post)
    pair = make_filter(config.family, config.param)
    dec = dwt_analyze(vec, pair, config.scales)
    sigma = _median(np.abs(dec.details[0])) / 0.6745
    lam = sigma * math.sqrt(2.0 * math.log(vec.size))
    shrunk = []
    for d in dec.details:
        c = np.clip(d, -lam, lam)
        shrunk.append(np.subtract(d, c, out=c))
    rebuilt = dwt_synthesize(Decomposition(dec.approx, shrunk, dec.length), pair)
    return rebuilt.reshape(m.shape[0], post)
