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
    "SensorEstimate",
    "TrialSet",
    "average_trials",
    "concatenate_post_stimulus",
    "denoise_dataset",
    "denoise_multi",
    "denoise_trial",
    "estimate_sensors",
    "reconstruct_denoised",
    "select_trial",
    "threshold_denoise",
]


class Mode(Enum):
    SINGLE_TRIAL = "single"
    MULTI_TRIAL = "multi"


@dataclass(frozen=True)
class TrialSet:
    """Stimulus-aligned recordings: one K x (pre+post) matrix per trial, in fT."""

    trials: tuple[np.ndarray, ...]
    sensors: int
    pre_samples: int
    post_samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", tuple(_frozen(t) for t in self.trials))
        if self.sensors < 1 or self.post_samples < 1 or self.pre_samples < 0:
            raise ValueError(
                f"need sensors >= 1, post >= 1, pre >= 0; got "
                f"({self.sensors}, {self.pre_samples}, {self.post_samples})"
            )
        if not self.trials:
            raise ValueError("need at least one trial")
        shape = (self.sensors, self.pre_samples + self.post_samples)
        for i, t in enumerate(self.trials):
            if t.shape != shape:
                raise StructureError(f"trial {i} has shape {t.shape}, expected {shape}")

    def __len__(self) -> int:
        return len(self.trials)


@dataclass(frozen=True)
class SensorEstimate:
    """Per-sensor amplitude estimates with their provenance split."""

    values: np.ndarray
    wavelet_count: int
    mean_filled_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))
        if self.wavelet_count + self.mean_filled_count != self.values.size:
            raise StructureError(
                f"{self.wavelet_count} + {self.mean_filled_count} counts "
                f"!= {self.values.size} sensors"
            )


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
    return SensorEstimate(values, count, sensors - count)


def reconstruct_denoised(est: SensorEstimate, post: int) -> np.ndarray:
    """Emit each sensor's estimate constantly across the post-stimulus window."""
    if post < 1:
        raise ValueError(f"post-stimulus length must be >= 1, got {post}")
    return np.tile(est.values[:, None], (1, post))


def denoise_trial(trial, config: DenoiseConfig, pre: int, post: int) -> np.ndarray:
    """Concatenate -> estimate -> reconstruct for one K x (pre+post) trial."""
    return reconstruct_denoised(estimate_sensors(trial, config, pre, post), post)


def _estimator(config: DenoiseConfig):
    """The per-trial function ``config`` selects; both take (trial, config, pre, post)."""
    return threshold_denoise if config.threshold else denoise_trial


@_overflow_is_an_error("denoised estimate")
def denoise_multi(trials: TrialSet, config: DenoiseConfig) -> np.ndarray:
    """Mean of per-trial outputs of ``config``'s estimator, reduced in trial-index order."""
    pre, post = trials.pre_samples, trials.post_samples
    estimator = _estimator(config)
    acc = np.zeros((trials.sensors, post))
    for t in trials.trials:
        acc += estimator(t, config, pre, post)
    return acc / len(trials)


def select_trial(trials: TrialSet, index: int) -> np.ndarray:
    """The trial at ``index``; negative or too-large indices are an error, not a wrap."""
    if not 0 <= index < len(trials):
        raise ValueError(f"trial index {index} out of range 0..{len(trials) - 1}")
    return trials.trials[index]


def denoise_dataset(trials: TrialSet, config: DenoiseConfig, trial_index: int = 0) -> np.ndarray:
    """Denoise ``trials`` with ``config``'s estimator: the one entry point for both.

    ``config.mode`` picks one designated trial (``trial_index``, range
    checked) or the fixed trial-order mean over all trials; ``config.threshold``
    picks the approximation or the soft-threshold estimator. An estimate
    that overflows the float64 range is a ``StructureError``.
    """
    if config.mode is Mode.SINGLE_TRIAL:
        return _estimator(config)(
            select_trial(trials, trial_index), config, trials.pre_samples, trials.post_samples
        )
    return denoise_multi(trials, config)


@_overflow_is_an_error("trial sum")
def average_trials(trials: TrialSet) -> np.ndarray:
    """Element-wise mean across trials over the full pre+post window.

    A trial sum that overflows the float64 range is a ``StructureError``.
    """
    acc = np.zeros_like(trials.trials[0])
    for t in trials.trials:
        acc += t
    return acc / len(trials)


def _median(x: np.ndarray):
    """``np.median(x)``'s arithmetic on one partition, which sorts a nan last."""
    k, odd = divmod(x.size, 2)
    p = np.partition(x, k if odd else (k - 1, k))
    return p[k] if odd else (p[k - 1] + p[k]) / 2.0


@_overflow_is_an_error("denoised estimate")
def threshold_denoise(trial, config: DenoiseConfig, pre: int, post: int) -> np.ndarray:
    """Soft-threshold the detail bands of the concatenated vector and reconstruct.

    Universal rule: noise scale sigma = median(|d1|)/0.6745 from the
    finest details, threshold lambda = sigma * sqrt(2 ln(K*post)) applied
    to every detail band. The median takes ``np.median``'s middle partition
    element(s) and arithmetic, but leaves out a nan, which the shrink and
    rebuild still carry to the output. copysign(max(|d| - lambda, 0), d)
    equals sign(d) * max(|d| - lambda, 0): no analysis band holds -0.0.
    """
    m = np.asarray(trial, dtype=np.float64)
    vec = concatenate_post_stimulus(m, pre, post)
    pair = make_filter(config.family, config.param)
    dec = dwt_analyze(vec, pair, config.scales)
    mags = [np.abs(d) for d in dec.details]
    sigma = _median(mags[0]) / 0.6745
    lam = sigma * math.sqrt(2.0 * math.log(vec.size))
    for mag, d in zip(mags, dec.details):
        mag -= lam
        np.copysign(np.maximum(mag, 0.0, out=mag), d, out=mag)
    shrunk = Decomposition(dec.levels, dec.approx, tuple(mags), dec.lengths)
    return dwt_synthesize(shrunk, pair).reshape(m.shape[0], post)
