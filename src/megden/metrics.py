"""Quality metrics comparing a reference signal matrix against an estimate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .filters import _frozen

__all__ = ["SnirReport", "rmse", "snir"]


def _check_pair(y_ref, y_est) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(y_ref, dtype=np.float64)
    b = np.asarray(y_est, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise StructureError(f"matrices must share a 2-D shape, got {a.shape} vs {b.shape}")
    return a, b


@dataclass(frozen=True)
class SnirReport:
    """Per-sensor energy ratios and their aggregate in dB."""

    per_sensor_ratio: np.ndarray
    snir_db: float
    sensors: int
    samples: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_sensor_ratio", _frozen(self.per_sensor_ratio))


def snir(y_mean, y_calc) -> SnirReport:
    """Signal-to-interference/noise ratio of an estimate against the trial average.

    Per sensor i the ratio is sum_n y_mean[i,n]^2 / sum_n (y_mean - y_calc)[i,n]^2;
    the aggregate is 10*log10 of the mean ratio (ratios are averaged raw,
    before taking dB). A sensor with exactly zero error energy yields a
    +inf ratio, which propagates to snir_db; there is no silent clamp.
    A nan or inf in either input is a ``StructureError``.
    """
    a, b = _check_pair(y_mean, y_calc)
    for name, m in (("y_mean", a), ("y_calc", b)):
        if not np.isfinite(m).all():
            raise StructureError(f"{name} holds a non-finite value")
    signal_energy = np.sum(a * a, axis=1)
    error_energy = np.sum((a - b) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = signal_energy / error_energy
    ratio[error_energy == 0.0] = np.inf
    mean_ratio = float(np.mean(ratio))
    with np.errstate(divide="ignore"):
        snir_db = float(10.0 * np.log10(mean_ratio))  # -inf for an all-zero reference
    return SnirReport(ratio, snir_db, sensors=a.shape[0], samples=a.shape[1])


def rmse(y_mean, y_calc) -> float:
    """Root-mean-square difference over all elements."""
    a, b = _check_pair(y_mean, y_calc)
    return float(np.sqrt(np.mean((a - b) ** 2)))
