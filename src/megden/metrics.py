"""Quality metrics comparing a reference signal matrix against an estimate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import _frozen

__all__ = ["SnirReport", "snir"]


def _check_energy(energy: np.ndarray, what: str) -> None:
    """Raise ValueError where squaring finite values overflowed to inf."""
    bad = np.flatnonzero(~np.isfinite(energy))
    if bad.size:
        raise ValueError(f"{what} of sensor {bad[0]} overflows the float64 range")


@dataclass(frozen=True)
class SnirReport:
    """Per-sensor energy ratios and their aggregate in dB."""

    per_sensor_ratio: np.ndarray
    snir_db: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_sensor_ratio", _frozen(self.per_sensor_ratio))


def snir(y_mean, y_calc) -> SnirReport:
    """Signal-to-interference/noise ratio of an estimate against the trial average.

    Per sensor i the ratio is sum_n y_mean[i,n]^2 / sum_n (y_mean - y_calc)[i,n]^2;
    the aggregate is 10*log10 of the mean ratio (ratios are averaged raw,
    before taking dB). A sensor with exactly zero error energy yields a
    +inf ratio, which propagates to snir_db; there is no silent clamp.
    A ratio past the float64 range reads +inf too. A nan or inf in either
    input, or an energy that overflows the float64 range, is a ``ValueError``.
    """
    a = np.asarray(y_mean, dtype=np.float64)
    b = np.asarray(y_calc, dtype=np.float64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"matrices must share a 2-D shape, got {a.shape} vs {b.shape}")
    for name, m in (("y_mean", a), ("y_calc", b)):
        if not np.isfinite(m).all():
            raise ValueError(f"{name} holds a non-finite value")
    with np.errstate(over="ignore"):
        signal_energy = np.sum(a * a, axis=1)
        error_energy = np.sum((a - b) ** 2, axis=1)
    _check_energy(signal_energy, "y_mean energy")
    _check_energy(error_energy, "y_mean - y_calc energy")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = signal_energy / error_energy
        ratio[error_energy == 0.0] = np.inf
        mean_ratio = float(np.mean(ratio))
        snir_db = float(10.0 * np.log10(mean_ratio))  # -inf for an all-zero reference
    return SnirReport(ratio, snir_db)
