import numpy as np
import pytest

from megden.dataio import SyntheticConfig, generate_synthetic
from megden.denoise import DenoiseConfig, average_trials, denoise_dataset
from megden.filters import Family
from megden.metrics import SnirReport, snir

# SNIR in dB against the noise-free response, to 2 decimals: the trial
# average, then each wavelet's approximation and threshold estimators.
SNIR_VS_TRUTH = {
    42: {
        "average": 2.72,
        "db4": -0.75, "db4 thr": 0.41, "coif1": -0.67, "coif1 thr": 0.42,
        "ahaar2": -0.43, "ahaar2 thr": -0.37, "ahaar8": -0.22, "ahaar8 thr": -0.32,
    },
    1234: {
        "average": 1.99,
        "db4": -0.68, "db4 thr": 0.39, "coif1": -0.65, "coif1 thr": 0.34,
        "ahaar2": -0.33, "ahaar2 thr": -0.29, "ahaar8": -0.18, "ahaar8 thr": -0.20,
    },
}


def test_zero_estimate_gives_exactly_zero_db():
    y = np.arange(1.0, 21.0).reshape(4, 5)
    report = snir(y, np.zeros_like(y))
    assert report.snir_db == 0.0
    assert np.array_equal(report.per_sensor_ratio, np.ones(4))


def test_doubled_estimate_gives_exactly_zero_db():
    rng = np.random.default_rng(2)
    y = rng.normal(size=(6, 9))
    report = snir(y, 2.0 * y)
    assert abs(report.snir_db) < 1e-12


def test_ten_to_one_energy_case():
    y = np.ones((3, 7))
    report = snir(y, y + 1.0 / np.sqrt(10.0))
    assert abs(report.snir_db - 10.0) < 1e-9


def test_perfect_estimate_is_infinite():
    y = np.arange(12.0).reshape(3, 4) + 1.0
    report = snir(y, y.copy())
    assert np.all(np.isinf(report.per_sensor_ratio))
    assert report.snir_db == np.inf


def test_zero_reference_zero_error_is_infinite():
    z = np.zeros((2, 4))
    report = snir(z, z)
    assert np.all(np.isinf(report.per_sensor_ratio))


def test_zero_reference_with_error_is_negative_infinity():
    z = np.zeros((2, 4))
    report = snir(z, z + 1.0)
    assert np.array_equal(report.per_sensor_ratio, np.zeros(2))
    assert report.snir_db == -np.inf


def test_db_uses_mean_of_per_sensor_ratios():
    y = np.array([[1.0, 0.0], [0.0, 2.0]])
    calc = np.array([[0.0, 0.0], [0.0, 0.0]])
    report = snir(y, calc)
    # each row reduces to ratio 1, and 10*log10(mean([1, 1])) = 0
    assert np.allclose(report.per_sensor_ratio, [1.0, 1.0])
    assert report.snir_db == 0.0


def test_scaling_both_inputs_preserves_snir():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(5, 11))
    calc = rng.normal(size=(5, 11))
    base = snir(y, calc)
    scaled = snir(3.5 * y, 3.5 * calc)
    assert abs(base.snir_db - scaled.snir_db) < 1e-9


def test_shrinking_errors_never_lowers_snir():
    rng = np.random.default_rng(13)
    y = rng.normal(size=(4, 9))
    calc = y + rng.normal(size=(4, 9))
    closer = y + 0.5 * (calc - y)  # every sensor's error energy drops 4x
    assert snir(y, closer).snir_db >= snir(y, calc).snir_db


def test_shape_mismatch_rejected():
    shapes = "^matrices must share a 2-D shape, got "
    with pytest.raises(ValueError, match=shapes + r"\(2, 3\) vs \(3, 2\)$"):
        snir(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match=shapes + r"\(6,\) vs \(6,\)$"):
        snir(np.zeros(6), np.zeros(6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    y = np.ones((3, 4))
    hole = y.copy()
    hole[1, 2] = bad
    with pytest.raises(ValueError, match="y_mean holds a non-finite value"):
        snir(hole, y)
    with pytest.raises(ValueError, match="y_calc holds a non-finite value"):
        snir(y, hole)


@pytest.mark.parametrize(
    "y_mean, y_calc, what",
    [
        (np.full((2, 3), 1e200), np.full((2, 3), -1e200), "y_mean energy of sensor 0"),
        (np.ones((2, 3)), np.array([[1.0] * 3, [-1e200] * 3]),
         "y_mean - y_calc energy of sensor 1"),
    ],
)
def test_energy_overflow_rejected(y_mean, y_calc, what):
    # squaring finite values past the float range must not turn into a nan dB
    with np.errstate(all="raise"), pytest.raises(ValueError, match=what):
        snir(y_mean, y_calc)


def test_report_ratios_are_read_only():
    report = snir(np.ones((2, 2)), np.zeros((2, 2)))
    assert isinstance(report, SnirReport)
    with pytest.raises(ValueError):
        report.per_sensor_ratio[0] = 5.0


@pytest.mark.parametrize("seed", sorted(SNIR_VS_TRUTH))
def test_snir_against_the_noise_free_response_is_pinned(seed):
    clean = generate_synthetic(SyntheticConfig(seed=seed, noise_sigma=0.0, trials=1))
    truth = average_trials(clean)[:, clean.pre_samples :]
    noisy = generate_synthetic(SyntheticConfig(seed=seed))
    got = {"average": snir(truth, average_trials(noisy)[:, noisy.pre_samples :]).snir_db}
    for name, family, param in (
        ("db4", Family.DAUBECHIES4, 0),
        ("coif1", Family.COIFLET1, 0),
        ("ahaar2", Family.ADJUSTED_HAAR, 2),
        ("ahaar8", Family.ADJUSTED_HAAR, 8),
    ):
        for threshold, suffix in ((False, ""), (True, " thr")):
            config = DenoiseConfig(family=family, param=param, threshold=threshold)
            got[name + suffix] = snir(truth, denoise_dataset(noisy, config)).snir_db
    assert {name: round(db, 2) for name, db in got.items()} == SNIR_VS_TRUTH[seed]
    # No wavelet estimate comes closer to the truth than plain averaging.
    assert max(db for name, db in got.items() if name != "average") < got["average"]
