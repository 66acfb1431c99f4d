import numpy as np
import pytest

from megden.errors import StructureError
from megden.metrics import SnirReport, rmse, snir


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
    assert report.sensors == 2
    assert report.samples == 2


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
    with pytest.raises(StructureError):
        snir(np.zeros((2, 3)), np.zeros((3, 2)))
    with pytest.raises(StructureError):
        snir(np.zeros(6), np.zeros(6))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    y = np.ones((3, 4))
    hole = y.copy()
    hole[1, 2] = bad
    with pytest.raises(StructureError, match="y_mean holds a non-finite value"):
        snir(hole, y)
    with pytest.raises(StructureError, match="y_calc holds a non-finite value"):
        snir(y, hole)


def test_report_ratios_are_read_only():
    report = snir(np.ones((2, 2)), np.zeros((2, 2)))
    assert isinstance(report, SnirReport)
    with pytest.raises(ValueError):
        report.per_sensor_ratio[0] = 5.0


def test_rmse_known_values():
    a = np.array([[1.0, 2.0, 3.0]])
    assert rmse(a, a) == 0.0
    assert abs(rmse(a, a + 3.0) - 3.0) < 1e-12


def test_rmse_matches_element_loop():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 5))
    total = 0.0
    for i in range(3):
        for j in range(5):
            total += (a[i, j] - b[i, j]) ** 2
    assert abs(rmse(a, b) - np.sqrt(total / 15.0)) < 1e-12
