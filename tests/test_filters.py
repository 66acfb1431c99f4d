import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megden.filters import (
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
from megden.transform import Decomposition
from megden.denoise import SensorEstimate, TrialSet
from megden.metrics import SnirReport

ALL_PAIRS = [
    make_daubechies4(),
    make_coiflet1(),
    make_adjusted_haar(0),
    make_adjusted_haar(1),
    make_adjusted_haar(2),
    make_adjusted_haar(3),
    make_adjusted_haar(4),
]


def test_daubechies4_closed_form():
    s3 = math.sqrt(3.0)
    want = np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * math.sqrt(2.0))
    got = make_daubechies4().lowpass
    assert np.max(np.abs(got - want)) == 0.0


def test_coiflet1_closed_form():
    s7 = math.sqrt(7.0)
    want = np.array(
        [s7 - 3.0, 1.0 - s7, 14.0 - 2.0 * s7, 14.0 + 2.0 * s7, 5.0 + s7, 1.0 - s7]
    ) / (16.0 * math.sqrt(2.0))
    got = make_coiflet1().lowpass
    assert np.max(np.abs(got - want)) == 0.0


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p.family.value}-{p.param}")
def test_orthonormal_identities(pair):
    h = pair.lowpass
    g = pair.highpass
    assert abs(h.sum() - math.sqrt(2.0)) < 1e-12
    assert abs(np.dot(h, h) - 1.0) < 1e-12
    assert abs(g.sum()) < 1e-12
    # double-shift orthogonality: correlations at every even lag vanish
    for m in range(1, len(h) // 2):
        assert abs(np.dot(h[2 * m :], h[: len(h) - 2 * m])) < 1e-12
        assert abs(np.dot(g[2 * m :], g[: len(g) - 2 * m])) < 1e-12
    pair.validate()  # must not raise


@pytest.mark.parametrize("pair", [make_daubechies4(), make_coiflet1()], ids=["db4", "coif1"])
def test_two_vanishing_wavelet_moments(pair):
    k = np.arange(len(pair.highpass), dtype=float)
    for power in (0, 1):
        assert abs(np.dot(pair.highpass, k**power)) < 1e-10


@pytest.mark.parametrize("n", range(5))
def test_adjusted_haar_shape(n):
    pair = make_adjusted_haar(n)
    taps = pair.lowpass
    assert taps.size == 2 * n + 2
    assert taps[0] == taps[-1] == 1.0 / math.sqrt(2.0)
    assert not np.any(taps[1:-1])


def test_adjusted_haar_param_bounds():
    with pytest.raises(ValueError):
        make_adjusted_haar(-1)
    with pytest.raises(ValueError, match="64"):
        make_adjusted_haar(65)
    make_adjusted_haar(64).validate()


def test_qmf_highpass_alternating_flip():
    h = make_coiflet1().lowpass
    g = qmf_highpass(h)
    L = h.size
    for k in range(L):
        assert g[k] == (-1.0) ** k * h[L - 1 - k]


def test_qmf_highpass_rejects_bad_lengths():
    with pytest.raises(ValueError):
        qmf_highpass(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        qmf_highpass(np.array([]))


def test_make_filter_dispatch():
    assert np.array_equal(make_filter(Family.DAUBECHIES4).lowpass, make_daubechies4().lowpass)
    assert np.array_equal(make_filter(Family.COIFLET1).lowpass, make_coiflet1().lowpass)
    assert np.array_equal(
        make_filter(Family.ADJUSTED_HAAR, 3).lowpass, make_adjusted_haar(3).lowpass
    )


def test_make_filter_rejects_param_for_fixed_families():
    with pytest.raises(ValueError):
        make_filter(Family.DAUBECHIES4, 1)
    with pytest.raises(ValueError):
        make_filter(Family.COIFLET1, 2)


def test_validate_catches_tampering():
    good = make_daubechies4()
    bad = FilterPair(
        family=good.family,
        param=good.param,
        lowpass=good.lowpass + 1e-6,
        highpass=good.highpass,
    )
    with pytest.raises(ValueError):
        bad.validate()
    # highpass that is not the alternating flip of the lowpass
    bad2 = FilterPair(
        family=good.family,
        param=good.param,
        lowpass=good.lowpass,
        highpass=good.highpass[::-1].copy(),
    )
    with pytest.raises(ValueError):
        bad2.validate()


def test_filter_arrays_are_read_only():
    pair = make_daubechies4()
    with pytest.raises(ValueError):
        pair.lowpass[0] = 0.0


def test_classical_convention_scaling():
    h, g = classical_convention(make_daubechies4())
    # classical orthogonal convention: lowpass sums to 2
    assert abs(h.sum() - 2.0) < 1e-12
    assert abs(g.sum()) < 1e-12

    h, g = classical_convention(make_adjusted_haar(2))
    # averaging convention: two active taps of 1/2
    assert h[0] == h[-1]
    assert abs(h[0] - 0.5) < 1e-12
    assert abs(h.sum() - 1.0) < 1e-12


def test_freq_magnitude_matches_formula():
    for n in range(3):
        for omega in np.linspace(0.1, 100.0, 57):
            x = (2 * n + 1) * omega / 4.0
            want = math.sin(x) ** 2 / abs(x)
            assert adjusted_haar_freq_magnitude(n, omega) == want


def test_freq_magnitude_rejects_bad_args():
    with pytest.raises(ValueError):
        adjusted_haar_freq_magnitude(1, 0.0)
    with pytest.raises(ValueError):
        adjusted_haar_freq_magnitude(-1, 0.5)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=8),
    omega=st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
)
def test_freq_magnitude_envelope_bound(n, omega):
    assert adjusted_haar_freq_magnitude(n, omega) <= 4.0 / ((2 * n + 1) * omega)


@pytest.mark.parametrize(
    "shape,build",
    [
        ((4,), lambda a, b: Decomposition(1, a, (b,), (8,))),
        ((1, 4), lambda a, b: TrialSet((a, b), sensors=1, pre_samples=1, post_samples=3)),
        ((4,), lambda a, b: FilterPair(Family.DAUBECHIES4, 0, a, b)),
        ((4,), lambda a, b: SensorEstimate(a, wavelet_count=4, mean_filled_count=0)),
        ((4,), lambda a, b: SnirReport(a, 0.0, sensors=4, samples=1)),
    ],
    ids=["Decomposition", "TrialSet", "FilterPair", "SensorEstimate", "SnirReport"],
)
def test_constructors_leave_the_callers_arrays_alone(shape, build):
    a = np.arange(4.0).reshape(shape)
    b = np.full(shape, -0.5)
    built = build(a, b)
    assert a.flags.writeable and b.flags.writeable
    assert np.array_equal(a, np.arange(4.0).reshape(shape)) and np.array_equal(b, np.full(shape, -0.5))
    for value in vars(built).values():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                assert not arr.flags.writeable
                assert not np.shares_memory(arr, a) and not np.shares_memory(arr, b)
