import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from megden.filters import (
    Family,
    FilterPair,
    adjusted_haar_freq_magnitude,
    classical_convention,
    make_filter,
    qmf_highpass,
)
from megden.transform import Decomposition
from megden.denoise import DenoiseConfig, SensorEstimate, TrialSet
from megden.metrics import SnirReport

ALL_PAIRS = [
    make_filter(Family.DAUBECHIES4),
    make_filter(Family.COIFLET1),
    make_filter(Family.ADJUSTED_HAAR, 0),
    make_filter(Family.ADJUSTED_HAAR, 1),
    make_filter(Family.ADJUSTED_HAAR, 2),
    make_filter(Family.ADJUSTED_HAAR, 3),
    make_filter(Family.ADJUSTED_HAAR, 4),
]


def test_daubechies4_closed_form():
    s3 = math.sqrt(3.0)
    want = np.array([1.0 + s3, 3.0 + s3, 3.0 - s3, 1.0 - s3]) / (4.0 * math.sqrt(2.0))
    got = make_filter(Family.DAUBECHIES4).lowpass
    assert np.max(np.abs(got - want)) == 0.0


def test_coiflet1_closed_form():
    s7 = math.sqrt(7.0)
    want = np.array(
        [s7 - 3.0, 1.0 - s7, 14.0 - 2.0 * s7, 14.0 + 2.0 * s7, 5.0 + s7, 1.0 - s7]
    ) / (16.0 * math.sqrt(2.0))
    got = make_filter(Family.COIFLET1).lowpass
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


@pytest.mark.parametrize(
    "pair", [make_filter(Family.DAUBECHIES4), make_filter(Family.COIFLET1)], ids=["db4", "coif1"]
)
def test_two_vanishing_wavelet_moments(pair):
    k = np.arange(len(pair.highpass), dtype=float)
    for power in (0, 1):
        assert abs(np.dot(pair.highpass, k**power)) < 1e-10


@pytest.mark.parametrize("n", range(5))
def test_adjusted_haar_shape(n):
    pair = make_filter(Family.ADJUSTED_HAAR, n)
    taps = pair.lowpass
    assert taps.size == 2 * n + 2
    assert taps[0] == taps[-1] == 1.0 / math.sqrt(2.0)
    assert not np.any(taps[1:-1])


def test_adjusted_haar_param_bounds():
    with pytest.raises(ValueError):
        make_filter(Family.ADJUSTED_HAAR, -1)
    with pytest.raises(ValueError, match="64"):
        make_filter(Family.ADJUSTED_HAAR, 65)
    make_filter(Family.ADJUSTED_HAAR, 64).validate()


def test_qmf_highpass_alternating_flip():
    h = make_filter(Family.COIFLET1).lowpass
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
    for family, param, taps in (
        (Family.DAUBECHIES4, 0, 4),
        (Family.COIFLET1, 0, 6),
        (Family.ADJUSTED_HAAR, 3, 8),
    ):
        pair = make_filter(family, param)
        assert (pair.family, pair.param, len(pair)) == (family, param, taps)


@pytest.mark.parametrize("family", ["db4", "coif1", "ahaar", None])
def test_a_family_that_is_not_a_family_member_is_refused(family):
    # a CLI name is not a Family member; unchecked, "db4" would build coif1
    param = 2 if family == "ahaar" else 0
    with pytest.raises(ValueError, match=f"family must be a Family member, got {family!r}"):
        make_filter(family, param)
    with pytest.raises(ValueError, match=f"family must be a Family member, got {family!r}"):
        DenoiseConfig(family=family, param=param)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: DenoiseConfig(Family.DAUBECHIES4, mode="single"),
            "mode must be a Mode member, got 'single'",
        ),
        (
            lambda: DenoiseConfig(Family.DAUBECHIES4, mode=None),
            "mode must be a Mode member, got None",
        ),
        (
            lambda: DenoiseConfig(Family.DAUBECHIES4, threshold="no"),
            "threshold must be a bool, got 'no'",
        ),
        (lambda: DenoiseConfig(Family.DAUBECHIES4, threshold=1), "threshold must be a bool, got 1"),
        (
            lambda: DenoiseConfig(Family.DAUBECHIES4, scales=True),
            "scales must be an integer, got True",
        ),
        (
            lambda: DenoiseConfig(Family.DAUBECHIES4, scales=2.0),
            "scales must be an integer, got 2.0",
        ),
        (
            lambda: DenoiseConfig(Family.ADJUSTED_HAAR, param=True),
            "param must be an integer, got True",
        ),
        (lambda: make_filter(Family.ADJUSTED_HAAR, 2.0), "param must be an integer, got 2.0"),
        (lambda: make_filter(Family.DAUBECHIES4, False), "param must be an integer, got False"),
        (lambda: FilterPair("db4", 0, [1.0, 1.0]), "family must be a Family member, got 'db4'"),
        (
            lambda: FilterPair(Family.ADJUSTED_HAAR, "0", [1, 1]),
            "param must be an integer, got '0'",
        ),
        (
            lambda: FilterPair(Family.DAUBECHIES4, 1, ALL_PAIRS[0].lowpass),
            "db4 takes no zero-count parameter, got 1",
        ),
    ],
)
def test_a_setting_of_the_wrong_type_is_refused(build, message):
    # unchecked, mode "single" would average every trial, threshold "no" would run
    # the threshold estimator, and scales True would run one level
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_settings_are_accepted():
    config = DenoiseConfig(Family.ADJUSTED_HAAR, param=np.int64(2), scales=np.int32(3))
    pair = make_filter(config.family, config.param)
    assert np.array_equal(pair.lowpass, make_filter(Family.ADJUSTED_HAAR, 2).lowpass)


def test_make_filter_rejects_param_for_fixed_families():
    with pytest.raises(ValueError):
        make_filter(Family.DAUBECHIES4, 1)
    with pytest.raises(ValueError):
        make_filter(Family.COIFLET1, 2)


def test_validate_catches_tampering():
    good = make_filter(Family.DAUBECHIES4)
    bad = FilterPair(family=good.family, param=good.param, lowpass=good.lowpass + 1e-6)
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: f"{p.family.value}{p.param}")
def test_filter_pair_derives_its_highpass(pair):
    with pytest.raises(TypeError):
        FilterPair(pair.family, pair.param, pair.lowpass, pair.highpass)
    assert pair.highpass.tobytes() == qmf_highpass(pair.lowpass).tobytes()
    assert FilterPair(pair.family, pair.param, pair.lowpass).highpass.tobytes() == (
        pair.highpass.tobytes()
    )
    with pytest.raises(ValueError, match="even-length"):
        FilterPair(pair.family, pair.param, pair.lowpass[:-1])


def test_filter_arrays_are_read_only():
    pair = make_filter(Family.DAUBECHIES4)
    with pytest.raises(ValueError):
        pair.lowpass[0] = 0.0


def test_classical_convention_scaling():
    h, g = classical_convention(make_filter(Family.DAUBECHIES4))
    # classical orthogonal convention: lowpass sums to 2
    assert abs(h.sum() - 2.0) < 1e-12
    assert abs(g.sum()) < 1e-12

    h, g = classical_convention(make_filter(Family.ADJUSTED_HAAR, 2))
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


# Inputs that are not C-contiguous: a stride-0 broadcast, a Fortran-ordered
# array (a row of one, for 1-D), and a transposed view.
NON_C_LAYOUTS = {
    "broadcast": (
        lambda: np.broadcast_to(0.5, (4,)),
        lambda: np.broadcast_to(np.arange(10.0).reshape(2, 5), (3, 2, 5)),
    ),
    "fortran": (
        lambda: np.asfortranarray(np.arange(8.0).reshape(2, 4))[1],
        lambda: np.asfortranarray(np.arange(30.0).reshape(3, 2, 5)),
    ),
    "transposed": (
        lambda: np.arange(8.0).reshape(4, 2).T[1],
        lambda: np.arange(30.0).reshape(5, 2, 3).T,
    ),
}


@pytest.mark.parametrize("layout", sorted(NON_C_LAYOUTS))
@pytest.mark.parametrize(
    "build",
    [
        lambda vec, block: Decomposition(vec, (vec,), 8),
        lambda vec, block: TrialSet(block, pre_samples=1),
        lambda vec, block: FilterPair(Family.DAUBECHIES4, 0, vec),
    ],
    ids=["Decomposition", "TrialSet", "FilterPair"],
)
def test_constructors_store_c_contiguous_copies_of_any_layout(layout, build):
    vec, block = (make() for make in NON_C_LAYOUTS[layout])
    writeable = (vec.flags.writeable, block.flags.writeable)
    assert not vec.flags.c_contiguous and not block.flags.c_contiguous
    built = build(vec, block)
    assert (vec.flags.writeable, block.flags.writeable) == writeable
    stored = [
        (name, arr)
        for name, value in vars(built).items()
        for arr in (value if isinstance(value, tuple) else (value,))
        if isinstance(arr, np.ndarray)
    ]
    assert stored
    for name, arr in stored:
        assert arr.flags.c_contiguous and not arr.flags.writeable
        assert not np.shares_memory(arr, vec) and not np.shares_memory(arr, block)
        want = qmf_highpass(vec) if name == "highpass" else block if arr.ndim == 3 else vec
        assert np.array_equal(arr, want)


@pytest.mark.parametrize(
    "shape,build",
    [
        ((4,), lambda a, b: Decomposition(a, (b,), 8)),
        ((1, 4), lambda a, b: TrialSet((a, b), pre_samples=1)),
        ((4,), lambda a, b: FilterPair(Family.DAUBECHIES4, 0, a)),
        ((4,), lambda a, b: SensorEstimate(a, wavelet_count=4)),
        ((4,), lambda a, b: SnirReport(a, 0.0)),
    ],
    ids=["Decomposition", "TrialSet", "FilterPair", "SensorEstimate", "SnirReport"],
)
def test_constructors_leave_the_callers_arrays_alone(shape, build):
    a = np.arange(4.0).reshape(shape)
    b = np.full(shape, -0.5)
    built = build(a, b)
    if isinstance(built, Decomposition):
        # the one record that adopts its bands: a C-contiguous float64 band is
        # kept and frozen in place, and any other band is converted
        assert built.approx is a and built.details == (b,)
        assert not a.flags.writeable and not b.flags.writeable
        assert np.array_equal(a, np.arange(4.0)) and np.array_equal(b, np.full(4, -0.5))
        single, strided = np.arange(4.0, dtype=np.float32), np.arange(8.0)[::2]
        other = Decomposition(single, (strided,), 8)
        assert single.flags.writeable and strided.flags.writeable
        for arr, given in ((other.approx, single), (other.details[0], strided)):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous and not arr.flags.writeable
            assert not np.shares_memory(arr, given) and np.array_equal(arr, given)
        return
    assert a.flags.writeable and b.flags.writeable
    assert np.array_equal(a, np.arange(4.0).reshape(shape)) and np.array_equal(b, np.full(shape, -0.5))
    for value in vars(built).values():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                assert not arr.flags.writeable
                assert not np.shares_memory(arr, a) and not np.shares_memory(arr, b)
