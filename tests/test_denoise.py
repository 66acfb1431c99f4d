import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    approx_mean_reference,
    dwt_analyze_reference,
    same_bits,
    threshold_denoise_reference,
    threshold_mean_reference,
)

from megden.dataio import SyntheticConfig, generate_synthetic
from megden.denoise import (
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
import megden.denoise as denoise_module
import megden.transform as transform_module
from megden.filters import Family, make_filter
from megden.transform import Decomposition, dwt_analyze, dwt_synthesize, max_decomposition_depth

HAAR0 = DenoiseConfig(family=Family.ADJUSTED_HAAR, param=0, scales=2)
FAMILIES = [(Family.DAUBECHIES4, 0), (Family.COIFLET1, 0)] + [
    (Family.ADJUSTED_HAAR, n) for n in range(9)
]


def small_trial_set(seed=0, trials=3, sensors=5, pre=4, post=8):
    rng = np.random.default_rng(seed)
    mats = [rng.normal(size=(sensors, pre + post)) for _ in range(trials)]
    return TrialSet(trials=tuple(mats), pre_samples=pre)


def test_concatenate_layout():
    trial = np.array([[9.0, 1.0, 2.0], [8.0, 3.0, 4.0]])
    vec = concatenate_post_stimulus(trial, pre=1, post=2)
    assert np.array_equal(vec, [1.0, 2.0, 3.0, 4.0])


def test_concatenate_rejects_mismatched_window():
    with pytest.raises(ValueError, match=r"^trial has 5 columns, expected pre \+ post = 1 \+ 3$"):
        concatenate_post_stimulus(np.zeros((2, 5)), pre=1, post=3)
    with pytest.raises(ValueError, match=r"^trial must be a 2-D matrix, got shape \(6,\)$"):
        concatenate_post_stimulus(np.zeros(6), pre=1, post=2)


def test_estimate_hand_case_with_mean_fill():
    # K=4, post=2 -> vector of 8; two Haar levels leave 2 coefficients, so
    # sensors 0..1 take rescaled block means and sensors 2..3 fall back to
    # their own post-window means
    trial = np.array(
        [
            [9.0, 1.0, 3.0],
            [9.0, 5.0, 7.0],
            [9.0, 2.0, 4.0],
            [9.0, 10.0, 20.0],
        ]
    )
    est = estimate_sensors(trial, HAAR0, pre=1, post=2)
    assert est.wavelet_count == 2
    assert est.mean_filled_count == 2
    assert np.allclose(est.values, [4.0, 9.0, 3.0, 15.0], atol=1e-12)

    out = reconstruct_denoised(est, post=2)
    assert out.shape == (4, 2)
    assert np.allclose(out, [[4.0] * 2, [9.0] * 2, [3.0] * 2, [15.0] * 2], atol=1e-12)


def test_estimate_drops_surplus_coefficients():
    # K=2, post=8 -> 16 samples, one level -> 8 coefficients for 2 sensors
    rng = np.random.default_rng(3)
    trial = rng.normal(size=(2, 8))
    config = DenoiseConfig(family=Family.ADJUSTED_HAAR, param=0, scales=1)
    est = estimate_sensors(trial, config, 0, 8)
    assert est.wavelet_count == 2
    assert est.mean_filled_count == 0
    dec = dwt_analyze(trial.reshape(-1), make_filter(Family.ADJUSTED_HAAR, 0), 1)
    assert np.allclose(est.values, dec.approx[:2] / math.sqrt(2.0), atol=1e-12)


def test_estimate_rejects_bad_shapes():
    trial = np.zeros((3, 4))
    with pytest.raises(ValueError, match=r"^trial has 4 columns, expected pre \+ post = 0 \+ 5$"):
        estimate_sensors(trial, HAAR0, 0, 5)  # window longer than trial


@st.composite
def geometries(draw):
    """(sensors, pre, post, trials, scales) with every depth the K*post vector allows."""
    sensors = draw(st.integers(1, 12))
    post = draw(st.integers(1 if sensors > 1 else 2, 40))
    scales = draw(st.integers(1, max_decomposition_depth(sensors * post)))
    return sensors, draw(st.integers(0, 6)), post, draw(st.integers(1, 3)), scales


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    geometry=geometries(),
    constant=st.one_of(
        st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
        st.floats(-1e300, 1e300).filter(lambda c: c == 0.0 or abs(c) >= 1e-300),
    ),
    mode=st.sampled_from(Mode),
    threshold=st.booleans(),
)
@example(family=(Family.DAUBECHIES4, 0), geometry=(6, 4, 16, 1, 3), constant=7.25,
         mode=Mode.SINGLE_TRIAL, threshold=False)
@example(family=(Family.COIFLET1, 0), geometry=(6, 4, 16, 1, 3), constant=7.25,
         mode=Mode.SINGLE_TRIAL, threshold=False)
@example(family=(Family.ADJUSTED_HAAR, 2), geometry=(6, 4, 16, 1, 3), constant=7.25,
         mode=Mode.SINGLE_TRIAL, threshold=False)
@example(family=(Family.ADJUSTED_HAAR, 0), geometry=(3, 4, 8, 1, 2), constant=-2.5,
         mode=Mode.SINGLE_TRIAL, threshold=True)
def test_constant_trial_is_a_fixed_point(family, geometry, constant, mode, threshold):
    # a constant post-stimulus window has all-zero details, so the approximation
    # estimate is the constant and the universal threshold (sigma = 0) keeps it;
    # the pre-stimulus samples hold another value that must not leak in
    sensors, pre, post, count, scales = geometry
    trial = np.full((sensors, pre + post), constant)
    trial[:, :pre] = 3.0
    ts = TrialSet((trial,) * count, pre)
    config = DenoiseConfig(family[0], family[1], scales, mode=mode, threshold=threshold)
    with warnings.catch_warnings():  # in the body: Hypothesis's failure report may warn
        warnings.simplefilter("error")
        out = denoise_dataset(ts, config)
    assert out.shape == (sensors, post)
    assert np.max(np.abs(out - constant)) <= 1e-12 * abs(constant)


def test_threshold_on_constant_trial_is_identity():
    # constant input has all-zero details, so sigma = lambda = 0 and the
    # reconstruction returns the window unchanged
    trial = np.full((3, 12), -2.5)
    out = threshold_denoise(trial, HAAR0, pre=4, post=8)
    assert np.max(np.abs(out - -2.5)) < 1e-10


def test_estimate_block_means_when_blocks_align():
    # K=4, post=4, two Haar levels: each deep coefficient covers exactly one
    # sensor's window, so the rescaled estimate is that sensor's mean
    rng = np.random.default_rng(14)
    trial = rng.normal(size=(4, 4))
    est = estimate_sensors(trial, HAAR0, 0, 4)
    assert est.wavelet_count == 4
    assert np.max(np.abs(est.values - trial.mean(axis=1))) < 1e-12


@pytest.mark.parametrize("sensors,post,scales", [(4, 4, 2), (7, 12, 3), (274, 241, 8), (3, 2, 1)])
def test_wavelet_count_follows_ceil_halving(sensors, post, scales):
    rng = np.random.default_rng(15)
    trial = rng.normal(size=(sensors, post))
    config = DenoiseConfig(family=Family.ADJUSTED_HAAR, param=0, scales=scales)
    est = estimate_sensors(trial, config, 0, post)
    n = sensors * post
    for _ in range(scales):
        n = (n + 1) // 2
    assert est.wavelet_count == min(n, sensors)
    assert est.wavelet_count + est.mean_filled_count == sensors


def test_single_trial_mean_is_identity():
    ts = small_trial_set(trials=1)
    config = DenoiseConfig(family=Family.DAUBECHIES4, scales=2)
    want = denoise_trial(ts.trials[0], config, ts.pre_samples, ts.post_samples)
    assert np.array_equal(denoise_multi(ts, config), want)


def test_opposite_trials_cancel():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 10))
    ts = TrialSet(trials=(m, -m), pre_samples=2)
    config = DenoiseConfig(family=Family.ADJUSTED_HAAR, param=0, scales=2)
    assert not np.any(denoise_multi(ts, config))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    sensors=st.integers(min_value=1, max_value=12),
    pre=st.integers(min_value=0, max_value=6),
    post=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    draw=st.data(),
)
def test_pipeline_is_linear(family, sensors, pre, post, seed, draw):
    assume(sensors * post >= 2)
    scales = draw.draw(st.integers(1, max_decomposition_depth(sensors * post)))
    config = DenoiseConfig(family=family[0], param=family[1], scales=scales)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(sensors, pre + post))
    y = rng.normal(size=(sensors, pre + post))
    combo = denoise_trial(2.0 * x - 0.5 * y, config, pre, post)
    parts = 2.0 * denoise_trial(x, config, pre, post) - 0.5 * denoise_trial(y, config, pre, post)
    scale = np.max(np.abs(parts))
    assert np.max(np.abs(combo - parts)) <= 1e-12 * scale


def test_multi_is_mean_of_single_trial_outputs():
    ts = small_trial_set()
    config = DenoiseConfig(family=Family.DAUBECHIES4, scales=2)
    want = sum(
        denoise_trial(t, config, ts.pre_samples, ts.post_samples) for t in ts.trials
    ) / len(ts)
    got = denoise_multi(ts, config)
    assert got.tobytes() == want.tobytes()


def test_mode_dispatch():
    ts = small_trial_set(seed=5)
    single = DenoiseConfig(family=Family.DAUBECHIES4, scales=2, mode=Mode.SINGLE_TRIAL)
    multi = DenoiseConfig(family=Family.DAUBECHIES4, scales=2, mode=Mode.MULTI_TRIAL)
    got = denoise_dataset(ts, single, trial_index=1)
    want = denoise_trial(ts.trials[1], single, ts.pre_samples, ts.post_samples)
    assert np.array_equal(got, want)
    assert np.array_equal(denoise_dataset(ts, multi), denoise_multi(ts, multi))
    with pytest.raises(ValueError):
        denoise_dataset(ts, single, trial_index=len(ts))


@pytest.mark.parametrize("index", [True, False, 1.0, "1", None])
def test_a_trial_index_that_is_not_an_integer_is_refused(index):
    # unchecked, True would index as a new axis, and 1.0 would raise numpy's IndexError,
    # which is not a ValueError
    ts = small_trial_set(seed=5)
    single = DenoiseConfig(family=Family.DAUBECHIES4, scales=2, mode=Mode.SINGLE_TRIAL)
    with pytest.raises(ValueError, match=f"^trial index must be an integer, got {index!r}$"):
        denoise_dataset(ts, single, trial_index=index)
    got = denoise_dataset(ts, single, trial_index=np.int64(1))
    assert got.tobytes() == denoise_dataset(ts, single, trial_index=1).tobytes()


def test_average_trials_matches_numpy_mean():
    ts = small_trial_set(seed=9)
    got = average_trials(ts)
    want = np.mean(np.stack(ts.trials), axis=0)
    assert got.shape == (ts.sensors, ts.pre_samples + ts.post_samples)
    assert np.max(np.abs(got - want)) < 1e-12


def test_average_trials_tiny_cases():
    two = TrialSet(trials=(np.array([[2.0]]), np.array([[4.0]])), pre_samples=0)
    assert np.array_equal(average_trials(two), [[3.0]])
    same = small_trial_set(trials=1)
    assert np.array_equal(average_trials(same), same.trials[0])


def test_threshold_matches_reference_shrinkage():
    rng = np.random.default_rng(21)
    trial = rng.normal(size=(4, 20))
    pre, post = 4, 16
    config = DenoiseConfig(family=Family.DAUBECHIES4, scales=3)
    got = threshold_denoise(trial, config, pre, post)

    # independent recomputation of the universal rule
    pair = make_filter(config.family, config.param)
    vec = trial[:, pre:].reshape(-1)
    dec = dwt_analyze(vec, pair, config.scales)
    sigma = np.median(np.abs(dec.details[0])) / 0.6745
    lam = sigma * np.sqrt(2.0 * np.log(vec.size))
    shrunk = tuple(np.where(np.abs(d) > lam, d - np.sign(d) * lam, 0.0) for d in dec.details)
    want = dwt_synthesize(
        Decomposition(dec.approx, shrunk, dec.length), pair
    ).reshape(4, post)
    assert got.shape == (4, post)
    assert np.max(np.abs(got - want)) < 1e-12


def test_threshold_zeroes_pure_noise_details():
    # frozen noise-only trial whose detail magnitudes all sit below the
    # universal threshold, so the output is the approximation-only rebuild
    rng = np.random.default_rng(1)
    trial = rng.normal(size=(4, 20))
    pre, post = 4, 16
    config = DenoiseConfig(family=Family.DAUBECHIES4, scales=2)
    pair = make_filter(config.family, config.param)
    vec = trial[:, pre:].reshape(-1)
    dec = dwt_analyze(vec, pair, config.scales)
    sigma = np.median(np.abs(dec.details[0])) / 0.6745
    lam = sigma * np.sqrt(2.0 * np.log(vec.size))
    assert max(np.max(np.abs(d)) for d in dec.details) < lam  # seed guard

    approx_only = dwt_synthesize(
        Decomposition(dec.approx, tuple(np.zeros_like(d) for d in dec.details), dec.length),
        pair,
    ).reshape(4, post)
    got = threshold_denoise(trial, config, pre, post)
    assert np.max(np.abs(got - approx_only)) < 1e-12


# signed zeros, subnormals and wide magnitudes are where the partition median
# or the copysign shrink would first show a different bit
EDGE_FLOATS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)


@settings(max_examples=40, deadline=None)
@given(pairs=st.integers(1, 75), extended=st.booleans(), draw=st.data())
@pytest.mark.parametrize("finest", ["odd", "even"])
@pytest.mark.parametrize(
    "family",
    [(Family.DAUBECHIES4, 0), (Family.COIFLET1, 0)]
    + [(Family.ADJUSTED_HAAR, n) for n in (0, 2, 8)],
    ids=["db4", "coif1", "ahaar0", "ahaar2", "ahaar8"],
)
def test_threshold_denoise_matches_the_reference_bit_for_bit(family, finest, pairs, extended, draw):
    # a length-n vector has a finest band of ceil(n/2) coefficients: an odd count
    # takes the middle partition element, an even one the mean of the middle two
    finest_size = 2 * pairs - (finest == "odd")
    n = 2 * finest_size - extended
    assume(n >= 2)
    sensors = draw.draw(st.sampled_from([k for k in range(1, 7) if n % k == 0]))
    post = n // sensors
    pre = draw.draw(st.integers(0, 3))
    trial = draw.draw(arrays(np.float64, (sensors, pre + post), elements=EDGE_FLOATS))
    for scales in range(1, max_decomposition_depth(n) + 1):
        config = DenoiseConfig(family[0], family[1], scales, threshold=True)
        got = threshold_denoise(trial, config, pre, post)
        want = threshold_denoise_reference(trial, config, pre, post)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    count=st.integers(1, 4),
    sensors=st.integers(1, 8),
    pre=st.integers(0, 3),
    post=st.integers(1, 6),
    draw=st.data(),
)
def test_approx_mean_matches_the_reference_bit_for_bit(family, count, sensors, pre, post, draw):
    # the deepest level leaves one coefficient, so every geometry with two or
    # more sensors also runs the mean-fill of the sensors beyond it
    n = sensors * post
    assume(n >= 2)
    mats = draw.draw(arrays(np.float64, (count, sensors, pre + post), elements=EDGE_FLOATS))
    ts = TrialSet(tuple(mats), pre)
    for scales in range(1, max_decomposition_depth(n) + 1):
        config = DenoiseConfig(family[0], family[1], scales)
        want = approx_mean_reference(ts, config)
        assert denoise_multi(ts, config).tobytes() == want.tobytes()


def check_block_estimate(ts: TrialSet, config: DenoiseConfig) -> None:
    """The block estimate and mean against the per-trial loop, every level of each trial
    on its own 1-D row, bit for bit but for a nan's sign and payload; a finite trial's
    also against the loop reference DWT."""
    pre, post = ts.pre_samples, ts.post_samples
    est = estimate_sensors(ts.trials, config, pre, post)
    mean = denoise_multi(ts, config)
    with mock.patch.object(transform_module, "_BLOCK_BYTES", 0), np.errstate(invalid="ignore"):
        alone = [estimate_sensors(trial, config, pre, post) for trial in ts.trials]
        want = approx_mean_reference(ts, config)  # inf - inf in its sum is nan, as in the library
    assert same_bits(mean, want)
    assert est.values.shape == (len(ts), ts.sensors)
    assert {e.wavelet_count for e in alone} == {est.wavelet_count}
    assert same_bits(est.values, [e.values for e in alone])
    pair, count = make_filter(config.family, config.param), est.wavelet_count
    for trial, values in zip(ts.trials, est.values):
        if np.isfinite(trial).all():
            vec = concatenate_post_stimulus(trial, pre, post)
            approx = dwt_analyze_reference(vec, pair, config.scales)[0][:count]
            assert values[:count].tobytes() == (approx * 2.0 ** (-config.scales / 2)).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    count=st.integers(1, 4),
    sensors=st.integers(1, 6),
    pre=st.integers(0, 3),
    post=st.integers(1, 40),
    draw=st.data(),
)
def test_the_block_estimate_is_the_per_trial_loop_bit_for_bit(
    family, count, sensors, pre, post, draw
):
    # the drawn byte budget moves the level where the trials are stacked, so rows
    # straddle it at every level, odd level lengths and ahaar8's wrap > m included
    n = sensors * post
    assume(n >= 2)
    mats = draw.draw(arrays(np.float64, (count, sensors, pre + post), elements=EDGE_FLOATS))
    bad = draw.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        trial = draw.draw(st.integers(0, count - 1))
        mats[trial].flat[draw.draw(st.integers(0, mats[trial].size - 1))] = bad
    ts = TrialSet(mats, pre)
    scales = draw.draw(st.integers(1, max_decomposition_depth(n)))
    budget = draw.draw(st.integers(0, 8 * n) | st.just(transform_module._BLOCK_BYTES))
    with mock.patch.object(transform_module, "_BLOCK_BYTES", budget):
        check_block_estimate(ts, DenoiseConfig(family[0], family[1], scales))


@pytest.mark.parametrize(
    "sensors,post",
    [(35, 250), (1, 8751), (2, 8751)],
    ids=["row-at-the-budget", "level-1-alone", "levels-1-2-alone"],
)
@pytest.mark.parametrize("family", [(Family.DAUBECHIES4, 0), (Family.ADJUSTED_HAAR, 8)],
                         ids=["db4", "ahaar8"])
def test_rows_either_side_of_the_byte_budget_match_the_per_trial_loop(family, sensors, post):
    # 8,750 samples are exactly _BLOCK_BYTES, so a row of them is stacked from level 1
    assert 8 * 8750 == transform_module._BLOCK_BYTES
    rng = np.random.default_rng(post)
    ts = TrialSet(rng.normal(scale=50.0, size=(3, sensors, 2 + post)), 2)
    check_block_estimate(ts, DenoiseConfig(family[0], family[1], 8))


def test_an_empty_block_is_a_value_error():
    with pytest.raises(ValueError, match="^signal count must be >= 1, got 0$"):
        estimate_sensors(np.zeros((0, 3, 8)), HAAR0, 0, 8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f"{f[0].value}{f[1]}")
def test_a_non_finite_sample_leaves_the_threshold_estimate_non_finite(family, bad):
    # the partition sorts a nan last and so leaves it out of the median, where
    # np.median returned nan; the bad sample must still reach the output. It
    # sits in the post-stimulus window, the only part the estimator reads.
    rng = np.random.default_rng(3)
    for sensors, pre, post in ((4, 2, 10), (3, 1, 13), (1, 0, 2)):
        for where in (0, sensors * post // 2, sensors * post - 1):
            trials = rng.normal(size=(2, sensors, pre + post))
            trials[1, where // post, pre + where % post] = bad
            ts = TrialSet(tuple(trials), pre)
            for scales in range(1, max_decomposition_depth(sensors * post) + 1):
                config = DenoiseConfig(family[0], family[1], scales, threshold=True)
                with warnings.catch_warnings():  # a leaked numpy RuntimeWarning fails the test
                    warnings.simplefilter("error")
                    assert not np.isfinite(threshold_denoise(ts.trials[1], config, pre, post)).all()
                    try:
                        out = denoise_dataset(ts, config)
                    except ValueError as exc:
                        assert str(exc) == "denoised estimate overflows the float64 range"
                        continue
                assert not np.isfinite(out).all()


def nan_last_median(x: np.ndarray):
    """``np.median``'s arithmetic on ``np.sort``'s order, which puts a nan last."""
    s = np.sort(x)
    k, odd = divmod(s.size, 2)
    return s[k] if odd else (s[k - 1] + s[k]) / 2.0


@settings(max_examples=60, deadline=None)
@given(draw=st.data())
@pytest.mark.parametrize(
    "family",
    [(Family.DAUBECHIES4, 0), (Family.COIFLET1, 0), (Family.ADJUSTED_HAAR, 0)],
    ids=["db4", "coif1", "ahaar0"],
)
def test_non_finite_input_keeps_the_reference_finite_mask_and_bits(family, draw):
    # The shrink d - clip(d, -lam, lam) may give a nan another sign bit than the
    # reference's sign(d) * max(|d| - lam, 0), and nothing else. The reference's
    # np.median is nan for any nan, where the partition sorts a nan last, so it
    # takes the same median here; its kernels also multiply zero taps (0 * inf is
    # nan), so the families compared are those without zero taps.
    sensors, post, pre = draw.draw(st.integers(1, 5)), draw.draw(st.integers(1, 20)), 1
    assume(sensors * post >= 2)
    elements = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 5e-324, np.nan, np.inf, -np.inf])
    trial = draw.draw(arrays(np.float64, (sensors, pre + post), elements=elements))
    for scales in range(1, max_decomposition_depth(sensors * post) + 1):
        config = DenoiseConfig(family[0], family[1], scales, threshold=True)
        got = threshold_denoise(trial, config, pre, post)
        with np.errstate(invalid="ignore"):
            want = threshold_denoise_reference(trial, config, pre, post, median=nan_last_median)
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert got[finite].tobytes() == want[finite].tobytes()


@pytest.mark.parametrize("signs", [[1.0] * 6, [1.0, -1.0] * 3], ids=["positive", "mixed"])
@pytest.mark.parametrize(
    "estimator",
    [
        lambda ts, c: threshold_denoise(ts.trials[0], c, ts.pre_samples, ts.post_samples),
        lambda ts, c: denoise_trial(ts.trials[0], c, ts.pre_samples, ts.post_samples),
        lambda ts, c: estimate_sensors(ts.trials[0], c, ts.pre_samples, ts.post_samples),
        denoise_multi,
    ],
    ids=["threshold_denoise", "denoise_trial", "estimate_sensors", "denoise_multi"],
)
def test_each_exported_estimator_turns_overflow_into_a_structure_error(signs, estimator):
    # every sample is finite, but the estimates leave float64
    trial = np.array(signs)[:, None] * np.full((6, 42), 1.5e308)
    ts = TrialSet((trial,) * 3, 2)
    config = DenoiseConfig(Family.DAUBECHIES4, scales=2)
    with warnings.catch_warnings():  # a leaked numpy RuntimeWarning fails the test
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^denoised estimate overflows the float64 range$"):
            estimator(ts, config)


@pytest.mark.parametrize("threshold", [False, True], ids=["approx", "threshold"])
def test_denoise_multi_turns_an_overflowing_trial_sum_into_a_structure_error(threshold):
    # each trial's estimate is finite; only the sum of the three leaves float64
    ts = TrialSet((np.full((6, 42), 6e307),) * 3, 2)
    config = DenoiseConfig(Family.DAUBECHIES4, scales=2, threshold=threshold)
    with warnings.catch_warnings():  # a leaked numpy RuntimeWarning fails the test
        warnings.simplefilter("error")
        estimator = threshold_denoise if threshold else denoise_trial
        assert np.isfinite(estimator(ts.trials[0], config, 2, 40)).all()
        with pytest.raises(ValueError, match="^denoised estimate overflows the float64 range$"):
            denoise_multi(ts, config)


def test_trialset_validation():
    good = np.zeros((2, 5))
    shape = r"^need a T x K x \(pre\+post\) block with T, K and pre\+post >= 1; got shape "
    for trials, pre, message in (
        ((), 2, shape),  # no trial
        (np.zeros((0, 2, 5)), 2, shape),  # no trial
        (good, 2, shape),  # 2-D
        ((np.zeros(5),), 2, shape),  # 2-D
        ((np.zeros((0, 5)),), 2, shape),  # no sensor
        ((good,), 5, r"^pre_samples must be in 0\.\.4, got 5$"),  # pre out of range
        ((good,), -1, r"^pre_samples must be in 0\.\.4, got -1$"),  # pre out of range
    ):
        with pytest.raises(ValueError, match=message):
            TrialSet(trials=trials, pre_samples=pre)
    with pytest.raises(ValueError):
        TrialSet(trials=(good, np.zeros((3, 5))), pre_samples=2)
    ts = TrialSet(trials=(good,), pre_samples=2)
    assert (len(ts), ts.sensors, ts.pre_samples, ts.post_samples) == (1, 2, 2, 3)
    assert isinstance(ts.trials, np.ndarray) and ts.trials.dtype == np.float64
    assert ts.trials.shape == (1, 2, 5) and not ts.trials.flags.writeable


def test_sensor_estimate_validation():
    for count in (5, -1):
        with pytest.raises(ValueError, match=f"^wavelet_count must be in 0\\.\\.3, got {count}$"):
            SensorEstimate(np.zeros(3), count)
    assert SensorEstimate(np.zeros(3), 1).mean_filled_count == 2
    # a block estimate's counts are per trial
    assert SensorEstimate(np.zeros((4, 3)), 1).mean_filled_count == 2
    for shape in ((), (2, 2, 3)):
        with pytest.raises(ValueError, match=r"^need K or T x K values, got shape \("):
            SensorEstimate(np.zeros(shape), 0)


def test_config_validation():
    with pytest.raises(ValueError):
        DenoiseConfig(family=Family.DAUBECHIES4, scales=0)
    with pytest.raises(ValueError):
        DenoiseConfig(family=Family.ADJUSTED_HAAR, param=-1)
    # a zero count the family cannot build is refused when the config is made
    with pytest.raises(ValueError, match="db4 takes no zero-count parameter, got 3"):
        DenoiseConfig(family=Family.DAUBECHIES4, param=3)
    with pytest.raises(ValueError, match="0..64, got 65"):
        DenoiseConfig(family=Family.ADJUSTED_HAAR, param=65)
    assert DenoiseConfig(family=Family.DAUBECHIES4).mode is Mode.MULTI_TRIAL
    assert DenoiseConfig(family=Family.DAUBECHIES4).threshold is False


def test_config_checks_the_zero_count_without_building_a_filter(monkeypatch):
    # The traced make_filter count is the estimator's, not the config's.
    def refuse(*args):
        raise AssertionError("DenoiseConfig built a filter pair")

    monkeypatch.setattr(denoise_module, "make_filter", refuse)
    DenoiseConfig(family=Family.ADJUSTED_HAAR, param=64)
    DenoiseConfig(family=Family.COIFLET1)


@pytest.fixture(scope="module")
def seed42():
    return generate_synthetic(SyntheticConfig(seed=42))


@pytest.mark.parametrize(
    "family,param", [(Family.DAUBECHIES4, 0), (Family.COIFLET1, 0), (Family.ADJUSTED_HAAR, 2)],
    ids=["db4", "coif1", "ahaar2"],
)
@pytest.mark.parametrize("mode,index", [("multi", 0), ("single", 0), ("single", -1)],
                         ids=["multi", "single-first", "single-last"])
def test_threshold_dataset_matches_the_per_trial_loop(seed42, family, param, mode, index):
    index %= len(seed42)
    config = DenoiseConfig(family=family, param=param, mode=Mode(mode), threshold=True)
    got = denoise_dataset(seed42, config, trial_index=index)
    want = threshold_mean_reference(seed42, config, index)
    assert got.tobytes() == want.tobytes()
