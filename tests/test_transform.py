import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import dwt_analyze_reference, dwt_synthesize_reference, synthesize_step_reference

from megden.filters import Family, FilterPair, make_filter
from megden.transform import (
    Decomposition,
    dwt_analyze,
    dwt_approx,
    dwt_synthesize,
    max_decomposition_depth,
)

FAMILIES = [
    make_filter(Family.DAUBECHIES4),
    make_filter(Family.COIFLET1),
    make_filter(Family.ADJUSTED_HAAR, 2),
]
FAMILY_IDS = ["db4", "coif1", "ahaar2"]
# every family the CLI offers: db4, coif1 and adjusted Haar with n = 0..8 zeros
ALL_FAMILIES = [make_filter(Family.DAUBECHIES4), make_filter(Family.COIFLET1)] + [
    make_filter(Family.ADJUSTED_HAAR, n) for n in range(9)
]


def slow_analyze_step(x, taps):
    """Reference one-level split: plain loops, odd length padded by repeating
    the last sample, indices wrapped modulo the (even) working length."""
    vals = list(x)
    if len(vals) % 2:
        vals.append(vals[-1])
    n = len(vals)
    half = n // 2
    out = []
    for i in range(half):
        acc = 0.0
        for k, t in enumerate(taps):
            acc += t * vals[(2 * i + k) % n]
        out.append(acc)
    return out


@pytest.mark.parametrize("pair", FAMILIES, ids=FAMILY_IDS)
@pytest.mark.parametrize("length", [7, 8, 13, 64])
def test_single_level_matches_reference(pair, length):
    rng = np.random.default_rng(1234)
    x = rng.normal(size=length)
    dec = dwt_analyze(x, pair, levels=1)
    want_a = slow_analyze_step(x, pair.lowpass)
    want_d = slow_analyze_step(x, pair.highpass)
    assert np.max(np.abs(dec.approx - want_a)) < 1e-12
    assert np.max(np.abs(dec.details[0] - want_d)) < 1e-12
    assert dec.lengths == (length,)


@pytest.mark.parametrize(
    "pair",
    FAMILIES + [make_filter(Family.ADJUSTED_HAAR, 0), make_filter(Family.ADJUSTED_HAAR, 1)],
    ids=FAMILY_IDS + ["ahaar0", "ahaar1"],
)
def test_round_trip_small(pair):
    rng = np.random.default_rng(7)
    for length in (16, 37, 241):
        x = rng.normal(size=length)
        levels = min(4, max_decomposition_depth(length))
        dec = dwt_analyze(x, pair, levels)
        back = dwt_synthesize(dec, pair)
        assert back.shape == x.shape
        assert np.max(np.abs(back - x)) <= 1e-10 * np.max(np.abs(x))


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=2, max_size=300
    ),
    which=st.integers(min_value=0, max_value=len(ALL_FAMILIES) - 1),
    depth=st.data(),
)
def test_round_trip_property(data, which, depth):
    x = np.asarray(data)
    pair = ALL_FAMILIES[which]
    levels = depth.draw(st.integers(min_value=1, max_value=max_decomposition_depth(x.size)))
    back = dwt_synthesize(dwt_analyze(x, pair, levels), pair)
    scale = max(1.0, np.max(np.abs(x)))
    assert np.max(np.abs(back - x)) <= 1e-10 * scale


# signed zeros, subnormals and huge magnitudes are where a reordered or
# differently started sum first shows in the last bits
EDGE_FLOATS = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
)


@settings(max_examples=150, deadline=None)
@given(
    length=st.integers(min_value=2, max_value=600),
    which=st.integers(min_value=0, max_value=len(ALL_FAMILIES) - 1),
    draw=st.data(),
)
def test_kernels_match_loop_references_bit_for_bit(length, which, draw):
    x = draw.draw(arrays(np.float64, length, elements=EDGE_FLOATS))
    pair = ALL_FAMILIES[which]
    levels = draw.draw(st.integers(min_value=1, max_value=max_decomposition_depth(length)))
    dec = dwt_analyze(x, pair, levels)
    approx, details, lengths = dwt_analyze_reference(x, pair, levels)
    assert dec.lengths == tuple(lengths)
    assert dec.approx.tobytes() == approx.tobytes()
    assert dwt_approx(x, pair, levels).tobytes() == approx.tobytes()
    assert [d.tobytes() for d in dec.details] == [d.tobytes() for d in details]
    want = dwt_synthesize_reference(approx, details, lengths, pair)
    assert dwt_synthesize(dec, pair).tobytes() == want.tobytes()
    # synthesis of bands that are not an analysis result: the drawn values
    # themselves, so signed zeros and subnormals reach its sums directly
    bands = [np.resize(x, d.size) for d in details]
    top = np.resize(x[::-1], approx.size)
    raw = Decomposition(top, tuple(bands), length)
    want = dwt_synthesize_reference(top, bands, lengths, pair)
    assert dwt_synthesize(raw, pair).tobytes() == want.tobytes()


@pytest.mark.parametrize("pair", ALL_FAMILIES, ids=lambda p: f"{p.family.value}{p.param}")
def test_short_signals_match_the_loop_references_bit_for_bit(pair):
    # on short signals a phase of m samples needs a wrap of (taps - 1) // 2 >= m,
    # which spans several periods (ahaar8: 8 wrap samples), and odd level
    # lengths take phase 1's last sample from the repeat-last extension
    rng = np.random.default_rng(11)
    for length in range(2, 25):
        x = rng.normal(size=length)
        for levels in range(1, max_decomposition_depth(length) + 1):
            dec = dwt_analyze(x, pair, levels)
            approx, details, lengths = dwt_analyze_reference(x, pair, levels)
            assert dec.approx.tobytes() == approx.tobytes()
            assert dwt_approx(x, pair, levels).tobytes() == approx.tobytes()
            assert [d.tobytes() for d in dec.details] == [d.tobytes() for d in details]
            want = dwt_synthesize_reference(approx, details, lengths, pair)
            assert dwt_synthesize(dec, pair).tobytes() == want.tobytes()


def _zero_band(kind: str, size: int, rng) -> np.ndarray:
    if kind == "positive-zeros":
        return np.zeros(size)
    if kind == "negative-zeros":
        return np.full(size, -0.0)
    band = np.where(rng.random(size) < 0.5, 0.0, -0.0)
    if kind == "one-normal":
        band[rng.integers(size)] = rng.normal()
    elif kind == "one-subnormal":  # g[k] * 5e-324 can round to a signed zero
        band[rng.integers(size)] = -5e-324
    return band


@pytest.mark.parametrize(
    "kind", ["positive-zeros", "negative-zeros", "mixed-zeros", "one-normal", "one-subnormal"]
)
@pytest.mark.parametrize("pair", ALL_FAMILIES, ids=lambda p: f"{p.family.value}{p.param}")
def test_synthesis_of_zero_detail_bands_matches_the_reference(pair, kind):
    # synthesis skips g[k] * d for a band of +-0.0 only; a band with one non-zero
    # coefficient takes the full sum. The approximation holds signed zeros too,
    # so h[k] * a is -0.0 where h[k] * a + g[k] * d would be +0.0.
    h, g = pair.lowpass, pair.highpass
    rng = np.random.default_rng(11)
    for out_len in (2, 3, 7, 8, 37, 240):
        size = (out_len + 1) // 2
        a = rng.normal(size=size)
        a[rng.random(size) < 0.3] = -0.0
        a[rng.random(size) < 0.3] = 0.0
        d = _zero_band(kind, size, rng)
        dec = Decomposition(a, (d,), out_len)
        want = synthesize_step_reference(a, d, h, g, out_len)
        assert dwt_synthesize(dec, pair).tobytes() == want.tobytes()
        # two levels: a zero band under a non-zero one, and the reverse
        if out_len >= 7:
            lengths = (out_len, size)
            inner = (size + 1) // 2
            top = rng.normal(size=inner)
            under = (d, rng.normal(size=inner))
            over = (rng.normal(size=size), _zero_band(kind, inner, rng))
            for bands in (under, over):
                want = dwt_synthesize_reference(top, list(bands), list(lengths), pair)
                got = dwt_synthesize(Decomposition(top, bands, out_len), pair)
                assert got.tobytes() == want.tobytes()


def test_haar_level_is_pairwise_sum_and_difference():
    x = np.array([4.0, 2.0, 10.0, 6.0, 1.0, -3.0])
    dec = dwt_analyze(x, make_filter(Family.ADJUSTED_HAAR, 0), levels=1)
    root2 = np.sqrt(2.0)
    assert np.allclose(dec.approx * root2, [6.0, 16.0, -2.0], atol=1e-12)
    assert np.allclose(dec.details[0] * root2, [2.0, 4.0, 4.0], atol=1e-12)


def test_haar_known_coefficient_values():
    haar = make_filter(Family.ADJUSTED_HAAR, 0)
    flat = dwt_analyze(np.ones(4), haar, levels=1)
    assert np.allclose(flat.approx, [1.41421356, 1.41421356], atol=1e-8)
    assert np.allclose(flat.details[0], [0.0, 0.0], atol=1e-12)

    ramp = dwt_analyze(np.array([1.0, 2.0, 3.0, 4.0]), haar, levels=1)
    assert np.allclose(ramp.approx, [2.12132034, 4.94974747], atol=1e-8)
    assert np.allclose(ramp.details[0], [-0.70710678, -0.70710678], atol=1e-8)


def test_synthesize_constant_case_directly():
    haar = make_filter(Family.ADJUSTED_HAAR, 0)
    root2 = np.sqrt(2.0)
    dec = Decomposition(approx=np.array([root2, root2]), details=(np.zeros(2),), length=4)
    assert np.allclose(dwt_synthesize(dec, haar), [1.0, 1.0, 1.0, 1.0], atol=1e-12)


def test_energy_is_conserved_without_padding():
    rng = np.random.default_rng(99)
    x = rng.normal(size=64)  # every level stays even down to length 2
    for pair in FAMILIES:
        dec = dwt_analyze(x, pair, levels=5)
        total = np.dot(dec.approx, dec.approx) + sum(np.dot(d, d) for d in dec.details)
        energy = np.dot(x, x)
        assert abs(energy - total) <= 1e-9 * energy


def test_constant_signal_coefficients():
    c = 3.25
    for pair in FAMILIES:
        dec = dwt_analyze(np.full(64, c), pair, levels=3)
        for d in dec.details:
            assert np.max(np.abs(d)) < 1e-12
        assert np.max(np.abs(dec.approx - c * 2.0 ** (3 / 2))) < 1e-12


def test_length_chain_for_long_concatenated_vector():
    x = np.zeros(66034)
    dec = dwt_analyze(x, make_filter(Family.ADJUSTED_HAAR, 2), levels=8)
    assert dec.lengths == (66034, 33017, 16509, 8255, 4128, 2064, 1032, 516)
    assert dec.approx.size == 258
    assert [d.size for d in dec.details] == [33017, 16509, 8255, 4128, 2064, 1032, 516, 258]


def test_details_ordering_finest_first():
    x = np.arange(32.0)
    dec = dwt_analyze(x, make_filter(Family.DAUBECHIES4), levels=3)
    assert [d.size for d in dec.details] == [16, 8, 4]
    assert dec.approx.size == 4


@pytest.mark.parametrize(
    "length,want",
    [(2, 1), (3, 2), (16, 4), (17, 5), (241, 8), (1024, 10), (66034, 17), (np.int64(241), 8)],
)
def test_max_decomposition_depth(length, want):
    assert max_decomposition_depth(length) == want


def _depth_by_halving(length: int) -> int:
    depth = 0
    while length > 1:
        length = (length + 1) // 2
        depth += 1
    return depth


def test_max_decomposition_depth_matches_ceil_halving():
    big = (2**64 - 1, 2**64, 2**64 + 1, 10**30)
    for length in (*range(2, 200_001), *big):
        assert max_decomposition_depth(length) == _depth_by_halving(length), length
    for length in (1, 0, -5):
        with pytest.raises(ValueError):
            max_decomposition_depth(length)


@pytest.mark.parametrize("analyze", [dwt_analyze, dwt_approx])
def test_analyze_depth_error_names_limit(analyze):
    want = r"^depth for a length-16 signal must be in 1\.\.4, got 5$"
    with pytest.raises(ValueError, match=want):
        analyze(np.zeros(16), make_filter(Family.DAUBECHIES4), levels=5)


@pytest.mark.parametrize("analyze", [dwt_analyze, dwt_approx])
def test_analyze_rejects_bad_inputs(analyze):
    pair = make_filter(Family.DAUBECHIES4)
    with pytest.raises(ValueError, match=r"^signal must be one-dimensional, got shape \(4, 4\)$"):
        analyze(np.zeros((4, 4)), pair, levels=1)
    with pytest.raises(ValueError, match="^signal length must be >= 2, got 1$"):
        analyze(np.zeros(1), pair, levels=1)
    with pytest.raises(ValueError, match=r"^depth for a length-8 signal must be in 1\.\.3, got 0$"):
        analyze(np.zeros(8), pair, levels=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("pair", ALL_FAMILIES, ids=lambda p: f"{p.family.value}{p.param}")
def test_a_non_finite_sample_leaves_the_approximation_non_finite(pair, bad):
    # the kernels skip zero taps, which is exact only for finite input: a skipped
    # 0 * inf would have been nan, so the bad sample must still reach the output
    rng = np.random.default_rng(5)
    for length in (2, 37, 241):
        for where in (0, length // 2, length - 1):
            x = rng.normal(size=length)
            x[where] = bad
            levels = max_decomposition_depth(length)
            with np.errstate(invalid="ignore"):  # inf - inf inside a sum is nan: still non-finite
                assert not np.isfinite(dwt_approx(x, pair, levels)).all()
                assert not np.isfinite(dwt_analyze(x, pair, levels).approx).all()


def test_synthesize_rejects_inconsistent_structure():
    pair = make_filter(Family.DAUBECHIES4)
    dec = dwt_analyze(np.arange(16.0), pair, levels=2)
    with pytest.raises(ValueError, match="^approximation band has 5 samples, expected 4$"):
        Decomposition(np.zeros(dec.approx.size + 1), dec.details, dec.length)
    short = "^detail band 0 has 7 samples, expected 8 for level input length 16$"
    with pytest.raises(ValueError, match=short):
        Decomposition(dec.approx, (dec.details[0][:-1], dec.details[1]), dec.length)


def test_synthesize_checks_bands_against_the_derived_lengths():
    # length 15 derives lengths (15, 8): these bands rebuild exactly 15 samples, and
    # a band of another size is a ValueError naming the band, not a numpy broadcast error
    for fill in (np.zeros, np.ones):
        dec = Decomposition(fill(4), (fill(8), fill(4)), 15)
        assert dec.lengths == (15, 8)
        assert dwt_synthesize(dec, make_filter(Family.DAUBECHIES4)).size == 15
        with pytest.raises(ValueError, match="^detail band 1 has 3 samples, expected 4"):
            Decomposition(fill(4), (fill(8), fill(3)), 15)


def test_decomposition_needs_a_detail_band_and_a_length():
    need = "^need at least one detail band and length >= 1; got"
    with pytest.raises(ValueError, match=f"{need} 0 bands, length 16$"):
        Decomposition(np.zeros(4), (), 16)
    with pytest.raises(ValueError, match=f"{need} 1 bands, length 0$"):
        Decomposition(np.zeros(0), (np.zeros(0),), 0)


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(min_value=1, max_value=5000),
    levels=st.integers(min_value=1, max_value=16),
    which=st.integers(min_value=0, max_value=len(ALL_FAMILIES) - 1),
    data=st.data(),
)
def test_synthesis_of_bands_sized_by_lengths_returns_length_samples(length, levels, which, data):
    lengths = [length]
    for _ in range(levels - 1):
        lengths.append((lengths[-1] + 1) // 2)
    rng = np.random.default_rng(length)
    bands = tuple(rng.normal(size=(n + 1) // 2) for n in lengths)
    top = rng.normal(size=bands[-1].size)
    dec = Decomposition(top, bands, length)
    assert dec.lengths == tuple(lengths)
    assert dwt_synthesize(dec, ALL_FAMILIES[which]).shape == (length,)
    # one band a sample short or long is refused when the record is built
    wrong = data.draw(st.integers(min_value=0, max_value=levels), label="wrong band")
    delta = data.draw(st.sampled_from([-1, 1]), label="size change")
    if wrong == levels:  # the approximation
        top = np.zeros(top.size + delta)
        name, size = "approximation band", top.size
    else:
        bad = np.zeros(bands[wrong].size + delta)
        bands = bands[:wrong] + (bad,) + bands[wrong + 1 :]
        name, size = f"detail band {wrong}", bad.size
    with pytest.raises(ValueError, match=f"^{name} has {size} samples, expected "):
        Decomposition(top, bands, length)


def test_filter_longer_than_signal_still_inverts():
    # periodized wrap must tile the signal when the kernel overruns it
    pair = make_filter(Family.ADJUSTED_HAAR, 4)  # 10 taps
    x = np.array([3.0, -1.0, 2.0, 5.0])
    back = dwt_synthesize(dwt_analyze(x, pair, 1), pair)
    assert np.max(np.abs(back - x)) < 1e-12


@pytest.mark.parametrize("pair", ALL_FAMILIES, ids=lambda p: f"{p.family.value}{p.param}")
@pytest.mark.parametrize("length", [2, 13, 64])
def test_analysis_bands_are_frozen_and_private(pair, length):
    # dwt_analyze keeps the bands it computes without copying them, so each
    # must be a new array of its own that a later write to the signal misses
    x = np.random.default_rng(length).normal(size=length)
    dec = dwt_analyze(x, pair, max_decomposition_depth(length))
    bands = (dec.approx, *dec.details)
    kept = [band.copy() for band in bands]
    for i, band in enumerate(bands):
        assert band.flags.c_contiguous and not band.flags.writeable
        assert not np.shares_memory(band, x)
        assert not any(np.shares_memory(band, other) for other in bands[i + 1 :])
    x[:] = np.nan
    assert all(band.tobytes() == old.tobytes() for band, old in zip(bands, kept))


@pytest.mark.parametrize("taps", [2, 8, 18])
@pytest.mark.parametrize("length", [2, 7, 16])
def test_an_all_zero_lowpass_analyses_and_synthesises_to_zeros(taps, length):
    # no tap is live, so no sum has a first product to start from
    pair = FilterPair(Family.DAUBECHIES4, 0, np.zeros(taps))
    x = np.random.default_rng(taps).normal(size=length)
    levels = max_decomposition_depth(length)
    dec = dwt_analyze(x, pair, levels)
    for band in (dec.approx, *dec.details):
        assert band.tobytes() == np.zeros(band.size).tobytes()
    assert dwt_approx(x, pair, levels).tobytes() == dec.approx.tobytes()
    rng = np.random.default_rng(length)
    bands = tuple(rng.normal(size=d.size) for d in dec.details)
    rebuilt = dwt_synthesize(Decomposition(rng.normal(size=dec.approx.size), bands, length), pair)
    assert rebuilt.tobytes() == np.zeros(length).tobytes()
