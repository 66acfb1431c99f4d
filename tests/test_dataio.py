import json
import math
import os
import signal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import load_matrix_reference, save_matrix_reference

from megden import dataio
from megden.cli import main
from megden.dataio import (
    MANIFEST_NAME,
    Manifest,
    SplitMix64,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    load_manifest,
    load_matrix,
    load_trials,
    save_manifest,
    save_matrix,
    trial_filename,
    write_dataset,
)
from megden.denoise import TrialSet
from megden.errors import DatasetError

MASK = (1 << 64) - 1


def scalar_splitmix64(seed, count):
    """Straight-loop reference generator for cross-checking the vectorized one."""
    out = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_splitmix64_known_first_output():
    # widely published seed-0 head of the SplitMix64 stream
    assert int(SplitMix64(0).next_block(1)[0]) == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
def test_splitmix64_matches_scalar_reference(seed):
    got = [int(v) for v in SplitMix64(seed).next_block(20)]
    assert got == scalar_splitmix64(seed, 20)


def test_splitmix64_blocks_continue_the_stream():
    g = SplitMix64(7)
    first = list(g.next_block(3)) + list(g.next_block(5))
    assert [int(v) for v in first] == scalar_splitmix64(7, 8)


def test_uniform_mapping_and_range():
    g = SplitMix64(3)
    u = g.uniform(500)
    want = [(v >> 11) * 2.0**-53 for v in scalar_splitmix64(3, 500)]
    assert np.array_equal(u, want)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_gaussian_is_box_muller_on_uniform_pairs():
    raw = scalar_splitmix64(5, 4)
    u = [(v >> 11) * 2.0**-53 for v in raw]
    r0 = math.sqrt(-2.0 * math.log1p(-u[0]))
    r1 = math.sqrt(-2.0 * math.log1p(-u[2]))
    want = [
        r0 * math.cos(2.0 * math.pi * u[1]),
        r0 * math.sin(2.0 * math.pi * u[1]),
        r1 * math.cos(2.0 * math.pi * u[3]),
    ]
    got = SplitMix64(5).gaussian(3)
    assert got.size == 3
    assert np.array_equal(got, want)


def test_generate_default_dimensions():
    ts = generate_synthetic(SyntheticConfig(seed=1, trials=2))
    assert len(ts) == 2
    assert ts.trials[0].shape == (274, 361)
    assert ts.pre_samples == 120 and ts.post_samples == 241


def test_generate_is_deterministic():
    a = generate_synthetic(SyntheticConfig(seed=42, sensors=6, trials=2))
    b = generate_synthetic(SyntheticConfig(seed=42, sensors=6, trials=2))
    for ta, tb in zip(a.trials, b.trials):
        assert np.array_equal(ta, tb)


def test_noiseless_trials_follow_the_damped_sine():
    cfg = SyntheticConfig(
        seed=9, sensors=3, pre_samples=2, post_samples=5, trials=2, noise_sigma=0.0
    )
    ts = generate_synthetic(cfg)
    gains = 2.0 * SplitMix64(9).uniform(3) - 1.0
    assert np.array_equal(ts.trials[0], ts.trials[1])  # no noise, same response
    assert not np.any(ts.trials[0][:, :2])  # quiet before the stimulus
    for k in range(3):
        for t in range(5):
            want = (
                gains[k]
                * cfg.response_amp
                * math.exp(-t / cfg.response_decay_ms)
                * math.sin(2.0 * math.pi * cfg.response_freq_hz * t / 1000.0)
            )
            assert abs(ts.trials[0][k, 2 + t] - want) < 1e-12


def test_zero_amp_zero_sigma_is_all_zero():
    cfg = SyntheticConfig(
        seed=3, sensors=2, pre_samples=1, post_samples=4, trials=1,
        noise_sigma=0.0, response_amp=0.0,
    )
    assert not np.any(generate_synthetic(cfg).trials[0])


@pytest.mark.parametrize("sigma", [0.0, 1.0])
def test_trial_count_too_large_to_hold_fails_at_once(sigma):
    # Without noise the trials used to be copied one by one, so this count
    # ran until memory gave out; now both paths ask numpy for one block.
    cfg = SyntheticConfig(
        sensors=1, pre_samples=0, post_samples=1, trials=2**63 - 1, noise_sigma=sigma
    )
    with pytest.raises(ValueError):
        generate_synthetic(cfg)


def test_gains_are_drawn_before_noise():
    cfg = SyntheticConfig(seed=17, sensors=2, pre_samples=1, post_samples=2, trials=1)
    ts = generate_synthetic(cfg)
    rng = SplitMix64(17)
    gains = 2.0 * rng.uniform(2) - 1.0
    noise = cfg.noise_sigma * rng.gaussian(2 * 3).reshape(2, 3)
    t_ms = np.arange(2.0)
    resp = cfg.response_amp * np.exp(-t_ms / 60.0) * np.sin(2 * math.pi * 11.0 * t_ms / 1000.0)
    want = noise
    want[:, 1:] += gains[:, None] * resp[None, :]
    assert np.array_equal(ts.trials[0], want)


def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticConfig(seed=-1)
    with pytest.raises(ValueError):
        SyntheticConfig(seed=2**64)
    with pytest.raises(ValueError):
        SyntheticConfig(noise_sigma=-0.5)
    with pytest.raises(ValueError):
        SyntheticConfig(trials=0)
    with pytest.raises(ValueError):
        SyntheticConfig(response_decay_ms=0.0)


def test_matrix_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.normal(size=(7, 13)) * 10.0 ** rng.integers(-8, 8, size=(7, 13))
    p = tmp_path / "m.csv"
    save_matrix(m, p)
    assert np.array_equal(load_matrix(p), m)


def test_save_matrix_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(np.zeros(4), tmp_path / "x.csv")


def test_load_matrix_error_positions(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("1,2\n\n3,4\n")
    with pytest.raises(DatasetError, match=r"bad\.csv:2"):
        load_matrix(p)

    p.write_text("1,2\n3,oops\n")
    with pytest.raises(DatasetError, match=r"bad\.csv:2.*malformed"):
        load_matrix(p)

    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(DatasetError, match=r"bad\.csv:2.*columns"):
        load_matrix(p)

    p.write_text("")
    with pytest.raises(DatasetError, match=r"bad\.csv:1.*empty"):
        load_matrix(p)

    p.write_text("1,2\n \t \n3,4\n")  # whitespace-only, which loadtxt would not skip
    with pytest.raises(DatasetError, match=r"bad\.csv:2: blank"):
        load_matrix(p)

    p.write_bytes(b"1,2\r\n3,4\r\n")
    assert np.array_equal(load_matrix(p), [[1.0, 2.0], [3.0, 4.0]])
    p.write_bytes(b"1,2\r\n3,4\r\n5,x\r\n")
    with pytest.raises(DatasetError, match=r"bad\.csv:3: malformed"):
        load_matrix(p)

    p.write_text("1_0,2\n3,4\n")  # float() accepts digit grouping; loadtxt does not
    assert np.array_equal(load_matrix(p), [[10.0, 2.0], [3.0, 4.0]])
    p.write_text("1,\x1f2\n")  # loadtxt strips the unit separator; float() does not
    with pytest.raises(DatasetError, match=r"bad\.csv:1: malformed"):
        load_matrix(p)

    for bad in ("nan", "inf", "-inf", "1e400"):
        p.write_text(f"1,2,3\n4,5,{bad}\n")
        with pytest.raises(DatasetError, match=r"bad\.csv:2:3: non-finite value"):
            load_matrix(p)
    p.write_text("1_0,nan\n")  # non-finite behind the line-parser path
    with pytest.raises(DatasetError, match=r"bad\.csv:1:2: non-finite value"):
        load_matrix(p)

    p.write_bytes(b"\xef\xbb\xbf1,2\n")  # UTF-8 byte-order mark
    with pytest.raises(DatasetError, match=r"bad\.csv:1: non-ASCII byte 0xef"):
        load_matrix(p)
    p.write_bytes(b"1,2\r\n3,4\r5,\xff\n")
    with pytest.raises(DatasetError, match=r"bad\.csv:3: non-ASCII byte 0xff"):
        load_matrix(p)

    with pytest.raises(FileNotFoundError):
        load_matrix(tmp_path / "missing.csv")


# Matrices mixing ordinary values with -0.0, subnormals and the largest finite magnitudes.
finite_matrices = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e308, -1e308, 1.7976931348623157e308]),
    ),
)


@settings(max_examples=60, deadline=None)
@given(m=finite_matrices)
def test_csv_fast_paths_match_the_reference(tmp_path_factory, m):
    d = tmp_path_factory.mktemp("csv")
    fast, ref = d / "fast.csv", d / "ref.csv"
    save_matrix(m, fast)
    save_matrix_reference(m, ref)
    assert fast.read_bytes() == ref.read_bytes()
    with mock.patch.object(dataio, "_parse_lines", side_effect=AssertionError("fallback")):
        back = load_matrix(fast)  # well-formed input must take the loadtxt path
    assert back.dtype == np.float64 and back.shape == m.shape
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))
    assert np.array_equal(back.view(np.uint64), load_matrix_reference(fast).view(np.uint64))


csv_text = st.text(alphabet="0123456789.,-+e_ainf \t\n\r\x0c\x1c\x1f", max_size=40)


@settings(max_examples=300, deadline=None)
@given(text=csv_text)
def test_load_matrix_agrees_with_the_reference_on_any_text(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("csv") / "x.csv"
    p.write_bytes(text.encode("ascii"))
    try:
        want = load_matrix_reference(p)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as got:
            load_matrix(p)
        assert str(got.value) == str(exc)
        return
    if np.isfinite(want).all():
        assert np.array_equal(load_matrix(p).view(np.uint64), want.view(np.uint64))
    else:
        with pytest.raises(DatasetError, match="non-finite value"):
            load_matrix(p)


def test_manifest_round_trip(tmp_path):
    m = Manifest(sensors=4, pre_samples=2, post_samples=6, trials=3)
    p = tmp_path / MANIFEST_NAME
    save_manifest(m, p)
    assert load_manifest(p) == m
    raw = json.loads(p.read_text())
    assert raw["unit"] == "fT"
    assert raw["sample_period_ms"] == 1.0


def test_manifest_validation():
    with pytest.raises(ValueError):
        Manifest(sensors=0, pre_samples=1, post_samples=1, trials=1)
    with pytest.raises(ValueError):
        Manifest(sensors=1, pre_samples=1, post_samples=1, trials=1, unit="pT")
    with pytest.raises(ValueError):
        Manifest(sensors=1, pre_samples=1, post_samples=1, trials=1, sample_period_ms=0.0)


def test_load_manifest_errors(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{not json")
    with pytest.raises(DatasetError, match="invalid JSON"):
        load_manifest(p)
    p.write_text(json.dumps({"sensors": 2}))
    with pytest.raises(DatasetError, match="missing manifest key"):
        load_manifest(p)

    good = {"sensors": 4, "pre_samples": 2, "post_samples": 6, "trials": 3,
            "unit": "fT", "sample_period_ms": 1.0}
    for key, value in (("trials", True), ("sensors", 8.9), ("sensors", 8.0),
                       ("post_samples", "6")):
        p.write_text(json.dumps({**good, key: value}))
        with pytest.raises(DatasetError, match=rf"m\.json: .*'{key}' must be an integer"):
            load_manifest(p)

    p.write_bytes(b"\xef\xbb\xbf" + json.dumps(good).encode())
    with pytest.raises(DatasetError, match=r"m\.json:1: non-ASCII byte 0xef"):
        load_manifest(p)


def test_dataset_round_trip(tmp_path):
    ts = generate_synthetic(
        SyntheticConfig(seed=8, sensors=3, pre_samples=2, post_samples=4, trials=2)
    )
    written = write_dataset(ts, tmp_path / "ds")
    assert [p.name for p in written] == [MANIFEST_NAME, "trial_0.csv", "trial_1.csv"]
    back = load_dataset(tmp_path / "ds")
    assert back.sensors == 3 and back.pre_samples == 2 and back.post_samples == 4
    for a, b in zip(ts.trials, back.trials):
        assert np.array_equal(a, b)


def test_dataset_without_pre_stimulus_samples_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    ts = TrialSet(tuple(rng.normal(size=(3, 5)) for _ in range(2)), 3, 0, 5)
    write_dataset(ts, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert (back.sensors, back.pre_samples, back.post_samples) == (3, 0, 5)
    assert all(np.array_equal(a, b) for a, b in zip(ts.trials, back.trials))
    assert generate_synthetic(SyntheticConfig(sensors=3, pre_samples=0, trials=1)).pre_samples == 0
    for make in (Manifest, SyntheticConfig):
        with pytest.raises(ValueError, match="pre_samples must be >= 0, got -1"):
            make(sensors=1, pre_samples=-1, post_samples=1, trials=1)


def test_load_trials_count_checks(tmp_path):
    ts = generate_synthetic(
        SyntheticConfig(seed=8, sensors=3, pre_samples=2, post_samples=4, trials=2)
    )
    write_dataset(ts, tmp_path)
    manifest = tmp_path / MANIFEST_NAME

    with pytest.raises(DatasetError, match="2 trials"):
        load_trials(manifest, [tmp_path / trial_filename(0)])

    # a data file whose row count contradicts the manifest
    save_matrix(np.zeros((2, 6)), tmp_path / trial_filename(1))
    with pytest.raises(DatasetError, match=r"trial_1\.csv.*3 rows"):
        load_dataset(tmp_path)

    save_matrix(np.zeros((3, 5)), tmp_path / trial_filename(1))
    with pytest.raises(DatasetError, match=r"trial_1\.csv.*6 columns"):
        load_dataset(tmp_path)


def test_manifest_unit_and_period_are_strict(tmp_path):
    p = tmp_path / "m.json"
    good = {"sensors": 4, "pre_samples": 2, "post_samples": 6, "trials": 3,
            "unit": "fT", "sample_period_ms": 1.0}
    p.write_text(json.dumps({**good, "sample_period_ms": 2}))
    assert load_manifest(p).sample_period_ms == 2.0
    cases = (
        ("unit", 1, "must be a string"),
        ("unit", None, "must be a string"),
        ("sample_period_ms", "nan", "must be a number"),
        ("sample_period_ms", "inf", "must be a number"),
        ("sample_period_ms", True, "must be a number"),
        ("sample_period_ms", "1.0", "must be a number"),
    )
    for key, value, reason in cases:
        p.write_text(json.dumps({**good, key: value}))
        with pytest.raises(DatasetError, match=rf"m\.json: .*'{key}' {reason}"):
            load_manifest(p)
    # NaN and Infinity are JSON extensions that the json module accepts
    for literal in ("0", "-1.5", "NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
        p.write_text(json.dumps(good).replace("1.0", literal))
        with pytest.raises(DatasetError, match=r"m\.json: .*sample_period_ms must be finite"):
            load_manifest(p)
    for text in ("[1, 2]", '"fT"', "7", "null"):
        p.write_text(text)
        with pytest.raises(DatasetError, match=r"m\.json: manifest must be a JSON object"):
            load_manifest(p)
    # json raises ValueError and RecursionError, not JSONDecodeError, for these
    for text in ('{"sensors": ' + "9" * 5000 + "}", "[" * 100_000 + "]" * 100_000):
        p.write_text(text)
        with pytest.raises(DatasetError, match=r"m\.json: invalid JSON"):
            load_manifest(p)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                 max_size=3),
    max_leaves=8,
)
manifest_keys = st.sampled_from(
    ["sensors", "pre_samples", "post_samples", "trials", "unit", "sample_period_ms"]
)
manifest_objects = st.dictionaries(
    manifest_keys | st.text(max_size=5),
    json_values | st.sampled_from(["fT", 1, 2.5, "nan", 10**400]),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(doc=manifest_objects.map(json.dumps) | st.text(max_size=40))
def test_any_manifest_text_loads_or_raises_dataset_error(tmp_path_factory, doc):
    p = tmp_path_factory.mktemp("manifest") / MANIFEST_NAME
    p.write_bytes(doc.encode("utf-8"))
    try:
        m = load_manifest(p)
    except DatasetError as exc:
        assert str(exc).startswith(str(p))
    else:
        assert m.unit == "fT" and math.isfinite(m.sample_period_ms)


def test_load_dataset_parses_the_manifest_once(tmp_path):
    ts = generate_synthetic(
        SyntheticConfig(seed=8, sensors=3, pre_samples=2, post_samples=4, trials=2)
    )
    write_dataset(ts, tmp_path)
    with mock.patch.object(dataio, "load_manifest", wraps=dataio.load_manifest) as spy:
        load_dataset(tmp_path)
    assert spy.call_count == 1


WORKER_COUNTS = (1, 2, 4)


def stub_mask(monkeypatch, cpus):
    """Make the affinity mask hold ``cpus`` CPUs, so the pool has that many workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_worker_count_does_not_change_bits(tmp_path, monkeypatch):
    ts = generate_synthetic(
        SyntheticConfig(seed=11, sensors=5, pre_samples=3, post_samples=9, trials=7)
    )
    files, loaded = [], []
    for workers in WORKER_COUNTS:
        stub_mask(monkeypatch, workers)
        d = tmp_path / f"w{workers}"
        written = write_dataset(ts, d)
        assert [p.name for p in written] == [MANIFEST_NAME] + [trial_filename(i) for i in range(7)]
        files.append([p.read_bytes() for p in written])
        back = load_dataset(tmp_path / "w1")
        loaded.append(np.stack(back.trials))
    assert files[0] == files[1] == files[2]
    assert np.array_equal(loaded[0], np.stack(ts.trials))
    for other in loaded[1:]:
        assert np.array_equal(loaded[0], other)


def test_first_error_does_not_depend_on_worker_count(tmp_path, monkeypatch):
    ts = generate_synthetic(
        SyntheticConfig(seed=3, sensors=4, pre_samples=2, post_samples=5, trials=9)
    )
    write_dataset(ts, tmp_path)
    (tmp_path / trial_filename(3)).write_text("1,2,3,4,5,6,7\n1,2,x,4,5,6,7\n")
    save_matrix(np.zeros((3, 7)), tmp_path / trial_filename(7))
    messages = set()
    for workers in WORKER_COUNTS:
        stub_mask(monkeypatch, workers)
        with pytest.raises(DatasetError) as err:
            load_dataset(tmp_path)
        messages.add(str(err.value))
    assert messages == {f"{tmp_path / trial_filename(3)}:2: malformed row"}

    write_dataset(ts, tmp_path)
    save_matrix(np.zeros((3, 7)), tmp_path / trial_filename(7))
    for workers in WORKER_COUNTS:
        stub_mask(monkeypatch, workers)
        with pytest.raises(DatasetError, match=r"trial_7\.csv: expected 4 rows, found 3"):
            load_dataset(tmp_path)


def test_affinity_mask_size_does_not_change_output(tmp_path, monkeypatch):
    outs = []
    for cpus in (1, 2, 4):
        stub_mask(monkeypatch, cpus)
        assert dataio._worker_count() == cpus
        out = tmp_path / f"run{cpus}"
        data = out / "data"
        small = "--sensors 6 --pre 3 --post 8 --trials 5".split()
        assert main(["gen", "--seed", "7", "--out", str(data), *small]) == 0
        assert main(["average", "--data", str(data), "--out", str(out / "avg.csv")]) == 0
        assert main([
            "denoise", "--data", str(data), "--out", str(out / "den.csv"),
            "--wavelet", "ahaar", "--n", "2", "--scales", "3",
        ]) == 0
        outs.append({p.name: p.read_bytes() for p in sorted(out.rglob("*.*"))})
    assert len(outs[0]) == 8  # manifest, 5 trials, avg.csv, den.csv
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("function", ["write_dataset", "load_dataset"])
def test_pool_forks_one_child_per_extra_cpu_in_the_mask(tmp_path, monkeypatch, function):
    # os.fork is a counter that starts no process: the parent reads EOF from
    # the pipe and the stubbed reap, so every "child" reports no result.
    # The machine's CPU count does not widen the pool; only the mask sizes it.
    ts = generate_synthetic(
        SyntheticConfig(seed=5, sensors=3, pre_samples=2, post_samples=4, trials=8)
    )
    write_dataset(ts, tmp_path / "d")
    forks = []
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or 999_999)
    monkeypatch.setattr(os, "waitpid", lambda pid, flags: (pid, 0))
    run = {"write_dataset": lambda: write_dataset(ts, tmp_path / "d"),
           "load_dataset": lambda: load_dataset(tmp_path / "d")}[function]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run()
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    with pytest.raises(OSError, match="without a result"):
        run()
    assert len(forks) == 2  # three workers: the parent plus two children


def test_worker_count_without_a_mask_is_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert dataio._worker_count() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert dataio._worker_count() == 1


def _assert_no_child_left():
    try:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # children exist, none exited
    except ChildProcessError:
        pass  # no children at all


def test_worker_that_dies_gives_an_os_error(tmp_path):
    parent = os.getpid()

    def job(path):
        if os.getpid() != parent:
            os._exit(3)
        return path

    paths = [tmp_path / trial_filename(i) for i in range(4)]
    signal.alarm(30)  # a hang ends the run instead of blocking it
    try:
        with pytest.raises(OSError, match=rf"{trial_filename(2)}: worker exited with status 3"):
            dataio._fanout(job, paths, workers=2)
    finally:
        signal.alarm(0)
    _assert_no_child_left()
    assert dataio._fanout(job, paths, workers=1) == paths


def test_fanout_keeps_order_and_raises_the_first_error():
    items = list(range(11))
    for workers in (1, 2, 3, 4, 20):
        assert dataio._fanout(lambda x: x * x, items, workers) == [x * x for x in items]

    def job(x):
        if x in (2, 9):
            raise KeyError(x)
        return x

    for workers in (1, 2, 4):
        with pytest.raises(KeyError) as err:
            dataio._fanout(job, items, workers)
        assert err.value.args == (2,)
    _assert_no_child_left()
