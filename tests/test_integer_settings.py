"""Every integer setting is refused by one rule, ``filters._check_int``.

A bool, float, string or None is a ``ValueError`` that names the setting,
never a ``TypeError``; a numpy integer is accepted; a value out of range
names the range; and the value echoed in either message is cut to 40
characters, so the CLI's error line stays short however long the argument.
"""

import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

import megden
from megden.cli import main
from megden.dataio import Manifest, SyntheticConfig
from megden.denoise import (
    DenoiseConfig,
    Mode,
    SensorEstimate,
    TrialSet,
    denoise_dataset,
    reconstruct_denoised,
)
from megden.filters import Family, adjusted_haar_freq_magnitude, make_filter
from megden.svgplot import PlotSpec
from megden.transform import dwt_analyze, dwt_approx, max_decomposition_depth

COUNTS = {"sensors": 2, "pre_samples": 1, "post_samples": 4, "trials": 2}
LEAST = {"sensors": 1, "pre_samples": 0, "post_samples": 1, "trials": 1}
DB4 = make_filter(Family.DAUBECHIES4)
AHAAR = Family.ADJUSTED_HAAR
TWO_TRIALS = TrialSet(np.arange(20.0).reshape(2, 2, 5), 1)
SINGLE = DenoiseConfig(Family.DAUBECHIES4, scales=2, mode=Mode.SINGLE_TRIAL)
SEED_RANGE = f"0..{2**64 - 1}"


def count_rows(make):
    return [
        pytest.param(
            name, lambda v, name=name: make(**{**COUNTS, name: v}), COUNTS[name],
            LEAST[name] - 1, f"{name} must be >= {LEAST[name]}, got {LEAST[name] - 1}",
            id=f"{make.__name__}-{name}",
        )
        for name in COUNTS
    ]


# name in the type message, build(value), a good value, a value out of range, its message
ROWS = [
    *count_rows(Manifest),
    *count_rows(SyntheticConfig),
    pytest.param("seed", lambda v: SyntheticConfig(seed=v), 7, 2**64,
                 f"seed must be in {SEED_RANGE}, got {2**64}", id="seed"),
    pytest.param("scales", lambda v: DenoiseConfig(Family.DAUBECHIES4, scales=v), 3, 0,
                 "scales must be >= 1, got 0", id="scales"),
    pytest.param("param", lambda v: make_filter(AHAAR, v), 2, 65,
                 "adjusted-Haar zero count must be in 0..64, got 65", id="make_filter-param"),
    pytest.param("param", lambda v: DenoiseConfig(AHAAR, param=v), 2, -1,
                 "param must be >= 0, got -1", id="DenoiseConfig-param"),
    pytest.param("zero count n", lambda v: adjusted_haar_freq_magnitude(v, 0.5), 2, -1,
                 "zero count n must be >= 0, got -1", id="adjusted_haar_freq_magnitude-n"),
    pytest.param("trial index", lambda v: denoise_dataset(TWO_TRIALS, SINGLE, v), 1, 2,
                 "trial index must be in 0..1, got 2", id="trial_index"),
    pytest.param("wavelet_count", lambda v: SensorEstimate(np.zeros(3), v), 3, 4,
                 "wavelet_count must be in 0..3, got 4", id="SensorEstimate-wavelet_count"),
    pytest.param("post-stimulus length",
                 lambda v: reconstruct_denoised(SensorEstimate(np.zeros(2), 2), v), 3, 0,
                 "post-stimulus length must be >= 1, got 0", id="reconstruct_denoised-post"),
    pytest.param("pre_samples", lambda v: TrialSet(np.zeros((1, 2, 5)), v), 4, 5,
                 "pre_samples must be in 0..4, got 5", id="TrialSet-pre_samples"),
    pytest.param("depth for a length-16 signal", lambda v: dwt_analyze(np.zeros(16), DB4, v),
                 4, 5, "depth for a length-16 signal must be in 1..4, got 5",
                 id="dwt_analyze-levels"),
    pytest.param("depth for a length-16 signal", lambda v: dwt_approx(np.zeros(16), DB4, v),
                 1, 0, "depth for a length-16 signal must be in 1..4, got 0",
                 id="dwt_approx-levels"),
    pytest.param("signal length", max_decomposition_depth, 16, 1,
                 "signal length must be >= 2, got 1", id="max_decomposition_depth"),
    pytest.param("width", lambda v: PlotSpec(width=v), 640, 99,
                 "width must be in 100..100000, got 99", id="PlotSpec-width"),
    pytest.param("height", lambda v: PlotSpec(height=v), 480, 100_001,
                 "height must be in 100..100000, got 100001", id="PlotSpec-height"),
]


@pytest.mark.parametrize("name, build, good, out_of_range, range_message", ROWS)
def test_every_integer_setting_follows_one_rule(name, build, good, out_of_range, range_message):
    for value in (True, 2.0, "2", None):
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got "):
            build(value)
    build(np.int64(good))
    with pytest.raises(ValueError, match=f"^{re.escape(range_message)}$"):
        build(out_of_range)
    # a huge value or a long string is echoed as its first 40 characters and "..."
    for value, shown in ((1 - 10**3000, "-" + "9" * 39), ("7" * 3000, "'" + "7" * 39)):
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value).endswith(f", got {shown}...")


@pytest.mark.parametrize("source", ["gen", "manifest"])
def test_a_huge_count_is_one_short_error_line(tmp_path, capsys, source):
    huge = "-" + "9" * 3000
    if source == "gen":
        argv = ["gen", "--out", str(tmp_path / "d"), "--sensors", huge]
    else:
        manifest = {**COUNTS, "sensors": int(huge), "unit": "fT", "sample_period_ms": 1.0}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = ["average", "--data", str(tmp_path), "--out", str(tmp_path / "avg.csv")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("megden: error: ") and err.count("\n") == 1
    assert "sensors must be >= 1, got -" + "9" * 39 + "...\n" in err
    assert len(err.encode()) < 200


def test_only_check_int_writes_the_integer_message():
    # a hand-rolled copy of the rule elsewhere in the package fails here
    src = Path(megden.__file__).parent
    filters = ast.parse((src / "filters.py").read_text(encoding="utf-8"))
    rule = next(
        node for node in ast.walk(filters)
        if isinstance(node, ast.FunctionDef) and node.name == "_check_int"
    )
    hits = [
        (path.name, lineno)
        for path in sorted(src.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "must be an integer" in line
    ]
    assert hits, "the rule's message is gone"
    for name, lineno in hits:
        assert name == "filters.py" and rule.lineno <= lineno <= rule.end_lineno, (name, lineno)
