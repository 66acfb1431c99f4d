"""The seed-42 benchmark goldens, reproduced through the library.

``bench/golden.json`` pins the sha256 of every output the benchmark
checks. The transform tests compare values within a tolerance, so a
kernel that sums its taps in another order passes them; these digests
change with the last bit of any coefficient.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from megden.dataio import (
    MANIFEST_NAME,
    SyntheticConfig,
    generate_synthetic,
    save_matrix,
    write_dataset,
)
from megden.denoise import DenoiseConfig, Mode, average_trials, denoise_dataset
from megden.filters import Family
from megden.svgplot import PlotSpec, render_traces

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
FAMILIES = {
    "db4": (Family.DAUBECHIES4, 0),
    "coif1": (Family.COIFLET1, 0),
    "ahaar2": (Family.ADJUSTED_HAAR, 2),
    "ahaar8": (Family.ADJUSTED_HAAR, 8),
}


@pytest.fixture(scope="module")
def trials():
    return generate_synthetic(SyntheticConfig(seed=GOLDEN["seed"]))


def digest(array) -> str:
    """sha256 of the shape's repr followed by the float64 bytes."""
    a = np.ascontiguousarray(array, dtype=np.float64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def test_manifest_bytes_match_golden(trials, tmp_path):
    # key order, indent and the fixed unit and sample period; bench/golden.json has no manifest
    write_dataset(trials, tmp_path)
    got = hashlib.sha256((tmp_path / MANIFEST_NAME).read_bytes()).hexdigest()
    assert got == "c5fc9bf4b660969f04f716f39b7aeca224284c1cb4b36e38c71c694662156b17"


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_trial_files_match_golden(trials, tmp_path):
    write_dataset(trials, tmp_path)
    got = {p.name: sha256_file(p) for p in tmp_path.glob("trial_*.csv")}
    assert got == {k: v for k, v in GOLDEN["cli_chain"].items() if k.startswith("trial_")}


def test_average_csv_matches_golden(trials, tmp_path):
    # `average` writes the post-stimulus window by default
    save_matrix(average_trials(trials)[:, trials.pre_samples :], tmp_path / "avg.csv")
    assert sha256_file(tmp_path / "avg.csv") == GOLDEN["cli_chain"]["avg.csv"]


def test_plot_svg_matches_golden(trials):
    # `plot --in den.csv` titles the plot with the input's stem
    den = denoise_dataset(trials, DenoiseConfig(family=Family.ADJUSTED_HAAR, param=2, scales=8))
    svg = render_traces(den, PlotSpec(title="den")).encode("ascii")
    assert hashlib.sha256(svg).hexdigest() == GOLDEN["cli_chain"]["den.svg"]


@pytest.mark.parametrize("name,threshold", [("den.csv", False), ("thr.csv", True)])
def test_chain_csv_matches_golden(trials, tmp_path, name, threshold):
    config = DenoiseConfig(family=Family.ADJUSTED_HAAR, param=2, scales=8, threshold=threshold)
    save_matrix(denoise_dataset(trials, config), tmp_path / name)
    got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == GOLDEN["cli_chain"][name]


@pytest.mark.parametrize("label", list(FAMILIES))
def test_sweep_outputs_match_golden(trials, label):
    family, param = FAMILIES[label]
    multi = DenoiseConfig(family=family, param=param, scales=8)
    outputs = {
        "multi": denoise_dataset(trials, multi),
        "single0": denoise_dataset(trials, dataclasses.replace(multi, mode=Mode.SINGLE_TRIAL)),
        "threshold": denoise_dataset(trials, dataclasses.replace(multi, threshold=True)),
    }
    for kind, out in outputs.items():
        assert digest(out) == GOLDEN["denoise_sweep"][f"{label}.{kind}"], kind
