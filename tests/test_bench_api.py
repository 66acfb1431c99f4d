"""The library API that ``bench/`` calls, checked without importing or changing it.

``bench/tests`` lies outside the tier-1 test paths, so these checks keep a
library deletion from breaking the traced benchmark unnoticed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

from megden import denoise
from megden.dataio import SyntheticConfig, generate_synthetic
from megden.filters import Family

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_targets() -> list[tuple[str, str]]:
    """The (module, function) head of every ``TARGETS`` entry in bench/tracing.py."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert len(targets) > 10
    for module, function in targets:
        assert callable(getattr(importlib.import_module(f"megden.{module}"), function)), (
            f"megden.{module}.{function}"
        )


def test_bench_modes_and_threshold_signature():
    assert denoise.Mode.MULTI_TRIAL.value == "multi"
    assert denoise.Mode.SINGLE_TRIAL.value == "single"
    config = denoise.DenoiseConfig(family=Family.ADJUSTED_HAAR, param=0, scales=2)
    out = denoise.threshold_denoise(np.ones((2, 6)), config, 2, 4)
    assert out.shape == (2, 4)


def test_traced_layers_run_once_per_trial(monkeypatch):
    # bench/tracing.py rebinds these module attributes; a pipeline that went
    # around them would lose its per-layer spans and the 258/16 counts
    def recording(original, results):
        def wrapper(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]
        return wrapper

    calls = {"concatenate_post_stimulus": [], "estimate_sensors": []}
    for name, results in calls.items():
        monkeypatch.setattr(denoise, name, recording(getattr(denoise, name), results))
    trials = generate_synthetic(SyntheticConfig(seed=42))
    config = denoise.DenoiseConfig(family=Family.ADJUSTED_HAAR, param=2, scales=8)
    assert denoise.denoise_dataset(trials, config).shape == (274, 241)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "concatenate_post_stimulus": 10, "estimate_sensors": 10
    }
    assert {(e.wavelet_count, e.mean_filled_count) for e in calls["estimate_sensors"]} == {
        (258, 16)
    }
