"""The package's public names, and the library API that ``bench/`` calls.

The bench files are checked without importing or changing them.
``bench/tests`` lies outside the tier-1 test paths, so these checks keep a
library deletion from breaking the benchmark unnoticed.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import megden
from megden import dataio, denoise, errors, filters, metrics, svgplot, transform
from megden.dataio import SyntheticConfig, generate_synthetic
from megden.filters import Family

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def test_package_exports_the_union_of_module_exports():
    modules = (dataio, denoise, errors, filters, metrics, svgplot, transform)
    union = sorted({name for module in modules for name in module.__all__})
    assert megden.__all__ == union
    for module in modules:
        for name in module.__all__:
            assert getattr(megden, name) is getattr(module, name), f"{module.__name__}.{name}"


def megden_reads(path: Path) -> list[tuple[str, str, int]]:
    """Every ``(module, name, line)`` that ``path`` reads from a megden module.

    A read is ``alias.name`` where ``alias`` is bound by ``import megden``
    or ``from megden import <module>``, or a name imported with
    ``from megden.<module> import name``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name == "megden" or a.name.startswith("megden."):
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "megden":
            for a in node.names:
                if node.module == "megden":
                    aliases[a.asname or a.name] = f"megden.{a.name}"
                else:
                    reads.append((node.module, a.name, node.lineno))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            reads.append((aliases[node.value.id], node.attr, node.lineno))
    return reads


@pytest.mark.parametrize("name", ["workloads.py", "run.py", "tracing.py"])
def test_every_megden_name_the_bench_reads_resolves(name):
    reads = megden_reads(BENCH / name)
    if name == "workloads.py":
        assert {module for module, _, _ in reads} >= {
            "megden.cli", "megden.dataio", "megden.denoise", "megden.metrics", "megden.svgplot"
        }
    for module, attr, line in reads:
        assert hasattr(importlib.import_module(module), attr), f"{name}:{line}: {module}.{attr}"


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
