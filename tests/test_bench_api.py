"""The package's public names, and the library API that ``bench/`` calls.

The bench files are checked without importing or changing them.
``bench/tests`` lies outside the tier-1 test paths, so these checks keep a
library deletion from breaking the benchmark unnoticed.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import megden
from megden import denoise
from megden.dataio import SyntheticConfig, generate_synthetic
from megden.filters import Family

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing.py"


def test_package_exports_the_union_of_module_exports():
    # the modules are found, not listed: one added or removed without an update to
    # megden/__init__.py fails here
    names = [info.name for info in pkgutil.iter_modules(megden.__path__)]
    modules = [importlib.import_module(f"megden.{name}") for name in names]
    modules = [module for module in modules if hasattr(module, "__all__")]
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


def test_every_public_name_has_a_reader():
    # a name is read where it appears other than on its own def/class line or
    # in an __all__ list: in the package, the bench, the README or the gate
    src = "\n".join(p.read_text(encoding="utf-8") for p in (ROOT / "src" / "megden").glob("*.py"))
    src = re.sub(r"__all__ = \[.*?\]", "", src, flags=re.S)
    src = re.sub(r"^\s*(?:def|class) \w+", "", src, flags=re.M)
    others = [ROOT / "README.md", ROOT / "tests" / "test_acceptance.py", *BENCH.glob("*.py")]
    texts = [src, *(p.read_text(encoding="utf-8") for p in others)]
    unread = [
        name for name in megden.__all__
        if not any(re.search(rf"\b{name}\b", text) for text in texts)
    ]
    assert unread == []


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

    names = ("concatenate_post_stimulus", "estimate_sensors", "dwt_analyze", "dwt_approx",
             "dwt_synthesize")
    calls = {name: [] for name in names}
    for name, results in calls.items():
        monkeypatch.setattr(denoise, name, recording(getattr(denoise, name), results))
    trials = generate_synthetic(SyntheticConfig(seed=42))
    config = denoise.DenoiseConfig(family=Family.ADJUSTED_HAAR, param=2, scales=8)
    assert denoise.denoise_dataset(trials, config).shape == (274, 241)
    # the approximation estimator reads no detail band, so it runs no full analysis
    assert {name: len(seen) for name, seen in calls.items()} == {
        "concatenate_post_stimulus": 10, "estimate_sensors": 10, "dwt_analyze": 0,
        "dwt_approx": 10, "dwt_synthesize": 0,
    }
    assert {(e.wavelet_count, e.mean_filled_count) for e in calls["estimate_sensors"]} == {
        (258, 16)
    }
    for seen in calls.values():
        seen.clear()
    config = denoise.DenoiseConfig(family=Family.ADJUSTED_HAAR, param=2, scales=8, threshold=True)
    assert denoise.denoise_dataset(trials, config).shape == (274, 241)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "concatenate_post_stimulus": 10, "estimate_sensors": 0, "dwt_analyze": 10,
        "dwt_approx": 0, "dwt_synthesize": 10,
    }


@pytest.mark.parametrize(
    "family,param",
    [(Family.DAUBECHIES4, 0), (Family.COIFLET1, 0), (Family.ADJUSTED_HAAR, 2),
     (Family.ADJUSTED_HAAR, 8)],
    ids=["db4", "coif1", "ahaar2", "ahaar8"],
)
def test_threshold_denoise_transforms_through_the_traced_names(monkeypatch, family, param):
    # the per-family transform.dwt_analyze/dwt_synthesize spans of a traced
    # bench run come only from threshold_denoise's calls through these names
    calls = {"dwt_analyze": [], "dwt_synthesize": []}

    def recording(name):
        original = getattr(denoise, name)

        def wrapper(*args, **kwargs):
            calls[name].append((args, original(*args, **kwargs)))
            return calls[name][-1][1]
        return wrapper

    for name in calls:
        monkeypatch.setattr(denoise, name, recording(name))
    trials = generate_synthetic(SyntheticConfig(seed=42, trials=3))
    config = denoise.DenoiseConfig(family=family, param=param, scales=8, threshold=True)
    for trial in trials.trials:
        for seen in calls.values():
            seen.clear()
        denoise.threshold_denoise(trial, config, trials.pre_samples, trials.post_samples)
        assert [len(seen) for seen in calls.values()] == [1, 1]
        # synthesis gets the analysed approximation band itself, not a copy
        (_, analysed), ((shrunk, _), _) = calls["dwt_analyze"][0], calls["dwt_synthesize"][0]
        assert shrunk.approx is analysed.approx
