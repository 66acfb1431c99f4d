"""Acceptance gate: one test per release criterion, each printing a pass/fail line.

The lines are written straight to the terminal (bypassing capture) so the
run log always shows every criterion verdict, timing for the performance
check, and the per-wavelet SNIR values for the determinism check.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from megden.dataio import SyntheticConfig, generate_synthetic, load_dataset, write_dataset
from megden.denoise import (
    DenoiseConfig,
    TrialSet,
    average_trials,
    concatenate_post_stimulus,
    denoise_multi,
    estimate_sensors,
)
from megden.filters import Family, adjusted_haar_freq_magnitude, make_filter
from megden.metrics import snir
from megden.transform import dwt_analyze, dwt_synthesize, max_decomposition_depth

THREE_FAMILIES = (
    (Family.DAUBECHIES4, 0),
    (Family.COIFLET1, 0),
    (Family.ADJUSTED_HAAR, 2),
)


@pytest.fixture()
def report(capsys):
    """Print one '[criterion N] label: PASS/FAIL' line through the capture."""

    def _report(num, label, ok, detail=""):
        suffix = f" ({detail})" if detail else ""
        line = f"[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}{suffix}"
        with capsys.disabled():
            print(f"\n{line}", flush=True)
        return ok

    return _report


def test_criterion_1_filter_validity(report):
    start = time.perf_counter()
    ok = True
    pairs = [make_filter(Family.DAUBECHIES4), make_filter(Family.COIFLET1)] + [
        make_filter(Family.ADJUSTED_HAAR, n) for n in range(5)
    ]
    for pair in pairs:
        h, g = pair.lowpass, pair.highpass
        ok &= abs(h.sum() - math.sqrt(2.0)) <= 1e-12
        ok &= abs(np.dot(h, h) - 1.0) <= 1e-12
        ok &= abs(g.sum()) <= 1e-12
        for m in range(1, h.size // 2):
            ok &= abs(np.dot(h[2 * m :], h[: h.size - 2 * m])) <= 1e-12
            ok &= abs(np.dot(g[2 * m :], g[: g.size - 2 * m])) <= 1e-12
    for pair in (make_filter(Family.DAUBECHIES4), make_filter(Family.COIFLET1)):
        k = np.arange(pair.highpass.size, dtype=float)
        for power in (0, 1):
            ok &= abs(np.dot(pair.highpass, k**power)) <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report(1, "filter validity", ok, f"{elapsed:.3f} s")


def test_criterion_2_perfect_reconstruction(report):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = 0
    for family, param in THREE_FAMILIES:
        pair = make_filter(family, param)
        for length in (16, 241, 1024, 66034):
            x = rng.normal(size=length)
            scale = np.max(np.abs(x))
            for levels in range(1, min(8, max_decomposition_depth(length)) + 1):
                back = dwt_synthesize(dwt_analyze(x, pair, levels), pair)
                worst = max(worst, np.max(np.abs(back - x)) / scale)
                cases += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    assert report(
        2,
        "perfect reconstruction",
        ok,
        f"{cases} cases, worst rel err {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_3_dimension_chain(report):
    dec = dwt_analyze(np.zeros(66034), make_filter(Family.ADJUSTED_HAAR, 2), levels=8)
    ts = generate_synthetic(SyntheticConfig(seed=42, trials=1))
    trial = ts.trials[0]
    vec = concatenate_post_stimulus(trial, 120, 241)
    est = estimate_sensors(trial, DenoiseConfig(family=Family.ADJUSTED_HAAR, param=2), 120, 241)
    ok = (
        dec.approx.size == 258
        and vec.size == 66034
        and est.wavelet_count == 258
        and est.mean_filled_count == 16
    )
    assert report(
        3,
        "dimension chain 66034 @ 8 scales",
        ok,
        f"{dec.approx.size} approx coefficients; "
        f"{est.wavelet_count} wavelet + {est.mean_filled_count} mean-filled sensors",
    )


def test_criterion_4_adjusted_haar_bound(report):
    grid = np.linspace(0.1, 100.0, 1000)
    violations = 0
    for n in range(5):
        envelope = 4.0 / ((2 * n + 1) * grid)
        for omega, cap in zip(grid, envelope):
            if adjusted_haar_freq_magnitude(n, omega) > cap:
                violations += 1
    ok = violations == 0
    assert report(4, "adjusted-Haar magnitude bound", ok, f"{violations} violations on 5000 points")


def test_criterion_5_constant_fixed_point(report):
    constant = -41.5
    trials = tuple(np.full((16, 40), constant) for _ in range(3))
    ts = TrialSet(trials=trials, pre_samples=8)
    worst = 0.0
    for family, param in THREE_FAMILIES:
        config = DenoiseConfig(family=family, param=param, scales=4)
        out = denoise_multi(ts, config)
        worst = max(worst, np.max(np.abs(out - constant)))
    ok = worst <= 1e-9
    assert report(5, "constant dataset fixed point", ok, f"worst abs err {worst:.2e}")


def test_criterion_6_snir_fixed_points(report):
    rng = np.random.default_rng(6)
    y = rng.normal(size=(5, 30))
    err_zero = abs(snir(y, np.zeros_like(y)).snir_db)
    err_double = abs(snir(y, 2.0 * y).snir_db)
    ones = np.ones((4, 10))
    err_ten = abs(snir(ones, ones + 1.0 / math.sqrt(10.0)).snir_db - 10.0)
    ok = err_zero <= 1e-12 and err_double <= 1e-12 and err_ten <= 1e-9
    assert report(
        6,
        "SNIR fixed points",
        ok,
        f"0 dB err {max(err_zero, err_double):.1e}, 10 dB err {err_ten:.1e}",
    )


def test_criterion_7_deterministic_chain(report, tmp_path, monkeypatch):
    def chain(cpus, data):
        # the dataset pool has one worker per CPU in the affinity mask
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        written = write_dataset(generate_synthetic(SyntheticConfig(seed=42)), data)
        ts = load_dataset(data)
        reference = average_trials(ts)[:, ts.pre_samples :]
        out = [p.read_bytes() for p in written]
        for family, param in THREE_FAMILIES:
            den = denoise_multi(ts, DenoiseConfig(family=family, param=param, scales=8))
            out.append((den.tobytes(), snir(reference, den).snir_db))
        return out

    runs = [chain(cpus, tmp_path / f"run{i}") for i, cpus in enumerate((1, 1, 4))]
    first = runs[0]
    ok = all(run == first for run in runs[1:])
    values = []
    for (family, _), (_, db) in zip(THREE_FAMILIES, first[-len(THREE_FAMILIES) :]):
        ok &= math.isfinite(db)
        values.append(f"{family.value} {db:.2f} dB")
    assert report(7, "seed-42 chain determinism", ok, "; ".join(values))


def test_criterion_8_multi_trial_performance(report):
    ts = generate_synthetic(SyntheticConfig(seed=42))
    config = DenoiseConfig(family=Family.ADJUSTED_HAAR, param=2, scales=8)
    start = time.perf_counter()
    out = denoise_multi(ts, config)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0 and out.shape == (274, 241)
    assert report(
        8,
        "multi-trial performance",
        ok,
        f"{elapsed:.2f} s for 10 trials x 274 x 241",
    )


def test_criterion_9_end_to_end_cli(report, tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "megden", *args], capture_output=True, text=True
        )

    data = tmp_path / "data"
    avg = tmp_path / "avg.csv"
    den = tmp_path / "den.csv"
    svg = tmp_path / "den.svg"
    steps = [
        run("gen", "--seed", "42", "--out", str(data)),
        run("average", "--data", str(data), "--out", str(avg)),
        run(
            "denoise", "--data", str(data), "--out", str(den),
            "--wavelet", "ahaar", "--n", "2", "--scales", "8",
        ),
        run("snir", "--mean", str(avg), "--calc", str(den)),
        run("plot", "--in", str(den), "--out", str(svg)),
    ]
    codes = [s.returncode for s in steps]
    polylines = svg.read_text().count("<polyline") if svg.exists() else -1
    ok = codes == [0] * 5 and polylines == 274
    assert report(
        9,
        "end-to-end CLI chain",
        ok,
        f"exit codes {codes}, {polylines} polylines, snir {steps[3].stdout.strip()}",
    )
