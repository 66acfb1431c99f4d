"""The two benchmark workloads, the output gate they share, and their statistics.

``cli_chain`` runs the README session as cold ``python -m megden``
subprocesses; ``denoise_sweep`` runs a fixed list of denoiser configs
through the library on an in-memory dataset. Both are closed loops with
one client: the next operation starts only after the previous one ends.
Every operation's output is checked; a mismatch, a non-zero exit or an
exception counts the operation as failed and the run goes on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from megden import cli, dataio, denoise, metrics, svgplot
from megden.filters import Family

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())
GOLDEN_SEED = GOLDEN["seed"]

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120.0
STDERR_KEEP = 2000  # characters of a failed child's stderr kept in the report

GEOMETRY = dataio.SyntheticConfig()  # 10 trials x 274 sensors x (120 + 241) samples
CHAIN_CONFIG = denoise.DenoiseConfig(family=Family.ADJUSTED_HAAR, param=2, scales=8)
CHAIN_STEPS = ("gen", "average", "denoise", "denoise_threshold", "snir", "plot")
SWEEP_FAMILIES = (
    ("db4", Family.DAUBECHIES4, 0),
    ("coif1", Family.COIFLET1, 0),
    ("ahaar2", Family.ADJUSTED_HAAR, 2),
    ("ahaar8", Family.ADJUSTED_HAAR, 8),
)


# ---------------------------------------------------------------- statistics


def low(values) -> float:
    """10th percentile: the gated statistic for a time.

    On a shared virtual machine the CPU speed can switch between a fast
    and a slow phase every few seconds (on a 2-vCPU VM, a fixed Python
    loop alternated between its fastest time and about 1.45 times that).
    Per-op times are then bimodal and a run's median jumps between the
    phases from run to run; the 10th percentile stays in the fast phase.
    """
    s = sorted(values)
    return statistics.quantiles(s, n=10, method="inclusive")[0] if len(s) > 1 else s[0]


def high(values) -> float:
    """90th percentile: the gated statistic for a throughput, the mirror of ``low``."""
    s = sorted(values)
    return statistics.quantiles(s, n=10, method="inclusive")[-1] if len(s) > 1 else s[0]


def summary(values) -> dict:
    """Median, sample count, 10th percentile and the highest percentile with ten samples beyond it."""
    s = sorted(values)
    n = len(s)
    out = {"median": statistics.median(s), "n": n, "p10": low(s)}
    if n > 10:
        p = 100 * (n - 10) // n
        rank = max(1, math.ceil(p * n / 100))  # nearest rank; n - rank >= 10
        out[f"p{p}"] = s[rank - 1]
    return out


def digest(array) -> str:
    a = np.ascontiguousarray(array, dtype=np.float64)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@dataclass
class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, op: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append({"op": op, "problem": problem[-STDERR_KEEP:]})

    def as_dict(self) -> dict:
        ratio = self.failed / self.attempted if self.attempted else 1.0
        return {"attempted": self.attempted, "failed": self.failed,
                "fail_ratio": ratio, "failures": self.failures}


def guarded(check, *args) -> str | None:
    """Run one output check; any exception it raises is that check's failure."""
    try:
        return check(*args)
    except Exception as exc:  # a crashing check must not end the run
        return f"check raised {type(exc).__name__}: {exc}"


def timed_setup(setup):
    """Run ``setup`` several times; return its last result and every duration."""
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = setup()
        durations.append(time.perf_counter() - t0)
    return result, durations


# ------------------------------------------------------------- the CLI chain


def threshold_mean(trials, config) -> np.ndarray:
    """Fixed-order mean of per-trial threshold_denoise outputs, as cmd_denoise computes it."""
    acc = None
    for t in trials.trials:
        out = denoise.threshold_denoise(t, config, trials.pre_samples, trials.post_samples)
        acc = out if acc is None else acc + out
    return acc / len(trials)


@dataclass
class ChainReference:
    """In-process library results that the chain's output files must match bit for bit."""

    seed: int
    trials: denoise.TrialSet
    avg: np.ndarray
    den: np.ndarray
    thr: np.ndarray
    snir_line: str
    svg: str


def chain_reference(seed: int) -> ChainReference:
    trials = dataio.generate_synthetic(dataio.SyntheticConfig(seed=seed))
    avg = denoise.average_trials(trials)[:, trials.pre_samples:]
    den = denoise.denoise_dataset(trials, CHAIN_CONFIG)
    thr = threshold_mean(trials, CHAIN_CONFIG)
    snir_line = f"{metrics.snir(avg, den).snir_db:.2f} dB"
    svg = svgplot.render_traces(den, svgplot.PlotSpec(title="den"))
    return ChainReference(seed, trials, avg, den, thr, snir_line, svg)


def chain_argv(seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """The README session, plus ``denoise --threshold``, as (step, argv) pairs."""
    data = str(workdir / "data")
    out = {name: str(workdir / name) for name in ("avg.csv", "den.csv", "thr.csv", "den.svg")}
    wavelet = ["--wavelet", "ahaar", "--n", "2", "--scales", "8"]
    return [
        ("gen", ["gen", "--seed", str(seed), "--out", data]),
        ("average", ["average", "--data", data, "--out", out["avg.csv"]]),
        ("denoise", ["denoise", "--data", data, *wavelet, "--out", out["den.csv"]]),
        ("denoise_threshold",
         ["denoise", "--data", data, *wavelet, "--threshold", "--out", out["thr.csv"]]),
        ("snir", ["snir", "--mean", out["avg.csv"], "--calc", out["den.csv"]]),
        ("plot", ["plot", "--in", out["den.csv"], "--out", out["den.svg"]]),
    ]


def clear_outputs(workdir: Path) -> None:
    """Remove the previous pass's files, so a step that writes nothing is caught."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)


def _golden_file(ref: ChainReference, path: Path, key: str) -> str | None:
    if ref.seed != GOLDEN_SEED:
        return None
    got = file_digest(path)
    return None if got == GOLDEN["cli_chain"][key] else f"{key}: sha256 {got} != golden"


def _loaded_equals(path: Path, expected: np.ndarray) -> str | None:
    # np.loadtxt is independent of megden's own CSV parser.
    got = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if got.shape != expected.shape:
        return f"{path.name}: shape {got.shape} != {expected.shape}"
    if got.tobytes() != expected.tobytes():
        return f"{path.name}: values differ from the in-process library result"
    return None


def check_step(step: str, workdir: Path, ref: ChainReference, stdout: str,
               pass_index: int) -> str | None:
    """Check one chain step's output files and stdout; None when they are right."""
    if step == "gen":
        data = workdir / "data"
        manifest = json.loads((data / "manifest.json").read_text())
        want = {"sensors": GEOMETRY.sensors, "pre_samples": GEOMETRY.pre_samples,
                "post_samples": GEOMETRY.post_samples, "trials": GEOMETRY.trials,
                "unit": "fT", "sample_period_ms": 1.0}
        if manifest != want:
            return f"manifest.json is {manifest}"
        for i in range(GEOMETRY.trials):
            problem = _golden_file(ref, data / f"trial_{i}.csv", f"trial_{i}.csv")
            if problem:
                return problem
        i = pass_index % GEOMETRY.trials  # one trial file per pass, rotating
        return _loaded_equals(data / f"trial_{i}.csv", ref.trials.trials[i])
    if step == "snir":
        return None if stdout == ref.snir_line + "\n" else f"stdout {stdout!r} != {ref.snir_line!r}"
    if step == "plot":
        path = workdir / "den.svg"
        text = path.read_text(encoding="ascii")
        if text.count("<polyline") != GEOMETRY.sensors or "nan" in text:
            return f"den.svg has {text.count('<polyline')} polylines or a nan"
        if text != ref.svg:
            return "den.svg differs from render_traces of the library result"
        return _golden_file(ref, path, "den.svg")
    name, expected = {"average": ("avg.csv", ref.avg), "denoise": ("den.csv", ref.den),
                      "denoise_threshold": ("thr.csv", ref.thr)}[step]
    return _golden_file(ref, workdir / name, name) or _loaded_equals(workdir / name, expected)


def child_env() -> dict:
    """The caller's environment with ``src`` importable and MEGDEN_THREADS unset."""
    env = dict(os.environ)
    env.pop("MEGDEN_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    returncode: int
    seconds: float
    maxrss_kb: int
    stdout: str
    stderr: str


def spawn(argv: list[str], workdir: Path, env: dict) -> ChildResult:
    """Run one child to completion, timed from spawn to exit, with its rusage."""
    out_path, err_path = workdir / ".child.stdout", workdir / ".child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, seconds, usage.ru_maxrss,
                       out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def child_problem(child: ChildResult) -> str | None:
    if child.returncode != 0:
        return f"exit {child.returncode}: {child.stderr}"
    if "Traceback" in child.stderr:
        return f"traceback: {child.stderr}"
    return None


def run_cli_chain(seed: int, seconds: float, workdir: Path) -> dict:
    """Untraced cli_chain: cold ``python -m megden`` per command, passes until time is up."""
    def setup():
        clear_outputs(workdir)
        return chain_reference(seed)

    ref, setup_durations = timed_setup(setup)
    env = child_env()
    steps: dict[str, list[float]] = {name: [] for name in CHAIN_STEPS}
    passes, rss_mb, tally = [], [], Tally()
    started = time.perf_counter()
    while not passes or time.perf_counter() - started + passes[-1] <= seconds:
        clear_outputs(workdir)
        children = []
        for step, args in chain_argv(seed, workdir):
            children.append((step, spawn([sys.executable, "-m", "megden", *args], workdir, env)))
        passes.append(sum(child.seconds for _, child in children))
        rss_mb.append(max(child.maxrss_kb for _, child in children) * 1024 / 1e6)
        for step, child in children:
            steps[step].append(child.seconds)
            problem = child_problem(child) or guarded(
                check_step, step, workdir, ref, child.stdout, len(passes) - 1)
            tally.record(f"pass {len(passes) - 1} {step}", problem)

    trials = GEOMETRY.trials
    report = {f"{step}_s": summary(values) for step, values in steps.items()}
    report["chain_s"] = summary(passes)
    return {
        "values": {
            "setup_s": low(setup_durations),
            "pass_s": low(passes),
            "approx_trials_per_s": high(trials / s for s in steps["denoise"]),
            "threshold_trials_per_s": high(trials / s for s in steps["denoise_threshold"]),
            "peak_rss_mb": statistics.median(rss_mb),
        },
        "report": report | {"setup_s": summary(setup_durations),
                            "peak_rss_mb": summary(rss_mb)},
        "tally": tally,
    }


def run_chain_in_process(seed: int, workdir: Path, ref: ChainReference, tally: Tally,
                         pass_index: int, op_hook=contextlib.nullcontext) -> float:
    """One chain pass through ``cli.main(argv)`` in this process; returns its wall time.

    ``op_hook(step)`` is entered around each command, which lets the
    traced run open an operation span there.
    """
    clear_outputs(workdir)
    results = []
    t0 = time.perf_counter()
    for step, args in chain_argv(seed, workdir):
        out, err = io.StringIO(), io.StringIO()
        with op_hook(step), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(args)
                problem = None if code == 0 else f"exit {code}: {err.getvalue()}"
            except (Exception, SystemExit) as exc:  # one failed command must not end the run
                problem = f"{type(exc).__name__}: {exc}"
        results.append((step, problem, out.getvalue()))
    elapsed = time.perf_counter() - t0
    for step, problem, stdout in results:
        problem = problem or guarded(check_step, step, workdir, ref, stdout, pass_index)
        tally.record(f"in-process pass {pass_index} {step}", problem)
    return elapsed


# --------------------------------------------------------- the denoise sweep


def sweep_config(family: Family, param: int, mode: denoise.Mode) -> denoise.DenoiseConfig:
    return denoise.DenoiseConfig(family=family, param=param, scales=8, mode=mode)


def sweep_ops(trials, pass_index: int) -> list[tuple[str, str, int, object]]:
    """The fixed op list of one pass as (key, kind, trials processed, thunk).

    Per family: all-trial mean, one designated trial (rotating with the
    pass), and the threshold estimator's fixed-order mean. The pass ends
    by scoring every family's all-trial mean against the trial average.
    """
    ops = []
    single = pass_index % len(trials)
    outputs = {}
    for label, family, param in SWEEP_FAMILIES:
        multi = sweep_config(family, param, denoise.Mode.MULTI_TRIAL)
        one = sweep_config(family, param, denoise.Mode.SINGLE_TRIAL)

        def run_multi(label=label, multi=multi):
            outputs[label] = denoise.denoise_dataset(trials, multi)
            return outputs[label]

        ops.append((f"{label}.multi", "approx", len(trials), run_multi))
        ops.append((f"{label}.single{single}", "approx", 1,
                    lambda one=one: denoise.denoise_dataset(trials, one, trial_index=single)))
        ops.append((f"{label}.threshold", "threshold", len(trials),
                    lambda multi=multi: threshold_mean(trials, multi)))

    def score():
        ref = denoise.average_trials(trials)[:, trials.pre_samples:]
        return [metrics.snir(ref, outputs[label]).snir_db.hex() for label, _, _ in SWEEP_FAMILIES]

    ops.append(("score", "score", 0, score))
    return ops


def sweep_expected(trials) -> dict:
    """Every op's expected output digest (or SNIR hex values), each computed once."""
    expected = {}
    for p in range(len(trials)):  # later passes differ only in the single-trial index
        for key, _, _, thunk in sweep_ops(trials, p):
            if key not in expected:
                result = thunk()
                expected[key] = result if key == "score" else digest(result)
    return expected


def check_sweep_output(key: str, result, expected: dict) -> str | None:
    if key == "score":
        return None if result == expected[key] else f"snir {result} != {expected[key]}"
    want = (GEOMETRY.sensors, GEOMETRY.post_samples)
    if result.shape != want or not np.isfinite(result).all():
        return f"shape {result.shape} (want {want}) or non-finite values"
    got = digest(result)
    return None if got == expected[key] else f"digest {got} != {expected[key]}"


@dataclass
class SweepState:
    trials: denoise.TrialSet
    expected: dict


def sweep_setup(seed: int) -> SweepState:
    """Generate the dataset in memory and fix each op's expected output.

    For the golden seed the expected values are the committed goldens;
    the computation still runs for every seed, so set-up does the same
    work whatever the seed.
    """
    trials = dataio.generate_synthetic(dataio.SyntheticConfig(seed=seed))
    computed = sweep_expected(trials)
    return SweepState(trials, GOLDEN["denoise_sweep"] if seed == GOLDEN_SEED else computed)


def run_sweep_pass(state: SweepState, pass_index: int, tally: Tally,
                   op_hook=contextlib.nullcontext) -> dict[str, float]:
    """One sweep pass; returns wall seconds spent per op kind and in the whole pass."""
    spent = {"approx": 0.0, "threshold": 0.0, "score": 0.0}
    checks = []
    t_pass = time.perf_counter()
    for key, kind, _, thunk in sweep_ops(state.trials, pass_index):
        with op_hook(key):
            t0 = time.perf_counter()
            try:
                result, problem = thunk(), None
            except Exception as exc:  # one failed op must not end the run
                result, problem = None, f"{type(exc).__name__}: {exc}"
            spent[kind] += time.perf_counter() - t0
        checks.append((key, result, problem))
    spent["pass"] = time.perf_counter() - t_pass
    for key, result, problem in checks:
        problem = problem or guarded(check_sweep_output, key, result, state.expected)
        tally.record(f"pass {pass_index} {key}", problem)
    return spent


def run_denoise_sweep(seed: int, seconds: float) -> dict:
    """Untraced denoise_sweep: in-memory passes through the library until time is up."""
    state, setup_durations = timed_setup(lambda: sweep_setup(seed))
    per_pass = sweep_ops(state.trials, 0)
    approx_trials = sum(n for _, kind, n, _ in per_pass if kind == "approx")
    threshold_trials = sum(n for _, kind, n, _ in per_pass if kind == "threshold")
    spent, tally = [], Tally()
    started = time.perf_counter()
    while not spent or time.perf_counter() - started + spent[-1]["pass"] <= seconds:
        spent.append(run_sweep_pass(state, len(spent), tally))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    pass_s = [s["pass"] for s in spent]
    return {
        "values": {
            "setup_s": low(setup_durations),
            "pass_s": low(pass_s),
            "approx_trials_per_s": high(approx_trials / s["approx"] for s in spent),
            "threshold_trials_per_s": high(threshold_trials / s["threshold"] for s in spent),
            "peak_rss_mb": rss_mb,
        },
        "report": {
            "setup_s": summary(setup_durations),
            "sweep_pass_s": summary(pass_s),
            "approx_s": summary(s["approx"] for s in spent),
            "threshold_s": summary(s["threshold"] for s in spent),
            "score_s": summary(s["score"] for s in spent),
            "peak_rss_mb": {"value": rss_mb},
            "trials_per_pass": {"approx": approx_trials, "threshold": threshold_trials},
        },
        "tally": tally,
    }
