"""Dataset files (JSON manifest + per-trial CSVs) and the synthetic trial generator.

The generator is the test substrate standing in for real recordings: a
damped sinusoid starting at the stimulus, scaled per sensor by a random
gain, plus white Gaussian noise. Randomness comes from a SplitMix64
stream with a pinned draw order (sensor gains first, then noise in
trial-major/sensor-major/time-major order), so a seed fully determines
the dataset bytes.

The trial CSVs are written and parsed by one forked worker per CPU in
the process's affinity mask (narrow it with ``taskset`` or
``os.sched_setaffinity``); the output and the first error do not depend
on the count.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .denoise import TrialSet
from .errors import DatasetError

__all__ = [
    "Manifest",
    "SplitMix64",
    "SyntheticConfig",
    "generate_synthetic",
    "load_dataset",
    "load_manifest",
    "load_matrix",
    "load_trials",
    "save_manifest",
    "save_matrix",
    "write_dataset",
]

MANIFEST_NAME = "manifest.json"


def _check_counts(config) -> None:
    """``pre_samples`` may be 0; the other three counts must be at least 1."""
    for name, least in (("sensors", 1), ("pre_samples", 0), ("post_samples", 1), ("trials", 1)):
        if getattr(config, name) < least:
            raise ValueError(f"{name} must be >= {least}, got {getattr(config, name)}")


@dataclass(frozen=True)
class Manifest:
    """Dataset geometry and units; one JSON document per dataset directory."""

    sensors: int
    pre_samples: int
    post_samples: int
    trials: int
    unit: str = "fT"
    sample_period_ms: float = 1.0

    def __post_init__(self) -> None:
        _check_counts(self)
        if self.unit != "fT":
            raise ValueError(f"unit must be 'fT', got {self.unit!r}")
        if not (math.isfinite(self.sample_period_ms) and self.sample_period_ms > 0):
            raise ValueError(
                f"sample_period_ms must be finite and positive, got {self.sample_period_ms}"
            )


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic generator; defaults mirror the 274-sensor setup."""

    seed: int = 0
    sensors: int = 274
    pre_samples: int = 120
    post_samples: int = 241
    trials: int = 10
    noise_sigma: float = 40.0
    response_amp: float = 120.0
    response_freq_hz: float = 11.0
    response_decay_ms: float = 60.0

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        _check_counts(self)
        for name in ("noise_sigma", "response_amp", "response_freq_hz", "response_decay_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.response_decay_ms <= 0:
            raise ValueError(f"response_decay_ms must be positive, got {self.response_decay_ms}")


class SplitMix64:
    """SplitMix64 stream with vectorized draws.

    Draw i (1-based) mixes the state seed + i*0x9E3779B97F4A7C15 mod 2^64,
    identical to advancing the scalar generator i times. Uniforms map the
    top 53 bits to [0, 1); Gaussians pair consecutive uniforms through
    Box-Muller (cosine first, then sine).
    """

    _GOLDEN = np.uint64(0x9E3779B97F4A7C15)
    _MIX1 = np.uint64(0xBF58476D1CE4E5B9)
    _MIX2 = np.uint64(0x94D049BB133111EB)

    def __init__(self, seed: int) -> None:
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._drawn = 0

    def next_block(self, count: int) -> np.ndarray:
        """Next ``count`` raw 64-bit outputs."""
        idx = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        z = self._seed + idx * self._GOLDEN
        z = (z ^ (z >> np.uint64(30))) * self._MIX1
        z = (z ^ (z >> np.uint64(27))) * self._MIX2
        return z ^ (z >> np.uint64(31))

    def uniform(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms in [0, 1)."""
        return (self.next_block(count) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def gaussian(self, count: int) -> np.ndarray:
        """Next ``count`` standard normals; one uniform pair feeds two outputs."""
        pairs = (count + 1) // 2
        u = self.uniform(2 * pairs)
        radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))  # 1-u keeps the log argument in (0, 1]
        theta = (2.0 * math.pi) * u[1::2]
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:count]


def generate_synthetic(config: SyntheticConfig) -> TrialSet:
    """Deterministic synthetic trials for the given config (1 ms sample period)."""
    rng = SplitMix64(config.seed)
    gains = 2.0 * rng.uniform(config.sensors) - 1.0

    total = config.pre_samples + config.post_samples
    t_ms = np.arange(config.post_samples, dtype=np.float64)  # time since stimulus
    # Finite but extreme options can overflow; the result is checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        response = (
            config.response_amp
            * np.exp(-t_ms / config.response_decay_ms)
            * np.sin(2.0 * math.pi * config.response_freq_hz * t_ms / 1000.0)
        )
        base = np.zeros((config.sensors, total))
        base[:, config.pre_samples :] = gains[:, None] * response[None, :]

        if config.noise_sigma > 0.0:
            noise = rng.gaussian(config.trials * config.sensors * total)
            noise = config.noise_sigma * noise.reshape(config.trials, config.sensors, total)
            mats = [base + noise[i] for i in range(config.trials)]
        else:  # one block: a count too large to hold fails before the first copy
            mats = list(np.broadcast_to(base, (config.trials, *base.shape)).copy())
    if not all(np.isfinite(m).all() for m in mats):
        raise ValueError(
            f"synthetic samples are not finite for noise_sigma={config.noise_sigma!r}, "
            f"response_amp={config.response_amp!r}, "
            f"response_freq_hz={config.response_freq_hz!r}, "
            f"response_decay_ms={config.response_decay_ms!r}"
        )
    return TrialSet(
        tuple(mats), config.sensors, config.pre_samples, config.post_samples
    )


def save_matrix(matrix, path) -> None:
    """Write a 2-D matrix as header-less CSV, 17 significant digits per value."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    row_format = ",".join(["%.17g"] * m.shape[1]) + "\n"
    with open(path, "w", encoding="ascii") as f:
        for row in m:  # one row in flight keeps memory flat for any matrix size
            f.write(row_format % tuple(row.tolist()))


def _read_ascii(path: Path) -> str:
    """The file's text with universal newlines; a non-ASCII byte names its line."""
    raw = path.read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        raise DatasetError(f"{path}:{line}: non-ASCII byte 0x{raw[exc.start]:02x}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


# Separators that loadtxt strips around a value and float() rejects.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _parse_lines(path: Path, lines: list[str]) -> np.ndarray:
    """Line-by-line parse with ``float`` semantics; the source of every file:line message."""
    rows: list[list[float]] = []
    width = -1
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            raise DatasetError(f"{path}:{lineno}: blank line in data file")
        try:
            row = [float(tok) for tok in line.split(",")]
        except ValueError:
            raise DatasetError(f"{path}:{lineno}: malformed row") from None
        if width < 0:
            width = len(row)
        elif len(row) != width:
            raise DatasetError(
                f"{path}:{lineno}: expected {width} columns, got {len(row)}"
            )
        rows.append(row)
    if not rows:
        raise DatasetError(f"{path}:1: empty data file")
    return np.array(rows, dtype=np.float64)


def load_matrix(path) -> np.ndarray:
    """Parse a CSV matrix of finite values.

    Errors name the file and 1-based line number, plus the 1-based
    column for a non-finite value.
    """
    path = Path(path)
    text = _read_ascii(path)
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    m = None
    # loadtxt skips empty lines (and warns when no other line is left), so
    # those files, and any loadtxt rejects, go to the line parser.
    if lines and all(lines) and not any(c in text for c in _LOADTXT_ONLY_SPACE):
        try:
            m = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
    if m is None or m.shape[0] != len(lines):  # each line must be one row
        m = _parse_lines(path, lines)
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        row, col = bad[0]
        raise DatasetError(f"{path}:{row + 1}:{col + 1}: non-finite value")
    return m


def save_manifest(manifest: Manifest, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        json.dump(asdict(manifest), f, indent=2)
        f.write("\n")


def _manifest_value(raw: dict, key: str, kind, noun: str):
    """``raw[key]`` if it is a JSON value of ``kind``; a JSON ``true`` is not a number."""
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"key {key!r} must be {noun}, got {json.dumps(value)}")
    return value


def _manifest_float(raw: dict, key: str) -> float:
    """``raw[key]`` as a float; an integer beyond the float range is not finite."""
    value = _manifest_value(raw, key, (int, float), "a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} must be finite and positive, got an integer past 1e308") from None


def load_manifest(path) -> Manifest:
    path = Path(path)
    try:
        raw = json.loads(_read_ascii(path))
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, or deep nesting
        raise DatasetError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DatasetError(f"{path}: manifest must be a JSON object")
    try:
        return Manifest(
            sensors=_manifest_value(raw, "sensors", int, "an integer"),
            pre_samples=_manifest_value(raw, "pre_samples", int, "an integer"),
            post_samples=_manifest_value(raw, "post_samples", int, "an integer"),
            trials=_manifest_value(raw, "trials", int, "an integer"),
            unit=_manifest_value(raw, "unit", str, "a string"),
            sample_period_ms=_manifest_float(raw, "sample_period_ms"),
        )
    except KeyError as exc:
        raise DatasetError(f"{path}: missing manifest key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{path}: invalid manifest: {exc}") from None


def _run_chunk(fn, chunk: list) -> tuple[bool, object]:
    """``(True, results)``, or ``(False, exception)`` at the chunk's first failure."""
    try:
        return True, [fn(item) for item in chunk]
    except Exception as exc:
        return False, exc


def _fork_chunk(fn, chunk: list) -> tuple[int, int]:
    """Fork a child that pickles ``_run_chunk(fn, chunk)`` into a pipe; (pid, read end)."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            payload = pickle.dumps(_run_chunk(fn, chunk), protocol=pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            # Never return into the parent's stack or run its exit handlers; a child
            # that sends nothing (say, an unpicklable result) is reported by _collect.
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int, first) -> tuple[bool, object]:
    """Read one child's outcome to EOF, then reap it."""
    with open(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    try:
        return pickle.loads(payload)
    except (EOFError, pickle.UnpicklingError):  # the child died before or while sending
        code = os.waitstatus_to_exitcode(status)
        return False, OSError(f"{first}: worker exited with status {code} without a result")


def _worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fanout(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, split into at most ``workers`` contiguous chunks.

    The parent runs chunk 0 and a forked child runs each other chunk.
    Every child is read and reaped before anything is raised, and the
    first error in item order wins, so results and errors do not depend
    on ``workers``. Fork, not spawn: a child starts with the parent's
    trials and closures in memory, where a fresh interpreter would cost
    about as much as one chunk's work.
    """
    items = list(items)
    count = min(workers, len(items))
    if count < 2 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    cuts = [len(items) * k // count for k in range(count + 1)]
    chunks = [items[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    children = []
    try:
        for chunk in chunks[1:]:
            children.append((*_fork_chunk(fn, chunk), chunk[0]))
        outcomes = [_run_chunk(fn, chunks[0])]
    finally:
        collected = [_collect(pid, fd, first) for pid, fd, first in children]
    results = []
    for ok, payload in outcomes + collected:
        if not ok:
            raise payload
        results += payload
    return results


def _load_trial_files(manifest: Manifest, manifest_path, data_paths) -> TrialSet:
    paths = [Path(p) for p in data_paths]
    if len(paths) != manifest.trials:
        raise DatasetError(
            f"{manifest_path}: manifest declares {manifest.trials} trials, "
            f"got {len(paths)} data files"
        )
    total = manifest.pre_samples + manifest.post_samples

    def load_checked(p: Path) -> np.ndarray:
        m = load_matrix(p)
        if m.shape[0] != manifest.sensors:
            raise DatasetError(f"{p}: expected {manifest.sensors} rows, found {m.shape[0]}")
        if m.shape[1] != total:
            raise DatasetError(f"{p}: expected {total} columns, found {m.shape[1]}")
        return m

    mats = _fanout(load_checked, paths, _worker_count())
    return TrialSet(
        tuple(mats), manifest.sensors, manifest.pre_samples, manifest.post_samples
    )


def load_trials(manifest_path, data_paths) -> TrialSet:
    """Load a manifest plus its trial files, validating counts against the manifest."""
    return _load_trial_files(load_manifest(manifest_path), manifest_path, data_paths)


def trial_filename(index: int) -> str:
    return f"trial_{index}.csv"


def write_dataset(trials: TrialSet, directory) -> list[Path]:
    """Write manifest.json plus trial_<i>.csv files; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(
        sensors=trials.sensors,
        pre_samples=trials.pre_samples,
        post_samples=trials.post_samples,
        trials=len(trials),
    )
    manifest_path = directory / MANIFEST_NAME
    save_manifest(manifest, manifest_path)
    paths = [directory / trial_filename(i) for i in range(len(trials))]
    matrices = dict(zip(paths, trials.trials))
    _fanout(lambda p: save_matrix(matrices[p], p), paths, _worker_count())
    return [manifest_path, *paths]


def load_dataset(directory) -> TrialSet:
    """Load manifest.json and its trial_<i>.csv files from a dataset directory."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    manifest = load_manifest(manifest_path)
    paths = [directory / trial_filename(i) for i in range(manifest.trials)]
    return _load_trial_files(manifest, manifest_path, paths)
