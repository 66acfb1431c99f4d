"""Dataset files (JSON manifest + per-trial CSVs) and the synthetic trial generator.

The generator is the test substrate standing in for real recordings: a
damped sinusoid starting at the stimulus, scaled per sensor by a random
gain, plus white Gaussian noise. Randomness comes from a SplitMix64
stream with a pinned draw order (sensor gains first, then noise in
trial-major/sensor-major/time-major order), so a seed fully determines
the dataset bytes. The noise is drawn 65,536 samples at a time and added
in place to the one copy of the dataset, so the generator holds that
copy plus a fixed scratch buffer; the chunks are even-sized and draws
are counter-based, so chunking changes no draw.

The trial CSVs are written and parsed by one forked worker per CPU in
the process's affinity mask (narrow it with ``taskset`` or
``os.sched_setaffinity``); the output and the first error do not depend
on the count. Fork pays on two CPUs (the README gives the timings),
though the parent already runs OpenBLAS threads: a child only parses,
formats, writes and pickles, and never calls BLAS. Python 3.12+ warns
``DeprecationWarning`` on such a fork; megden does not filter it.
"""

from __future__ import annotations

import json
import math
import os
import pickle
from dataclasses import asdict, dataclass, fields
from itertools import takewhile
from pathlib import Path

import numpy as np

from .denoise import TrialSet
from .filters import _is_integer

__all__ = [
    "Manifest",
    "SplitMix64",
    "SyntheticConfig",
    "generate_synthetic",
    "load_dataset",
    "load_manifest",
    "load_matrix",
    "save_matrix",
    "write_dataset",
]

MANIFEST_NAME = "manifest.json"
_FIXED = {"unit": "fT", "sample_period_ms": 1.0}  # manifest keys with one legal value; see Manifest
_REFUSED = "_\x1c\x1d\x1e\x1f"  # digit grouping, and separators that loadtxt strips as space
# Noise samples drawn per step; even, so no Box-Muller pair straddles two draws.
_NOISE_CHUNK = 65_536


def _check_counts(config) -> None:
    """Four integers: ``pre_samples`` may be 0; the other three counts must be at least 1."""
    for name, least in (("sensors", 1), ("pre_samples", 0), ("post_samples", 1), ("trials", 1)):
        value = getattr(config, name)
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


def _is_real(value) -> bool:
    """True for a Python or numpy integer or float; a bool is not one, as for the counts."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Manifest:
    """Dataset geometry, written as manifest.json with the format constants ``_FIXED``.

    Samples are fT, 1 ms apart: the generator writes them so and ``plot``
    labels columns in ms, so ``unit`` and ``sample_period_ms`` are not settings.
    """

    sensors: int
    pre_samples: int
    post_samples: int
    trials: int

    def __post_init__(self) -> None:
        _check_counts(self)


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
        if not _is_integer(self.seed):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")
        _check_counts(self)
        for name in ("noise_sigma", "response_amp", "response_freq_hz", "response_decay_ms"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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

        dataset = TrialSet(np.broadcast_to(base, (config.trials, *base.shape)), config.pre_samples)
        block = dataset.trials  # the one copy, C-contiguous and not yet shared
        if config.noise_sigma > 0.0:  # adding 0.0 would turn base's -0.0 samples into 0.0
            block.flags.writeable = True
            flat = block.reshape(-1)  # a view of the block, in draw order
            for start in range(0, flat.size, _NOISE_CHUNK):
                chunk = flat[start : start + _NOISE_CHUNK]
                chunk += config.noise_sigma * rng.gaussian(chunk.size)
            block.flags.writeable = False
    if not np.isfinite(block).all():
        raise ValueError(
            f"synthetic samples are not finite for noise_sigma={config.noise_sigma!r}, "
            f"response_amp={config.response_amp!r}, "
            f"response_freq_hz={config.response_freq_hz!r}, "
            f"response_decay_ms={config.response_decay_ms!r}"
        )
    return dataset


def save_matrix(matrix, path) -> None:
    """Write a 2-D matrix as header-less CSV, 17 significant digits per value."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
    columns = m.shape[1]
    row_format = ",".join(["%.17g"] * columns) + "\n"
    # A row of one 64-bit pattern is formatted once: each row of an approximation
    # estimate is. Bits, not values, so 0.0 beside -0.0 goes value by value.
    bits = m.view(np.int64)
    constant = (bits[:, 1:] == bits[:, :1]).all(axis=1) & (columns > 0)
    _write_text(path, (  # one row in flight keeps memory flat
        ",".join(["%.17g" % row[0]] * columns) + "\n" if same
        else row_format % tuple(row.tolist())
        for row, same in zip(m, constant.tolist())
    ))


def _write_text(path, parts) -> None:
    """Write ASCII ``parts`` to ``path``; an ``OSError`` names ``path``, a partial file stays."""
    try:
        with open(path, "w", encoding="ascii") as f:
            f.writelines(parts)
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def _read_ascii(path: Path) -> str:
    """The file's text with universal newlines; a non-ASCII byte names its line."""
    raw = path.read_bytes()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        line = head.count(b"\n") + 1
        raise ValueError(f"{path}:{line}: non-ASCII byte 0x{raw[exc.start]:02x}") from None
    if "\r" in text:  # a scan for one character is cheaper than a replace that finds nothing
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _line_error(path: Path, lines: list[str]) -> ValueError:
    """The error for the first line that is not one row of the matrix; returns no data."""
    for lineno, line in enumerate(lines, start=1):
        if any(c in line for c in _REFUSED):
            return ValueError(f"{path}:{lineno}: malformed row")
        if not line.strip():
            return ValueError(f"{path}:{lineno}: blank line in data file")
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            return ValueError(f"{path}:{lineno}: malformed row")
        if line.count(",") != lines[0].count(","):
            width, cells = lines[0].count(",") + 1, line.count(",") + 1
            return ValueError(f"{path}:{lineno}: expected {width} columns, got {cells}")
    return ValueError(f"{path}:1: empty data file")


def load_matrix(path) -> np.ndarray:
    """Parse a CSV matrix of finite values with one ``np.loadtxt`` call.

    A cell is what ``float()`` reads minus digit-grouping ``_``; no line
    may hold an ASCII separator (0x1c-0x1f). For a file that the call
    refuses, a line pass only names the first bad line. Errors name the
    file and 1-based line, plus the 1-based column of a non-finite value.
    """
    path = Path(path)
    text = _read_ascii(path)
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    # loadtxt would skip empty lines (and warn when no other line is left)
    if not (lines and all(lines)) or any(c in text for c in _REFUSED):
        raise _line_error(path, lines)
    try:
        m = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise _line_error(path, lines) from None
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{path}:{row + 1}:{col + 1}: non-finite value")
    return m


def save_manifest(manifest: Manifest, path) -> None:
    """Write the four counts, then ``unit`` "fT" and ``sample_period_ms`` 1.0."""
    _write_text(path, [json.dumps({**asdict(manifest), **_FIXED}, indent=2) + "\n"])


def _excerpt(text: str, limit: int = 40) -> str:
    """``text`` cut to its first ``limit`` characters plus "...": an error line stays short."""
    return text if len(text) <= limit else text[:limit] + "..."


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys each appear once; ``json`` would keep a repeat's last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {_excerpt(repr(key))}")
        obj[key] = value
    return obj


def load_manifest(path) -> Manifest:
    """The four counts; another ``unit`` than "fT" or ``sample_period_ms`` than 1 is refused."""
    path = Path(path)
    text = _read_ascii(path)  # its error names the file and line already
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # a repeated key, huge integer, deep nesting
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    counts = [f.name for f in fields(Manifest)]
    known = [*counts, *_FIXED]
    unknown = next((key for key in raw if key not in known), None)
    if unknown is not None:  # a misspelled key would otherwise pass unread
        raise ValueError(f"{path}: invalid manifest: unknown key {_excerpt(repr(unknown))}")
    missing = next((key for key in known if key not in raw), None)
    if missing is not None:
        raise ValueError(f"{path}: missing manifest key {missing!r}")
    try:
        for key in counts:  # a JSON true or false is not a number
            if isinstance(raw[key], bool) or not isinstance(raw[key], int):
                got = _excerpt(json.dumps(raw[key]))
                raise TypeError(f"key {key!r} must be an integer, got {got}")
        for key, want in _FIXED.items():  # JSON 1 equals 1.0
            if isinstance(raw[key], bool) or raw[key] != want:
                got = _excerpt(json.dumps(raw[key]))
                raise ValueError(f"key {key!r} must be {json.dumps(want)}, got {got}")
        return Manifest(**{key: raw[key] for key in counts})
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid manifest: {exc}") from None


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


def _fanout(fn, items) -> list:
    """``[fn(item) for item in items]``, in at most ``_worker_count()`` contiguous chunks.

    The parent runs chunk 0 and a forked child runs each other chunk.
    Every child is read and reaped before anything is raised, and the
    first error in item order wins, so results and errors do not depend
    on the worker count. Fork, not spawn: a child starts with the parent's
    trials and closures in memory, where a fresh interpreter would cost
    about as much as one chunk's work.
    """
    items = list(items)
    count = min(_worker_count(), len(items))
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
        raise ValueError(
            f"{manifest_path}: manifest declares {manifest.trials} trials, "
            f"got {len(paths)} data files"
        )
    total = manifest.pre_samples + manifest.post_samples

    def load_checked(p: Path) -> np.ndarray:
        m = load_matrix(p)
        if m.shape[0] != manifest.sensors:
            raise ValueError(f"{p}: expected {manifest.sensors} rows, found {m.shape[0]}")
        if m.shape[1] != total:
            raise ValueError(f"{p}: expected {total} columns, found {m.shape[1]}")
        return m

    return TrialSet(_fanout(load_checked, paths), manifest.pre_samples)


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
    _fanout(lambda p: save_matrix(matrices[p], p), paths)
    return [manifest_path, *paths]


def load_dataset(directory) -> TrialSet:
    """Load manifest.json and its trial_<i>.csv files from a dataset directory."""
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    manifest = load_manifest(manifest_path)
    # stop at the first missing file: a manifest may declare far more trials than exist
    paths = takewhile(Path.exists, (directory / trial_filename(i) for i in range(manifest.trials)))
    return _load_trial_files(manifest, manifest_path, paths)
