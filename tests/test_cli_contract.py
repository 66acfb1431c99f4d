"""The CLI contract, fuzzed in process: exit 0 with readable outputs, or one error line.

Hypothesis draws argv for ``cli.main`` from each subparser's option
table as ``build_parser`` defines it: ints including negatives and huge
values, floats including nan, inf and 1e308, any string as a plot title,
and input paths that exist, are missing, hold the wrong kind of file
or hold a dataset whose sums overflow float64. Many argv then get one
fault: a value argparse refuses (words or fractions for an int, words
for a float, a name outside the choices), an unknown option, a stray
argument, a trailing option with no value, an unknown command, or ``-h``
at any position.
Dataset sizes are capped so each run stays small; the huge size values
are ones numpy refuses before it allocates anything. The affinity mask
is stubbed to 1 or 2 CPUs.

Exit 0 must leave outputs that ``load_manifest``/``load_dataset``,
``load_matrix`` or ``minidom`` re-read and an empty stderr. Exit 1 must
print exactly one ``megden: error:`` line, no traceback, and leave no
0-byte file. An argv holding ``-h`` must exit 0 with the help on stdout
and an empty stderr. Warnings are errors inside the body; the
``filterwarnings("error")`` mark would turn a failing example into a
pytest INTERNALERROR (see CHANGES.md).
"""

import argparse
import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from megden.cli import build_parser, main
from megden.dataio import (
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    load_manifest,
    load_matrix,
    write_dataset,
)
from megden.denoise import TrialSet

# Each strategy mixes in-range values, so every command also reaches exit 0,
# with negatives, huge values and non-finite floats.
HUGE = (2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**19, 10**300, 10**400, -(10**300))
INTS = st.one_of(
    st.integers(0, 3), st.integers(-3, 12), st.integers(90, 1200), st.sampled_from(HUGE)
)
SIZES = st.one_of(st.integers(1, 6), st.integers(-2, 8), st.sampled_from(HUGE))
FLOATS = st.one_of(
    st.floats(0.1, 300.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 0.0, -0.0, 5e-324, 1e-320]),
)
# Any code point, lone surrogates included (argv holds them for undecodable bytes).
TITLES = st.text(st.characters(exclude_categories=()), max_size=8)
# Mostly text that is no number; st.text may still draw one, which is checked the same way.
NON_NUMERIC = st.one_of(
    st.sampled_from(["", "abc", "1,5", "0x10", "1e", "--"]), st.text(max_size=4)
)
# None of these is an option of any command, nor a prefix argparse would expand.
UNKNOWN_OPTIONS = ("--bogus", "--bogus=1", "-q", "--outdir")
FAULTS = ("value", "unknown option", "stray argument", "no value", "unknown command", "help")
SIZE_DESTS = {"sensors", "pre_samples", "post_samples", "trials"}
OUTPUT_DESTS = {"out", "ratios"}
INPUT_DESTS = {"data", "mean", "calc", "infile"}
# Always given: gen's defaults are the working directory and the full-size dataset.
ALWAYS_GIVEN = SIZE_DESTS | {"out"}


def option_table() -> dict[str, list[argparse.Action]]:
    """Each subcommand's options, read from the parser the CLI runs."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [a for a in p._actions if a.option_strings and a.dest != "help"]
        for name, p in sub.choices.items()
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small datasets plus CSVs made from one; every input path the fuzzer may pass."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    gen = ["gen", "--seed", "3", "--out", str(data)]
    assert main([*gen, "--sensors", "4", "--pre", "2", "--post", "40", "--trials", "3"]) == 0
    assert main(["average", "--data", str(data), "--out", str(root / "avg.csv")]) == 0
    assert main(["denoise", "--data", str(data), "--out", str(root / "den.csv"), "--scales", "2"]) == 0
    # finite samples whose trial sum and estimates overflow float64
    near_limit = root / "near_limit"
    write_dataset(TrialSet((np.full((6, 42), 1.5e308),) * 3, 2), near_limit)
    return {
        "data": [data, root / "missing", root / "avg.csv", near_limit],
        "csv": [root / "avg.csv", root / "den.csv", data / "trial_0.csv",
                data / "manifest.json", root / "missing.csv"],
    }


def value_strategy(action: argparse.Action, inputs: dict, outdir: Path):
    """Strategy for one option's value as argv text; ``None`` leaves it out, ``True`` is a flag."""
    if action.dest in OUTPUT_DESTS:
        value = st.just(str(outdir / f"{action.dest}.out"))
    elif action.dest == "data":
        value = st.sampled_from(inputs["data"]).map(str)
    elif action.dest in INPUT_DESTS:
        value = st.sampled_from(inputs["csv"]).map(str)
    elif action.nargs == 0:  # a store_true flag
        return st.sampled_from([None, True])
    elif action.choices is not None:
        value = st.sampled_from(list(action.choices))
    elif action.type is int:
        value = (SIZES if action.dest in SIZE_DESTS else INTS).map(str)
    elif action.type is float:
        value = FLOATS.map(repr)
    else:
        assert action.dest == "title", f"no strategy for --{action.dest}"
        value = TITLES
    return value if action.required or action.dest in ALWAYS_GIVEN else st.one_of(st.none(), value)


def refused_value(action: argparse.Action):
    """Strategy for a value argparse refuses: out of the choices, fractional or non-numeric."""
    if action.choices is not None:
        return st.text(max_size=6).filter(lambda v: v not in action.choices)
    if action.type is int:
        return st.one_of(NON_NUMERIC, FLOATS.map(repr))
    return NON_NUMERIC


@st.composite
def argv_for(draw, table, inputs, outdir):
    """A command's argv from its option table, then at most one fault from ``FAULTS``."""
    command = draw(st.sampled_from(sorted(table)))
    argv = [command]
    actions = table[command]
    for action in actions:
        value = draw(value_strategy(action, inputs, outdir))
        if value is True:
            argv.append(action.option_strings[0])
        elif value is not None:
            argv.append(f"{action.option_strings[0]}={value}")
    fault = draw(st.one_of(st.none(), st.sampled_from(FAULTS)))
    checked = [a for a in actions if a.choices is not None or a.type in (int, float)]
    if fault == "value" and checked:
        action = draw(st.sampled_from(checked))
        argv.append(f"{action.option_strings[0]}={draw(refused_value(action))}")
    elif fault == "unknown option":
        argv.append(draw(st.sampled_from(UNKNOWN_OPTIONS)))
    elif fault == "stray argument":  # any text, line breaks included
        argv.append(draw(TITLES.filter(lambda a: a[:1] != "-")))
    elif fault == "no value":
        takes_value = [a for a in actions if a.nargs != 0]
        argv.append(draw(st.sampled_from(takes_value)).option_strings[0])
    elif fault == "unknown command":
        argv[0] = draw(st.text(max_size=6).filter(lambda c: c not in table and c[:1] != "-"))
    elif fault == "help":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["-h", "--help"])))
    return argv


def check_exit(code: int, err: str, outdir: Path) -> None:
    """Exit 1 is exactly one ``megden: error:`` line and leaves no 0-byte file."""
    lines = err.splitlines()
    assert code == 1 and len(lines) == 1, err
    assert lines[0].startswith("megden: error: ") and "Traceback" not in err
    empty = [p for p in outdir.rglob("*") if p.is_file() and p.stat().st_size == 0]
    assert empty == [], f"0-byte output left behind: {empty}"


def check_outputs(command: str, outdir: Path, stdout: str) -> None:
    """Every file the command reported writing reads back."""
    out = outdir / "out.out"
    if command == "gen":
        load_manifest(out / "manifest.json")
        load_dataset(out)
    elif command in ("average", "denoise"):
        load_matrix(out)
    elif command == "plot":
        minidom.parse(str(out))
    elif command == "filters":
        assert stdout.startswith("family: ")
    ratios = outdir / "ratios.out"
    if command == "snir" and ratios.exists():
        # a sensor the estimate matches exactly has an inf ratio by design
        r = np.loadtxt(ratios, delimiter=",", ndmin=1)
        assert not np.isnan(r).any()


TABLE = option_table()


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), cpus=st.integers(1, 2))
def test_cli_exits_cleanly_on_any_drawn_argv(inputs, tmp_path, data, cpus):
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        outdir = Path(scratch)
        argv = data.draw(argv_for(TABLE, inputs, outdir), label="argv")
        stdout, stderr = io.StringIO(), io.StringIO()
        with (
            warnings.catch_warnings(),
            mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True),
            contextlib.redirect_stdout(stdout),
            contextlib.redirect_stderr(stderr),
        ):
            warnings.simplefilter("error")
            code = main(argv)
            err = stderr.getvalue()
            if "-h" in argv or "--help" in argv:
                assert (code, err) == (0, "")
                assert stdout.getvalue().startswith("usage: megden")
            elif code == 0:
                assert err == ""
                check_outputs(argv[0], outdir, stdout.getvalue())
        if code != 0:
            check_exit(code, err, outdir)


# Dataset mutations: one small dataset from write_dataset, changed the way a
# damaged copy or a hand edit changes it, then read by every command that loads
# a dataset. Structured edits (manifest keys, CSV cells, blank lines) come
# first; byte flips and truncation then act on the edited bytes.
MANIFEST_KEYS = ("sensors", "pre_samples", "post_samples", "trials", "unit", "sample_period_ms")
MANIFEST_VALUES = (True, False, 2.5, 3.0, -1, 0, "3", "fT", 10**400)
CELLS = ("1.797e308", "-1.797e308", "1.7976931348623157e308", "nan", "inf", "-inf", "1_0")
DATASET_COMMANDS = (
    ["average"],
    ["denoise", "--scales", "2"],
    ["denoise", "--scales", "2", "--threshold"],
)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    """The dataset's files as bytes: 6 sensors, 3 trials, 4 + 20 samples."""
    root = tmp_path_factory.mktemp("small")
    config = SyntheticConfig(seed=9, sensors=6, pre_samples=4, post_samples=20, trials=3)
    write_dataset(generate_synthetic(config), root)
    return {p.name: p.read_bytes() for p in root.iterdir()}


@st.composite
def mutated_dataset(draw, files: dict) -> dict:
    files = dict(files)
    pairs = [(k, json.dumps(v)) for k, v in json.loads(files["manifest.json"]).items()]
    trial_names = sorted(n for n in files if n != "manifest.json")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["key", "cell", "blank", "flip", "truncate"]))
        if kind == "key":
            key = draw(st.sampled_from(MANIFEST_KEYS))
            value = json.dumps(draw(st.sampled_from(MANIFEST_VALUES)))
            edit = draw(st.sampled_from(["delete", "duplicate", "set"]))
            if edit == "delete":
                pairs = [(k, v) for k, v in pairs if k != key]
            elif edit == "duplicate":
                pairs.append((key, value))
            else:
                pairs = [(k, value if k == key else v) for k, v in pairs]
        elif kind in ("cell", "blank"):
            name = draw(st.sampled_from(trial_names))
            rows = files[name].decode("ascii").split("\n")[:-1]
            if kind == "blank":
                rows.insert(draw(st.integers(0, len(rows))), "")
            else:
                r = draw(st.integers(0, len(rows) - 1))
                cells = rows[r].split(",")
                cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
                rows[r] = ",".join(cells)
            files[name] = "".join(row + "\n" for row in rows).encode("ascii")
    files["manifest.json"] = (
        "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}\n"
    ).encode("ascii")
    for _ in range(draw(st.integers(0, 2))):
        name = draw(st.sampled_from(sorted(files)))
        raw = bytearray(files[name])
        if raw and draw(st.booleans()):
            raw[draw(st.integers(0, len(raw) - 1))] = draw(st.integers(0, 255))
        else:
            del raw[draw(st.integers(0, len(raw))) :]
        files[name] = bytes(raw)
    return files


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), cpus=st.integers(1, 4))
def test_cli_exits_cleanly_on_a_mutated_dataset(small_dataset, tmp_path, data, cpus):
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        root = Path(scratch)
        dataset = root / "data"
        dataset.mkdir()
        for name, raw in data.draw(mutated_dataset(small_dataset), label="files").items():
            (dataset / name).write_bytes(raw)
        for i, command in enumerate(DATASET_COMMANDS):
            outdir = root / f"out{i}"
            outdir.mkdir()
            out = outdir / "out.csv"
            argv = [*command, "--data", str(dataset), "--out", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with (
                warnings.catch_warnings(),
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True),
                contextlib.redirect_stdout(stdout),
                contextlib.redirect_stderr(stderr),
            ):
                warnings.simplefilter("error")
                code = main(argv)
                err = stderr.getvalue()
                if code == 0:
                    assert err == "", argv
                    load_matrix(out)
            if code != 0:
                check_exit(code, err, outdir)
