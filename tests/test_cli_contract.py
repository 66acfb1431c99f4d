"""The CLI contract, fuzzed in process: exit 0 with readable outputs, or one error line.

Hypothesis draws argv for ``cli.main`` from each subparser's option
table as ``build_parser`` defines it: ints including negatives and huge
values, floats including nan, inf and 1e308, any string as a plot title,
and input paths that exist, are missing or hold the wrong kind of file.
Dataset sizes are capped so each run stays small; the huge size values
are ones numpy refuses before it allocates anything. The affinity mask
is stubbed to 1 or 2 CPUs.

Exit 0 must leave outputs that ``load_manifest``/``load_dataset``,
``load_matrix`` or ``minidom`` re-read and an empty stderr. Exit 1 must
print exactly one ``megden: error:`` line, no traceback, and leave no
0-byte file. Warnings are errors inside the body; the
``filterwarnings("error")`` mark would turn a failing example into a
pytest INTERNALERROR (see CHANGES.md).
"""

import argparse
import contextlib
import io
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
from megden.dataio import load_dataset, load_manifest, load_matrix

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
SIZE_DESTS = {"sensors", "pre", "post", "trials"}
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
    """A small dataset plus CSVs made from it; every input path the fuzzer may pass."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    gen = ["gen", "--seed", "3", "--out", str(data)]
    assert main([*gen, "--sensors", "4", "--pre", "2", "--post", "40", "--trials", "3"]) == 0
    assert main(["average", "--data", str(data), "--out", str(root / "avg.csv")]) == 0
    assert main(["denoise", "--data", str(data), "--out", str(root / "den.csv"), "--scales", "2"]) == 0
    return {
        "data": [data, root / "missing", root / "avg.csv"],
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


@st.composite
def argv_for(draw, table, inputs, outdir):
    command = draw(st.sampled_from(sorted(table)))
    argv = [command]
    for action in table[command]:
        value = draw(value_strategy(action, inputs, outdir))
        if value is True:
            argv.append(action.option_strings[0])
        elif value is not None:
            argv.append(f"{action.option_strings[0]}={value}")
    return argv


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


@settings(max_examples=400, deadline=None,
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
            if code == 0:
                assert err == ""
                check_outputs(argv[0], outdir, stdout.getvalue())
        if code != 0:
            lines = err.splitlines()
            assert code == 1 and len(lines) == 1, err
            assert lines[0].startswith("megden: error: ") and "Traceback" not in err
            empty = [p for p in outdir.rglob("*") if p.is_file() and p.stat().st_size == 0]
            assert empty == [], f"0-byte output left behind: {empty}"
