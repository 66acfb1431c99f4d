import json
import os
import re
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import asdict, fields
from xml.dom import minidom

import numpy as np
import pytest

from oracles import load_matrix_reference

from megden import dataio
from megden.cli import build_parser, main
from megden.dataio import SyntheticConfig, load_matrix, save_matrix
from megden.denoise import DenoiseConfig, TrialSet
from megden.filters import Family
from megden.svgplot import PlotSpec

GEN_SMALL = "--sensors 6 --pre 3 --post 8 --trials 2".split()


def run_main(*argv):
    return main(list(argv))


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run_main("gen", "--seed", "7", "--out", str(out), *GEN_SMALL) == 0
    return out


def test_gen_writes_manifest_and_trials(dataset):
    assert (dataset / "manifest.json").is_file()
    assert (dataset / "trial_0.csv").is_file()
    assert (dataset / "trial_1.csv").is_file()
    assert load_matrix(dataset / "trial_0.csv").shape == (6, 11)


def test_average_windows(dataset, tmp_path):
    post = tmp_path / "post.csv"
    full = tmp_path / "full.csv"
    assert run_main("average", "--data", str(dataset), "--out", str(post)) == 0
    assert run_main(
        "average", "--data", str(dataset), "--out", str(full), "--window", "full"
    ) == 0
    a = load_matrix(post)
    b = load_matrix(full)
    assert a.shape == (6, 8)
    assert b.shape == (6, 11)
    assert np.array_equal(b[:, 3:], a)


def test_denoise_output_shape(dataset, tmp_path):
    out = tmp_path / "den.csv"
    code = run_main(
        "denoise", "--data", str(dataset), "--out", str(out),
        "--wavelet", "ahaar", "--n", "1", "--scales", "3",
    )
    assert code == 0
    den = load_matrix(out)
    assert den.shape == (6, 8)
    # constant per sensor across the window
    assert np.all(den == den[:, :1])


def test_denoise_single_mode_picks_one_trial(dataset, tmp_path):
    outs = {}
    for trial in ([], ["--trial", "0"], ["--trial", "1"]):
        single = tmp_path / f"s{len(outs)}.csv"
        code = run_main(
            "denoise", "--data", str(dataset), "--out", str(single),
            "--wavelet", "db4", "--scales", "3", "--mode", "single", *trial,
        )
        assert code == 0
        assert load_matrix(single).shape == (6, 8)
        outs[tuple(trial)] = single.read_bytes()
    # without --trial, single mode denoises trial 0
    assert outs[()] == outs[("--trial", "0")] != outs[("--trial", "1")]


def test_denoise_threshold_flag(dataset, tmp_path):
    out = tmp_path / "t.csv"
    code = run_main(
        "denoise", "--data", str(dataset), "--out", str(out),
        "--wavelet", "db4", "--scales", "3", "--threshold",
    )
    assert code == 0
    den = load_matrix(out)
    assert den.shape == (6, 8)
    # shrinkage keeps temporal structure, so rows are generally not constant
    assert not np.all(den == den[:, :1])


def test_snir_zero_estimate_prints_zero_db(dataset, tmp_path, capsys):
    avg = tmp_path / "avg.csv"
    zero = tmp_path / "zero.csv"
    run_main("average", "--data", str(dataset), "--out", str(avg))
    save_matrix(np.zeros((6, 8)), zero)
    capsys.readouterr()
    assert run_main("snir", "--mean", str(avg), "--calc", str(zero)) == 0
    assert capsys.readouterr().out.strip() == "0.00 dB"


def test_snir_ratio_dump(dataset, tmp_path, capsys):
    avg = tmp_path / "avg.csv"
    ratios = tmp_path / "r.csv"
    run_main("average", "--data", str(dataset), "--out", str(avg))
    assert run_main(
        "snir", "--mean", str(avg), "--calc", str(avg), "--ratios", str(ratios)
    ) == 0
    assert "inf" in capsys.readouterr().out
    # zero error gives +inf ratios, which load_matrix refuses as input
    dumped = load_matrix_reference(ratios)
    assert dumped.shape == (6, 1)
    assert np.all(dumped == np.inf)


@pytest.mark.parametrize(
    "trial,mode,threshold",
    [
        pytest.param("7", ["--mode", "single"], True, id="7"),
        pytest.param("-1", ["--mode", "single"], True, id="-1"),
        # --trial picks nothing outside single mode, so any value is an error
        pytest.param("99", [], True, id="multi-99-threshold"),
        pytest.param("99", [], False, id="multi-99"),
        pytest.param("-5", ["--mode", "multi"], True, id="multi--5-threshold"),
        pytest.param("-5", ["--mode", "multi"], False, id="multi--5"),
    ],
)
def test_threshold_single_trial_out_of_range(dataset, tmp_path, capsys, trial, mode, threshold):
    code = run_main(
        "denoise", "--data", str(dataset), "--out", str(tmp_path / "t.csv"),
        "--wavelet", "db4", "--scales", "3", *mode, "--trial", trial,
        *(["--threshold"] if threshold else []),
    )
    assert code == 1
    if mode == ["--mode", "single"]:
        want = f"trial index must be in 0..1, got {trial}"
    else:
        want = "--trial applies only to --mode single"
    assert capsys.readouterr().err == f"megden: error: {want}\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command", ["snir", "plot"])
def test_non_finite_input_exits_with_its_position(dataset, tmp_path, capsys, command):
    avg = tmp_path / "avg.csv"
    run_main("average", "--data", str(dataset), "--out", str(avg))
    lines = avg.read_text().splitlines()
    row = lines[2].split(",")
    row[4] = "nan"
    lines[2] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    if command == "snir":
        code = run_main("snir", "--mean", str(avg), "--calc", str(bad))
    else:
        code = run_main("plot", "--in", str(bad), "--out", str(tmp_path / "bad.svg"))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"megden: error: {bad}:3:5: non-finite value\n"


@pytest.mark.parametrize(
    "command",
    [["average"], ["denoise", "--scales", "2"], ["denoise", "--threshold", "--scales", "2"]],
    ids=["average", "denoise", "denoise-threshold"],
)
def test_digit_grouping_cell_is_a_malformed_row(dataset, tmp_path, capsys, command):
    # float() would read 1_0 as 10.0; the CSV cell grammar has no digit grouping
    trial = dataset / "trial_1.csv"
    lines = trial.read_text().splitlines()
    lines[3] = "1_0," + lines[3].split(",", 1)[1]
    trial.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run_main(*command, "--data", str(dataset), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"megden: error: {trial}:4: malformed row\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["average"], ["denoise", "--scales", "2"], ["denoise", "--threshold", "--scales", "2"]],
    ids=["average", "denoise", "denoise-threshold"],
)
def test_unknown_manifest_key_is_an_error(dataset, tmp_path, capsys, command):
    # a misspelled key would otherwise be ignored and the dataset loaded as if it were absent
    manifest = dataset / "manifest.json"
    text = manifest.read_text()
    manifest.write_text(text.replace('"trials": 2', '"trials": 2,\n  "trails": 1'))
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run_main(*command, "--data", str(dataset), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"megden: error: {manifest}: invalid manifest: unknown key 'trails'\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key,value,want", [("sample_period_ms", 2, "1.0"), ("unit", "pT", '"fT"')], ids=["2ms", "pT"]
)
@pytest.mark.parametrize(
    "command", [["average"], ["denoise", "--scales", "2"]], ids=["average", "denoise"]
)
def test_other_unit_or_sample_period_is_an_error(dataset, tmp_path, capsys, command, key, value,
                                                 want):
    # every sample is read as fT and 1 ms apart, so another declared value must not load
    manifest = dataset / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert run_main(*command, "--data", str(dataset), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"megden: error: {manifest}: invalid manifest: key {key!r} must be {want}, "
        f"got {json.dumps(value)}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("repeat", ["1", "2"], ids=["different", "same"])
def test_repeated_manifest_key_is_an_error(dataset, tmp_path, capsys, repeat):
    # json keeps a repeated key's last value, which would average 1 of the 2 trials
    manifest = dataset / "manifest.json"
    text = manifest.read_text()
    manifest.write_text(text.replace('"trials": 2', f'"trials": 2,\n  "trials": {repeat}'))
    out = tmp_path / "avg.csv"
    capsys.readouterr()
    assert run_main("average", "--data", str(dataset), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"megden: error: {manifest}: invalid JSON: repeated key 'trials'\n"
    assert not out.exists()


def test_snir_ratios_write_failure_leaves_stdout_empty(dataset, tmp_path, capsys):
    avg = tmp_path / "avg.csv"
    run_main("average", "--data", str(dataset), "--out", str(avg))
    capsys.readouterr()
    ratios = tmp_path / "missing" / "r.csv"
    assert run_main("snir", "--mean", str(avg), "--calc", str(avg), "--ratios", str(ratios)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("megden: error:") and str(ratios) in err[0]


def test_snir_energy_overflow_is_one_error_line(tmp_path, capsys):
    save_matrix(np.full((2, 3), 1e200), tmp_path / "a.csv")
    save_matrix(np.full((2, 3), -1e200), tmp_path / "b.csv")
    argv = ["snir", "--mean", str(tmp_path / "a.csv"), "--calc", str(tmp_path / "b.csv")]
    with np.errstate(all="raise"):
        assert run_main(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "megden: error: y_mean energy of sensor 0 overflows the float64 range\n"
    )


@pytest.mark.parametrize("signs", [[1.0] * 6, [1.0, -1.0] * 3], ids=["positive", "mixed"])
@pytest.mark.parametrize(
    "command",
    [["average"], ["denoise", "--wavelet", "db4", "--scales", "2"],
     ["denoise", "--threshold", "--scales", "2"]],
    ids=["average", "denoise", "denoise-threshold"],
)
def test_float_limit_dataset_is_one_error_line(tmp_path, capsys, signs, command):
    # every sample is finite, but the trial sum and the estimates leave float64
    trial = np.array(signs)[:, None] * np.full((6, 42), 1.5e308)
    dataio.write_dataset(TrialSet((trial,) * 3, 2), tmp_path / "d")
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():  # a leaked numpy RuntimeWarning fails the test
        warnings.simplefilter("error")
        code = run_main(*command, "--data", str(tmp_path / "d"), "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("megden: error:") and "overflows" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("rows", [[[-1e17] * 4] * 2, [[1e200] * 4], [[-1e308, 1e308, 0.0]]])
def test_plot_huge_values_exit_zero_with_finite_points(tmp_path, capsys, rows):
    save_matrix(np.array(rows), tmp_path / "m.csv")
    svg = tmp_path / "m.svg"
    with np.errstate(all="raise"):
        assert run_main("plot", "--in", str(tmp_path / "m.csv"), "--out", str(svg)) == 0
    assert capsys.readouterr().err == ""
    text = svg.read_text()
    assert text.count("<polyline") == len(rows)
    assert "nan" not in text and "inf" not in text


def test_snir_output_format(dataset, tmp_path, capsys):
    avg = tmp_path / "avg.csv"
    den = tmp_path / "den.csv"
    run_main("average", "--data", str(dataset), "--out", str(avg))
    run_main(
        "denoise", "--data", str(dataset), "--out", str(den),
        "--wavelet", "coif1", "--scales", "3",
    )
    capsys.readouterr()
    assert run_main("snir", "--mean", str(avg), "--calc", str(den)) == 0
    assert re.fullmatch(r"-?\d+\.\d\d dB", capsys.readouterr().out.strip())


def test_filters_dump_both_conventions(capsys):
    assert run_main("filters", "--wavelet", "db4") == 0
    out = capsys.readouterr().out
    assert "orthonormal" in out and "classical" in out
    assert "0.4829629131445341" in out  # leading db4 tap

    assert run_main("filters", "--wavelet", "ahaar", "--n", "2") == 0
    out = capsys.readouterr().out
    assert "param 2" in out and "6 taps" in out


@pytest.mark.parametrize("command", ["denoise", "filters"])
@pytest.mark.parametrize("wavelet", ["db4", "coif1"])
def test_n_without_ahaar_is_an_error(dataset, tmp_path, capsys, command, wavelet):
    argv = [command, "--wavelet", wavelet, "--n", "5"]
    if command == "denoise":
        argv += ["--data", str(dataset), "--out", str(tmp_path / "d.csv"), "--scales", "3"]
    assert run_main(*argv) == 1
    assert capsys.readouterr().err == "megden: error: --n applies only to --wavelet ahaar\n"
    assert not (tmp_path / "d.csv").exists()


def test_ahaar_n_defaults_to_two(capsys):
    assert run_main("filters", "--wavelet", "ahaar") == 0
    assert "param 2" in capsys.readouterr().out


def test_cli_defaults_are_the_library_defaults():
    # the bench's gen check compares a flag-less `gen` against SyntheticConfig()
    parser = build_parser()
    gen = parser.parse_args(["gen"])
    assert {f.name: getattr(gen, f.name) for f in fields(SyntheticConfig)} == asdict(
        SyntheticConfig()
    )
    den = parser.parse_args(["denoise", "--data", "d", "--out", "o"])
    config = DenoiseConfig(family=Family(den.wavelet))
    assert (den.scales, den.mode) == (config.scales, config.mode.value)
    plot = parser.parse_args(["plot", "--in", "i", "--out", "o"])
    assert (plot.width, plot.height) == (PlotSpec().width, PlotSpec().height)


def test_plot_polyline_count(dataset, tmp_path):
    avg = tmp_path / "avg.csv"
    svg = tmp_path / "avg.svg"
    run_main("average", "--data", str(dataset), "--out", str(avg))
    assert run_main("plot", "--in", str(avg), "--out", str(svg), "--title", "avg") == 0
    assert svg.read_text().count("<polyline") == 6


def test_plot_writes_non_ascii_titles_as_character_references(dataset, tmp_path):
    avg = tmp_path / "moyenne_é.csv"
    run_main("average", "--data", str(dataset), "--out", str(avg))
    for title in ("é", None):  # None: the default title is the input's stem
        svg = tmp_path / "avg.svg"
        argv = ["--title", title] if title else []
        assert run_main("plot", "--in", str(avg), "--out", str(svg), *argv) == 0
        text = svg.read_bytes().decode("ascii")
        want = title or avg.stem
        assert want in minidom.parseString(text).getElementsByTagName("text")[0].firstChild.data


@pytest.mark.parametrize("title, point", [("a\x01b", "U+0001"), ("x\udcff", "U+DCFF")])
def test_plot_title_outside_xml_is_an_error(dataset, tmp_path, capsys, title, point):
    avg = tmp_path / "avg.csv"
    run_main("average", "--data", str(dataset), "--out", str(avg))
    capsys.readouterr()
    svg = tmp_path / "avg.svg"
    assert run_main("plot", "--in", str(avg), "--out", str(svg), "--title", title) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("megden: error:") and point in err[0]
    assert not svg.exists()


def test_bad_zero_count_is_reported_before_the_data_is_read(tmp_path, capsys):
    argv = ["denoise", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "d.csv")]
    assert run_main(*argv, "--wavelet", "ahaar", "--n", "65") == 1
    assert capsys.readouterr().err == (
        "megden: error: adjusted-Haar zero count must be in 0..64, got 65\n"
    )


def test_missing_file_exits_nonzero(tmp_path, capsys):
    code = run_main("snir", "--mean", str(tmp_path / "a.csv"), "--calc", str(tmp_path / "b.csv"))
    assert code == 1
    assert capsys.readouterr().err.startswith("megden: error:")


def test_excessive_scales_exits_nonzero(dataset, tmp_path, capsys):
    code = run_main(
        "denoise", "--data", str(dataset), "--out", str(tmp_path / "d.csv"),
        "--wavelet", "db4", "--scales", "30",
    )
    assert code == 1
    assert "megden: error:" in capsys.readouterr().err


def test_default_workers_follow_the_affinity_mask(tmp_path, monkeypatch, capsys):
    # os.fork is a counter that starts no process: the parent reads EOF from
    # the pipe and the stubbed reap, so every "child" reports no result
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or 999_999)
    monkeypatch.setattr(os, "waitpid", lambda pid, flags: (pid, 0))
    assert dataio._worker_count() == 3
    argv = ["gen", "--out", str(tmp_path / "d"), *GEN_SMALL, "--trials", "8"]
    assert run_main(*argv) == 1
    assert "without a result" in capsys.readouterr().err
    assert len(forks) == 2  # three workers: the parent plus two children


@pytest.mark.parametrize(
    "flag,value",
    [("--amp", "inf"), ("--amp", "-inf"), ("--noise-sigma", "nan"), ("--noise-sigma", "inf"),
     ("--freq", "nan"), ("--freq", "inf"), ("--decay", "nan"), ("--decay", "inf"),
     # finite options whose samples overflow float64
     ("--noise-sigma", "1e308"), ("--freq", "1e308")],
)
@pytest.mark.filterwarnings("error")
def test_gen_rejects_non_finite_options(tmp_path, capsys, flag, value):
    out = tmp_path / "d"
    assert run_main("gen", "--out", str(out), *GEN_SMALL, f"{flag}={value}") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("megden: error:") and "finite" in err[0]
    assert not list(tmp_path.rglob("trial_*.csv"))


@pytest.mark.filterwarnings("error")
def test_gen_accepts_a_decay_that_underflows_to_zero(tmp_path, capsys):
    # -t / 1e-320 overflows to -inf, and exp(-inf) is a finite 0
    out = tmp_path / "d"
    assert run_main("gen", "--out", str(out), *GEN_SMALL, "--decay=1e-320") == 0
    assert capsys.readouterr().err == ""
    assert np.isfinite(dataio.load_dataset(out).trials[0]).all()


@pytest.mark.parametrize("message", ["", "Unable to allocate 204. TiB for an array"])
def test_out_of_memory_is_one_error_line(tmp_path, monkeypatch, capsys, message):
    def exhausted(config):
        raise MemoryError(message)

    monkeypatch.setattr(dataio, "generate_synthetic", exhausted)
    assert run_main("gen", "--out", str(tmp_path / "d"), *GEN_SMALL) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("megden: error: out of memory")
    assert not list(tmp_path.rglob("trial_*.csv"))


def test_cli_import_stays_light():
    heavy = ("concurrent.futures", "multiprocessing", "xml.sax")
    code = f"import megden.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def entry_env() -> dict:
    """The environment minus PYTHONUNBUFFERED, which would hide stdout's buffer."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def test_module_entry_point(tmp_path):
    out = tmp_path / "d"
    gen = subprocess.run(
        [sys.executable, "-m", "megden", "gen", "--seed", "1", "--out", str(out), *GEN_SMALL],
        capture_output=True, text=True, env=entry_env(), timeout=120,
    )
    assert (gen.returncode, gen.stdout, gen.stderr) == (0, f"wrote 3 files to {out}\n", "")
    bad = subprocess.run(
        [sys.executable, "-m", "megden", "plot", "--in", str(out / "nope.csv"),
         "--out", str(out / "x.svg")],
        capture_output=True, text=True, env=entry_env(), timeout=120,
    )
    assert bad.returncode == 1
    assert len(bad.stderr.splitlines()) == 1
    assert bad.stderr.startswith("megden: error:") and bad.stdout == ""


def run_entry(argv, env, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    return subprocess.run(
        [sys.executable, "-m", "megden", *argv],
        stdout=stdout, stderr=stderr, text=True, env=env, timeout=120,
    )


def closed_pipe() -> int:
    """The write end of a pipe whose reader is gone: every write fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize(
    "argv,fragment",
    [(["denoise", "--data", "d", "--out", "x.csv", "--scales", "abc"], "invalid int value: 'abc'"),
     (["bogus"], "invalid choice: 'bogus'"),
     (["filters", "--bogus"], "unrecognized arguments: --bogus"),
     (["--bogus", "filters"], "unrecognized arguments: --bogus"),
     (["filters", "a\nb"], "unrecognized arguments: a\\nb"),
     (["denoise", "--data"], "argument --data: expected one argument"),
     (["denoise", "--out", "x.csv"], "the following arguments are required: --data"),
     (["denoise", "--data", "d", "--out", "x.csv", "--wavelet", "sym4"], "invalid choice: 'sym4'"),
     ([], "the following arguments are required: command")],
    ids=["bad-int", "unknown-command", "unknown-option", "leftover-before-command",
         "stray-argument", "missing-value", "missing-required", "bad-choice", "no-command"],
)
def test_refused_argv_is_one_error_line(argv, fragment):
    run = run_entry(argv, entry_env())
    # a subcommand's own parser names itself, and so do the extras after a subcommand;
    # the top-level parser refuses the rest, a leftover before the subcommand included
    prog = ("megden denoise" if "--data" in argv or "--out" in argv
            else "megden filters" if argv[:1] == ["filters"] else "megden")
    assert (run.returncode, run.stdout) == (1, "")
    assert re.fullmatch(rf"megden: error: .*{re.escape(fragment)}.* \(see {prog} --help\)\n",
                        run.stderr)


@pytest.mark.parametrize("argv", [["--help"], ["plot", "-h"], ["gen", "--seed", "3", "-h"]])
def test_help_is_the_report(argv, monkeypatch):
    # one width for both processes, so argparse wraps the help the same way
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    if argv[0] != "--help":
        parser = parser._subparsers._group_actions[0].choices[argv[0]]
    run = run_entry(argv, {**entry_env(), "COLUMNS": "80"})
    assert (run.returncode, run.stdout, run.stderr) == (0, parser.format_help(), "")


@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
# filters prints five lines; the help texts go through the same print
@pytest.mark.parametrize("command", ["snir", "filters", "--help", "plot --help"])
def test_closed_stdout_is_one_error_line(tmp_path, command, unbuffered):
    ref = tmp_path / "ref.csv"
    save_matrix(np.ones((3, 4)), ref)
    argv = {"snir": ["snir", "--mean", str(ref), "--calc", str(ref)]}.get(command, command.split())
    env = entry_env() if unbuffered is None else {**entry_env(), "PYTHONUNBUFFERED": unbuffered}
    stdout = closed_pipe()
    try:
        run = run_entry(argv, env, stdout=stdout)
    finally:
        os.close(stdout)
    assert (run.returncode, run.stderr) == (1, "megden: error: stdout: [Errno 32] Broken pipe\n")


def test_ctrl_c_during_gen_is_one_error_line(tmp_path):
    # SIGINT to the whole process group, as a terminal's Ctrl-C sends it, so
    # the forked workers are interrupted with the parent
    out = tmp_path / "d"
    proc = subprocess.Popen(
        [sys.executable, "-m", "megden", "gen", "--trials", "30", "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=entry_env(),
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not (out / "trial_0.csv").exists():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert (proc.returncode, err) == (130, "megden: error: interrupted\n")
    with pytest.raises(ProcessLookupError):  # no worker outlives the parent
        os.killpg(proc.pid, 0)


def test_closed_stdout_and_stderr_exit_one():
    stdout, stderr = closed_pipe(), closed_pipe()
    try:
        run = run_entry(["filters"], entry_env(), stdout=stdout, stderr=stderr)
    finally:
        os.close(stdout)
        os.close(stderr)
    assert run.returncode == 1


# Run in a child: ignore SIGXFSZ, so a write past the limit fails with EFBIG,
# and cap the file size, in the child itself or (for gen) only in the pool's
# forked workers, then run the ``megden`` entry on the child's argv.
FSIZE_CHILD = """
import os, resource, signal, sys
from megden import dataio
from megden.__main__ import run

def cap():
    resource.setrlimit(resource.RLIMIT_FSIZE, (256, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
if sys.argv[1] == "gen":
    dataio._worker_count = lambda: 2
    os.register_at_fork(after_in_child=cap)
else:
    cap()
run()
"""


@pytest.mark.parametrize("command", ["average", "plot", "gen"])
def test_write_cut_by_the_file_size_limit_names_its_file(dataset, tmp_path, command):
    out = {"average": tmp_path / "avg.csv", "plot": tmp_path / "avg.svg",
           "gen": tmp_path / "d" / "trial_1.csv"}[command]  # gen's worker writes trial 1
    argv = {
        "average": ["average", "--data", str(dataset), "--out", str(out)],
        "plot": ["plot", "--in", str(dataset / "trial_0.csv"), "--out", str(out)],
        "gen": ["gen", "--out", str(out.parent), *GEN_SMALL],
    }[command]
    run = subprocess.run(
        [sys.executable, "-c", FSIZE_CHILD, *argv],
        capture_output=True, text=True, env=entry_env(), timeout=120,
    )
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == f"megden: error: [Errno 27] File too large: '{out}'\n"
    assert out.stat().st_size == 256  # the partial file remains
