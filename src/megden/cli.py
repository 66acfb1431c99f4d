"""Batch command-line pipeline: generate, average, denoise, score, dump filters, plot.

A typical end-to-end run:

    megden gen --seed 42 --out data/
    megden average --data data/ --out avg.csv
    megden denoise --data data/ --wavelet ahaar --n 2 --scales 8 --out den.csv
    megden snir --mean avg.csv --calc den.csv
    megden plot --in den.csv --out den.svg
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import dataio, denoise, metrics
from .filters import Family, classical_convention, make_filter
from .svgplot import PlotSpec, render_traces

WAVELET_NAMES = tuple(f.value for f in Family)


def _wavelet_from_args(args) -> tuple[Family, int]:
    """The family and its parameter; ``--n`` is an error unless the family is ahaar."""
    family = Family(args.wavelet)
    if family is Family.ADJUSTED_HAAR:
        return family, 2 if args.n is None else args.n
    if args.n is not None:
        raise ValueError(f"--n applies only to --wavelet {Family.ADJUSTED_HAAR.value}")
    return family, 0


def _config_from_args(args) -> denoise.DenoiseConfig:
    family, param = _wavelet_from_args(args)
    mode = denoise.Mode(args.mode)
    return denoise.DenoiseConfig(
        family=family, param=param, scales=args.scales, mode=mode, threshold=args.threshold
    )


def cmd_gen(args) -> str:
    config = dataio.SyntheticConfig(
        **{f.name: getattr(args, f.name) for f in fields(dataio.SyntheticConfig)}
    )
    written = dataio.write_dataset(dataio.generate_synthetic(config), args.out)
    return f"wrote {len(written)} files to {args.out}"


def cmd_average(args) -> str:
    trials = dataio.load_dataset(args.data)
    avg = denoise.average_trials(trials)
    if args.window == "post":
        avg = avg[:, trials.pre_samples :]
    dataio.save_matrix(avg, args.out)
    return f"wrote {args.out}"


def cmd_denoise(args) -> str:
    config = _config_from_args(args)
    if args.trial is not None and config.mode is not denoise.Mode.SINGLE_TRIAL:
        raise ValueError("--trial applies only to --mode single")
    trials = dataio.load_dataset(args.data)
    result = denoise.denoise_dataset(
        trials, config, trial_index=0 if args.trial is None else args.trial
    )
    dataio.save_matrix(result, args.out)
    return f"wrote {args.out}"


def cmd_snir(args) -> str:
    report = metrics.snir(dataio.load_matrix(args.mean), dataio.load_matrix(args.calc))
    if args.ratios:
        dataio.save_matrix(report.per_sensor_ratio[:, None], args.ratios)
    return f"{report.snir_db:.2f} dB"


def cmd_filters(args) -> str:
    pair = make_filter(*_wavelet_from_args(args))
    classic_h, classic_g = classical_convention(pair)
    lines = [f"family: {pair.family.value} (param {pair.param}, {len(pair)} taps)"]
    for label, values in (
        ("lowpass  (orthonormal)", pair.lowpass),
        ("highpass (orthonormal)", pair.highpass),
        ("lowpass  (classical)  ", classic_h),
        ("highpass (classical)  ", classic_g),
    ):
        lines.append(f"{label}: " + ", ".join(format(v, ".17g") for v in values))
    return "\n".join(lines)


def cmd_plot(args) -> str:
    matrix = dataio.load_matrix(args.infile)
    title = args.title if args.title is not None else Path(args.infile).stem
    spec = PlotSpec(title=title, width=args.width, height=args.height)
    dataio._write_text(args.out, [render_traces(matrix, spec)])
    return f"wrote {args.out}"


def _add_wavelet_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--wavelet", choices=WAVELET_NAMES, default="db4", help="wavelet family")
    p.add_argument(
        "--n", type=int, default=None,
        help="adjusted-Haar zero count (ahaar only, default 2; 2n zeros)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="megden", description="Wavelet multiresolution denoising pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic dataset (manifest + trial CSVs)")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--sensors", type=int)
    p.add_argument("--pre", dest="pre_samples", type=int)
    p.add_argument("--post", dest="post_samples", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--noise-sigma", type=float, help="noise std dev (fT)")
    p.add_argument("--amp", dest="response_amp", type=float, help="response amplitude (fT)")
    p.add_argument("--freq", dest="response_freq_hz", type=float, help="response frequency (Hz)")
    p.add_argument(
        "--decay", dest="response_decay_ms", type=float, help="response decay constant (ms)"
    )
    p.set_defaults(func=cmd_gen, **asdict(dataio.SyntheticConfig()))

    p = sub.add_parser("average", help="write the across-trial average matrix")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument(
        "--window",
        choices=("post", "full"),
        default="post",
        help="post-stimulus window only (default) or the full recording",
    )
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("denoise", help="write the denoised K x post matrix")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output CSV")
    _add_wavelet_flags(p)
    p.add_argument(
        "--scales", type=int, default=denoise.DenoiseConfig.scales, help="decomposition depth"
    )
    p.add_argument(
        "--mode", choices=[m.value for m in denoise.Mode], default=denoise.DenoiseConfig.mode.value
    )
    p.add_argument(
        "--trial", type=int, default=None, help="trial index (--mode single only, default 0)"
    )
    p.add_argument(
        "--threshold",
        action="store_true",
        help="universal soft-threshold shrinkage instead of approximation-only estimation",
    )
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("snir", help="print the SNIR of an estimate against a reference")
    p.add_argument("--mean", required=True, help="reference (trial average) CSV")
    p.add_argument("--calc", required=True, help="estimate CSV")
    p.add_argument("--ratios", help="optional per-sensor ratio CSV to write")
    p.set_defaults(func=cmd_snir)

    p = sub.add_parser("filters", help="dump filter taps in both normalizations")
    _add_wavelet_flags(p)
    p.set_defaults(func=cmd_filters)

    p = sub.add_parser("plot", help="render a CSV matrix as an SVG of overlaid traces")
    p.add_argument("--in", dest="infile", required=True, help="input CSV")
    p.add_argument("--out", required=True, help="output SVG")
    p.add_argument("--title", default=None)
    p.add_argument("--width", type=int, default=PlotSpec.width)
    p.add_argument("--height", type=int, default=PlotSpec.height)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    """Run one command: print its report and return 0, or write one error line and return 1."""
    args = build_parser().parse_args(argv)
    try:
        report = args.func(args)
    except (ValueError, OSError) as exc:
        message = exc
    except MemoryError as exc:
        message = f"out of memory: {str(exc) or 'allocation failed'}"
    else:
        try:  # flushed here, so a pipe with no reader fails here, buffered or not
            print(report, flush=True)
            return 0
        except (OSError, ValueError) as exc:
            message = f"stdout: {exc}"
    try:
        print(f"megden: error: {message}", file=sys.stderr)
    except (OSError, ValueError):  # a closed stderr leaves only the exit code
        pass
    return 1
