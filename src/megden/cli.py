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


def cmd_gen(args) -> int:
    config = dataio.SyntheticConfig(
        seed=args.seed,
        sensors=args.sensors,
        pre_samples=args.pre,
        post_samples=args.post,
        trials=args.trials,
        noise_sigma=args.noise_sigma,
        response_amp=args.amp,
        response_freq_hz=args.freq,
        response_decay_ms=args.decay,
    )
    written = dataio.write_dataset(dataio.generate_synthetic(config), args.out)
    print(f"wrote {len(written)} files to {args.out}")
    return 0


def cmd_average(args) -> int:
    trials = dataio.load_dataset(args.data)
    avg = denoise.average_trials(trials)
    if args.window == "post":
        avg = avg[:, trials.pre_samples :]
    dataio.save_matrix(avg, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_denoise(args) -> int:
    config = _config_from_args(args)
    if args.trial is not None and config.mode is not denoise.Mode.SINGLE_TRIAL:
        raise ValueError("--trial applies only to --mode single")
    trials = dataio.load_dataset(args.data)
    result = denoise.denoise_dataset(
        trials, config, trial_index=0 if args.trial is None else args.trial
    )
    dataio.save_matrix(result, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_snir(args) -> int:
    report = metrics.snir(dataio.load_matrix(args.mean), dataio.load_matrix(args.calc))
    print(f"{report.snir_db:.2f} dB")
    if args.ratios:
        dataio.save_matrix(report.per_sensor_ratio[:, None], args.ratios)
    return 0


def cmd_filters(args) -> int:
    pair = make_filter(*_wavelet_from_args(args))
    classic_h, classic_g = classical_convention(pair)
    print(f"family: {pair.family.value} (param {pair.param}, {len(pair)} taps)")
    for label, values in (
        ("lowpass  (orthonormal)", pair.lowpass),
        ("highpass (orthonormal)", pair.highpass),
        ("lowpass  (classical)  ", classic_h),
        ("highpass (classical)  ", classic_g),
    ):
        print(f"{label}: " + ", ".join(format(v, ".17g") for v in values))
    return 0


def cmd_plot(args) -> int:
    matrix = dataio.load_matrix(args.infile)
    title = args.title if args.title is not None else Path(args.infile).stem
    spec = PlotSpec(title=title, width=args.width, height=args.height)
    Path(args.out).write_text(render_traces(matrix, spec), encoding="ascii")
    print(f"wrote {args.out}")
    return 0


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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sensors", type=int, default=274)
    p.add_argument("--pre", type=int, default=120)
    p.add_argument("--post", type=int, default=241)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--noise-sigma", type=float, default=40.0, help="noise std dev (fT)")
    p.add_argument("--amp", type=float, default=120.0, help="response amplitude (fT)")
    p.add_argument("--freq", type=float, default=11.0, help="response frequency (Hz)")
    p.add_argument("--decay", type=float, default=60.0, help="response decay constant (ms)")
    p.set_defaults(func=cmd_gen)

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
    p.add_argument("--scales", type=int, default=8, help="decomposition depth")
    p.add_argument("--mode", choices=("single", "multi"), default="multi")
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
    p.add_argument("--width", type=int, default=960)
    p.add_argument("--height", type=int, default=600)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"megden: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"megden: error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
