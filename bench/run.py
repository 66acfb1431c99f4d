#!/usr/bin/env python3
"""megden benchmark: a cold-start CLI chain and an in-memory denoise sweep.

Run from the repository root; it needs only Python 3 and numpy, and
imports megden from ``src/``:

    python3 bench/run.py --workload cli_chain --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload denoise_sweep --seed 7 --seconds 30 --trace 1

With ``--trace 0`` the named workload runs untraced and the last line of
stdout holds its end-to-end metrics; with ``--trace 1`` a traced run
covering every layer gives the per-layer metrics and writes its spans
to ``.bench_out/``. The metric names and units are those of
``BENCHMARK.json``. The line before the result is the full report:
provenance, every timing as median, sample count and tail percentile,
the workload-specific metrics and each failed operation. The report is
also written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("cli_chain", "denoise_sweep")


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, threads_set: bool) -> dict:
    import numpy as np

    files = sorted(SRC.rglob("*.py"))
    tree = hashlib.sha256()
    for f in files:
        tree.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": tree.hexdigest(),
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "workload": workload,
        "seed": seed,
        "megden_threads_set": threads_set,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "megden" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: error: {SRC / 'megden'} or BENCHMARK.json is missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads_set = "MEGDEN_THREADS" in os.environ
    os.environ.pop("MEGDEN_THREADS", None)  # the user default: leave it unset
    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    try:
        if args.trace:
            result = tracing.run_traced(args.seed, args.seconds, run_dir,
                                        out_dir / f"spans-{tag}.json")
            wanted = spec["per_layer"]
        elif args.workload == "cli_chain":
            result = workloads.run_cli_chain(args.seed, args.seconds, run_dir / "chain")
            wanted = spec["end_to_end"]
        else:
            result = workloads.run_denoise_sweep(args.seed, args.seconds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    values = result["values"]
    tally = result["tally"]
    report = {
        "provenance": provenance(args.workload, args.seed, threads_set),
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": result["report"],
        "ops": tally.as_dict(),
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
