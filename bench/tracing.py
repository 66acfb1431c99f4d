"""Traced run: spans around megden's public functions, reduced to per-layer metrics.

Spans are recorded only from this file. While a traced cycle runs, each
public function listed in ``TARGETS`` is rebound, in every megden module
that holds a reference to it (``megden.denoise.dwt_analyze``,
``megden.dataio.load_trials``, ...), to a wrapper that records a span;
the originals are restored when the cycle ends. A cycle is one CLI chain
pass through ``cli.main(argv)`` in this process plus one denoise_sweep
pass, so every layer is measured whichever workload was named.
Untraced and traced cycles alternate; their difference is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import megden
from megden.filters import Family

import workloads as wl

PROBE_REPEATS = 5
LAYERS = ("cli", "dataio", "denoise", "transform", "filters", "metrics", "svgplot")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    cycle: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; parent links follow a per-thread stack.

    A span opened on a worker thread with nothing open on that thread
    takes the innermost span open on the main thread as its parent, which
    is the call that fanned the work out.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cycle = 0
        self.op: str | None = None
        self._ids = itertools.count(1)
        self._main: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else None)
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.op, self.cycle,
                                   attrs if attrs is not None else {}))

    def op_hook(self, workload: str):
        """A context factory for one benchmark operation: an op id plus its root span."""
        @contextlib.contextmanager
        def hook(key: str):
            self.op = f"{self.cycle}:{workload}:{key}"
            try:
                with self.span(f"op.{workload}.{key}"):
                    yield
            finally:
                self.op = None
        return hook


# ------------------------------------------------------------ instrumentation


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _family(pair) -> str:
    return pair.family.value + (str(pair.param) if pair.family is Family.ADJUSTED_HAAR else "")


def _command(argv) -> str:
    return argv[0] + ("_threshold" if "--threshold" in argv else "")


def _file_size(key: str, index: int, name: str):
    def post(attrs, result, args, kwargs):
        attrs[key] = Path(_arg(args, kwargs, index, name)).stat().st_size
    return post


def _estimate_counts(attrs, result, args, kwargs):
    attrs["wavelet_count"] = result.wavelet_count
    attrs["mean_filled_count"] = result.mean_filled_count


def _analyze_attrs(args, kwargs):
    pair = _arg(args, kwargs, 1, "filters")
    return {"n": len(_arg(args, kwargs, 0, "signal")), "levels": _arg(args, kwargs, 2, "levels"),
            "taps": len(pair)}


def _synthesize_attrs(args, kwargs):
    dec, pair = _arg(args, kwargs, 0, "dec"), _arg(args, kwargs, 1, "filters")
    return {"lengths": list(dec.lengths), "taps": len(pair)}


# (module, function, span-name suffix from the call, attrs from the call, post hook)
TARGETS = (
    ("cli", "main", lambda a, k: _command(_arg(a, k, 0, "argv")), None, None),
    ("dataio", "generate_synthetic", None, None, None),
    ("dataio", "write_dataset", None, None, None),
    ("dataio", "save_matrix", None, None, _file_size("bytes_written", 1, "path")),
    ("dataio", "save_manifest", None, None, _file_size("bytes_written", 1, "path")),
    ("dataio", "load_dataset", None, None, None),
    ("dataio", "load_trials", None, None, None),
    ("dataio", "load_manifest", None, None, _file_size("bytes_read", 0, "path")),
    ("dataio", "load_matrix", None, None, _file_size("bytes_read", 0, "path")),
    ("denoise", "denoise_dataset", lambda a, k: _arg(a, k, 1, "config").mode.value, None, None),
    ("denoise", "denoise_multi", None, None, None),
    ("denoise", "denoise_trial", None, None, None),
    ("denoise", "threshold_denoise", None, None, None),
    ("denoise", "concatenate_post_stimulus", None, None, None),
    ("denoise", "estimate_sensors", None, None, _estimate_counts),
    ("denoise", "reconstruct_denoised", None, None, None),
    ("denoise", "average_trials", None, None, None),
    ("transform", "dwt_analyze", lambda a, k: _family(_arg(a, k, 1, "filters")),
     _analyze_attrs, None),
    ("transform", "dwt_synthesize", lambda a, k: _family(_arg(a, k, 1, "filters")),
     _synthesize_attrs, None),
    ("filters", "make_filter", None, None, None),
    ("metrics", "snir", None, None, None),
    ("svgplot", "render_traces", None, None,
     lambda attrs, result, a, k: attrs.update(svg_bytes=len(result.encode("ascii")))),
)


def _wrap(tracer: Tracer, original, name: str, suffix, make_attrs, post):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        span_name = f"{name}.{suffix(args, kwargs)}" if suffix else name
        attrs = make_attrs(args, kwargs) if make_attrs else {}
        with tracer.span(span_name, attrs):
            result = original(*args, **kwargs)
        if post:
            post(attrs, result, args, kwargs)
        return result
    return wrapper


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Rebind every target in every megden module that refers to it; restore on exit."""
    modules = [m for n, m in sys.modules.items() if n == "megden" or n.startswith("megden.")]
    rebound = []
    for module, function, suffix, make_attrs, post in TARGETS:
        original = getattr(getattr(megden, module), function)
        wrapper = _wrap(tracer, original, f"{module}.{function}", suffix, make_attrs, post)
        for mod in modules:
            for attr in [a for a, v in vars(mod).items() if v is original]:
                rebound.append((mod, attr, original))
                setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, original in reversed(rebound):
            setattr(mod, attr, original)


# ------------------------------------------------------------- reduction


def transform_cost(span: Span) -> tuple[int, int]:
    """Computed (flops, bytes) of one dwt span from its recorded lengths and taps.

    Per level on the even-extended length m: 2 * taps * m flops (a
    multiply and an add per tap for each of m/2 approximation and m/2
    detail outputs), and 8 bytes for every input and output sample.
    Cache effects are not modelled.
    """
    taps = span.attrs["taps"]
    flops = nbytes = 0
    if "lengths" in span.attrs:  # synthesis: level j rebuilds lengths[j] samples
        for n in span.attrs["lengths"]:
            m = n + n % 2
            flops += 2 * taps * m
            nbytes += 8 * (m + n)
    else:
        n = span.attrs["n"]
        for _ in range(span.attrs["levels"]):
            m = n + n % 2
            flops += 2 * taps * m
            nbytes += 8 * (n + m)
            n = m // 2
    return flops, nbytes


def _covered(children: list[Span], start: float, end: float) -> float:
    """Length of the union of the children's intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, reach), min(c.end, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def cycle_counts(spans: list[Span]) -> dict[str, int]:
    """Exact counts of one cycle, taken from span attributes."""
    dwt = [s for s in spans if s.name.startswith(("transform.dwt_analyze.",
                                                  "transform.dwt_synthesize."))]
    costs = [transform_cost(s) for s in dwt]
    estimates = [s.attrs for s in spans if s.name == "denoise.estimate_sensors"]
    counts = {
        "dataio.bytes_written": sum(s.attrs.get("bytes_written", 0) for s in spans),
        "dataio.bytes_read": sum(s.attrs.get("bytes_read", 0) for s in spans),
        "svgplot.svg_bytes": sum(s.attrs.get("svg_bytes", 0) for s in spans),
        "transform.calls": len(dwt),
        "transform.flops_computed": sum(f for f, _ in costs),
        "transform.bytes_computed": sum(b for _, b in costs),
        "filters.make_filter.calls": sum(s.name == "filters.make_filter" for s in spans),
    }
    for key in ("wavelet_count", "mean_filled_count"):
        values = {e[key] for e in estimates}
        counts[f"denoise.{key}"] = values.pop() if len(values) == 1 else -1
    return counts


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: span time not covered by child spans, summed over one cycle."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        if layer in out:
            out[layer] += s.seconds - _covered(children.get(s.id, []), s.start, s.end)
    return out


# ------------------------------------------------------------- the run


def _probe(code: str, env: dict, workdir: Path, tally: wl.Tally) -> float:
    """Wall time of a fresh interpreter running ``code``, or the float it prints."""
    child = wl.spawn([sys.executable, "-c", code], workdir, env)
    problem = wl.child_problem(child)
    tally.record(f"probe {code!r}", problem)
    return float(child.stdout) if problem is None and child.stdout.strip() else child.seconds


def run_traced(seed: int, seconds: float, workdir: Path, spans_path: Path) -> dict:
    """Probes plus alternating untraced/traced cycles; per-layer metric values."""
    probe_dir = workdir / "probe"
    probe_dir.mkdir(parents=True, exist_ok=True)
    env = wl.child_env()
    tracer, tally = Tracer(), wl.Tally()
    interp = [_probe("pass", env, probe_dir, tally) for _ in range(PROBE_REPEATS)]
    import_code = ("import time; t = time.perf_counter(); import megden.cli; "
                   "print(time.perf_counter() - t)")
    imports = [_probe(import_code, env, probe_dir, tally) for _ in range(PROBE_REPEATS)]

    chain_dir = workdir / "chain"
    ref = wl.chain_reference(seed)
    state = wl.sweep_setup(seed)
    untraced, traced = [], []

    def cycle(index: int, hook) -> float:
        t0 = time.perf_counter()
        wl.run_chain_in_process(seed, chain_dir, ref, tally, index,
                                hook("cli_chain") if hook else contextlib.nullcontext)
        wl.run_sweep_pass(state, index, tally,
                          hook("denoise_sweep") if hook else contextlib.nullcontext)
        return time.perf_counter() - t0

    started = time.perf_counter()
    while not traced or time.perf_counter() - started + untraced[-1] + traced[-1] <= seconds:
        index = len(traced)
        untraced.append(cycle(index, None))
        tracer.cycle = index
        with instrumented(tracer):
            traced.append(cycle(index, tracer.op_hook))

    by_cycle = [[s for s in tracer.spans if s.cycle == c] for c in range(len(traced))]
    counts = [cycle_counts(spans) for spans in by_cycle]
    for c, other in enumerate(counts[1:], start=1):
        for key in other:
            if other[key] != counts[0][key]:
                tally.record(f"trace cycle {c} {key}", f"{other[key]} != {counts[0][key]}")
    selfs = [self_times(spans) for spans in by_cycle]

    durations: dict[str, list[float]] = {}
    for s in tracer.spans:
        durations.setdefault(s.name, []).append(s.seconds)
    values = {f"{name}_s": statistics.median(d) for name, d in durations.items()}
    values.update(counts[0])
    values.update({f"{layer}.self_s": statistics.median(s[layer] for s in selfs)
                   for layer in LAYERS})
    values["cli.interp_start_s"] = statistics.median(interp)
    values["cli.import_s"] = statistics.median(imports)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps({"spans": [asdict(s) for s in tracer.spans]}))
    return {
        "values": values,
        "report": {
            "cycles": len(traced),
            "untraced_cycle_s": wl.summary(untraced),
            "traced_cycle_s": wl.summary(traced),
            "interp_start_s": wl.summary(interp),
            "import_s": wl.summary(imports),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(wl.ROOT)),
            "span_s": {name: wl.summary(d) for name, d in sorted(durations.items())},
        },
        "tally": tally,
    }
