"""Layer tracing for the pemix benchmark, applied from outside the package.

Run as a program, this file stands in for the ``pemix`` command: it imports
the package from ``src/``, wraps each layer's public functions, runs
``pemix.cli.main`` on the remaining arguments and writes the recorded spans
as JSON when the command ends::

    python3 bench/tracer.py --spans OUT.json [--alloc] -- pe -i s.csv -o t.csv
    python3 bench/tracer.py --probe OUT.json

``--alloc`` wraps only the functions that report ``peak_alloc_mb`` and runs
them under ``tracemalloc``, so allocation tracking never inflates the self
times of the plain traced pass.  ``--probe`` times ``windowed_pe`` at
``ell`` 4, 5 and 6 on a fixed 50-anchor slice.

Callers bind functions by name (``from .entropy import multi_tau_pe``), so a
wrapper replaces every binding of its target in every loaded pemix module,
and the install step fails if any module still holds an unwrapped target.
``run.py`` imports :func:`summarize` to turn span files into
per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Layer module -> functions wrapped in it.  Every ``cmd_*`` function of the
# cli module is wrapped as well.
TARGETS = {
    "cli": ("write_trace_csv", "read_trace_csv", "write_reversal_csv"),
    "series": ("write_series_csv", "read_series_csv"),
    "entropy": ("multi_tau_pe", "windowed_pe"),
    "ordinal": ("encode_patterns",),
    "reversal": ("reversal_series", "windowed_rbar"),
    "generators": ("mackey_glass_series", "lorenz_series"),
    "mixing": ("mixing_ansatz", "bin_average", "bin_sweep"),
    "ingest": ("load_csv", "regularize", "fill_gaps"),
}
ALLOC_TARGETS = {"cli": ("read_trace_csv",), "entropy": ("windowed_pe",)}
PROBE_ELLS = (4, 5, 6)
PROBE_ANCHORS = 50
PROBE_WINDOW = 5000


def _stream(args, kwargs):
    return args[0] if args else kwargs["stream"]


def _multi_tau(args, kwargs, result, before):
    series = args[0] if args else kwargs["series"]
    config = args[1] if len(args) > 1 else kwargs["config"]
    digest = hashlib.sha1(series.values.tobytes())
    digest.update(repr(config).encode())
    return {
        "windows": int(result.anchors.shape[0]) * len(result.traces),
        "digest": digest.hexdigest(),
    }


# Bytes a writer added to its stream; ``tell`` flushes, outside the span.
_WRITTEN = (
    lambda a, k: _stream(a, k).tell(),
    lambda a, k, r, before: {"bytes": _stream(a, k).tell() - before},
)

# Counters recorded at a span's end, outside its timed interval.
# Each entry is (before(args, kwargs), after(args, kwargs, result, before)).
COUNTERS = {
    "cli.write_trace_csv": _WRITTEN,
    "cli.write_reversal_csv": _WRITTEN,
    "series.write_series_csv": _WRITTEN,
    "cli.read_trace_csv": (None, lambda a, k, r, b: {"rows": int(r[0].anchors.shape[0])}),
    "series.read_series_csv": (None, lambda a, k, r, b: {"rows": len(r[0])}),
    "entropy.multi_tau_pe": (None, _multi_tau),
    "ordinal.encode_patterns": (None, lambda a, k, r, b: {"patterns": int(r.shape[0])}),
    "mixing.bin_sweep": (None, lambda a, k, r, b: {"sizes_scored": int(r.sufficient.sum())}),
    "ingest.load_csv": (None, lambda a, k, r, b: {"records": len(r)}),
    "ingest.fill_gaps": (
        None,
        lambda a, k, r, b: {"filled": r[1].n_missing_filled + r[1].n_suspect_removed},
    ),
}


class Recorder:
    """Spans of one process, kept in memory and written out at the end.

    A span is ``{"name", "parent", "start", "end", ...counters}`` with
    integer nanosecond times; ``parent`` is the index of the enclosing
    span, or -1.
    """

    def __init__(self, alloc: bool = False) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.alloc = alloc

    def wrap(self, name: str, fn):
        before_fn, after_fn = COUNTERS.get(name, (None, None))
        if self.alloc:
            # Tracking runs only inside the call, so the pure-Python layers
            # around it keep their speed.  The alloc targets never nest.
            def before_fn(a, k):
                tracemalloc.start()

            def after_fn(a, k, r, before):
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                return {"peak_alloc_bytes": peak}

        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else -1}
            stack.append(len(spans))
            spans.append(span)
            try:
                before = before_fn(args, kwargs) if before_fn else None
                span["start"] = time.perf_counter_ns()
                result = fn(*args, **kwargs)
                span["end"] = time.perf_counter_ns()
                if after_fn:
                    span.update(after_fn(args, kwargs, result, before))
                return result
            finally:
                span.setdefault("start", span.setdefault("end", time.perf_counter_ns()))
                stack.pop()

        return wrapper


def _pemix_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "pemix" or n.startswith("pemix.")]


def _bound_values(module):
    """Module attributes, and the items of module-level containers."""
    for value in list(vars(module).values()):
        yield value
        if isinstance(value, dict):
            yield from value.values()
        elif isinstance(value, (list, tuple)):
            yield from value


def install(recorder: Recorder, targets: dict) -> list[str]:
    """Wrap every target in every pemix module that binds it.

    Returns the targets that no longer exist.  Raises RuntimeError if a
    pemix module still holds an unwrapped target afterwards.
    """
    missing: list[str] = []
    originals: dict[int, str] = {}
    for layer, funcs in targets.items():
        module = importlib.import_module(f"pemix.{layer}")
        for func in funcs:
            original = getattr(module, func, None)
            if not callable(original):
                missing.append(f"{layer}.{func}")
                continue
            originals[id(original)] = f"{layer}.{func}"
            wrapper = recorder.wrap(f"{layer}.{func}", original)
            for mod in _pemix_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
    left = sorted(
        {
            f"{mod.__name__}:{originals[id(v)]}"
            for mod in _pemix_modules()
            for v in _bound_values(mod)
            if id(v) in originals
        }
    )
    if left:
        raise RuntimeError(f"unwrapped targets remain after install: {left}")
    return missing


def _probe(out: Path) -> None:
    """Milliseconds per anchor of ``windowed_pe`` at each probed ``ell``."""
    import numpy as np

    from pemix.entropy import PEConfig, windowed_pe
    from pemix.series import TimeSeries

    rng = np.random.default_rng(20130101)
    values = np.cumsum(rng.standard_normal(PROBE_WINDOW + PROBE_ANCHORS - 1))
    series = TimeSeries(values=values)
    result = {}
    for ell in PROBE_ELLS:
        config = PEConfig(ell=ell, window=PROBE_WINDOW, tau_min=1, tau_max=1)
        reps = 5 if ell < 6 else 1
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            trace = windowed_pe(series, config, 1)
            times.append(time.perf_counter() - start)
        if len(trace) != PROBE_ANCHORS:
            raise RuntimeError(f"probe produced {len(trace)} anchors, expected {PROBE_ANCHORS}")
        result[f"ell{ell}"] = statistics.median(times) * 1000.0 / PROBE_ANCHORS
    out.write_text(json.dumps(result))


def summarize(span_files: list[Path]) -> dict[str, dict[str, float]]:
    """Aggregate span files into per-name totals, checking the bookkeeping.

    For every span name: ``s`` (total duration), ``self_s`` (duration
    minus the part of its interval covered by child spans), ``calls``,
    the summed counters and, for ``multi_tau_pe``, ``unique_frac``.
    Raises RuntimeError when a span's self time plus its children's time
    differs from its duration, which happens when children overlap or
    leave their parent's interval.
    """
    totals: dict[str, dict[str, float]] = {}
    digests: dict[str, set[str]] = {}
    for path in span_files:
        spans = json.loads(path.read_text())["spans"]
        children: dict[int, list[dict]] = {}
        for span in spans:
            children.setdefault(span["parent"], []).append(span)
        for idx, span in enumerate(spans):
            dur = span["end"] - span["start"]
            kids = sorted((c["start"], c["end"]) for c in children.get(idx, []))
            covered = 0
            cursor = span["start"]
            for lo, hi in kids:
                lo, hi = max(lo, cursor), min(hi, span["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            self_ns = dur - covered
            child_ns = sum(hi - lo for lo, hi in kids)
            if dur < 0 or self_ns + child_ns != dur:
                raise RuntimeError(
                    f"span bookkeeping broken at {span['name']} in {path.name}: "
                    f"duration {dur} ns, self {self_ns} ns, children {child_ns} ns"
                )
            agg = totals.setdefault(span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += dur / 1e9
            agg["self_s"] += self_ns / 1e9
            agg["calls"] += 1
            for key, value in span.items():
                if key == "digest":
                    digests.setdefault(span["name"], set()).add(value)
                elif key == "peak_alloc_bytes":
                    agg["peak_alloc_mb"] = max(agg.get("peak_alloc_mb", 0.0), value / 1e6)
                elif key not in ("name", "parent", "start", "end"):
                    agg[key] = agg.get(key, 0) + value
    for name, seen in digests.items():
        totals[name]["unique_frac"] = len(seen) / totals[name]["calls"]
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", type=Path, help="write spans of the command here")
    parser.add_argument("--alloc", action="store_true", help="record peak allocations only")
    parser.add_argument("--probe", type=Path, help="run the ell probe, write its result here")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- pemix arguments")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.probe:
        _probe(args.probe)
        return 0
    if not args.spans:
        parser.error("--spans or --probe is required")
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    import pemix.cli  # imports every layer module

    targets = ALLOC_TARGETS
    if not args.alloc:
        commands = tuple(n for n in vars(pemix.cli) if n.startswith("cmd_"))
        targets = {**TARGETS, "cli": TARGETS["cli"] + commands}
    recorder = Recorder(alloc=args.alloc)
    missing = install(recorder, targets)
    for name in missing:
        print(f"tracer: target {name} not found; its metrics read 0", file=sys.stderr)
    try:
        return pemix.cli.main(command)
    finally:
        args.spans.write_text(json.dumps({"spans": recorder.spans, "missing": missing}))


if __name__ == "__main__":
    sys.exit(main())
