"""Command line interface.

Every command writes CSV with a ``#``-prefixed metadata header that
records the tool version, the command, its full parameter set, a SHA-256
digest of each input file, and a timestamp, so any output can be traced
back to what produced it.  The tables are written and read by the codec
in :mod:`pemix.series`.

Exit codes: 0 success, 2 invalid input, 3 insufficient data, 4 I/O
failure.  Relative output paths are resolved against the directory in
the ``PEMIX_OUT_DIR`` environment variable when it is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Callable, Mapping

import numpy as np

from . import __version__
from .entropy import PEConfig, trace_blocks
from .errors import InsufficientDataError, InvalidInputError
from .generators import (
    LorenzParams,
    MackeyGlassParams,
    lorenz_series,
    mackey_glass_series,
    sine_series,
)
from .ingest import fill_gaps, load_csv, prefilter, regularize
from .mixing import (
    RNG_ALGORITHM,
    BinSweepResult,
    bin_average,
    bin_sweep,
    mixing_ansatz,
)
from .reversal import (
    _exact_mean,
    _scored_blocks,
    _series_blocks,
    lambda_for_range,
    reversal_series,
    windowed_rbar,
)
from .series import (
    TimeSeries,
    _check_number,
    read_series_csv,
    read_trace_csv,
    write_reversal_csv,
    write_series_csv,
    write_sweep_csv,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_INSUFFICIENT_DATA = 3
EXIT_IO = 4


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _resolve_out(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("PEMIX_OUT_DIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(command: str, params: Mapping[str, object], inputs: Mapping[str, Path]) -> dict[str, object]:
    for name, value in params.items():
        # A header line holds one value; a break would start a line of its own.
        if any(c in str(value) for c in "\r\n"):
            raise InvalidInputError(f"{name} must not contain a line break, got {value!r}")
    meta: dict[str, object] = {
        "version": __version__,
        "command": command,
        "created": _utc_now(),
    }
    for name, path in inputs.items():
        meta[f"{name}_sha256"] = _sha256(path)
    meta.update(params)
    return meta


def _load(path: Path, reader: Callable[[IO[str]], tuple]) -> tuple:
    with open(path, "r", encoding="utf-8-sig") as stream:
        try:
            return reader(stream)
        except UnicodeDecodeError as exc:
            raise InvalidInputError(f"{path} is not UTF-8 text ({exc.reason})") from None


def _from_args(cls: type, args: argparse.Namespace):
    """An instance of the dataclass ``cls`` built from its same-named flags."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


_PE_HELP = {
    "ell": "points per pattern",
    "window": "observations per window",
    "tau_min": "smallest stride",
    "tau_max": "largest stride",
    "hop": "window step",
}


def _add_pe_arguments(parser: argparse.ArgumentParser) -> None:
    # One flag per PEConfig field, typed and defaulted by the field.
    for f in fields(PEConfig):
        parser.add_argument(
            f"--{f.name.replace('_', '-')}", type=type(f.default), default=f.default,
            help=f"{_PE_HELP[f.name]} (default {f.default})",
        )


def _save(
    path: Path | str, writer: Callable[..., None], data: object, metadata: Mapping[str, object]
) -> None:
    with open(path, "w", encoding="utf-8") as stream:
        writer(stream, data, metadata)


# ---------------------------------------------------------------- commands


def cmd_generate(args: argparse.Namespace) -> int:
    if args.system == "lorenz":
        params = _from_args(LorenzParams, args)
        series = lorenz_series(params)
        detail: dict[str, object] = asdict(params)
    elif args.system == "mackey-glass":
        params = _from_args(MackeyGlassParams, args)
        series = mackey_glass_series(params)
        detail = asdict(params)
    else:
        series = sine_series(args.amplitude, args.period, args.n)
        detail = {"amplitude": args.amplitude, "period": args.period, "n": args.n}
    detail["system"] = args.system
    detail["seed"] = "none"
    out = _resolve_out(args.out)
    meta = _manifest(f"generate {args.system}", detail, {})
    _save(out, write_series_csv, series, meta)
    print(f"wrote {len(series)} samples to {out}")
    return EXIT_OK


def cmd_ansatz(args: argparse.Namespace) -> int:
    inp = Path(args.input)
    series, _ = _load(inp, read_series_csv)
    mixed = mixing_ansatz(series, args.k, args.seed)
    out = _resolve_out(args.out)
    params = {"k": args.k, "seed": args.seed, "rng": RNG_ALGORITHM}
    _save(out, write_series_csv, mixed, _manifest("ansatz", params, {"input": inp}))
    print(f"wrote mixed series ({len(mixed)} samples, k={args.k}) to {out}")
    return EXIT_OK


def cmd_pe(args: argparse.Namespace) -> int:
    inp = Path(args.input)
    series, _ = _load(inp, read_series_csv)
    config = _from_args(PEConfig, args)
    blocks = trace_blocks(series, config)
    out = _resolve_out(args.out)
    params = asdict(config)
    params["spacing"] = repr(series.spacing)
    params["unit"] = series.unit
    params["origin"] = repr(series.origin)
    params["seed"] = "none"
    meta = _manifest("pe", params, {"input": inp})
    _save(out, write_trace_csv, blocks, meta)
    n_anchors = len(config.anchor_grid(len(series)))
    print(f"wrote {n_anchors} anchors x {len(config.taus)} strides to {out}")
    return EXIT_OK


def cmd_reversal(args: argparse.Namespace) -> int:
    if args.hop is not None and args.window is None:
        raise InvalidInputError("hop needs window: it sets the step of the sliding mean")
    inp = Path(args.input)
    traces, _ = _load(inp, read_trace_csv)
    rev = reversal_series(traces)
    params: dict[str, object] = {"r_bar": repr(rev.r_bar)}
    output = rev
    if args.window is not None:
        hop = 1 if args.hop is None else args.hop
        output = windowed_rbar(rev, window=args.window, hop=hop)
        params["rbar_window"] = args.window
        params["rbar_hop"] = hop
        params["windowed_r_bar"] = repr(output.r_bar)
    meta = _manifest("reversal", params, {"input": inp})
    out = _resolve_out(args.out)
    _save(out, write_reversal_csv, [output], meta)
    print(f"mean reversal score: {rev.r_bar!r}")
    print(f"wrote {len(output)} rows to {out}")
    return EXIT_OK


def cmd_bin(args: argparse.Namespace) -> int:
    inp = Path(args.input)
    series, _ = _load(inp, read_series_csv)
    binned = bin_average(series, args.j)
    out = _resolve_out(args.out)
    meta = _manifest("bin", {"j": args.j}, {"input": inp})
    _save(out, write_series_csv, binned, meta)
    print(f"wrote {len(binned)} bins of {args.j} to {out}")
    return EXIT_OK


def cmd_binsweep(args: argparse.Namespace) -> int:
    inp = Path(args.input)
    series, _ = _load(inp, read_series_csv)
    _check_number("j_min", args.j_min, 1, integer=True)
    _check_number("j_max", args.j_max, args.j_min, integer=True)
    if args.j_max > len(series):
        raise InvalidInputError(
            f"j_max must be <= the series length {len(series)}, got {args.j_max}"
        )
    config = _from_args(PEConfig, args)
    result = bin_sweep(series, range(args.j_min, args.j_max + 1), config)
    params = {**asdict(config), "j_min": args.j_min, "j_max": args.j_max}
    meta = _manifest("binsweep", params, {"input": inp})
    out = _resolve_out(args.out)
    _save(out, write_sweep_csv, result, meta)
    print(
        f"recommended bin size: {result.recommended_j} "
        f"(reversal reaches zero: {'yes' if result.achieved_zero else 'no'})"
    )
    print(f"wrote sweep of {result.bin_sizes.shape[0]} sizes to {out}")
    return EXIT_OK


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.median_width is not None and args.prefilter != "moving_median":
        raise InvalidInputError("median_width needs prefilter moving_median")
    inp = Path(args.input)

    def column(selector: str) -> int | str:
        try:
            return int(selector)
        except ValueError:
            return selector

    records = load_csv(
        inp,
        time_column=column(args.time_column),
        value_column=column(args.value_column),
        header_policy=args.header,
    )
    series, suspect = regularize(records, args.target_spacing, unit=args.unit)
    # A record that lost its grid cell to a nearer one is in no point.
    held = int(np.count_nonzero(np.isfinite(series.values) | suspect))
    report_dict: dict[str, object] = {"n_records": len(records), "n_displaced": len(records) - held}
    report = None
    if args.fill == "ffill":
        series, report = fill_gaps(series, suspect)
        report_dict.update(asdict(report))
    series = prefilter(series, method=args.prefilter, width=args.median_width)
    out = _resolve_out(args.out)
    params: dict[str, object] = {
        "time_column": args.time_column,
        "value_column": args.value_column,
        "header_policy": args.header,
        "target_spacing": args.target_spacing,
        "fill": args.fill,
        "prefilter": args.prefilter,
    }
    if args.prefilter == "moving_median":
        params["median_width"] = args.median_width
    if report is not None:
        params["n_missing_filled"] = report.n_missing_filled
        params["n_suspect_removed"] = report.n_suspect_removed
    meta = _manifest("ingest", params, {"input": inp})
    _save(out, write_series_csv, series, meta)
    report_path = out.with_suffix(out.suffix + ".report.json")
    report_dict["input"] = str(inp)
    report_dict["output"] = str(out)
    report_dict["created"] = _utc_now()
    # One line per gap span rather than per number.  A JSON string holds no
    # raw newline, so the join never touches a path.
    text = json.dumps(report_dict, indent=2)
    text = re.sub(r"\[\n +(\d+),\n +(\d+)\n +\]", r"[\1, \2]", text)
    report_path.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(series)} grid points to {out}")
    print(f"wrote cleaning report to {report_path}")
    return EXIT_OK


# ------------------------------------------------------------- reproduce


_DEMO_SEED = 1721


def _check(name: str, value: float, target: str, ok: bool) -> dict[str, object]:
    return {"name": name, "value": value, "target": target, "pass": bool(ok)}


def _bin_check(label: str, sweep: BinSweepResult, lo: int, hi: int) -> dict[str, object]:
    j = sweep.recommended_j
    return _check(f"{label}_recommended_bin", j, f"within [{lo}, {hi}]", lo <= j <= hi)


def _write_study_series(stem: Path, command: str, data: TimeSeries, config: PEConfig) -> float:
    """Write ``data``, its traces and its reversal scores next to ``stem``;
    return the mean reversal score.

    The traces are streamed block by block into their file and scored as
    they pass, so of the whole series only one small integer displacement
    per anchor is held.  The score rows are written from those in blocks.
    """
    _save(f"{stem}.csv", write_series_csv, data, {"command": command})
    grid = config.anchor_grid(len(data))
    lam = lambda_for_range(config.tau_min, config.tau_max)
    displacements = np.empty(len(grid), dtype=np.min_scalar_type(lam))
    blocks = _scored_blocks(trace_blocks(data, config), displacements)
    _save(f"{stem}_pe.csv", write_trace_csv, blocks, asdict(config))
    r_bar = _exact_mean(displacements, lam)
    rows = _series_blocks(grid, displacements, lam)
    _save(f"{stem}_reversal.csv", write_reversal_csv, rows, {"r_bar": repr(r_bar)})
    return r_bar


def _run_study(
    outdir: Path, system: str, series: TimeSeries, k: int, j_max: int, seed: int
) -> tuple[list[float], BinSweepResult]:
    """Mix ``series`` with half-width ``k``, sweep bin sizes 1..``j_max`` and
    bin at the recommended size.  Writes each of the three series with its
    traces and reversal scores, then the sweep, and returns the sweep and the
    three mean reversal scores (raw, mixed, binned).

    The mixed series' traces are computed once: their mean score is the
    sweep's ``j = 1`` point, so only ``j >= 2`` is swept.  ``series`` is
    written before it is mixed and let go of once mixed, so a caller that
    passes it without keeping it holds two series only while mixing.
    """
    config = PEConfig()
    name = system.replace("-", "_")

    def write(label: str, data: TimeSeries) -> float:
        command = f"reproduce {system}/{label}"
        return _write_study_series(outdir / f"{name}_{label}", command, data, config)

    r_bars = [write("raw", series)]
    mixed = mixing_ansatz(series, k, seed)
    del series
    r_bars.append(write(f"mixed_k{k}", mixed))
    sizes = np.arange(1, j_max + 1)
    scores = np.concatenate(([r_bars[1]], bin_sweep(mixed, sizes[1:], config).r_bars))
    sweep = BinSweepResult(sizes, scores)
    j = sweep.recommended_j
    r_bars.append(write(f"binned_j{j}", bin_average(mixed, j)))
    _save(outdir / f"{name}_sweep.csv", write_sweep_csv, sweep, {})
    return r_bars, sweep


# The validation studies, one row per system: integration steps at full and
# desk scale, check-name prefix, mixing half-width k, largest bin size, the
# range the recommended bin must fall in, and whether the study is strict.
# A strict study checks that range itself and demands exactly zero reversal
# on its raw and binned series at full scale; the sweeps study checks the
# range of every row.
_STUDIES = {
    "lorenz": ((500_000, 100_000), "lorenz", 3, 10, (2, 4), True),
    "mackey-glass": ((1_500_000, 300_000), "mg", 4, 12, (1, 8), False),
}


def _study_series(system: str, scale: str) -> TimeSeries:
    full, desk = _STUDIES[system][0]
    steps = full if scale == "full" else desk
    if system == "lorenz":
        return lorenz_series(LorenzParams(steps=steps))
    return mackey_glass_series(MackeyGlassParams(steps=steps))


def _reproduce_study(outdir: Path, system: str, scale: str, seed: int) -> list[dict[str, object]]:
    _, prefix, k, j_max, (lo, hi), strict = _STUDIES[system]
    # Passed without a name, so the raw series is freed once it is written.
    (raw, mixed, binned), sweep = _run_study(
        outdir, system, _study_series(system, scale), k, j_max, seed
    )
    tol = 0.0 if strict and scale == "full" else 0.02
    checks = [
        _check(f"{prefix}_raw_rbar", raw, f"<= {tol}", raw <= tol),
        _check(f"{prefix}_mixed_rbar", mixed, ">= 0.98", mixed >= 0.98),
    ]
    if strict:
        checks.append(_bin_check(prefix, sweep, lo, hi))
    checks.append(_check(f"{prefix}_binned_rbar", binned, f"<= {tol}", binned <= tol))
    return checks


def _reproduce_sweeps(outdir: Path, scale: str, seed: int) -> list[dict[str, object]]:
    config = PEConfig()
    checks = []
    for offset, (system, (_, prefix, k, j_max, (lo, hi), _)) in enumerate(_STUDIES.items()):
        mixed = mixing_ansatz(_study_series(system, scale), k, seed + offset)
        sweep = bin_sweep(mixed, range(1, j_max + 1), config)
        name = system.replace("-", "_")
        _save(outdir / f"{name}_k{k}_sweep.csv", write_sweep_csv, sweep, {})
        checks.append(_bin_check(f"{prefix}_k{k}", sweep, lo, hi))
    return checks


def cmd_reproduce(args: argparse.Namespace) -> int:
    _check_number("seed", args.seed, 0, integer=True)
    outdir = _resolve_out(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    if args.target == "sweeps":
        checks = _reproduce_sweeps(outdir, args.scale, args.seed)
    else:
        checks = _reproduce_study(outdir, args.target, args.scale, args.seed)
    summary = {
        "target": args.target,
        "scale": args.scale,
        "seed": args.seed,
        "version": __version__,
        "created": _utc_now(),
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    with open(outdir / "summary.json", "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=2)
        stream.write("\n")
    for check in checks:
        state = "PASS" if check["pass"] else "FAIL"
        print(f"{state} {check['name']}: {check['value']} (target {check['target']})")
    print(f"summary written to {outdir / 'summary.json'}")
    return EXIT_OK if summary["all_pass"] else EXIT_INSUFFICIENT_DATA


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pemix",
        description=(
            "Detect local mixing in evenly sampled time series by comparing "
            "windowed permutation entropy across sampling strides."
        ),
        epilog=(
            "Relative output paths are resolved against $PEMIX_OUT_DIR when set. "
            "Exit codes: 0 ok, 2 invalid input, 3 insufficient data, 4 I/O error."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pemix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a reference series")
    gen_sub = gen.add_subparsers(dest="system", required=True)

    for system, cls, text in (
        ("lorenz", LorenzParams, "chaotic convection flow (first coordinate)"),
        ("mackey-glass", MackeyGlassParams, "delayed feedback system"),
    ):
        flow = gen_sub.add_parser(system, help=text)
        # One flag per parameter field, typed and defaulted by the field.
        for f in fields(cls):
            flow.add_argument(f"--{f.name}", type=type(f.default), default=f.default)
        flow.add_argument("-o", "--out", required=True)
        flow.set_defaults(func=cmd_generate)

    sine = gen_sub.add_parser("sine", help="pure tone")
    sine.add_argument("--amplitude", type=float, default=1.0)
    sine.add_argument("--period", type=int, default=200, help="samples per cycle")
    sine.add_argument("--n", type=int, default=10_000)
    sine.add_argument("-o", "--out", required=True)
    sine.set_defaults(func=cmd_generate)

    ans = sub.add_parser("ansatz", help="apply the synthetic mixing surrogate")
    ans.add_argument("-i", "--input", required=True)
    ans.add_argument("-k", type=int, required=True, help="neighborhood half-width")
    ans.add_argument("--seed", type=int, default=0)
    ans.add_argument("-o", "--out", required=True)
    ans.set_defaults(func=cmd_ansatz)

    pe = sub.add_parser("pe", help="windowed permutation entropy per stride")
    pe.add_argument("-i", "--input", required=True)
    _add_pe_arguments(pe)
    pe.add_argument("-o", "--out", required=True)
    pe.set_defaults(func=cmd_pe)

    rev = sub.add_parser("reversal", help="stride-ordering reversal scores")
    rev.add_argument("-i", "--input", required=True, help="trace CSV from 'pemix pe'")
    rev.add_argument("--window", type=int, default=None, help="emit a sliding mean instead of raw scores")
    rev.add_argument("--hop", type=int, default=None, help="step of the sliding mean (default 1)")
    rev.add_argument("-o", "--out", required=True)
    rev.set_defaults(func=cmd_reversal)

    binc = sub.add_parser("bin", help="bin-average a series")
    binc.add_argument("-i", "--input", required=True)
    binc.add_argument("-j", type=int, required=True, help="bin size")
    binc.add_argument("-o", "--out", required=True)
    binc.set_defaults(func=cmd_bin)

    sweep = sub.add_parser("binsweep", help="scan bin sizes for the mixing scale")
    sweep.add_argument("-i", "--input", required=True)
    sweep.add_argument("--j-min", type=int, default=1)
    sweep.add_argument("--j-max", type=int, default=10)
    _add_pe_arguments(sweep)
    sweep.add_argument("-o", "--out", required=True)
    sweep.set_defaults(func=cmd_binsweep)

    ing = sub.add_parser("ingest", help="load and clean an irregular export")
    ing.add_argument("-i", "--input", required=True)
    ing.add_argument("--time-column", default="0", help="index or header name (default 0)")
    ing.add_argument("--value-column", default="1", help="index or header name (default 1)")
    ing.add_argument("--header", choices=("auto", "skip", "none"), default="auto")
    ing.add_argument("--target-spacing", type=float, required=True)
    ing.add_argument("--unit", default="seconds")
    ing.add_argument("--fill", choices=("ffill", "none"), default="ffill")
    ing.add_argument("--prefilter", choices=("none", "moving_median"), default="none")
    ing.add_argument("--median-width", type=int, default=None)
    ing.add_argument("-o", "--out", required=True)
    ing.set_defaults(func=cmd_ingest)

    rep = sub.add_parser("reproduce", help="rerun the built-in validation studies")
    rep.add_argument("target", choices=(*_STUDIES, "sweeps"))
    rep.add_argument("--outdir", required=True)
    rep.add_argument("--scale", choices=("full", "desk"), default="desk",
                     help="'full' = complete runs, 'desk' = shorter runs (default)")
    rep.add_argument("--seed", type=int, default=_DEMO_SEED)
    rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
