"""pemix benchmark: three CLI workloads, end-to-end metrics and layer traces.

Run from the repository root::

    python3 bench/run.py --workload study-sweeps --seed 1 --seconds 20 --trace 0

One client runs one ``pemix`` process at a time (a closed loop) with numpy's
thread pools capped at one thread.  The workload is repeated twice, then
again while the next repetition is expected to end within ``--seconds``,
and medians over the repetitions are reported.

Workloads (why each was chosen is recorded in BENCHMARK.json):

* ``study-mg``: ``pemix reproduce mackey-glass --scale desk``; the table
  writers dominate.
* ``study-sweeps``: ``pemix reproduce sweeps --scale desk``; the entropy
  kernel dominates and almost nothing is written.
* ``recording``: a seeded sensor export (see ``recording.py``) through
  ``ingest``, ``pe``, ``reversal`` and ``binsweep``; the only workload that
  reads tables back.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload plain, twice under ``tracer.py`` for spans, plain again, once under
``tracemalloc`` for peak allocations, and then the ``ell`` probe, and
reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import recording
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "pemix-bench"
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_RUNS = 9
# Repetitions per run even when they overrun --seconds, so that the slow
# workloads report a median of more than one sample.
MIN_REPEATS = 2
# A run must end within 180 s: no repetition starts that is expected to end
# after this, and no process starts or keeps running past it.
DEADLINE_S = 165.0


@dataclass
class Step:
    """One pemix command and the check its outputs must pass."""

    argv: list[str]
    check: Callable[[], str | None] | None = None


@dataclass
class Outcome:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    written_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


def _header(path: Path) -> dict[str, str]:
    """``# key: value`` lines at the top of a pemix CSV."""
    meta = {}
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if not line.startswith("#"):
                break
            key, sep, value = line[1:].partition(":")
            if sep:
                meta[key.strip()] = value.strip()
    return meta


def _study_steps(target: str, seed: int, out: Path, inputs: dict) -> list[Step]:
    def check() -> str | None:
        summary = json.loads((out / "summary.json").read_text())
        if summary.get("all_pass") is not True:
            return f"summary.json all_pass is {summary.get('all_pass')!r}"
        return None

    argv = ["reproduce", target, "--scale", "desk", "--seed", str(seed), "--outdir", str(out)]
    return [Step(argv, check)]


def _recording_steps(seed: int, out: Path, inputs: dict) -> list[Step]:
    series, traces = out / "series.csv", out / "traces.csv"
    reversal, sweep = out / "reversal.csv", out / "sweep.csv"

    def check_ingest() -> str | None:
        report = json.loads((out / "series.csv.report.json").read_text())
        got = (report["n_missing_filled"], report["n_suspect_removed"])
        want = (inputs["dropped"], inputs["bad"])
        return None if got == want else f"ingest filled/suspect {got}, expected {want}"

    def check_reversal() -> str | None:
        r_bar = float(_header(reversal)["r_bar"])
        return None if r_bar >= 0.98 else f"mean reversal score {r_bar} < 0.98"

    def check_sweep() -> str | None:
        meta = _header(sweep)
        j, zero = int(meta["recommended_bin"]), meta["achieved_zero"]
        ok = 2 <= j <= 4 and zero == "true"
        return None if ok else f"recommended bin {j}, achieved_zero {zero}"

    return [
        Step(["ingest", "-i", str(inputs["path"]), "--target-spacing", "0.25", "-o", str(series)],
             check_ingest),
        Step(["pe", "-i", str(series), "-o", str(traces)]),
        Step(["reversal", "-i", str(traces), "--window", "5000", "-o", str(reversal)],
             check_reversal),
        Step(["binsweep", "-i", str(series), "--j-max", "40", "--hop", "100", "-o", str(sweep)],
             check_sweep),
    ]


def _prepare_recording(run_dir: Path, seed: int) -> dict:
    path = run_dir / "input" / "export.csv"
    path.parent.mkdir(parents=True)
    return {"path": path, **recording.write_export(path, seed)}


def _no_inputs(run_dir: Path, seed: int) -> dict:
    return {}


# Workload -> (untimed input preparation, steps of one timed iteration).
WORKLOADS: dict[str, tuple[Callable, Callable]] = {
    "study-mg": (_no_inputs, functools.partial(_study_steps, "mackey-glass")),
    "study-sweeps": (_no_inputs, functools.partial(_study_steps, "sweeps")),
    "recording": (_prepare_recording, _recording_steps),
}


class Runner:
    """Starts pemix processes one at a time and reaps each with its rusage."""

    def __init__(self, run_dir: Path, deadline: float) -> None:
        self.run_dir = run_dir
        self.deadline = deadline
        # Bytecode is cached next to the sources, as an installed package
        # has it, so set-up time does not include compiling pemix.
        drop = ("PEMIX_OUT_DIR", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
        self.env = {k: v for k, v in os.environ.items() if k not in drop}
        self.env.update(THREAD_CAPS)
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def run(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Exit code, user+system CPU seconds and max RSS in MB of one process."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            log.write_text("not started: the run's time budget is spent\n")
            return -1, 0.0, 0.0
        with open(log, "wb") as sink:
            proc = subprocess.Popen(argv, cwd=self.run_dir, env=self.env, stdout=sink,
                                    stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6)


def _pemix(mode: str, spans_dir: Path | None, index: int) -> list[str]:
    if mode == "plain":
        return [sys.executable, "-m", "pemix.cli"]
    argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans_dir / f"{index}.json")]
    return argv + (["--alloc"] if mode == "alloc" else []) + ["--"]


def run_iteration(name: str, seed: int, inputs: dict, runner: Runner, mode: str = "plain",
                  spans_dir: Path | None = None) -> Outcome:
    """Run every step of the workload once into a fresh output directory."""
    out = runner.run_dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    if spans_dir:
        spans_dir.mkdir()
    steps = WORKLOADS[name][1](seed, out, inputs)
    result = Outcome()
    codes = []
    start = time.perf_counter()
    for index, step in enumerate(steps):
        code, cpu, rss = runner.run(_pemix(mode, spans_dir, index) + step.argv,
                                    runner.run_dir / f"step{index}.log")
        codes.append(code)
        result.cpu_s += cpu
        result.peak_rss_mb = max(result.peak_rss_mb, rss)
    result.wall_s = time.perf_counter() - start
    for index, (step, code) in enumerate(zip(steps, codes)):
        result.attempted += 1
        error = f"exit code {code}" if code != 0 else None
        if error is None and step.check:
            try:
                error = step.check()
            except (OSError, KeyError, ValueError) as exc:
                error = f"check could not read the outputs: {exc!r}"
        if error:
            log = (runner.run_dir / f"step{index}.log").read_text(errors="replace")[-2000:]
            result.failed += 1
            result.errors.append(f"{name} step {index} ({step.argv[0]}): {error}\n{log}")
    result.written_mb = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) / 1e6
    shutil.rmtree(out)
    return result


def measure_setup(runner: Runner) -> tuple[list[float], Outcome]:
    """Wall times of fresh ``pemix --version`` processes, after one warm-up."""
    samples: list[float] = []
    result = Outcome()
    log = runner.run_dir / "version.log"
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        code, _, _ = runner.run(_pemix("plain", None, 0) + ["--version"], log)
        elapsed = time.perf_counter() - start
        text = log.read_text(errors="replace").strip()
        result.attempted += 1
        if code != 0 or not text.startswith("pemix "):
            result.failed += 1
            result.errors.append(f"pemix --version: exit code {code}, output {text[-500:]!r}")
        elif i > 0:
            samples.append(elapsed)
    return samples, result


def end_to_end(name: str, seed: int, seconds: float, runner: Runner, inputs: dict,
               t0: float) -> tuple[dict[str, float], list[Outcome], dict]:
    setup, setup_outcome = measure_setup(runner)
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    # At least MIN_REPEATS, then repeat while the next repetition is
    # expected to end within the budget.
    while True:
        outcomes.append(run_iteration(name, seed, inputs, runner))
        typical = statistics.median(o.wall_s for o in outcomes)
        if time.monotonic() - t0 + typical > DEADLINE_S:
            break
        if len(outcomes) >= MIN_REPEATS and time.perf_counter() - start + typical > seconds:
            break
    attempted = setup_outcome.attempted + sum(o.attempted for o in outcomes)
    failed = setup_outcome.failed + sum(o.failed for o in outcomes)
    samples = {
        "wall_s": [o.wall_s for o in outcomes],
        "cpu_s": [o.cpu_s for o in outcomes],
        "peak_rss_mb": [o.peak_rss_mb for o in outcomes],
        "written_mb": [o.written_mb for o in outcomes],
        "setup_s": setup,
    }
    # Only setup_s can be empty, when every --version run failed.
    values = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    values["ok_frac"] = (attempted - failed) / attempted
    return values, [setup_outcome] + outcomes, samples


def traced(name: str, seed: int, runner: Runner, inputs: dict) -> tuple[dict[str, float],
                                                                        list[Outcome], dict]:
    # Plain, traced, traced, plain: the order cancels a linear drift in the
    # machine's speed out of trace.overhead_frac.
    span_dir, again_dir, alloc_dir = (runner.run_dir / d for d in ("spans", "again", "alloc"))
    first = run_iteration(name, seed, inputs, runner)
    spans = run_iteration(name, seed, inputs, runner, "spans", span_dir)
    again = run_iteration(name, seed, inputs, runner, "spans", again_dir)
    last = run_iteration(name, seed, inputs, runner)
    overhead = (spans.wall_s + again.wall_s) / (first.wall_s + last.wall_s) - 1.0
    allocs = run_iteration(name, seed, inputs, runner, "alloc", alloc_dir)
    probe_file = runner.run_dir / "probe.json"
    probe = Outcome(attempted=1)
    code, _, _ = runner.run([sys.executable, str(BENCH / "tracer.py"), "--probe", str(probe_file)],
                            runner.run_dir / "probe.log")
    if code != 0:
        probe.failed = 1
        probe.errors.append("ell probe: " + (runner.run_dir / "probe.log").read_text()[-2000:])
    totals = tracer.summarize(sorted(span_dir.glob("*.json")))
    tracer.summarize(sorted(again_dir.glob("*.json")))  # checks its bookkeeping only
    peaks = tracer.summarize(sorted(alloc_dir.glob("*.json")))
    per_anchor = json.loads(probe_file.read_text()) if code == 0 else {}
    values: dict[str, float] = {}
    for metric in _benchmark()["per_layer"]:
        values[metric["name"]] = _layer_value(metric["name"], totals, peaks, per_anchor,
                                              overhead)
    samples = {"plain_wall_s": [first.wall_s, last.wall_s],
               "traced_wall_s": [spans.wall_s, again.wall_s],
               "alloc_wall_s": allocs.wall_s, "spans": totals}
    return values, [first, spans, again, last, allocs, probe], samples


def _layer_value(metric: str, totals: dict, peaks: dict, per_anchor: dict,
                 overhead: float) -> float:
    if metric == "trace.overhead_frac":
        return overhead
    if metric == "entropy.windows_per_s":
        kernel = totals.get("entropy.multi_tau_pe", {})
        return kernel.get("windows", 0) / kernel["s"] if kernel.get("s") else 0.0
    if metric.startswith("entropy.windowed_pe.ms_per_anchor."):
        return float(per_anchor.get(metric.rsplit(".", 1)[1], 0.0))
    span, key = metric.rsplit(".", 1)
    layer, func = span.split(".", 1)
    if func not in tracer.TARGETS.get(layer, ()) and not func.startswith("cmd_"):
        raise KeyError(f"per-layer metric {metric} names no traced function")
    source = peaks if key == "peak_alloc_mb" else totals
    return float(source.get(span, {}).get(key, 0.0))


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pemix benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn termination into an exception, so running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "pemix" / "cli.py").is_file():
        print(f"error: no pemix sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs = WORKLOADS[args.workload][0](run_dir, args.seed)
        runner = Runner(run_dir, t0 + DEADLINE_S)
        if args.trace:
            values, outcomes, samples = traced(args.workload, args.seed, runner, inputs)
        else:
            values, outcomes, samples = end_to_end(args.workload, args.seed, args.seconds,
                                                   runner, inputs, t0)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in _benchmark()[section]}
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors = [e for o in outcomes for e in o.errors]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": {k: v for k, v in inputs.items() if k != "path"},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "samples": samples,
        "errors": errors,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1))
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
