"""Alternating-pairs benchmark of two commits, written as one JSON record.

Run from the repository root::

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --workload study-sweeps --seeds 301-310 --out BENCH_10.json

Both commits of this repository are exported with ``git archive`` into
``--work``, and each copy runs its own, unchanged ``bench/run.py`` for the
``run_seconds`` that ``BENCHMARK.json`` sets::

    python3 bench/run.py --workload W --seed S --seconds N --trace T

For every workload and seed the parent and the change run one after the
other, and the side that runs first alternates from seed to seed, so a
drift in the machine's speed falls on both sides alike.  The two commits
must hold identical ``bench/`` files and ``BENCHMARK.json``.

The record holds every result line (``runs``), and per workload and
end-to-end metric the median and quartiles of each side, the pairs the
change won or tied, the change of the median in percent and a verdict
(``summary``).  The verdict ``gain_shown`` holds when the change won at
least nine in ten pairs and its median beats the parent's by more than the
parent's interquartile range, so a gain stands out of the run-to-run
spread.  ``beyond_bound`` flags a change whose median is worse than the
parent's by more than the metric's ``bound`` in ``BENCHMARK.json``, taken
as a fraction of the parent's median: the benchmark counts that as a
regression.  ``--traced-seed`` adds one ``--trace 1`` run per side
(``traced_runs``).  The record is rewritten after every run, so an
interrupted run keeps what it measured.  The copies are removed at the
end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _seeds(text: str) -> list[int]:
    """``"301-305"`` or ``"1,4,9"`` as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def _checkout(work: Path, side: str, commit: str) -> Path:
    """The committed files of ``commit`` in a fresh ``work/side``."""
    path = work / side
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(path)], input=archive, check=True)
    return path


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def _rounded(quartiles: list[float]) -> dict[str, float]:
    q1, median, q3 = quartiles
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric: quartiles per side, pair wins, median change, verdicts.

    A metric without a ``bound`` is never ``beyond_bound``.
    """
    summary: dict[str, dict] = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = {s: p for s, p in pairs.items() if len(p) == 2}
        entry: dict[str, object] = {"seeds": sorted(pairs), "pairs": len(pairs)}
        if len(pairs) < 2:
            summary[workload] = entry
            continue
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            parent = [p["parent"][name]["value"] for p in pairs.values()]
            change = [p["change"][name]["value"] for p in pairs.values()]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
            ties = sum(c == p for p, c in zip(parent, change))
            before, after = _quartiles(parent), _quartiles(change)
            gain = (before[1] - after[1]) if lower else (after[1] - before[1])
            entry[name] = {
                "parent": _rounded(before),
                "change": _rounded(after),
                "change_wins": wins,
                "ties": ties,
                "median_change_pct": (
                    round(100.0 * (after[1] - before[1]) / before[1], 1) if before[1] else 0.0
                ),
                "gain_shown": 10 * wins >= 9 * len(pairs) and gain > before[2] - before[0],
                "beyond_bound": "bound" in metric and -gain > metric["bound"] * abs(before[1]),
            }
        summary[workload] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit the change is measured against")
    parser.add_argument("--change", required=True, help="commit under test")
    parser.add_argument("--workload", action="append", required=True,
                        help="workload of bench/run.py; repeat for several")
    parser.add_argument("--seeds", type=_seeds, required=True, help="'301-310' or '1,4,9'")
    parser.add_argument("--traced-seed", type=int, help="also run --trace 1 once per side")
    parser.add_argument("--out", type=Path, required=True, help="JSON record to write")
    parser.add_argument("--work", type=Path, help="checkout directory (default: .bench_build/pairs)")
    parser.add_argument("--what", default="", help="one line on what the change does")
    parser.add_argument("--claim", default="", help="the claim the runs test")
    args = parser.parse_args(argv)

    work = (args.work or ROOT / ".bench_build" / "pairs").resolve()
    work.mkdir(parents=True, exist_ok=True)
    commits = {side: _git("rev-parse", getattr(args, side)) for side in ("parent", "change")}
    if subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", commits["parent"],
                       commits["change"], "--", "bench", "BENCHMARK.json"]).returncode != 0:
        print("error: bench/ or BENCHMARK.json differs between the two commits", file=sys.stderr)
        return 2
    benchmark = json.loads(_git("show", f"{commits['change']}:BENCHMARK.json"))
    seconds, metrics = benchmark["run_seconds"], benchmark["end_to_end"]
    record: dict[str, object] = {
        "what": args.what,
        "parent": commits["parent"],
        "change": commits["change"],
        "command": f"python3 bench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {seconds} --trace 0 (traced runs: --trace 1)",
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, "
                f"Python {platform.python_version()}, numpy {numpy.__version__}",
        "method": "alternating pairs: for each workload and seed the parent and the change ran "
                  "one after the other, each in its own git archive copy with identical "
                  "bench/ files, the side that ran first alternating from seed to seed",
        "claim": args.claim,
        "summary": {},
        "runs": [],
        "traced_runs": [],
    }
    checkouts = {side: _checkout(work, side, commit) for side, commit in commits.items()}

    def measure(key: str, workload: str, seed: int, index: int, trace: int) -> None:
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            result = _run(checkouts[side], workload, seed, seconds, trace)
            record[key].append({"workload": workload, "seed": seed, "side": side,
                                "ran_first": order[0], "result": result})
            record["summary"] = summarize(record["runs"], metrics)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            wall = result["metrics"].get("wall_s", {}).get("value")
            print(f"{workload} seed {seed} {side}: correct={result['correct']} wall_s={wall}",
                  flush=True)

    try:
        for workload in args.workload:
            for index, seed in enumerate(args.seeds):
                measure("runs", workload, seed, index, 0)
            if args.traced_seed is not None:
                measure("traced_runs", workload, args.traced_seed, 0, 1)
    finally:
        for path in checkouts.values():
            shutil.rmtree(path, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
