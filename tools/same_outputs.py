"""Check that two revisions write the same output files, byte for byte.

Run from the repository root::

    python3 tools/same_outputs.py --parent HEAD~1            # against the working tree
    python3 tools/same_outputs.py --parent HEAD~1 --change HEAD

The parent, and the change when ``--change`` is given, are exported with
``git archive`` into ``.bench_build/same-outputs``; without ``--change`` the
working tree's ``src/`` is run.  Each side runs, in its own output
directory:

* ``reproduce lorenz|mackey-glass|sweeps --scale desk`` at the default seed;
* ``generate sine`` at its defaults, with ``--amplitude 1e-6``, whose
  cells lie below ``1e-4``, and with ``--amplitude 1e20``, whose cells
  reach ``2**48`` and above and print in exponent form: both ends of the
  cells that the table writer formats with ``repr`` one at a time;
* ``generate lorenz`` and ``generate mackey-glass`` with ``--steps 20000``;
* on the generated Lorenz series, ``pe --ell 6 --window 3000``, with 720
  pattern codes, ``pe --ell 2 --window 3000 --hop 5``, whose windows
  each move five codes out and five in, ``pe --ell 5 --window 3000 --hop
  200``, whose windows move 400 events over 120 cells and so are counted
  row by row, and ``pe --window 3000 --hop 3000``, whose windows share no
  pattern;
* on the ``recording`` benchmark's seed-11 export
  (``bench/recording.py::write_export``), ``ingest --target-spacing 0.25``
  plain, with ``--fill none`` and with ``--prefilter moving_median
  --median-width 5``;
* on the plain ingested series, ``pe``, then ``reversal`` plain and with
  ``--window 5000``, ``pe --window 20000 --hop 3``, whose window is
  longer than a trace block and whose hop does not divide the block, so
  each block's windows start inside the one before, ``bin -j 3``, ``binsweep --j-max 40 --hop 100``,
  ``ansatz -k 0``, which draws nothing, and ``ansatz -k 3 --seed 7``,
  which draws one value per point;
* ``ansatz -k 3 --seed 7`` on the generated Lorenz series, then
  ``binsweep --window 3000 --hop 10`` on the mixed series with
  ``--j-max 2``, which recommends a size whose score is not zero, and with
  ``--j-max 8``, whose largest sizes leave too few points and write NaN
  rows: both branches of the bin-size rule, and its NaN rows.

That is 51 files on each side.  Both sides read the same export.  Then
every file is compared after dropping the lines that hold a timestamp, an
input digest, an output path or a run time.  The tool lists each command
that exited non-zero and each file that is missing on one side or
differs, and exits 1; it exits 0 when every command succeeded and every
file is the same.  Under a differing table whose data rows are numbers on
both sides, in the same shape, it also prints how many cells changed and
the largest distance per column in units in the last place (ulps), so a
change that moves only the last bits of some values shows as such.  The
copies are removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.util
import struct
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from bench_pairs import ROOT, _checkout, _git

# Lines whose content changes from run to run, or with the output directory.
VOLATILE = re.compile(rb'created|input_sha256|"output"|runtime_seconds')


def _runs(export: Path) -> list[list[str]]:
    """The ``pemix`` argument lists run on each side, in order."""
    ingest = ["ingest", "-i", str(export), "--target-spacing", "0.25"]
    runs = [["reproduce", target, "--scale", "desk", "--outdir", target]
            for target in ("lorenz", "mackey-glass", "sweeps")]
    return runs + [
        ["generate", "sine", "-o", "sine.csv"],
        ["generate", "sine", "--amplitude", "1e-6", "-o", "sine_small.csv"],
        ["generate", "sine", "--amplitude", "1e20", "-o", "sine_large.csv"],
        ["generate", "lorenz", "--steps", "20000", "-o", "lorenz.csv"],
        ["generate", "mackey-glass", "--steps", "20000", "-o", "mackey_glass.csv"],
        ["pe", "-i", "lorenz.csv", "--ell", "6", "--window", "3000", "-o", "pe_lorenz_ell6.csv"],
        ["pe", "-i", "lorenz.csv", "--ell", "2", "--window", "3000", "--hop", "5",
         "-o", "pe_lorenz_ell2_hop5.csv"],
        ["pe", "-i", "lorenz.csv", "--ell", "5", "--window", "3000", "--hop", "200",
         "-o", "pe_lorenz_ell5_hop200.csv"],
        ["pe", "-i", "lorenz.csv", "--window", "3000", "--hop", "3000",
         "-o", "pe_lorenz_hop3000.csv"],
        [*ingest, "-o", "clean.csv"],
        [*ingest, "--fill", "none", "-o", "clean_nofill.csv"],
        [*ingest, "--prefilter", "moving_median", "--median-width", "5", "-o", "clean_median.csv"],
        ["pe", "-i", "clean.csv", "-o", "pe.csv"],
        ["pe", "-i", "clean.csv", "--window", "20000", "--hop", "3", "-o", "pe_w20000_hop3.csv"],
        ["reversal", "-i", "pe.csv", "-o", "reversal.csv"],
        ["reversal", "-i", "pe.csv", "--window", "5000", "-o", "reversal_w5000.csv"],
        ["bin", "-i", "clean.csv", "-j", "3", "-o", "clean_j3.csv"],
        ["binsweep", "-i", "clean.csv", "--j-max", "40", "--hop", "100", "-o", "sweep.csv"],
        ["ansatz", "-i", "clean.csv", "-k", "0", "-o", "ansatz_k0.csv"],
        ["ansatz", "-i", "clean.csv", "-k", "3", "--seed", "7", "-o", "ansatz_k3.csv"],
        ["ansatz", "-i", "lorenz.csv", "-k", "3", "--seed", "7", "-o", "lorenz_k3.csv"],
        ["binsweep", "-i", "lorenz_k3.csv", "--j-max", "2", "--window", "3000", "--hop", "10",
         "-o", "sweep_lorenz_k3_j2.csv"],
        ["binsweep", "-i", "lorenz_k3.csv", "--j-max", "8", "--window", "3000", "--hop", "10",
         "-o", "sweep_lorenz_k3_j8.csv"],
    ]


def _run_side(side: str, src: Path, out: Path, export: Path) -> list[str]:
    """Run every command with the ``pemix`` under ``src``, writing into ``out``;
    return one line per command that failed."""
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "PEMIX_OUT_DIR"}
    env.update(PYTHONPATH=str(src), PYTHONHASHSEED="0")
    failed = []
    for argv in _runs(export):
        done = subprocess.run([sys.executable, "-m", "pemix.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        line = f"{side}: pemix {' '.join(argv)} exited {done.returncode}"
        print(line, flush=True)
        if done.returncode != 0:
            failed.append(f"{line}: {done.stderr.strip()[-500:]}")
    return failed


def _kept_lines(path: Path) -> list[bytes]:
    return [line for line in path.read_bytes().splitlines() if not VOLATILE.search(line)]


def compare(parent: Path, change: Path) -> list[str]:
    """One line per file under either directory that is missing or differs."""
    names = {p.relative_to(root) for root in (parent, change) for p in root.rglob("*")
             if p.is_file()}
    problems = []
    for name in sorted(names):
        sides = {"parent": parent / name, "change": change / name}
        missing = [side for side, path in sides.items() if not path.is_file()]
        if missing:
            problems.append(f"missing on the {missing[0]} side: {name}")
        elif _kept_lines(sides["parent"]) != _kept_lines(sides["change"]):
            problems.append(f"differs: {name}")
    return problems


def _cells(path: Path) -> tuple[list[str], list[list[float]]] | None:
    """The column names and numeric data rows of a table, or None when a
    data cell is not a number."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if line.strip() and not line.startswith("#")]
    if not lines:
        return None
    try:
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError:
        return None
    return lines[0].split(","), rows


def _ordered(x: float) -> int:
    """The double's bits as an integer that counts doubles in value order."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(1 << 63) - bits


def last_bits(parent: Path, change: Path) -> str | None:
    """How many cells of two numeric tables of one shape differ, and the
    largest ulp distance per column; None for any other pair of files."""
    sides = _cells(parent), _cells(change)
    if None in sides or sides[0][0] != sides[1][0]:
        return None
    (columns, old), (_, new) = sides
    if len(old) != len(new) or any(len(a) != len(b) for a, b in zip(old, new)):
        return None
    largest = dict.fromkeys(columns, 0)
    changed = cells = 0
    for row_old, row_new in zip(old, new):
        for name, a, b in zip(columns, row_old, row_new):
            cells += 1
            ulps = abs(_ordered(a) - _ordered(b))
            changed += ulps > 0
            largest[name] = max(largest[name], ulps)
    per_column = ", ".join(f"{name} {ulps}" for name, ulps in largest.items())
    return f"  {changed} of {cells} cells changed; largest ulp distance per column: {per_column}"


def _write_export(bench: Path, path: Path) -> None:
    spec = importlib.util.spec_from_file_location("recording", bench / "recording.py")
    recording = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recording)
    recording.write_export(path, 11)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="revision the change is checked against")
    parser.add_argument("--change", help="revision under check (default: the working tree)")
    args = parser.parse_args(argv)

    work = ROOT / ".bench_build" / "same-outputs"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        trees = {"parent": _checkout(work, "parent", _git("rev-parse", args.parent))}
        if args.change is None:
            trees["change"] = ROOT
        else:
            trees["change"] = _checkout(work, "change", _git("rev-parse", args.change))
        export = work / "export.csv"
        _write_export(trees["change"] / "bench", export)
        problems = []
        for side, tree in trees.items():
            problems += _run_side(side, tree / "src", work / f"out-{side}", export)
        problems += compare(work / "out-parent", work / "out-change")
        files = sum(1 for p in (work / "out-change").rglob("*") if p.is_file())
        notes = {}
        for problem in problems:
            if problem.startswith("differs: "):
                name = problem.removeprefix("differs: ")
                notes[problem] = last_bits(work / "out-parent" / name, work / "out-change" / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(problem)
        if notes.get(problem):
            print(notes[problem])
    print(f"{files} files compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
