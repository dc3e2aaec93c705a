"""The output comparison of ``tools/same_outputs.py`` on small trees."""

import importlib.util
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))  # the tool imports ``bench_pairs`` beside it
_spec = importlib.util.spec_from_file_location("same_outputs", TOOLS / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_lists_differing_and_missing_files_but_not_volatile_lines(tmp_path):
    parent = tree(tmp_path / "parent", {
        "pe.csv": "# created: 2026-01-01T00:00:00+00:00\n# input_sha256: aa\nanchor\n1\n",
        "lorenz/summary.json": '{\n  "runtime_seconds": 1.5,\n  "all_pass": true\n}\n',
        "sweep.csv": "bin_size\n3,nan,false\n",
        "gone.csv": "x\n",
    })
    change = tree(tmp_path / "change", {
        "pe.csv": "# created: 2026-06-30T12:00:00+00:00\n# input_sha256: bb\nanchor\n1\n",
        "lorenz/summary.json": '{\n  "runtime_seconds": 2.25,\n  "all_pass": true\n}\n',
        "sweep.csv": "bin_size\n3,0.0,false\n",
        "clean.csv.report.json": '{\n  "output": "/elsewhere/clean.csv"\n}\n',
    })
    assert same_outputs.compare(parent, change) == [
        "missing on the parent side: clean.csv.report.json",
        "missing on the change side: gone.csv",
        "differs: sweep.csv",
    ]
    assert same_outputs.compare(parent, parent) == []


def test_numeric_tables_report_changed_cells_and_ulps_per_column(tmp_path):
    parent = tree(tmp_path / "parent", {
        "pe.csv": "# pemix-traces v1\nanchor,pe_tau1,pe_tau2\n4,0.5,0.75\n5,0.25,1e-300\n",
        "sweep.csv": "bin_size,r_bar,sufficient\n1,0.5,true\n",
        "short.csv": "anchor,pe_tau1\n4,0.5\n",
    })
    change = tree(tmp_path / "change", {
        # pe_tau1 moves by one ulp, pe_tau2 by three ulps and by one.
        "pe.csv": "# pemix-traces v1\nanchor,pe_tau1,pe_tau2\n"
                  "4,0.5000000000000001,0.7500000000000003\n5,0.25,1.0000000000000002e-300\n",
        "sweep.csv": "bin_size,r_bar,sufficient\n1,0.25,true\n",
        "short.csv": "anchor,pe_tau1\n4,0.5\n5,0.5\n",
    })
    # The problems and so the exit status are as before.
    assert same_outputs.compare(parent, change) == [
        "differs: pe.csv", "differs: short.csv", "differs: sweep.csv",
    ]
    assert same_outputs.last_bits(parent / "pe.csv", change / "pe.csv") == (
        "  3 of 6 cells changed; largest ulp distance per column: anchor 0, pe_tau1 1, pe_tau2 3"
    )
    assert same_outputs.last_bits(parent / "sweep.csv", change / "sweep.csv") is None
    assert same_outputs.last_bits(parent / "short.csv", change / "short.csv") is None
