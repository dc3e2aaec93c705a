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
