"""The benchmark's view of the program still finds everything it measures.

``bench/tracer.py`` wraps named functions of each layer from outside the
package; a target that is renamed or deleted is reported missing and its
per-layer metrics silently read 0.  These tests run the tracer over a
tiny pipeline that touches every target, so such a change fails here
instead.  They also check that every exported name resolves.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

import pemix

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def write_export(path):
    """A small ISO-stamped export with dropped rows and unparseable cells."""
    start = datetime(2021, 3, 1, tzinfo=timezone.utc)
    lines = ["timestamp,value"]
    for i in range(3000):
        if i % 97 == 50:
            continue
        stamp = (start + i * timedelta(seconds=0.25)).isoformat(timespec="milliseconds")
        cell = "ERR" if i % 101 == 70 else f"{(i * 7919) % 1000 / 100.0:.2f}"
        lines.append(f"{stamp.replace('+00:00', 'Z')},{cell}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Run the pipeline under the tracer; return span files and probe file."""
    work = tmp_path_factory.mktemp("bench_contract")
    env = {k: v for k, v in os.environ.items() if k != "PEMIX_OUT_DIR"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    write_export(work / "export.csv")
    pe = ["--window", "400", "--hop", "7"]
    steps = [
        ["generate", "sine", "--period", "50", "--n", "2000", "-o", "sine.csv"],
        ["generate", "mackey-glass", "--steps", "3000", "-o", "mg.csv"],
        ["generate", "lorenz", "--steps", "3000", "-o", "lorenz.csv"],
        ["ansatz", "-i", "lorenz.csv", "-k", "3", "--seed", "5", "-o", "mixed.csv"],
        ["pe", "-i", "mixed.csv", *pe, "-o", "traces.csv"],
        ["reversal", "-i", "traces.csv", "--window", "20", "--hop", "2", "-o", "rev.csv"],
        ["bin", "-i", "mixed.csv", "-j", "3", "-o", "binned.csv"],
        ["binsweep", "-i", "mixed.csv", "--j-max", "3", *pe, "-o", "sweep.csv"],
        ["ingest", "-i", "export.csv", "--target-spacing", "0.25", "-o", "clean.csv"],
    ]
    runs = [(f"{i}.json", ["--spans", f"{i}.json", "--", *argv]) for i, argv in enumerate(steps)]
    runs.append(("alloc.json", ["--spans", "alloc.json", "--alloc", "--", *steps[5]]))
    runs.append(("probe.json", ["--probe", "probe.json"]))
    for _, args in runs:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), *args],
            cwd=work, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, f"{args}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    spans = [work / name for name, _ in runs[:-2]]
    return spans, work / "alloc.json", work / "probe.json"


def test_every_tracer_target_is_found_and_recorded(traced):
    spans, alloc, _ = traced
    seen = set()
    for path in spans + [alloc]:
        record = json.loads(path.read_text())
        assert record["missing"] == [], f"{path.name}: missing targets {record['missing']}"
        seen.update(span["name"] for span in record["spans"])
    wanted = {f"{layer}.{func}" for layer, funcs in tracer.TARGETS.items() for func in funcs}
    assert wanted <= seen, f"targets never recorded: {sorted(wanted - seen)}"


def test_summarize_accepts_the_span_files(traced):
    spans, alloc, probe = traced
    totals = tracer.summarize(spans)
    assert totals["entropy.multi_tau_pe"]["windows"] > 0
    assert totals["ordinal.encode_patterns"]["patterns"] > 0
    assert totals["ingest.fill_gaps"]["filled"] > 0
    assert 0.0 < totals["entropy.multi_tau_pe"]["unique_frac"] <= 1.0
    assert tracer.summarize([alloc])["cli.read_trace_csv"]["peak_alloc_mb"] > 0.0
    assert set(json.loads(probe.read_text())) == {f"ell{e}" for e in tracer.PROBE_ELLS}


def test_pe_step_counts_one_window_per_anchor_and_stride(traced):
    spans, _, _ = traced
    record = json.loads(spans[4].read_text())  # the "pe" step
    calls = [span for span in record["spans"] if span["name"] == "entropy.multi_tau_pe"]
    assert len(calls) == 1
    # Anchors range(399, 3000, 7) at the six default strides: the counter
    # reads anchors x rows of the strides-first trace matrix.
    assert calls[0]["windows"] == len(range(399, 3000, 7)) * 6 == 372 * 6


def test_every_exported_name_resolves():
    for name in pemix.__all__:
        assert hasattr(pemix, name), f"pemix.__all__ names missing {name}"
    for info in pkgutil.iter_modules(pemix.__path__):
        module = importlib.import_module(f"pemix.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"


def _held(container, entered):
    """Each object held in ``container`` through nested dicts, lists, tuples
    and sets, once per place that holds it; each container is entered once."""
    if id(container) in entered:
        return
    entered.add(id(container))
    items = [*container.keys(), *container.values()] if isinstance(container, dict) else container
    for item in items:
        yield item
        if isinstance(item, (dict, list, tuple, set, frozenset)):
            yield from _held(item, entered)


def test_tracer_sees_every_binding_of_its_targets():
    # install() rebinds module attributes and refuses to run while a target
    # is left in a container that _bound_values yields; a target held any
    # deeper would go unwrapped, and its layer would silently read 0.
    for info in pkgutil.iter_modules(pemix.__path__):
        importlib.import_module(f"pemix.{info.name}")
    targets = {
        id(getattr(importlib.import_module(f"pemix.{layer}"), func)): f"{layer}.{func}"
        for layer, funcs in tracer.TARGETS.items()
        for func in funcs
    }
    found = set()
    for module in tracer._pemix_modules():
        held = Counter(id(v) for v in _held(vars(module), set()) if id(v) in targets)
        looked = Counter(id(v) for v in tracer._bound_values(module) if id(v) in targets)
        for key, count in held.items():
            found.add(targets[key])
            assert count <= looked[key], (
                f"{module.__name__} holds {targets[key]} where the tracer does not look"
            )
    assert found == set(targets.values())
