"""The alternating-pairs benchmark tool: seed lists and the per-workload summary."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "ok_frac", "better": "higher"}]


def run(seed, side, wall, ok=1.0):
    metrics = {"wall_s": {"value": wall}, "ok_frac": {"value": ok}}
    return {"workload": "w", "seed": seed, "side": side, "result": {"metrics": metrics}}


def test_seed_ranges_and_lists():
    assert bench_pairs._seeds("301-303,7") == [301, 302, 303, 7]
    assert bench_pairs._seeds("5") == [5]


def test_summary_counts_wins_by_each_metric_direction():
    runs = [
        run(1, "parent", 2.0), run(1, "change", 1.0),
        run(2, "change", 3.0, ok=0.5), run(2, "parent", 2.0),
        run(3, "parent", 4.0), run(3, "change", 4.0),
        run(4, "parent", 6.0),  # no change side yet: not a pair
    ]
    entry = bench_pairs.summarize(runs, METRICS)["w"]
    assert (entry["seeds"], entry["pairs"]) == ([1, 2, 3], 3)
    wall = entry["wall_s"]
    assert (wall["change_wins"], wall["ties"]) == (1, 1)
    assert wall["parent"] == {"median": 2.0, "q1": 2.0, "q3": 3.0}
    assert wall["change"] == {"median": 3.0, "q1": 2.0, "q3": 3.5}
    assert wall["median_change_pct"] == 50.0
    ok = entry["ok_frac"]
    assert (ok["change_wins"], ok["ties"]) == (0, 2)


def ten_pairs(parent, change, ok=(1.0, 1.0)):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [run(seed, "parent", p, ok=ok[0]), run(seed, "change", c, ok=ok[1])]
    return bench_pairs.summarize(runs, METRICS)["w"]


def test_gain_shown_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parent_iqr():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # IQR 0.9
    faster = [p - 1.0 for p in parent]
    assert ten_pairs(parent, faster)["wall_s"]["gain_shown"] is True
    # Nine wins are enough; eight are not.
    assert ten_pairs(parent, faster[:9] + [12.0])["wall_s"]["gain_shown"] is True
    assert ten_pairs(parent, faster[:8] + [12.0, 12.0])["wall_s"]["gain_shown"] is False
    # Ten wins by less than the parent's spread show no gain.
    closer = [p - 0.5 for p in parent]
    assert ten_pairs(parent, closer)["wall_s"]["gain_shown"] is False
    # Ties show no gain, and a higher-is-better metric needs a rise.
    assert ten_pairs(parent, faster)["ok_frac"]["gain_shown"] is False
    assert ten_pairs(parent, faster, ok=(0.5, 0.9))["ok_frac"]["gain_shown"] is True
    assert ten_pairs(parent, faster, ok=(0.9, 0.5))["ok_frac"]["gain_shown"] is False


def test_beyond_bound_flags_a_median_worse_than_the_bound_times_the_parent_median():
    bounded = [{**METRICS[0], "bound": 0.25}, {**METRICS[1], "bound": 0.01}]

    def entry(parent, change, ok, metrics=bounded):
        runs = []
        for seed, (p, c) in enumerate(zip(parent, change)):
            runs += [run(seed, "parent", p, ok=ok[0]), run(seed, "change", c, ok=ok[1])]
        return bench_pairs.summarize(runs, metrics)["w"]

    parent = [1.8, 2.0, 2.2, 2.0]  # median 2.0: the bound allows up to 2.5
    at_bound = entry(parent, [2.3, 2.5, 2.7, 2.5], ok=(1.0, 0.995))
    assert at_bound["wall_s"]["beyond_bound"] is False
    assert at_bound["ok_frac"]["beyond_bound"] is False
    beyond = entry(parent, [2.3, 2.6, 2.7, 2.6], ok=(1.0, 0.98))
    assert beyond["wall_s"]["beyond_bound"] is True
    assert beyond["ok_frac"]["beyond_bound"] is True
    # A better median is never beyond, and a metric without a bound is never flagged.
    assert entry(parent, [1.0] * 4, ok=(0.5, 1.0))["wall_s"]["beyond_bound"] is False
    assert entry(parent, [9.0] * 4, ok=(1.0, 0.5), metrics=METRICS)["wall_s"]["beyond_bound"] is False
