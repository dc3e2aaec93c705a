"""Acceptance suite: the headline behaviors the package promises.

Each test here covers one stated requirement end to end, at the data
scales the requirement names. A summary block at the end of the pytest
run lists each one with PASS or FAIL (see conftest.py). Seeds are fixed
so every run sees the same data.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from pemix import (
    LorenzParams,
    MackeyGlassParams,
    PEConfig,
    PETraceSet,
    TimeSeries,
    bin_average,
    bin_sweep,
    global_pe,
    lambda_for_range,
    lorenz_series,
    mackey_glass_series,
    mixing_ansatz,
    multi_tau_pe,
    pattern_distribution,
    permutation_entropy,
    read_series_csv,
    reversal_series,
    sine_series,
    windowed_pe,
)
from pemix.cli import main as cli_main

from oracles import entropy_from_tally, footrule, max_footrule, pattern_tally

pytestmark = pytest.mark.acceptance

ZERO = 1e-12


@pytest.fixture(scope="module")
def config():
    return PEConfig()


@pytest.fixture(scope="module")
def lorenz_full():
    return lorenz_series(LorenzParams())


@pytest.fixture(scope="module")
def lorenz_desk():
    return lorenz_series(LorenzParams(steps=100_000))


@pytest.fixture(scope="module")
def mg_desk():
    return mackey_glass_series(MackeyGlassParams(steps=300_000))


def rbar_of(series, config):
    return reversal_series(multi_tau_pe(series, config)).r_bar


def test_a1_lorenz_baseline_keeps_stride_order(config, lorenz_desk):
    # Full-length run: every window must show strictly normal ordering,
    # and the whole pipeline has to finish comfortably within a minute.
    started = time.perf_counter()
    series = lorenz_series(LorenzParams())
    rev = reversal_series(multi_tau_pe(series, config))
    elapsed = time.perf_counter() - started
    assert rev.r_bar == 0.0, f"full-length mean reversal is {rev.r_bar}, want 0.0"
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s, want under a minute"
    # Shorter run for laptops without patience: small tolerance.
    desk_rbar = rbar_of(lorenz_desk, config)
    assert desk_rbar <= 0.02, f"short-run mean reversal is {desk_rbar}, want <= 0.02"


def test_a2_mixing_surrogate_reverses_order(config, lorenz_full):
    for seed in (11, 23, 37, 53, 71):
        mixed = mixing_ansatz(lorenz_full, k=3, seed=seed)
        rev = reversal_series(multi_tau_pe(mixed, config))
        frac_full = float(np.mean(rev.r_values == 1.0))
        assert rev.r_bar >= 0.98, f"seed {seed}: mean reversal {rev.r_bar} < 0.98"
        assert frac_full >= 0.95, (
            f"seed {seed}: only {frac_full:.3f} of anchors fully reversed, want >= 0.95"
        )


def test_a3_bin_sweep_finds_mixing_scale(config, lorenz_full):
    mixed = mixing_ansatz(lorenz_full, k=3, seed=11)
    sweep = bin_sweep(mixed, range(1, 11), config)
    assert 2 <= sweep.recommended_j <= 4, (
        f"recommended bin {sweep.recommended_j}, want 3 +- 1"
    )
    assert sweep.achieved_zero, "sweep should find a bin size with zero reversal"
    binned = bin_average(mixed, sweep.recommended_j)
    restored = rbar_of(binned, config)
    assert restored <= ZERO, (
        f"rebinned mean reversal {restored}, want 0: binning at the detected "
        f"scale should restore the normal stride ordering"
    )


def test_a4_mackey_glass_raw_mixed_binned(config, mg_desk):
    raw = rbar_of(mg_desk, config)
    assert raw <= 0.02, f"raw mean reversal {raw}, want <= 0.02"
    mixed = mixing_ansatz(mg_desk, k=4, seed=11)
    reversed_rbar = rbar_of(mixed, config)
    assert reversed_rbar >= 0.98, f"mixed mean reversal {reversed_rbar}, want >= 0.98"
    sweep = bin_sweep(mixed, range(1, 13), config)
    binned = bin_average(mixed, sweep.recommended_j)
    restored = rbar_of(binned, config)
    assert restored <= 0.02, (
        f"binned (j={sweep.recommended_j}) mean reversal {restored}, want <= 0.02"
    )


def test_a5_recommended_bin_tracks_mixing_window(config, lorenz_desk, mg_desk):
    # The detected scale should be below the mixing window 2k+1 but on
    # the same order of magnitude, for both systems and a range of k.
    for name, series in (("lorenz", lorenz_desk), ("mackey-glass", mg_desk)):
        for k in (2, 3, 4, 5):
            mixed = mixing_ansatz(series, k=k, seed=17)
            sweep = bin_sweep(mixed, range(1, 2 * k + 3), config)
            window = 2 * k + 1
            assert sweep.recommended_j < window, (
                f"{name} k={k}: recommended bin {sweep.recommended_j} "
                f">= mixing window {window}"
            )
            assert sweep.recommended_j >= window / 10, (
                f"{name} k={k}: recommended bin {sweep.recommended_j} more than "
                f"an order of magnitude below mixing window {window}"
            )


def test_a6_fast_paths_match_reference_implementations():
    # Sliding-histogram windowed PE vs a naive per-window recomputation,
    # bit for bit, across random lengths, pattern sizes, and strides.
    rng = np.random.default_rng(42)
    for _ in range(100):
        ell = int(rng.integers(2, 5))
        tau = int(rng.integers(1, 7))
        span = (ell - 1) * tau + 1
        n = int(rng.integers(max(span + 5, 50), 1001))
        window = int(rng.integers(span, n + 1))
        hop = int(rng.integers(1, 20))
        values = rng.standard_normal(n)
        if rng.random() < 0.3:
            values = np.round(values, 1)  # force tie handling into play
        series = TimeSeries(values)
        config = PEConfig(ell=ell, window=window, tau_min=tau, tau_max=tau, hop=hop)
        trace = windowed_pe(series, config, tau)
        for anchor, fast in zip(config.anchor_grid(n), trace):
            dist = pattern_distribution(
                series, ell, tau, start=int(anchor) - window + 1,
                end=int(anchor) + 1,
            )
            slow = permutation_entropy(dist, ell)
            assert fast == slow, (
                f"window ending at {anchor} (ell={ell}, tau={tau}, "
                f"window={window}): fast {fast!r} != naive {slow!r}"
            )

    # Reversal scoring vs exhaustive enumeration over every permutation:
    # one anchor per permutation, whose entropies sort the strides into it.
    for m in range(2, 8):
        for tau_min in (1, 2):
            tau_max = tau_min + m - 1
            taus = tuple(range(tau_min, tau_max + 1))
            lam = lambda_for_range(tau_min, tau_max)
            assert lam == max_footrule(tau_min, tau_max), (
                f"m={m}: closed-form lambda {lam} != exhaustive maximum"
            )
            perms = list(itertools.permutations(taus))
            # pe[tau - tau_min, a] is the position of tau in perms[a].
            pe = np.argsort(np.asarray(perms) - tau_min, axis=1).T.astype(float)
            traces = PETraceSet(tau_min=tau_min, anchors=np.arange(len(perms)), traces=pe)
            scores = reversal_series(traces).r_values
            for perm, got in zip(perms, scores):
                want = footrule(perm, taus) / lam
                assert got == want, f"permutation {perm}: {got!r} != {want!r}"


def test_a7_entropy_bounds_and_invariances():
    rng = np.random.default_rng(7)
    # Bounds on arbitrary data.
    for _ in range(200):
        n = int(rng.integers(10, 400))
        values = rng.standard_normal(n) * float(rng.uniform(0.1, 100))
        pe = global_pe(TimeSeries(values), ell=3, tau=1)
        assert 0.0 <= pe <= 1.0, f"PE {pe} outside [0, 1]"
    # Zero for deterministic trends.
    assert global_pe(TimeSeries(np.arange(500.0)), ell=4, tau=1) == 0.0
    assert global_pe(TimeSeries(-np.arange(500.0)), ell=4, tau=1) == 0.0
    assert global_pe(TimeSeries(np.full(500, 3.25)), ell=4, tau=1) == 0.0
    # Invariance under strictly increasing transforms.
    base = rng.standard_normal(800)
    reference = global_pe(TimeSeries(base), ell=4, tau=2)
    for transform in (np.exp, lambda x: x**3, lambda x: 2.0 * x + 1.0):
        transformed = global_pe(TimeSeries(transform(base)), ell=4, tau=2)
        assert transformed == reference, (
            f"PE changed under a strictly increasing transform: "
            f"{transformed!r} != {reference!r}"
        )
    # Long i.i.d. noise is nearly maximal. The 0.999 floor was frozen
    # after a 20-seed survey whose worst case was 0.9999941.
    for seed in range(20):
        noise = TimeSeries(np.random.default_rng(seed).uniform(size=1_000_000))
        pe = global_pe(noise, ell=4, tau=1)
        assert pe >= 0.999, f"seed {seed}: PE {pe} < 0.999 on uniform noise"


def test_a8_cli_pipeline_on_raw_export(tmp_path, config, mg_desk):
    # Non-blocking stand-in for runs on downloaded instrument data: a
    # bundled-style export written to disk, then cleaned and analyzed
    # purely through the command line. The fixture is a mixed series
    # dressed up as a raw logger file (dropped rows, damaged cells).
    mixed = mixing_ansatz(TimeSeries(mg_desk.values[:60_000], spacing=10.0), k=3, seed=13)
    raw = tmp_path / "export.csv"
    with open(raw, "w", encoding="utf-8") as stream:
        stream.write("time,reading\n")
        for i, value in enumerate(mixed.values):
            if i % 997 == 500:
                continue  # dropped row
            cell = "NaN" if i % 1009 == 700 else repr(float(value))
            stream.write(f"{10.0 * i!r},{cell}\n")

    clean = tmp_path / "clean.csv"
    code = cli_main(
        ["ingest", "-i", str(raw), "--target-spacing", "10", "-o", str(clean)]
    )
    assert code == 0, "ingest should succeed on the raw export"
    report = json.loads(
        (tmp_path / "clean.csv.report.json").read_text(encoding="utf-8")
    )
    assert report["n_missing_filled"] > 0, "the dropped rows should be filled"

    pe_out = tmp_path / "pe.csv"
    assert cli_main(["pe", "-i", str(clean), "--hop", "50", "-o", str(pe_out)]) == 0
    rev_out = tmp_path / "rev.csv"
    assert cli_main(["reversal", "-i", str(pe_out), "-o", str(rev_out)]) == 0
    sweep_out = tmp_path / "sweep.csv"
    code = cli_main(
        ["binsweep", "-i", str(clean), "--j-max", "10", "--hop", "50",
         "-o", str(sweep_out)]
    )
    assert code == 0

    with open(clean, "r", encoding="utf-8") as stream:
        cleaned, _ = read_series_csv(stream)
    assert np.isfinite(cleaned.values).all()
    sweep_meta = {}
    with open(sweep_out, "r", encoding="utf-8") as stream:
        for line in stream:
            if line.startswith("#") and ":" in line:
                key, _, value = line[1:].partition(":")
                sweep_meta[key.strip()] = value.strip()
    assert int(sweep_meta["recommended_bin"]) > 1, (
        "the sweep should detect mixing in the cleaned export"
    )


def dense_sine_bracket(ell, cycles, n_windows):
    """Analytic bracket for the whole-series PE of a sine over whole cycles.

    Each cycle holds exactly ``2 * (ell - 2)`` non-monotone windows, one
    run of ``ell - 2`` around each turning point; every other window is
    rising or falling, each half the time up to a few windows. With
    ``q`` the non-monotone share, the entropy splits into the monotone
    part, ``-(1 - q) ln((1 - q) / 2)``, plus a non-monotone part between
    0 (all on one pattern) and ``-q ln(q / (ell! - 2))`` (spread evenly).
    """
    q = 2 * (ell - 2) * cycles / n_windows
    monotone = -(1.0 - q) * math.log((1.0 - q) / 2.0)
    norm = math.log(math.factorial(ell))
    low = (monotone - q * math.log(q)) / norm
    high = (monotone - q * math.log(q / (math.factorial(ell) - 2))) / norm
    return low, high


def test_a9_dense_sine_global_entropy():
    # Oversampling: a densely sampled smooth signal is almost all rising
    # and falling patterns, so its whole-series PE sits just above the
    # floor ln(2)/ln(ell!) that those two patterns alone contribute, and
    # approaches that floor as the sampling gets denser.
    ell, n = 4, 10_000
    floor = math.log(2) / math.log(math.factorial(ell))
    series = sine_series(1.0, 200, n)
    pe = global_pe(series, ell=ell, tau=1)
    tally, n_windows = pattern_tally(series.values, ell, 1)
    oracle = entropy_from_tally(tally, n_windows, ell)
    assert pe == oracle, f"global PE {pe!r} != naive tally {oracle!r}"

    values = []
    for period in (200, 1000, 10_000):
        pe = global_pe(sine_series(1.0, period, n), ell=ell, tau=1)
        low, high = dense_sine_bracket(ell, n // period, n - (ell - 1))
        assert low <= pe <= high, (
            f"period {period}: global PE {pe!r} outside the whole-cycle "
            f"bracket [{low:.5f}, {high:.5f}] for "
            f"{2 * (ell - 2)} non-monotone windows per cycle"
        )
        values.append(pe)
    assert values[0] > values[1] > values[2] > floor, (
        f"global PE at periods 200, 1000, 10000 is {values}; denser sampling "
        f"should bring it down toward the monotone floor "
        f"ln(2)/ln({ell}!) = {floor:.5f} without reaching it"
    )
