"""Seeded sensor-style export for the ``recording`` workload.

The export is the first coordinate of a Lorenz flow, mixed by the paper's
neighbourhood surrogate with half-width ``k = 3``, stamped on an exact
0.25 s grid in ISO-8601.  About 1% of interior rows are dropped and about
0.5% of the remaining interior value cells are made unparseable; the first
and last rows are always kept intact.  The counts of both are returned so
the benchmark can check the cleaning report against them.

The generator is the benchmark's own, so the input does not change when
the program's generators do.  Stamps carry no jitter: with jitter and
dropouts the median native spacing drifts above 0.25 s and ``ingest``
refuses the nominal spacing.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

ROWS = 300_000
SPACING_S = 0.25
MIX_K = 3
DROP_FRAC = 0.01
BAD_FRAC = 0.005
BAD_TOKENS = ("", "ERR", "n/a", "NaN", "-----", "inf")
EPOCH = datetime(2021, 3, 1, tzinfo=timezone.utc)


def lorenz_x(n: int, start: tuple[float, float, float], h: float = 0.005) -> np.ndarray:
    """First coordinate of the flow (a=16, b=4, r=45) by fourth-order Runge-Kutta."""
    a, b, r = 16.0, 4.0, 45.0
    half, sixth = h / 2.0, h / 6.0
    x, y, z = start
    out = [0.0] * n
    for i in range(n):
        out[i] = x
        k1x, k1y, k1z = a * (y - x), x * (r - z) - y, x * y - b * z
        x2, y2, z2 = x + half * k1x, y + half * k1y, z + half * k1z
        k2x, k2y, k2z = a * (y2 - x2), x2 * (r - z2) - y2, x2 * y2 - b * z2
        x3, y3, z3 = x + half * k2x, y + half * k2y, z + half * k2z
        k3x, k3y, k3z = a * (y3 - x3), x3 * (r - z3) - y3, x3 * y3 - b * z3
        x4, y4, z4 = x + h * k3x, y + h * k3y, z + h * k3z
        k4x, k4y, k4z = a * (y4 - x4), x4 * (r - z4) - y4, x4 * y4 - b * z4
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
    return np.asarray(out)


def mix(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian draw per point from the mean and deviation of its clipped
    ``2k + 1`` neighbourhood."""
    n = x.shape[0]
    mu = np.empty(n)
    sigma = np.empty(n)
    windows = np.lib.stride_tricks.sliding_window_view(x, 2 * k + 1)
    mu[k : n - k] = windows.mean(axis=-1)
    sigma[k : n - k] = windows.std(axis=-1, ddof=1)
    for i in range(k):
        for pos, part in ((i, x[: i + k + 1]), (n - 1 - i, x[n - 1 - i - k :])):
            mu[pos] = part.mean()
            sigma[pos] = part.std(ddof=1)
    return mu + sigma * rng.standard_normal(n)


def write_export(path: Path, seed: int) -> dict[str, int]:
    """Write the export for ``seed``; return its row, drop and bad-cell counts."""
    rng = np.random.default_rng([seed, 0x5E45])
    start = tuple(float(c) for c in np.array([-13.0, -12.0, 52.0]) + rng.uniform(-0.5, 0.5, 3))
    values = mix(lorenz_x(ROWS, start), MIX_K, rng)
    interior = np.zeros(ROWS, dtype=bool)
    interior[1:-1] = True
    dropped = interior & (rng.random(ROWS) < DROP_FRAC)
    bad = interior & ~dropped & (rng.random(ROWS) < BAD_FRAC)
    tokens = rng.integers(0, len(BAD_TOKENS), ROWS)
    step = timedelta(seconds=SPACING_S)
    lines = ["timestamp,value\n"]
    for i in np.flatnonzero(~dropped).tolist():
        stamp = (EPOCH + i * step).isoformat(timespec="milliseconds").replace("+00:00", "Z")
        cell = BAD_TOKENS[tokens[i]] if bad[i] else f"{values[i]:.5f}"
        lines.append(f"{stamp},{cell}\n")
    path.write_text("".join(lines), encoding="utf-8")
    return {"rows": ROWS, "dropped": int(dropped.sum()), "bad": int(bad.sum())}
