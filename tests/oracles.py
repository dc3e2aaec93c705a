"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (nested loops,
exhaustive enumeration) and deliberately avoids the library's vectorized
code paths, so agreement between the two is meaningful.
"""

from __future__ import annotations

import csv
import itertools
import math
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from pemix.errors import InsufficientDataError, InvalidInputError
from pemix.mixing import ZERO_RBAR_TOL


def ranks_by_time(window) -> tuple[int, ...]:
    """Rank window values by pairwise comparison; earlier wins ties."""
    n = len(window)
    ranks = []
    for i in range(n):
        rank = 0
        for j in range(n):
            if window[j] < window[i]:
                rank += 1
            elif window[j] == window[i] and j < i:
                rank += 1
        ranks.append(rank)
    return tuple(ranks)


def lex_index_by_enumeration(ranks: tuple[int, ...]) -> int:
    """Position of a permutation in the sorted list of all permutations."""
    universe = sorted(itertools.permutations(range(len(ranks))))
    return universe.index(tuple(ranks))


def pattern_tally(values, ell: int, tau: int, start: int = 0, end: int | None = None):
    """Dict of pattern -> count over windows starting in [start, end)."""
    if end is None:
        end = len(values)
    span = (ell - 1) * tau
    tally: dict[tuple[int, ...], int] = {}
    n_windows = 0
    for n in range(start, end - span):
        window = [values[n + i * tau] for i in range(ell)]
        key = ranks_by_time(window)
        tally[key] = tally.get(key, 0) + 1
        n_windows += 1
    return tally, n_windows


def entropy_from_tally(tally: dict, n_windows: int, ell: int) -> float:
    h = 0.0
    for count in tally.values():
        p = count / n_windows
        h -= p * math.log(p)
    return h / math.log(math.factorial(ell))


def footrule(perm, reference) -> int:
    return int(sum(abs(int(a) - int(b)) for a, b in zip(perm, reference)))


def max_footrule(tau_min: int, tau_max: int) -> int:
    """Largest footrule distance to the identity, by full enumeration."""
    reference = list(range(tau_min, tau_max + 1))
    best = 0
    for perm in itertools.permutations(reference):
        best = max(best, footrule(perm, reference))
    return best


def reversal_score(pe_by_tau) -> float:
    """One anchor's score: strides sorted by (entropy, stride), footrule to
    the ascending order over the largest footrule of the range."""
    taus = sorted(pe_by_tau)
    order = sorted(taus, key=lambda t: (pe_by_tau[t], t))
    return footrule(order, taus) / max_footrule(taus[0], taus[-1])


def exact_scores(pe, tau_min: int = 1) -> list[Fraction]:
    """Each anchor's score of a (strides, anchors) entropy matrix as an
    exact fraction: footrule to the ascending order over the largest one."""
    pe = np.asarray(pe)
    taus = list(range(tau_min, tau_min + pe.shape[0]))
    lam = max_footrule(taus[0], taus[-1])
    scores = []
    for i in range(pe.shape[1]):
        order = sorted(taus, key=lambda t: (pe[t - tau_min, i], t))
        scores.append(Fraction(footrule(order, taus), lam))
    return scores


def exact_mean(fractions) -> float:
    """The mean of exact fractions, rounded once to the nearest double."""
    return float(sum(fractions, Fraction(0)) / len(fractions))


def exact_sliding_means(fractions, window: int, hop: int = 1):
    """:func:`exact_mean` of each window of ``window`` fractions, stepping by ``hop``."""
    starts = range(0, len(fractions) - window + 1, hop)
    return np.asarray([exact_mean(fractions[i : i + window]) for i in starts])


def recommend_bin_size(bin_sizes, r_bars) -> tuple[int, bool]:
    """``(recommended size, achieved zero)`` of a sweep, pair by pair.

    The smallest size whose score is at most ``ZERO_RBAR_TOL``; otherwise
    the first local minimum over the finite scores, a run of equal scores
    counting once by its smallest size and the ends counting as higher.
    """
    pairs = [(int(j), float(r)) for j, r in zip(bin_sizes, r_bars) if math.isfinite(r)]
    if not pairs:
        raise InsufficientDataError("no bin size left enough data to score")
    for j, r in pairs:
        if r <= ZERO_RBAR_TOL:
            return j, True
    runs: list[tuple[int, float]] = []
    for j, r in pairs:
        if not runs or runs[-1][1] != r:
            runs.append((j, r))
    for idx, (j, r) in enumerate(runs):
        below_prev = idx == 0 or runs[idx - 1][1] > r
        below_next = idx == len(runs) - 1 or runs[idx + 1][1] > r
        if below_prev and below_next:
            return j, False
    raise AssertionError("a finite sequence always has a first local minimum")


def bin_means(values, j: int):
    out = []
    for b in range(len(values) // j):
        out.append(float(np.mean(values[b * j : (b + 1) * j])))
    return np.asarray(out)


def clipped_window_stats(values, n: int, k: int) -> tuple[float, float]:
    lo = max(n - k, 0)
    hi = min(n + k, len(values) - 1)
    window = np.asarray(values[lo : hi + 1], dtype=np.float64)
    mu = float(np.mean(window))
    sigma = float(np.std(window, ddof=1)) if window.shape[0] > 1 else 0.0
    return mu, sigma


def ansatz_moments(values, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Clipped-window means and sample deviations of every point, with the
    full windows summarized over the whole series in one pass: the values
    that ``mixing_ansatz``'s row blocks must reproduce bit for bit."""
    x = np.asarray(values, dtype=np.float64)
    n = x.shape[0]
    mu = x.copy()
    sigma = np.zeros(n)
    if k:
        windows = np.lib.stride_tricks.sliding_window_view(x, 2 * k + 1)
        mu[k : n - k] = windows.mean(axis=-1)
        sigma[k : n - k] = windows.std(axis=-1, ddof=1)
        for i in range(k):
            mu[i], sigma[i] = x[: i + k + 1].mean(), x[: i + k + 1].std(ddof=1)
            right = x[n - 1 - i - k :]
            mu[n - 1 - i], sigma[n - 1 - i] = right.mean(), right.std(ddof=1)
    return mu, sigma


def clipped_median(values, n: int, half: int) -> float:
    lo = max(n - half, 0)
    hi = min(n + half, len(values) - 1)
    return float(np.median(np.asarray(values[lo : hi + 1], dtype=np.float64)))


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Plain bisection; assumes a sign change on [lo, hi]."""
    flo = f(lo)
    assert flo * f(hi) < 0, "no sign change on the bracket"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < tol or hi - lo < tol:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def gap_report(values, suspect) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """Missing and suspect counts and the inclusive gap spans, point by point.

    A point is suspect where the bool mask ``suspect`` is True and missing
    where it is otherwise non-finite.
    """
    n_missing = n_suspect = 0
    spans = []
    start = None
    for i, (value, flag) in enumerate(zip(values, suspect)):
        if flag:
            n_suspect += 1
        elif not math.isfinite(value):
            n_missing += 1
        else:
            if start is not None:
                spans.append((start, i - 1))
                start = None
            continue
        if start is None:
            start = i
    if start is not None:
        spans.append((start, len(values) - 1))
    return n_missing, n_suspect, tuple(spans)


def _record_time(cell: str, lineno: int) -> float:
    text = cell.strip()
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if math.isfinite(value):
            return value
        raise InvalidInputError(f"row {lineno}: time {cell!r} is not finite")
    try:
        stamp = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise InvalidInputError(
            f"row {lineno}: cannot parse time {cell!r} as a number or ISO-8601 timestamp"
        ) from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def _record_value(cell: str) -> float:
    try:
        value = float(cell.strip())
    except ValueError:
        return math.nan
    return value if math.isfinite(value) else math.nan


def _record_column(selector, header, kind: str) -> int:
    if isinstance(selector, (int, np.integer)):
        if selector < 0:
            raise InvalidInputError(f"{kind}_column must be an integer >= 0, got {selector}")
        return int(selector)
    if header is None:
        raise InvalidInputError(
            f"{kind} column {selector!r} given by name but the file has no header row"
        )
    if selector not in header:
        raise InvalidInputError(f"{kind} column {selector!r} not found in header {header}")
    return header.index(selector)


def _is_header_row(cells: list[str], time_column) -> bool:
    if isinstance(time_column, (int, np.integer)) and 0 <= time_column < len(cells):
        try:
            _record_time(cells[time_column], 0)
            return False
        except InvalidInputError:
            pass
    for cell in cells:
        try:
            float(cell.strip())
            return False
        except ValueError:
            continue
    return True


def load_records(path, time_column=0, value_column=1, header_policy="auto"):
    """``load_csv`` one line at a time: a list of ``(time, value)`` tuples.

    Each line is stripped, skipped when blank or a ``#`` comment, split by
    ``csv`` when it holds a comma and on whitespace otherwise; every time
    cell goes through ``float`` or ``datetime.fromisoformat``.
    """
    if header_policy not in ("auto", "skip", "none"):
        raise InvalidInputError(
            f"header_policy must be 'auto', 'skip' or 'none', got {header_policy!r}"
        )
    records = []
    header = None
    t_idx = v_idx = None
    prev_time = -math.inf
    prev_row = -1
    with open(path, "r", encoding="utf-8", errors="replace") as stream:
        seen_rows = 0
        for lineno, raw in enumerate(stream, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = next(csv.reader([line])) if "," in line else line.split()
            seen_rows += 1
            if seen_rows == 1:
                is_header = header_policy == "skip" or (
                    header_policy == "auto" and _is_header_row(cells, time_column)
                )
                if is_header:
                    header = [c.strip() for c in cells]
                    continue
            if t_idx is None:
                t_idx = _record_column(time_column, header, "time")
                v_idx = _record_column(value_column, header, "value")
            if len(cells) <= max(t_idx, v_idx):
                raise InvalidInputError(
                    f"row {lineno}: expected at least {max(t_idx, v_idx) + 1} "
                    f"columns, got {len(cells)}"
                )
            t = _record_time(cells[t_idx], lineno)
            if t < prev_time:
                raise InvalidInputError(
                    f"row {lineno}: time {cells[t_idx].strip()!r} is earlier than "
                    f"the previous row (row {prev_row}); input must be sorted"
                )
            prev_time = t
            prev_row = lineno
            records.append((t, _record_value(cells[v_idx])))
    if not records:
        raise InsufficientDataError(f"{path}: no usable data rows")
    return records


def mackey_glass_values(params) -> np.ndarray:
    """Delayed-feedback RK4 written into a numpy array, every g recomputed."""
    beta, gamma, q, h = params.beta, params.gamma, params.q, params.h
    x0 = params.x0
    d = params.delay_steps
    half = h / 2.0
    sixth = h / 6.0
    skip, steps = params.skip, params.steps
    total = skip + steps
    xs = np.empty(total, dtype=np.float64)
    x = float(x0)
    for i in range(total):
        xs[i] = x
        if i == total - 1:
            break
        m = i - d
        xd_now = xs[m] if m >= 0 else x0
        xd_next = xs[m + 1] if m + 1 >= 0 else x0
        xd_half = 0.5 * (xd_now + xd_next)
        g_now = beta * xd_now / (1.0 + xd_now**q)
        g_half = beta * xd_half / (1.0 + xd_half**q)
        g_next = beta * xd_next / (1.0 + xd_next**q)
        k1 = g_now - gamma * x
        k2 = g_half - gamma * (x + half * k1)
        k3 = g_half - gamma * (x + half * k2)
        k4 = g_next - gamma * (x + h * k3)
        x += sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return xs[skip:].copy()


def entropy_fsum(counts, ell: int) -> float:
    """Normalized entropy of one row of pattern counts: ``math.fsum`` of the
    ``-p * log(p)`` of its nonzero cells, the correctly rounded sum, over
    ``log(ell!)``, capped at 1."""
    p = counts[counts > 0] / counts.sum()
    h = math.fsum((-(p * np.log(p))).tolist()) / math.log(math.factorial(ell))
    return min(h + 0.0, 1.0)


def sliding_entropy_fsum(codes, anchors, window: int, ell: int, span: int) -> np.ndarray:
    """:func:`entropy_fsum` of every anchored window's own full count row.

    Anchors go in chunks of at most 2,000,000 // max(ell!, hop); per chunk
    two ``bincount`` calls tally the entering and leaving codes of every
    anchor, the first row is seeded with its window's tally, and a
    ``cumsum`` turns differences into counts.
    """
    nfact = math.factorial(ell)
    per_window = window - span
    hop = int(anchors[1] - anchors[0]) if anchors.shape[0] > 1 else 1
    out = np.empty(anchors.shape[0], dtype=np.float64)
    chunk = max(2_000_000 // max(nfact, hop), 1)
    for s in range(0, anchors.shape[0], chunk):
        rows = min(chunk, anchors.shape[0] - s)
        head = int(anchors[s]) - span + 1
        tail = head - per_window
        moved = (rows - 1) * hop
        offsets = np.repeat(np.arange(nfact, rows * nfact, nfact), hop)
        counts = np.bincount(offsets + codes[head : head + moved], minlength=rows * nfact)
        counts -= np.bincount(offsets + codes[tail : tail + moved], minlength=rows * nfact)
        counts[:nfact] = np.bincount(codes[tail:head], minlength=nfact)
        counts = counts.reshape(rows, nfact)
        np.cumsum(counts, axis=0, out=counts)
        out[s : s + rows] = [entropy_fsum(row, ell) for row in counts]
    return out


def lorenz_values(params) -> np.ndarray:
    """Lorenz RK4 with every step stored into a ``(steps, 3)`` numpy array."""
    a, b, r, h = params.a, params.b, params.r, params.h
    half = h / 2.0
    sixth = h / 6.0
    skip, steps = params.skip, params.steps
    total = skip + steps
    out = np.empty((steps, 3), dtype=np.float64)
    x, y, z = float(params.x0), float(params.y0), float(params.z0)
    for i in range(total):
        if i >= skip:
            row = i - skip
            out[row, 0] = x
            out[row, 1] = y
            out[row, 2] = z
        if i == total - 1:
            break
        k1x = a * (y - x)
        k1y = x * (r - z) - y
        k1z = x * y - b * z
        x2 = x + half * k1x
        y2 = y + half * k1y
        z2 = z + half * k1z
        k2x = a * (y2 - x2)
        k2y = x2 * (r - z2) - y2
        k2z = x2 * y2 - b * z2
        x3 = x + half * k2x
        y3 = y + half * k2y
        z3 = z + half * k2z
        k3x = a * (y3 - x3)
        k3y = x3 * (r - z3) - y3
        k3z = x3 * y3 - b * z3
        x4 = x + h * k3x
        y4 = y + h * k3y
        z4 = z + h * k3z
        k4x = a * (y4 - x4)
        k4y = x4 * (r - z4) - y4
        k4z = x4 * y4 - b * z4
        x += sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y += sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z += sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
    return out


def write_series_rows(stream, series, metadata=None) -> None:
    """Series table written one ``repr``-formatted row at a time."""
    stream.write("# pemix-series v1\n")
    header = {"spacing": repr(series.spacing), "unit": series.unit, "origin": repr(series.origin)}
    for key, value in (metadata or {}).items():
        header[str(key)] = value
    for key, value in header.items():
        stream.write(f"# {key}: {value}\n")
    stream.write("time,value\n")
    times = series.times()
    for i in range(len(series)):
        stream.write(f"{float(times[i])!r},{float(series.values[i])!r}\n")


def write_trace_rows(stream, traces, metadata) -> None:
    """Trace table written one row at a time from the trace matrix."""
    stream.write("# pemix-traces v1\n")
    for key, value in metadata.items():
        stream.write(f"# {key}: {value}\n")
    taus = [int(t) for t in traces.taus]
    stream.write("anchor," + ",".join(f"pe_tau{t}" for t in taus) + "\n")
    matrix = traces.traces
    for i in range(traces.anchors.shape[0]):
        row = ",".join(repr(float(matrix[k, i])) for k in range(len(taus)))
        stream.write(f"{int(traces.anchors[i])},{row}\n")


def write_reversal_rows(stream, rev, metadata) -> None:
    """Reversal table written one row at a time."""
    stream.write("# pemix-reversal v1\n")
    for key, value in metadata.items():
        stream.write(f"# {key}: {value}\n")
    stream.write("anchor,reversal\n")
    for i in range(len(rev)):
        stream.write(f"{int(rev.anchors[i])},{float(rev.r_values[i])!r}\n")
