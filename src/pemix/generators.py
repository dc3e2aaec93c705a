"""Reference signal generators: chaotic flows and a pure tone.

Both differential systems are integrated with the classical fixed-step
fourth-order Runge-Kutta scheme.  The delayed system interpolates its
delayed value linearly between grid points for the half-step stages,
which keeps the interpolation error below the scheme's own order for
the step sizes used here.  Sample ``n`` of an output series is the
state at time ``n * h`` after the skipped stretch.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .series import TimeSeries, _check_number

__all__ = [
    "LorenzParams",
    "MackeyGlassParams",
    "lorenz_trajectory",
    "lorenz_series",
    "mackey_glass_series",
    "sine_series",
]


@dataclass(frozen=True)
class LorenzParams:
    """Parameters for the three-variable convection flow.

    Defaults reproduce a strongly chaotic regime on a 0.005 time step from
    the initial state ``(x0, y0, z0)``.  ``skip`` discards that many leading
    samples while still returning ``steps`` samples in total.
    """

    a: float = 16.0
    b: float = 4.0
    r: float = 45.0
    x0: float = -13.0
    y0: float = -12.0
    z0: float = 52.0
    h: float = 0.005
    steps: int = 500_000
    skip: int = 0

    def __post_init__(self) -> None:
        _check_number("h", self.h, above=0)
        for name in ("a", "b", "r", "x0", "y0", "z0"):
            _check_number(name, getattr(self, name))
        _check_number("steps", self.steps, 1, integer=True)
        _check_number("skip", self.skip, 0, integer=True)


def lorenz_trajectory(params: LorenzParams) -> np.ndarray:
    """Integrate the flow; returns the full state as shape ``(steps, 3)``."""
    a, b, r, h = params.a, params.b, params.r, params.h
    half = h / 2.0
    sixth = h / 6.0
    x, y, z = float(params.x0), float(params.y0), float(params.z0)
    # Python floats keep numpy scalars out of the loop, and array('d')
    # stores each as 8 bytes rather than as a 32-byte float object; entry
    # i of each array is the state after i steps.
    xs, ys, zs = array("d", [x]), array("d", [y]), array("d", [z])
    for _ in range(params.skip + params.steps - 1):
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
        xs.append(x)
        ys.append(y)
        zs.append(z)
    _check_states(xs, ys, zs)
    skip = params.skip
    return np.column_stack([np.frombuffer(col, dtype=np.float64)[skip:] for col in (xs, ys, zs)])


def _check_states(*columns: array, history: int = 0) -> None:
    """Raise on the first step whose state is not finite.

    Entry ``history + i`` of each column is the state after ``i`` steps.
    """
    finite = np.logical_and.reduce([np.isfinite(np.frombuffer(c, np.float64)) for c in columns])
    if not finite.all():
        step = int(np.argmin(finite)) - history
        raise InvalidInputError(f"integration diverged at step {step}; try a smaller step h")


def lorenz_series(params: LorenzParams = LorenzParams()) -> TimeSeries:
    """First coordinate of the flow as a time series."""
    trajectory = lorenz_trajectory(params)
    return TimeSeries(
        values=np.ascontiguousarray(trajectory[:, 0]),
        spacing=params.h,
        unit="seconds",
        origin=params.skip * params.h,
    )


@dataclass(frozen=True)
class MackeyGlassParams:
    """Parameters for the delayed feedback system.

    The delay ``t0`` must be a positive integer multiple of the step ``h``.
    ``beta = 0`` is allowed; it reduces the system to pure exponential
    decay, which is useful as an analytic check.
    """

    beta: float = 0.2
    gamma: float = 0.1
    q: float = 10.0
    t0: float = 17.0
    x0: float = 1.2
    h: float = 0.1
    steps: int = 1_500_000
    skip: int = 0

    def __post_init__(self) -> None:
        _check_number("beta", self.beta, 0)
        for name in ("gamma", "q", "h", "t0"):
            _check_number(name, getattr(self, name), above=0)
        _check_number("x0", self.x0)
        # A negative delayed value to a non-integer power is complex.
        if self.x0 < 0.0 and not float(self.q).is_integer():
            raise InvalidInputError(f"x0 must be >= 0 unless q is an integer, got {self.x0}")
        # The history's feedback term beta * x0 / (1 + x0**q) is the first
        # one the integration takes.
        try:
            denominator = 1.0 + float(self.x0) ** float(self.q)
        except OverflowError:
            denominator = math.inf
        if denominator == 0.0 or not math.isfinite(denominator):
            raise InvalidInputError(
                "x0 and q must keep 1 + x0**q finite and nonzero, "
                f"got x0={self.x0}, q={self.q}"
            )
        _check_number("steps", self.steps, 1, integer=True)
        _check_number("skip", self.skip, 0, integer=True)
        ratio = self.t0 / self.h
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise InvalidInputError(
                f"delay {self.t0} must be an integer multiple of step {self.h}"
            )
        if self.delay_steps < 1:
            raise InvalidInputError(f"delay {self.t0} must be at least one step {self.h}")

    @property
    def delay_steps(self) -> int:
        return int(round(self.t0 / self.h))


def mackey_glass_series(params: MackeyGlassParams = MackeyGlassParams()) -> TimeSeries:
    """Integrate the delayed feedback system; returns the scalar state.

    History before time zero is the constant ``x0``.  Half-step stages
    read the delayed value as the average of the two bracketing grid
    values; both bracketing values are already known because the delay
    is at least one step.
    """
    beta, gamma, q, h = params.beta, params.gamma, params.q, params.h
    d = params.delay_steps
    half = h / 2.0
    sixth = h / 6.0
    x = float(params.x0)
    # xs[j] is the state at step j - d: d copies of x0 stand for the history.
    # Python floats keep numpy scalars out of the loop, and array('d')
    # stores each as 8 bytes rather than as a 32-byte float object.  The
    # delayed value and g at the next delayed point are carried over as
    # the next step's values at the current one.
    xs = array("d", [x]) * (d + 1)
    append = xs.append
    xd_now = x
    g_now = beta * x / (1.0 + x**q)
    try:
        for i in range(1, params.skip + params.steps):
            xd_next = xs[i]
            xd_half = 0.5 * (xd_now + xd_next)
            g_half = beta * xd_half / (1.0 + xd_half**q)
            g_next = beta * xd_next / (1.0 + xd_next**q)
            k1 = g_now - gamma * x
            k2 = g_half - gamma * (x + half * k1)
            k3 = g_half - gamma * (x + half * k2)
            k4 = g_next - gamma * (x + h * k3)
            x += sixth * (k1 + 2.0 * (k2 + k3) + k4)
            append(x)
            xd_now = xd_next
            g_now = g_next
    except (OverflowError, TypeError, ZeroDivisionError):
        # A delayed value's q-th power overflowed, went complex below zero,
        # or was -1 (a delayed value of -1 at an odd integer q); the step
        # that failed is recorded as not finite.
        append(math.nan)
    _check_states(xs, history=d)
    # The history and the skipped head are dropped in place, so no second
    # copy of the states is made and no unused head is kept alive.
    del xs[: d + params.skip]
    return TimeSeries(
        values=np.frombuffer(xs, dtype=np.float64),
        spacing=h,
        unit="seconds",
        origin=params.skip * h,
    )


def sine_series(amplitude: float, period_samples: int, n: int) -> TimeSeries:
    """Pure sinusoid sampled ``period_samples`` times per cycle.

    Raises:
        InvalidInputError: If the period is not an integer >= 4, the length
            is not a number >= one period, or the amplitude is not finite.
    """
    _check_number("period", period_samples, 4, integer=True)
    _check_number("n", n, period_samples)
    _check_number("amplitude", amplitude)
    t = np.arange(int(n), dtype=np.float64)
    values = amplitude * np.sin(2.0 * math.pi * t / float(period_samples))
    return TimeSeries(values=values, spacing=1.0, unit="samples", origin=0.0)
