"""Reference generators: integration accuracy and pinned analytics."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pemix import (
    InvalidInputError,
    LorenzParams,
    MackeyGlassParams,
    lorenz_series,
    lorenz_trajectory,
    mackey_glass_series,
    sine_series,
)

from oracles import bisect_root, lorenz_values, mackey_glass_values


class TestLorenz:
    def test_shapes_and_metadata(self):
        params = LorenzParams(steps=500)
        series = lorenz_series(params)
        trajectory = lorenz_trajectory(params)
        assert len(series) == 500
        assert trajectory.shape == (500, 3)
        np.testing.assert_array_equal(series.values, trajectory[:, 0])
        assert series.spacing == 0.005
        assert series.origin == 0.0

    def test_deterministic(self):
        a = lorenz_series(LorenzParams(steps=300)).values
        b = lorenz_series(LorenzParams(steps=300)).values
        np.testing.assert_array_equal(a, b)

    def test_skip_drops_leading_samples_exactly(self):
        full = lorenz_series(LorenzParams(steps=400))
        tail = lorenz_series(LorenzParams(steps=300, skip=100))
        np.testing.assert_array_equal(tail.values, full.values[100:])
        assert tail.origin == pytest.approx(100 * 0.005)

    def test_equilibrium_has_zero_derivative_and_stays_fixed(self):
        params = LorenzParams(steps=200)
        c = math.sqrt(params.b * (params.r - 1.0))
        state = (c, c, params.r - 1.0)
        x, y, z = state
        dx = params.a * (y - x)
        dy = x * (params.r - z) - y
        dz = x * y - params.b * z
        assert abs(dx) <= 1e-10
        assert abs(dy) <= 1e-10
        assert abs(dz) <= 1e-10
        trajectory = lorenz_trajectory(LorenzParams(x0=x, y0=y, z0=z, steps=200))
        drift = np.abs(trajectory - np.asarray(state)).max()
        assert drift <= 1e-9, f"equilibrium drifted by {drift}"

    def test_fourth_order_convergence(self):
        # Halving the step shrinks the endpoint error by about 2**4;
        # comparing against a quarter-step reference gives a ratio near 17.
        def endpoint(h):
            steps = int(round(0.4 / h)) + 1
            return lorenz_trajectory(LorenzParams(h=h, steps=steps))[-1]

        h = 0.004
        reference = endpoint(h / 4)
        e_coarse = np.abs(endpoint(h) - reference).max()
        e_fine = np.abs(endpoint(h / 2) - reference).max()
        ratio = e_coarse / e_fine
        assert 12.0 <= ratio <= 20.0, f"convergence ratio {ratio}"

    def test_stays_on_attractor(self):
        values = lorenz_series(LorenzParams(steps=20_000)).values
        assert np.isfinite(values).all()
        assert np.abs(values).max() < 60.0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            LorenzParams(h=0.0)
        with pytest.raises(InvalidInputError):
            LorenzParams(steps=0)

    @pytest.mark.parametrize("name, bad", [("steps", 10.5), ("skip", 0.5), ("steps", 1e3),
                                           ("skip", math.nan)])
    def test_steps_and_skip_must_be_integers(self, name, bad):
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= "):
            LorenzParams(**{"steps": 10, name: bad})

    @pytest.mark.parametrize("name", ["a", "b", "r", "x0", "y0", "z0"])
    def test_non_finite_parameter_is_named(self, name):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError, match=f"^{name} must be finite"):
                LorenzParams(**{name: bad})

    def test_diverging_step_is_named(self):
        # At h = 1 the state overflows within a few steps.  The error names
        # the first integration step whose state is not finite, counting
        # skipped steps, so a divergence inside the skipped head is caught.
        params = LorenzParams(h=1.0, steps=1000)
        first = np.flatnonzero(~np.isfinite(lorenz_values(params)).all(axis=1))[0]
        for skip in (0, 500):
            with pytest.raises(InvalidInputError, match=f"diverged at step {first};"):
                lorenz_trajectory(replace(params, skip=skip))

    @pytest.mark.parametrize(
        "params",
        [
            LorenzParams(steps=100_000),
            LorenzParams(steps=5000, skip=77),
            LorenzParams(steps=2, skip=3),
            LorenzParams(steps=1),
            LorenzParams(x0=-10.0, z0=40.5, h=0.001, steps=3000, skip=100),
        ],
        ids=["100k", "skip", "2-steps-skip", "1-step", "other-state"],
    )
    def test_bit_identical_to_array_loop(self, params):
        trajectory = lorenz_trajectory(params)
        expected = lorenz_values(params)
        assert trajectory.shape == expected.shape == (params.steps, 3)
        assert trajectory.dtype == np.float64
        np.testing.assert_array_equal(trajectory.view(np.int64), expected.view(np.int64))


class TestMackeyGlass:
    def test_shapes_and_metadata(self):
        series = mackey_glass_series(MackeyGlassParams(steps=400))
        assert len(series) == 400
        assert series.spacing == 0.1
        assert series.values[0] == 1.2

    def test_pure_decay_matches_closed_form(self):
        # With no feedback the dynamics reduce to dx/dt = -gamma*x, so
        # x(10) = 1.2 * exp(-1); sample 100 sits at t = 10.
        series = mackey_glass_series(MackeyGlassParams(beta=0.0, steps=200))
        expected = 1.2 * math.exp(-1.0)
        assert series.values[100] == pytest.approx(expected, abs=1e-9)

    def test_equilibrium_root_and_fixed_point(self):
        params = MackeyGlassParams(steps=5000)
        star = bisect_root(
            lambda x: params.beta * x / (1.0 + x**params.q) - params.gamma * x,
            0.5,
            1.5,
        )
        assert star == pytest.approx(1.0, abs=1e-9)
        held = mackey_glass_series(MackeyGlassParams(x0=star, steps=5000))
        assert np.abs(held.values - star).max() <= 1e-9

    def test_skip_drops_leading_samples_exactly(self):
        full = mackey_glass_series(MackeyGlassParams(steps=600))
        tail = mackey_glass_series(MackeyGlassParams(steps=400, skip=200))
        np.testing.assert_array_equal(tail.values, full.values[200:])

    def test_bounded_on_default_parameters(self):
        values = mackey_glass_series(MackeyGlassParams(steps=50_000)).values
        assert np.isfinite(values).all()
        assert values.min() > 0.0
        assert values.max() < 2.0

    @pytest.mark.parametrize(
        "params",
        [
            MackeyGlassParams(steps=300_000),
            MackeyGlassParams(steps=20_000, skip=500),
            MackeyGlassParams(steps=3),
            MackeyGlassParams(steps=200),
            MackeyGlassParams(steps=1),
            MackeyGlassParams(t0=0.1, steps=5000),
            MackeyGlassParams(t0=0.1, steps=50, skip=7),
            MackeyGlassParams(beta=0.0, steps=5000, skip=30),
        ],
        ids=["300k", "skip", "3-steps", "200-steps", "1-step", "delay-1", "delay-1-skip", "beta-0"],
    )
    def test_bit_identical_to_array_loop(self, params):
        series = mackey_glass_series(params)
        expected = mackey_glass_values(params)
        assert series.values.shape == expected.shape == (params.steps,)
        np.testing.assert_array_equal(series.values.view(np.int64), expected.view(np.int64))
        assert series.origin == params.skip * params.h

    def test_peak_memory_grows_by_a_few_bytes_per_step(self):
        peaks = {}
        for steps in (50_000, 200_000):
            tracemalloc.start()
            mackey_glass_series(MackeyGlassParams(steps=steps))
            peaks[steps] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        # 8 bytes per state in array('d'), which the output wraps without a
        # copy; a list of floats holds a 32-byte object and an 8-byte
        # pointer per state.
        grown = (peaks[200_000] - peaks[50_000]) / 150_000
        assert grown <= 12, f"{grown:.1f} bytes per step"

    def test_delay_must_be_step_multiple(self):
        with pytest.raises(InvalidInputError):
            MackeyGlassParams(t0=17.05, h=0.1)

    def test_delay_must_be_at_least_one_step(self):
        # 1e-10 / 0.1 is within the multiple tolerance of zero steps.
        with pytest.raises(InvalidInputError, match="at least one step"):
            MackeyGlassParams(t0=1e-10, h=0.1)

    def test_non_finite_x0_is_named(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InvalidInputError, match="^x0 must be finite"):
                MackeyGlassParams(x0=bad)

    def test_negative_x0_needs_an_integer_q(self):
        # A negative delayed value to the power 10.5 is complex.
        with pytest.raises(InvalidInputError, match="^x0 must be >= 0 unless q is an integer"):
            MackeyGlassParams(x0=-1.0, q=10.5)
        params = MackeyGlassParams(x0=-1.0, q=10.0, steps=1000)
        values = mackey_glass_series(params).values
        assert np.isfinite(values).all()
        np.testing.assert_array_equal(values.view(np.int64), mackey_glass_values(params).view(np.int64))

    @pytest.mark.parametrize("x0, q", [(-1.0, 1.0), (-1.0, 3.0), (1e40, 10.0), (2.0, 2000.0)])
    def test_feedback_at_x0_must_be_defined(self, x0, q):
        # 1 + x0**q is zero, or overflows, before the first step.
        with pytest.raises(InvalidInputError, match="^x0 and q must keep 1 \\+ x0\\*\\*q finite"):
            MackeyGlassParams(x0=x0, q=q)

    def test_diverging_step_is_named(self):
        # gamma * h = 4 is outside the scheme's stability range.  With q = 1
        # the state grows to inf and then nan without an exception on the way.
        params = MackeyGlassParams(gamma=40.0, q=1.0, steps=2000)
        with np.errstate(all="ignore"):
            first = np.flatnonzero(~np.isfinite(mackey_glass_values(params)))[0]
        for skip in (0, 1000):
            with pytest.raises(InvalidInputError, match=f"diverged at step {first};"):
                mackey_glass_series(replace(params, skip=skip))

    @pytest.mark.parametrize(
        "params",
        [
            MackeyGlassParams(h=50.0, t0=50.0, steps=1000),
            MackeyGlassParams(beta=200.0, gamma=20.0, q=10.5, t0=0.1, steps=1000),
            MackeyGlassParams(beta=1.0, gamma=2.0, q=1.0, t0=1.0, x0=-2.0, h=1.0, steps=30),
        ],
        ids=["power-overflows", "power-goes-complex", "feedback-divides-by-zero"],
    )
    def test_failing_power_is_a_diverged_step(self, params):
        # The delayed value's q-th power overflows, or, for a state that
        # overshoots below zero, is complex, or is -1 (a delayed value of
        # exactly -1 at q = 1); each raises inside the loop.
        with pytest.raises(InvalidInputError, match=r"^integration diverged at step \d+;") as caught:
            mackey_glass_series(params)
        step = int(re.search(r"step (\d+)", str(caught.value))[1])
        assert 1 <= step < params.steps
        assert np.isfinite(mackey_glass_series(replace(params, steps=step)).values).all()

    @pytest.mark.parametrize("name, bad", [("steps", 10.5), ("skip", 0.5), ("steps", 1e3),
                                           ("skip", math.inf)])
    def test_steps_and_skip_must_be_integers(self, name, bad):
        # A float skip used to reach the loop as range(10.5), whose TypeError
        # was reported as a diverged step.
        with pytest.raises(InvalidInputError, match=f"^{name} must be an integer >= "):
            MackeyGlassParams(**{"steps": 10, name: bad})

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            MackeyGlassParams(gamma=0.0)
        with pytest.raises(InvalidInputError):
            MackeyGlassParams(beta=-0.1)
        with pytest.raises(InvalidInputError):
            MackeyGlassParams(q=-1.0)


class TestSine:
    def test_basic_shape(self):
        series = sine_series(2.0, 100, 1000)
        assert len(series) == 1000
        assert series.values[0] == 0.0
        assert series.values.max() == pytest.approx(2.0, abs=1e-6)
        assert series.spacing == 1.0

    def test_periodicity(self):
        series = sine_series(1.0, 50, 500)
        np.testing.assert_allclose(
            series.values[:450], series.values[50:], rtol=0, atol=1e-12
        )

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            sine_series(1.0, 3, 100)
        with pytest.raises(InvalidInputError):
            sine_series(1.0, 50, 20)
        with pytest.raises(InvalidInputError):
            sine_series(math.inf, 50, 100)

    @pytest.mark.parametrize(
        "args, message",
        [((1.0, 3, 100), "period must be an integer >= 4, got 3"),
         ((1.0, 50.0, 100), "period must be an integer >= 4, got 50.0"),
         ((1.0, 50, 20), "n must be >= 50, got 20"),
         ((1.0, 50, math.inf), "n must be finite, got inf"),
         ((math.nan, 50, 100), "amplitude must be finite, got nan")],
    )
    def test_each_rejection_names_its_parameter(self, args, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            sine_series(*args)
