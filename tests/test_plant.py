import math
import sys
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncsim import (
    DomainError,
    IntegrationDomainError,
    SystemDynamics,
    UncertaintySignal,
    rk4_increment,
    tank_dynamics,
)

from conftest import outcome, reference_march, reference_plant, still_dynamics


class TestTankParams:
    def test_benchmark_defaults(self):
        p = reference_plant()
        assert p.alpha1 == 0.631811
        assert p.alpha2 == 0.631811
        assert p.a1 == 0.0019625
        assert p.a2 == 0.0019625
        assert p.p1 == 200_000.0
        assert p.p2 == 100_000.0
        assert p.rho == 3.49772
        assert p.vol == 2.0
        assert p.m2 == 1.0
        assert p.domain_margin == 1e-3
        assert p.state_domain == (100_000.001, 199_999.999)

    def test_benchmark_accepts_overrides(self):
        p = reference_plant()._replace(p2=50_000.0, m2=0.5)
        assert p.p2 == 50_000.0
        assert p.m2 == 0.5
        assert p.state_domain == (50_000.001, 199_999.999)


class TestTankDynamics:
    def test_flow_terms_at_midpoint(self, benchmark_params, tank):
        # hand evaluation of the orifice-flow expressions
        x = 150_000.0
        coeff = benchmark_params.alpha1 * benchmark_params.a1
        expected_in = 0.5 * coeff * x * math.sqrt(2.0 * (200_000.0 - x) / 3.49772)
        expected_out = -0.5 * coeff * x * math.sqrt(2.0 * (x - 100_000.0) / 3.49772)
        assert tank.input_gain(x) == pytest.approx(expected_in, rel=1e-12)
        assert tank.drift(x) == pytest.approx(expected_out, rel=1e-12)
        # equal pressure drops on both orifices cancel exactly
        assert tank.input_gain(x) == -tank.drift(x)

    def test_boundary_flows_vanish(self, benchmark_params):
        d = tank_dynamics(benchmark_params._replace(domain_margin=0.0))
        for x in (100_000.0, 200_000.0):
            d.check_state(x)
        assert d.drift(100_000.0) == 0.0
        assert d.input_gain(200_000.0) == 0.0

    def test_uncertainty_gain_is_state_over_volume(self, tank):
        assert tank.uncertainty_gain(150_000.0) == 75_000.0
        assert tank.uncertainty_gain(110_000.0) == 55_000.0

    def test_output_valve_opening_scales_drift(self, benchmark_params):
        half = benchmark_params._replace(m2=0.5)
        d_full = tank_dynamics(benchmark_params)
        d_half = tank_dynamics(half)
        x = 160_000.0
        assert d_half.drift(x) == pytest.approx(0.5 * d_full.drift(x), rel=1e-12)
        assert d_half.input_gain(x) == d_full.input_gain(x)

    def test_margin_shrinks_domain(self, benchmark_params):
        d = tank_dynamics(benchmark_params._replace(domain_margin=10.0))
        assert d.state_domain == (100_010.0, 199_990.0)
        with pytest.raises(DomainError):
            d.check_state(100_005.0)

    @pytest.mark.parametrize("x", [99_999.0, 100_000.0, 200_000.0, 250_000.0])
    def test_out_of_domain_evaluation_raises(self, tank, x):
        with pytest.raises(DomainError):
            tank.check_state(x)
        # the kernel checks the state before its first rhs evaluation
        with pytest.raises(IntegrationDomainError) as excinfo:
            rk4_increment(tank, x, 0.5, 2.0, 0.175)
        assert excinfo.value.stage == 1
        assert excinfo.value.state == x

    @given(x=st.floats(min_value=100_001.0, max_value=199_999.0))
    def test_flow_signs_inside_domain(self, x):
        d = tank_dynamics(reference_plant())
        assert d.drift(x) <= 0.0
        assert d.input_gain(x) >= 0.0
        assert d.uncertainty_gain(x) == x / 2.0

    @given(
        x=st.floats(min_value=100_000.001, max_value=199_999.999),
        u=st.floats(min_value=-2.0, max_value=2.0),
        theta=st.floats(min_value=-1.0, max_value=1.0),
        vol=st.floats(min_value=0.1, max_value=10.0),
        m2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_step_matches_field_sum(self, x, u, theta, vol, m2):
        params = reference_plant()._replace(m2=m2, vol=vol)
        d = tank_dynamics(params)
        # exact equality: the inlined sum keeps the field sum's operation order
        assert outcome(rk4_increment, d, x, u, 0.1, theta) == outcome(
            lambda: reference_march(d, x, u, 0.1, theta)[1]
        )


class TestSystemDynamics:
    def test_step_composed_from_gains(self):
        d = SystemDynamics(
            drift=lambda x: -2.0 * x,
            input_gain=lambda x: x + 1.0,
            uncertainty_gain=lambda x: 3.0,
            state_domain=(-10.0, 10.0),
        )
        _, dx = reference_march(d, 1.5, 0.25, 0.1, 0.5)
        assert rk4_increment(d, 1.5, 0.25, 0.1, 0.5).hex() == dx.hex()

    def test_replace_carries_the_generated_kernel(self, tank):
        counted = tank._replace(drift=lambda x: 0.0, input_gain=lambda x: 0.0)
        assert counted.march is tank.march
        args = (150_000.0, 0.4, 0.1, 0.175, *tank.state_domain, 20, 1.0, None)
        assert [v.hex() for v in counted.march(*args)] == [v.hex() for v in tank.march(*args)]
        assert rk4_increment(counted, 150_000.0, 0.4, 0.1).hex() == rk4_increment(
            tank, 150_000.0, 0.4, 0.1
        ).hex()

    def test_replaced_domain_binds_the_carried_kernel(self, tank):
        narrow = tank._replace(state_domain=(140_000.0, 150_000.0))
        assert narrow.march is tank.march
        # fine in the tank's domain; stage 2 probes past the narrow one
        rk4_increment(tank, 149_000.0, 1.0, 20.0)
        with pytest.raises(IntegrationDomainError) as excinfo:
            rk4_increment(narrow, 149_000.0, 1.0, 20.0)
        assert excinfo.value.stage == 2

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            still_dynamics((1.0, 1.0))

    def test_check_state_accepts_bounds(self):
        d = still_dynamics((0.0, 1.0))
        d.check_state(0.0)
        d.check_state(1.0)
        with pytest.raises(DomainError):
            d.check_state(1.0000001)


def raise_domain_error(x, left=None):
    raise DomainError(f"end state {x!r}")


def marched(dynamics, x, u, h, theta, n, scale):
    """The outcomes of ``dynamics.march`` and ``reference_march``, each
    raising at an end state outside the domain."""
    args = (x, u, h, theta, *dynamics.state_domain, n, scale, raise_domain_error)
    expected = outcome(reference_march, dynamics, x, u, h, theta, n, scale, raise_domain_error)
    return outcome(dynamics.march, *args), expected


class TestGeneratedKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(min_value=100_000.001, max_value=199_999.999),
        u=st.floats(min_value=-2.0, max_value=2.0),
        theta=st.floats(min_value=-1.0, max_value=1.0),
        h=st.sampled_from([0.01, 0.1, 2.0]),
        n=st.integers(min_value=1, max_value=25),
        gamma=st.sampled_from([0.0, 0.05, -0.3]),
    )
    def test_tank_generic_and_reference_agree_bitwise(self, x, u, theta, h, n, gamma):
        tank = tank_dynamics(reference_plant())
        # the same gains as callables: the generic kernel calling a composed rhs
        generic = SystemDynamics(
            drift=tank.drift,
            input_gain=tank.input_gain,
            uncertainty_gain=tank.uncertainty_gain,
            state_domain=tank.state_domain,
        )
        assert generic.march is not tank.march
        tank_march, expected = marched(tank, x, u, h, theta, n, 1.0 + gamma)
        assert tank_march == expected
        assert marched(generic, x, u, h, theta, n, 1.0 + gamma) == (expected, expected)
        expected = outcome(lambda: reference_march(tank, x, u, h, theta)[1])
        assert outcome(rk4_increment, tank, x, u, h, theta) == expected
        assert outcome(rk4_increment, generic, x, u, h, theta) == expected

    def test_factory_is_compiled_once_per_expression(self, tank):
        other = tank_dynamics(
            reference_plant()._replace(p2=50_000.0, m2=0.5, domain_margin=1.0)
        )
        assert other.march.__code__ is tank.march.__code__
        assert other.march is not tank.march
        assert other.drift(150_000.0) != tank.drift(150_000.0)
        linear = SystemDynamics(lambda x: -x, lambda x: 1.0, lambda x: 0.0, (-1.0, 1.0))
        quadratic = SystemDynamics(lambda x: -x * x, lambda x: 1.0, lambda x: 0.0, (-1.0, 1.0))
        assert linear.march.__code__ is quadratic.march.__code__

    @pytest.mark.parametrize(
        "drift, domain, stage, state",
        [
            (lambda x: 0.0, (0.0, 4.0), 1, 5.0),  # the start state
            (lambda x: 100.0, (0.0, 10.0), 2, 55.0),
            (lambda x: 1.0 if x <= 5.25 else 20.0, (0.0, 10.0), 3, 15.0),
            (lambda x: 1.0, (0.0, 5.9), 4, 6.0),
        ],
        ids=["stage1", "stage2", "stage3", "stage4"],
    )
    def test_each_stage_names_itself(self, drift, domain, stage, state):
        d = SystemDynamics(drift, lambda x: 0.0, lambda x: 0.0, domain)
        for run in (
            lambda: rk4_increment(d, 5.0, 0.0, 1.0),
            lambda: d.march(5.0, 0.0, 1.0, 0.0, *domain, 3, 1.0, raise_domain_error),
        ):
            with pytest.raises(IntegrationDomainError) as excinfo:
                run()
            assert excinfo.value.stage == stage
            assert excinfo.value.state == state
            assert str(excinfo.value) == f"stage {stage} state {state!r} left the domain"

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
    def test_step_must_be_positive(self, tank, h):
        with pytest.raises(ValueError, match="step h must be positive"):
            rk4_increment(tank, 150_000.0, 0.0, h)
        with pytest.raises(ValueError, match="step h must be positive"):
            tank.march(150_000.0, 0.0, h, 0.0, *tank.state_domain, 2, 1.0, raise_domain_error)


class TestZeroInputMarch:
    """At u = +0.0 the tank marches without its input gain where that is
    bitwise the same as the full march, ``reference_march``."""

    @settings(max_examples=300, deadline=None)
    @given(
        params=st.builds(
            reference_plant()._replace,
            p2=st.sampled_from([0.0, 5e4, 1e5]),
            domain_margin=st.sampled_from([0.0, 1e-3, 1.0]),
            m2=st.sampled_from([0.0, 0.5, 1.0]),
            alpha1=st.one_of(
                st.sampled_from([0.631811, 1e300, 1e306]),
                st.floats(min_value=1e-6, max_value=1e306),
            ),
        ),
        data=st.data(),
        u=st.one_of(st.sampled_from([0.0, -0.0, 1.0, math.nan]), st.floats()),
        theta=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1.0, max_value=1.0)),
        h=st.sampled_from([0.1, 2.0]),
        n=st.integers(min_value=1, max_value=20),
        gamma=st.sampled_from([0.0, 0.05, -0.3]),
    )
    def test_tank_march_equals_full_march(self, params, data, u, theta, h, n, gamma):
        lo, hi = params.state_domain
        x = data.draw(st.one_of(
            st.sampled_from([lo, hi, 0.0, -0.0]), st.floats(min_value=lo, max_value=hi)
        ))
        tank_march, expected = marched(tank_dynamics(params), x, u, h, theta, n, 1.0 + gamma)
        assert tank_march == expected

    @pytest.mark.parametrize(
        "changes, x, u, theta, expected",
        [
            # lo = 0 admits x = -0.0, where g(x) * (+0.0) is -0.0
            ({"p2": 0.0, "domain_margin": 0.0}, -0.0, 0.0, 0.0, ("-0x0.0p+0", "-0x0.0p+0")),
            # with m2 = 0, f is -0.0, which g(x) * (-0.0) keeps and +0.0 would not
            ({"m2": 0.0}, 150_000.0, -0.0, -0.0, ((150_000.0).hex(), "-0x0.0p+0")),
            # g(x) overflows, and inf * (+0.0) is nan
            ({"alpha1": 1e306}, 150_000.0, 0.0, 0.175,
             (IntegrationDomainError, "stage 2 state nan left the domain")),
        ],
        ids=["negative-zero-state", "negative-zero-input", "gain-overflow"],
    )
    def test_guards_keep_the_full_march(self, changes, x, u, theta, expected):
        dynamics = tank_dynamics(reference_plant()._replace(**changes))
        assert marched(dynamics, x, u, 0.1, theta, 20, 1.0) == (expected, expected)

    def test_wider_replaced_domain_keeps_the_full_march(self, tank):
        # past p1 the input gain takes the square root of a negative number
        wide = tank._replace(state_domain=(tank.state_domain[0], 250_000.0))
        failed = ValueError, "math domain error"
        assert marched(wide, 210_000.0, 0.0, 0.1, 0.175, 1, 1.0) == (failed, failed)

    @staticmethod
    def sqrt_calls(march, u, domain):
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "c_call" and arg is math.sqrt

        sys.setprofile(count)
        try:
            march(150_000.0, u, 0.1, 0.175, *domain, 20, 1.0, raise_domain_error)
        finally:
            sys.setprofile(None)
        return calls

    def test_closed_valve_skips_the_input_gain(self, tank):
        # f and g each take one square root per stage, 4 stages per step
        assert self.sqrt_calls(tank.march, 0.0, tank.state_domain) == 80
        assert self.sqrt_calls(tank.march, 1.0, tank.state_domain) == 160
        assert self.sqrt_calls(tank.march, -0.0, tank.state_domain) == 160
        # nothing proves a callable's g, so dynamics built from callables call it
        generic = SystemDynamics(
            tank.drift, tank.input_gain, tank.uncertainty_gain, tank.state_domain
        )
        assert self.sqrt_calls(generic.march, 0.0, tank.state_domain) == 160


class TestUncertaintySignal:
    def test_constant(self):
        sig = UncertaintySignal.constant(0.175)
        assert sig.value(0.0) == 0.175
        assert sig.value(1e9) == 0.175

    def test_schedule_lookup(self):
        sig = UncertaintySignal(times=(0.0, 1800.0), values=(0.175, 0.185))
        assert sig.value(0.0) == 0.175
        assert sig.value(1799.999) == 0.175
        assert sig.value(1800.0) == 0.185
        assert sig.value(3600.0) == 0.185

    def test_before_first_time_uses_first_value(self):
        sig = UncertaintySignal(times=(10.0,), values=(0.5,))
        assert sig.value(0.0) == 0.5

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            UncertaintySignal(times=(0.0, 0.0), values=(1.0, 2.0))
        with pytest.raises(ValueError):
            UncertaintySignal(times=(5.0, 1.0), values=(1.0, 2.0))

    def test_lengths_must_match(self):
        with pytest.raises(ValueError):
            UncertaintySignal(times=(0.0, 1.0), values=(1.0,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            UncertaintySignal(times=(), values=())

    @settings(max_examples=300, deadline=None)
    @given(
        # few values, so that a schedule often changes and changes back
        schedule=st.lists(
            st.tuples(st.floats(-50.0, 50.0), st.sampled_from((-1.0, 0.0, 1.0))),
            min_size=1, max_size=6, unique_by=lambda pair: pair[0],
        ).map(sorted),
        t_start=st.floats(-60.0, 60.0),
        h=st.floats(1e-3, 10.0),
        n=st.integers(1, 60),
    )
    # 0.5 at both ends from two entries; the ends before times[0] and on it
    @example(schedule=[(0.0, 0.5), (1.0, 0.7), (2.0, 0.5)], t_start=0.5, h=1.0, n=3)
    @example(schedule=[(0.0, 0.5)], t_start=-2.0, h=1.0, n=3)
    # 0.9 / 0.3 is 3.0, but the start 3 * 0.3 is 0.8999999999999999: one entry
    @example(schedule=[(0.0, 1.0), (0.9, 2.0)], t_start=0.0, h=0.3, n=4)
    def test_held_matches_per_substep_lookup(self, schedule, t_start, h, n):
        sig = UncertaintySignal(*map(tuple, zip(*schedule)))
        starts = [t_start + i * h for i in range(n)]
        theta = sig.held(starts[0], starts[-1])
        if theta is not None:
            assert [sig.value(t) for t in starts] == [theta] * n
        # None exactly when the starts fall under more than one entry
        entries = {bisect_right(sig.times, t) for t in starts}
        assert (theta is None) == (len(entries) > 1)
