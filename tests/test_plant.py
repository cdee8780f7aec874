import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncsim import (
    DomainError,
    IntegrationDomainError,
    SystemDynamics,
    TankParams,
    UncertaintySignal,
    rk4_increment,
    tank_dynamics,
)


class TestTankParams:
    def test_benchmark_defaults(self):
        p = TankParams.benchmark()
        assert p.alpha1 == 0.631811
        assert p.alpha2 == 0.631811
        assert p.a1 == 0.0019625
        assert p.a2 == 0.0019625
        assert p.p1 == 200_000.0
        assert p.p2 == 100_000.0
        assert p.rho == 3.49772
        assert p.vol == 2.0
        assert p.m2 == 1.0

    def test_benchmark_accepts_overrides(self):
        p = TankParams.benchmark(p2=50_000.0, m2=0.5)
        assert p.p2 == 50_000.0
        assert p.m2 == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha1": -0.1},
            {"a2": 0.0},
            {"rho": -1.0},
            {"vol": 0.0},
            {"m2": -0.01},
            {"m2": 1.01},
            {"p2": -5.0},
            {"p1": 90_000.0},  # must exceed p2
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(
            alpha1=0.631811, alpha2=0.631811, a1=0.0019625, a2=0.0019625,
            p1=200_000.0, p2=100_000.0, rho=3.49772, vol=2.0, m2=1.0,
        )
        base.update(kwargs)
        with pytest.raises(ValueError):
            TankParams(**base)


class TestTankDynamics:
    def test_flow_terms_at_midpoint(self, benchmark_params, tank):
        # hand evaluation of the orifice-flow expressions
        x = 150_000.0
        coeff = benchmark_params.alpha1 * benchmark_params.a1
        expected_in = 0.5 * coeff * x * math.sqrt(2.0 * (200_000.0 - x) / 3.49772)
        expected_out = -0.5 * coeff * x * math.sqrt(2.0 * (x - 100_000.0) / 3.49772)
        assert tank.g(x) == pytest.approx(expected_in, rel=1e-12)
        assert tank.f(x) == pytest.approx(expected_out, rel=1e-12)
        # equal pressure drops on both orifices cancel exactly
        assert tank.g(x) == -tank.f(x)

    def test_boundary_flows_vanish(self, benchmark_params):
        d = tank_dynamics(benchmark_params, margin=0.0)
        assert d.f(100_000.0) == 0.0
        assert d.g(200_000.0) == 0.0

    def test_uncertainty_gain_is_state_over_volume(self, tank):
        assert tank.w(150_000.0) == 75_000.0
        assert tank.w(110_000.0) == 55_000.0

    def test_rhs_at_lower_boundary_is_uncertainty_only(self, benchmark_params):
        d = tank_dynamics(benchmark_params, margin=0.0)
        assert d.rhs(100_000.0, 0.0, 0.175) == 8750.0

    def test_output_valve_opening_scales_drift(self, benchmark_params):
        half = TankParams.benchmark(p2=100_000.0, m2=0.5)
        d_full = tank_dynamics(benchmark_params, margin=1e-3)
        d_half = tank_dynamics(half, margin=1e-3)
        x = 160_000.0
        assert d_half.f(x) == pytest.approx(0.5 * d_full.f(x), rel=1e-12)
        assert d_half.g(x) == d_full.g(x)

    def test_margin_shrinks_domain(self, benchmark_params):
        d = tank_dynamics(benchmark_params, margin=10.0)
        assert d.state_domain == (100_010.0, 199_990.0)
        with pytest.raises(DomainError):
            d.f(100_005.0)

    def test_negative_margin_rejected(self, benchmark_params):
        with pytest.raises(ValueError):
            tank_dynamics(benchmark_params, margin=-1.0)

    @pytest.mark.parametrize("x", [99_999.0, 100_000.0, 200_000.0, 250_000.0])
    def test_out_of_domain_evaluation_raises(self, tank, x):
        with pytest.raises(DomainError):
            tank.f(x)
        # the kernel checks the state before its first rhs evaluation
        with pytest.raises(IntegrationDomainError) as excinfo:
            rk4_increment(tank, x, 0.5, 2.0, 0.175)
        assert excinfo.value.stage == 1
        assert excinfo.value.state == x

    @given(x=st.floats(min_value=100_001.0, max_value=199_999.0))
    def test_flow_signs_inside_domain(self, x):
        d = tank_dynamics(TankParams.benchmark(), margin=1e-3)
        assert d.f(x) <= 0.0
        assert d.g(x) >= 0.0
        assert d.w(x) == x / 2.0

    @given(
        x=st.floats(min_value=100_000.001, max_value=199_999.999),
        u=st.floats(min_value=-2.0, max_value=2.0),
        theta=st.floats(min_value=-1.0, max_value=1.0),
        vol=st.floats(min_value=0.1, max_value=10.0),
        m2=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_rhs_matches_field_sum(self, x, u, theta, vol, m2):
        params = dataclasses.replace(TankParams.benchmark(m2=m2), vol=vol)
        d = tank_dynamics(params, margin=1e-3)
        # exact equality: the fused expression keeps the sum's operation order
        assert d.rhs(x, u, theta) == d.f(x) + d.g(x) * u + d.w(x) * theta


class TestSystemDynamics:
    def test_rhs_composed_from_gains(self):
        d = SystemDynamics(
            drift=lambda x: -2.0 * x,
            input_gain=lambda x: x + 1.0,
            uncertainty_gain=lambda x: 3.0,
            state_domain=(-10.0, 10.0),
        )
        assert d.rhs(1.5, 0.25, 0.5) == -3.0 + 2.5 * 0.25 + 3.0 * 0.5

    def test_replace_carries_rhs(self, tank):
        counted = dataclasses.replace(tank, drift=lambda x: 0.0)
        assert counted.rhs is tank.rhs

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            SystemDynamics(
                drift=lambda x: 0.0,
                input_gain=lambda x: 0.0,
                uncertainty_gain=lambda x: 0.0,
                state_domain=(1.0, 1.0),
            )

    def test_check_state_accepts_bounds(self):
        d = SystemDynamics(
            drift=lambda x: 0.0,
            input_gain=lambda x: 0.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=(0.0, 1.0),
        )
        d.check_state(0.0)
        d.check_state(1.0)
        with pytest.raises(DomainError):
            d.check_state(1.0000001)


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
