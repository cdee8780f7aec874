import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncsim import (
    ControllerConfig,
    ControllerOverflowError,
    LyapunovSpec,
    TankParams,
    closed_loop_vdot,
    lie_derivatives,
    sontag_from_lie,
    sontag_input,
    tank_dynamics,
)

UNBOUNDED = ControllerConfig(u_min=-math.inf, u_max=math.inf)


class TestLyapunovSpec:
    def test_value_and_gradient(self):
        lyap = LyapunovSpec(setpoint=1.0)
        assert lyap.value(3.0) == 4.0
        assert lyap.gradient(3.0) == 4.0
        assert lyap.value(1.0) == 0.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_setpoint(self, bad):
        with pytest.raises(ValueError):
            LyapunovSpec(setpoint=bad)


class TestControllerConfig:
    def test_defaults(self):
        cfg = ControllerConfig()
        assert cfg.lgv_threshold == 1e-9
        assert cfg.u_min == 0.0
        assert cfg.u_max == 1.0

    def test_infinite_bounds_allowed(self):
        cfg = ControllerConfig(u_min=-math.inf, u_max=math.inf)
        assert cfg.u_min < cfg.u_max

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lgv_threshold": 0.0},
            {"lgv_threshold": -1e-9},
            {"u_min": 1.0, "u_max": 1.0},
            {"u_min": 2.0, "u_max": 1.0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ControllerConfig(**kwargs)


class TestSontagFromLie:
    def test_closed_form_positive_gain(self):
        # -(3 + sqrt(9 + 1)) / 1
        assert sontag_from_lie(3.0, 1.0, UNBOUNDED) == -(3.0 + math.sqrt(10.0))

    def test_closed_form_negative_drift(self):
        # -(-5 + sqrt(25 + 16)) / 2
        assert sontag_from_lie(-5.0, 2.0, UNBOUNDED) == (5.0 - math.sqrt(41.0)) / 2.0

    def test_closed_form_negative_gain(self):
        assert sontag_from_lie(-5.0, -2.0, UNBOUNDED) == (math.sqrt(41.0) - 5.0) / 2.0

    def test_decrease_holds_at_closed_form_point(self):
        u = sontag_from_lie(-5.0, 2.0, UNBOUNDED)
        assert -5.0 + 2.0 * u == -math.sqrt(41.0)

    def test_saturates_at_upper_bound(self):
        # unclamped input is +2
        assert sontag_from_lie(0.0, -2.0, ControllerConfig()) == 1.0

    def test_saturates_at_lower_bound(self):
        # unclamped input is -2
        assert sontag_from_lie(0.0, 2.0, ControllerConfig()) == 0.0
        assert sontag_from_lie(3.0, 1.0, ControllerConfig()) == 0.0

    def test_threshold_is_inclusive(self):
        cfg = ControllerConfig()
        assert sontag_from_lie(123.0, cfg.lgv_threshold, cfg) == 0.0
        assert sontag_from_lie(123.0, -cfg.lgv_threshold, cfg) == 0.0
        assert sontag_from_lie(123.0, 0.0, cfg) == 0.0

    def test_just_above_threshold_acts(self):
        assert sontag_from_lie(0.0, 2e-9, UNBOUNDED) != 0.0

    def test_overflow_raises(self):
        with pytest.raises(ControllerOverflowError):
            sontag_from_lie(1e300, 1e-8, ControllerConfig())

    def test_fourth_power_overflow_raises(self):
        # a float ** raises OverflowError instead of returning inf
        with pytest.raises(ControllerOverflowError):
            sontag_from_lie(0.0, 1e100, ControllerConfig())

    @given(
        lfv=st.floats(min_value=-1e3, max_value=1e3),
        lgv_mag=st.floats(min_value=1e-3, max_value=1e3),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_unsaturated_vdot_identity(self, lfv, lgv_mag, sign):
        lgv = sign * lgv_mag
        u = sontag_from_lie(lfv, lgv, UNBOUNDED)
        vdot = lfv + lgv * u
        expected = -math.sqrt(lfv * lfv + lgv ** 4)
        assert vdot == pytest.approx(expected, rel=1e-9)
        assert vdot < 0.0

    @given(
        # lfv kept non-negative: the numerator then has no cancellation,
        # so a tight relative comparison is meaningful
        lfv=st.floats(min_value=0.0, max_value=100.0),
        lgv_mag=st.floats(min_value=1e-2, max_value=100.0),
        sign=st.sampled_from([1.0, -1.0]),
        c=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_scaling_homogeneity(self, lfv, lgv_mag, sign, c):
        lgv = sign * lgv_mag
        scaled = sontag_from_lie(c * c * lfv, c * lgv, UNBOUNDED)
        assert scaled == pytest.approx(c * sontag_from_lie(lfv, lgv, UNBOUNDED), rel=1e-9)


class TestLieDerivatives:
    def test_vanish_at_setpoint(self, tank):
        lyap = LyapunovSpec(setpoint=150_000.0)
        assert lie_derivatives(tank, lyap, 150_000.0) == (0.0, 0.0)

    @pytest.mark.parametrize("m2", [1.0, 0.5])
    @pytest.mark.parametrize("x", [120_000.0, 150_000.0, 180_000.0])
    def test_closed_forms_at_zero_reference(self, m2, x):
        p = TankParams.benchmark(m2=m2)
        d = tank_dynamics(p, margin=1e-3)
        lfv, lgv = lie_derivatives(d, LyapunovSpec(setpoint=0.0), x)
        lfv_hand = (
            -(2.0 / p.vol)
            * p.alpha2
            * p.a2
            * p.m2
            * x ** 2
            * math.sqrt(2.0 * (x - p.p2) / p.rho)
        )
        lgv_hand = (
            (2.0 / p.vol)
            * p.alpha1
            * p.a1
            * x ** 2
            * math.sqrt(2.0 * (p.p1 - x) / p.rho)
        )
        assert lfv == pytest.approx(lfv_hand, rel=1e-12)
        assert lgv == pytest.approx(lgv_hand, rel=1e-12)

    def test_signs_off_setpoint(self, tank):
        lyap = LyapunovSpec(setpoint=150_100.0)
        lfv, lgv = lie_derivatives(tank, lyap, 140_000.0)
        # below the setpoint the gradient is negative, f < 0, g > 0
        assert lfv > 0.0
        assert lgv < 0.0


class TestSontagInput:
    def test_composition(self, tank):
        lyap = LyapunovSpec(setpoint=150_100.0)
        cfg = ControllerConfig()
        x = 133_000.0
        lfv, lgv = lie_derivatives(tank, lyap, x)
        assert sontag_input(tank, lyap, cfg, x) == sontag_from_lie(lfv, lgv, cfg)

    def test_opens_fully_below_setpoint(self, tank):
        lyap = LyapunovSpec(setpoint=150_100.0)
        assert sontag_input(tank, lyap, ControllerConfig(), 150_000.0) == 1.0
        assert sontag_input(tank, lyap, ControllerConfig(), 140_000.0) == 1.0

    def test_closes_fully_above_setpoint(self, tank):
        lyap = LyapunovSpec(setpoint=150_100.0)
        assert sontag_input(tank, lyap, ControllerConfig(), 160_000.0) == 0.0


class TestClosedLoopVdot:
    def test_matches_lie_composition(self, tank):
        lyap = LyapunovSpec(setpoint=150_100.0)
        cfg = ControllerConfig()
        x = 144_000.0
        lfv, lgv = lie_derivatives(tank, lyap, x)
        expected = lfv + lgv * sontag_from_lie(lfv, lgv, cfg)
        assert closed_loop_vdot(tank, lyap, cfg, x) == expected

    @pytest.mark.parametrize("x", [120_000.0, 145_000.0, 155_000.0, 190_000.0])
    def test_negative_away_from_setpoint(self, x):
        d = tank_dynamics(TankParams.benchmark(), margin=1e-3)
        lyap = LyapunovSpec(setpoint=150_100.0)
        assert closed_loop_vdot(d, lyap, UNBOUNDED, x) < 0.0
