import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncsim import (
    ControllerConfig,
    ControllerOverflowError,
    DomainError,
    SystemDynamics,
    closed_loop_vdot,
    lie_derivatives,
    sontag_from_lie,
    sontag_input,
    tank_dynamics,
)

from conftest import WIDE, reference_plant

# The feedback settings of tank-reference, and the same without saturation.
CFG = ControllerConfig(setpoint=150_100.0)
UNBOUNDED = CFG._replace(u_min=-math.inf, u_max=math.inf)
TANK = tank_dynamics(reference_plant())


class TestLyapunovSpec:
    """V(x) = (x - setpoint)^2, centred on ``ControllerConfig.setpoint``."""

    def test_gradient_is_twice_the_error(self):
        # with unit gains the Lie derivatives are the gradient 2 (x - setpoint)
        unit = SystemDynamics(
            drift=lambda x: 1.0, input_gain=lambda x: 1.0, uncertainty_gain=lambda x: 0.0,
            state_domain=WIDE,
        )
        assert lie_derivatives(unit, ControllerConfig(setpoint=1.0), 3.0) == (4.0, 4.0)
        assert lie_derivatives(unit, ControllerConfig(setpoint=1.0), 1.0) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite_setpoint(self, bad):
        with pytest.raises(ValueError, match="controller.setpoint must be finite"):
            ControllerConfig(setpoint=bad)


class TestControllerConfig:
    def test_defaults(self):
        cfg = ControllerConfig(setpoint=0.0)
        assert cfg.lgv_threshold == 1e-9
        assert cfg.u_min == 0.0
        assert cfg.u_max == 1.0

    def test_infinite_bounds_allowed(self):
        assert UNBOUNDED.u_min < UNBOUNDED.u_max

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
            ControllerConfig(setpoint=0.0, **kwargs)


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
        assert sontag_from_lie(0.0, -2.0, CFG) == 1.0

    def test_saturates_at_lower_bound(self):
        # unclamped input is -2
        assert sontag_from_lie(0.0, 2.0, CFG) == 0.0
        assert sontag_from_lie(3.0, 1.0, CFG) == 0.0

    def test_threshold_is_inclusive(self):
        assert sontag_from_lie(123.0, CFG.lgv_threshold, CFG) == 0.0
        assert sontag_from_lie(123.0, -CFG.lgv_threshold, CFG) == 0.0
        assert sontag_from_lie(123.0, 0.0, CFG) == 0.0

    def test_just_above_threshold_acts(self):
        assert sontag_from_lie(0.0, 2e-9, UNBOUNDED) != 0.0

    def test_overflow_raises(self):
        with pytest.raises(ControllerOverflowError):
            sontag_from_lie(1e300, 1e-8, CFG)

    def test_fourth_power_overflow_raises(self):
        # a float ** raises OverflowError instead of returning inf
        with pytest.raises(ControllerOverflowError):
            sontag_from_lie(0.0, 1e100, CFG)

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
        assert lie_derivatives(tank, ControllerConfig(setpoint=150_000.0), 150_000.0) == (0.0, 0.0)

    @pytest.mark.parametrize("m2", [1.0, 0.5])
    @pytest.mark.parametrize("x", [120_000.0, 150_000.0, 180_000.0])
    def test_closed_forms_at_zero_reference(self, m2, x):
        p = reference_plant()._replace(m2=m2)
        d = tank_dynamics(p)
        lfv, lgv = lie_derivatives(d, ControllerConfig(setpoint=0.0), x)
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
        lfv, lgv = lie_derivatives(tank, CFG, 140_000.0)
        # below the setpoint the gradient is negative, f < 0, g > 0
        assert lfv > 0.0
        assert lgv < 0.0


class TestSontagInput:
    def test_composition(self, tank):
        x = 133_000.0
        lfv, lgv = lie_derivatives(tank, CFG, x)
        assert sontag_input(tank, CFG, x) == sontag_from_lie(lfv, lgv, CFG)

    @given(data=st.data())
    def test_equals_the_formula_on_the_gains_bit_for_bit(self, data):
        lo, hi = TANK.state_domain
        x = data.draw(st.floats(min_value=lo, max_value=hi))
        setpoint = st.floats(min_value=lo, max_value=hi, exclude_min=True, exclude_max=True)
        cfg = ControllerConfig(setpoint=data.draw(setpoint))
        g = 2.0 * (x - cfg.setpoint)
        expected = sontag_from_lie(g * TANK.drift(x), g * TANK.input_gain(x), cfg)
        assert sontag_input(TANK, cfg, x) == expected

    @pytest.mark.parametrize("x", [99_999.0, 100_000.0, 200_000.0, 250_000.0])
    def test_state_outside_the_domain_raises_the_check_state_text(self, tank, x):
        lo, hi = tank.state_domain
        text = re.escape(f"state {x!r} outside domain [{lo!r}, {hi!r}]")
        for feedback in (sontag_input, closed_loop_vdot, lie_derivatives):
            with pytest.raises(DomainError, match=f"^{text}$"):
                feedback(tank, CFG, x)

    def test_opens_fully_below_setpoint(self, tank):
        assert sontag_input(tank, CFG, 150_000.0) == 1.0
        assert sontag_input(tank, CFG, 140_000.0) == 1.0

    def test_closes_fully_above_setpoint(self, tank):
        assert sontag_input(tank, CFG, 160_000.0) == 0.0


class TestClosedLoopVdot:
    def test_matches_lie_composition(self, tank):
        x = 144_000.0
        lfv, lgv = lie_derivatives(tank, CFG, x)
        expected = lfv + lgv * sontag_from_lie(lfv, lgv, CFG)
        assert closed_loop_vdot(tank, CFG, x) == expected

    @pytest.mark.parametrize("x", [120_000.0, 145_000.0, 155_000.0, 190_000.0])
    def test_negative_away_from_setpoint(self, x):
        assert closed_loop_vdot(TANK, UNBOUNDED, x) < 0.0
