import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncsim import (
    ControllerConfig,
    ControllerOverflowError,
    DomainError,
    SystemDynamics,
    sontag_feedback,
    tank_dynamics,
)

from conftest import WIDE, lie, outcome, reference_feedback, reference_plant

# The feedback settings of tank-reference, and the same without saturation.
CFG = ControllerConfig(setpoint=150_100.0)
UNBOUNDED = CFG._replace(u_min=-math.inf, u_max=math.inf)
TANK = tank_dynamics(reference_plant())


def constant_gains(f: float, g: float) -> SystemDynamics:
    return SystemDynamics(
        drift=lambda x: f, input_gain=lambda x: g, uncertainty_gain=lambda x: 0.0,
        state_domain=WIDE,
    )


def at_lie(lfv: float, lgv: float, cfg: ControllerConfig) -> float:
    """The feedback where LfV = ``lfv`` and LgV = ``lgv``: constant gains at
    x = setpoint + 0.5, where the gradient 2 (x - setpoint) is exactly 1."""
    return sontag_feedback(constant_gains(lfv, lgv), cfg)(cfg.setpoint + 0.5)


def drawn_config(setpoint: float, lgv: float, bounds, threshold) -> ControllerConfig:
    """The config with ``threshold``, or |``lgv``| itself for None (where that
    is a valid threshold), and ``bounds`` ordered."""
    if threshold is None:
        threshold = abs(lgv) if abs(lgv) > 0 else 1e-9
    return ControllerConfig(setpoint, threshold, min(bounds), max(bounds))


# Actuator bounds, infinite ones included, and positive thresholds.
BOUNDS = st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)).filter(
    lambda b: b[0] != b[1]
)
THRESHOLDS = st.none() | st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestLyapunovSpec:
    """V(x) = (x - setpoint)^2, centred on ``ControllerConfig.setpoint``."""

    def test_gradient_is_twice_the_error(self):
        # with unit gains LfV = LgV = 2 (x - setpoint), 4 at x = 3
        cfg = ControllerConfig(setpoint=1.0, u_min=-math.inf, u_max=math.inf)
        feedback = sontag_feedback(constant_gains(1.0, 1.0), cfg)
        assert feedback(3.0) == -(4.0 + math.sqrt(16.0 + 4.0 ** 4)) / 4.0
        assert feedback(1.0) == 0.0


class TestControllerConfig:
    def test_defaults(self):
        cfg = ControllerConfig(setpoint=0.0)
        assert cfg.lgv_threshold == 1e-9
        assert cfg.u_min == 0.0
        assert cfg.u_max == 1.0

    def test_infinite_bounds_allowed(self):
        assert UNBOUNDED.u_min < UNBOUNDED.u_max


class TestUniversalFormula:
    """The formula at chosen (LfV, LgV), through constant gains."""

    def test_closed_form_positive_gain(self):
        # -(3 + sqrt(9 + 1)) / 1
        assert at_lie(3.0, 1.0, UNBOUNDED) == -(3.0 + math.sqrt(10.0))

    def test_closed_form_negative_drift(self):
        # -(-5 + sqrt(25 + 16)) / 2
        assert at_lie(-5.0, 2.0, UNBOUNDED) == (5.0 - math.sqrt(41.0)) / 2.0

    def test_closed_form_negative_gain(self):
        assert at_lie(-5.0, -2.0, UNBOUNDED) == (math.sqrt(41.0) - 5.0) / 2.0

    def test_decrease_holds_at_closed_form_point(self):
        u = at_lie(-5.0, 2.0, UNBOUNDED)
        assert -5.0 + 2.0 * u == -math.sqrt(41.0)

    def test_saturates_at_upper_bound(self):
        # unclamped input is +2
        assert at_lie(0.0, -2.0, CFG) == 1.0

    def test_saturates_at_lower_bound(self):
        # unclamped input is -2
        assert at_lie(0.0, 2.0, CFG) == 0.0
        assert at_lie(3.0, 1.0, CFG) == 0.0

    def test_threshold_is_inclusive(self):
        assert at_lie(123.0, CFG.lgv_threshold, CFG) == 0.0
        assert at_lie(123.0, -CFG.lgv_threshold, CFG) == 0.0
        assert at_lie(123.0, 0.0, CFG) == 0.0

    def test_just_above_threshold_acts(self):
        assert at_lie(0.0, 2e-9, UNBOUNDED) != 0.0

    def test_overflow_raises(self):
        text = re.escape("feedback overflowed at LfV=1e+300, LgV=1e-08")
        with pytest.raises(ControllerOverflowError, match=f"^{text}$"):
            at_lie(1e300, 1e-8, CFG)

    def test_fourth_power_overflow_raises(self):
        # a float ** raises OverflowError instead of returning inf
        text = re.escape("feedback overflowed at LfV=0.0, LgV=1e+100")
        with pytest.raises(ControllerOverflowError, match=f"^{text}$"):
            at_lie(0.0, 1e100, CFG)

    @given(
        lfv=st.floats(min_value=-1e3, max_value=1e3),
        lgv_mag=st.floats(min_value=1e-3, max_value=1e3),
        sign=st.sampled_from([1.0, -1.0]),
    )
    def test_unsaturated_vdot_identity(self, lfv, lgv_mag, sign):
        lgv = sign * lgv_mag
        u = at_lie(lfv, lgv, UNBOUNDED)
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
        scaled = at_lie(c * c * lfv, c * lgv, UNBOUNDED)
        assert scaled == pytest.approx(c * at_lie(lfv, lgv, UNBOUNDED), rel=1e-9)


class TestAgainstTheReference:
    """``sontag_feedback(dynamics, cfg)(x)`` is the two-step feedback, bit
    for bit, and raises the same errors with the same texts."""

    @given(data=st.data())
    def test_tank(self, data):
        lo, hi = TANK.state_domain
        # states a little past either end of the domain included
        x = data.draw(st.floats(min_value=lo - 1e3, max_value=hi + 1e3))
        setpoint = data.draw(st.floats(min_value=lo, max_value=hi))
        lgv = lie(TANK, setpoint, x)[1] if lo <= x <= hi else 0.0
        cfg = drawn_config(setpoint, lgv, data.draw(BOUNDS), data.draw(THRESHOLDS))
        assert outcome(sontag_feedback(TANK, cfg), x) == outcome(reference_feedback, TANK, cfg, x)

    @given(
        lfv=FINITE, lgv=FINITE, x=FINITE, setpoint=FINITE, bounds=BOUNDS, threshold=THRESHOLDS
    )
    # the formula past float range, by * and by **
    @example(lfv=1e300, lgv=1e-8, x=0.5, setpoint=0.0, bounds=(0.0, 1.0), threshold=1e-9)
    @example(lfv=0.0, lgv=1e100, x=0.5, setpoint=0.0, bounds=(0.0, 1.0), threshold=1e-9)
    # a -0.0 input, which the clamp keeps at the bound 0.0, and |LgV| = 4
    # on the threshold
    @example(lfv=-1.0, lgv=1e-100, x=0.5, setpoint=0.0, bounds=(0.0, 1.0), threshold=1e-200)
    @example(lfv=3.0, lgv=2.0, x=1.0, setpoint=0.0, bounds=(-1.0, 0.0), threshold=None)
    def test_constant_gains(self, lfv, lgv, x, setpoint, bounds, threshold):
        dynamics = constant_gains(lfv, lgv)
        cfg = drawn_config(setpoint, lie(dynamics, setpoint, x)[1], bounds, threshold)
        expected = outcome(reference_feedback, dynamics, cfg, x)
        assert outcome(sontag_feedback(dynamics, cfg), x) == expected


class TestTankFeedback:
    def test_zero_at_the_setpoint(self, tank):
        assert sontag_feedback(tank, ControllerConfig(setpoint=150_000.0))(150_000.0) == 0.0

    @pytest.mark.parametrize("m2", [1.0, 0.5])
    @pytest.mark.parametrize("x", [120_000.0, 150_000.0, 180_000.0])
    def test_closed_forms_at_zero_reference(self, m2, x):
        p = reference_plant()._replace(m2=m2)
        d = tank_dynamics(p)
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
        lfv, lgv = lie(d, 0.0, x)
        assert lfv == pytest.approx(lfv_hand, rel=1e-12)
        assert lgv == pytest.approx(lgv_hand, rel=1e-12)
        cfg = ControllerConfig(setpoint=0.0, u_min=-math.inf, u_max=math.inf)
        u = sontag_feedback(d, cfg)(x)
        assert u == pytest.approx(-(lfv + math.sqrt(lfv * lfv + lgv ** 4)) / lgv, rel=1e-12)

    def test_signs_off_setpoint(self, tank):
        # below the setpoint the gradient is negative, f < 0 and g > 0, so
        # LfV > 0 > LgV and the unclamped input opens the valve; above, it closes
        feedback = sontag_feedback(tank, UNBOUNDED)
        assert feedback(140_000.0) > 0.0
        assert feedback(160_000.0) < 0.0

    @pytest.mark.parametrize("x", [99_999.0, 100_000.0, 200_000.0, 250_000.0])
    def test_state_outside_the_domain_raises_the_check_state_text(self, tank, x):
        lo, hi = tank.state_domain
        text = re.escape(f"state {x!r} outside domain [{lo!r}, {hi!r}]")
        with pytest.raises(DomainError, match=f"^{text}$"):
            sontag_feedback(tank, CFG)(x)

    def test_opens_fully_below_setpoint(self, tank):
        feedback = sontag_feedback(tank, CFG)
        assert feedback(150_000.0) == 1.0
        assert feedback(140_000.0) == 1.0

    def test_closes_fully_above_setpoint(self, tank):
        assert sontag_feedback(tank, CFG)(160_000.0) == 0.0

    @pytest.mark.parametrize("x", [120_000.0, 145_000.0, 155_000.0, 190_000.0])
    def test_vdot_negative_away_from_setpoint(self, x):
        lfv, lgv = lie(TANK, UNBOUNDED.setpoint, x)
        assert lfv + lgv * sontag_feedback(TANK, UNBOUNDED)(x) < 0.0
