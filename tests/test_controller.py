import math
from typing import NamedTuple, Optional

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


class Feedback(NamedTuple):
    """One row of ``FEEDBACKS``: the feedback of ``cfg`` on ``dynamics`` at
    ``x`` or, for ``dynamics`` a pair (LfV, LgV), on constant gains at
    x = setpoint + 0.5, where the gradient 2 (x - setpoint) is exactly 1;
    and the facts only this row pins, each a name of ``FACTS`` and its
    value."""

    id: str
    dynamics: object
    cfg: ControllerConfig
    x: Optional[float] = None
    facts: dict = {}


# What a row may pin, each a function of the row's dynamics, config and
# state and of the outcome of its feedback there.
FACTS = {
    "u": lambda d, cfg, x, got: float.fromhex(got),
    "error": lambda d, cfg, x, got: got,
    "lie": lambda d, cfg, x, got: lie(d, cfg.setpoint, x),
    "vdot": lambda d, cfg, x, got: vdot(d, cfg, x, got),
    "decrease": lambda d, cfg, x, got: vdot(d, cfg, x, got) < 0.0,
    "sign": lambda d, cfg, x, got: math.copysign(1.0, float.fromhex(got)),
}


def vdot(dynamics, cfg, x, got):
    """V' = LfV + LgV u along the closed loop."""
    lfv, lgv = lie(dynamics, cfg.setpoint, x)
    return lfv + lgv * float.fromhex(got)


def hand_lie(x, m2):
    """(LfV, LgV) of the tank with outlet opening ``m2`` at ``x`` for
    setpoint 0, by the formulas of the controller and plant docstrings."""
    p = reference_plant()._replace(m2=m2)
    lfv = -(2.0 / p.vol) * p.alpha2 * p.a2 * m2 * x ** 2 * math.sqrt(2.0 * (x - p.p2) / p.rho)
    lgv = (2.0 / p.vol) * p.alpha1 * p.a1 * x ** 2 * math.sqrt(2.0 * (p.p1 - x) / p.rho)
    return pytest.approx(lfv, rel=1e-12), pytest.approx(lgv, rel=1e-12)


NEGATIVE = {"decrease": True}
LO, HI = TANK.state_domain

# Every feedback the tests take by hand, one row each.
FEEDBACKS = [
    # with unit gains LfV = LgV = 2 (x - setpoint), 4 at x = 3
    *[Feedback(f"unit-gains-{x}", constant_gains(1.0, 1.0), UNBOUNDED._replace(setpoint=1.0), x,
               {"u": u})
      for x, u in ((3.0, -(4.0 + math.sqrt(16.0 + 4.0 ** 4)) / 4.0), (1.0, 0.0))],
    Feedback("closed-form", (3.0, 1.0), UNBOUNDED, facts={"u": -(3.0 + math.sqrt(10.0))}),
    # u = -(-5 + sqrt(25 + 16)) / 2, and V' = -sqrt(LfV^2 + LgV^4)
    Feedback("negative-drift", (-5.0, 2.0), UNBOUNDED,
             facts={"u": (5.0 - math.sqrt(41.0)) / 2.0, "vdot": -math.sqrt(41.0)}),
    Feedback("negative-gain", (-5.0, -2.0), UNBOUNDED, facts={"u": (math.sqrt(41.0) - 5.0) / 2.0}),
    # LgV^4 as one power, which four products would round differently
    Feedback("power", (0.0, 1.3), UNBOUNDED, facts={"u": -1.3}),
    # the unclamped inputs are +2, -2 and -(3 + sqrt(10))
    *[Feedback(f"saturated-{lfv}-{lgv}", (lfv, lgv), CFG, facts={"u": u})
      for lfv, lgv, u in ((0.0, -2.0, 1.0), (0.0, 2.0, 0.0), (3.0, 1.0, 0.0))],
    # the threshold is inclusive
    *[Feedback(f"threshold-{lgv}", (123.0, lgv), UNBOUNDED, facts={"u": 0.0})
      for lgv in (1e-9, -1e-9, 0.0)],
    Feedback("above-threshold", (0.0, 2e-9), UNBOUNDED, facts={"u": pytest.approx(-2e-9)}),
    # past float range by * and by **: a float ** raises where * gives inf
    *[Feedback(f"overflow-{lgv}", (lfv, lgv), CFG, facts={"error": (
        ControllerOverflowError, f"feedback overflowed at LfV={lfv!r}, LgV={lgv!r}")})
      for lfv, lgv in ((1e300, 1e-8), (0.0, 1e100))],
    # a -0.0 input, which the clamp keeps at the bound 0.0, and |LgV| = 4 on
    # the threshold
    Feedback("negative-zero", constant_gains(-1.0, 1e-100), ControllerConfig(0.0, 1e-200), 0.5),
    Feedback("on-threshold", constant_gains(3.0, 2.0), ControllerConfig(0.0, 4.0, -1.0, 0.0), 1.0),
    # the tank: at its setpoint, and by hand at setpoint 0
    Feedback("tank-setpoint", TANK, CFG._replace(setpoint=150_000.0), 150_000.0, {"u": 0.0}),
    *[Feedback(f"tank-m2-{m2}-{x:.0f}", tank_dynamics(reference_plant()._replace(m2=m2)),
               UNBOUNDED._replace(setpoint=0.0), x, {"lie": hand_lie(x, m2), **NEGATIVE})
      for m2, x in ((1.0, 120_000.0), (1.0, 180_000.0), (0.5, 150_000.0))],
    # below the setpoint the gradient is negative, f < 0 and g > 0, so
    # LfV > 0 > LgV and the valve opens, fully within its range; above, it closes
    *[Feedback(f"tank-{x:.0f}", TANK, CFG, x, {"u": u})
      for x, u in ((150_000.0, 1.0), (140_000.0, 1.0), (160_000.0, 0.0))],
    *[Feedback(f"tank-unbounded-{x:.0f}", TANK, UNBOUNDED, x, {"sign": sign, **NEGATIVE})
      for x, sign in ((140_000.0, 1.0), (160_000.0, -1.0))],
    *[Feedback(f"tank-vdot-{x:.0f}", TANK, UNBOUNDED, x, NEGATIVE)
      for x in (120_000.0, 145_000.0, 155_000.0, 190_000.0)],
    *[Feedback(f"tank-outside-{x:.0f}", TANK, CFG, x, {"error": (
        DomainError, f"state {x!r} outside domain [{LO!r}, {HI!r}]")})
      for x in (99_999.0, 100_000.0, 200_000.0, 250_000.0)],
]


def check_feedback(row):
    """Hold ``sontag_feedback(dynamics, cfg)(x)`` to ``reference_feedback``,
    bit for bit and error for error, then to the row's facts."""
    dynamics, x = row.dynamics, row.x
    if not isinstance(dynamics, SystemDynamics):
        dynamics, x = constant_gains(*dynamics), row.cfg.setpoint + 0.5
    got = outcome(sontag_feedback(dynamics, row.cfg), x)
    assert got == outcome(reference_feedback, dynamics, row.cfg, x)
    for name, value in row.facts.items():
        assert (name, FACTS[name](dynamics, row.cfg, x, got)) == (name, value)


@pytest.mark.parametrize("row", FEEDBACKS, ids=[row.id for row in FEEDBACKS])
def test_feedback(row):
    check_feedback(row)


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


@given(data=st.data())
def test_drawn_tank_feedback(data):
    # states a little past either end of the domain included
    x = data.draw(st.floats(min_value=LO - 1e3, max_value=HI + 1e3))
    setpoint = data.draw(st.floats(min_value=LO, max_value=HI))
    lgv = lie(TANK, setpoint, x)[1] if LO <= x <= HI else 0.0
    check_feedback(Feedback("drawn", TANK, drawn_config(
        setpoint, lgv, data.draw(BOUNDS), data.draw(THRESHOLDS)), x))


@given(lfv=FINITE, lgv=FINITE, x=FINITE, setpoint=FINITE, bounds=BOUNDS, threshold=THRESHOLDS)
def test_drawn_constant_gains(lfv, lgv, x, setpoint, bounds, threshold):
    dynamics = constant_gains(lfv, lgv)
    cfg = drawn_config(setpoint, lie(dynamics, setpoint, x)[1], bounds, threshold)
    check_feedback(Feedback("drawn", dynamics, cfg, x))


@given(
    lfv=st.floats(min_value=-1e3, max_value=1e3),
    lgv=st.floats(min_value=1e-3, max_value=1e3) | st.floats(min_value=-1e3, max_value=-1e-3),
)
@example(lfv=0.0, lgv=1.3)
def test_drawn_unsaturated_decrease(lfv, lgv):
    # LfV + LgV u = -sqrt(LfV^2 + LgV^4) < 0 off the threshold
    decrease = pytest.approx(-math.sqrt(lfv * lfv + lgv ** 4), rel=1e-9)
    check_feedback(Feedback("drawn", (lfv, lgv), UNBOUNDED, facts={"vdot": decrease, **NEGATIVE}))
