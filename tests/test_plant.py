import math
import sys
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim import (
    DomainError,
    IntegrationDomainError,
    PredictorConfig,
    SystemDynamics,
    UncertaintySignal,
    gamma_in_range,
    predict_step,
    rk4_increment,
    tank_dynamics,
)

from conftest import (
    linear_decay_dynamics, outcome, reference_march, reference_plant, still_dynamics,
)


def tank(**changes) -> SystemDynamics:
    """The tank of tank-reference with the parameters ``changes``."""
    return tank_dynamics(reference_plant()._replace(**changes))


def gains(f, g=lambda x: 0.0, w=lambda x: 0.0, domain=(0.0, 10.0)) -> SystemDynamics:
    """Dynamics built from the callables f, g and w."""
    return SystemDynamics(f, g, w, domain)


def hand_gains(x, **changes):
    """f, g and w of the tank at ``x``, by the formula of the plant
    module's docstring."""
    p = reference_plant()._replace(**changes)
    f = -(1 / p.vol) * p.alpha2 * p.a2 * p.m2 * x * math.sqrt(2 * (x - p.p2) / p.rho)
    g = (1 / p.vol) * p.alpha1 * p.a1 * x * math.sqrt(2 * (p.p1 - x) / p.rho)
    return tuple(pytest.approx(v, rel=1e-12) for v in (f, g, x / p.vol))


class March(NamedTuple):
    """One row of ``MARCHES``: ``dynamics.march`` from ``x`` under ``u``
    and ``theta``, ``n`` steps of ``h``, each x <- scale*x + dx, and the
    facts only this row pins, each a name of ``FACTS`` and its value."""

    id: str
    dynamics: SystemDynamics
    x: float
    u: float
    h: float
    theta: float = 0.0
    n: int = 1
    scale: float = 1.0
    facts: dict = {}


class Marched(NamedTuple):
    """What a march did: the hex of its x and dx, or the type and text of
    its error; the error or None; the ``(x, left)`` of each ``fail`` call;
    and its ``math.sqrt`` calls."""

    end: object
    error: Optional[Exception]
    fails: list
    sqrt: int


def marched(march) -> Marched:
    """What ``march(fail)`` did, under a ``fail`` that, like the truth's,
    raises for an end state outside the domain while steps are left."""
    fails, sqrt, error = [], 0, None

    def fail(x, left):
        fails.append((x, left))
        if left:
            raise DomainError(f"end state {x!r} with {left} steps left")

    def count(frame, event, arg):
        nonlocal sqrt
        sqrt += event == "c_call" and arg is math.sqrt

    sys.setprofile(count)
    try:
        end = tuple(v.hex() for v in march(fail))
    except Exception as exc:
        end, error = (type(exc), str(exc)), exc
    finally:
        sys.setprofile(None)
    return Marched(end, error, fails, sqrt)


# What a row may pin, each a function of the row and what its march did.
FACTS = {
    "end": lambda row, got: got.end,
    "x": lambda row, got: float.fromhex(got.end[0]),
    "dx": lambda row, got: float.fromhex(got.end[1]),
    "stage": lambda row, got: (got.error.stage, got.error.state),
    "fails": lambda row, got: got.fails,
    "sqrt": lambda row, got: got.sqrt,
    # f, g and w at x; w alone; f + g, 0 exactly where g = -f; and f <= 0, g >= 0
    "gains": lambda row, got: tuple(gain(row.x) for gain in row.dynamics[:3]),
    "w": lambda row, got: row.dynamics.uncertainty_gain(row.x),
    "net": lambda row, got: row.dynamics.drift(row.x) + row.dynamics.input_gain(row.x),
    "signs": lambda row, got: (row.dynamics.drift(row.x) <= 0.0,
                               row.dynamics.input_gain(row.x) >= 0.0),
    "domain": lambda row, got: row.dynamics.state_domain,
    # the march itself (functions compare by identity), and its code object
    "march": lambda row, got: row.dynamics.march,
    "code": lambda row, got: id(row.dynamics.march.__code__),
}

TANK = tank()
LINEAR = linear_decay_dynamics()
STILL = still_dynamics((0.0, 10.0))
MIDPOINT = {"x": 150_000.0, "h": 0.1, "theta": 0.175, "n": 20}

# Every march the tests build by hand, one row each: a new march is one new row.
MARCHES = [
    # at the midpoint inflow and outflow cancel exactly
    *[March(f"tank-{x:.0f}", TANK, x, 0.4, 0.1, 0.175, 20,
            facts={"gains": hand_gains(x), "w": x / 2.0, "signs": (True, True), **net})
      for x, net in ((110_000.0, {}), (150_000.0, {"net": 0.0}), (190_000.0, {}))],
    # half the outlet opening halves the drift alone
    March("half-outlet", tank(m2=0.5), 160_000.0, 0.4, 0.1, 0.175,
          facts={"gains": hand_gains(160_000.0, m2=0.5)}),
    # on the closed interval [p2, p1] the flows vanish at its ends
    *[March(f"margin-0-at-{x:.0f}", tank(domain_margin=0.0), x, 0.5, 0.1, 0.175,
            facts={"gains": hand_gains(x), "domain": (100_000.0, 200_000.0)})
      for x in (100_000.0, 200_000.0)],
    March("margin-10", tank(domain_margin=10.0), 100_005.0, 0.5, 0.1,
          facts={"domain": (100_010.0, 199_990.0), "stage": (1, 100_005.0)}),
    March("p2-50kPa", tank(p2=50_000.0, m2=0.5), 60_000.0, 0.5, 0.1, 0.175,
          facts={"domain": (50_000.001, 199_999.999)}),
    # the kernel checks the start state before its first right-hand side
    *[March(f"start-{x:.0f}", TANK, x, 0.5, 2.0, 0.175, facts={"stage": (1, x)})
      for x in (99_999.0, 100_000.0, 200_000.0, 250_000.0)],
    *[March(f"h-{h}", TANK, 150_000.0, 0.0, h, n=2,
            facts={"end": (ValueError, f"step h must be positive, got {h!r}")})
      for h in (0.0, -1.0, math.nan)],
    # _replace carries the generated march over, gains and all, and a
    # replaced domain binds it: stage 2 probes past the narrow one
    March("replaced-gains", TANK, **MIDPOINT, u=0.4,
          facts={"march": TANK._replace(drift=abs, input_gain=abs).march}),
    March("wide-step", TANK, 149_000.0, 1.0, 20.0, facts={"fails": [(87_071.53768234473, 0)]}),
    March("narrow-domain", TANK._replace(state_domain=(140_000.0, 150_000.0)), 149_000.0, 1.0,
          20.0, facts={"march": TANK.march, "stage": (2, 152_124.00927402708)}),
    # the closed valve marches without g: f and g each take one square root
    # per stage, 4 stages per step; only +0.0 proves the input term +0.0
    *[March(f"sqrt-{name}", dynamics, **MIDPOINT, u=u, facts={"sqrt": sqrt})
      for name, dynamics, u, sqrt in (
          ("closed", TANK, 0.0, 80), ("open", TANK, 1.0, 160), ("negative-zero", TANK, -0.0, 160),
          # nothing proves a callable's g, so dynamics built from callables call it
          ("callables", gains(*TANK[:3], TANK.state_domain), 0.0, 160),
      )],
    # lo = 0 admits x = -0.0, where g(x) * (+0.0) is -0.0
    March("negative-zero-state", tank(p2=0.0, domain_margin=0.0), -0.0, 0.0, 0.1, n=20,
          facts={"end": ("-0x0.0p+0", "-0x0.0p+0")}),
    # with m2 = 0, f is -0.0, which g(x) * (-0.0) keeps and +0.0 does not;
    # and -0.0 + 0.0 is +0.0, where -0.0 + -0.0 would be -0.0
    *[March(f"outlet-closed-u-{u}", tank(m2=0.0), 150_000.0, u, 0.1, -0.0, 20,
            facts={"end": ((150_000.0).hex(), dx)})
      for u, dx in ((-0.0, "-0x0.0p+0"), (0.0, "0x0.0p+0"))],
    # g(x) overflows, and inf * (+0.0) is nan
    March("gain-overflow", tank(alpha1=1e306), **MIDPOINT, u=0.0,
          facts={"end": (IntegrationDomainError, "stage 2 state nan left the domain")}),
    # past p1 the input gain takes the square root of a negative number
    March("wider-replaced-domain", TANK._replace(state_domain=(TANK.state_domain[0], 250_000.0)),
          210_000.0, 0.0, 0.1, 0.175, facts={"end": (ValueError, "math domain error")}),
    # each stage names itself
    *[March(f"stage-{stage}", gains(f, domain=domain), 5.0, 0.0, 1.0, n=3,
            facts={"stage": (stage, state)})
      for stage, f, domain, state in (
          (1, lambda x: 0.0, (0.0, 4.0), 5.0),
          (2, lambda x: 100.0, (0.0, 10.0), 55.0),
          (3, lambda x: 1.0 if x <= 5.25 else 20.0, (0.0, 10.0), 15.0),
          (4, lambda x: 1.0, (0.0, 5.9), 6.0),
      )],
    # stage 1 is fine at 0.9; stage 2 probes 0.9 + k1/2
    March("stage-2-linear", gains(lambda x: 10.0 * x, domain=(-1.0, 1.0)), 0.9, 0.0, 1.0,
          facts={"stage": (2, 0.9 + 4.5)}),
    March("composed-gains",
          gains(lambda x: -2.0 * x, lambda x: x + 1.0, lambda x: 3.0, (-10.0, 10.0)), 1.5, 0.25,
          0.1, 0.5),
    March("quadratic-drift", gains(lambda x: -x * x, lambda x: 1.0, domain=(-1.0, 1.0)), 0.5, 0.0,
          0.1, facts={"code": id(LINEAR.march.__code__)}),
    # hand-chained stages: k1 = -.1, k2 = -.095, k3 = -.09525, k4 = -.090475
    March("linear-decay", LINEAR, 1.0, 0.0, 0.1,
          facts={"dx": pytest.approx(-0.0951625, rel=1e-12)}),
    # every stage has the same slope
    March("constant-slope", gains(lambda x: 0.0, lambda x: 1.0, domain=(-100.0, 100.0)), 3.0, 2.0,
          0.5, facts={"dx": 1.0}),
    March("still", STILL, 7.0, 123.0, 5.0, facts={"dx": 0.0}),
    # the prediction's correction: zero field, x <- (1 + gamma) x alone
    March("correction", STILL, 6.0, 0.0, 1.0, scale=1.1, facts={"x": (1.0 + 0.1) * 6.0}),
    March("correction-and-increment", LINEAR, 2.0, 0.0, 0.1, n=3, scale=1.05),
    # 6 -> 9 stays inside, the second step's 13.5 does not, with no step
    # left; at 9.5 the first step leaves with three left
    March("corrected-exit", STILL, 6.0, 0.0, 1.0, n=2, scale=1.5, facts={"fails": [(13.5, 0)]}),
    March("corrected-early-exit", STILL, 9.5, 0.0, 1.0, n=4, scale=1.5,
          facts={"fails": [(14.25, 3)]}),
    March("corrected-tank-exit", TANK, 190_000.0, 1.0, 2.0, scale=1.5),
    # an end state on the domain's bound is inside it
    March("end-on-the-bound", STILL, 5.0, 0.0, 1.0, scale=2.0, facts={"x": 10.0, "fails": []}),
    # no step returns the start state and a zero increment, but checks it
    March("no-step", TANK, 150_000.0, 0.5, 2.0, n=0, scale=1.1,
          facts={"end": ((150_000.0).hex(), (0.0).hex())}),
    March("no-step-outside", TANK, 250_000.0, 0.5, 2.0, n=0, scale=1.1,
          facts={"stage": (1, 250_000.0)}),
]


def check_march(row):
    """Hold ``row.dynamics.march`` to ``reference_march``, bit for bit and
    call for call, then the same gains as callables, ``rk4_increment`` for
    one step and ``predict_step`` where theta is 0 and the scale a
    correction 1 + gamma; then the row's facts."""
    d, (lo, hi) = row.dynamics, row.dynamics.state_domain
    args = (row.x, row.u, row.h, row.theta)
    expected = marched(lambda fail: reference_march(d, *args, row.n, row.scale, fail))
    generic = gains(*d[:3], d.state_domain)
    got, called = (marched(lambda fail: march(*args, lo, hi, row.n, row.scale, fail))
                   for march in (d.march, generic.march))
    # by repr, under which a NaN state equals itself
    seen = [repr((ran.end, ran.fails)) for ran in (got, called, expected)]
    assert seen == [seen[-1]] * 3
    if row.n == 1:
        step = outcome(lambda: reference_march(d, *args)[1])
        assert outcome(rk4_increment, d, *args) == outcome(rk4_increment, generic, *args) == step
    gamma = row.scale - 1.0
    if row.theta == 0 and row.h > 0 and gamma_in_range(gamma) and 1.0 + gamma == row.scale:
        cfg, n = PredictorConfig(row.h, gamma, 1), row.n
        predicted = outcome(lambda: reference_march(
            d, row.x, row.u, row.h, 0.0, n, row.scale, lambda x, left: d.check_state(x))[0])
        assert outcome(predict_step, cfg, d, row.x, row.u, n) == predicted

        def repeated(x):
            for _ in range(n):
                x = predict_step(cfg, d, x, row.u)
            return x

        assert n == 0 or outcome(repeated, row.x) == predicted
    for name, value in row.facts.items():
        assert (name, FACTS[name](row, got)) == (name, value)


@pytest.mark.parametrize("row", MARCHES, ids=[row.id for row in MARCHES])
def test_march(row):
    check_march(row)


@st.composite
def physical_marches(draw):
    """A march of the reference tank, its volume and outlet opening drawn,
    from a state inside its domain under an input in [-2, 2], several
    steps long; it also pins the gains by hand, w = x / 2 at the reference
    volume, and the signs f <= 0 and g >= 0."""
    vol = draw(st.sampled_from([2.0]) | st.floats(0.1, 10.0))
    m2 = draw(st.sampled_from([1.0]) | st.floats(0.0, 1.0))
    dynamics = tank(vol=vol, m2=m2)
    x = draw(st.floats(*dynamics.state_domain))
    return March(
        "physical", dynamics, x,
        u=draw(st.floats(-2.0, 2.0)),
        h=draw(st.sampled_from([0.01, 0.1, 0.5, 2.0])),
        theta=draw(st.sampled_from([0.0]) | st.floats(-1.0, 1.0)),
        n=draw(st.integers(1, 25)),
        # 1 - 0.3 leaves the domain at once, 1 +- 1e-3 over many steps
        scale=1.0 + draw(st.sampled_from([0.0, 0.05, -0.3]) | st.floats(-1e-3, 1e-3)),
        facts={"gains": hand_gains(x, vol=vol, m2=m2), "signs": (True, True),
               **({"w": x / 2.0} if vol == 2.0 else {})},
    )


@st.composite
def stressed_marches(draw):
    """A march of a tank with drawn parameters, from any state of its
    domain or past it, under any input: the zero-input march's guards
    (signed zeros, a domain that reaches 0, a gain that may overflow)
    among them."""
    params = reference_plant()._replace(
        p2=draw(st.sampled_from([0.0, 5e4, 1e5])),
        domain_margin=draw(st.sampled_from([0.0, 1e-3, 1.0])),
        m2=draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)),
        alpha1=draw(st.sampled_from([0.631811, 1e300, 1e306]) | st.floats(1e-6, 1e306)),
        vol=draw(st.sampled_from([2.0]) | st.floats(0.1, 10.0)),
    )
    lo, hi = params.state_domain
    return March(
        "drawn", tank_dynamics(params),
        x=draw(st.sampled_from([lo, hi, 0.0, -0.0]) | st.floats(lo, hi) | st.floats(lo - 1e3, hi)),
        u=draw(st.sampled_from([0.0, -0.0, 1.0, math.nan]) | st.floats()),
        h=draw(st.sampled_from([0.01, 0.1, 2.0])),
        theta=draw(st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)),
        n=draw(st.integers(0, 25)),
        scale=1.0 + draw(st.sampled_from([0.0, 0.05, -0.3]) | st.floats(-0.2, 0.2)),
    )


# at least the 800 draws the default profile gives, more under a deeper one
@settings(deadline=None, max_examples=max(800, settings.default.max_examples))
@given(row=physical_marches() | stressed_marches())
def test_drawn_march(row):
    check_march(row)


@pytest.mark.parametrize("times, values, t, value", [
    ((0.0,), (0.175,), 1e9, 0.175),
    # before the first time the first value holds
    ((10.0,), (0.5,), 0.0, 0.5),
    *[((0.0, 1800.0), (0.175, 0.185), t, value)
      for t, value in ((0.0, 0.175), (1799.999, 0.175), (1800.0, 0.185), (3600.0, 0.185))],
])
def test_schedule_lookup(times, values, t, value):
    assert UncertaintySignal(times, values).value(t) == value
