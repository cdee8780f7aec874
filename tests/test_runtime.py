import functools
import io
import itertools
import math
import os
import statistics
import time
from bisect import bisect_right
from collections import deque
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ncsim.runtime

from ncsim import (
    ComparisonResult,
    ConfigError,
    ControllerConfig,
    ControllerOverflowError,
    CostWeights,
    DomainError,
    HOLD_LAST_VALUE,
    IntegrationDomainError,
    LossModel,
    NcsimError,
    NonFiniteError,
    PREDICTIVE_BUFFER,
    PredictorConfig,
    RunStats,
    SimSettings,
    SimulationDiverged,
    SimulationRecord,
    STRATEGIES,
    SystemDynamics,
    TraceExhaustedError,
    TraceWriter,
    UncertaintySignal,
    ZERO_INPUT,
    builtin_scenario,
    compare_strategies,
    integrate_interval,
    run_closed_loop,
    run_scenario,
    scenario_from_dict,
    sontag_feedback,
    tank_dynamics,
    write_comparison_csv,
)
from ncsim.losses import SEEDED_KINDS
from ncsim.predictor import predict_step
from ncsim.runtime import MAX_COMPARE_SEEDS, TRACE_HEADER

from conftest import (
    RUN_KEYS, WIDE, linear_decay_dynamics, reference_feedback, reference_interval, reference_plan,
    reference_plant, reference_run, run_overrides, still_dynamics,
)
from conftest import small_scenario as small_document

ZERO_THETA = UncertaintySignal.constant(0.0)


def make_record(k=0, x=2.0, u=3.0, x_pred=None):
    return SimulationRecord(
        k=k, t=float(k), x_true=x, x_pred=x_pred, s=1, i=0, u=u, j_running=0.0
    )


# Corners of the tank: no outflow, a domain reaching p2 or 0, and an input
# gain past float range; the last two keep the full march at u = +0.0.
TANK_CORNERS = {
    "plant.m2": 0.0, "plant.domain_margin": 0.0, "plant.p2": 0.0, "plant.alpha1": 1e306,
}


@st.composite
def loop_cases(draw):
    """Reception bits and the overrides of a short tank-reference run."""
    bits = tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=16)))
    # schedule times anywhere in the run, so most fall inside an interval;
    # with m2 = 0, theta = 0 and the valve closed the state stands still
    change = st.tuples(st.floats(0.0, 2.0 * len(bits)), st.just(0.0) | st.floats(-0.3, 0.3))
    theta = st.lists(change, min_size=1, max_size=3, unique_by=lambda pair: pair[0]).map(sorted)
    corners = draw(st.sets(st.sampled_from(sorted(TANK_CORNERS)), max_size=2))
    # states inside the domain at either margin
    lo = 0.001 if "plant.p2" in corners else 100_000.001
    state = st.floats(lo, 199_999.999, exclude_min=True, exclude_max=True)
    return bits, {
        **{key: TANK_CORNERS[key] for key in corners},
        "sim.x0": draw(state),
        "controller.setpoint": draw(state),
        "sim.theta": draw(theta),
        "sim.doubled_age_offset": draw(st.booleans()),
        "predictor.horizon": draw(st.integers(1, 5) | st.just(10)),
        "predictor.gamma": draw(st.floats(-0.5, 0.5)),
        "predictor.delta": draw(st.sampled_from([2.0, 1.0])),  # 1 or 2 steps per input
        "sim.n_truth": draw(st.integers(1, 5) | st.just(20)),
        "cost.raw_state": draw(st.booleans()),
    }


def replayed_offsets(bits, horizon, doubled):
    """The buffer entry each interval replays, None on a reception."""
    offsets, origin, age = [], 0, 0
    for k, s in enumerate(bits):
        if s:
            offsets.append(None)
            origin, age = k, 0
        else:
            offsets.append(min(2 * age + 1, horizon) if doubled else min(k - origin, horizon))
            age = min(age + 1, horizon)
    return offsets


def counted_march(dynamics, n_truth):
    """``dynamics`` with a march that records the substeps of each call.  A
    march of no substep, or past ``n_truth`` substeps in all, fails: a
    split that stops advancing fails rather than hangs."""
    steps = []

    def march(x, u, h, theta, lo, hi, n, scale, fail):
        steps.append(n)
        assert 0 < n and sum(steps) <= n_truth, steps
        return dynamics.march(x, u, h, theta, lo, hi, n, scale, fail)

    return dynamics._replace(march=march), steps


def theta_runs(t_start, t_s, n_truth, theta):
    """The lengths of the maximal runs of substep starts ``t_start + j*h``
    that fall after the same number of schedule times."""
    h = t_s / n_truth
    entries = [bisect_right(theta.times, t_start + j * h) for j in range(n_truth)]
    return [len(list(run)) for _, run in itertools.groupby(entries)]


def held_theta(t_start, t_s, n_truth, theta):
    """theta if one schedule entry covers every substep start of the
    interval, else None."""
    return theta.value(t_start) if len(theta_runs(t_start, t_s, n_truth, theta)) == 1 else None


class Interval(NamedTuple):
    """One row of ``INTERVALS``: the interval of ``dynamics`` from ``x``
    under ``u`` and ``theta``, from ``t_start`` over ``t_s`` in ``n_truth``
    substeps, and the facts only this row pins: the end state ``x``, the
    error's type and text ``end``, its ``stage`` and state, and ``runs``."""

    id: str
    dynamics: SystemDynamics
    x: float
    u: float
    t_start: float
    t_s: float
    n_truth: int
    theta: UncertaintySignal = ZERO_THETA
    facts: dict = {}


def ended(fn, *args):
    """The hex of the state ``fn(*args)`` returns, or the type, text, stage
    and state of its error; and the error or None."""
    try:
        return fn(*args).hex(), None
    except (NcsimError, ValueError) as exc:
        return repr([type(exc), str(exc), *(getattr(exc, a, 0) for a in ("stage", "state"))]), exc


def check_interval(row):
    """Hold ``integrate_interval`` on ``row`` to ``reference_interval`` by
    ``ended``, and its marches, up to one that raised, to ``theta_runs``;
    then the row's facts."""
    args = row[2:8]
    counted, steps = counted_march(row.dynamics, row.n_truth)
    shown, error = ended(integrate_interval, counted, *args)
    assert shown == ended(reference_interval, row.dynamics, *args)[0]
    runs = theta_runs(*args[2:])
    assert steps == (runs if error is None else runs[:len(steps)])
    facts = {"x": lambda: float.fromhex(shown), "end": lambda: (type(error), str(error)),
             "stage": lambda: (error.stage, error.state), "runs": lambda: steps}
    for name, value in row.facts.items():
        assert (name, facts[name]()) == (name, value)


TANK = tank_dynamics(reference_plant())
FLAT = still_dynamics().drift  # 0 at every state
DISTURBANCE = SystemDynamics(FLAT, FLAT, lambda x: 1.0, WIDE)  # x' = theta
# Schedules around the interval [1800, 1802) in 20 substeps of 0.1 s, and
# the substeps of each march over it, as ``theta_runs`` counts them.
SCHEDULES = {
    "break-mid-interval": ((0.0, 1800.05), (0.175, 0.185), [1, 19]),
    "break-on-a-substep-start": ((0.0, 1800.5), (0.175, 0.185), [5, 15]),
    "break-on-the-interval-start": ((0.0, 1800.0), (0.175, 0.185), [20]),
    "break-on-the-last-substep-start": ((0.0, 1800.0 + 19 * 0.1), (0.175, 0.185), [19, 1]),
    "break-after-the-last-substep-start": ((0.0, 1801.95), (0.175, 0.185), [20]),
    "several-breaks": ((0.0, 1800.05, 1800.3, 1800.35, 1801.9), (0.175, 0.3, -0.2, 0.0, 0.185),
                       [1, 2, 1, 15, 1]),
    "break-and-back": ((0.0, 1800.5, 1801.0), (0.175, 0.3, 0.175), [5, 5, 10]),
    # the same theta at both ends, from two entries, switching between starts
    "switch-away-and-back-between-starts": ((0.0, 1800.45, 1801.05), (0.175, 0.3, 0.175),
                                            [5, 6, 9]),
    "no-break": ((0.0, 1000.0), (0.175, 0.185), [20]),
}
# From 5 at h = 1 every stage stays in [0, 6.5] (5.5, 5.5, 6.0), but the end
# state 5 + (1 + 2 + 2 + 100) / 6 = 22.5 does not; from 4, step 1 ends at 5.
END_ESCAPE = SystemDynamics(lambda x: 1.0 if x < 5.9 else 100.0, FLAT, FLAT, (0.0, 6.5))
# From 5 at h = 2 the stages sit at 5.05, 5.05 and 5.1, where 2 * 1e308 overflows.
OVERFLOW = SystemDynamics(lambda x: 0.05 if x < 5.08 else 1e308, FLAT, FLAT, WIDE)
# theta under which an interval from t = 3 is one march, and, with more
# than one substep, a straddling one: a march before 3.5 and one from it
THETA_PATHS = {"constant": ZERO_THETA, "straddling": UncertaintySignal((0.0, 3.5), (0.0, 0.0))}

# Every interval the tests march by hand, one row each: a new one is one row.
INTERVALS = [
    *[Interval(f"{name}-{x:.0f}", TANK, x, u, 1800.0, 2.0, 20, UncertaintySignal(times, values),
               {"runs": runs})
      for name, (times, values, runs) in SCHEDULES.items()
      for x, u in ((140_000.0, 0.0), (150_100.0, 0.37), (185_000.0, 1.0))],
    # schedule times before t = 0; the starts before times[0] take its value
    *[Interval(f"times-{times}", TANK, 150_000.0, 0.5, 0.0, 2.0, 20,
               UncertaintySignal(times, tuple(0.1 * (i + 1) for i in range(len(times)))))
      for times in ((-5.0,), (-5.0, 0.35), (-5.0, -1.0, 1.0), (1.0,), (1.0, 1.5))],
    # 0.9 / 0.3 is 3.0, but the start 3 * 0.3 is 0.8999999999999999, which
    # the lookup still gives the first entry: 4 substeps of 1.0
    Interval("break-on-the-lookup-floats", DISTURBANCE, 0.0, 0.0, 0.0, 3.0, 10,
             UncertaintySignal((0.0, 0.9), (1.0, 2.0)),
             {"x": pytest.approx(4 * 0.3 + 6 * 0.3 * 2.0), "runs": [4, 6]}),
    # each substep adds h * theta exactly; a switch at 0.3 takes effect
    # from the start 0.5, and the interval start offsets the schedule
    *[Interval(name, DISTURBANCE, x, 0.0, t_start, 1.0, n, UncertaintySignal(*schedule), facts)
      for name, x, t_start, n, schedule, facts in (
          ("constant-disturbance", 10.0, 0.0, 4, ((0.0,), (2.0,)), {"x": 12.0}),
          ("switch-between-starts", 0.0, 0.0, 2, ((0.0, 0.3), (1.0, 3.0)),
           {"x": 2.0, "runs": [1, 1]}),
          ("start-offsets-the-schedule", 0.0, 10.0, 2, ((0.0, 10.0), (1.0, 3.0)), {"x": 3.0}),
      )],
    # x' = -x: one step is 1 - 1 + 1/2 - 1/6 + 1/24, ten cut its error to a
    # thousandth, and a hundred come within 1e-9 of e^-1
    *[Interval(f"decay-{n}", linear_decay_dynamics(), 1.0, 0.0, 0.0, 1.0, n, facts={"x": x})
      for n, x in ((1, 0.375), (10, pytest.approx(math.exp(-1.0), abs=7.1e-6)),
                   (100, pytest.approx(math.exp(-1.0), rel=1e-9)))],
    # every stage state stays in the domain; only k4 is infinite
    Interval("cliff", SystemDynamics(lambda x: 1.0 if x < 1.9 else math.inf, FLAT, FLAT, WIDE),
             1.0, 0.0, 0.0, 1.0, 1,
             facts={"end": (NonFiniteError, "state became non-finite during interval at t=0.0")}),
    *[Interval(f"{name}-{path}-{n}", dynamics, x, 0.0, 3.0, n * h, n, theta, facts)
      for path, theta in THETA_PATHS.items()
      for name, dynamics, x, h, n, facts in (
          *(("end-escape", END_ESCAPE, x, 1.0, n,
             {"end": (DomainError, "state 22.5 outside domain [0.0, 6.5]")})
            for x, n in ((5.0, 1), (4.0, 2))),
          # an exit mid-interval stops the next march's first stage
          *(("mid-interval-exit", END_ESCAPE, 5.0, 1.0, n, {"stage": (1, 22.5), "end": (
              IntegrationDomainError, "stage 1 state 22.5 left the domain")}) for n in (2, 3)),
          *(("overflow", OVERFLOW, 5.0, 2.0, n,
             {"end": (NonFiniteError, "state became non-finite during interval at t=3.0")})
            for n in (1, 2)),
      )],
    # each stage names itself, the start state's check the first; stage 4
    # probes 6.0 outside [0, 5.9]
    *[Interval(f"stage-{stage}", SystemDynamics(f, FLAT, FLAT, domain), x, 0.0, 0.0, t_s, n,
               facts={"stage": (stage, state), "end": (
                   IntegrationDomainError, f"stage {stage} state {state!r} left the domain")})
      for stage, f, domain, x, t_s, n, state in (
          (1, END_ESCAPE.drift, (0.0, 6.5), 7.0, 1.0, 1, 7.0),
          (2, lambda x: 100.0, (0.0, 10.0), 5.0, 1.0, 1, 55.0),
          (4, END_ESCAPE.drift, (0.0, 5.9), 5.0, 2.0, 2, 6.0),
      )],
]


@pytest.mark.parametrize("row", INTERVALS, ids=[row.id for row in INTERVALS])
def test_interval(row):
    check_interval(row)


@st.composite
def drawn_intervals(draw):
    """A tank interval under up to five schedule times, some on substep
    starts, where every stage state stays inside the domain down to one
    substep; values from three, so a run often ends at the same value."""
    n_truth, t_start = draw(st.integers(1, 30)), draw(st.sampled_from([0.0, 1.0, 2.0]))
    starts = st.integers(0, n_truth - 1).map(lambda j: t_start + j * (2.0 / n_truth))
    times = draw(st.lists(st.floats(-2.0, 4.0) | starts, min_size=1, max_size=5, unique=True))
    values = draw(st.lists(st.sampled_from((-0.2, 0.0, 0.2)), min_size=5, max_size=5))
    theta = UncertaintySignal(tuple(sorted(times)), tuple(values[:len(times)]))
    return Interval("drawn", TANK, draw(st.floats(145_000.0, 160_000.0)), draw(st.floats(0.0, 1.0)),
                    t_start, 2.0, n_truth, theta)


@settings(deadline=None)
@given(row=drawn_intervals())
def test_drawn_interval(row):
    check_interval(row)


class RecordingSink:
    """A sink that is no list: it keeps what is appended to it, in order."""

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)


def bitwise(records):
    """Each record as text that tells +0.0 from -0.0."""
    return [repr(r) for r in records]


def trace_row(r):
    """A record's ``trace.csv`` row, each float formatted afresh."""
    x_pred = "" if r.x_pred is None else repr(float(r.x_pred))
    return (
        f"{r.k},{float(r.t)!r},{float(r.x_true)!r},{x_pred},"
        f"{r.s},{r.i},{float(r.u)!r},{float(r.j_running)!r}\n"
    )


def small_scenario(small_scenario_dict, overrides=None):
    return scenario_from_dict(small_scenario_dict(overrides))


def scenario_loop(sc, sim=None, cost=None):
    """``(dynamics, predictor, controller, sim, cost)`` of the scenario
    ``sc``, with the fields ``sim`` and ``cost`` put into its last two."""
    return (
        tank_dynamics(sc.plant), sc.predictor, sc.controller, sc.sim._replace(**(sim or {})),
        sc.cost._replace(**(cost or {})),
    )


def tank_loop(overrides=None, **fields):
    """The loop of the 60-step tank-reference scenario under ``overrides``."""
    return scenario_loop(scenario_from_dict(small_document(overrides)), **fields)


def scalar_loop(f, g, x0, steps, setpoint, *, u=(0.0, 1.0), domain=WIDE, theta=ZERO_THETA,
                n_truth=1, horizon=2, gamma=0.0, doubled=False, q_c=1.0, r_c=1.0, m_steps=None,
                raw=False):
    """The loop of x' = f(x) + g(x) u over ``steps`` intervals of 1 s,
    predicted with delta = 1 s; m_steps defaults to ``steps``."""
    return (
        SystemDynamics(f, g, lambda x: 0.0, domain),
        PredictorConfig(delta=1.0, gamma=gamma, horizon=horizon),
        ControllerConfig(setpoint, u_min=u[0], u_max=u[1]),
        SimSettings(x0, 1.0, float(steps), theta, n_truth, doubled),
        CostWeights(q_c, r_c, m_steps or steps, raw),
    )


def decay(x0, setpoint, received=1, u_min=0.0, **cost):
    """Two intervals of x' = -x + u under zero-input, whose first one is
    lost unless ``received``, and whose cost is that first interval's."""
    return scalar_loop(
        lambda x: -x, lambda x: 1.0, x0, 2, setpoint, u=(u_min, u_min + 1.0), horizon=5, m_steps=1,
        **cost,
    ), (received, 1)


def sign_of_zero_drift(x):
    """-1 at -0.0 and +1 at +0.0.  From x0 = -0.0 with h = 1, RK4 goes
    to -1.0, then exactly to +0.0 (stages -1, 2, 1, 1), then to 1.0: a memo
    that merged the two zeros would send +0.0 back to -1.0."""
    if x == 0.0:
        return math.copysign(1.0, x)
    if x > 0.0:
        return 1.0
    return 2.0 if x < -1.25 else -1.0


# Slopes of signed_zero_drift away from 0, each at the stage states one
# run below meets, so its RK4 steps (h = 1) are exact.
ZERO_RUN_SLOPES = {0.5: -4.0, 1.0: -7.0, -1.0: -1.0, -1.5: 2.0}


def signed_zero_drift(x):
    """+1 at +0.0 and -1 at -0.0.  With g = 1, setpoint 1 and u in [0, 2]
    the feedback is 2.0 at -0.0 and sqrt(5) - 1 at +0.0, and a run from
    -0.0 goes to -1.0 under that 2.0, then under a lost zero input to
    +0.0 (the steps of ``sign_of_zero_drift``)."""
    if x == 0.0:
        return math.copysign(1.0, x)
    return ZERO_RUN_SLOPES.get(x, 0.0)


class Same(NamedTuple):
    """A fact's value for another strategy of the same row."""

    strategy: str


class Run(NamedTuple):
    """One row of ``RUNS``: a loop ``(dynamics, predictor, controller, sim,
    cost)``, its reception bits, one bit per interval, the strategies run
    on it, the memo cap (None: ``TRUTH_MEMO_ENTRIES``), and the facts only
    this row pins, each a name of ``FACTS`` and its value for every one of
    the row's strategies."""

    id: str
    loop: tuple
    bits: tuple
    strategies: tuple = STRATEGIES
    cap: Optional[int] = None
    facts: dict = {}


class Ran(NamedTuple):
    """What one strategy of a row did into one sink: the records the sink
    kept (None if it keeps none), the final state or ``(step, reason)``,
    the ``RunStats``, the ``SimulationDiverged`` or None, the argument
    tuples of its ``integrate_interval`` calls, the states it applied the
    feedback at, the values ``TraceWriter`` formatted, and its
    ``predict_step`` calls."""

    records: Optional[list]
    end: object
    stats: RunStats
    error: Optional[SimulationDiverged]
    marches: list
    feedback: list
    texts: list
    predicted: int


def x0_plan(loop):
    """The reference plan from x0."""
    dynamics, predictor, control, sim, _ = loop
    return reference_plan(
        predictor, dynamics, sim.x0, functools.partial(reference_feedback, dynamics, control),
        predictor.steps_per_input(sim.t_s),
    )


# What a row may pin, each a function of the row's loop and one strategy's
# ``Ran``; a pinned value is compared by ``repr``, which tells the zeros apart.
FACTS = {
    "end": lambda loop, ran: ran.end,
    "steps": lambda loop, ran: len(ran.records),
    "stats": lambda loop, ran: ran.stats,
    "cost": lambda loop, ran: ran.stats.j_m_steps,
    "first": lambda loop, ran: (ran.records[0].x_true, ran.records[0].u),
    "records": lambda loop, ran: ran.records,
    "plain records": lambda loop, ran: [r._replace(x_pred=None) for r in ran.records],
    "states": lambda loop, ran: [r.x_true for r in ran.records],
    "inputs": lambda loop, ran: [r.u for r in ran.records],
    "ages": lambda loop, ran: [r.i for r in ran.records],
    # the entry of the plan from x0 that each lost interval replays
    "replayed": lambda loop, ran: [
        x0_plan(loop).index((r.x_pred, r.u)) for r in ran.records if not r.s
    ],
    # calls, and the distinct (x, u, held theta) keys among them
    "marches": lambda loop, ran: (
        len(ran.marches), len({repr((x, u, held_theta(*rest))) for _, x, u, *rest in ran.marches}),
    ),
    # (interval start, held theta or None for a straddling interval)
    "marched": lambda loop, ran: [(args[3], held_theta(*args[3:])) for args in ran.marches],
    "feedback": lambda loop, ran: (len(ran.feedback), len(set(map(repr, ran.feedback)))),
    "feedback states": lambda loop, ran: ran.feedback,
    "texts": lambda loop, ran: (len(ran.texts), len(set(map(repr, ran.texts)))),
    "cause": lambda loop, ran: type(ran.error.__cause__),
}

LOSSLESS, ALL_LOST = (1,) * 60, (0,) * 60
BURSTY = tuple(int(bit) for bit in "110100011101111000001011" * 2 + "101101100111")
AFTER_ONE_ENTRY = (1, "prediction left the domain after 1 entries")
THETA_BREAKS = UncertaintySignal(
    times=(-1.0, 2.5, 3.0, 4.5, 6.2, 6.4, 100.0), values=(0.0, 1.0, 2.0, 0.0, 3.0, 1.0, 5.0),
)

# Every loop the tests build by hand, one row each: a new run is one new row.
RUNS = [
    # without loss the three strategies apply the same inputs, and the buffer
    # predicts each state itself
    Run("lossless", tank_loop(), LOSSLESS, facts={
        "plain records": Same(HOLD_LAST_VALUE), "end": Same(HOLD_LAST_VALUE),
    }),
    Run("bursty", tank_loop(cost={"m_steps": 7}), BURSTY),
    Run("bursty-doubled", tank_loop({"sim.doubled_age_offset": True}, cost={"m_steps": 7}), BURSTY,
        (PREDICTIVE_BUFFER,)),
    # with no reception, hold keeps the initial u = +0.0
    Run("all-lost", tank_loop(), ALL_LOST, (HOLD_LAST_VALUE, ZERO_INPUT),
        facts={"records": Same(ZERO_INPUT), "inputs": [0.0] * 60}),
    # a leading burst replays the plan from x0, frozen at its last entry;
    # by the doubled rule its first loss replays entry 1
    *[Run(f"all-lost-buffer{suffix}", tank_loop({"sim.doubled_age_offset": doubled}), ALL_LOST,
          (PREDICTIVE_BUFFER,), facts={"replayed": replayed, "ages": [*range(1, 10), *[10] * 51]})
      for suffix, doubled, replayed in (("", False, [*range(10), *[10] * 50]),
                                        ("-doubled", True, [1, 3, 5, 7, 9, *[10] * 55]))],
    *[Run(f"burst-offsets{suffix}",
          tank_loop({"sim.duration": 12.0, "cost.m_steps": 6, "sim.doubled_age_offset": doubled}),
          (1, 0, 0, 0, 1, 1), (PREDICTIVE_BUFFER,),
          facts={"replayed": replayed, "ages": [0, 1, 2, 3, 0, 0]})
      for suffix, doubled, replayed in (("", False, [1, 2, 3]), ("-doubled", True, [1, 3, 5]))],
    # gamma = 0.9 makes entry 1 of every plan leave the domain: the run
    # diverges at the first loss that replays it, and not before
    *[Run(f"gamma-0.9-{name}",
          tank_loop({"predictor.gamma": 0.9, "sim.doubled_age_offset": doubled}), bits,
          (PREDICTIVE_BUFFER,), facts={"end": end, "steps": steps})
      for name, doubled, bits, end, steps in (
          ("all-lost", False, ALL_LOST, AFTER_ONE_ENTRY, 1),
          ("all-lost-doubled", True, ALL_LOST, (0, AFTER_ONE_ENTRY[1]), 0),
          ("first-received", False, (1,) + (0,) * 59, AFTER_ONE_ENTRY, 1),
      )],
    Run("gamma-0.9-lossless", tank_loop({"predictor.gamma": 0.9}), LOSSLESS, (PREDICTIVE_BUFFER,),
        facts={"steps": 60}),
    # theta jumps on the substep start t = 61 inside interval 30
    Run("theta-jump", tank_loop({"sim.theta": [[0.0, 0.175], [61.0, 2.0]]}), LOSSLESS,
        (PREDICTIVE_BUFFER, HOLD_LAST_VALUE),
        facts={"end": (30, "stage 2 state 202433.75963201388 left the domain"), "steps": 31}),
    # a running cost past float range diverges before its record is appended
    Run("q_c-1e308", tank_loop({"cost.q_c": 1e308}), LOSSLESS, facts={
        "end": (0, "running cost became non-finite: inf"),
        "stats": RunStats(0, 0, None, None, None),
    }),
    Run("r_c-1e308", tank_loop({"cost.r_c": 1e308}), LOSSLESS,
        facts={"end": (1, "running cost became non-finite: inf"), "steps": 1}),
    # one lost interval of the two that m_steps asks for
    Run("shorter-than-m_steps", tank_loop(sim={"duration": 2.0}, cost={"m_steps": 2}), (0,),
        (HOLD_LAST_VALUE,), facts={"cost": None, "steps": 1}),
    # the cost of the first interval, its state deviating from the setpoint
    # or raw
    *[Run(f"cost-{name}", *loop_and_bits, (ZERO_INPUT,), facts={"cost": cost, **facts})
      for name, loop_and_bits, cost, facts in (
          ("deviation", decay(2.0, 0.5, q_c=2.0, r_c=3.0), 4.5, {"first": (2.0, 0.0)}),
          ("raw-state", decay(2.0, 0.5, q_c=2.0, r_c=3.0, raw=True), 8.0, {}),
          # the feedback saturates at u_min = 3
          ("saturated", decay(2.0, 0.0, u_min=3.0), 13.0, {"first": (2.0, 3.0)}),
          ("lost-first", decay(5.0, 2.0, received=0), 9.0, {}),
          ("lost-first-raw-state", decay(5.0, 2.0, received=0, raw=True), 25.0, {}),
      )],
    # the truth leaves the domain in the first interval, after its record
    Run("runaway",
        scalar_loop(lambda x: 100.0, lambda x: 0.0, 5.0, 3, 5.0, domain=(0.0, 10.0), horizon=5),
        (1, 1, 1), (ZERO_INPUT,), facts={"end": (0, "stage 2 state 55.0 left the domain")}),
    # the truth memo keys on the bits of x, so +0.0 is not -0.0
    Run("sign-of-zero-truth", scalar_loop(sign_of_zero_drift, lambda x: 0.0, -0.0, 5, 0.0),
        (1,) * 5, (HOLD_LAST_VALUE,),
        facts={"states": [-0.0, -1.0, 0.0, 1.0, 2.0], "end": 3.0, "marches": (5, 5)}),
    # and so does the feedback memo
    Run("sign-of-zero-feedback",
        scalar_loop(signed_zero_drift, lambda x: 1.0, -0.0, 3, 1.0, u=(0.0, 2.0)), (1, 0, 1),
        (ZERO_INPUT,),
        facts={"feedback states": [-0.0, 0.0], "inputs": [2.0, 0.0, math.sqrt(5.0) - 1.0]}),
    # x climbs by 1 per interval; at 3.5 LgV^4 leaves float range, and the
    # feedback that raised stores nothing
    Run("feedback-overflow",
        scalar_loop(lambda x: 1.0, lambda x: 0.0 if x < 3.5 else 1e200, 0.5, 6, 0.0), (1,) * 6,
        (HOLD_LAST_VALUE,), facts={
            "end": (3, "feedback overflowed at LfV=7.0, LgV=7e+200"),
            "cause": ControllerOverflowError, "feedback states": [0.5, 1.5, 2.5, 3.5],
        }),
    # x stands still, so held intervals under one theta share one key.
    # Intervals [k, k + 1) have substep starts k and k + 0.5.  Schedule
    # times: one before the run, 2.5 inside interval 2, 3.0 on interval 3's
    # start, 4.5 on interval 4's last substep start, 6.2 and 6.4 inside
    # interval 6, and one after the run; each held theta is marched once
    Run("straddling",
        scalar_loop(lambda x: 0.0, lambda x: 0.0, 1.0, 8, 0.5, theta=THETA_BREAKS, n_truth=2),
        (1,) * 8, (ZERO_INPUT,), facts={"marched": [
            (0.0, 0.0), (2.0, None), (3.0, 2.0), (4.0, None), (6.0, None), (7.0, 1.0),
        ]}),
    # Lossless tank-reference, 1800 intervals: 182 distinct truth keys, a
    # transient and a cycle of a few states before and after theta switches,
    # and 181 distinct received states.  A memo of 4 entries is emptied
    # within the cycle.
    *[Run(f"tank-reference-cap-{cap}", scenario_loop(builtin_scenario("tank-reference")),
          (1,) * 1800, strategies, cap, {"marches": marches, "feedback": feedback, "texts": texts})
      for cap, strategies, marches, feedback, texts in (
          (256, STRATEGIES, (182, 182), (181, 181), (181, 181)),
          (4, (PREDICTIVE_BUFFER,), (988, 182), (987, 181), (987, 181)),
      )],
]


def run_into(row, strategy, sink):
    """The ``Ran`` of ``strategy`` on ``row`` into ``sink``, each march
    checked to come after the interval's record where the sink keeps it."""
    dynamics, predictor, control, sim, weights = row.loop
    kept = sink if isinstance(sink, list) else getattr(sink, "records", None)
    marches, feedback, texts, predicted = [], [], [], []
    steps_per_input = predictor.steps_per_input(sim.t_s)

    def march(*args):
        assert kept is None or (kept and kept[-1].t == args[3])
        marches.append(args)
        return integrate_interval(*args)

    def counted_feedback(dynamics, cfg):
        u = sontag_feedback(dynamics, cfg)

        def counted(x):
            feedback.append(x)
            return u(x)

        return counted

    def predict(*args):
        assert args[-1] == steps_per_input
        predicted.append(args)
        return predict_step(*args)

    def text(value):
        texts.append(value)
        return repr(value)

    with pytest.MonkeyPatch.context() as mp:
        for name, value in (("integrate_interval", march), ("sontag_feedback", counted_feedback),
                            ("predict_step", predict), ("repr", text)):
            mp.setattr(ncsim.runtime, name, value, raising=False)
        if row.cap is not None:
            mp.setattr(ncsim.runtime, "TRUTH_MEMO_ENTRIES", row.cap)
        try:
            stats = run_closed_loop(
                dynamics, predictor, control, LossModel(row.bits), strategy, sim, weights, sink,
            )
            end, error = stats.x_final, None
        except SimulationDiverged as exc:
            stats, end, error = exc.stats, (exc.step, exc.reason), exc
    return Ran(kept, end, stats, error, marches, feedback, texts, len(predicted))


def seen(ran):
    """What a run did, whatever its sink kept or formatted."""
    marches = [args[1:] for args in ran.marches]
    return repr((ran.end, ran.stats, ran.error, marches, ran.feedback, ran.predicted))


def check_run(row, strategy):
    """Hold ``strategy`` on ``row`` to ``reference_run``, through every
    kind of sink, then to the row's facts."""
    dynamics, predictor, control, sim, weights = row.loop
    # a bit drawn ahead of its interval would find the bits exhausted
    assert len(row.bits) == sim.steps
    records, end = reference_run(dynamics, predictor, control, row.bits, strategy, sim, weights)
    listed = run_into(row, strategy, [])
    assert bitwise(listed.records) == bitwise(records)
    assert repr(listed.end) == repr(end)
    # the loop's counts are a recount of the records it appended
    m_steps = weights.m_steps
    assert listed.stats == RunStats(
        len(records), sum(1 for r in records if r.s == 0),
        records[-1].j_running if records else None,
        records[m_steps - 1].j_running if len(records) >= m_steps else None,
        None if isinstance(end, tuple) else end,
    )
    assert not hasattr(listed.error, "records")
    if strategy == PREDICTIVE_BUFFER:
        # a reception predicts the state itself, the same object
        assert all(r.x_pred is r.x_true for r in listed.records if r.s)
    if not isinstance(end, tuple):
        # each burst predicts the entries up to the furthest one it
        # replays, one predict_step call per entry; no other strategy
        # predicts
        offsets = replayed_offsets(row.bits, predictor.horizon, sim.doubled_age_offset)
        bursts = itertools.groupby(offsets, key=lambda offset: offset is None)
        furthest = sum(max(burst) for received, burst in bursts if not received)
        assert listed.predicted == (furthest if strategy == PREDICTIVE_BUFFER else 0)
        # at most min(horizon, 2) entries per loss, as MAX_PREDICTOR_STEPS charges
        assert listed.predicted <= min(predictor.horizon, 2) * listed.stats.loss_count
    # the same run into a sink that is no list, one that keeps nothing (as
    # a compare cell passes) and a trace writer
    sink, handle = RecordingSink(), io.StringIO()
    recorded = run_into(row, strategy, sink)
    assert {type(r) for r in sink.records} <= {SimulationRecord}
    assert bitwise(sink.records) == bitwise(records)
    written = run_into(row, strategy, TraceWriter(handle))
    header = "k,t,x_true,x_pred,s,i,u,J_running\n"
    assert tuple(header.strip().split(",")) == TRACE_HEADER
    assert handle.getvalue() == header + "".join(map(trace_row, records))
    dropped = run_into(row, strategy, deque(maxlen=0))
    for other in (recorded, written, dropped):
        assert seen(other) == seen(listed)
    ran = listed._replace(texts=written.texts)
    for name, value in row.facts.items():
        fact = functools.partial(FACTS[name], row.loop)
        expected = fact(run_into(row, value.strategy, [])) if isinstance(value, Same) else value
        assert (name, repr(fact(ran))) == (name, repr(expected))


CASES = [(row, strategy) for row in RUNS for strategy in row.strategies]


@pytest.mark.parametrize("row, strategy", CASES, ids=[f"{row.id}-{s}" for row, s in CASES])
def test_run(row, strategy):
    check_run(row, strategy)


@pytest.mark.parametrize("strategy", STRATEGIES)
@settings(deadline=None)
# a theta break between substep starts of a lossy interval
@example(case=((1, 0, 0, 1, 0), {"sim.theta": [[0.0, 0.175], [2.55, 0.185]]}))
# an input gain past float range: a leading loss that holds u = +0.0
# marches inf * 0.0
@example(case=((0, 1), {"plant.alpha1": 1e306}))
# a stage cost whose two terms round differently when added to the
# running cost one at a time
@example(case=((0, 0, 1), {
    "plant.p2": 0.0, "plant.domain_margin": 0.0, "sim.x0": 1.0, "controller.setpoint": 1.0,
    "sim.theta": [[0.0, 0.0]],
}))
# the running cost overflows at step 1, after the first record
@example(case=((1, 0, 1), {"cost.raw_state": True, "cost.q_c": 1e298}))
# entries 1 and 3 replayed, and entry 2 leaves the domain
@example(case=((1, 0, 0), {"sim.doubled_age_offset": True, "predictor.gamma": 0.4}))
# no outflow, theta = 0 and the valve closed hold the state still, so the
# interval under theta = 0.1 starts from a state already marched
@example(case=((1, 1, 1), {
    "plant.m2": 0.0, "sim.x0": 160_000.0, "sim.theta": [[0.0, 0.0], [4.0, 0.1]],
}))
# the tank-reference settings over 60 intervals, three bursts longer
# than the horizon of 10: every strategy finishes
@example(case=(
    (1,) + (0,) * 14 + (1, 1) + (0,) * 11 + (1, 0, 0) * 4 + (0,) * 12 + (1,) * 3 + (0,) * 5, {},
))
@given(case=loop_cases())
def test_loop_matches_reference_run(strategy, case):
    bits, overrides = case
    check_run(Run("drawn", tank_loop({
        "sim.duration": 2.0 * len(bits), "cost.m_steps": 1, **overrides,
    }), bits), strategy)


@settings(deadline=None)
@given(
    bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30),
    doubled=st.booleans(),
    horizon=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_plan_diverges_at_the_loss_that_replays_its_exit(bits, doubled, horizon, data):
    # x' = 0 keeps the truth at x0 = 1, and the plan from any reception
    # grows as (1 + gamma)^j, first past 1.2 at entry j (horizon + 1:
    # never replayed)
    j = data.draw(st.integers(min_value=1, max_value=horizon + 1), label="j")
    gamma = 1.2 ** (1.0 / (j - 0.5)) - 1.0
    offsets = replayed_offsets(bits, horizon, doubled)
    exits = [k for k, offset in enumerate(offsets) if offset is not None and offset >= j]
    end, steps = 1.0, len(bits)
    if exits:
        end, steps = (exits[0], f"prediction left the domain after {j} entries"), exits[0]
    still = scalar_loop(lambda x: 0.0, lambda x: 0.0, 1.0, len(bits), 0.5, domain=(0.0, 1.2),
                        horizon=horizon, gamma=gamma, doubled=doubled)
    check_run(Run("drawn", still, tuple(bits), facts={"end": end, "steps": steps}),
              PREDICTIVE_BUFFER)


def test_initial_state_must_be_in_domain():
    dynamics, predictor, control, sim, weights = tank_loop(sim={"x0": 50_000.0})
    with pytest.raises(DomainError):
        run_closed_loop(
            dynamics, predictor, control, LossModel(LOSSLESS), ZERO_INPUT, sim, weights, [],
        )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_short_trace_ends_at_its_last_bit(strategy):
    # one bit short, the last interval finds the trace exhausted
    dynamics, predictor, control, sim, weights = tank_loop()
    sink = RecordingSink()
    with pytest.raises(TraceExhaustedError) as excinfo:
        run_closed_loop(
            dynamics, predictor, control, LossModel(BURSTY[:59]), strategy, sim, weights, sink,
        )
    assert str(excinfo.value) == "trace has 59 entries, step 59 requested without wrap"
    assert [r.k for r in sink.records] == list(range(59))


@pytest.mark.parametrize("position", range(3))
def test_truth_key_tells_the_zeros_apart(position):
    key = ncsim.runtime._truth_key
    plus, minus = [1.0, 0.5, 0.175], [1.0, 0.5, 0.175]
    plus[position], minus[position] = 0.0, -0.0
    assert key(*plus) != key(*minus)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children this process forks; they still run for real."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Compare(NamedTuple):
    """One row of ``COMPARES``: ``compare_strategies`` on the 60-step
    tank-reference scenario under ``overrides``, over ``strategies`` (None:
    the scenario's own) and ``n_seeds`` seeds, and the facts only this row
    pins: a result's field, a name of ``COMPARE_FACTS``, or ``error``, the
    text of the ``ConfigError`` raised before any cell; and its value."""

    id: str
    overrides: dict
    strategies: Optional[tuple]
    n_seeds: int
    facts: dict = {}


def reference_costs(sc, strategies, n_seeds):
    """``(seeds, costs)`` of a compare, each cell by ``reference_run`` on its
    seed's reception bits: the running cost after ``m_steps``, or None for
    a run that diverges, after ``m_steps`` too.  A seedless channel realizes
    one loss pattern, so it runs its base seed once."""
    seeds = range(sc.loss.seed, sc.loss.seed + (n_seeds if sc.loss.kind in SEEDED_KINDS else 1))
    costs, m_steps = {strategy: {} for strategy in strategies}, sc.cost.m_steps
    for strategy, seed in itertools.product(strategies, seeds):
        bits = list(map(sc.loss.build(seed).sample_reception, range(sc.sim.steps)))
        records, end = reference_run(tank_dynamics(sc.plant), sc.predictor, sc.controller, bits,
                                     strategy, sc.sim, sc.cost)
        costs[strategy][seed] = None if isinstance(end, tuple) else records[m_steps - 1].j_running
    return tuple(seeds), costs


# What a row may pin besides the result's fields, each a function of the
# result; a pinned value is compared by ``repr``.
COMPARE_FACTS = {
    "median": lambda result: {s: result.median_cost(s) for s in result.strategies},
    "diverged": lambda result: {s: result.diverged_count(s) for s in result.strategies},
    "cells": lambda result: {repr(c) for column in result.costs.values() for c in column.values()},
}
LOSSY = {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}}
UNDIVERGED = dict.fromkeys(STRATEGIES, 0)

# Every compare the tests run by hand, one row each: a new one is one row.
COMPARES = [
    # seeds from the loss seed on, paired across the strategies
    Compare("bernoulli", LOSSY, None, 3, {"seeds": (5, 6, 7), "diverged": UNDIVERGED}),
    # a cell's cost stops at m_steps
    *[Compare(f"m_steps-{m_steps}", {**LOSSY, "cost.m_steps": m_steps}, (PREDICTIVE_BUFFER,), 2)
      for m_steps in (1, 7, 59)],
    # the truth leaves the domain in interval 30, after m_steps = 10, and
    # the cell is still None
    Compare("diverged-after-m_steps", {"sim.theta": [[0.0, 0.175], [61.0, 2.0]],
                                       "cost.m_steps": 10},
            (HOLD_LAST_VALUE,), 1, {"costs": {HOLD_LAST_VALUE: {42: None}}}),
    # without loss the strategies apply the same inputs, and the seedless
    # channel runs its base seed once
    Compare("lossless", {}, None, 3, {"seeds": (42,), "cells": {"7975344530.308761"}}),
    # gamma = 0.9 sends every plan out of the domain: the buffer's cells
    # diverge, and it neither wins nor loses
    Compare("gamma-0.9", {"predictor.gamma": 0.9, "loss": {**LOSSY["loss"], "seed": 42}},
            (PREDICTIVE_BUFFER, HOLD_LAST_VALUE), 2, {
                "diverged": {PREDICTIVE_BUFFER: 2, HOLD_LAST_VALUE: 0},
                "median": {PREDICTIVE_BUFFER: None, HOLD_LAST_VALUE: 18284562804.987373},
            }),
    # no outflow, no disturbance and x0 at the setpoint: the valve stays
    # shut, every cell costs 0.0, and no such cell counts as diverged
    Compare("still-at-the-setpoint", {
        "plant.m2": 0.0, "sim.theta": 0.0, "sim.x0": 150_100.0, "predictor.gamma": 0.0,
        "loss": {**LOSSY["loss"], "seed": 42},
    }, None, 3, {"cells": {"0.0"}, "diverged": UNDIVERGED}),
    # the median of one interval's costs: 1e308 lost and 1.5e308 received
    # at u = 1, whose sum overflows, and two costs at the least subnormal
    Compare("median-of-an-overflowing-pair", {
        "sim.duration": 2.0, "cost.m_steps": 1, "sim.x0": 150_099.0, "cost.q_c": 1e308,
        "cost.r_c": 5e307, "loss": {"kind": "bernoulli", "p": 0.5, "seed": 1},
    }, (HOLD_LAST_VALUE, ZERO_INPUT), 2,
        {"median": dict.fromkeys((HOLD_LAST_VALUE, ZERO_INPUT), 1.25e308)}),
    Compare("median-of-subnormals", {
        **LOSSY, "cost.m_steps": 1, "sim.x0": 150_101.0, "cost.q_c": 5e-324, "cost.r_c": 0.0,
    }, (ZERO_INPUT,), 2, {"median": {ZERO_INPUT: 5e-324}}),
    # bad strategies and seed counts; an empty selection is no call for the
    # scenario's own
    *[Compare(f"rejects-{name}", {}, strategies, n_seeds, {"error": error})
      for name, strategies, n_seeds, error in (
          ("no-strategy", (), 1, "strategies must be non-empty"),
          ("teleport", ("teleport",), 1,
           f"strategies: unknown strategy 'teleport', expected one of {STRATEGIES}"),
          ("twice", (ZERO_INPUT, ZERO_INPUT), 1, "strategies must be unique"),
          *((f"seeds-{n}", None, n, f"n_seeds must lie in [1, {MAX_COMPARE_SEEDS}], got {n}")
            for n in (0, MAX_COMPARE_SEEDS + 1)),
      )],
]


def check_compare(row, forks):
    """Run ``row`` at 1, 2 and 3 workers, each forking one child per share
    but its own and leaving none, and hold the result to
    ``reference_costs``, its medians, wins and diverged cells recounted from
    that table, then to the row's facts.  A rejected row forks nothing."""
    sc = scenario_from_dict(small_document(row.overrides))
    shown = set()
    for workers in (1, 2, 3):
        forks.clear()
        try:
            result = compare_strategies(sc, row.strategies, row.n_seeds, workers)
            cells = len(result.strategies) * len(result.seeds)
        except ConfigError as exc:
            result, cells = exc, 1
        assert len(forks) == min(workers, cells) - 1
        assert_no_child_left()
        shown.add(repr(result))
    assert len(shown) == 1
    if isinstance(result, ConfigError) or "error" in row.facts:
        assert str(result) == row.facts.get("error")
        return
    chosen = sc.strategies if row.strategies is None else row.strategies
    seeds, costs = reference_costs(sc, chosen, row.n_seeds)
    assert shown == {repr(ComparisonResult(chosen, seeds, costs))}
    for a, b in itertools.product(chosen, repeat=2):
        finished = [Fraction(cost) for cost in costs[a].values() if cost is not None]
        median = float(statistics.median(finished)) if finished else None
        wins = sum(None not in pair and pair[0] < pair[1]
                   for pair in zip(costs[a].values(), costs[b].values()))
        counted = (result.median_cost(a), result.diverged_count(a), result.count_wins(a, b))
        assert (a, b, repr(counted)) == (a, b, repr((median, len(seeds) - len(finished), wins)))
    for name, value in row.facts.items():
        got = COMPARE_FACTS[name](result) if name in COMPARE_FACTS else getattr(result, name)
        assert (name, repr(got)) == (name, repr(value))


@pytest.mark.parametrize("row", COMPARES, ids=[row.id for row in COMPARES])
def test_compare(row, forks):
    check_compare(row, forks)


@st.composite
def drawn_compares(draw):
    """A compare of 10 intervals under a loss channel of ``RUN_KEYS``, a gamma
    that may send plans out of the domain, and any strategies and seeds."""
    names = draw(st.permutations(STRATEGIES))
    return Compare("drawn", {
        "sim.duration": 20.0, "cost.m_steps": draw(st.integers(1, 10)),
        "loss": draw(RUN_KEYS["loss"]),
        "predictor.gamma": draw(st.sampled_from([0.175, 0.9]) | st.floats(-0.5, 0.95)),
        "sim.doubled_age_offset": draw(st.booleans()),
    }, draw(st.none() | st.integers(1, 3).map(lambda n: tuple(names[:n]))), draw(st.integers(1, 3)))


# each draw forks up to three children, so a quarter of the profile's draws
@settings(deadline=None, max_examples=settings.default.max_examples // 4,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row=drawn_compares())
def test_drawn_compare(forks, row):
    check_compare(row, forks)


def raising(task):
    raise LookupError("no such cell", task[2])


def exiting(task):
    os._exit(7)


def stuck(task):
    time.sleep(60)


def interrupted(task):
    raise KeyboardInterrupt


# Faults of a compare's cell, here (None: the real cell) and in each
# forked child: a cell that raises, a child that exits without a result,
# and an interrupt here while the children are stuck.
@pytest.mark.parametrize("here, there, workers, error", [
    (None, raising, 2, LookupError("no such cell", 10)),
    (None, exiting, 2, NcsimError("compare worker exited with status 7 without a result")),
    (interrupted, stuck, 3, KeyboardInterrupt()),
], ids=["child-raises", "child-exits", "interrupted"])
def test_compare_fault(small_scenario_dict, monkeypatch, here, there, workers, error):
    """The fault is raised here with its type and args, within 30 s, and
    leaves no child behind."""
    parent, cell = os.getpid(), ncsim.runtime._compare_cell
    monkeypatch.setattr(ncsim.runtime, "_compare_cell",
                        lambda task: (here or cell)(task) if os.getpid() == parent else there(task))
    sc = small_scenario(small_scenario_dict, {"loss": {**LOSSY["loss"], "seed": 9}})
    start = time.monotonic()
    with pytest.raises(type(error)) as raised:
        compare_strategies(sc, (HOLD_LAST_VALUE, ZERO_INPUT), n_seeds=2, workers=workers)
    assert (type(raised.value), raised.value.args) == (type(error), error.args)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_the_loop_names_its_strategy(small_scenario_dict):
    sc = small_scenario(small_scenario_dict)
    with pytest.raises(ConfigError) as raised:
        run_closed_loop(tank_dynamics(sc.plant), sc.predictor, sc.controller,
                        LossModel(itertools.repeat(1)), "nope", sc.sim, sc.cost, [])
    assert str(raised.value) == f"strategy: unknown strategy 'nope', expected one of {STRATEGIES}"


# Records a ``TraceWriter`` writes, one sequence each: signed zeros, an
# int state as the API's x0 may be, a prediction equal to its state but of
# the other zero, and more distinct states than its text memo holds.
STATES = [1.0 + j / 8 for j in range(2 * ncsim.runtime.TRUTH_MEMO_ENTRIES + 3)]
WRITES = {
    "signed-zeros": [make_record(k=k, x=x) for k, x in enumerate((0.0, -0.0, 0.0))],
    "int-state": [make_record(x=110000, x_pred=110000)],
    "other-zero": [make_record(x=x, x_pred=-x) for x in (0.0, -0.0)],
    "past-the-memo": [make_record(k, x, x_pred=-x) for k, x in enumerate(STATES + STATES[::-3])],
}


@pytest.mark.parametrize("records", WRITES.values(), ids=WRITES)
def test_trace_text(records):
    """The writer formats each distinct state once, by its bits, keeps no
    more texts than its memo holds, and writes the rows of formatting
    every float afresh."""
    handle = io.StringIO()
    writer = TraceWriter(handle)
    for record in records:
        writer.append(record)
        assert len(writer.texts) <= ncsim.runtime.TRUTH_MEMO_ENTRIES
    assert handle.getvalue().splitlines(keepends=True)[1:] == [trace_row(r) for r in records]


class TestAnyScenarioRunsOrDiverges:
    """Every strategy of any parsed scenario finishes with a finite cost and
    final state, or raises ``SimulationDiverged``."""

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @example(overrides={"cost.q_c": 1e308})
    @example(overrides={"cost.r_c": 1e308})
    @given(overrides=run_overrides())
    def test_runs_or_diverges(self, small_scenario_dict, overrides):
        doc = small_scenario_dict({"sim.duration": 20.0, "cost.m_steps": 10, **overrides})
        try:
            sc = scenario_from_dict(doc)
        except ConfigError:
            return  # not a scenario: the parse property covers the document
        for strategy in STRATEGIES:
            try:
                stats = run_scenario(sc, strategy, [])
            except SimulationDiverged:
                continue
            assert math.isfinite(stats.j_m_steps)
            assert math.isfinite(stats.x_final)
