import functools
import io
import itertools
import math
import os
import time
from bisect import bisect_right
from collections import deque
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
from ncsim.predictor import predict_step
from ncsim.runtime import TRACE_HEADER, check_strategies

from conftest import (
    WIDE, collected, linear_decay_dynamics, outcome, reference_feedback, reference_interval,
    reference_plan, reference_plant, reference_run, run_overrides,
)
from conftest import small_scenario as small_document

ZERO_THETA = UncertaintySignal.constant(0.0)


def disturbance_channel() -> SystemDynamics:
    """xdot = theta; isolates how the truth integrator samples theta."""
    return SystemDynamics(
        drift=lambda x: 0.0,
        input_gain=lambda x: 0.0,
        uncertainty_gain=lambda x: 1.0,
        state_domain=WIDE,
    )


def make_record(k=0, x=2.0, u=3.0, x_pred=None):
    return SimulationRecord(
        k=k, t=float(k), x_true=x, x_pred=x_pred, s=1, i=0, u=u, j_running=0.0
    )


def stage_cost_sum(records, weights, setpoint):
    """The quadratic cost of the first ``m_steps`` records, summed afresh."""
    total = 0.0
    for record in records[: weights.m_steps]:
        deviation = record.x_true if weights.raw_state else record.x_true - setpoint
        total += weights.q_c * deviation * deviation + weights.r_c * record.u * record.u
    return total


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


# Schedules around the interval [1800, 1802) with 20 substeps of 0.1 s.
SCHEDULES = {
    "break mid-interval": ((0.0, 1800.05), (0.175, 0.185)),
    "break on a substep start": ((0.0, 1800.5), (0.175, 0.185)),
    "break on the interval start": ((0.0, 1800.0), (0.175, 0.185)),
    "break on the last substep start": ((0.0, 1800.0 + 19 * 0.1), (0.175, 0.185)),
    "break after the last substep start": ((0.0, 1801.95), (0.175, 0.185)),
    "several breaks": ((0.0, 1800.05, 1800.3, 1800.35, 1801.9), (0.175, 0.3, -0.2, 0.0, 0.185)),
    "break and back": ((0.0, 1800.5, 1801.0), (0.175, 0.3, 0.175)),
    # the same theta at both ends, from two entries, switching between starts
    "switch away and back between starts": ((0.0, 1800.45, 1801.05), (0.175, 0.3, 0.175)),
    "no break": ((0.0, 1000.0), (0.175, 0.185)),
}
# The substeps of each march over that interval, one per run of substep
# starts that fall after the same number of schedule times.
SCHEDULE_RUNS = {
    "break mid-interval": [1, 19],
    "break on a substep start": [5, 15],
    "break on the interval start": [20],
    "break on the last substep start": [19, 1],
    "break after the last substep start": [20],
    "several breaks": [1, 2, 1, 15, 1],
    "break and back": [5, 5, 10],
    "switch away and back between starts": [5, 6, 9],
    "no break": [20],
}


def counted_march(dynamics):
    """``dynamics`` with a march that records the substeps of each call."""
    steps = []

    def march(x, u, h, theta, lo, hi, n, scale, fail):
        steps.append(n)
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


class TestIntegrateInterval:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_matches_per_substep_lookup(self, tank, name):
        theta = UncertaintySignal(*SCHEDULES[name])
        counted, steps = counted_march(tank)
        for x, u in ((140_000.0, 0.0), (150_100.0, 0.37), (185_000.0, 1.0)):
            args = (x, u, 1800.0, 2.0, 20, theta)
            assert integrate_interval(counted, *args) == reference_interval(tank, *args)
            assert steps == theta_runs(*args[2:]) == SCHEDULE_RUNS[name]
            steps.clear()

    # (1.0,): the starts before 1.0 precede times[0] and take its value
    @pytest.mark.parametrize("times", [(-5.0,), (-5.0, 0.35), (-5.0, -1.0, 1.0), (1.0,)])
    def test_break_before_time_zero(self, tank, times):
        theta = UncertaintySignal(times, tuple(0.1 * (i + 1) for i in range(len(times))))
        counted, steps = counted_march(tank)
        args = (150_000.0, 0.5, 0.0, 2.0, 20, theta)
        assert integrate_interval(counted, *args) == reference_interval(tank, *args)
        assert steps == theta_runs(*args[2:])

    def test_break_on_the_lookup_floats(self):
        # 0.9 / 0.3 is 3.0, but the start 3 * 0.3 is 0.8999999999999999,
        # which the lookup still gives the first entry: 4 substeps of 1.0
        theta = UncertaintySignal(times=(0.0, 0.9), values=(1.0, 2.0))
        counted, steps = counted_march(disturbance_channel())
        args = (0.0, 0.0, 0.0, 3.0, 10, theta)
        x = integrate_interval(counted, *args)
        assert x == reference_interval(disturbance_channel(), *args)
        assert x == pytest.approx(4 * 0.3 + 6 * 0.3 * 2.0)
        assert steps == theta_runs(*args[2:]) == [4, 6]

    @settings(max_examples=60, deadline=None)
    @given(
        breaks=st.lists(
            st.floats(min_value=-2.0, max_value=4.0), min_size=1, max_size=5, unique=True
        ),
        # a band and disturbance that keep every stage state of both loops
        # inside the domain down to one substep; values from three, so a
        # run often ends at an entry of the same value
        values=st.lists(st.sampled_from((-0.2, 0.0, 0.2)), min_size=5, max_size=5),
        x=st.floats(min_value=145_000.0, max_value=160_000.0),
        u=st.floats(min_value=0.0, max_value=1.0),
        t_start=st.sampled_from([0.0, 1.0, 2.0]),
        n_truth=st.integers(min_value=1, max_value=30),
    )
    def test_schedule_property(self, breaks, values, x, u, t_start, n_truth):
        tank = tank_dynamics(reference_plant())
        times = tuple(sorted(breaks))
        theta = UncertaintySignal(times, tuple(values[: len(times)]))
        counted, steps = counted_march(tank)
        args = (x, u, t_start, 2.0, n_truth, theta)
        assert integrate_interval(counted, *args) == reference_interval(tank, *args)
        assert steps == theta_runs(t_start, 2.0, n_truth, theta)

    def test_nonfinite_result_raises(self):
        # every stage state stays in the domain; only k4 is infinite
        cliff = SystemDynamics(
            drift=lambda x: 1.0 if x < 1.9 else math.inf,
            input_gain=lambda x: 0.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=WIDE,
        )
        args = (cliff, 1.0, 0.0, 0.0, 1.0, 1, ZERO_THETA)
        assert outcome(integrate_interval, *args) == outcome(reference_interval, *args) == (
            NonFiniteError, "state became non-finite during interval at t=0.0"
        )

    def test_exponential_decay(self):
        x1 = integrate_interval(
            linear_decay_dynamics(), 1.0, 0.0, 0.0, 1.0, 100, ZERO_THETA
        )
        assert x1 == pytest.approx(math.exp(-1.0), rel=1e-9)

    def test_refinement_shrinks_error(self):
        coarse = integrate_interval(
            linear_decay_dynamics(), 1.0, 0.0, 0.0, 1.0, 1, ZERO_THETA
        )
        fine = integrate_interval(
            linear_decay_dynamics(), 1.0, 0.0, 0.0, 1.0, 10, ZERO_THETA
        )
        exact = math.exp(-1.0)
        assert abs(fine - exact) < abs(coarse - exact) / 1000.0

    def test_constant_disturbance_is_exact(self):
        # rhs is the constant 2, so every substep adds h * 2 exactly
        x1 = integrate_interval(
            disturbance_channel(), 10.0, 0.0, 0.0, 1.0, 4, UncertaintySignal.constant(2.0)
        )
        assert x1 == 12.0

    def test_theta_sampled_at_substep_starts(self):
        # switch at t = 0.3 only takes effect from the substep at t = 0.5
        theta = UncertaintySignal(times=(0.0, 0.3), values=(1.0, 3.0))
        x1 = integrate_interval(disturbance_channel(), 0.0, 0.0, 0.0, 1.0, 2, theta)
        assert x1 == 0.5 * 1.0 + 0.5 * 3.0

    def test_interval_start_offsets_the_schedule(self):
        theta = UncertaintySignal(times=(0.0, 10.0), values=(1.0, 3.0))
        x1 = integrate_interval(disturbance_channel(), 0.0, 0.0, 10.0, 1.0, 2, theta)
        assert x1 == 3.0

    def test_stage_escape_raises(self):
        runaway = SystemDynamics(
            drift=lambda x: 100.0,
            input_gain=lambda x: 0.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=(0.0, 10.0),
        )
        args = (runaway, 5.0, 0.0, 0.0, 1.0, 1, ZERO_THETA)
        with pytest.raises(IntegrationDomainError) as excinfo:
            integrate_interval(*args)
        assert excinfo.value.stage == 2
        assert outcome(reference_interval, *args) == (
            IntegrationDomainError, "stage 2 state 55.0 left the domain"
        ) == (type(excinfo.value), str(excinfo.value))


# Every stage stays in [0, 6.5] from 5 at h = 1 (5.5, 5.5, 6.0), but the
# end state 5 + (1 + 2 + 2 + 100) / 6 = 22.5 does not.
def end_escape(domain=(0.0, 6.5)) -> SystemDynamics:
    return SystemDynamics(lambda x: 1.0 if x < 5.9 else 100.0, lambda x: 0.0, lambda x: 0.0, domain)


# From 5 at h = 2 the stages sit at 5.05, 5.05 and 5.1, where 2 * 1e308 overflows.
def overflow() -> SystemDynamics:
    return SystemDynamics(lambda x: 0.05 if x < 5.08 else 1e308, lambda x: 0.0, lambda x: 0.0, WIDE)


# theta schedules under which an interval from t = 3 is one march, and,
# with more than one substep, a straddling one: a march before 3.5 and
# one from it
THETA_PATHS = {
    "constant": ZERO_THETA,
    "straddling": UncertaintySignal(times=(0.0, 3.5), values=(0.0, 0.0)),
}


class TestIntegrateIntervalErrors:
    @pytest.mark.parametrize("path", sorted(THETA_PATHS))
    @pytest.mark.parametrize("x, n_truth", [(5.0, 1), (4.0, 2)])  # from 4, step 1 ends at 5
    def test_end_state_outside_the_domain(self, path, x, n_truth):
        args = (end_escape(), x, 0.0, 3.0, n_truth * 1.0, n_truth, THETA_PATHS[path])
        assert outcome(integrate_interval, *args) == outcome(reference_interval, *args) == (
            DomainError, "state 22.5 outside domain [0.0, 6.5]"
        )

    @pytest.mark.parametrize("path", sorted(THETA_PATHS))
    @pytest.mark.parametrize("n_truth", [2, 3])
    def test_mid_interval_exit_stops_the_next_first_stage(self, path, n_truth):
        args = (end_escape(), 5.0, 0.0, 3.0, n_truth * 1.0, n_truth, THETA_PATHS[path])
        with pytest.raises(IntegrationDomainError) as excinfo:
            integrate_interval(*args)
        assert excinfo.value.stage == 1
        assert excinfo.value.state == 22.5
        assert outcome(reference_interval, *args) == (
            IntegrationDomainError, "stage 1 state 22.5 left the domain"
        ) == (type(excinfo.value), str(excinfo.value))

    @pytest.mark.parametrize("path", sorted(THETA_PATHS))
    @pytest.mark.parametrize("n_truth", [1, 2])
    def test_overflowing_rhs(self, path, n_truth):
        args = (overflow(), 5.0, 0.0, 3.0, n_truth * 2.0, n_truth, THETA_PATHS[path])
        assert outcome(integrate_interval, *args) == outcome(reference_interval, *args) == (
            NonFiniteError, "state became non-finite during interval at t=3.0"
        )

    def test_stage_errors_keep_their_index(self):
        # stage 4 probes 6.0 outside [0, 5.9]
        with pytest.raises(IntegrationDomainError) as excinfo:
            integrate_interval(end_escape((0.0, 5.9)), 5.0, 0.0, 0.0, 2.0, 2, ZERO_THETA)
        assert excinfo.value.stage == 4
        assert str(excinfo.value) == "stage 4 state 6.0 left the domain"

    def test_start_state_outside_the_domain(self):
        with pytest.raises(IntegrationDomainError) as excinfo:
            integrate_interval(end_escape(), 7.0, 0.0, 0.0, 1.0, 1, ZERO_THETA)
        assert (excinfo.value.stage, excinfo.value.state) == (1, 7.0)


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


def written_rows(records):
    """The rows, header left out, that a ``TraceWriter`` writes for ``records``."""
    handle = io.StringIO()
    writer = TraceWriter(handle)
    for record in records:
        writer.append(record)
    return handle.getvalue().splitlines(keepends=True)[1:]


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


class TestCompareStrategies:
    def test_paired_seeds_and_full_table(self, small_scenario_dict):
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}}
        )
        result = compare_strategies(sc, n_seeds=3)
        assert result.seeds == (5, 6, 7)
        assert result.strategies == STRATEGIES
        for strategy in STRATEGIES:
            assert result.diverged_count(strategy) == 0
            assert result.median_cost(strategy) > 0.0

    def test_cell_matches_individual_run(self, small_scenario_dict):
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}}
        )
        result = compare_strategies(sc, strategies=(HOLD_LAST_VALUE,), n_seeds=2)
        records, _ = collected(run_scenario, sc, HOLD_LAST_VALUE, seed=6)
        total = stage_cost_sum(records, sc.cost, sc.controller.setpoint)
        assert result.costs[HOLD_LAST_VALUE][6] == total

    @pytest.mark.parametrize("m_steps", [1, 7, 59])
    def test_cell_cost_stops_at_m_steps(self, small_scenario_dict, m_steps):
        sc = small_scenario(
            small_scenario_dict,
            {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}, "cost.m_steps": m_steps},
        )
        result = compare_strategies(sc, strategies=(PREDICTIVE_BUFFER,), n_seeds=2)
        for seed in result.seeds:
            records, _ = collected(run_scenario, sc, PREDICTIVE_BUFFER, seed=seed)
            assert len(records) == 60
            cost = result.costs[PREDICTIVE_BUFFER][seed]
            assert cost == records[m_steps - 1].j_running
            assert cost == stage_cost_sum(records, sc.cost, sc.controller.setpoint)
            assert cost < records[-1].j_running

    def test_divergence_after_m_steps_empties_the_cell(self, small_scenario_dict):
        # the truth march leaves the domain in interval 30, after m_steps = 10
        sc = small_scenario(
            small_scenario_dict,
            {"sim.theta": [[0.0, 0.175], [61.0, 2.0]], "cost.m_steps": 10},
        )
        result = compare_strategies(sc, strategies=(HOLD_LAST_VALUE,), n_seeds=1)
        assert result.costs[HOLD_LAST_VALUE] == {42: None}

    def test_lossless_columns_agree(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        result = compare_strategies(sc, n_seeds=1)
        seed = result.seeds[0]
        costs = {result.costs[s][seed] for s in STRATEGIES}
        assert len(costs) == 1

    def test_seedless_channel_runs_base_seed_only(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        result = compare_strategies(sc, strategies=(HOLD_LAST_VALUE,), n_seeds=3)
        assert result.seeds == (42,)
        assert list(result.costs[HOLD_LAST_VALUE]) == [42]

    def test_diverged_cells_are_none(self, small_scenario_dict):
        sc = small_scenario(
            small_scenario_dict,
            {
                "predictor.gamma": 0.9,
                "loss": {"kind": "bernoulli", "p": 0.3, "seed": 42},
            },
        )
        result = compare_strategies(
            sc, strategies=(PREDICTIVE_BUFFER, HOLD_LAST_VALUE), n_seeds=2
        )
        assert result.diverged_count(PREDICTIVE_BUFFER) == 2
        assert result.median_cost(PREDICTIVE_BUFFER) is None
        assert result.median_cost(HOLD_LAST_VALUE) is not None
        assert result.count_wins(HOLD_LAST_VALUE, PREDICTIVE_BUFFER) == 0
        assert result.count_wins(PREDICTIVE_BUFFER, HOLD_LAST_VALUE) == 0

    def test_median_of_a_pair_whose_sum_overflows(self):
        costs = {"a": {0: 1.5e308, 1: 1e308, 2: None}, "b": {0: 1.0, 1: 3.0, 2: 2.0}}
        result = ComparisonResult(strategies=("a", "b"), seeds=(0, 1, 2), costs=costs)
        assert result.median_cost("a") == 1.25e308
        assert result.median_cost("b") == 2.0

    def test_worker_count_does_not_change_result(self, small_scenario_dict):
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 9}}
        )
        serial = compare_strategies(sc, n_seeds=2, workers=1)
        pooled = compare_strategies(sc, n_seeds=2, workers=2)
        assert serial == pooled

    def test_rejects_bad_arguments(self, small_scenario_dict, monkeypatch):
        def must_not_run(task):
            raise AssertionError("a cell ran despite bad arguments")

        monkeypatch.setattr(ncsim.runtime, "_compare_cell", must_not_run)
        sc = small_scenario(small_scenario_dict)
        with pytest.raises(ValueError):
            compare_strategies(sc, strategies=("nope",))
        with pytest.raises(ValueError):
            compare_strategies(sc, strategies=(ZERO_INPUT, ZERO_INPUT))
        with pytest.raises(ValueError):
            compare_strategies(sc, n_seeds=0)
        with pytest.raises(ValueError, match="n_seeds"):
            compare_strategies(sc, n_seeds=ncsim.runtime.MAX_COMPARE_SEEDS + 1)

    @pytest.mark.parametrize(
        "workers, strategies, n_seeds, pool_size",
        [
            (8, (HOLD_LAST_VALUE, ZERO_INPUT), 1, 2),
            (2, (HOLD_LAST_VALUE, ZERO_INPUT), 3, 2),
            (4, (ZERO_INPUT,), 1, None),
            (3, (PREDICTIVE_BUFFER, HOLD_LAST_VALUE), 2, 3),  # shares of 2, 1 and 1 cells
        ],
    )
    def test_pool_is_sized_to_the_cell_count(
        self, small_scenario_dict, forks, workers, strategies, n_seeds, pool_size
    ):
        # pool_size counts the calling process, which runs a share too, so
        # compare forks pool_size - 1 children; None: it runs alone
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 9}}
        )
        pooled = compare_strategies(sc, strategies=strategies, n_seeds=n_seeds, workers=workers)
        assert len(forks) == (0 if pool_size is None else pool_size - 1)
        assert pooled == compare_strategies(sc, strategies=strategies, n_seeds=n_seeds)
        assert_no_child_left()

    def test_pool_size_is_capped(self, small_scenario_dict, forks):
        cap = ncsim.runtime.MAX_COMPARE_WORKERS
        sc = small_scenario(
            small_scenario_dict,
            {"sim.duration": 4.0, "cost.m_steps": 2, "loss": {"kind": "bernoulli", "p": 0.3, "seed": 9}},
        )
        for workers in (cap + 1, 1_000_000, 0):
            with pytest.raises(ValueError, match="workers"):
                compare_strategies(sc, n_seeds=10_000, workers=workers)
        assert forks == []
        # the shares themselves, without forking a process per share
        tasks = list(range(cap * 2 + 5))
        shares = ncsim.runtime._shares(tasks, cap)
        assert shares == [tasks[i::cap] for i in range(cap)]
        assert ncsim.runtime._shares(tasks[:3], cap) == [[0], [1], [2]]
        assert ncsim.runtime._shares(tasks, 1) == [tasks]

    def test_cell_exception_is_raised_with_its_type_and_args(self, small_scenario_dict, monkeypatch):
        parent = os.getpid()
        cell = ncsim.runtime._compare_cell

        def failing_in_a_child(task):
            if os.getpid() != parent:
                raise LookupError("no such cell", task[2])
            return cell(task)

        monkeypatch.setattr(ncsim.runtime, "_compare_cell", failing_in_a_child)
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 9}}
        )
        with pytest.raises(LookupError) as excinfo:
            compare_strategies(sc, strategies=(HOLD_LAST_VALUE, ZERO_INPUT), n_seeds=1, workers=2)
        assert type(excinfo.value) is LookupError
        assert excinfo.value.args == ("no such cell", 9)
        assert_no_child_left()

    def test_child_without_a_result_names_its_exit_status(self, small_scenario_dict, monkeypatch):
        parent = os.getpid()
        cell = ncsim.runtime._compare_cell

        def exiting_in_a_child(task):
            if os.getpid() != parent:
                os._exit(7)
            return cell(task)

        monkeypatch.setattr(ncsim.runtime, "_compare_cell", exiting_in_a_child)
        sc = small_scenario(small_scenario_dict)
        with pytest.raises(NcsimError, match="status 7"):
            compare_strategies(sc, strategies=(HOLD_LAST_VALUE, ZERO_INPUT), workers=2)
        assert_no_child_left()

    def test_interrupted_compare_kills_its_children(self, small_scenario_dict, monkeypatch):
        parent = os.getpid()

        def interrupted_here_stuck_there(task):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(ncsim.runtime, "_compare_cell", interrupted_here_stuck_there)
        sc = small_scenario(small_scenario_dict)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            compare_strategies(sc, workers=3)
        assert time.monotonic() - start < 30
        assert_no_child_left()


class TestCheckStrategies:
    """The scenario, compare and the loop check strategy names through one
    function, which raises ``ConfigError`` naming what it checked."""

    def test_known_unique_names_come_back_as_a_tuple(self):
        assert check_strategies([ZERO_INPUT, HOLD_LAST_VALUE]) == (ZERO_INPUT, HOLD_LAST_VALUE)

    @pytest.mark.parametrize(
        "names, needle",
        [((), "must be non-empty"), (("teleport",), "unknown strategy 'teleport'"),
         ((ZERO_INPUT, ZERO_INPUT), "must be unique")],
    )
    def test_every_caller_rejects_the_same_names(
        self, small_scenario_dict, monkeypatch, names, needle
    ):
        def must_not_run(task):
            raise AssertionError("a cell ran despite bad strategies")

        monkeypatch.setattr(ncsim.runtime, "_compare_cell", must_not_run)
        assert issubclass(ConfigError, ValueError)
        with pytest.raises(ConfigError, match=f"^--strategies:? {needle}"):
            check_strategies(names, "--strategies")
        with pytest.raises(ConfigError, match=f"^strategies:? {needle}"):
            scenario_from_dict(small_scenario_dict({"strategies": list(names)}))
        # an empty selection is an error, not the scenario's own list
        with pytest.raises(ConfigError, match=f"^strategies:? {needle}"):
            compare_strategies(small_scenario(small_scenario_dict), strategies=names)

    def test_the_loop_names_its_strategy(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        with pytest.raises(ConfigError, match="^strategy: unknown strategy 'nope'"):
            run_closed_loop(
                tank_dynamics(sc.plant), sc.predictor, sc.controller,
                LossModel(itertools.repeat(1)), "nope", sc.sim, sc.cost, [],
            )


class TestTextMemo:
    """A ``TraceWriter`` formats each distinct state once, by its bits, and
    writes the same rows as formatting every float afresh."""

    def test_signed_zeros_keep_their_text(self):
        records = [make_record(k=k, x=x) for k, x in enumerate((0.0, -0.0, 0.0))]
        rows = written_rows(records)
        assert [row.split(",")[2] for row in rows] == ["0.0", "-0.0", "0.0"]
        assert rows == [trace_row(r) for r in records]

    def test_an_int_state_writes_as_a_float(self):
        # the API accepts an int x0, which a run's first record carries
        record = make_record(x=110000, x_pred=110000)
        rows = written_rows([record])
        assert rows == [trace_row(record)]
        assert rows[0].split(",")[2:4] == ["110000.0", "110000.0"]

    def test_memo_is_capped_and_keeps_the_right_texts(self):
        cap = ncsim.runtime.TRUTH_MEMO_ENTRIES
        states = [1.0 + j / 8 for j in range(2 * cap + 3)]
        records = [make_record(k=k, x=x, x_pred=-x) for k, x in enumerate(states + states[::-3])]
        handle = io.StringIO()
        writer = TraceWriter(handle)
        for record in records:
            writer.append(record)
            assert len(writer.texts) <= cap
        assert handle.getvalue().splitlines(keepends=True)[1:] == [trace_row(r) for r in records]

    def test_an_equal_prediction_of_the_other_zero_keeps_its_sign(self):
        for x, x_pred in ((0.0, -0.0), (-0.0, 0.0)):
            rows = written_rows([make_record(x=x, x_pred=x_pred)])
            assert rows[0].split(",")[2:4] == [repr(x), repr(x_pred)]


class TestComparisonCsv:
    def test_layout_and_empty_cells(self, tmp_path):
        result = ComparisonResult(
            strategies=(PREDICTIVE_BUFFER, HOLD_LAST_VALUE),
            seeds=(1, 2),
            costs={
                PREDICTIVE_BUFFER: {1: 3.5, 2: None},
                HOLD_LAST_VALUE: {1: 1.0, 2: 2.0},
            },
        )
        path = tmp_path / "comparison.csv"
        write_comparison_csv(result, str(path))
        assert path.read_text().splitlines() == [
            "seed,predictive-buffer,hold-last-value",
            "1,3.5,1.0",
            "2,,2.0",
        ]


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
