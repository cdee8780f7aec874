import csv
import io
import itertools
import math
import os
import time
from bisect import bisect_right

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
    RunTally,
    SimSettings,
    SimulationDiverged,
    SimulationRecord,
    STRATEGIES,
    SystemDynamics,
    TraceWriter,
    UncertaintySignal,
    ZERO_INPUT,
    builtin_scenario_dict,
    compare_strategies,
    integrate_interval,
    run_closed_loop,
    run_scenario,
    scenario_from_dict,
    sontag_feedback,
    tank_dynamics,
    write_comparison_csv,
)
from ncsim.runtime import TRACE_HEADER, check_strategies

from conftest import (
    WIDE, collected, linear_decay_dynamics, outcome, reference_interval, reference_plan,
    reference_plant, reference_run, run_overrides, still_dynamics,
)

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


def small_scenario(small_scenario_dict, overrides=None):
    return scenario_from_dict(small_scenario_dict(overrides))


def run_bits(sc, bits, strategy, sim=None, weights=None):
    """``(records, x_final)`` of the loop of ``sc`` under reception ``bits``."""
    return collected(
        run_closed_loop, tank_dynamics(sc.plant), sc.predictor, sc.controller, LossModel(bits),
        strategy, sim or sc.sim, weights or sc.cost,
    )


class TestRunClosedLoop:
    def test_lossless_strategies_coincide(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        results = {s: collected(run_scenario, sc, s) for s in STRATEGIES}
        reference, reference_x = results[HOLD_LAST_VALUE]
        assert results[ZERO_INPUT][0] == reference
        for pred_rec, rec in zip(results[PREDICTIVE_BUFFER][0], reference):
            assert pred_rec.x_pred == pred_rec.x_true
            assert rec.x_pred is None
            assert (pred_rec.k, pred_rec.t, pred_rec.x_true) == (rec.k, rec.t, rec.x_true)
            assert (pred_rec.s, pred_rec.i, pred_rec.u) == (1, 0, rec.u)
            assert pred_rec.j_running == rec.j_running
        assert results[PREDICTIVE_BUFFER][1] == reference_x

    def test_all_loss_hold_matches_zero_input(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        runs = {s: run_bits(sc, [0] * sc.sim.steps, s)[0] for s in (HOLD_LAST_VALUE, ZERO_INPUT)}
        assert runs[HOLD_LAST_VALUE] == runs[ZERO_INPUT]
        assert all(r.u == 0.0 for r in runs[ZERO_INPUT])

    def test_all_loss_predictive_replays_initial_plan(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        dynamics = tank_dynamics(sc.plant)
        ccfg = sc.controller
        records, _ = run_bits(sc, [0] * sc.sim.steps, PREDICTIVE_BUFFER)
        plan = reference_plan(sc.predictor, dynamics, sc.sim.x0, sontag_feedback(dynamics, ccfg))
        n = sc.predictor.horizon
        for rec in records:
            assert (rec.x_pred, rec.u) == plan[min(rec.k, n)]
            assert rec.i == min(rec.k + 1, n)

    @pytest.mark.parametrize(
        "doubled,expected_offsets", [(False, [1, 2, 3]), (True, [1, 3, 5])]
    )
    def test_loss_burst_offset_rule(self, small_scenario_dict, doubled, expected_offsets):
        sc = small_scenario(small_scenario_dict)
        dynamics = tank_dynamics(sc.plant)
        ccfg = sc.controller
        sim = SimSettings(
            x0=sc.sim.x0,
            t_s=sc.sim.t_s,
            duration=6 * sc.sim.t_s,
            theta=sc.sim.theta,
            n_truth=sc.sim.n_truth,
            doubled_age_offset=doubled,
        )
        weights = CostWeights(q_c=1.0, r_c=1.0, m_steps=6)
        records, _ = run_bits(sc, [1, 0, 0, 0, 1, 1], PREDICTIVE_BUFFER, sim, weights)
        plan = reference_plan(sc.predictor, dynamics, sc.sim.x0, sontag_feedback(dynamics, ccfg))
        for rec, offset in zip(records[1:4], expected_offsets):
            assert (rec.x_pred, rec.u) == plan[offset]
        assert [r.i for r in records] == [0, 1, 2, 3, 0, 0]

    def test_running_cost_is_the_stage_cost_sum(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        records, _ = collected(run_scenario, sc, PREDICTIVE_BUFFER)
        total = stage_cost_sum(records, sc.cost, sc.controller.setpoint)
        assert records[-1].j_running == total

    @pytest.mark.parametrize("raw,expected", [(True, 8.0), (False, 4.5)])
    def test_cost_state_term(self, raw, expected):
        records, _ = collected(
            run_closed_loop,
            dynamics=linear_decay_dynamics(),
            predictor_cfg=PredictorConfig(delta=1.0, gamma=0.0, horizon=10),
            control_cfg=ControllerConfig(setpoint=0.5),
            loss_model=LossModel(itertools.repeat(1)),
            strategy=ZERO_INPUT,
            sim=SimSettings(x0=2.0, t_s=1.0, duration=2.0, theta=ZERO_THETA, n_truth=4),
            weights=CostWeights(q_c=2.0, r_c=3.0, m_steps=2, raw_state=raw),
        )
        first = records[0]
        assert first.u == 0.0
        assert first.j_running == expected

    def test_prediction_divergence_before_record(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        steps = sc.sim.steps
        bad = PredictorConfig(delta=sc.predictor.delta, gamma=0.9, horizon=10)
        records = []
        with pytest.raises(SimulationDiverged) as excinfo:
            run_closed_loop(
                dynamics=tank_dynamics(sc.plant),
                predictor_cfg=bad,
                control_cfg=sc.controller,
                loss_model=LossModel([0] * steps),
                strategy=PREDICTIVE_BUFFER,
                sim=sc.sim,
                weights=sc.cost,
                records=records,
            )
        # the leading loss replays entry 0, controller(x0); the next one
        # predicts entry 1, which leaves the domain
        err = excinfo.value
        assert err.step == 1
        assert len(records) == 1
        assert err.reason == "prediction left the domain after 1 entries"

    def test_unreplayed_plan_does_not_diverge(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        steps = sc.sim.steps
        bad = PredictorConfig(delta=sc.predictor.delta, gamma=0.9, horizon=10)

        def run(loss_model, records):
            return run_closed_loop(
                dynamics=tank_dynamics(sc.plant),
                predictor_cfg=bad,
                control_cfg=sc.controller,
                loss_model=loss_model,
                strategy=PREDICTIVE_BUFFER,
                sim=sc.sim,
                weights=sc.cost,
                records=records,
            )

        records = []
        run(LossModel(itertools.repeat(1)), records)
        assert len(records) == steps
        records = []
        with pytest.raises(SimulationDiverged) as excinfo:
            run(LossModel([1] + [0] * (steps - 1)), records)
        err = excinfo.value
        assert err.step == 1
        assert len(records) == 1
        assert err.reason == "prediction left the domain after 1 entries"

    def test_truth_domain_exit_text(self, small_scenario_dict):
        # theta jumps on the substep start t = 61 inside interval 30
        sc = small_scenario(small_scenario_dict, {"sim.theta": [[0.0, 0.175], [61.0, 2.0]]})
        records = []
        with pytest.raises(SimulationDiverged) as excinfo:
            run_scenario(sc, PREDICTIVE_BUFFER, records)
        err = excinfo.value
        assert err.step == 30
        assert len(records) == 31
        assert err.reason == "stage 2 state 202433.75963201388 left the domain"

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    # a theta break between substep starts of a lossy interval
    @example(case=((1, 0, 0, 1, 0), {"sim.theta": [[0.0, 0.175], [2.55, 0.185]]}))
    # an input gain past float range: a leading loss that holds u = +0.0
    # marches inf * 0.0
    @example(case=((0, 1), {"plant.alpha1": 1e306}))
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
    def test_loop_matches_reference_run(self, small_scenario_dict, strategy, case):
        bits, overrides = case
        sc = small_scenario(small_scenario_dict, {
            "sim.duration": 2.0 * len(bits), "cost.m_steps": 1, **overrides,
        })
        loop = (tank_dynamics(sc.plant), sc.predictor, sc.controller)
        expected_records, expected_end = reference_run(*loop, bits, strategy, sc.sim, sc.cost)
        steps_per_input = sc.predictor.steps_per_input(sc.sim.t_s)
        predict_step = ncsim.runtime.predict_step
        predicted = []

        def counting_predict_step(*step_args):
            assert step_args[-1] == steps_per_input
            predicted.append(step_args)
            return predict_step(*step_args)

        records = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ncsim.runtime, "predict_step", counting_predict_step)
            try:
                end = run_closed_loop(*loop, LossModel(bits), strategy, sc.sim, sc.cost, records)
            except SimulationDiverged as exc:
                end = exc.step, exc.reason
        assert bitwise(records) == bitwise(expected_records)
        assert repr(end) == repr(expected_end)
        if isinstance(end, tuple):
            return
        # each burst predicts the entries up to the furthest one it replays,
        # one predict_step call per entry; no other strategy predicts
        offsets = replayed_offsets(bits, sc.predictor.horizon, sc.sim.doubled_age_offset)
        bursts = itertools.groupby(offsets, key=lambda offset: offset is None)
        furthest = sum(max(burst) for received, burst in bursts if not received)
        assert len(predicted) == (furthest if strategy == PREDICTIVE_BUFFER else 0)

    @settings(deadline=None)
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=30),
        doubled=st.booleans(),
        horizon=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_plan_diverges_at_the_loss_that_replays_its_exit(self, bits, doubled, horizon, data):
        # x' = 0 keeps the truth at x0 = 1, and the plan from any reception
        # grows as (1 + gamma)^j, first past 1.2 at entry j (horizon + 1:
        # never replayed)
        j = data.draw(st.integers(min_value=1, max_value=horizon + 1), label="j")
        gamma = 1.2 ** (1.0 / (j - 0.5)) - 1.0
        still = still_dynamics((0.0, 1.2))

        records = []

        def run():
            return run_closed_loop(
                dynamics=still,
                predictor_cfg=PredictorConfig(delta=1.0, gamma=gamma, horizon=horizon),
                control_cfg=ControllerConfig(setpoint=0.5),
                loss_model=LossModel(bits),
                strategy=PREDICTIVE_BUFFER,
                sim=SimSettings(
                    x0=1.0, t_s=1.0, duration=float(len(bits)), theta=ZERO_THETA,
                    doubled_age_offset=doubled,
                ),
                weights=CostWeights(q_c=1.0, r_c=1.0, m_steps=1),
                records=records,
            )

        offsets = replayed_offsets(bits, horizon, doubled)
        exits = [k for k, offset in enumerate(offsets) if offset is not None and offset >= j]
        if not exits:
            run()
            assert len(records) == len(bits)
            return
        with pytest.raises(SimulationDiverged) as excinfo:
            run()
        err = excinfo.value
        assert err.step == exits[0]
        assert len(records) == exits[0]
        assert err.reason == f"prediction left the domain after {j} entries"

    def test_truth_divergence_after_record(self):
        runaway = SystemDynamics(
            drift=lambda x: 100.0,
            input_gain=lambda x: 0.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=(0.0, 10.0),
        )
        records = []
        with pytest.raises(SimulationDiverged) as excinfo:
            run_closed_loop(
                dynamics=runaway,
                predictor_cfg=PredictorConfig(delta=1.0, gamma=0.0, horizon=5),
                control_cfg=ControllerConfig(setpoint=5.0),
                loss_model=LossModel(itertools.repeat(1)),
                strategy=ZERO_INPUT,
                sim=SimSettings(x0=5.0, t_s=1.0, duration=3.0, theta=ZERO_THETA, n_truth=1),
                weights=CostWeights(q_c=1.0, r_c=1.0, m_steps=1),
                records=records,
            )
        err = excinfo.value
        assert err.step == 0
        assert len(records) == 1
        assert "stage" in err.reason

    def test_unknown_strategy_rejected(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        with pytest.raises(ValueError):
            run_closed_loop(
                dynamics=tank_dynamics(sc.plant),
                predictor_cfg=sc.predictor,
                control_cfg=sc.controller,
                loss_model=LossModel(itertools.repeat(1)),
                strategy="nope",
                sim=sc.sim,
                weights=sc.cost,
                records=[],
            )

    def test_initial_state_must_be_in_domain(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        sim = SimSettings(
            x0=50_000.0, t_s=sc.sim.t_s, duration=sc.sim.t_s, theta=sc.sim.theta, n_truth=1
        )
        with pytest.raises(DomainError):
            run_closed_loop(
                dynamics=tank_dynamics(sc.plant),
                predictor_cfg=sc.predictor,
                control_cfg=sc.controller,
                loss_model=LossModel(itertools.repeat(1)),
                strategy=ZERO_INPUT,
                sim=sim,
                weights=sc.cost,
                records=[],
            )

    def test_repeat_run_is_deterministic(self, small_scenario_dict):
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 4}}
        )
        assert collected(run_scenario, sc, PREDICTIVE_BUFFER) == collected(
            run_scenario, sc, PREDICTIVE_BUFFER
        )

    @settings(max_examples=40, deadline=None)
    @given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=12, max_size=12))
    def test_buffer_age_invariants(self, bits):
        doc_loss = LossModel(bits)
        doc = builtin_scenario_dict("tank-reference")
        doc["sim"]["duration"] = 24.0
        doc["sim"]["n_truth"] = 5
        doc["cost"]["m_steps"] = 12
        sc = scenario_from_dict(doc)
        records, _ = collected(
            run_closed_loop,
            dynamics=tank_dynamics(sc.plant),
            predictor_cfg=sc.predictor,
            control_cfg=sc.controller,
            loss_model=doc_loss,
            strategy=PREDICTIVE_BUFFER,
            sim=sc.sim,
            weights=sc.cost,
        )
        for rec in records:
            if rec.s == 1:
                assert rec.i == 0
            assert 0 <= rec.i <= sc.predictor.horizon


def first_interval_cost(x0, setpoint, received=True, u_min=0.0, raw_state=False):
    """Running cost after one interval of a two-interval run on xdot = -x + u."""
    weights = CostWeights(1.0, 1.0, 1, raw_state=raw_state)
    records, _ = collected(
        run_closed_loop,
        dynamics=linear_decay_dynamics(),
        predictor_cfg=PredictorConfig(delta=1.0, gamma=0.0, horizon=5),
        control_cfg=ControllerConfig(setpoint=setpoint, u_min=u_min, u_max=u_min + 1.0),
        loss_model=LossModel([1 if received else 0, 1]),
        strategy=ZERO_INPUT,
        sim=SimSettings(x0=x0, t_s=1.0, duration=2.0, theta=ZERO_THETA, n_truth=1),
        weights=weights,
    )
    return records[weights.m_steps - 1].j_running, records


class TestRunningCost:
    """A run's cost is its own running cost after ``cost.m_steps`` intervals."""

    def test_truncates_to_m_steps(self):
        # the feedback saturates at u_min = 3 in the received first interval
        cost, records = first_interval_cost(2.0, 0.0, u_min=3.0)
        assert (records[0].x_true, records[0].u) == (2.0, 3.0)
        assert cost == 13.0
        assert records[1].j_running > 13.0

    def test_setpoint_shifts_deviation(self):
        assert first_interval_cost(5.0, 2.0, received=False)[0] == 9.0

    def test_raw_state_ignores_setpoint(self):
        assert first_interval_cost(5.0, 2.0, received=False, raw_state=True)[0] == 25.0

    @pytest.mark.parametrize("key", ["cost.q_c", "cost.r_c"])
    def test_cost_past_float_range_is_a_divergence(self, small_scenario_dict, key):
        sc = scenario_from_dict(small_scenario_dict({key: 1e308}))
        for strategy in STRATEGIES:
            records = []
            with pytest.raises(SimulationDiverged) as excinfo:
                run_scenario(sc, strategy, records)
            err = excinfo.value
            assert err.reason.startswith("running cost became non-finite")
            # the records stop before the step whose cost overflowed
            assert len(records) == err.step
            assert all(math.isfinite(r.j_running) for r in records)

    def test_rejects_empty_and_short_records(self, small_scenario_dict):
        # a run cannot be shorter than its cost horizon: both are parse errors
        with pytest.raises(ValueError, match="sim.duration"):
            scenario_from_dict(small_scenario_dict({"sim.duration": 0.0}))
        with pytest.raises(ValueError, match="cost.m_steps"):
            scenario_from_dict(small_scenario_dict({"cost.m_steps": 61}))


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


def write_records(records, path):
    """``records`` written to ``path`` by a ``TraceWriter``, as ``ncsim run``
    writes its trace."""
    with open(path, "w", newline="") as handle:
        writer = TraceWriter(handle, 1)
        for record in records:
            writer.append(record)


def read_records(path):
    """The records of a trace CSV written by a ``TraceWriter``, parsed
    back with ``csv`` and ``float``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    records = []
    for row in rows[1:]:
        k, t, x_true, x_pred, s, i, u, j_running = row
        records.append(SimulationRecord(
            int(k), float(t), float(x_true), None if x_pred == "" else float(x_pred),
            int(s), int(i), float(u), float(j_running),
        ))
    return records


class TestRecordsCsv:
    def test_round_trip_with_and_without_predictions(self, small_scenario_dict, tmp_path):
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 11}}
        )
        for strategy in (PREDICTIVE_BUFFER, HOLD_LAST_VALUE):
            records, _ = collected(run_scenario, sc, strategy)
            path = tmp_path / f"{strategy}.csv"
            write_records(records, str(path))
            assert read_records(str(path)) == records

    def test_header_line_is_frozen(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_records([make_record()], str(path))
        first_line = path.read_text().splitlines()[0]
        assert first_line == "k,t,x_true,x_pred,s,i,u,J_running"
        assert tuple(first_line.split(",")) == TRACE_HEADER

    def test_write_is_byte_stable(self, small_scenario_dict, tmp_path):
        sc = small_scenario(small_scenario_dict)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_records(collected(run_scenario, sc, PREDICTIVE_BUFFER)[0], str(a))
        write_records(collected(run_scenario, sc, PREDICTIVE_BUFFER)[0], str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_an_equal_prediction_of_the_other_zero_keeps_its_sign(self, tmp_path):
        path = tmp_path / "trace.csv"
        for x, x_pred in ((0.0, -0.0), (-0.0, 0.0)):
            write_records([make_record(x=x, x_pred=x_pred)], str(path))
            assert path.read_text().splitlines()[1].split(",")[2:4] == [repr(x), repr(x_pred)]

    def test_a_prediction_that_is_the_state_writes_as_an_equal_float(
        self, small_scenario_dict, tmp_path
    ):
        # a buffer run's reception rows carry the state itself as x_pred
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 11}}
        )
        records, _ = collected(run_scenario, sc, PREDICTIVE_BUFFER)
        shared = [r for r in records if r.x_pred is r.x_true]
        assert len(shared) == sum(r.s for r in records) > 0
        fresh = [r._replace(x_pred=float.fromhex(r.x_pred.hex())) for r in records]
        assert not any(r.x_pred is r.x_true for r in fresh)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(records, str(a))
        write_records(fresh, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_writer_tallies_as_run_tally(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict, {
            "loss": {"kind": "bernoulli", "p": 0.3, "seed": 11}, "cost.m_steps": 7,
        })
        records, _ = collected(run_scenario, sc, PREDICTIVE_BUFFER)
        writer, tally = TraceWriter(io.StringIO(), 7), RunTally(7)
        fields = ("steps", "loss_count", "j_total", "j_m_steps")
        for record in records:
            writer.append(record)
            tally.append(record)
            assert [getattr(writer, f) for f in fields] == [getattr(tally, f) for f in fields]
        assert tally.loss_count > 0 and tally.j_m_steps == records[6].j_running


class RecordingSink:
    """A sink that is no list: it keeps what is appended to it, in order."""

    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)


class TestRecordSinks:
    """The loop hands each record to ``records.append`` and keeps none."""

    def bursty(self, small_scenario_dict):
        return small_scenario(small_scenario_dict, {
            "loss": {"kind": "bernoulli", "p": 0.3, "seed": 11}, "cost.m_steps": 7,
        })

    def test_each_record_arrives_before_its_truth_march(self, small_scenario_dict, monkeypatch):
        sc = self.bursty(small_scenario_dict)
        sink = RecordingSink()
        marched = []

        def counting(*args):
            marched.append(len(sink.records))
            return integrate_interval(*args)

        monkeypatch.setattr(ncsim.runtime, "integrate_interval", counting)
        run_scenario(sc, PREDICTIVE_BUFFER, sink)
        assert marched == list(range(1, 61))
        assert [r.k for r in sink.records] == list(range(60))

    def test_divergence_leaves_the_records_in_the_sink(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict, {"sim.theta": [[0.0, 0.175], [61.0, 2.0]]})
        sink = RecordingSink()
        with pytest.raises(SimulationDiverged) as excinfo:
            run_scenario(sc, HOLD_LAST_VALUE, sink)
        assert not hasattr(excinfo.value, "records")
        assert [r.k for r in sink.records] == list(range(31))

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tally_keeps_what_the_list_shows(self, small_scenario_dict, strategy):
        sc = self.bursty(small_scenario_dict)
        records, x_final = collected(run_scenario, sc, strategy)
        tally = RunTally(sc.cost.m_steps)
        assert run_scenario(sc, strategy, tally) == x_final
        assert tally.steps == len(records) == 60
        assert tally.loss_count == sum(1 for r in records if r.s == 0) > 0
        assert tally.j_total == records[-1].j_running
        assert tally.j_m_steps == records[6].j_running

    def test_records_are_simulation_records(self, small_scenario_dict):
        # the reference comparisons go by value, which a bare tuple passes
        sc = self.bursty(small_scenario_dict)
        sink = RecordingSink()
        run_scenario(sc, PREDICTIVE_BUFFER, sink)
        assert {type(r) for r in sink.records} == {SimulationRecord}
        by_name = [
            (r.k, r.t, r.x_true, r.x_pred, r.s, r.i, r.u, r.j_running) for r in sink.records
        ]
        assert by_name == [tuple(r) for r in collected(run_scenario, sc, PREDICTIVE_BUFFER)[0]]
        assert [r.k for r in sink.records] == list(range(60))

    def test_tally_before_m_steps(self):
        tally = RunTally(2)
        assert (tally.steps, tally.loss_count, tally.j_total, tally.j_m_steps) == (0, 0, None, None)
        tally.append(make_record()._replace(s=0))
        assert (tally.steps, tally.loss_count, tally.j_m_steps) == (1, 1, None)


def bitwise(records):
    """Each record as text that tells +0.0 from -0.0."""
    return [repr(r) for r in records]


def counted_marches(monkeypatch):
    """The argument tuples of every ``integrate_interval`` call the loop makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return integrate_interval(*args)

    monkeypatch.setattr(ncsim.runtime, "integrate_interval", counting)
    return calls


def sign_of_zero_drift(x):
    """-1 at -0.0 and +1 at +0.0.  From x0 = -0.0 with h = 1, RK4 goes
    to -1.0, then exactly to +0.0 (stages -1, 2, 1, 1), then to 1.0: a memo
    that merged the two zeros would send +0.0 back to -1.0."""
    if x == 0.0:
        return math.copysign(1.0, x)
    if x > 0.0:
        return 1.0
    return 2.0 if x < -1.25 else -1.0


class TestTruthMemo:
    """A run marches each held-theta truth interval once per distinct
    (x, u, theta), and its records match a loop that marches them all."""

    # The memo cap and the marches of a lossless tank-reference run.  Its
    # 182 distinct keys are a transient and a cycle of a few states before
    # and after theta switches: 4 entries are emptied within the cycle.
    @pytest.mark.parametrize("cap, marches", [(256, 182), (4, 988)])
    def test_lossless_tank_reference_revisits_its_states(self, monkeypatch, cap, marches):
        sc = scenario_from_dict(builtin_scenario_dict("tank-reference"))
        monkeypatch.setattr(ncsim.runtime, "TRUTH_MEMO_ENTRIES", cap)
        calls = counted_marches(monkeypatch)
        records, x_final = collected(run_scenario, sc, PREDICTIVE_BUFFER)
        assert len(calls) == marches
        assert len({(x, u, held_theta(*rest)) for _, x, u, *rest in calls}) == 182
        expected = reference_run(
            tank_dynamics(sc.plant), sc.predictor, sc.controller, [1] * 1800, PREDICTIVE_BUFFER,
            sc.sim, sc.cost,
        )
        assert (records, x_final) == expected
        assert len(records) == 1800

    def test_signed_zeros_are_different_keys(self, monkeypatch):
        dynamics = SystemDynamics(
            drift=sign_of_zero_drift,
            input_gain=lambda x: 0.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=WIDE,
        )
        control = ControllerConfig(setpoint=0.0)
        sim = SimSettings(x0=-0.0, t_s=1.0, duration=5.0, theta=ZERO_THETA, n_truth=1)
        weights = CostWeights(q_c=1.0, r_c=1.0, m_steps=5)
        predictor_cfg = PredictorConfig(delta=1.0, gamma=0.0, horizon=2)
        calls = counted_marches(monkeypatch)
        records, x_final = collected(
            run_closed_loop, dynamics, predictor_cfg, control, LossModel(itertools.repeat(1)),
            HOLD_LAST_VALUE, sim, weights,
        )
        expected = reference_run(
            dynamics, predictor_cfg, control, [1] * 5, HOLD_LAST_VALUE, sim, weights
        )
        assert bitwise(records) == bitwise(expected[0])
        assert [r.x_true for r in records] == [-0.0, -1.0, 0.0, 1.0, 2.0]
        assert math.copysign(1.0, records[2].x_true) == 1.0
        assert x_final == expected[1] == 3.0
        assert len(calls) == 5

    @pytest.mark.parametrize("position", range(3))
    def test_key_tells_the_zeros_apart(self, position):
        key = ncsim.runtime._truth_key
        plus, minus = [1.0, 0.5, 0.175], [1.0, 0.5, 0.175]
        plus[position], minus[position] = 0.0, -0.0
        assert key(*plus) != key(*minus)

    def test_straddling_intervals_march_every_time(self, monkeypatch):
        # x stands still, so held intervals under one theta share one key.
        # Intervals [k, k + 1) have substep starts k and k + 0.5.  Schedule
        # times: one before the run, 2.5 inside interval 2, 3.0 on interval
        # 3's start, 4.5 on interval 4's last substep start, 6.2 and 6.4
        # inside interval 6, and one after the run
        still = still_dynamics(WIDE)
        theta = UncertaintySignal(
            times=(-1.0, 2.5, 3.0, 4.5, 6.2, 6.4, 100.0),
            values=(0.0, 1.0, 2.0, 0.0, 3.0, 1.0, 5.0),
        )
        sim = SimSettings(x0=1.0, t_s=1.0, duration=8.0, theta=theta, n_truth=2)
        calls = counted_marches(monkeypatch)
        collected(
            run_closed_loop, still, PredictorConfig(delta=1.0, gamma=0.0, horizon=2),
            ControllerConfig(setpoint=0.5), LossModel(itertools.repeat(1)), ZERO_INPUT,
            sim, CostWeights(q_c=1.0, r_c=1.0, m_steps=8),
        )
        # (interval start, held theta or None for a straddling interval)
        marched = [(args[3], held_theta(*args[3:])) for args in calls]
        # what the schedule holds interval by interval, each held theta
        # marched once
        expected, seen = [], set()
        for k in range(sim.steps):
            th = held_theta(float(k), sim.t_s, sim.n_truth, theta)
            if th not in seen:
                expected.append((float(k), th))
            if th is not None:
                seen.add(th)
        assert marched == expected == [
            (0.0, 0.0), (2.0, None), (3.0, 2.0), (4.0, None), (6.0, None), (7.0, 1.0),
        ]


def counted_feedback(monkeypatch):
    """The states at which every feedback built by the loop is called."""
    build, states = sontag_feedback, []

    def counting(dynamics, cfg):
        feedback = build(dynamics, cfg)

        def u(x):
            states.append(x)
            return feedback(x)

        return u

    monkeypatch.setattr(ncsim.runtime, "sontag_feedback", counting)
    return states


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


class TestFeedbackMemo:
    """A run applies the feedback once per distinct received state, and
    its records match a loop that applies it at every reception."""

    # The memo cap and the feedback calls of a lossless tank-reference run,
    # whose 1800 receptions meet 181 distinct states.
    @pytest.mark.parametrize("cap, calls", [(256, 181), (4, 987)])
    def test_lossless_tank_reference_revisits_its_states(self, monkeypatch, cap, calls):
        sc = scenario_from_dict(builtin_scenario_dict("tank-reference"))
        monkeypatch.setattr(ncsim.runtime, "TRUTH_MEMO_ENTRIES", cap)
        states = counted_feedback(monkeypatch)
        records, x_final = collected(run_scenario, sc, PREDICTIVE_BUFFER)
        assert len(states) == calls
        assert len(set(states)) == 181
        expected = reference_run(
            tank_dynamics(sc.plant), sc.predictor, sc.controller, [1] * 1800, PREDICTIVE_BUFFER,
            sc.sim, sc.cost,
        )
        assert (records, x_final) == expected

    def test_signed_zeros_are_different_keys(self, monkeypatch):
        dynamics = SystemDynamics(
            drift=signed_zero_drift,
            input_gain=lambda x: 1.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=WIDE,
        )
        control = ControllerConfig(setpoint=1.0, u_min=0.0, u_max=2.0)
        sim = SimSettings(x0=-0.0, t_s=1.0, duration=3.0, theta=ZERO_THETA, n_truth=1)
        weights = CostWeights(q_c=1.0, r_c=1.0, m_steps=3)
        predictor_cfg = PredictorConfig(delta=1.0, gamma=0.0, horizon=2)
        bits = [1, 0, 1]
        states = counted_feedback(monkeypatch)
        records, x_final = collected(
            run_closed_loop, dynamics, predictor_cfg, control, LossModel(bits), ZERO_INPUT,
            sim, weights,
        )
        expected = reference_run(dynamics, predictor_cfg, control, bits, ZERO_INPUT, sim, weights)
        assert bitwise(records) == bitwise(expected[0])
        assert x_final == expected[1]
        assert bitwise(states) == ["-0.0", "0.0"]
        assert [r.u for r in records] == [2.0, 0.0, math.sqrt(5.0) - 1.0]

    def test_a_feedback_that_raises_stores_nothing(self, monkeypatch):
        # x climbs by 1 per interval; at 3.5 the input gain makes LgV^4
        # leave float range
        dynamics = SystemDynamics(
            drift=lambda x: 1.0,
            input_gain=lambda x: 0.0 if x < 3.5 else 1e200,
            uncertainty_gain=lambda x: 0.0,
            state_domain=WIDE,
        )
        control = ControllerConfig(setpoint=0.0)
        sim = SimSettings(x0=0.5, t_s=1.0, duration=6.0, theta=ZERO_THETA, n_truth=1)
        weights = CostWeights(q_c=1.0, r_c=1.0, m_steps=6)
        predictor_cfg = PredictorConfig(delta=1.0, gamma=0.0, horizon=2)
        states = counted_feedback(monkeypatch)
        records = []
        with pytest.raises(SimulationDiverged) as excinfo:
            run_closed_loop(
                dynamics, predictor_cfg, control, LossModel([1] * 6), HOLD_LAST_VALUE,
                sim, weights, records,
            )
        expected = reference_run(
            dynamics, predictor_cfg, control, [1] * 6, HOLD_LAST_VALUE, sim, weights
        )
        assert (records, (excinfo.value.step, excinfo.value.reason)) == expected
        assert isinstance(excinfo.value.__cause__, ControllerOverflowError)
        assert states == [0.5, 1.5, 2.5, 3.5]


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
    writer = TraceWriter(handle, 1)
    for record in records:
        writer.append(record)
    return handle.getvalue().splitlines(keepends=True)[1:]


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
        writer = TraceWriter(handle, 1)
        for record in records:
            writer.append(record)
            assert len(writer.texts) <= cap
        assert handle.getvalue().splitlines(keepends=True)[1:] == [trace_row(r) for r in records]

    def test_lossless_tank_reference_formats_each_state_once(self, monkeypatch):
        # counted through a repr put into the module's globals
        sc = scenario_from_dict(builtin_scenario_dict("tank-reference"))
        texts = []

        def counting(value):
            texts.append(value)
            return repr(value)

        monkeypatch.setattr(ncsim.runtime, "repr", counting, raising=False)
        handle = io.StringIO()
        run_scenario(sc, PREDICTIVE_BUFFER, TraceWriter(handle, sc.cost.m_steps))
        assert len(texts) == len(set(texts)) == 181
        monkeypatch.undo()
        records, _ = collected(run_scenario, sc, PREDICTIVE_BUFFER)
        assert handle.getvalue().splitlines(keepends=True)[1:] == [trace_row(r) for r in records]


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
            tally = RunTally(sc.cost.m_steps)
            try:
                x_final = run_scenario(sc, strategy, tally)
            except SimulationDiverged:
                continue
            assert math.isfinite(tally.j_m_steps)
            assert math.isfinite(x_final)
