import csv
import itertools
import math
import os
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ncsim.runtime

from ncsim import (
    ComparisonResult,
    ConfigError,
    ControllerConfig,
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
    sontag_input,
    tank_dynamics,
    write_comparison_csv,
)
from ncsim.predictor import extend_plan
from ncsim.runtime import TRACE_HEADER, check_strategies

from conftest import WIDE, full_plan, linear_decay_dynamics, reference_plant, run_overrides

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


def eager_reference(sc, bits, steps_per_input):
    """The predictive-buffer loop that plans all entries at every reception."""
    dynamics, cfg = tank_dynamics(sc.plant), sc.predictor
    ccfg, sim, weights = sc.controller, sc.sim, sc.cost
    n = cfg.horizon
    records, x, plan, origin, age, j_running = [], sim.x0, None, 0, 0, 0.0
    for k, s in enumerate(bits):
        if s or plan is None:
            plan = full_plan(
                cfg, dynamics, x if s else sim.x0,
                lambda xs: sontag_input(dynamics, ccfg, xs), steps_per_input,
            )
            origin = k if s else 0
        if s:
            offset, age = 0, 0
        elif sim.doubled_age_offset:
            offset, age = min(2 * age + 1, n), min(age + 1, n)
        else:
            offset, age = min(k - origin, n), min(age + 1, n)
        inputs, states = plan
        u = inputs[offset]
        dev = x - ccfg.setpoint
        j_running += weights.q_c * dev * dev + weights.r_c * u * u
        records.append(
            SimulationRecord(
                k=k, t=k * sim.t_s, x_true=x, x_pred=states[offset],
                s=s, i=age, u=u, j_running=j_running,
            )
        )
        x = integrate_interval(dynamics, x, u, k * sim.t_s, sim.t_s, sim.n_truth, sim.theta)
    return records, x


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


def per_substep_reference(dynamics, x, u, t_start, t_s, n_truth, theta):
    """The truth loop that looks theta up at every substep start, with
    RK4 written out over the three gains."""
    f, g, w = dynamics.drift, dynamics.input_gain, dynamics.uncertainty_gain
    h = t_s / n_truth

    def rhs(xs, th):
        return f(xs) + g(xs) * u + w(xs) * th

    for j in range(n_truth):
        th = theta.value(t_start + j * h)
        k1 = h * rhs(x, th)
        k2 = h * rhs(x + k1 / 2.0, th)
        k3 = h * rhs(x + k2 / 2.0, th)
        k4 = h * rhs(x + k3, th)
        x = x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return x


# Schedules around the interval [1800, 1802) with 20 substeps of 0.1 s.
SCHEDULES = {
    "break mid-interval": ((0.0, 1800.05), (0.175, 0.185)),
    "break on a substep start": ((0.0, 1800.5), (0.175, 0.185)),
    "break on the interval start": ((0.0, 1800.0), (0.175, 0.185)),
    "break on the last substep start": ((0.0, 1800.0 + 19 * 0.1), (0.175, 0.185)),
    "break after the last substep start": ((0.0, 1801.95), (0.175, 0.185)),
    "several breaks": ((0.0, 1800.05, 1800.3, 1800.35, 1801.9), (0.175, 0.3, -0.2, 0.0, 0.185)),
    "break and back": ((0.0, 1800.5, 1801.0), (0.175, 0.3, 0.175)),
    "no break": ((0.0, 1000.0), (0.175, 0.185)),
}


class TestIntegrateInterval:
    @pytest.mark.parametrize("name", sorted(SCHEDULES))
    def test_matches_per_substep_lookup(self, tank, name):
        theta = UncertaintySignal(*SCHEDULES[name])
        for x, u in ((140_000.0, 0.0), (150_100.0, 0.37), (185_000.0, 1.0)):
            args = (tank, x, u, 1800.0, 2.0, 20, theta)
            assert integrate_interval(*args) == per_substep_reference(*args)

    @pytest.mark.parametrize("times", [(-5.0,), (-5.0, 0.35), (-5.0, -1.0, 1.0)])
    def test_break_before_time_zero(self, tank, times):
        theta = UncertaintySignal(times, tuple(0.1 * (i + 1) for i in range(len(times))))
        args = (tank, 150_000.0, 0.5, 0.0, 2.0, 20, theta)
        assert integrate_interval(*args) == per_substep_reference(*args)

    def test_break_on_the_lookup_floats(self):
        # 0.9 / 0.3 is 3.0, but the start 3 * 0.3 is 0.8999999999999999,
        # which the lookup still gives the first entry: 4 substeps of 1.0
        theta = UncertaintySignal(times=(0.0, 0.9), values=(1.0, 2.0))
        args = (disturbance_channel(), 0.0, 0.0, 0.0, 3.0, 10, theta)
        assert integrate_interval(*args) == per_substep_reference(*args)
        assert integrate_interval(*args) == pytest.approx(4 * 0.3 + 6 * 0.3 * 2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        breaks=st.lists(
            st.floats(min_value=-2.0, max_value=4.0), min_size=1, max_size=5, unique=True
        ),
        # a band, disturbance and substep count that keep every stage
        # state of both loops inside the domain
        values=st.lists(st.floats(min_value=-0.2, max_value=0.2), min_size=5, max_size=5),
        x=st.floats(min_value=140_000.0, max_value=160_000.0),
        u=st.floats(min_value=0.0, max_value=1.0),
        t_start=st.sampled_from([0.0, 1.0, 2.0]),
        n_truth=st.integers(min_value=10, max_value=30),
    )
    def test_schedule_property(self, breaks, values, x, u, t_start, n_truth):
        tank = tank_dynamics(reference_plant())
        times = tuple(sorted(breaks))
        theta = UncertaintySignal(times, tuple(values[: len(times)]))
        args = (tank, x, u, t_start, 2.0, n_truth, theta)
        assert integrate_interval(*args) == per_substep_reference(*args)

    def test_nonfinite_result_raises(self):
        # every stage state stays in the domain; only k4 is infinite
        cliff = SystemDynamics(
            drift=lambda x: 1.0 if x < 1.9 else math.inf,
            input_gain=lambda x: 0.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=WIDE,
        )
        with pytest.raises(NonFiniteError):
            integrate_interval(cliff, 1.0, 0.0, 0.0, 1.0, 1, ZERO_THETA)

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
        with pytest.raises(IntegrationDomainError) as excinfo:
            integrate_interval(runaway, 5.0, 0.0, 0.0, 1.0, 1, ZERO_THETA)
        assert excinfo.value.stage == 2


# Every stage stays in [0, 6.5] from 5 at h = 1 (5.5, 5.5, 6.0), but the
# end state 5 + (1 + 2 + 2 + 100) / 6 = 22.5 does not.
def end_escape(domain=(0.0, 6.5)) -> SystemDynamics:
    return SystemDynamics(lambda x: 1.0 if x < 5.9 else 100.0, lambda x: 0.0, lambda x: 0.0, domain)


# From 5 at h = 2 the stages sit at 5.05, 5.05 and 5.1, where 2 * 1e308 overflows.
def overflow() -> SystemDynamics:
    return SystemDynamics(lambda x: 0.05 if x < 5.08 else 1e308, lambda x: 0.0, lambda x: 0.0, WIDE)


# theta schedules that take the constant and, for intervals from t = 3 with
# more than one substep, the per-substep path
THETA_PATHS = {
    "constant": ZERO_THETA,
    "per-substep": UncertaintySignal(times=(0.0, 3.5), values=(0.0, 0.0)),
}


class TestIntegrateIntervalErrors:
    @pytest.mark.parametrize("path", sorted(THETA_PATHS))
    @pytest.mark.parametrize("x, n_truth", [(5.0, 1), (4.0, 2)])  # from 4, step 1 ends at 5
    def test_end_state_outside_the_domain(self, path, x, n_truth):
        with pytest.raises(DomainError) as excinfo:
            integrate_interval(end_escape(), x, 0.0, 3.0, n_truth * 1.0, n_truth, THETA_PATHS[path])
        assert type(excinfo.value) is DomainError
        assert str(excinfo.value) == "state 22.5 outside domain [0.0, 6.5]"

    @pytest.mark.parametrize("path", sorted(THETA_PATHS))
    @pytest.mark.parametrize("n_truth", [2, 3])
    def test_mid_interval_exit_stops_the_next_first_stage(self, path, n_truth):
        with pytest.raises(IntegrationDomainError) as excinfo:
            integrate_interval(end_escape(), 5.0, 0.0, 3.0, n_truth * 1.0, n_truth, THETA_PATHS[path])
        assert excinfo.value.stage == 1
        assert excinfo.value.state == 22.5
        assert str(excinfo.value) == "stage 1 state 22.5 left the domain"

    @pytest.mark.parametrize("path", sorted(THETA_PATHS))
    @pytest.mark.parametrize("n_truth", [1, 2])
    def test_overflowing_rhs(self, path, n_truth):
        with pytest.raises(NonFiniteError) as excinfo:
            integrate_interval(overflow(), 5.0, 0.0, 3.0, n_truth * 2.0, n_truth, THETA_PATHS[path])
        assert str(excinfo.value) == "state became non-finite during interval at t=3.0"

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


class TestRunClosedLoop:
    def test_lossless_strategies_coincide(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        results = {s: run_scenario(sc, s) for s in STRATEGIES}
        reference = results[HOLD_LAST_VALUE]
        assert results[ZERO_INPUT].records == reference.records
        for pred_rec, rec in zip(results[PREDICTIVE_BUFFER].records, reference.records):
            assert pred_rec.x_pred == pred_rec.x_true
            assert rec.x_pred is None
            assert (pred_rec.k, pred_rec.t, pred_rec.x_true) == (rec.k, rec.t, rec.x_true)
            assert (pred_rec.s, pred_rec.i, pred_rec.u) == (1, 0, rec.u)
            assert pred_rec.j_running == rec.j_running
        assert results[PREDICTIVE_BUFFER].x_final == reference.x_final

    def test_all_loss_hold_matches_zero_input(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        steps = sc.sim.steps
        runs = {}
        for strategy in (HOLD_LAST_VALUE, ZERO_INPUT):
            runs[strategy] = run_closed_loop(
                dynamics=tank_dynamics(sc.plant),
                predictor_cfg=sc.predictor,
                control_cfg=sc.controller,
                loss_model=LossModel([0] * steps),
                strategy=strategy,
                sim=sc.sim,
                weights=sc.cost,
            )
        assert runs[HOLD_LAST_VALUE].records == runs[ZERO_INPUT].records
        assert all(r.u == 0.0 for r in runs[ZERO_INPUT].records)

    def test_all_loss_predictive_replays_initial_plan(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        dynamics = tank_dynamics(sc.plant)
        ccfg = sc.controller
        steps = sc.sim.steps
        result = run_closed_loop(
            dynamics=dynamics,
            predictor_cfg=sc.predictor,
            control_cfg=ccfg,
            loss_model=LossModel([0] * steps),
            strategy=PREDICTIVE_BUFFER,
            sim=sc.sim,
            weights=sc.cost,
        )
        inputs, states = full_plan(
            sc.predictor, dynamics, sc.sim.x0, lambda x: sontag_input(dynamics, ccfg, x)
        )
        n = sc.predictor.horizon
        for rec in result.records:
            offset = min(rec.k, n)
            assert rec.u == inputs[offset]
            assert rec.x_pred == states[offset]
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
        result = run_closed_loop(
            dynamics=dynamics,
            predictor_cfg=sc.predictor,
            control_cfg=ccfg,
            loss_model=LossModel([1, 0, 0, 0, 1, 1]),
            strategy=PREDICTIVE_BUFFER,
            sim=sim,
            weights=CostWeights(q_c=1.0, r_c=1.0, m_steps=6),
        )
        inputs, states = full_plan(
            sc.predictor, dynamics, sc.sim.x0, lambda x: sontag_input(dynamics, ccfg, x)
        )
        for rec, offset in zip(result.records[1:4], expected_offsets):
            assert rec.x_pred == states[offset]
            assert rec.u == inputs[offset]
        assert [r.i for r in result.records] == [0, 1, 2, 3, 0, 0]

    def test_running_cost_matches_evaluate(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        result = run_scenario(sc, PREDICTIVE_BUFFER)
        total = stage_cost_sum(result.records, sc.cost, sc.controller.setpoint)
        assert result.records[-1].j_running == total
        assert result.cost(sc.cost) == total

    @pytest.mark.parametrize("raw,expected", [(True, 8.0), (False, 4.5)])
    def test_cost_state_term(self, raw, expected):
        result = run_closed_loop(
            dynamics=linear_decay_dynamics(),
            predictor_cfg=PredictorConfig(delta=1.0, gamma=0.0, horizon=10),
            control_cfg=ControllerConfig(setpoint=0.5),
            loss_model=LossModel(itertools.repeat(1)),
            strategy=ZERO_INPUT,
            sim=SimSettings(x0=2.0, t_s=1.0, duration=2.0, theta=ZERO_THETA, n_truth=4),
            weights=CostWeights(q_c=2.0, r_c=3.0, m_steps=2, raw_state=raw),
        )
        first = result.records[0]
        assert first.u == 0.0
        assert first.j_running == expected

    def test_prediction_divergence_before_record(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        steps = sc.sim.steps
        bad = PredictorConfig(delta=sc.predictor.delta, gamma=0.9, horizon=10)
        with pytest.raises(SimulationDiverged) as excinfo:
            run_closed_loop(
                dynamics=tank_dynamics(sc.plant),
                predictor_cfg=bad,
                control_cfg=sc.controller,
                loss_model=LossModel([0] * steps),
                strategy=PREDICTIVE_BUFFER,
                sim=sc.sim,
                weights=sc.cost,
            )
        # the leading loss replays entry 0, controller(x0); the next one
        # predicts entry 1, which leaves the domain
        err = excinfo.value
        assert err.step == 1
        assert len(err.records) == 1
        assert err.reason == "prediction left the domain after 1 entries"

    def test_unreplayed_plan_does_not_diverge(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict)
        steps = sc.sim.steps
        bad = PredictorConfig(delta=sc.predictor.delta, gamma=0.9, horizon=10)

        def run(loss_model):
            return run_closed_loop(
                dynamics=tank_dynamics(sc.plant),
                predictor_cfg=bad,
                control_cfg=sc.controller,
                loss_model=loss_model,
                strategy=PREDICTIVE_BUFFER,
                sim=sc.sim,
                weights=sc.cost,
            )

        assert len(run(LossModel(itertools.repeat(1))).records) == steps
        with pytest.raises(SimulationDiverged) as excinfo:
            run(LossModel([1] + [0] * (steps - 1)))
        err = excinfo.value
        assert err.step == 1
        assert len(err.records) == 1
        assert err.reason == "prediction left the domain after 1 entries"

    def test_truth_domain_exit_text(self, small_scenario_dict):
        # theta jumps on the substep start t = 61 inside interval 30
        sc = small_scenario(small_scenario_dict, {"sim.theta": [[0.0, 0.175], [61.0, 2.0]]})
        with pytest.raises(SimulationDiverged) as excinfo:
            run_scenario(sc, PREDICTIVE_BUFFER)
        err = excinfo.value
        assert err.step == 30
        assert len(err.records) == 31
        assert err.reason == "stage 2 state 202433.75963201388 left the domain"

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=1), min_size=60, max_size=60),
        doubled=st.booleans(),
        steps_per_input=st.sampled_from([1, 2]),
    )
    def test_lazy_plan_matches_eager_reference(
        self, small_scenario_dict, bits, doubled, steps_per_input
    ):
        # the loop derives its predictor steps from delta = t_s / steps_per_input;
        # gamma = theta * delta / vol as in tank-reference
        t_s, theta, vol = 2.0, 0.175, 2.0
        delta = t_s / steps_per_input
        sc = small_scenario(small_scenario_dict, {
            "sim.doubled_age_offset": doubled,
            "predictor.delta": delta,
            "predictor.gamma": theta * delta / vol,
        })
        assert (sc.sim.t_s, sc.sim.theta.values[0], sc.plant.vol) == (t_s, theta, vol)
        expected_records, expected_x = eager_reference(sc, bits, steps_per_input)
        predicted = []

        def counting_extend(*args):
            assert args[-1] == steps_per_input
            states = args[4]
            before = len(states)
            extend_plan(*args)
            predicted.append(len(states) - before)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ncsim.runtime, "extend_plan", counting_extend)
            result = run_closed_loop(
                dynamics=tank_dynamics(sc.plant),
                predictor_cfg=sc.predictor,
                control_cfg=sc.controller,
                loss_model=LossModel(bits),
                strategy=PREDICTIVE_BUFFER,
                sim=sc.sim,
                weights=sc.cost,
            )
        assert list(result.records) == expected_records
        assert result.x_final == expected_x
        # each burst predicts the entries up to the furthest one it replays
        offsets = replayed_offsets(bits, sc.predictor.horizon, doubled)
        bursts = itertools.groupby(offsets, key=lambda offset: offset is None)
        assert sum(predicted) == sum(max(burst) for received, burst in bursts if not received)

    @settings(max_examples=200, deadline=None)
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
        still = SystemDynamics(
            drift=lambda x: 0.0, input_gain=lambda x: 0.0, uncertainty_gain=lambda x: 0.0,
            state_domain=(0.0, 1.2),
        )

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
            )

        offsets = replayed_offsets(bits, horizon, doubled)
        exits = [k for k, offset in enumerate(offsets) if offset is not None and offset >= j]
        if not exits:
            assert len(run().records) == len(bits)
            return
        with pytest.raises(SimulationDiverged) as excinfo:
            run()
        err = excinfo.value
        assert err.step == exits[0]
        assert len(err.records) == exits[0]
        assert err.reason == f"prediction left the domain after {j} entries"

    def test_truth_divergence_after_record(self):
        runaway = SystemDynamics(
            drift=lambda x: 100.0,
            input_gain=lambda x: 0.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=(0.0, 10.0),
        )
        with pytest.raises(SimulationDiverged) as excinfo:
            run_closed_loop(
                dynamics=runaway,
                predictor_cfg=PredictorConfig(delta=1.0, gamma=0.0, horizon=5),
                control_cfg=ControllerConfig(setpoint=5.0),
                loss_model=LossModel(itertools.repeat(1)),
                strategy=ZERO_INPUT,
                sim=SimSettings(x0=5.0, t_s=1.0, duration=3.0, theta=ZERO_THETA, n_truth=1),
                weights=CostWeights(q_c=1.0, r_c=1.0, m_steps=1),
            )
        err = excinfo.value
        assert err.step == 0
        assert len(err.records) == 1
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
            )

    def test_repeat_run_is_deterministic(self, small_scenario_dict):
        sc = small_scenario(
            small_scenario_dict, {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 4}}
        )
        first = run_scenario(sc, PREDICTIVE_BUFFER)
        second = run_scenario(sc, PREDICTIVE_BUFFER)
        assert first.records == second.records
        assert first.x_final == second.x_final

    @settings(max_examples=40, deadline=None)
    @given(bits=st.lists(st.integers(min_value=0, max_value=1), min_size=12, max_size=12))
    def test_buffer_age_invariants(self, bits):
        doc_loss = LossModel(bits)
        doc = builtin_scenario_dict("tank-reference")
        doc["sim"]["duration"] = 24.0
        doc["sim"]["n_truth"] = 5
        doc["cost"]["m_steps"] = 12
        sc = scenario_from_dict(doc)
        result = run_closed_loop(
            dynamics=tank_dynamics(sc.plant),
            predictor_cfg=sc.predictor,
            control_cfg=sc.controller,
            loss_model=doc_loss,
            strategy=PREDICTIVE_BUFFER,
            sim=sc.sim,
            weights=sc.cost,
        )
        for rec in result.records:
            if rec.s == 1:
                assert rec.i == 0
            assert 0 <= rec.i <= sc.predictor.horizon


def first_interval_cost(x0, setpoint, received=True, u_min=0.0, raw_state=False):
    """Running cost after one interval of a two-interval run on xdot = -x + u."""
    weights = CostWeights(1.0, 1.0, 1, raw_state=raw_state)
    result = run_closed_loop(
        dynamics=linear_decay_dynamics(),
        predictor_cfg=PredictorConfig(delta=1.0, gamma=0.0, horizon=5),
        control_cfg=ControllerConfig(setpoint=setpoint, u_min=u_min, u_max=u_min + 1.0),
        loss_model=LossModel([1 if received else 0, 1]),
        strategy=ZERO_INPUT,
        sim=SimSettings(x0=x0, t_s=1.0, duration=2.0, theta=ZERO_THETA, n_truth=1),
        weights=weights,
    )
    return result.cost(weights), result.records


class TestEvaluateCost:
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
            with pytest.raises(SimulationDiverged) as excinfo:
                run_scenario(sc, strategy)
            err = excinfo.value
            assert err.reason.startswith("running cost became non-finite")
            # the records stop before the step whose cost overflowed
            assert len(err.records) == err.step
            assert all(math.isfinite(r.j_running) for r in err.records)

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
        run = run_scenario(sc, HOLD_LAST_VALUE, seed=6)
        total = stage_cost_sum(run.records, sc.cost, sc.controller.setpoint)
        assert result.costs[HOLD_LAST_VALUE][6] == total

    @pytest.mark.parametrize("m_steps", [1, 7, 59])
    def test_cell_cost_stops_at_m_steps(self, small_scenario_dict, m_steps):
        sc = small_scenario(
            small_scenario_dict,
            {"loss": {"kind": "bernoulli", "p": 0.3, "seed": 5}, "cost.m_steps": m_steps},
        )
        result = compare_strategies(sc, strategies=(PREDICTIVE_BUFFER,), n_seeds=2)
        for seed in result.seeds:
            run = run_scenario(sc, PREDICTIVE_BUFFER, seed=seed)
            records = run.records
            assert len(records) == 60
            cost = result.costs[PREDICTIVE_BUFFER][seed]
            assert cost == run.cost(sc.cost) == records[m_steps - 1].j_running
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
                LossModel(itertools.repeat(1)), "nope", sc.sim, sc.cost,
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
    if tuple(rows[0]) != TRACE_HEADER:
        raise ValueError(f"unexpected trace header {rows[0]!r}")
    records = []
    for row in rows[1:]:
        if len(row) != len(TRACE_HEADER):
            raise ValueError(f"bad trace row {row!r}")
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
            result = run_scenario(sc, strategy)
            path = tmp_path / f"{strategy}.csv"
            write_records(result.records, str(path))
            assert read_records(str(path)) == list(result.records)

    def test_header_line_is_frozen(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_records([make_record()], str(path))
        first_line = path.read_text().splitlines()[0]
        assert first_line == "k,t,x_true,x_pred,s,i,u,J_running"
        assert tuple(first_line.split(",")) == TRACE_HEADER

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,t,x\n")
        with pytest.raises(ValueError):
            read_records(str(path))

    def test_rejects_short_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("k,t,x_true,x_pred,s,i,u,J_running\n0,0.0,1.0\n")
        with pytest.raises(ValueError):
            read_records(str(path))

    def test_write_is_byte_stable(self, small_scenario_dict, tmp_path):
        sc = small_scenario(small_scenario_dict)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_records(run_scenario(sc, PREDICTIVE_BUFFER).records, str(a))
        write_records(run_scenario(sc, PREDICTIVE_BUFFER).records, str(b))
        assert a.read_bytes() == b.read_bytes()


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

    def test_default_is_a_list_the_result_holds(self, small_scenario_dict):
        sc = self.bursty(small_scenario_dict)
        result = run_scenario(sc, PREDICTIVE_BUFFER)
        assert type(result.records) is list and len(result.records) == 60
        given_list = []
        again = run_scenario(sc, PREDICTIVE_BUFFER, records=given_list)
        assert again.records is given_list
        assert given_list == result.records

    def test_each_record_arrives_before_its_truth_march(self, small_scenario_dict, monkeypatch):
        sc = self.bursty(small_scenario_dict)
        sink = RecordingSink()
        marched = []

        def counting(*args):
            marched.append(len(sink.records))
            return integrate_interval(*args)

        monkeypatch.setattr(ncsim.runtime, "integrate_interval", counting)
        result = run_scenario(sc, PREDICTIVE_BUFFER, records=sink)
        assert result.records is sink
        assert marched == list(range(1, 61))
        assert [r.k for r in sink.records] == list(range(60))

    def test_divergence_carries_the_sink(self, small_scenario_dict):
        sc = small_scenario(small_scenario_dict, {"sim.theta": [[0.0, 0.175], [61.0, 2.0]]})
        sink = RecordingSink()
        with pytest.raises(SimulationDiverged) as excinfo:
            run_scenario(sc, HOLD_LAST_VALUE, records=sink)
        assert excinfo.value.records is sink
        assert len(sink.records) == 31

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_tally_keeps_what_the_list_shows(self, small_scenario_dict, strategy):
        sc = self.bursty(small_scenario_dict)
        records = run_scenario(sc, strategy).records
        tally = RunTally(sc.cost.m_steps)
        assert run_scenario(sc, strategy, records=tally).records is tally
        assert tally.steps == len(records) == 60
        assert tally.loss_count == sum(1 for r in records if r.s == 0) > 0
        assert tally.j_total == records[-1].j_running
        assert tally.j_m_steps == records[6].j_running

    def test_tally_before_m_steps(self):
        tally = RunTally(2)
        assert (tally.steps, tally.loss_count, tally.j_total, tally.j_m_steps) == (0, 0, None, None)
        tally.append(make_record()._replace(s=0))
        assert (tally.steps, tally.loss_count, tally.j_m_steps) == (1, 1, None)


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
                result = run_scenario(sc, strategy)
            except SimulationDiverged:
                continue
            assert math.isfinite(result.cost(sc.cost))
            assert math.isfinite(result.x_final)
