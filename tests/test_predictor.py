import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim import (
    CalibrationRangeError,
    ControlTrajectory,
    DomainError,
    IntegrationDomainError,
    NonFiniteError,
    PredictorConfig,
    SamplePair,
    SystemDynamics,
    TrajectoryError,
    calibrate_gamma_one,
    calibrate_gamma_two,
    mean_squared_error,
    predict_step,
    predict_trajectory,
    read_sample_pairs,
    rk4_increment,
    tank_dynamics,
)
from ncsim.controller import ControllerConfig, sontag_input

from conftest import linear_decay_dynamics, reference_plant


def still_dynamics(domain=(-100.0, 100.0)) -> SystemDynamics:
    return SystemDynamics(
        drift=lambda x: 0.0,
        input_gain=lambda x: 0.0,
        uncertainty_gain=lambda x: 0.0,
        state_domain=domain,
    )


class TestPredictorConfig:
    def test_accepts_valid(self):
        cfg = PredictorConfig(delta=2.0, gamma=-0.999, horizon=1)
        assert cfg.gamma == -0.999

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": -1.0},
            {"gamma": 1.0},
            {"gamma": -1.0},
            {"gamma": 1.5},
            {"horizon": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        base = {"delta": 0.1, "gamma": 0.0, "horizon": 10}
        base.update(kwargs)
        with pytest.raises(ValueError):
            PredictorConfig(**base)


class TestRk4Increment:
    def test_exponential_decay_single_step(self):
        # hand-chained stages: k1=-.1, k2=-.095, k3=-.09525, k4=-.090475
        d = linear_decay_dynamics()
        inc = rk4_increment(d, 1.0, 0.0, 0.1)
        assert inc == pytest.approx(-0.0951625, rel=1e-12)
        assert 1.0 + inc == pytest.approx(0.9048375, rel=1e-12)

    def test_constant_rhs_is_exact(self):
        d = SystemDynamics(
            drift=lambda x: 0.0,
            input_gain=lambda x: 1.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=(-100.0, 100.0),
        )
        # all four stages evaluate to the same slope
        assert rk4_increment(d, 3.0, 2.0, 0.5) == 1.0

    def test_zero_field_returns_zero(self):
        assert rk4_increment(still_dynamics(), 7.0, 123.0, 5.0) == 0.0

    def test_stage_domain_error_carries_stage_index(self):
        d = SystemDynamics(
            drift=lambda x: 10.0 * x,
            input_gain=lambda x: 0.0,
            uncertainty_gain=lambda x: 0.0,
            state_domain=(-1.0, 1.0),
        )
        with pytest.raises(IntegrationDomainError) as excinfo:
            rk4_increment(d, 0.9, 0.0, 1.0)
        # stage 1 is fine at 0.9; stage 2 probes 0.9 + k1/2 = 5.4
        assert excinfo.value.stage == 2
        assert excinfo.value.state == pytest.approx(5.4)

    def test_initial_state_checked(self):
        with pytest.raises(DomainError):
            rk4_increment(still_dynamics(domain=(0.0, 1.0)), 2.0, 0.0, 0.1)


class TestPredictStep:
    def test_correction_formula(self):
        d = still_dynamics()
        cfg = PredictorConfig(delta=1.0, gamma=0.1, horizon=1)
        # zero field: only the multiplicative correction acts
        assert predict_step(cfg, d, 10.0, 0.0) == (1.0 + 0.1) * 10.0

    def test_correction_plus_increment(self):
        d = linear_decay_dynamics()
        cfg = PredictorConfig(delta=0.1, gamma=0.05, horizon=1)
        expected = (1.0 + 0.05) * 2.0 + rk4_increment(d, 2.0, 0.0, 0.1)
        assert predict_step(cfg, d, 2.0, 0.0) == expected

    @given(
        # band chosen so no RK4 stage state can cross a domain boundary
        x=st.floats(min_value=125_000.0, max_value=185_000.0),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_zero_gamma_reduces_to_plain_update(self, x, u):
        d = tank_dynamics(reference_plant())
        cfg = PredictorConfig(delta=2.0, gamma=0.0, horizon=1)
        assert predict_step(cfg, d, x, u) == x + rk4_increment(d, x, u, 2.0)

    def test_corrected_state_must_stay_in_domain(self):
        d = tank_dynamics(reference_plant())
        cfg = PredictorConfig(delta=2.0, gamma=0.5, horizon=1)
        with pytest.raises(DomainError):
            predict_step(cfg, d, 190_000.0, 1.0)


def step_reference(cfg, dynamics, xhat, u):
    """One predictor step written out: the increment, the correction, and
    the corrected-state check."""
    corrected = (1.0 + cfg.gamma) * xhat + rk4_increment(dynamics, xhat, u, cfg.delta)
    dynamics.check_state(corrected)
    return corrected


class TestPredictorMarch:
    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=100_001.0, max_value=199_999.0),
        u=st.floats(min_value=0.0, max_value=1.0),
        gamma=st.floats(min_value=-0.2, max_value=0.2).filter(lambda g: g != 0.0),
        delta=st.sampled_from([0.5, 2.0]),
        steps=st.integers(min_value=2, max_value=6),
    )
    def test_march_is_predict_step_repeated(self, x, u, gamma, delta, steps):
        d = tank_dynamics(reference_plant())
        cfg = PredictorConfig(delta=delta, gamma=gamma, horizon=1)
        try:
            expected = x
            for _ in range(steps):
                expected = step_reference(cfg, d, expected, u)
        except DomainError:
            with pytest.raises(DomainError):
                predict_step(cfg, d, x, u, steps)
            return
        assert predict_step(cfg, d, x, u, steps).hex() == expected.hex()
        repeated = x
        for _ in range(steps):
            repeated = predict_step(cfg, d, repeated, u)
        assert repeated.hex() == expected.hex()

    @pytest.mark.parametrize("x0", [130_000.0, 190_000.0])
    @pytest.mark.parametrize("gamma", [0.03, -0.04, 0.15])  # 0.15 leaves the domain
    @pytest.mark.parametrize("steps_per_input", [2, 3])
    def test_trajectory_with_several_steps_per_input(self, x0, gamma, steps_per_input):
        d = tank_dynamics(reference_plant())
        cfg = PredictorConfig(delta=0.5, gamma=gamma, horizon=8)
        ccfg = ControllerConfig(setpoint=150_000.0)

        def controller(x):
            return sontag_input(d, ccfg, x)

        inputs, states, xhat = [], [x0], x0
        try:
            for j in range(cfg.horizon + 1):
                inputs.append(controller(xhat))
                if j == cfg.horizon:
                    break
                for _ in range(steps_per_input):
                    xhat = step_reference(cfg, d, xhat, inputs[-1])
                states.append(xhat)
        except DomainError:
            assert gamma == 0.15
            with pytest.raises(TrajectoryError) as excinfo:
                predict_trajectory(cfg, d, x0, controller, steps_per_input=steps_per_input)
            assert excinfo.value.inputs == tuple(inputs)
            assert excinfo.value.predicted_states == tuple(states)
            return
        assert gamma != 0.15
        traj = predict_trajectory(cfg, d, x0, controller, steps_per_input=steps_per_input)
        assert traj.inputs == tuple(inputs)
        assert [s.hex() for s in traj.predicted_states] == [s.hex() for s in states]

    def test_zero_steps_leave_the_state(self):
        d = tank_dynamics(reference_plant())
        cfg = PredictorConfig(delta=2.0, gamma=0.1, horizon=1)
        assert predict_step(cfg, d, 150_000.0, 0.5, 0) == 150_000.0
        with pytest.raises(IntegrationDomainError):
            predict_step(cfg, d, 250_000.0, 0.5, 0)

    def test_corrected_state_check_keeps_its_text(self):
        d = still_dynamics(domain=(0.0, 10.0))
        cfg = PredictorConfig(delta=1.0, gamma=0.5, horizon=1)
        # 6 -> 9 stays inside; the second step's 13.5 does not
        with pytest.raises(DomainError) as excinfo:
            predict_step(cfg, d, 6.0, 0.0, 2)
        assert type(excinfo.value) is DomainError
        assert str(excinfo.value) == "state 13.5 outside domain [0.0, 10.0]"


class TestPredictTrajectory:
    def test_zero_field_single_step(self):
        cfg = PredictorConfig(delta=1.0, gamma=0.2, horizon=1)
        traj = predict_trajectory(cfg, still_dynamics(), 10.0, lambda x: 0.0)
        assert traj.inputs == (0.0, 0.0)
        assert traj.predicted_states == (10.0, (1.0 + 0.2) * 10.0)

    def test_constant_controller_everywhere(self):
        cfg = PredictorConfig(delta=0.1, gamma=0.0, horizon=5)
        traj = predict_trajectory(cfg, linear_decay_dynamics(), 1.0, lambda x: 0.3)
        assert traj.inputs == (0.3,) * 6
        assert len(traj.predicted_states) == 6

    def test_controller_sees_the_predicted_states(self):
        cfg = PredictorConfig(delta=0.5, gamma=0.0, horizon=3)
        seen = []

        def controller(x):
            seen.append(x)
            return 0.0

        traj = predict_trajectory(cfg, linear_decay_dynamics(), 4.0, controller)
        assert tuple(seen) == traj.predicted_states

    def test_origin_step_recorded(self):
        cfg = PredictorConfig(delta=1.0, gamma=0.0, horizon=1)
        traj = predict_trajectory(
            cfg, still_dynamics(), 0.0, lambda x: 0.0, origin_step=17
        )
        assert traj.origin_step == 17

    def test_substeps_compose_predict_step(self):
        d = linear_decay_dynamics()
        cfg = PredictorConfig(delta=0.5, gamma=0.01, horizon=2)
        traj = predict_trajectory(cfg, d, 1.0, lambda x: 0.25, steps_per_input=4)
        x = 1.0
        for _ in range(4):
            x = predict_step(cfg, d, x, 0.25)
        assert traj.predicted_states[1] == x

    def test_stationary_at_input_one_equilibrium(self):
        # equal orifice pressure drops make 150 kPa a bitwise fixed point
        # of the fully-open nominal model, so the whole buffer is constant
        d = tank_dynamics(reference_plant())
        ccfg = ControllerConfig(setpoint=150_100.0)
        cfg = PredictorConfig(delta=2.0, gamma=0.0, horizon=10)
        traj = predict_trajectory(cfg, d, 150_000.0, lambda x: sontag_input(d, ccfg, x))
        assert traj.inputs == (1.0,) * 11
        assert traj.predicted_states == (150_000.0,) * 11

    def test_domain_exit_raises_with_valid_prefix(self):
        d = tank_dynamics(reference_plant())
        cfg = PredictorConfig(delta=2.0, gamma=0.3, horizon=10)
        with pytest.raises(TrajectoryError) as excinfo:
            predict_trajectory(cfg, d, 180_000.0, lambda x: 1.0)
        err = excinfo.value
        assert err.valid_length == len(err.inputs)
        assert len(err.predicted_states) == len(err.inputs)
        assert err.predicted_states[0] == 180_000.0
        assert err.valid_length <= 10

    def test_rejects_bad_steps_per_input(self):
        cfg = PredictorConfig(delta=1.0, gamma=0.0, horizon=1)
        with pytest.raises(ValueError):
            predict_trajectory(cfg, still_dynamics(), 0.0, lambda x: 0.0, steps_per_input=0)

    def test_trajectory_lengths_validated(self):
        with pytest.raises(ValueError):
            ControlTrajectory(origin_step=0, inputs=(1.0,), predicted_states=(1.0, 2.0))
        with pytest.raises(ValueError):
            ControlTrajectory(origin_step=0, inputs=(), predicted_states=())


class TestCalibration:
    def test_underestimating_prediction(self):
        # E = 0.25, mean prediction 1, measurements larger -> +0.25
        assert calibrate_gamma_one([1.0, 1.0], [1.5, 1.5]) == 0.25

    def test_perfect_prediction_gives_zero(self):
        assert calibrate_gamma_one([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_overestimating_prediction_is_negative(self):
        assert calibrate_gamma_one([2.0, 2.0], [1.0, 1.0]) == -0.5

    def test_zero_mean_prediction_rejected(self):
        with pytest.raises(ZeroDivisionError):
            calibrate_gamma_one([1.0, -1.0], [1.0, 1.0])

    @pytest.mark.parametrize(
        "predicted,measured,error",
        [
            ([1e200], [-1e200], OverflowError),
            ([1e308], [-1e308], NonFiniteError),
            ([1e308, 1e308], [1e308, 1e308], NonFiniteError),
        ],
    )
    def test_non_finite_statistics_raise(self, predicted, measured, error):
        with pytest.raises(error):
            calibrate_gamma_one(predicted, measured)

    def test_magnitude_one_or_more_raises_with_value(self):
        with pytest.raises(CalibrationRangeError) as excinfo:
            calibrate_gamma_one([0.1, 0.1], [5.0, 5.0])
        assert excinfo.value.gamma == pytest.approx(24.01 / 0.1, rel=1e-12)

    def test_two_recordings_average(self):
        pairs = [
            SamplePair((1.0, 1.0), (1.5, 1.5)),
            SamplePair((3.0, 3.0), (3.1, 3.1)),
        ]
        # per-pair errors 0.25 and 0.01 average to 0.13 over grand mean 2
        assert calibrate_gamma_two(pairs) == pytest.approx(0.065, rel=1e-12)

    def test_two_recordings_empty_rejected(self):
        with pytest.raises(ValueError):
            calibrate_gamma_two([])

    @given(
        values=st.lists(
            st.floats(min_value=1.0, max_value=10.0), min_size=2, max_size=8
        ),
        noise=st.lists(
            st.floats(min_value=-0.3, max_value=0.3), min_size=2, max_size=8
        ),
    )
    def test_sign_matches_mean_comparison(self, values, noise):
        n = min(len(values), len(noise))
        predicted = values[:n]
        measured = [p + e for p, e in zip(predicted, noise[:n])]
        if mean_squared_error(predicted, measured) == 0.0:
            assert calibrate_gamma_one(predicted, measured) == 0.0
            return
        gamma = calibrate_gamma_one(predicted, measured)
        mean_pred = sum(predicted) / n
        mean_meas = sum(measured) / n
        if mean_pred <= mean_meas:
            assert gamma > 0.0
        else:
            assert gamma < 0.0

    @given(
        predicted=st.lists(
            st.floats(min_value=1.0, max_value=10.0), min_size=1, max_size=6
        ),
        noise=st.lists(
            st.floats(min_value=-0.2, max_value=0.2), min_size=1, max_size=6
        ),
    )
    def test_single_pair_collapses_to_method_one(self, predicted, noise):
        n = min(len(predicted), len(noise))
        pred = tuple(predicted[:n])
        meas = tuple(p + e for p, e in zip(pred, noise[:n]))
        pair = SamplePair(pred, meas)
        assert calibrate_gamma_two([pair]) == calibrate_gamma_one(pred, meas)

    def test_error_scaling_is_quadratic(self):
        base = calibrate_gamma_one([4.0, 4.0], [4.1, 4.1])
        scaled = calibrate_gamma_one([4.0, 4.0], [4.3, 4.3])
        # tripled errors scale E, hence gamma, by nine
        assert scaled == pytest.approx(9.0 * base, rel=1e-10)


class TestMeanSquaredError:
    def test_hand_value(self):
        assert mean_squared_error([1.0, 2.0], [1.5, 2.5]) == 0.25

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            mean_squared_error([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mean_squared_error([], [])


class TestSamplePair:
    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            SamplePair((1.0,), (1.0, 2.0))
        with pytest.raises(ValueError):
            SamplePair((), ())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SamplePair((math.nan,), (1.0,))


class TestReadSamplePairs:
    def test_groups_by_pair_id_in_first_seen_order(self, tmp_path):
        path = tmp_path / "samples.csv"
        path.write_text(
            "pair_id,predicted,measured\n"
            "b,1.0,1.5\n"
            "a,3.0,3.1\n"
            "b,1.0,1.5\n"
        )
        pairs = read_sample_pairs(str(path))
        assert len(pairs) == 2
        assert pairs[0].predicted == (1.0, 1.0)
        assert pairs[0].measured == (1.5, 1.5)
        assert pairs[1].predicted == (3.0,)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("predicted,measured\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_sample_pairs(str(path))

    def test_non_numeric_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("pair_id,predicted,measured\na,oops,2.0\n")
        with pytest.raises(ValueError):
            read_sample_pairs(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("pair_id,predicted,measured\n")
        with pytest.raises(ValueError):
            read_sample_pairs(str(path))
