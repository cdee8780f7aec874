import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncsim import (
    DomainError,
    IntegrationDomainError,
    NonFiniteError,
    PredictorConfig,
    SamplePair,
    SystemDynamics,
    calibration,
    gamma_in_range,
    predict_step,
    read_sample_pairs,
    rk4_increment,
    tank_dynamics,
)
from ncsim.controller import ControllerConfig, sontag_feedback

from conftest import (
    linear_decay_dynamics, outcome, reference_march, reference_plan, reference_plant,
    still_dynamics,
)


class TestPredictorConfig:
    def test_accepts_valid(self):
        cfg = PredictorConfig(delta=2.0, gamma=-0.999, horizon=1)
        assert cfg.gamma == -0.999

    @pytest.mark.parametrize(
        "gamma,inside",
        [(0.0, True), (-0.999, True), (math.nextafter(1.0, 0.0), True), (1.0, False),
         (-1.0, False), (math.nan, False), (math.inf, False)],
    )
    def test_config_and_calibration_share_the_gamma_range(self, gamma, inside):
        assert gamma_in_range(gamma) is inside
        if inside:
            assert PredictorConfig(delta=1.0, gamma=gamma, horizon=1).gamma == gamma
            return
        with pytest.raises(ValueError, match=r"^predictor\.gamma must lie in \(-1, 1\), got "):
            PredictorConfig(delta=1.0, gamma=gamma, horizon=1)


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


def chained(cfg, dynamics, plan, controller, steps_per_input=1):
    """Check that each entry of ``plan`` after the first is one
    ``predict_step`` and one feedback on from the last, and that an entry
    the plan cannot reach holds the error ``predict_step`` raises there as
    its cause.  True if the plan reaches all ``horizon + 1`` entries."""
    assert len(plan) == cfg.horizon + 1
    xhat, u = plan[0]
    for entry in plan[1:]:
        if isinstance(entry, DomainError):
            # the predictor's own error, which the loop reports by its entry
            stop = entry.__cause__
            assert outcome(predict_step, cfg, dynamics, xhat, u, steps_per_input) == (
                type(stop), str(stop)
            )
            return False
        xhat = predict_step(cfg, dynamics, xhat, u, steps_per_input)
        u = controller(xhat)
        assert (xhat.hex(), u) == (entry[0].hex(), entry[1])
    return True


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
        expected = outcome(
            lambda: reference_march(d, x, u, delta, 0.0, steps, 1.0 + gamma, d.check_state)[0]
        )
        assert outcome(predict_step, cfg, d, x, u, steps) == expected

        def repeated():
            xs = x
            for _ in range(steps):
                xs = predict_step(cfg, d, xs, u)
            return xs

        assert outcome(repeated) == expected

    @pytest.mark.parametrize("x0", [130_000.0, 190_000.0])
    @pytest.mark.parametrize("gamma", [0.03, -0.04, 0.15])  # 0.15 leaves the domain
    @pytest.mark.parametrize("steps_per_input", [2, 3])
    def test_trajectory_with_several_steps_per_input(self, x0, gamma, steps_per_input):
        d = tank_dynamics(reference_plant())
        cfg = PredictorConfig(delta=0.5, gamma=gamma, horizon=8)
        controller = sontag_feedback(d, ControllerConfig(setpoint=150_000.0))
        plan = reference_plan(cfg, d, x0, controller, steps_per_input)
        assert chained(cfg, d, plan, controller, steps_per_input) == (gamma != 0.15)

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


class TestFullPlan:
    """The full plan: all ``horizon + 1`` entries from entry 0, each one
    ``predict_step`` and one feedback on from the last, as ``reference_plan``
    builds it."""

    def test_zero_field_single_step(self):
        d = still_dynamics()
        cfg = PredictorConfig(delta=1.0, gamma=0.2, horizon=1)
        plan = reference_plan(cfg, d, 10.0, lambda x: 0.0)
        assert chained(cfg, d, plan, lambda x: 0.0)
        assert plan == [(10.0, 0.0), ((1.0 + 0.2) * 10.0, 0.0)]

    def test_constant_controller_everywhere(self):
        d = linear_decay_dynamics()
        cfg = PredictorConfig(delta=0.1, gamma=0.0, horizon=5)
        plan = reference_plan(cfg, d, 1.0, lambda x: 0.3)
        assert chained(cfg, d, plan, lambda x: 0.3)
        assert len(plan) == 6
        assert [u for _, u in plan] == [0.3] * 6

    def test_controller_sees_the_predicted_states(self):
        d = linear_decay_dynamics()
        cfg = PredictorConfig(delta=0.5, gamma=0.0, horizon=3)
        seen = []

        def controller(x):
            seen.append(x)
            return 0.0

        plan = reference_plan(cfg, d, 4.0, controller)
        assert seen == [x for x, _ in plan]
        assert chained(cfg, d, plan, lambda x: 0.0)

    def test_substeps_compose_predict_step(self):
        d = linear_decay_dynamics()
        cfg = PredictorConfig(delta=0.5, gamma=0.01, horizon=2)
        plan = reference_plan(cfg, d, 1.0, lambda x: 0.25, steps_per_input=4)
        assert chained(cfg, d, plan, lambda x: 0.25, steps_per_input=4)
        x = 1.0
        for _ in range(4):
            x = predict_step(cfg, d, x, 0.25)
        assert plan[1][0] == x

    def test_stationary_at_input_one_equilibrium(self):
        # equal orifice pressure drops make 150 kPa a bitwise fixed point
        # of the fully-open nominal model, so the whole buffer is constant
        d = tank_dynamics(reference_plant())
        controller = sontag_feedback(d, ControllerConfig(setpoint=150_100.0))
        cfg = PredictorConfig(delta=2.0, gamma=0.0, horizon=10)
        plan = reference_plan(cfg, d, 150_000.0, controller)
        assert chained(cfg, d, plan, controller)
        assert plan == [(150_000.0, 1.0)] * 11


def gamma_one(predicted, measured):
    """The single-recording method's correction factor, range unchecked."""
    return calibration([(predicted, measured)])[3]


class TestCalibration:
    def test_underestimating_prediction(self):
        # E = 0.25, mean prediction 1, measurements larger -> +0.25
        assert gamma_one([1.0, 1.0], [1.5, 1.5]) == 0.25

    def test_perfect_prediction_gives_zero(self):
        assert gamma_one([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_overestimating_prediction_is_negative(self):
        assert gamma_one([2.0, 2.0], [1.0, 1.0]) == -0.5

    def test_zero_mean_prediction_rejected(self):
        with pytest.raises(ZeroDivisionError):
            gamma_one([1.0, -1.0], [1.0, 1.0])

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
            gamma_one(predicted, measured)

    def test_magnitude_one_or_more_is_out_of_range(self):
        gamma = gamma_one([0.1, 0.1], [5.0, 5.0])
        assert not gamma_in_range(gamma)
        assert gamma == pytest.approx(24.01 / 0.1, rel=1e-12)

    def test_two_recordings_average(self):
        pairs = [
            SamplePair((1.0, 1.0), (1.5, 1.5)),
            SamplePair((3.0, 3.0), (3.1, 3.1)),
        ]
        # per-pair errors 0.25 and 0.01 average to 0.13 over grand mean 2
        assert calibration(pairs)[3] == pytest.approx(0.065, rel=1e-12)

    def test_two_recordings_empty_rejected(self):
        with pytest.raises(ValueError):
            calibration([])

    @pytest.mark.parametrize(
        "predicted,measured,message",
        [
            ([1.0], [1.0, 2.0], "equally sized and non-empty"),
            ([1.0, math.nan], [1.0, 2.0], "samples must be finite"),
        ],
    )
    def test_raw_recording_is_checked_as_a_sample_pair(self, predicted, measured, message):
        with pytest.raises(ValueError, match=message):
            calibration([(predicted, measured)])

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
        e_values, _, _, gamma = calibration([(predicted, measured)])
        if e_values[0] == 0.0:
            assert gamma == 0.0
            return
        assert gamma_in_range(gamma)
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
        assert calibration([pair]) == calibration([(pred, meas)])

    def test_error_scaling_is_quadratic(self):
        base = gamma_one([4.0, 4.0], [4.1, 4.1])
        scaled = gamma_one([4.0, 4.0], [4.3, 4.3])
        # tripled errors scale E, hence gamma, by nine
        assert scaled == pytest.approx(9.0 * base, rel=1e-10)


class TestPerRecordingError:
    def test_hand_value(self):
        assert calibration([([1.0, 2.0], [1.5, 2.5])])[0] == [0.25]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            calibration([([1.0], [1.0, 2.0])])
        with pytest.raises(ValueError):
            calibration([([], [])])


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
