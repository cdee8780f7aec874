import errno
import math
import os
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncsim import (
    DomainError,
    NonFiniteError,
    PredictorConfig,
    SamplePair,
    calibration,
    predict_step,
    tank_dynamics,
)
from ncsim.controller import ControllerConfig, sontag_feedback

from conftest import (
    linear_decay_dynamics, outcome, reference_plan, reference_plant, still_dynamics,
)


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

    @pytest.mark.parametrize("x0", [130_000.0, 190_000.0])
    @pytest.mark.parametrize("gamma", [0.03, -0.04, 0.15])  # 0.15 leaves the domain
    @pytest.mark.parametrize("steps_per_input", [2, 3])
    def test_trajectory_with_several_steps_per_input(self, x0, gamma, steps_per_input):
        d = tank_dynamics(reference_plant())
        cfg = PredictorConfig(delta=0.5, gamma=gamma, horizon=8)
        controller = sontag_feedback(d, ControllerConfig(setpoint=150_000.0))
        plan = reference_plan(cfg, d, x0, controller, steps_per_input)
        assert chained(cfg, d, plan, controller, steps_per_input) == (gamma != 0.15)


class Calibration(NamedTuple):
    """One row of ``CALIBRATIONS``: recordings of (predicted, measured)
    states and what ``calibration`` makes of them, ``(e_values, e, zeta,
    gamma)`` or the type and text of its error (None: only the rules
    ``check_calibration`` holds every row to)."""

    id: str
    recordings: list
    result: tuple = None


EQUAL_SIZES = (ValueError, "predicted and measured must be equally sized and non-empty")

# Every set of recordings the tests build by hand, one row each.
CALIBRATIONS = [
    # E = 0.25 over the mean prediction 1, the measurements larger: +0.25
    Calibration("under", [([1.0, 1.0], [1.5, 1.5])], ([0.25], 0.25, 1, 0.25)),
    Calibration("perfect", [([2.0, 3.0], [2.0, 3.0])], ([0.0], 0.0, 1, 0.0)),
    Calibration("over", [([2.0, 2.0], [1.0, 1.0])], ([1.0], 1.0, -1, -0.5)),
    # equal grand means count as under-prediction: E = 0.25 over 2
    Calibration("tie", [([1.0, 3.0], [1.5, 2.5])], ([0.25], 0.25, 1, 0.125)),
    Calibration("out-of-range", [([0.1, 0.1], [5.0, 5.0])],
                ([24.010000000000005], 24.010000000000005, 1, 240.10000000000005)),
    # per-recording errors 0.25 and 0.01 average to 0.13 over the grand mean 2
    Calibration("two", [([1.0, 1.0], [1.5, 1.5]), ([3.0, 3.0], [3.1, 3.1])],
                ([0.25, 0.010000000000000018], 0.13, 1, 0.065)),
    # tripled errors scale E (0.01 and 0.09, rounded), hence gamma, by nine
    *[Calibration(f"error-{error}", [([4.0, 4.0], [4.0 + error] * 2)], ([e], e, 1, gamma))
      for error, e, gamma in ((0.1, 0.009999999999999929, 0.0024999999999999823),
                              (0.3, 0.0899999999999999, 0.022499999999999975))],
    Calibration("none", [], (ValueError, "at least one sample pair is required")),
    Calibration("zero-mean", [([1.0, -1.0], [1.0, 1.0])],
                (ZeroDivisionError, "mean predicted state is zero")),
    # x ** 2 raises past float range, where x * x gives inf
    Calibration("square-overflow", [([1e200], [-1e200])],
                (OverflowError, str((errno.ERANGE, os.strerror(errno.ERANGE))))),
    Calibration("infinite", [([1e308], [-1e308])],
                (NonFiniteError, "E inf, grand means 1e+308, -1e+308, gamma -inf")),
    Calibration("infinite-means", [([1e308, 1e308], [1e308, 1e308])],
                (NonFiniteError, "E 0.0, grand means inf, inf, gamma 0.0")),
    Calibration("sizes", [([1.0], [1.0, 2.0])], EQUAL_SIZES),
    Calibration("empty", [([], [])], EQUAL_SIZES),
    Calibration("nan", [([1.0, math.nan], [1.0, 2.0])], (ValueError, "samples must be finite")),
]


def check_calibration(row):
    """Hold ``calibration`` on the row's recordings, raw and as
    ``SamplePair`` records, to the row's result; and a result to its rules:
    E the mean of the errors, and gamma = zeta E / the grand mean
    prediction, zeta +1 exactly where that is at most the grand mean
    measurement."""
    def paired():
        return calibration([SamplePair(tuple(p), tuple(m)) for p, m in row.recordings])

    try:
        got = calibration(row.recordings)
    except Exception as exc:
        got = (type(exc), str(exc))
        assert outcome(paired) == got
    else:
        assert paired() == got
        e_values, e, zeta, gamma = got
        means = [[sum(v) / len(v) for v in pair] for pair in row.recordings]
        pred, meas = (sum(column) / len(means) for column in zip(*means))
        assert (e, zeta, gamma) == (sum(e_values) / len(e_values), 1 if pred <= meas else -1,
                                    zeta * e / pred)
    assert row.result is None or got == row.result


@pytest.mark.parametrize("row", CALIBRATIONS, ids=[row.id for row in CALIBRATIONS])
def test_calibration(row):
    check_calibration(row)


@given(recordings=st.lists(st.lists(
    st.tuples(st.floats(1.0, 10.0), st.floats(-0.3, 0.3)), min_size=1, max_size=8,
).map(lambda pairs: ([p for p, _ in pairs], [p + e for p, e in pairs])), min_size=1, max_size=3))
def test_drawn_calibration(recordings):
    check_calibration(Calibration("drawn", recordings))
