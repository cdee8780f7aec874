"""End-to-end gate over the package's numeric guarantees.

Each test pins one externally visible property at its stated tolerance:
integrator accuracy and order, correction-off equivalence, calibration
identities, feedback decrease, loss-free regulation, the payoff of
dropout compensation, byte-level determinism, and the buffer age law.
Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line
per property.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from ncsim.cli import main
from ncsim.controller import ControllerConfig, closed_loop_vdot, lie_derivatives
from ncsim.errors import CalibrationRangeError, DomainError
from ncsim.losses import LossModel
from ncsim.plant import SystemDynamics, tank_dynamics
from ncsim.predictor import (
    PredictorConfig,
    SamplePair,
    calibrate_gamma_one,
    calibrate_gamma_two,
    predict_step,
    rk4_increment,
)
from ncsim.runtime import (
    HOLD_LAST_VALUE,
    PREDICTIVE_BUFFER,
    compare_strategies,
    run_closed_loop,
    run_scenario,
)
from ncsim.scenario import (
    apply_overrides, builtin_scenario, builtin_scenario_dict, scenario_from_dict,
)


def reference(*overrides):
    doc = apply_overrides(builtin_scenario_dict("tank-reference"), list(overrides))
    return scenario_from_dict(doc)


def benchmark_tank():
    return tank_dynamics(builtin_scenario("tank-reference").plant)


def test_integrator_accuracy_and_order():
    decay = SystemDynamics(
        drift=lambda x: -x,
        input_gain=lambda x: 0.0,
        uncertainty_gain=lambda x: 0.0,
        state_domain=(-1.0e12, 1.0e12),
    )

    def march(steps: int, delta: float) -> float:
        x = 1.0
        for _ in range(steps):
            x += rk4_increment(decay, x, 0.0, delta)
        return x

    def discrete_solution(steps: int, delta: float) -> float:
        # On dx/dt = -x one classical RK4 step multiplies x by the stability
        # polynomial R(h) = 1 - h + h^2/2 - h^3/6 + h^4/24, so the exact
        # discrete solution from x = 1 is R(h)^N, evaluated here in exact
        # rationals at the binary value of the step actually taken.
        h = Fraction(delta)
        growth = 1 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        return float(growth**steps)

    start = time.perf_counter()
    full = march(10, 0.1)
    halved = march(20, 0.05)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    # Accuracy: the marched value must be R(h)^N to a few dozen ulps.  A
    # stage coefficient or weight off by 1e-7 misses this by 6e-10 or more.
    # Truncation: for 0 < h < 1 the Taylor tail of e^-h alternates with
    # shrinking terms, so 0 < R(h) - e^-h < h^5/120; with R(h) and e^-h both
    # in (0, 1), telescoping R^N - e^-Nh gives |R^N - e^-Nh| < N*h^5/120.
    # This replaces an earlier |x - e^-1| < 1e-7 at h = 0.1, which no
    # classical RK4 meets: its exact error there is 3.3324e-7.
    errors = []
    for marched, steps, delta in ((full, 10, 0.1), (halved, 20, 0.05)):
        exact = discrete_solution(steps, delta)
        err = abs(marched - math.exp(-1.0))
        bound = steps * delta**5 / 120.0
        detail = (
            f"{steps} steps of {delta}: marched {marched!r}, exact R(h)^N "
            f"{exact!r}, error vs R(h)^N {abs(marched - exact)!r}, error vs "
            f"e^-1 {err!r} (bound N*h^5/120 = {bound!r})"
        )
        assert math.isclose(marched, exact, rel_tol=0.0, abs_tol=1e-14), detail
        assert err <= bound, detail
        errors.append(err)

    err_full, err_half = errors
    assert err_full / err_half >= 14.0, (
        f"halving the step cut the error only {err_full / err_half:.2f}x "
        f"({err_full!r} -> {err_half!r}); fourth order gives about 16x"
    )


def test_correction_off_is_the_plain_update():
    tank = benchmark_tank()
    cfg = PredictorConfig(delta=2.0, gamma=0.0, horizon=10)
    rng = random.Random(12345)
    lo, hi = tank.state_domain
    compared = 0
    for _ in range(10_000):
        x = rng.uniform(lo, hi)
        u = rng.uniform(0.0, 1.0)
        try:
            plain = x + rk4_increment(tank, x, u, cfg.delta)
            tank.check_state(plain)
        except DomainError:
            # near a boundary the stage probes can escape; then both
            # formulations must refuse identically
            with pytest.raises(DomainError):
                predict_step(cfg, tank, x, u)
            continue
        assert predict_step(cfg, tank, x, u) == plain
        compared += 1
    assert compared > 9_000


def test_calibration_identities():
    assert calibrate_gamma_one([1.0, 1.0], [1.5, 1.5]) == 0.25

    def gamma_one(predicted, measured):
        try:
            return calibrate_gamma_one(predicted, measured)
        except CalibrationRangeError as exc:
            return exc.gamma

    rng = random.Random(7)
    for _ in range(1_000):
        n = rng.randint(1, 6)
        predicted = [rng.uniform(0.5, 10.0) for _ in range(n)]
        measured = [rng.uniform(0.5, 10.0) for _ in range(n)]
        gamma = gamma_one(predicted, measured)
        zeta = 1.0 if sum(predicted) / n <= sum(measured) / n else -1.0
        if gamma != 0.0:
            assert math.copysign(1.0, gamma) == zeta

    for _ in range(100):
        n = rng.randint(1, 6)
        pair = SamplePair(
            predicted=tuple(rng.uniform(0.5, 10.0) for _ in range(n)),
            measured=tuple(rng.uniform(0.5, 10.0) for _ in range(n)),
        )
        try:
            collapsed = calibrate_gamma_two([pair])
        except CalibrationRangeError as exc:
            collapsed = exc.gamma
        assert collapsed == gamma_one(list(pair.predicted), list(pair.measured))


def test_feedback_decrease_across_the_pressure_range():
    sc = reference()
    tank = tank_dynamics(sc.plant)
    params = sc.plant
    at_setpoint = sc.controller
    unbounded = ControllerConfig(at_setpoint.setpoint, u_min=-math.inf, u_max=math.inf)
    lo, hi = tank.state_domain
    cell = (hi - lo) / 1_000

    c_out = params.alpha2 * params.a2 * params.m2 / params.vol
    c_in = params.alpha1 * params.a1 / params.vol

    for i in range(1_000):
        x = lo + (i + 0.5) * cell
        lfv, lgv = lie_derivatives(tank, at_setpoint, x)
        assert abs(lgv) > unbounded.lgv_threshold
        target = -math.sqrt(lfv * lfv + lgv ** 4)
        vdot = closed_loop_vdot(tank, unbounded, x)
        assert vdot < 0.0
        assert abs(vdot - target) <= 1e-9 * abs(target)

        # with V centered on zero the Lie derivatives have short closed
        # forms in the tank parameters
        grad = 2.0 * x
        drain = -c_out * x * math.sqrt(2.0 * (x - params.p2) / params.rho)
        feed = c_in * x * math.sqrt(2.0 * (params.p1 - x) / params.rho)
        lfv0 = grad * tank.drift(x)
        lgv0 = grad * tank.input_gain(x)
        assert abs(lfv0 - grad * drain) <= 1e-12 * abs(grad * drain)
        assert abs(lgv0 - grad * feed) <= 1e-12 * abs(grad * feed)


def test_loss_free_regulation_reaches_the_setpoint():
    sc = reference("sim.theta=0")
    start = time.perf_counter()
    result = run_scenario(sc, PREDICTIVE_BUFFER)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    deviations = [abs(r.x_true - sc.controller.setpoint) for r in result.records]
    deviations.append(abs(result.x_final - sc.controller.setpoint))
    initial = abs(sc.sim.x0 - sc.controller.setpoint)
    assert deviations[-1] < 0.01 * initial
    assert all(late <= early for early, late in zip(deviations, deviations[1:]))


def test_compensation_beats_holding_under_dropouts():
    sc = reference('loss={"kind": "bernoulli", "p": 0.3, "seed": 42}')
    start = time.perf_counter()
    result = compare_strategies(
        sc, strategies=(PREDICTIVE_BUFFER, HOLD_LAST_VALUE), n_seeds=50
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0

    assert result.diverged_count(PREDICTIVE_BUFFER) == 0
    assert result.diverged_count(HOLD_LAST_VALUE) == 0
    assert result.median_cost(PREDICTIVE_BUFFER) < result.median_cost(HOLD_LAST_VALUE)
    assert result.count_wins(PREDICTIVE_BUFFER, HOLD_LAST_VALUE) >= 30


def test_byte_identical_runs_and_fanout(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run = ["run", "tank-reference", "--loss", "bernoulli:0.3"]
    assert main(run + ["--out", str(out_a)]) == 0
    assert main(run + ["--out", str(out_b)]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    fan_a, fan_b = tmp_path / "c1", tmp_path / "c2"
    fan = [
        "compare",
        "tank-reference",
        "--loss",
        "bernoulli:0.3",
        "--strategies",
        "predictive-buffer,hold-last-value",
        "--seeds",
        "3",
    ]
    assert main(fan + ["--workers", "1", "--out", str(fan_a)]) == 0
    assert main(fan + ["--workers", "2", "--out", str(fan_b)]) == 0
    assert (fan_a / "comparison.csv").read_bytes() == (fan_b / "comparison.csv").read_bytes()


def test_buffer_age_law_under_adversarial_dropouts():
    sc = reference("sim.duration=240", "cost.m_steps=120")
    steps = sc.sim.steps
    horizon = sc.predictor.horizon
    rng = random.Random(3)
    patterns = [
        [0] * steps,
        [1] + [0] * (steps - 1),
        [1, 0] * (steps // 2),
        ([1] * 3 + [0] * 9) * (steps // 12),
        [rng.randint(0, 1) for _ in range(steps)],
    ]
    for bits in patterns:
        result = run_closed_loop(
            tank_dynamics(sc.plant),
            sc.predictor,
            sc.controller,
            LossModel(bits),
            PREDICTIVE_BUFFER,
            sc.sim,
            sc.cost,
        )
        assert len(result.records) == steps
        for record in result.records:
            assert record.s in (0, 1)
            if record.s == 1:
                assert record.i == 0
            assert 0 <= record.i <= horizon
        if not any(bits):
            assert max(record.i for record in result.records) == horizon
