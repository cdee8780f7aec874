import functools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import settings
from hypothesis import strategies as st

import ncsim
from ncsim import (
    ControllerOverflowError,
    DomainError,
    IntegrationDomainError,
    NonFiniteError,
    PREDICTIVE_BUFFER,
    SimulationRecord,
    SystemDynamics,
    TankParams,
    ZERO_INPUT,
    builtin_scenario,
    builtin_scenario_dict,
    tank_dynamics,
)

WIDE = (-1.0e12, 1.0e12)

# A longer search than the default 100 examples, loaded only on request:
#   python -m pytest tests/test_cli.py -k Fuzz --hypothesis-profile=deep
# CI runs it on the command-line fuzz and on the reference-run and
# plan-divergence tests of tests/test_runtime.py.
settings.register_profile("deep", max_examples=2000, deadline=None)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ncsim.__file__)))


def run_fresh(argv, env=os.environ, **kwargs):
    """``python -m ncsim *argv`` in a fresh interpreter that imports this
    ``ncsim``: ``subprocess.run`` with ``kwargs``, under ``env`` with
    ``PYTHONPATH`` set to the source tree."""
    return subprocess.run(
        [sys.executable, "-m", "ncsim", *argv], env=dict(env, PYTHONPATH=SRC), **kwargs
    )


def lie(dynamics, setpoint, x):
    """``(LfV, LgV)`` at ``x`` for V = (x - setpoint)^2, whose gradient is
    2 (x - setpoint)."""
    grad = 2.0 * (x - setpoint)
    return grad * dynamics.drift(x), grad * dynamics.input_gain(x)


def reference_feedback(dynamics, cfg, x):
    """The feedback written out as its two steps, the Lie derivatives at
    ``x`` and the saturated formula on them, reading every gain and
    setting at each call."""
    dynamics.check_state(x)
    lfv, lgv = lie(dynamics, cfg.setpoint, x)
    if abs(lgv) <= cfg.lgv_threshold:
        return 0.0
    try:
        u = -(lfv + math.sqrt(lfv * lfv + lgv ** 4)) / lgv
    except OverflowError:
        u = math.inf
    if not math.isfinite(u):
        raise ControllerOverflowError(f"feedback overflowed at LfV={lfv!r}, LgV={lgv!r}")
    return min(max(u, cfg.u_min), cfg.u_max)


def reference_march(dynamics, x, u, h, theta, n=1, scale=1.0, fail=lambda x, left: None):
    """``(x, dx)`` after ``n`` classical RK4 steps x <- scale*x + dx of
    f(x) + g(x)*u + w(x)*theta, u and theta held, with the kernel's errors:
    a step ``h`` that is not positive raises its ``ValueError``, and a
    start or stage state outside the domain its ``IntegrationDomainError``.
    An end state outside it goes to ``fail(x, left)``, ``left`` the steps
    still to take."""
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h!r}")
    f, g, w = dynamics.drift, dynamics.input_gain, dynamics.uncertainty_gain
    lo, hi = dynamics.state_domain

    def inside(stage, xs):
        if not lo <= xs <= hi:
            message = f"stage {stage} state {xs!r} left the domain"
            raise IntegrationDomainError(message, stage=stage, state=xs)
        return xs

    def slope(stage, xs):
        return h * (f(inside(stage, xs)) + g(xs) * u + w(xs) * theta)

    inside(1, x)  # the start state, checked even for no step
    dx = 0.0
    for left in reversed(range(n)):
        k1 = slope(1, x)
        k2 = slope(2, x + k1 / 2.0)
        k3 = slope(3, x + k2 / 2.0)
        k4 = slope(4, x + k3)
        dx = (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        x = scale * x + dx
        if not lo <= x <= hi:
            fail(x, left)
    return x, dx


def reference_interval(dynamics, x, u, t_start, t_s, n_truth, theta):
    """The true state one control interval on: one step per substep, theta
    looked up at each substep start."""
    h = t_s / n_truth
    for j in range(n_truth):
        x = reference_march(dynamics, x, u, h, theta.value(t_start + j * h))[0]
        if not math.isfinite(x):
            raise NonFiniteError(f"state became non-finite during interval at t={t_start!r}")
    dynamics.check_state(x)
    return x


def reference_plan(cfg, dynamics, x, controller, steps_per_input=1):
    """The buffer planned from ``x``, all ``horizon + 1`` entries: entry 0 is
    ``(x, controller(x))`` and entry j + 1 the corrected prediction
    (theta = 0) ``steps_per_input`` steps on from entry j, holding its
    input, with the controller there.  An entry the plan cannot reach
    holds the error that stopped it."""
    entries = []
    try:
        for j in range(cfg.horizon + 1):
            if j:
                try:
                    x = reference_march(
                        dynamics, x, u, cfg.delta, 0.0, steps_per_input, 1.0 + cfg.gamma,
                        lambda x, left: dynamics.check_state(x),
                    )[0]
                except DomainError as exc:
                    raise DomainError(f"prediction left the domain after {j} entries") from exc
            u = controller(x)
            entries.append((x, u))
    except (DomainError, NonFiniteError) as exc:
        entries += [exc] * (cfg.horizon + 1 - len(entries))
    return entries


def reference_run(dynamics, predictor_cfg, control_cfg, bits, strategy, sim, weights):
    """``(records, end)`` of the loop under reception ``bits``, with none of
    the program's fast paths (plan head, truth memo, held-theta and
    zero-input marches): ``end`` is the final state, or ``(step, reason)``
    where the run diverged.  The buffer plans every entry at each reception
    (a leading loss plans from x0, the state at step 0) and raises an
    entry's error when a loss replays it; every interval is marched."""
    dynamics.check_state(sim.x0)
    controller = functools.partial(reference_feedback, dynamics, control_cfg)
    steps_per_input = predictor_cfg.steps_per_input(sim.t_s)
    horizon = predictor_cfg.horizon
    records, x, plan, origin, age, u, j_running = [], sim.x0, None, 0, 0, 0.0, 0.0
    for k in range(sim.steps):
        s, t_k, x_pred = bits[k], k * sim.t_s, None
        try:
            if strategy == PREDICTIVE_BUFFER:
                if s or not k:
                    plan = reference_plan(predictor_cfg, dynamics, x, controller, steps_per_input)
                    origin = k
                lost = 2 * age + 1 if sim.doubled_age_offset else k - origin
                offset = 0 if s else min(lost, horizon)
                if isinstance(plan[offset], Exception):
                    raise plan[offset]
                x_pred, u = plan[offset]
            elif s:
                u = controller(x)
            elif strategy == ZERO_INPUT:
                u = 0.0
            age = 0 if s else min(age + 1, horizon)
            deviation = x if weights.raw_state else x - control_cfg.setpoint
            j_running += weights.q_c * deviation * deviation + weights.r_c * u * u
            if not math.isfinite(j_running):
                raise NonFiniteError(f"running cost became non-finite: {j_running!r}")
            records.append(SimulationRecord(k, t_k, x, x_pred, s, age, u, j_running))
            x = reference_interval(dynamics, x, u, t_k, sim.t_s, sim.n_truth, sim.theta)
        except (DomainError, NonFiniteError) as exc:
            return records, (k, str(exc))
    return records, x


def outcome(fn, *args):
    """The hex of the float, or of each float of the tuple, that
    ``fn(*args)`` returns, or the type and text of the error it raises."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(v.hex() for v in value) if isinstance(value, tuple) else value.hex()


def collected(run, *args, **kwargs):
    """``(records, x_final)``: the records ``run`` (``run_scenario`` or
    ``run_closed_loop``) appends to a new list, and the final state of the
    ``RunStats`` it returns."""
    records = []
    return records, run(*args, records=records, **kwargs).x_final


# Any JSON value, non-finite numbers and huge integers included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


# Keys the run and command-line properties vary: any finite number where
# the key sizes nothing, weighted towards the magnitudes where float
# overflow lives, and bounded values where it sizes the run, so each
# example stays a few milliseconds.
any_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6),
    st.floats(min_value=1e300, max_value=1.7976931348623157e308),
)
probability = st.floats(min_value=0.0, max_value=1.0)
seed = st.integers(min_value=0, max_value=2**31)
RUN_KEYS = {
    **{f"plant.{key}": any_number for key in (
        "alpha1", "alpha2", "a1", "a2", "p1", "p2", "rho", "vol", "m2", "domain_margin"
    )},
    "predictor.delta": st.floats(min_value=0.01, max_value=100.0),
    "predictor.gamma": any_number,
    "predictor.horizon": st.integers(min_value=1, max_value=20),
    **{f"controller.{key}": any_number for key in ("setpoint", "lgv_threshold", "u_min", "u_max")},
    "sim.x0": any_number,
    "sim.theta": any_number | st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=20.0), any_number).map(list), min_size=1,
        max_size=3,
    ),
    "sim.n_truth": st.integers(min_value=1, max_value=30),
    "sim.doubled_age_offset": st.booleans(),
    "cost.q_c": any_number,
    "cost.r_c": any_number,
    "cost.raw_state": st.booleans(),
    "loss": st.one_of(
        st.just({"kind": "none"}),
        st.builds(lambda p, s: {"kind": "bernoulli", "p": p, "seed": s}, probability, seed),
        st.builds(
            lambda g2b, b2g, bad, s: {
                "kind": "gilbert-elliott", "p_g2b": g2b, "p_b2g": b2g, "loss_in_bad": bad, "seed": s,
            },
            probability, probability, probability, seed,
        ),
    ),
}


@st.composite
def run_overrides(draw):
    keys = draw(st.sets(st.sampled_from(sorted(RUN_KEYS)), min_size=1, max_size=4))
    return {key: draw(RUN_KEYS[key]) for key in sorted(keys)}


def linear_decay_dynamics(domain=WIDE) -> SystemDynamics:
    """xdot = -x + u; the RK4 test bed with a closed-form solution."""
    return SystemDynamics(
        drift=lambda x: -x,
        input_gain=lambda x: 1.0,
        uncertainty_gain=lambda x: 0.0,
        state_domain=domain,
    )


def still_dynamics(domain=(-100.0, 100.0)) -> SystemDynamics:
    """x' = 0: every gain is zero."""
    return SystemDynamics(
        drift=lambda x: 0.0,
        input_gain=lambda x: 0.0,
        uncertainty_gain=lambda x: 0.0,
        state_domain=domain,
    )


def reference_plant() -> TankParams:
    """The tank of the built-in tank-reference scenario."""
    return builtin_scenario("tank-reference").plant


@pytest.fixture
def benchmark_params() -> TankParams:
    return reference_plant()


@pytest.fixture
def tank(benchmark_params) -> SystemDynamics:
    return tank_dynamics(benchmark_params)


def small_scenario(overrides=None):
    """Benchmark scenario shrunk to 60 steps so runs finish in milliseconds,
    with the value of each ``section.key`` or ``section`` of ``overrides``."""
    doc = builtin_scenario_dict("tank-reference")
    doc["sim"]["duration"] = 120.0
    doc["cost"]["m_steps"] = 60
    for path, value in (overrides or {}).items():
        section, _, key = path.partition(".")
        if key:
            doc[section][key] = value
        else:
            doc[section] = value
    return json.loads(json.dumps(doc))


@pytest.fixture
def small_scenario_dict():
    return small_scenario
