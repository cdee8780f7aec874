import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from ncsim import (
    SystemDynamics,
    TankParams,
    builtin_scenario,
    builtin_scenario_dict,
    predict_step,
    tank_dynamics,
)

WIDE = (-1.0e12, 1.0e12)

# A longer search than the default 100 examples, loaded only on request:
#   python -m pytest tests/test_cli.py -k Fuzz --hypothesis-profile=deep
# CI runs it on the command-line fuzz and on the plan-equivalence tests of
# tests/test_runtime.py.
settings.register_profile("deep", max_examples=2000, deadline=None)


def lie(dynamics, setpoint, x):
    """``(LfV, LgV)`` at ``x`` for V = (x - setpoint)^2, whose gradient is
    2 (x - setpoint)."""
    grad = 2.0 * (x - setpoint)
    return grad * dynamics.drift(x), grad * dynamics.input_gain(x)


def full_plan(cfg, dynamics, x0, controller, steps_per_input=1):
    """The plan ``(inputs, states)`` from ``x0``, all ``horizon + 1`` entries,
    as a reception followed by a long enough loss burst replays it: entry
    j + 1 is ``steps_per_input`` predictor steps on from entry j, holding
    input j, and the controller evaluated there.  A prediction that leaves
    the domain raises its ``DomainError``."""
    inputs, states = [controller(x0)], [x0]
    for _ in range(cfg.horizon):
        states.append(predict_step(cfg, dynamics, states[-1], inputs[-1], steps_per_input))
        inputs.append(controller(states[-1]))
    return inputs, states


def collected(run, *args, **kwargs):
    """``(records, x_final)``: the records ``run`` (``run_scenario`` or
    ``run_closed_loop``) appends to a new list, and the state it returns."""
    records = []
    return records, run(*args, records=records, **kwargs)


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


def reference_plant() -> TankParams:
    """The tank of the built-in tank-reference scenario."""
    return builtin_scenario("tank-reference").plant


@pytest.fixture
def benchmark_params() -> TankParams:
    return reference_plant()


@pytest.fixture
def tank(benchmark_params) -> SystemDynamics:
    return tank_dynamics(benchmark_params)


@pytest.fixture
def small_scenario_dict():
    """Benchmark scenario shrunk to 60 steps so runs finish in milliseconds."""

    def make(overrides=None):
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

    return make
