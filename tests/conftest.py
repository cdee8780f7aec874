import json

import pytest
from hypothesis import strategies as st

from ncsim import (
    SystemDynamics,
    TankParams,
    builtin_scenario_dict,
    tank_dynamics,
)

WIDE = (-1.0e12, 1.0e12)

# Any JSON value, non-finite numbers and huge integers included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def linear_decay_dynamics(domain=WIDE) -> SystemDynamics:
    """xdot = -x + u; the RK4 test bed with a closed-form solution."""
    return SystemDynamics(
        drift=lambda x: -x,
        input_gain=lambda x: 1.0,
        uncertainty_gain=lambda x: 0.0,
        state_domain=domain,
    )


@pytest.fixture
def benchmark_params() -> TankParams:
    return TankParams.benchmark(p2=100_000.0, m2=1.0)


@pytest.fixture
def tank(benchmark_params) -> SystemDynamics:
    return tank_dynamics(benchmark_params, margin=1e-3)


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
