"""Networked control simulation with prediction-based dropout compensation.

A sampled feedback loop whose measurements traverse a lossy channel.
On reception the controller applies its feedback to the measurement;
during losses the actuator replays a predicted input trajectory planned
from the last received measurement.  The predictor is
a fixed-step Runge-Kutta integrator with a calibrated multiplicative
correction, the controller a universal-formula feedback from a
quadratic Lyapunov function, validated on a pressure-tank plant.
"""

from .controller import ControllerConfig, sontag_feedback
from .errors import (
    ConfigError,
    ControllerOverflowError,
    DomainError,
    IntegrationDomainError,
    NcsimError,
    NonFiniteError,
    SimulationDiverged,
    TraceExhaustedError,
)
from .losses import LossModel, LossSpec, read_trace_file
from .plant import (
    SystemDynamics,
    TankParams,
    UncertaintySignal,
    rk4_increment,
    tank_dynamics,
)
from .predictor import (
    PredictorConfig,
    SamplePair,
    calibration,
    gamma_in_range,
    predict_step,
    read_sample_pairs,
)
from .runtime import (
    HOLD_LAST_VALUE,
    PREDICTIVE_BUFFER,
    STRATEGIES,
    ZERO_INPUT,
    ComparisonResult,
    CostWeights,
    RunStats,
    SimSettings,
    SimulationRecord,
    TraceWriter,
    compare_strategies,
    integrate_interval,
    run_closed_loop,
    run_scenario,
    write_comparison_csv,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    Scenario,
    apply_overrides,
    builtin_scenario,
    builtin_scenario_dict,
    resolved_json,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

# The public names are the ones imported above, so each is written once.
__all__ = sorted(
    name for name in dir() if not name.startswith("_") and name not in (
        "controller", "errors", "losses", "plant", "predictor", "runtime", "scenario"
    )
)
