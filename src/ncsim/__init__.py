"""Networked control simulation with prediction-based dropout compensation.

A sampled feedback loop whose measurements traverse a lossy channel.
On reception the controller applies its feedback to the measurement;
during losses the actuator replays a predicted input trajectory planned
from the last received measurement.  The predictor is
a fixed-step Runge-Kutta integrator with a calibrated multiplicative
correction, the controller a universal-formula feedback from a
quadratic Lyapunov function, validated on a pressure-tank plant.
"""

from .controller import (
    ControllerConfig,
    LyapunovSpec,
    closed_loop_vdot,
    lie_derivatives,
    sontag_from_lie,
    sontag_input,
)
from .errors import (
    CalibrationRangeError,
    ConfigError,
    ControllerOverflowError,
    DomainError,
    IntegrationDomainError,
    NcsimError,
    NonFiniteError,
    SimulationDiverged,
    TraceExhaustedError,
    TrajectoryError,
)
from .losses import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    TraceLoss,
    read_trace_file,
)
from .plant import (
    SystemDynamics,
    TankParams,
    UncertaintySignal,
    rk4_increment,
    tank_dynamics,
)
from .predictor import (
    ControlTrajectory,
    PredictorConfig,
    SamplePair,
    calibrate_gamma_one,
    calibrate_gamma_two,
    calibration,
    mean_squared_error,
    predict_step,
    predict_trajectory,
    read_sample_pairs,
)
from .runtime import (
    HOLD_LAST_VALUE,
    PREDICTIVE_BUFFER,
    STRATEGIES,
    ZERO_INPUT,
    ComparisonResult,
    CostWeights,
    RunResult,
    SimSettings,
    SimulationRecord,
    compare_strategies,
    integrate_interval,
    read_records_csv,
    run_closed_loop,
    run_scenario,
    write_comparison_csv,
    write_records_csv,
)
from .scenario import (
    BUILTIN_SCENARIOS,
    LossSpec,
    Scenario,
    apply_overrides,
    builtin_scenario,
    builtin_scenario_dict,
    resolved_json,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SCENARIOS",
    "BernoulliLoss",
    "CalibrationRangeError",
    "ComparisonResult",
    "ConfigError",
    "ControlTrajectory",
    "ControllerConfig",
    "ControllerOverflowError",
    "CostWeights",
    "DomainError",
    "GilbertElliottLoss",
    "HOLD_LAST_VALUE",
    "IntegrationDomainError",
    "LossModel",
    "LossSpec",
    "LyapunovSpec",
    "NcsimError",
    "NoLoss",
    "NonFiniteError",
    "PREDICTIVE_BUFFER",
    "PredictorConfig",
    "RunResult",
    "SamplePair",
    "Scenario",
    "SimSettings",
    "SimulationDiverged",
    "SimulationRecord",
    "STRATEGIES",
    "SystemDynamics",
    "TankParams",
    "TraceExhaustedError",
    "TraceLoss",
    "TrajectoryError",
    "UncertaintySignal",
    "ZERO_INPUT",
    "apply_overrides",
    "builtin_scenario",
    "builtin_scenario_dict",
    "calibrate_gamma_one",
    "calibrate_gamma_two",
    "calibration",
    "closed_loop_vdot",
    "compare_strategies",
    "integrate_interval",
    "lie_derivatives",
    "mean_squared_error",
    "predict_step",
    "predict_trajectory",
    "read_records_csv",
    "read_sample_pairs",
    "read_trace_file",
    "resolved_json",
    "rk4_increment",
    "run_closed_loop",
    "run_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "sontag_from_lie",
    "sontag_input",
    "tank_dynamics",
    "write_comparison_csv",
    "write_records_csv",
]
