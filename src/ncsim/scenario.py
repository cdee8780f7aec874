"""Scenario configs: a full experiment description in one JSON document.

A scenario bundles plant parameters, predictor and controller settings,
the loss channel, simulation grid, cost weights, and the strategy list.
Parsing is strict: unknown keys and wrong-typed values are rejected so a
typo cannot silently fall back to a default.  ``to_dict`` emits a
canonical form whose JSON serialization is stable under reload, which
is what makes resolved-config snapshots byte-reproducible.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .controller import ControllerConfig, LyapunovSpec
from .errors import ConfigError
from .losses import (
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    NoLoss,
    TraceLoss,
    read_trace_file,
)
from .plant import TankParams, UncertaintySignal, tank_dynamics
from .predictor import PredictorConfig
from .runtime import STRATEGIES, CostWeights, SimSettings

LOSS_KINDS = ("none", "bernoulli", "gilbert-elliott", "trace")

# Relative slack when checking that one time quantity divides another.
_RATIO_TOL = 1e-9

# Run-size caps, checked when a scenario is built so that no input can
# ask for an unbounded run: control intervals (one record each), truth
# RK4 substeps, and predictor steps if every interval planned a full
# trajectory.  tank-reference needs 1800, 36_000 and 18_000.
MAX_STEPS = 1_000_000
MAX_TRUTH_SUBSTEPS = 20_000_000
MAX_PREDICTOR_STEPS = 20_000_000


@dataclass(frozen=True)
class LossSpec:
    """Declarative description of a loss channel.

    ``build`` instantiates the model, optionally overriding the seed so
    paired comparisons can enumerate seeds without editing the channel
    description itself.
    """

    kind: str
    seed: int = 0
    p: Optional[float] = None
    p_g2b: Optional[float] = None
    p_b2g: Optional[float] = None
    loss_in_bad: Optional[float] = None
    trace_path: Optional[str] = None
    wrap: bool = False

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(
                f"loss.kind must be one of {LOSS_KINDS}, got {self.kind!r}"
            )
        if self.kind == "bernoulli" and self.p is None:
            raise ConfigError("loss.p is required for bernoulli losses")
        if self.kind == "gilbert-elliott":
            for name in ("p_g2b", "p_b2g", "loss_in_bad"):
                if getattr(self, name) is None:
                    raise ConfigError(f"loss.{name} is required for gilbert-elliott losses")
        if self.kind == "trace" and self.trace_path is None:
            raise ConfigError("loss.trace_path is required for trace losses")
        for name in ("p", "p_g2b", "p_b2g", "loss_in_bad"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise ConfigError(f"loss.{name} must lie in [0, 1], got {value!r}")

    @property
    def seeded(self) -> bool:
        """Whether the seed changes the loss realization (none and trace
        channels ignore it)."""
        return self.kind in ("bernoulli", "gilbert-elliott")

    def build(self, seed: Optional[int] = None) -> LossModel:
        effective = self.seed if seed is None else seed
        if self.kind == "none":
            return NoLoss()
        if self.kind == "bernoulli":
            return BernoulliLoss(self.p, seed=effective)
        if self.kind == "gilbert-elliott":
            return GilbertElliottLoss(
                self.p_g2b, self.p_b2g, self.loss_in_bad, seed=effective
            )
        return TraceLoss(read_trace_file(self.trace_path), wrap=self.wrap)


@dataclass(frozen=True)
class Scenario:
    """Complete, validated description of one closed-loop experiment."""

    plant: TankParams
    domain_margin: float
    predictor: PredictorConfig
    setpoint: float
    lgv_threshold: float
    u_min: float
    u_max: float
    loss: LossSpec
    x0: float
    t_s: float
    duration: float
    theta: UncertaintySignal
    n_truth: int = 20
    doubled_age_offset: bool = False
    q_c: float = 1.0
    r_c: float = 1.0e6
    m_steps: int = 1
    raw_state: bool = False
    strategies: tuple = field(default=STRATEGIES)

    def __post_init__(self):
        if self.domain_margin < 0:
            raise ConfigError("plant.domain_margin must be non-negative")
        lo = self.plant.p2 + self.domain_margin
        hi = self.plant.p1 - self.domain_margin
        if not lo < hi:
            raise ConfigError("plant.domain_margin leaves an empty state domain")
        if not lo < self.setpoint < hi:
            raise ConfigError(
                f"controller.setpoint {self.setpoint!r} outside state domain ({lo!r}, {hi!r})"
            )
        if not lo < self.x0 < hi:
            raise ConfigError(
                f"sim.x0 {self.x0!r} outside state domain ({lo!r}, {hi!r})"
            )
        if not self.t_s > 0:
            raise ConfigError("sim.t_s must be positive")
        if not self.duration / self.t_s < MAX_STEPS + 0.5:
            raise ConfigError(
                f"sim.duration {self.duration!r} / sim.t_s {self.t_s!r} asks for more "
                f"than {MAX_STEPS} steps"
            )
        steps = self._steps()
        if steps is None:
            raise ConfigError(
                f"sim.duration {self.duration!r} must be a positive whole multiple of sim.t_s"
            )
        if self.n_truth < 1:
            raise ConfigError(f"sim.n_truth must be >= 1, got {self.n_truth!r}")
        if steps * self.n_truth > MAX_TRUTH_SUBSTEPS:
            raise ConfigError(
                f"sim.n_truth {self.n_truth} over {steps} steps asks for more than "
                f"{MAX_TRUTH_SUBSTEPS} truth substeps"
            )
        per_input = self.steps_per_input()
        if steps * self.predictor.horizon * per_input > MAX_PREDICTOR_STEPS:
            raise ConfigError(
                f"predictor.horizon {self.predictor.horizon} x {per_input:.6g} predictor "
                f"steps per interval (sim.t_s / predictor.delta) x {steps} steps may ask "
                f"for more than {MAX_PREDICTOR_STEPS} predictor steps"
            )
        if self.m_steps > steps:
            raise ConfigError(
                f"cost.m_steps {self.m_steps} exceeds the {steps} simulated steps"
            )
        if not self.strategies:
            raise ConfigError("strategies must be non-empty")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigError("strategies must be unique")
        for name in self.strategies:
            if name not in STRATEGIES:
                raise ConfigError(
                    f"unknown strategy {name!r}, expected one of {STRATEGIES}"
                )
        # Constructing these validates their own field ranges up front.
        # Their messages start with the field name, so the section prefix
        # turns it into the scenario key.
        for section, build in (
            ("controller", self.controller_config),
            ("cost", self.cost_weights),
        ):
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{section}.{exc}") from exc

    def _steps(self) -> Optional[int]:
        ratio = self.duration / self.t_s
        steps = round(ratio)
        if steps < 1 or abs(ratio - steps) > _RATIO_TOL * max(1.0, steps):
            return None
        return steps

    def build_dynamics(self):
        return tank_dynamics(self.plant, margin=self.domain_margin)

    def predictor_config(self) -> PredictorConfig:
        return self.predictor

    def lyapunov(self) -> LyapunovSpec:
        return LyapunovSpec(setpoint=self.setpoint)

    def controller_config(self) -> ControllerConfig:
        return ControllerConfig(
            lgv_threshold=self.lgv_threshold, u_min=self.u_min, u_max=self.u_max
        )

    def build_loss(self, seed: Optional[int] = None) -> LossModel:
        return self.loss.build(seed)

    def loss_seed(self) -> int:
        return self.loss.seed

    def sim_settings(self) -> SimSettings:
        return SimSettings(
            x0=self.x0,
            t_s=self.t_s,
            steps=self._steps(),
            theta=self.theta,
            n_truth=self.n_truth,
            doubled_age_offset=self.doubled_age_offset,
        )

    def cost_weights(self) -> CostWeights:
        return CostWeights(q_c=self.q_c, r_c=self.r_c, m_steps=self.m_steps)

    def cost_raw_state(self) -> bool:
        return self.raw_state

    def steps_per_input(self) -> int:
        """Predictor substeps per control interval.

        When the predictor step divides the sample time, the trajectory
        advances in substeps so break points line up with sampling
        instants.  Otherwise one predictor step per interval is taken at
        the configured step size, mismatch and all.
        """
        ratio = self.t_s / self.predictor.delta
        if math.isinf(ratio):
            return 1
        n = round(ratio)
        if n >= 1 and abs(ratio - n) <= _RATIO_TOL * n:
            return n
        return 1


def _check_keys(section: str, data: dict, allowed: Sequence[str]) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}" if section else f"unknown key {key}")


def _get(section: str, data: dict, key: str, required: bool, default=None):
    if key in data:
        return data[key]
    if required:
        label = f"{section}.{key}" if section else key
        raise ConfigError(f"missing required key {label}")
    return default


def _number(section: str, key: str, value) -> float:
    """A finite float; JSON admits NaN, Infinity and integers past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{section}.{key} must be finite, got {value!r}")
    return number


def _integer(section: str, key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
    return value


def _boolean(section: str, key: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{section}.{key} must be a boolean, got {value!r}")
    return value


def _string(section: str, key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{section}.{key} must be a string, got {value!r}")
    return value


def _parse_theta(value) -> UncertaintySignal:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return UncertaintySignal.constant(_number("sim", "theta", value))
    if isinstance(value, list):
        times = []
        values = []
        for entry in value:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in entry)
            ):
                raise ConfigError(
                    f"sim.theta entries must be [time, value] number pairs, got {entry!r}"
                )
            times.append(_number("sim", "theta", entry[0]))
            values.append(_number("sim", "theta", entry[1]))
        try:
            return UncertaintySignal(times=tuple(times), values=tuple(values))
        except ValueError as exc:
            raise ConfigError(f"sim.theta: {exc}") from exc
    raise ConfigError(f"sim.theta must be a number or a list of pairs, got {value!r}")


def _parse_loss(data) -> LossSpec:
    if not isinstance(data, dict):
        raise ConfigError("loss section must be an object")
    kind = _string("loss", "kind", _get("loss", data, "kind", required=True))
    common = ["kind", "seed"]
    per_kind = {
        "none": [],
        "bernoulli": ["p"],
        "gilbert-elliott": ["p_g2b", "p_b2g", "loss_in_bad"],
        "trace": ["trace_path", "wrap"],
    }
    if kind not in per_kind:
        raise ConfigError(f"loss.kind must be one of {LOSS_KINDS}, got {kind!r}")
    _check_keys("loss", data, common + per_kind[kind])
    seed = _integer("loss", "seed", _get("loss", data, "seed", required=False, default=0))
    kwargs = {"kind": kind, "seed": seed}
    if kind == "bernoulli":
        kwargs["p"] = _number("loss", "p", _get("loss", data, "p", required=True))
    elif kind == "gilbert-elliott":
        for name in ("p_g2b", "p_b2g", "loss_in_bad"):
            kwargs[name] = _number("loss", name, _get("loss", data, name, required=True))
    elif kind == "trace":
        kwargs["trace_path"] = _string(
            "loss", "trace_path", _get("loss", data, "trace_path", required=True)
        )
        kwargs["wrap"] = _boolean(
            "loss", "wrap", _get("loss", data, "wrap", required=False, default=False)
        )
    try:
        return LossSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Parse and validate a scenario document.

    Raises ``ConfigError`` on unknown keys, missing required fields, or
    values of the wrong type, naming the offending key.
    """
    if not isinstance(data, dict):
        raise ConfigError("scenario document must be a JSON object")
    _check_keys(
        "", data, ["plant", "predictor", "controller", "loss", "sim", "cost", "strategies"]
    )

    plant_data = _get("", data, "plant", required=True)
    if not isinstance(plant_data, dict):
        raise ConfigError("plant section must be an object")
    plant_keys = ["alpha1", "alpha2", "a1", "a2", "p1", "p2", "rho", "vol", "m2"]
    _check_keys("plant", plant_data, plant_keys + ["domain_margin"])
    plant_kwargs = {
        key: _number("plant", key, _get("plant", plant_data, key, required=True))
        for key in plant_keys
    }
    try:
        params = TankParams(**plant_kwargs)
    except ValueError as exc:
        raise ConfigError(f"plant: {exc}") from exc
    domain_margin = _number(
        "plant",
        "domain_margin",
        _get("plant", plant_data, "domain_margin", required=False, default=1e-3),
    )

    pred_data = _get("", data, "predictor", required=True)
    if not isinstance(pred_data, dict):
        raise ConfigError("predictor section must be an object")
    _check_keys("predictor", pred_data, ["delta", "gamma", "horizon"])
    try:
        predictor = PredictorConfig(
            delta=_number("predictor", "delta", _get("predictor", pred_data, "delta", required=True)),
            gamma=_number("predictor", "gamma", _get("predictor", pred_data, "gamma", required=True)),
            horizon=_integer(
                "predictor", "horizon", _get("predictor", pred_data, "horizon", required=True)
            ),
        )
    except ValueError as exc:
        raise ConfigError(f"predictor: {exc}") from exc

    ctrl_data = _get("", data, "controller", required=True)
    if not isinstance(ctrl_data, dict):
        raise ConfigError("controller section must be an object")
    _check_keys("controller", ctrl_data, ["setpoint", "lgv_threshold", "u_min", "u_max"])
    setpoint = _number("controller", "setpoint", _get("controller", ctrl_data, "setpoint", required=True))
    lgv_threshold = _number(
        "controller",
        "lgv_threshold",
        _get("controller", ctrl_data, "lgv_threshold", required=False, default=1e-9),
    )
    u_min = _number(
        "controller", "u_min", _get("controller", ctrl_data, "u_min", required=False, default=0.0)
    )
    u_max = _number(
        "controller", "u_max", _get("controller", ctrl_data, "u_max", required=False, default=1.0)
    )

    loss = _parse_loss(_get("", data, "loss", required=False, default={"kind": "none"}))

    sim_data = _get("", data, "sim", required=True)
    if not isinstance(sim_data, dict):
        raise ConfigError("sim section must be an object")
    _check_keys("sim", sim_data, ["x0", "t_s", "duration", "theta", "n_truth", "doubled_age_offset"])
    x0 = _number("sim", "x0", _get("sim", sim_data, "x0", required=True))
    t_s = _number("sim", "t_s", _get("sim", sim_data, "t_s", required=True))
    duration = _number("sim", "duration", _get("sim", sim_data, "duration", required=True))
    theta = _parse_theta(_get("sim", sim_data, "theta", required=True))
    n_truth = _integer(
        "sim", "n_truth", _get("sim", sim_data, "n_truth", required=False, default=20)
    )
    doubled_age_offset = _boolean(
        "sim",
        "doubled_age_offset",
        _get("sim", sim_data, "doubled_age_offset", required=False, default=False),
    )

    cost_data = _get("", data, "cost", required=True)
    if not isinstance(cost_data, dict):
        raise ConfigError("cost section must be an object")
    _check_keys("cost", cost_data, ["q_c", "r_c", "m_steps", "raw_state"])
    q_c = _number("cost", "q_c", _get("cost", cost_data, "q_c", required=True))
    r_c = _number("cost", "r_c", _get("cost", cost_data, "r_c", required=True))
    m_steps = _integer("cost", "m_steps", _get("cost", cost_data, "m_steps", required=True))
    raw_state = _boolean(
        "cost", "raw_state", _get("cost", cost_data, "raw_state", required=False, default=False)
    )

    strategies_data = _get("", data, "strategies", required=False, default=list(STRATEGIES))
    if not isinstance(strategies_data, list) or not all(
        isinstance(s, str) for s in strategies_data
    ):
        raise ConfigError("strategies must be a list of strings")

    return Scenario(
        plant=params,
        domain_margin=domain_margin,
        predictor=predictor,
        setpoint=setpoint,
        lgv_threshold=lgv_threshold,
        u_min=u_min,
        u_max=u_max,
        loss=loss,
        x0=x0,
        t_s=t_s,
        duration=duration,
        theta=theta,
        n_truth=n_truth,
        doubled_age_offset=doubled_age_offset,
        q_c=q_c,
        r_c=r_c,
        m_steps=m_steps,
        raw_state=raw_state,
        strategies=tuple(strategies_data),
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form; reloading it reproduces the scenario."""
    plant = scenario.plant
    loss: dict = {"kind": scenario.loss.kind, "seed": scenario.loss.seed}
    if scenario.loss.kind == "bernoulli":
        loss["p"] = scenario.loss.p
    elif scenario.loss.kind == "gilbert-elliott":
        loss["p_g2b"] = scenario.loss.p_g2b
        loss["p_b2g"] = scenario.loss.p_b2g
        loss["loss_in_bad"] = scenario.loss.loss_in_bad
    elif scenario.loss.kind == "trace":
        loss["trace_path"] = scenario.loss.trace_path
        loss["wrap"] = scenario.loss.wrap
    return {
        "plant": {
            "alpha1": plant.alpha1,
            "alpha2": plant.alpha2,
            "a1": plant.a1,
            "a2": plant.a2,
            "p1": plant.p1,
            "p2": plant.p2,
            "rho": plant.rho,
            "vol": plant.vol,
            "m2": plant.m2,
            "domain_margin": scenario.domain_margin,
        },
        "predictor": {
            "delta": scenario.predictor.delta,
            "gamma": scenario.predictor.gamma,
            "horizon": scenario.predictor.horizon,
        },
        "controller": {
            "setpoint": scenario.setpoint,
            "lgv_threshold": scenario.lgv_threshold,
            "u_min": scenario.u_min,
            "u_max": scenario.u_max,
        },
        "loss": loss,
        "sim": {
            "x0": scenario.x0,
            "t_s": scenario.t_s,
            "duration": scenario.duration,
            "theta": [list(pair) for pair in zip(scenario.theta.times, scenario.theta.values)],
            "n_truth": scenario.n_truth,
            "doubled_age_offset": scenario.doubled_age_offset,
        },
        "cost": {
            "q_c": scenario.q_c,
            "r_c": scenario.r_c,
            "m_steps": scenario.m_steps,
            "raw_state": scenario.raw_state,
        },
        "strategies": list(scenario.strategies),
    }


def resolved_json(scenario: Scenario) -> str:
    """Stable JSON snapshot of a scenario with defaults filled in."""
    return json.dumps(scenario_to_dict(scenario), indent=2) + "\n"


def load_scenario(path: str) -> Scenario:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file {path!r} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def apply_overrides(data: dict, assignments: Sequence[str]) -> dict:
    """Apply ``section.key=value`` overrides to a scenario document.

    Values are parsed as JSON when possible and fall back to bare
    strings, so ``loss.kind=bernoulli`` and ``predictor.gamma=0.2`` both
    read naturally.  Intermediate path components must already exist;
    the final key may be new (it is validated on reparse).
    """
    result = json.loads(json.dumps(data))
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {assignment!r} must look like section.key=value")
        path, raw = assignment.split("=", 1)
        parts = path.split(".")
        if not all(parts):
            raise ConfigError(f"override {assignment!r} has an empty path component")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = result
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"override path {path!r} does not reach a config section")
            node = node[part]
        node[parts[-1]] = value
    return result


# Benchmark scenario: drive the tank from 110 kPa to a 150.1 kPa setpoint
# over one hour at a 2 s sample time, with the inflow disturbance stepping
# from 0.175 to 0.185 m^3/s halfway through.  gamma equals
# theta * delta / vol, the per-step multiplicative drift the nominal
# model misses, so the predictor tracks the disturbed plant.
TANK_REFERENCE = {
    "plant": {
        "alpha1": 0.631811,
        "alpha2": 0.631811,
        "a1": 0.0019625,
        "a2": 0.0019625,
        "p1": 200000.0,
        "p2": 100000.0,
        "rho": 3.49772,
        "vol": 2.0,
        "m2": 1.0,
        "domain_margin": 0.001,
    },
    "predictor": {"delta": 2.0, "gamma": 0.175, "horizon": 10},
    "controller": {
        "setpoint": 150100.0,
        "lgv_threshold": 1e-9,
        "u_min": 0.0,
        "u_max": 1.0,
    },
    "loss": {"kind": "none", "seed": 42},
    "sim": {
        "x0": 110000.0,
        "t_s": 2.0,
        "duration": 3600.0,
        "theta": [[0.0, 0.175], [1800.0, 0.185]],
        "n_truth": 20,
        "doubled_age_offset": False,
    },
    "cost": {"q_c": 1.0, "r_c": 1000000.0, "m_steps": 1800, "raw_state": False},
    "strategies": list(STRATEGIES),
}

BUILTIN_SCENARIOS = {"tank-reference": TANK_REFERENCE}


def builtin_scenario_dict(name: str) -> dict:
    """Deep copy of a named built-in scenario document."""
    if name not in BUILTIN_SCENARIOS:
        known = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r}; built-ins: {known}")
    return json.loads(json.dumps(BUILTIN_SCENARIOS[name]))


def builtin_scenario(name: str) -> Scenario:
    return scenario_from_dict(builtin_scenario_dict(name))
