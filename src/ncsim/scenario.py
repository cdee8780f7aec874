"""Scenario configs: a full experiment description in one JSON document.

A scenario bundles plant parameters, predictor and controller settings,
the loss channel, simulation grid, cost weights, and the strategy list.
Every key's type and default is written once, in ``_SCHEMA``; parsing
and ``scenario_to_dict`` are both walks over it.  The loss section is a
``LossSpec``, and ``ncsim.losses.LOSS_KEYS`` says which of its keys each
loss kind takes.  Parsing is strict: unknown keys and wrong-typed values
are rejected so a typo cannot silently fall back to a default.  Each
range rule is written once, in the record that owns the key, which
raises ``ConfigError`` naming it (``predictor.gamma must lie in (-1, 1),
got 1.5``); ``Scenario`` checks only the rules that span two records.
``scenario_to_dict`` emits a canonical form whose JSON serialization is
stable under reload, which is what makes resolved-config snapshots
byte-reproducible.
"""

import json
import math
from dataclasses import dataclass
from typing import Sequence

from .controller import ControllerConfig
from .errors import ConfigError
from .losses import LOSS_KEYS, LOSS_KINDS, LossSpec
from .plant import TankParams, UncertaintySignal, tank_dynamics
from .predictor import PredictorConfig
from .runtime import STRATEGIES, CostWeights, SimSettings, check_strategies

# Predictor steps a run may ask for, checked when a scenario is built so
# that no input can ask for an unbounded run.  A loss predicts at most one
# buffer entry, or two under ``sim.doubled_age_offset`` (and never more
# than ``predictor.horizon``), so tank-reference needs at most 3600.
MAX_PREDICTOR_STEPS = 20_000_000


@dataclass(frozen=True)
class Scenario:
    """Complete, validated description of one closed-loop experiment.

    It holds the config objects the loop takes, one per section of the
    document.  Each of them checks its own keys; this checks the rules
    that span two of them.
    """

    plant: TankParams
    predictor: PredictorConfig
    controller: ControllerConfig
    loss: LossSpec
    sim: SimSettings
    cost: CostWeights
    strategies: tuple

    def __post_init__(self):
        lo, hi = self.plant.state_domain
        setpoint = self.controller.setpoint
        for key, value in (("controller.setpoint", setpoint), ("sim.x0", self.sim.x0)):
            if not lo < value < hi:
                raise ConfigError(f"{key} {value!r} outside state domain ({lo!r}, {hi!r})")
        steps = self.sim.steps
        per_input = self.predictor.steps_per_input(self.sim.t_s)
        entries = min(self.predictor.horizon, 2)
        if steps * per_input * entries > MAX_PREDICTOR_STEPS:
            raise ConfigError(
                f"predictor.delta {self.predictor.delta!r} gives {per_input:.6g} predictor "
                f"steps per interval (sim.t_s / predictor.delta), which over {steps} steps "
                f"of up to min(predictor.horizon, 2) = {entries} predicted entries may ask "
                f"for more than {MAX_PREDICTOR_STEPS} predictor steps"
            )
        if self.cost.m_steps > steps:
            raise ConfigError(
                f"cost.m_steps {self.cost.m_steps} exceeds the {steps} simulated steps"
            )
        check_strategies(self.strategies)

    def build_dynamics(self):
        return tank_dynamics(self.plant)


def _number(label: str, value) -> float:
    """A finite float; JSON admits NaN, Infinity and integers past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{label} must be finite, got {value!r}")
    return number


def _integer(label: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {value!r}")
    return value


def _boolean(label: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{label} must be a boolean, got {value!r}")
    return value


def _string(label: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{label} must be a string, got {value!r}")
    return value


def _loss_kind(label: str, value) -> str:
    if _string(label, value) not in LOSS_KINDS:
        raise ConfigError(f"{label} must be one of {LOSS_KINDS}, got {value!r}")
    return value


def _theta(label: str, value) -> UncertaintySignal:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return UncertaintySignal.constant(_number(label, value))
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
                    f"{label} entries must be [time, value] number pairs, got {entry!r}"
                )
            times.append(_number(label, entry[0]))
            values.append(_number(label, entry[1]))
        return UncertaintySignal(times=tuple(times), values=tuple(values))
    raise ConfigError(f"{label} must be a number or a list of pairs, got {value!r}")


def _strategies(label: str, value) -> tuple:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ConfigError(f"{label} must be a list of strings")
    return tuple(value)


_REQUIRED = object()

# Every scenario key, in snapshot order: (section, key, checker, default
# or _REQUIRED).  A section is the Scenario field whose record holds its
# keys; section "" is the top level of the document, held by Scenario
# itself.  A loss key past kind and seed belongs only to the kinds that
# ``LOSS_KEYS`` gives it.
_SCHEMA = (
    ("plant", "alpha1", _number, _REQUIRED),
    ("plant", "alpha2", _number, _REQUIRED),
    ("plant", "a1", _number, _REQUIRED),
    ("plant", "a2", _number, _REQUIRED),
    ("plant", "p1", _number, _REQUIRED),
    ("plant", "p2", _number, _REQUIRED),
    ("plant", "rho", _number, _REQUIRED),
    ("plant", "vol", _number, _REQUIRED),
    ("plant", "m2", _number, _REQUIRED),
    ("plant", "domain_margin", _number, 1e-3),
    ("predictor", "delta", _number, _REQUIRED),
    ("predictor", "gamma", _number, _REQUIRED),
    ("predictor", "horizon", _integer, _REQUIRED),
    ("controller", "setpoint", _number, _REQUIRED),
    ("controller", "lgv_threshold", _number, 1e-9),
    ("controller", "u_min", _number, 0.0),
    ("controller", "u_max", _number, 1.0),
    ("loss", "kind", _loss_kind, _REQUIRED),
    ("loss", "seed", _integer, 0),
    ("loss", "p", _number, _REQUIRED),
    ("loss", "p_g2b", _number, _REQUIRED),
    ("loss", "p_b2g", _number, _REQUIRED),
    ("loss", "loss_in_bad", _number, _REQUIRED),
    ("loss", "trace_path", _string, _REQUIRED),
    ("loss", "wrap", _boolean, False),
    ("sim", "x0", _number, _REQUIRED),
    ("sim", "t_s", _number, _REQUIRED),
    ("sim", "duration", _number, _REQUIRED),
    ("sim", "theta", _theta, _REQUIRED),
    ("sim", "n_truth", _integer, 20),
    ("sim", "doubled_age_offset", _boolean, False),
    ("cost", "q_c", _number, _REQUIRED),
    ("cost", "r_c", _number, _REQUIRED),
    ("cost", "m_steps", _integer, _REQUIRED),
    ("cost", "raw_state", _boolean, False),
    ("", "strategies", _strategies, STRATEGIES),
)

_TOP_KEYS = tuple(dict.fromkeys(row[0] or row[1] for row in _SCHEMA))

# The record each section is built into from its gathered keys.
_CLASSES = {
    "plant": TankParams,
    "predictor": PredictorConfig,
    "controller": ControllerConfig,
    "loss": LossSpec,
    "sim": SimSettings,
    "cost": CostWeights,
}


def _check_keys(section: str, data: dict, allowed) -> None:
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {section}.{key}" if section else f"unknown key {key}")


def _section(data: dict, name: str) -> dict:
    if not name:
        return data
    if name not in data:
        if name == "loss":
            return {"kind": "none"}
        raise ConfigError(f"missing required key {name}")
    if not isinstance(data[name], dict):
        raise ConfigError(f"{name} section must be an object")
    return data[name]


def _rows(kind: str):
    keys = ("kind", "seed") + LOSS_KEYS[kind]
    return [row for row in _SCHEMA if row[0] != "loss" or row[1] in keys]


def scenario_from_dict(data: dict) -> Scenario:
    """Parse and validate a scenario document.

    Raises ``ConfigError`` on unknown keys, missing required fields, or
    values of the wrong type or out of range, naming the offending key.
    """
    if not isinstance(data, dict):
        raise ConfigError("scenario document must be a JSON object")
    _check_keys("", data, _TOP_KEYS)
    loss = _section(data, "loss")
    if "kind" not in loss:
        raise ConfigError("missing required key loss.kind")
    rows = _rows(_loss_kind("loss.kind", loss["kind"]))
    sections: dict = {}
    held: dict = {}
    for section, key, check, default in rows:
        if section not in sections:
            sections[section] = _section(data, section)
            if section:
                _check_keys(section, sections[section], [r[1] for r in rows if r[0] == section])
        label = f"{section}.{key}" if section else key
        if key in sections[section]:
            value = check(label, sections[section][key])
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {label}")
        else:
            value = default
        held.setdefault(section, {})[key] = value
    fields = held.pop("")
    for section, cls in _CLASSES.items():
        fields[section] = cls(**held[section])
    return Scenario(**fields)


def _plain(value):
    if isinstance(value, UncertaintySignal):
        return [list(pair) for pair in zip(value.times, value.values)]
    return list(value) if isinstance(value, tuple) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form; reloading it reproduces the scenario."""
    doc: dict = {}
    for section, key, _, _ in _rows(scenario.loss.kind):
        owner = getattr(scenario, section) if section else scenario
        (doc.setdefault(section, {}) if section else doc)[key] = _plain(getattr(owner, key))
    return doc


def resolved_json(scenario: Scenario) -> str:
    """Stable JSON snapshot of a scenario with defaults filled in."""
    return json.dumps(scenario_to_dict(scenario), indent=2, allow_nan=False) + "\n"


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
        except RecursionError as exc:
            raise ConfigError(f"override {path!r} nests its value too deeply") from exc
        except ValueError as exc:  # an integer past the digit limit
            raise ConfigError(f"override {path!r}: {exc}") from exc
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
