"""Scenario configs: a full experiment description in one JSON document.

A scenario bundles plant parameters, predictor and controller settings,
the loss channel, simulation grid, cost weights, and the strategy list.
The records are the schema: ``Scenario``'s fields are the sections, and
a section's keys are its record's fields but the derived ones, each with
its order, its default or none if required, and a type that picks its
checker; parsing and ``scenario_to_dict`` both walk them.  ``ncsim.losses.LOSS_KEYS``
says which ``LossSpec`` keys each loss kind takes.  Parsing is strict:
unknown keys and wrong-typed values are rejected so a typo cannot
silently fall back to a default.  Each range rule is written once, in
the record that owns the key, which raises ``ConfigError`` naming it
(``loss.seed must be non-negative, got -1``); ``Scenario`` checks only
the rules that span two records.  The canonical form's JSON is stable
under reload, which makes resolved-config snapshots byte-reproducible.
"""

import json
import math
from typing import NamedTuple, Optional, Sequence

from .controller import ControllerConfig
from .errors import PATH_LIMIT, ConfigError, checked, clipped
from .losses import LOSS_KEYS, LOSS_KINDS, LossSpec
from .plant import TankParams, UncertaintySignal
from .predictor import PredictorConfig
from .runtime import STRATEGIES, CostWeights, SimSettings, check_strategies

# Predictor steps a run may ask for, checked when a scenario is built so
# that no input can ask for an unbounded run.  A loss predicts at most one
# buffer entry, or two under ``sim.doubled_age_offset`` (and never more
# than ``predictor.horizon``), so tank-reference needs at most 3600.
MAX_PREDICTOR_STEPS = 20_000_000


@checked
class Scenario(NamedTuple):
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
    strategies: tuple = STRATEGIES

    def _check(self) -> None:
        lo, hi = self.plant.state_domain
        setpoint = self.controller.setpoint
        for key, value in (("controller.setpoint", setpoint), ("sim.x0", self.sim.x0)):
            if not lo < value < hi:
                raise ConfigError(f"{key} {value!r} outside state domain ({lo!r}, {hi!r})")
        steps = self.sim.steps
        loss = self.loss
        if loss.kind == "trace" and not loss.wrap and len(loss.bits) < steps:
            raise ConfigError(
                f"loss.trace_path {clipped(loss.trace_path, PATH_LIMIT)} holds {len(loss.bits)} "
                f"bits, fewer than the {steps} steps of sim.duration {self.sim.duration!r}, and "
                "loss.wrap is false"
            )
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
                f"cost.m_steps {clipped(self.cost.m_steps)} exceeds the {steps} simulated steps"
            )
        check_strategies(self.strategies)


def _number(label: str, value) -> float:
    """A finite float; JSON admits NaN, Infinity and integers past float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{label} must be a number, got {clipped(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{label} must be finite, got {clipped(value)}")
    return number


def _integer(label: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{label} must be an integer, got {clipped(value)}")
    return value


def _boolean(label: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{label} must be a boolean, got {clipped(value)}")
    return value


def _string(label: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{label} must be a string, got {clipped(value)}")
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
                    f"{label} entries must be [time, value] number pairs, got {clipped(entry)}"
                )
            times.append(_number(label, entry[0]))
            values.append(_number(label, entry[1]))
        return UncertaintySignal(times=tuple(times), values=tuple(values))
    raise ConfigError(f"{label} must be a number or a list of pairs, got {clipped(value)}")


def _strategies(label: str, value) -> tuple:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ConfigError(f"{label} must be a list of strings")
    return tuple(value)


# The checker of each type a key may have.  A Scenario field of any other
# type is a section, held in a record of that type.
_CHECKERS = {
    float: _number, Optional[float]: _number, int: _integer, bool: _boolean,
    str: _string, Optional[str]: _string, UncertaintySignal: _theta, tuple: _strategies,
}


def _keys(record) -> list:
    """(name, type, required) for each key of a record type, in document
    order.  The keys are its fields but those it derives from them, such
    as ``LossSpec.bits``."""
    derived = getattr(record, "_derived", ())
    return [
        (name, record.__annotations__[name], name not in record._field_defaults)
        for name in record._fields
        if name not in derived
    ]


def _section_keys(record, loss_kind: str) -> list:
    """A section's keys: a loss key ``LOSS_KEYS`` gives to some kinds
    belongs to those kinds only."""
    per_kind = {key for keys in LOSS_KEYS.values() for key in keys} if record is LossSpec else ()
    return [k for k in _keys(record) if k[0] not in per_kind or k[0] in LOSS_KEYS[loss_kind]]


def _check_keys(section: str, data: dict, keys) -> None:
    allowed = [key for key, _, _ in keys]
    for key in data:
        if key not in allowed:
            label = f"{section}.{key}" if section else key
            raise ConfigError(f"unknown key {clipped(label, show=str)}")


# The sections a document may leave out, and what stands in for each.
_DEFAULT_SECTIONS = {"loss": {"kind": "none"}}


def _section(data: dict, name: str) -> dict:
    if name not in data:
        if name in _DEFAULT_SECTIONS:
            return _DEFAULT_SECTIONS[name]
        raise ConfigError(f"missing required key {name}")
    if not isinstance(data[name], dict):
        raise ConfigError(f"{name} section must be an object")
    return data[name]


def _given(section: str, data: dict, keys) -> dict:
    """The keys ``data`` gives, each checked for its type.  A missing
    optional key is left out, so the record's own default applies."""
    values = {}
    for key, kind, required in keys:
        label = f"{section}.{key}" if section else key
        if key in data:
            values[key] = _CHECKERS[kind](label, data[key])
        elif required:
            raise ConfigError(f"missing required key {label}")
    return values


def scenario_from_dict(data: dict) -> Scenario:
    """Parse and validate a scenario document.

    Raises ``ConfigError`` on unknown keys, missing required fields, or
    values of the wrong type or out of range, naming the offending key.
    Every value's type is checked before any record is built.
    """
    if not isinstance(data, dict):
        raise ConfigError("scenario document must be a JSON object")
    top = _keys(Scenario)
    _check_keys("", data, top)
    loss = _section(data, "loss")
    if "kind" not in loss:
        raise ConfigError("missing required key loss.kind")
    loss_kind = _string("loss.kind", loss["kind"])
    if loss_kind not in LOSS_KINDS:
        raise ConfigError(f"loss.kind must be one of {LOSS_KINDS}, got {clipped(loss_kind)}")
    sections = {}
    for name, record, _ in top:
        if record not in _CHECKERS:
            section = _section(data, name)
            keys = _section_keys(record, loss_kind)
            _check_keys(name, section, keys)
            sections[name] = record, _given(name, section, keys)
    top_level = _given("", data, [key for key in top if key[0] not in sections])
    records = {name: record(**given) for name, (record, given) in sections.items()}
    return Scenario(**records, **top_level)


def _plain(value):
    if isinstance(value, UncertaintySignal):
        return [list(pair) for pair in zip(value.times, value.values)]
    return list(value) if isinstance(value, tuple) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    """Canonical plain-dict form; reloading it reproduces the scenario."""
    doc: dict = {}
    for name, record, _ in _keys(Scenario):
        value = getattr(scenario, name)
        if record in _CHECKERS:
            doc[name] = _plain(value)
        else:
            keys = _section_keys(record, scenario.loss.kind)
            doc[name] = {key: _plain(getattr(value, key)) for key, _, _ in keys}
    return doc


def json_text(data) -> str:
    """``data`` as the indented, strictly finite JSON text of every artifact."""
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


def resolved_json(scenario: Scenario) -> str:
    """Stable JSON snapshot of a scenario with defaults filled in."""
    return json_text(scenario_to_dict(scenario))


def apply_overrides(data: dict, assignments: Sequence[str]) -> dict:
    """Apply ``section.key=value`` overrides to a scenario document.

    Values are parsed as JSON when possible and fall back to bare
    strings, so ``loss.kind=bernoulli`` and ``predictor.gamma=0.2`` both
    read naturally.  Intermediate path components must already exist,
    or be a section the document may leave out, which then starts from
    its default; the final key may be new (it is validated on reparse).
    """
    result = json.loads(json.dumps(data))
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"override {clipped(assignment)} must look like section.key=value")
        path, raw = assignment.split("=", 1)
        parts = path.split(".")
        if not all(parts):
            raise ConfigError(f"override {clipped(assignment)} has an empty path component")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as exc:
            raise ConfigError(f"override {clipped(path)} nests its value too deeply") from exc
        except ValueError as exc:  # an integer past the digit limit
            raise ConfigError(f"override {clipped(path)}: {exc}") from exc
        if len(parts) > 1 and parts[0] in _DEFAULT_SECTIONS:
            result.setdefault(parts[0], dict(_DEFAULT_SECTIONS[parts[0]]))
        node = result
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                raise ConfigError(f"override path {clipped(path)} does not reach a config section")
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
