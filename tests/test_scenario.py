import json
import math
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ncsim.runtime
from ncsim.cli import EXIT_CONFIG, EXIT_OK, main
from ncsim.losses import LOSS_KEYS, LOSS_KINDS
from ncsim.runtime import MAX_STEPS, MAX_TRUTH_SUBSTEPS, PREDICTIVE_BUFFER, run_scenario
from ncsim.scenario import _CHECKERS, MAX_PREDICTOR_STEPS, Scenario, _keys
from ncsim import (
    ConfigError,
    ControllerConfig,
    CostWeights,
    LossSpec,
    PredictorConfig,
    STRATEGIES,
    SamplePair,
    SimSettings,
    SystemDynamics,
    TankParams,
    UncertaintySignal,
    apply_overrides,
    builtin_scenario,
    builtin_scenario_dict,
    resolved_json,
    scenario_from_dict,
    scenario_to_dict,
)

from conftest import json_values


GE_SPEC = {"kind": "gilbert-elliott", "p_g2b": 0.1, "p_b2g": 0.4, "loss_in_bad": 1.0}


def first(model, n=6):
    return [model.sample_reception(k) for k in range(n)]


class TestLossSpec:
    def test_builds_each_kind(self, tmp_path):
        assert first(LossSpec(kind="none").build()) == [1] * 6
        bern = LossSpec(kind="bernoulli", p=0.3, seed=5).build()
        assert first(bern) == first(LossSpec(kind="bernoulli", p=0.3).build(5))
        ge = LossSpec(
            kind="gilbert-elliott", p_g2b=0.1, p_b2g=0.4, loss_in_bad=0.0
        ).build()
        assert first(ge, 200) == [1] * 200
        trace_file = tmp_path / "bits.txt"
        trace_file.write_text("1\n0\n")
        spec = LossSpec(kind="trace", trace_path=str(trace_file), wrap=True)
        assert spec.bits == (1, 0)
        assert first(spec.build()) == [1, 0, 1, 0, 1, 0]

    def test_build_seed_override(self):
        spec = LossSpec(kind="bernoulli", p=0.5, seed=3)
        other = LossSpec(kind="bernoulli", p=0.5, seed=7)
        bits = {seed: first(spec.build(seed), 64) for seed in (3, 7)}
        assert first(spec.build(), 64) == bits[3]
        assert first(other.build(), 64) == bits[7]
        assert bits[3] != bits[7]


class TestBuiltinScenario:
    def test_reference_scenario_parses(self):
        sc = builtin_scenario("tank-reference")
        assert sc.controller.setpoint == 150_100.0
        assert sc.predictor.gamma == 0.175
        assert sc.predictor.horizon == 10
        assert sc.sim.theta.times == (0.0, 1800.0)
        assert sc.sim.theta.values == (0.175, 0.185)
        assert sc.sim.steps == 1800
        assert sc.strategies == STRATEGIES
        assert sc.loss.kind == "none"
        assert sc.loss.seed == 42

    def test_dict_copies_are_independent(self):
        first = builtin_scenario_dict("tank-reference")
        first["sim"]["duration"] = 2.0
        second = builtin_scenario_dict("tank-reference")
        assert second["sim"]["duration"] == 3600.0

    def test_unknown_name_lists_builtins(self):
        with pytest.raises(ConfigError, match="tank-reference"):
            builtin_scenario_dict("tank-atmospheric")


class TestScenarioRoundTrip:
    def test_dict_round_trip_preserves_scenario(self):
        sc = builtin_scenario("tank-reference")
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_resolved_json_is_stable(self):
        sc = builtin_scenario("tank-reference")
        text = resolved_json(sc)
        assert text.endswith("\n")
        again = resolved_json(scenario_from_dict(json.loads(text)))
        assert again == text

    def test_scalar_theta_normalizes_to_single_pair(self, small_scenario_dict):
        doc = small_scenario_dict({"sim.theta": 0.2})
        sc = scenario_from_dict(doc)
        assert sc.sim.theta == UncertaintySignal.constant(0.2)
        assert scenario_to_dict(sc)["sim"]["theta"] == [[0.0, 0.2]]

    def test_loss_section_defaults_to_no_loss(self, small_scenario_dict):
        doc = small_scenario_dict()
        del doc["loss"]
        sc = scenario_from_dict(doc)
        assert sc.loss == LossSpec(kind="none", seed=0)


# resolved_json of tank-reference with each loss kind, around its loss section.
SNAPSHOT_HEAD = """{
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
    "domain_margin": 0.001
  },
  "predictor": {
    "delta": 2.0,
    "gamma": 0.175,
    "horizon": 10
  },
  "controller": {
    "setpoint": 150100.0,
    "lgv_threshold": 1e-09,
    "u_min": 0.0,
    "u_max": 1.0
  },
"""
SNAPSHOT_TAIL = """  "sim": {
    "x0": 110000.0,
    "t_s": 2.0,
    "duration": 3600.0,
    "theta": [
      [
        0.0,
        0.175
      ],
      [
        1800.0,
        0.185
      ]
    ],
    "n_truth": 20,
    "doubled_age_offset": false
  },
  "cost": {
    "q_c": 1.0,
    "r_c": 1000000.0,
    "m_steps": 1800,
    "raw_state": false
  },
  "strategies": [
    "predictive-buffer",
    "hold-last-value",
    "zero-input"
  ]
}
"""
SNAPSHOT_LOSS = {
    "none": ({"kind": "none", "seed": 42}, """  "loss": {
    "kind": "none",
    "seed": 42
  },
"""),
    "bernoulli": ({"p": 0.3, "seed": 7, "kind": "bernoulli"}, """  "loss": {
    "kind": "bernoulli",
    "seed": 7,
    "p": 0.3
  },
"""),
    "gilbert-elliott": (
        {"kind": "gilbert-elliott", "loss_in_bad": 0.8, "p_b2g": 0.3, "p_g2b": 0.05, "seed": 3},
        """  "loss": {
    "kind": "gilbert-elliott",
    "seed": 3,
    "p_g2b": 0.05,
    "p_b2g": 0.3,
    "loss_in_bad": 0.8
  },
""",
    ),
    "trace": ({"wrap": True, "trace_path": "bits.txt", "kind": "trace"}, """  "loss": {
    "kind": "trace",
    "seed": 0,
    "trace_path": "bits.txt",
    "wrap": true
  },
"""),
}


class TestResolvedSnapshot:
    @pytest.mark.parametrize("kind", sorted(SNAPSHOT_LOSS))
    def test_text_is_pinned_per_loss_kind(self, kind, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bits.txt").write_text("1\n0\n")
        loss, block = SNAPSHOT_LOSS[kind]
        doc = builtin_scenario_dict("tank-reference")
        doc["loss"] = loss
        assert resolved_json(scenario_from_dict(doc)) == SNAPSHOT_HEAD + block + SNAPSHOT_TAIL


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    # as many bits as the longest valid document below has steps, so that
    # a trace that does not wrap covers every run
    path = tmp_path_factory.mktemp("trace") / "bits.txt"
    path.write_text("1\n0\n0\n" * 20)
    return str(path)


def numbers(low, high):
    """JSON numbers in [low, high], integers included."""
    return st.one_of(
        st.floats(min_value=low, max_value=high), st.integers(min_value=int(low), max_value=int(high))
    ).filter(lambda v: low <= v <= high)


@st.composite
def scenario_documents(draw, trace_path):
    """Valid scenario documents, optional keys and sections left out at random."""

    def maybe(section, key, strategy):
        if draw(st.booleans()):
            section[key] = draw(strategy)

    plant = {key: draw(numbers(1e-3, 10.0)) for key in ("alpha1", "alpha2", "a1", "a2", "rho", "vol")}
    plant.update(p1=draw(numbers(190_000, 200_000)), p2=draw(numbers(0, 100_000)))
    plant["m2"] = draw(numbers(0, 1))
    maybe(plant, "domain_margin", numbers(0, 100))
    controller = {"setpoint": draw(numbers(110_000, 180_000))}
    maybe(controller, "lgv_threshold", numbers(1e-12, 1.0))
    maybe(controller, "u_min", numbers(-1, 0))
    maybe(controller, "u_max", numbers(1, 2))
    t_s = draw(st.sampled_from([0.1, 0.5, 2, 2.0]))
    steps = draw(st.integers(min_value=1, max_value=40))
    theta = draw(
        st.one_of(
            numbers(-1, 1),
            st.lists(st.tuples(numbers(0, 100), numbers(-1, 1)), min_size=1, max_size=4,
                     unique_by=lambda pair: float(pair[0])).map(
                lambda pairs: [list(pair) for pair in sorted(pairs, key=lambda p: float(p[0]))]
            ),
        )
    )
    sim = {"x0": draw(numbers(110_000, 180_000)), "t_s": t_s, "duration": steps * t_s, "theta": theta}
    maybe(sim, "n_truth", st.integers(min_value=1, max_value=30))
    maybe(sim, "doubled_age_offset", st.booleans())
    cost = {
        "q_c": draw(numbers(0, 10)),
        "r_c": draw(numbers(0, 1e6)),
        "m_steps": draw(st.integers(min_value=1, max_value=steps)),
    }
    maybe(cost, "raw_state", st.booleans())
    doc = {
        "plant": plant,
        "predictor": {
            "delta": draw(numbers(0.01, 4)),
            "gamma": draw(numbers(-0.99, 0.99)),
            "horizon": draw(st.integers(min_value=1, max_value=20)),
        },
        "controller": controller,
        "sim": sim,
        "cost": cost,
    }
    kind = draw(st.sampled_from(["omitted", "none", "bernoulli", "gilbert-elliott", "trace"]))
    if kind != "omitted":
        loss = {"kind": kind}
        if kind == "bernoulli":
            loss["p"] = draw(numbers(0, 1))
        elif kind == "gilbert-elliott":
            loss.update({key: draw(numbers(0, 1)) for key in ("p_g2b", "p_b2g", "loss_in_bad")})
        elif kind == "trace":
            loss["trace_path"] = trace_path
            maybe(loss, "wrap", st.booleans())
        maybe(loss, "seed", st.integers(min_value=0, max_value=2**31))
        doc["loss"] = loss
    maybe(doc, "strategies", st.permutations(list(STRATEGIES)).flatmap(
        lambda names: st.integers(min_value=1, max_value=3).map(lambda n: names[:n])
    ))
    return doc


class TestResolvedRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_snapshot_reparses_to_itself(self, trace_file, data):
        sc = scenario_from_dict(data.draw(scenario_documents(trace_file)))
        text = resolved_json(sc)
        again = scenario_from_dict(json.loads(text))
        assert again == sc
        assert resolved_json(again) == text


class TestStrictParsing:
    @pytest.mark.parametrize("doc", [[], None, "x"])
    def test_document_must_be_an_object(self, doc):
        with pytest.raises(ConfigError) as raised:
            scenario_from_dict(doc)
        assert str(raised.value) == "scenario document must be a JSON object"


REFERENCE = builtin_scenario("tank-reference")
NAN, INF = math.nan, math.inf
GE_KEYS = {
    "loss.kind": "gilbert-elliott", "loss.p_g2b": 0.1, "loss.p_b2g": 0.4, "loss.loss_in_bad": 1.0,
}
# The valid record that the rows of a record outside any scenario change.
STANDALONE = {
    SystemDynamics: SystemDynamics(abs, abs, abs, (0.0, 1.0)),
    SamplePair: SamplePair((1.0,), (1.0,)),
}

# Every config rule, one row each: (owner, changed keys, error type, exact
# text).  The owner is the record that checks the rule, ``Scenario`` for a
# rule that spans two records, or None for a rule of the parser's own.  A
# key is a path from tank-reference to a field, or from the ``STANDALONE``
# record.  A rule is added as one row.
RULES = [
    *[(TankParams, {f"plant.{key}": value}, ConfigError, f"plant.{key} must be positive")
      for key in ("alpha1", "alpha2", "a1", "a2", "rho", "vol") for value in (0.0, -1.0, NAN)],
    (TankParams, {"plant.alpha1": -0.1}, ConfigError, "plant.alpha1 must be positive"),
    (TankParams, {"plant.vol": -2.0}, ConfigError, "plant.vol must be positive"),
    *[(TankParams, {"plant.m2": value}, ConfigError, f"plant.m2 must lie in [0, 1], got {value!r}")
      for value in (1.5, 1.01, -0.01, NAN)],
    *[(TankParams, {"plant.p2": value}, ConfigError, "plant.p2 must be non-negative")
      for value in (-1.0, -5.0, NAN)],
    *[(TankParams, {"plant.p1": value}, ConfigError,
       f"plant.p1 must exceed p2, got p1={value!r}, p2=100000.0")
      for value in (50_000.0, 90_000.0, NAN)],
    (TankParams, {"plant.domain_margin": -1.0}, ConfigError,
     "plant.domain_margin must be non-negative"),
    (TankParams, {"plant.domain_margin": NAN}, ConfigError,
     "plant.domain_margin must be non-negative"),
    (TankParams, {"plant.domain_margin": 50_000.0}, ConfigError,
     "plant.domain_margin leaves an empty state domain"),
    *[(PredictorConfig, {"predictor.delta": value}, ConfigError,
       f"predictor.delta must be positive, got {value!r}") for value in (0.0, -1.0, NAN)],
    *[(PredictorConfig, {"predictor.gamma": value}, ConfigError,
       f"predictor.gamma must lie in (-1, 1), got {value!r}") for value in (1.0, -1.0, 1.5, NAN)],
    *[(PredictorConfig, {"predictor.horizon": value}, ConfigError,
       f"predictor.horizon must be >= 1, got {value!r}") for value in (0, NAN)],
    *[(ControllerConfig, {"controller.setpoint": value}, ConfigError,
       f"controller.setpoint must be finite, got {value!r}") for value in (NAN, INF, -INF)],
    *[(ControllerConfig, {"controller.lgv_threshold": value}, ConfigError,
       f"controller.lgv_threshold must be positive, got {value!r}") for value in (0.0, -1e-9, NAN)],
    *[(ControllerConfig, {f"controller.{key}": value for key, value in bounds.items()}, ConfigError,
       f"controller.u_min must be below u_max, got {shown}")
      for bounds, shown in (
          ({"u_min": 2.0}, "u_min=2.0, u_max=1.0"),
          ({"u_min": 1.0, "u_max": 1.0}, "u_min=1.0, u_max=1.0"),
          ({"u_max": -1.0}, "u_min=0.0, u_max=-1.0"),
          ({"u_max": NAN}, "u_min=0.0, u_max=nan"),
      )],
    *[(LossSpec, {"loss.kind": value}, ConfigError,
       f"loss.kind must be one of {LOSS_KINDS}, got {value!r}") for value in ("burst", "mystery")],
    *[(LossSpec, {"loss.seed": value}, ConfigError,
       f"loss.seed must be non-negative, got {value!r}") for value in (-1, NAN)],
    (LossSpec, {"loss.kind": "bernoulli"}, ConfigError, "loss.p is required for bernoulli losses"),
    (LossSpec, {"loss.kind": "trace"}, ConfigError, "loss.trace_path is required for trace losses"),
    (LossSpec, {"loss.kind": "gilbert-elliott", "loss.p_g2b": 0.1, "loss.p_b2g": 0.4}, ConfigError,
     "loss.loss_in_bad is required for gilbert-elliott losses"),
    *[(LossSpec, {"loss.kind": "bernoulli", "loss.p": value}, ConfigError,
       f"loss.p must lie in [0, 1], got {value!r}") for value in (1.5, -0.1, 1.1, NAN)],
    *[(LossSpec, {**GE_KEYS, f"loss.{key}": value}, ConfigError,
       f"loss.{key} must lie in [0, 1], got {value!r}")
      for key, value in (("p_g2b", -0.1), ("p_g2b", 1.5), ("p_b2g", 2.0), ("loss_in_bad", -0.5),
                         ("loss_in_bad", 1.1))],
    (LossSpec, {"loss.kind": "trace", "loss.trace_path": "/nonexistent/bits.txt"}, ConfigError,
     "loss.trace_path '/nonexistent/bits.txt' is not a readable trace: "
     "[Errno 2] No such file or directory: '/nonexistent/bits.txt'"),
    (SimSettings, {"sim.x0": INF}, ConfigError, "sim.x0 must be finite, got inf"),
    (SimSettings, {"sim.t_s": 0.0}, ConfigError, "sim.t_s must be positive"),
    (SimSettings, {"sim.t_s": NAN}, ConfigError, "sim.t_s must be positive"),
    *[(SimSettings, {f"sim.{key}": value for key, value in grid.items()}, ConfigError,
       f"sim.duration {shown} asks for more than {MAX_STEPS} steps")
      for grid, shown in (
          ({"duration": 1e12}, "1000000000000.0 / sim.t_s 2.0"),
          ({"duration": NAN}, "nan / sim.t_s 2.0"),
          ({"t_s": 1e-300}, "3600.0 / sim.t_s 1e-300"),
          ({"duration": 1e300, "t_s": 1e-10}, "1e+300 / sim.t_s 1e-10"),
      )],
    *[(SimSettings, {"sim.duration": value}, ConfigError,
       f"sim.duration {value!r} must be a positive whole multiple of sim.t_s")
      for value in (121.0, 0.0)],
    *[(SimSettings, {"sim.n_truth": value}, ConfigError, f"sim.n_truth must be >= 1, got {value!r}")
      for value in (0, NAN)],
    # t_s / n_truth underflows to 0.0, which the RK4 kernel would reject mid-run
    (SimSettings, {"sim.t_s": 5e-324, "sim.duration": 5e-324, "sim.n_truth": 2}, ConfigError,
     "sim.t_s 5e-324 / sim.n_truth 2 must give a positive truth step"),
    *[(SimSettings, {"sim.n_truth": value}, ConfigError,
       f"sim.n_truth {value} over 1800 steps asks for more than {MAX_TRUTH_SUBSTEPS} "
       "truth substeps") for value in (10**8, 10**309)],
    (UncertaintySignal, {"sim.theta.times": (0.0,)}, ConfigError,
     "sim.theta: times and values must be equally sized and non-empty"),
    (UncertaintySignal, {"sim.theta.times": (), "sim.theta.values": ()}, ConfigError,
     "sim.theta: times and values must be equally sized and non-empty"),
    (UncertaintySignal, {"sim.theta.values": (0.1, NAN)}, ConfigError,
     "sim.theta: schedule entries must be finite"),
    (UncertaintySignal, {"sim.theta.times": (1.0, 1.0), "sim.theta.values": (0.1, 0.2)},
     ConfigError, "sim.theta: schedule times must be strictly increasing"),
    *[(CostWeights, {f"cost.{key}": value}, ConfigError,
       f"cost.{key} must be non-negative, got {value!r}")
      for key in ("q_c", "r_c") for value in (-1.0, NAN)],
    *[(CostWeights, {"cost.m_steps": value}, ConfigError,
       f"cost.m_steps must be >= 1, got {value!r}") for value in (0, NAN)],
    *[(Scenario, {key: value}, ConfigError,
       f"{key} {value!r} outside state domain (100000.001, 199999.999)")
      for key, value in (("controller.setpoint", 250_000.0), ("sim.x0", 50_000.0),
                         ("sim.x0", 99_000.0))],
    (Scenario, {"cost.m_steps": 1801}, ConfigError,
     "cost.m_steps 1801 exceeds the 1800 simulated steps"),
    *[(Scenario, predictor, ConfigError,
       f"predictor.delta {delta!r} gives {per_input} predictor steps per interval "
       "(sim.t_s / predictor.delta), which over 1800 steps of up to min(predictor.horizon, 2) "
       f"= 2 predicted entries may ask for more than {MAX_PREDICTOR_STEPS} predictor steps")
      for predictor, delta, per_input in (
          ({"predictor.delta": 1e-6}, 1e-6, "2e+06"),
          ({"predictor.delta": 1e-300}, 1e-300, "2e+300"),
          # 10 000 predictor steps per interval, at two entries per interval
          ({"predictor.horizon": 2, "predictor.delta": 2e-4}, 2e-4, "10000"),
      )],
    *[(Scenario, {"strategies": value}, ConfigError,
       f"strategies: unknown strategy {value[0]!r}, expected one of {STRATEGIES}")
      for value in (("hold",), ("teleport",))],
    (Scenario, {"strategies": ("zero-input", "zero-input")}, ConfigError,
     "strategies must be unique"),
    (Scenario, {"strategies": ()}, ConfigError, "strategies must be non-empty"),
    (SystemDynamics, {"state_domain": (1.0, 1.0)}, ValueError,
     "state_domain must be a finite interval, got (1.0, 1.0)"),
    (SamplePair, {"measured": (1.0, 2.0)}, ValueError,
     "predicted and measured must be equally sized and non-empty"),
    (SamplePair, {"measured": (NAN,)}, ValueError, "samples must be finite"),
    *[(None, {key: value}, ConfigError, f"{key} must be finite, got {value!r}")
      for key, value in (("sim.duration", INF), ("sim.theta", NAN), ("cost.q_c", NAN),
                         ("plant.rho", NAN), ("controller.u_min", -INF),
                         ("controller.setpoint", NAN), ("sim.x0", INF))],
    (None, {"sim.theta": 10**400}, ConfigError,
     f"sim.theta must be finite, got {str(10**400)[:40]}... (401 characters)"),
    (None, {"sim.theta": [[0.0, INF]]}, ConfigError, "sim.theta must be finite, got inf"),
    (None, {"loss": {"seed": 1}}, ConfigError, "missing required key loss.kind"),
    *[(None, {key: 1}, ConfigError, f"unknown key {key}")
      for key in ("extra", "plant.bogus", "predictor.bogus", "controller.bogus", "sim.bogus",
                  "cost.bogus")],
    (None, {"sim.x0": True}, ConfigError, "sim.x0 must be a number, got True"),
    (None, {"predictor.horizon": 2.5}, ConfigError,
     "predictor.horizon must be an integer, got 2.5"),
    (None, {"sim.doubled_age_offset": "yes"}, ConfigError,
     "sim.doubled_age_offset must be a boolean, got 'yes'"),
    *[(None, {"strategies": value}, ConfigError, "strategies must be a list of strings")
      for value in ("zero-input", [1, 2])],
    *[(None, {"sim.theta": value}, ConfigError,
       f"sim.theta must be a number or a list of pairs, got {value!r}") for value in (True, "0.1")],
    *[(None, {"sim.theta": [[0.0, 0.1], entry]}, ConfigError,
       f"sim.theta entries must be [time, value] number pairs, got {entry!r}")
      for entry in ([1.0], [1.0, "x"])],
]


def broken(owner, changes):
    """``(record, fields)``: the valid record of type ``owner`` that the
    paths of ``changes`` reach, and the fields they change on it.  For
    ``Scenario`` a changed section is its record with the keys replaced."""
    if owner is Scenario:
        fields = {}
        for path, value in changes.items():
            name, _, key = path.partition(".")
            section = fields.get(name, getattr(REFERENCE, name))
            fields[name] = section._replace(**{key: value}) if key else value
        return REFERENCE, fields
    record = STANDALONE.get(owner, REFERENCE)
    *walk, _ = next(iter(changes)).split(".")
    for name in walk:
        record = getattr(record, name)
    return record, {path.rpartition(".")[2]: value for path, value in changes.items()}


def assignments(owner, changes):
    """``changes`` as ``--set`` assignments on a scenario document, or None
    where a document cannot carry them to ``owner``'s check: its record is
    no part of a document, its schedule's times and values differ in size
    (a document writes [time, value] pairs), or a value is NaN or infinite,
    which the parser rejects first."""
    if owner in STANDALONE:
        return None
    if owner is UncertaintySignal:
        record, fields = broken(owner, changes)
        times, values = {**record._asdict(), **fields}.values()
        if len(times) != len(values):
            return None
        changes = {"sim.theta": list(zip(times, values))}
    try:
        return [f"{path}={json.dumps(value, allow_nan=owner is None)}"
                for path, value in changes.items()]
    except ValueError:
        return None


def _rule_id(owner, changes, error, text):
    shown = (f"-{path}={value}" for path, value in changes.items())
    return "".join([getattr(owner, "__name__", "parser"), *shown])


def _rows(rows):
    return pytest.mark.parametrize(
        "owner,changes,error,text", rows, ids=[_rule_id(*row) for row in rows])


@_rows([row for row in RULES if row[0] is not None])
def test_record_raises_the_rule_text(owner, changes, error, text):
    """The record's constructor and ``_replace`` raise the row's error."""
    record, fields = broken(owner, changes)
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), **fields})
    with pytest.raises(error) as replaced:
        record._replace(**fields)
    for raised in (built, replaced):
        assert (type(raised.value), str(raised.value)) == (error, text)


@_rows([row for row in RULES if assignments(*row[:2]) is not None])
def test_document_raises_the_rule_text(tmp_path, capsys, owner, changes, error, text):
    """Where a document can carry the row's values, ``ncsim run`` prints
    the row's text and exits 2 before it makes its output directory.  The
    command parses through ``apply_overrides`` and ``scenario_from_dict``
    and reports only a ``ConfigError``, so the exact line pins the
    parser's error type and text too."""
    sets = assignments(owner, changes)
    out = tmp_path / "out"
    argv = ["run", "tank-reference", "--out", str(out)]
    assert main(argv + [arg for assignment in sets for arg in ("--set", assignment)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: {text}\n")
    assert not out.exists()


# Every key a loss section may hold, across the kinds.
LOSS_SECTION_KEYS = ("kind", "seed") + tuple(key for keys in LOSS_KEYS.values() for key in keys)


@st.composite
def mutated_documents(draw, base):
    """``base`` with one to four keys replaced, added or dropped, at the top
    level or inside a section, and any JSON value put in: loss kinds and
    integers past float range among them."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        name = draw(st.sampled_from(sorted(base)) | st.text())
        value = draw(json_values | st.sampled_from(LOSS_KINDS) | st.integers(-(10**400), 10**400))
        section = doc.get(name)
        if isinstance(section, dict) and draw(st.booleans()):
            known = sorted(set(section) | set(LOSS_SECTION_KEYS if name == "loss" else ()))
            key = draw(st.sampled_from(known) | st.text() if known else st.text())
            target = section
        else:
            key, target = name, doc
        if draw(st.booleans()):
            target[key] = value
        else:
            target.pop(key, None)
    return doc


class TestAnyDocument:
    """Any document parses or raises ``ConfigError``, never another error."""

    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_parses_or_raises_config_error(self, small_scenario_dict, data):
        doc = data.draw(mutated_documents(small_scenario_dict()))
        try:
            scenario_from_dict(doc)
        except ConfigError:
            pass


class TestCrossFieldValidation:
    @pytest.mark.parametrize("lines,wrap,ok", [(59, False, False), (60, False, True), (1, True, True)])
    def test_trace_that_does_not_wrap_covers_the_run(
        self, small_scenario_dict, tmp_path, lines, wrap, ok
    ):
        path = tmp_path / "bits.txt"
        path.write_text("1\n" * lines)
        loss = {"kind": "trace", "trace_path": str(path), "wrap": wrap}
        doc = small_scenario_dict({"loss": loss})
        if ok:
            assert len(scenario_from_dict(doc).loss.bits) == lines
            return
        text = (
            f"loss.trace_path {str(path)!r} holds 59 bits, fewer than the 60 steps of "
            "sim.duration 120.0, and loss.wrap is false"
        )
        with pytest.raises(ConfigError) as parsed:
            scenario_from_dict(doc)
        assert str(parsed.value) == text
        # the rule spans the loss and sim records, so Scenario owns it
        sc = scenario_from_dict(small_scenario_dict())
        with pytest.raises(ConfigError) as replaced:
            sc._replace(loss=LossSpec(**loss))
        assert str(replaced.value) == text

    def test_duration_tolerates_float_noise(self, small_scenario_dict):
        doc = small_scenario_dict({"sim.t_s": 0.1, "sim.duration": 0.3, "cost.m_steps": 3})
        assert scenario_from_dict(doc).sim.steps == 3


class TestRunSizeCaps:
    def test_reference_scenario_far_inside_caps(self):
        sc = builtin_scenario("tank-reference")
        steps = sc.sim.steps
        assert 100 * steps <= MAX_STEPS
        assert 100 * steps * sc.sim.n_truth <= MAX_TRUTH_SUBSTEPS
        entries = min(sc.predictor.horizon, 2)
        assert 100 * steps * sc.predictor.steps_per_input(sc.sim.t_s) * entries <= MAX_PREDICTOR_STEPS

    def test_caps_are_inclusive(self, small_scenario_dict):
        # parsing only: nothing runs
        # two predicted entries per interval of 10 predictor steps each
        per_input = MAX_PREDICTOR_STEPS // MAX_STEPS // 2
        at_cap = {
            "sim.t_s": 1.0, "sim.duration": float(MAX_STEPS), "sim.n_truth": 20,
            "predictor.delta": 1.0 / per_input,
        }
        sc = scenario_from_dict(small_scenario_dict(at_cap))
        assert sc.sim.steps == MAX_STEPS
        assert sc.sim.steps * sc.predictor.steps_per_input(sc.sim.t_s) * 2 == MAX_PREDICTOR_STEPS
        for path, value in (
            ("sim.duration", MAX_STEPS + 1.0),
            ("sim.n_truth", 21),
            ("predictor.delta", 1.0 / (per_input + 1)),
        ):
            with pytest.raises(ConfigError, match=path):
                scenario_from_dict(small_scenario_dict(dict(at_cap, **{path: value})))

    def test_long_horizon_is_not_charged_per_entry(self):
        # at most two predicted entries per interval, however long the buffer
        doc = apply_overrides(
            builtin_scenario_dict("tank-reference"), ["predictor.delta=0.2", "predictor.horizon=1200"]
        )
        assert scenario_from_dict(doc).predictor.horizon == 1200
        doc["predictor"]["horizon"] = 10**6
        scenario_from_dict(doc)

    @pytest.mark.parametrize("horizon", [1, 40])
    def test_predicted_steps_stay_within_the_bound(self, small_scenario_dict, monkeypatch, horizon):
        grown = []
        predict_step = ncsim.runtime.predict_step

        def counting(cfg, dynamics, xhat, u, steps):
            grown.append(steps)
            return predict_step(cfg, dynamics, xhat, u, steps)

        monkeypatch.setattr(ncsim.runtime, "predict_step", counting)
        sc = scenario_from_dict(small_scenario_dict({
            # gamma = theta * delta / vol, as tank-reference sets it for its delta
            "predictor.delta": 0.5, "predictor.gamma": 0.04375, "predictor.horizon": horizon,
            "sim.doubled_age_offset": True,
            "loss": {"kind": "bernoulli", "p": 0.8, "seed": 3},
        }))
        per_input = sc.predictor.steps_per_input(sc.sim.t_s)
        records = []
        run_scenario(sc, PREDICTIVE_BUFFER, records)
        losses = sum(1 for r in records if not r.s)
        bound = sc.sim.steps * per_input * min(horizon, 2)
        assert sum(grown) <= losses * per_input * min(horizon, 2) <= bound
        if horizon > 2:
            # the doubled offset does predict past one entry per loss
            assert sum(grown) > losses * per_input

    def test_infinite_substep_ratio_is_one_step(self, small_scenario_dict):
        sc = scenario_from_dict(small_scenario_dict({"predictor.delta": 5e-324}))
        assert sc.predictor.steps_per_input(sc.sim.t_s) == 1


# The keys a document may leave out; the records' defaults fill them in.
OPTIONAL_KEYS = (
    "plant.domain_margin", "controller.lgv_threshold", "controller.u_min", "controller.u_max",
    "loss.seed", "loss.wrap", "sim.n_truth", "sim.doubled_age_offset", "cost.raw_state",
    "strategies",
)


def _document_keys():
    """(path, type, required) of every key a document may hold, top level
    and sections alike, read from the records through ``_keys``."""
    for name, record, required in _keys(Scenario):
        if record in _CHECKERS:
            yield name, record, required
        else:
            for key, kind, key_required in _keys(record):
                yield f"{name}.{key}", kind, key_required


class TestRecordsAreTheSchema:
    def test_scenario_fields_are_the_sections_and_strategies(self):
        fields = [name for name, _, _ in _keys(Scenario)]
        assert fields == ["plant", "predictor", "controller", "loss", "sim", "cost", "strategies"]

    def test_every_key_has_a_checker(self):
        for path, kind, _ in _document_keys():
            assert kind in _CHECKERS, path

    def test_optional_keys_are_the_keys_with_a_default(self):
        # an Optional key defaults to None: only some loss kinds take it,
        # and LossSpec requires it of them
        defaulted = {
            path for path, kind, required in _document_keys()
            if not required and type(None) not in typing.get_args(kind)
        }
        assert defaulted == set(OPTIONAL_KEYS)

    @pytest.mark.parametrize("loss", [None, {"kind": "bernoulli", "p": 0.3}, GE_SPEC, "trace"])
    def test_leaving_out_optional_keys_gives_the_records_defaults(
        self, small_scenario_dict, trace_file, loss
    ):
        doc = small_scenario_dict()
        doc["loss"] = {"kind": "trace", "trace_path": trace_file} if loss == "trace" else loss
        if loss is None:
            del doc["loss"]
        for path in OPTIONAL_KEYS:
            section, _, key = path.partition(".")
            (doc.get(section, {}) if key else doc).pop(key or section, None)
        sc = scenario_from_dict(doc)
        assert sc.strategies == STRATEGIES
        for name, record_type, _ in _keys(Scenario)[:-1]:
            record = getattr(sc, name)
            required = {
                key: getattr(record, key)
                for key, _, _ in _keys(record_type)
                if f"{name}.{key}" not in OPTIONAL_KEYS and getattr(record, key) is not None
            }
            assert record == record_type(**required), name


class TestStepsPerInput:
    @pytest.mark.parametrize(
        "delta,expected", [(2.0, 1), (0.5, 4), (10.0, 1), (0.3, 1), (1.0, 2)]
    )
    def test_substep_rule(self, small_scenario_dict, delta, expected):
        sc = scenario_from_dict(small_scenario_dict({"predictor.delta": delta}))
        assert sc.predictor.steps_per_input(sc.sim.t_s) == expected


class TestApplyOverrides:
    def test_json_values_and_bare_strings(self, small_scenario_dict):
        doc = small_scenario_dict()
        out = apply_overrides(
            doc,
            [
                "predictor.gamma=0.2",
                "loss.kind=bernoulli",
                "loss.p=0.3",
                "sim.doubled_age_offset=true",
                'strategies=["zero-input"]',
            ],
        )
        assert out["predictor"]["gamma"] == 0.2
        assert out["loss"]["kind"] == "bernoulli"
        assert out["loss"]["p"] == 0.3
        assert out["sim"]["doubled_age_offset"] is True
        assert out["strategies"] == ["zero-input"]
        sc = scenario_from_dict(out)
        assert sc.loss.p == 0.3

    def test_later_assignment_wins(self, small_scenario_dict):
        out = apply_overrides(
            small_scenario_dict(), ["predictor.gamma=0.1", "predictor.gamma=0.2"]
        )
        assert out["predictor"]["gamma"] == 0.2

    def test_original_document_untouched(self, small_scenario_dict):
        doc = small_scenario_dict()
        apply_overrides(doc, ["predictor.gamma=0.99"])
        assert doc["predictor"]["gamma"] == 0.175

    def test_theta_scalar_override_reparses(self, small_scenario_dict):
        out = apply_overrides(small_scenario_dict(), ["sim.theta=0"])
        sc = scenario_from_dict(out)
        assert sc.sim.theta == UncertaintySignal.constant(0.0)

    @pytest.mark.parametrize(
        "assignment",
        ["justakey", "nosection.key=1", "plant.alpha1.deep=1", ".dangling=1", "a..b=1"],
    )
    def test_bad_assignments_rejected(self, small_scenario_dict, assignment):
        with pytest.raises(ConfigError):
            apply_overrides(small_scenario_dict(), [assignment])


class TestLoadScenario:
    """Scenario files are read by the command line."""

    def test_file_round_trip(self, tmp_path, small_scenario_dict):
        sc = scenario_from_dict(small_scenario_dict())
        path = tmp_path / "scenario.json"
        path.write_text(resolved_json(sc))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == EXIT_OK
        assert (out / "resolved_config.json").read_text() == resolved_json(sc)
