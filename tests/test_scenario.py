import functools
import json
import math
import typing
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ncsim.cli import EXIT_CONFIG, main
from ncsim.losses import LOSS_KEYS, LOSS_KINDS
from ncsim.runtime import MAX_STEPS, MAX_TRUTH_SUBSTEPS
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

from conftest import json_values, small_scenario


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
SNAPSHOT = {kind: SNAPSHOT_HEAD + loss + SNAPSHOT_TAIL for kind, (_, loss) in SNAPSHOT_LOSS.items()}
# The first bits of each snapshot's loss channel under its own seed:
# Bernoulli seed 7's draws, and bits.txt wrapped.
FIRST_BITS = {"none": [1] * 12, "bernoulli": [1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 0],
              "gilbert-elliott": [1] * 12, "trace": [1, 0] * 6}
# The trace files a row may name, in the directory its check runs in.
TRACES = {"bits.txt": "1\n0\n", "sixty.txt": "1\n" * 60, "long.txt": "1\n0\n0\n" * 20}
# Each key a document may leave out, and the default its record fills in.
DEFAULTS = {
    "plant.domain_margin": 0.001, "controller.lgv_threshold": 1e-9, "controller.u_min": 0.0,
    "controller.u_max": 1.0, "loss.seed": 0, "loss.wrap": False, "sim.n_truth": 20,
    "sim.doubled_age_offset": False, "cost.raw_state": False, "strategies": STRATEGIES,
}
# Predictor steps per interval at the cap: two predicted entries per
# interval over MAX_STEPS intervals of 1 s.
PER_INPUT = MAX_PREDICTOR_STEPS // MAX_STEPS // 2


class Document(NamedTuple):
    """One row of ``DOCUMENTS``: a base document, a built-in's name or a
    function that builds one, the ``--set`` assignments put on it or a
    function that edits it in place, and the facts only this row pins,
    each a name of ``FACTS`` or a dotted path into the parsed scenario,
    and its value."""

    id: str
    base: object
    edit: object = ()
    facts: dict = {}


def left_out(*paths):
    """An edit that drops each ``section.key`` or ``section`` of ``paths``."""
    def edit(doc):
        for path in paths:
            section, _, key = path.partition(".")
            (doc.get(section, {}) if key else doc).pop(key or section, None)
    return edit


# What a row may pin besides a scenario's fields, each a function of the
# parsed scenario; a pinned value is compared by ``repr``.
FACTS = {
    "steps_per_input": lambda sc: sc.predictor.steps_per_input(sc.sim.t_s),
    "snapshot": resolved_json,
    # theta as a document writes it
    "theta": lambda sc: scenario_to_dict(sc)["sim"]["theta"],
    # the first reception bits of the loss channel, under the scenario's seed
    "stream": lambda sc: list(map(sc.loss.build().sample_reception, range(12))),
    # whether each run-size cap holds 100 times the run's steps, truth substeps, predictor steps
    "far-inside-caps": lambda sc: [100 * sc.sim.steps * per_step <= cap for per_step, cap in (
        (1, MAX_STEPS), (sc.sim.n_truth, MAX_TRUTH_SUBSTEPS),
        (FACTS["steps_per_input"](sc) * min(sc.predictor.horizon, 2), MAX_PREDICTOR_STEPS))],
}

# Every document the tests parse by hand, one row each: a new one is one row.
DOCUMENTS = [
    Document("tank-reference", "tank-reference", facts={
        "controller.setpoint": 150_100.0, "predictor.gamma": 0.175, "predictor.horizon": 10,
        "sim.theta": UncertaintySignal((0.0, 1800.0), (0.175, 0.185)), "sim.steps": 1800,
        "steps_per_input": 1, "strategies": STRATEGIES, "loss": LossSpec(kind="none", seed=42),
        "snapshot": SNAPSHOT["none"], "far-inside-caps": [True] * 3,
    }),
    # each loss kind's snapshot writes its keys in one order, whatever the
    # order of the section
    *[Document(f"snapshot-{kind}", "tank-reference", [f"loss={json.dumps(loss)}"],
               {"snapshot": SNAPSHOT[kind], "stream": FIRST_BITS[kind]})
      for kind, (loss, _) in SNAPSHOT_LOSS.items()],
    # a scalar theta is a schedule of one pair, from t = 0
    *[Document(f"theta-{value}", small_scenario, [f"sim.theta={value}"],
               {"sim.theta": UncertaintySignal.constant(value), "theta": [[0.0, float(value)]]})
      for value in (0.2, 0)],
    # JSON values and bare strings alike; the later of two assignments wins
    Document("set-json-and-bare-strings", small_scenario, [
        "predictor.gamma=0.2", "loss.kind=bernoulli", "loss.p=0.3", "sim.doubled_age_offset=true",
        'strategies=["zero-input"]',
    ], {"predictor.gamma": 0.2, "loss": LossSpec("bernoulli", 42, p=0.3),
        "sim.doubled_age_offset": True, "strategies": ("zero-input",)}),
    Document("later-set-wins", small_scenario, ["predictor.gamma=0.1", "predictor.gamma=0.2"],
             {"predictor.gamma": 0.2}),
    # an assignment into a left-out loss section starts from its default,
    # which the next document without one still gets
    Document("set-into-left-out-loss",
             lambda: {name: value for name, value in small_scenario().items() if name != "loss"},
             ["loss.kind=bernoulli", "loss.p=0.3"], {"loss": LossSpec("bernoulli", 0, p=0.3)}),
    Document("loss-left-out", small_scenario, left_out("loss"), {"loss": LossSpec("none", 0)}),
    *[Document(f"defaults-{name}", functools.partial(small_scenario, {"loss": loss}),
               left_out(*["loss"] * (loss is None), *DEFAULTS), DEFAULTS)
      for name, loss in (("no-loss", None), ("bernoulli", {"kind": "bernoulli", "p": 0.3}),
                         ("gilbert-elliott", {"kind": "gilbert-elliott", "p_g2b": 0.1,
                                             "p_b2g": 0.4, "loss_in_bad": 1.0}),
                         ("trace", {"kind": "trace", "trace_path": "long.txt"}))],
    # a trace that does not wrap covers the run: as many bits as steps
    *[Document(f"trace-{name}", small_scenario, [f"loss={json.dumps(loss)}"], {"loss.bits": bits})
      for name, loss, bits in (
          ("as-long-as-the-run", {"kind": "trace", "trace_path": "sixty.txt"}, (1,) * 60),
          ("that-wraps", {"kind": "trace", "trace_path": "bits.txt", "wrap": True}, (1, 0)),
      )],
    Document("duration-float-noise", small_scenario,
             ["sim.t_s=0.1", "sim.duration=0.3", "cost.m_steps=3"], {"sim.steps": 3}),
    # the run-size caps are inclusive: MAX_STEPS intervals of 20 substeps and
    # PER_INPUT predictor steps each
    Document("at-the-caps", small_scenario, [
        "sim.t_s=1.0", f"sim.duration={float(MAX_STEPS)}", "sim.n_truth=20",
        f"predictor.delta={1.0 / PER_INPUT}",
    ], {"sim.steps": MAX_STEPS, "steps_per_input": PER_INPUT}),
    # at most two predicted entries per interval, however long the buffer
    *[Document(f"horizon-{horizon}", "tank-reference",
               ["predictor.delta=0.2", f"predictor.horizon={horizon}"],
               {"predictor.horizon": horizon, "steps_per_input": 10})
      for horizon in (1200, 10**6)],
    # t_s / delta when whole within 1e-9 relative (3.000000002 is 3),
    # else one step of delta; an infinite ratio is one step
    *[Document(f"delta-{delta!r}", small_scenario, [f"predictor.delta={delta!r}"],
               {"steps_per_input": steps})
      for delta, steps in ((2.0, 1), (0.5, 4), (10.0, 1), (0.3, 1), (1.0, 2),
                           (0.6666666662222221, 3), (5e-324, 1))],
]


def document(row):
    """The document of ``row``: its base, edited or with its assignments
    applied, which leave the base as it was."""
    doc = builtin_scenario_dict(row.base) if isinstance(row.base, str) else row.base()
    if callable(row.edit):
        row.edit(doc)
        return doc
    kept = json.dumps(doc)
    edited = apply_overrides(doc, row.edit)
    assert json.dumps(doc) == kept
    return edited


def check_document(row):
    """Parse ``row``'s document, hold the scenario to its round trip, whose
    snapshot reparses to the same scenario and rewrites the same text, and
    to the row's facts.  A built-in's document stays as it was."""
    sc = scenario_from_dict(document(row))
    text = resolved_json(sc)
    again = scenario_from_dict(json.loads(text))
    assert (repr(again), resolved_json(again)) == (repr(sc), text)
    assert resolved_json(builtin_scenario("tank-reference")) == SNAPSHOT["none"]
    for name, want in row.facts.items():
        got = FACTS[name](sc) if name in FACTS else functools.reduce(getattr, name.split("."), sc)
        assert (name, repr(got)) == (name, repr(want))


@pytest.fixture
def in_traces(tmp_path, monkeypatch):
    """Run the test in a directory that holds each file of ``TRACES``."""
    for name, text in TRACES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("row", DOCUMENTS, ids=[row.id for row in DOCUMENTS])
def test_document(in_traces, row):
    check_document(row)


def numbers(low, high):
    """JSON numbers in [low, high], integers included."""
    return (st.floats(low, high) | st.integers(int(low), int(high))).filter(
        lambda v: low <= v <= high)


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
    pairs = st.lists(st.tuples(numbers(0, 100), numbers(-1, 1)), min_size=1, max_size=4,
                     unique_by=lambda pair: float(pair[0]))
    theta = draw(numbers(-1, 1) | pairs.map(
        lambda pairs: [list(pair) for pair in sorted(pairs, key=lambda p: float(p[0]))]))
    sim = {"x0": draw(numbers(110_000, 180_000)), "t_s": t_s, "duration": steps * t_s, "theta": theta}
    maybe(sim, "n_truth", st.integers(min_value=1, max_value=30))
    maybe(sim, "doubled_age_offset", st.booleans())
    cost = {"q_c": draw(numbers(0, 10)), "r_c": draw(numbers(0, 1e6)),
            "m_steps": draw(st.integers(min_value=1, max_value=steps))}
    maybe(cost, "raw_state", st.booleans())
    predictor = {"delta": draw(numbers(0.01, 4)), "gamma": draw(numbers(-0.99, 0.99)),
                 "horizon": draw(st.integers(min_value=1, max_value=20))}
    doc = dict(plant=plant, predictor=predictor, controller=controller, sim=sim, cost=cost)
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


# Every key a loss section may hold, across the kinds.
LOSS_SECTION_KEYS = ("kind", "seed") + tuple(key for keys in LOSS_KEYS.values() for key in keys)


@st.composite
def mutated_documents(draw, base):
    """``base`` with one to four keys replaced, added or dropped, at the top
    level or inside a section, and any JSON value put in: loss kinds and
    integers past float range and past the 4300 digits ``repr`` prints
    among them."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        name = draw(st.sampled_from(sorted(base)) | st.text())
        value = draw(json_values | st.sampled_from(LOSS_KINDS) | st.integers(-(10**5000), 10**5000))
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


# 600 draws, or the profile's count if larger; two thirds are mutated
@settings(
    max_examples=max(600, settings.default.max_examples), deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# an integer no snapshot can write, in each key bounded only below
@example(doc={**small_scenario(), "predictor": {"delta": 2.0, "gamma": 0.175, "horizon": 10**5000}})
@example(doc={**small_scenario(), "loss": {"kind": "none", "seed": 10**5000}})
@given(doc=st.one_of(scenario_documents("long.txt"), mutated_documents(small_scenario()),
                     mutated_documents(small_scenario())))
def test_drawn_document(in_traces, doc):
    """Any document, valid or mutated, parses and holds to its round trip,
    or raises ``ConfigError``, never another error."""
    try:
        scenario_from_dict(doc)
    except ConfigError:
        return
    check_document(Document("drawn", lambda: doc))


@pytest.mark.parametrize("parse, value, text", [
    *[(scenario_from_dict, doc, "scenario document must be a JSON object")
      for doc in ([], None, "x")],
    (builtin_scenario_dict, "tank-atmospheric",
     "unknown scenario 'tank-atmospheric'; built-ins: tank-reference"),
])
def test_not_a_document(parse, value, text):
    with pytest.raises(ConfigError) as raised:
        parse(value)
    assert str(raised.value) == text


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
    # the domain is open: its ends are outside it
    *[(Scenario, {key: value}, ConfigError,
       f"{key} {value!r} outside state domain (100000.001, 199999.999)")
      for key, value in (("sim.x0", 100_000.001), ("controller.setpoint", 199_999.999))],
    # one past each run-size cap
    (SimSettings, {"sim.t_s": 1.0, "sim.duration": MAX_STEPS + 1.0}, ConfigError,
     f"sim.duration {MAX_STEPS + 1.0!r} / sim.t_s 1.0 asks for more than {MAX_STEPS} steps"),
    (SimSettings, {"sim.t_s": 1.0, "sim.duration": float(MAX_STEPS), "sim.n_truth": 21},
     ConfigError, f"sim.n_truth 21 over {MAX_STEPS} steps asks for more than "
     f"{MAX_TRUTH_SUBSTEPS} truth substeps"),
    (Scenario, {"sim.t_s": 1.0, "sim.duration": float(MAX_STEPS),
                "predictor.delta": 1.0 / (PER_INPUT + 1)}, ConfigError,
     f"predictor.delta {1.0 / (PER_INPUT + 1)!r} gives {PER_INPUT + 1} predictor steps per "
     f"interval (sim.t_s / predictor.delta), which over {MAX_STEPS} steps of up to "
     "min(predictor.horizon, 2) = 2 predicted entries may ask for more than "
     f"{MAX_PREDICTOR_STEPS} predictor steps"),
    # a boolean is no number and no integer, in a theta pair too
    (None, {"sim.theta": [[True, 0.1]]}, ConfigError,
     "sim.theta entries must be [time, value] number pairs, got [True, 0.1]"),
    *[(None, {key: value}, ConfigError, f"{key} must be an integer, got {value!r}")
      for key, value in (("predictor.horizon", True), ("loss.seed", False))],
    *[(None, {name: value}, ConfigError, f"{name} section must be an object")
      for name, value in (("loss", 1), ("plant", [1.0]))],
    # a trace as long as the 60-step run of trace-as-long-as-the-run
    (Scenario, {"loss.kind": "trace", "loss.trace_path": "sixty.txt"}, ConfigError,
     "loss.trace_path 'sixty.txt' holds 60 bits, fewer than the 1800 steps of sim.duration 3600.0, "
     "and loss.wrap is false"),
]


def broken(owner, changes):
    """``(record, fields)``: the valid record of type ``owner`` that the
    paths of ``changes`` reach, and the fields they change on it.  For
    ``Scenario`` a changed section is its record with the keys replaced."""
    if owner is Scenario:
        sections = {}
        for path, value in changes.items():
            name, _, key = path.partition(".")
            sections.setdefault(name, {})[key] = value
        return REFERENCE, {
            name: keys[""] if "" in keys else getattr(REFERENCE, name)._replace(**keys)
            for name, keys in sections.items()}
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
def test_record_raises_the_rule_text(in_traces, owner, changes, error, text):
    """The record's constructor and ``_replace`` raise the row's error."""
    record, fields = broken(owner, changes)
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), **fields})
    with pytest.raises(error) as replaced:
        record._replace(**fields)
    for raised in (built, replaced):
        assert (type(raised.value), str(raised.value)) == (error, text)


@_rows([row for row in RULES if assignments(*row[:2]) is not None])
def test_document_raises_the_rule_text(in_traces, tmp_path, capsys, owner, changes, error, text):
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


@pytest.mark.parametrize("path, value, message", [
    ("sim.x0", 10**5000, f"sim.x0 must be finite, got {hex(10**5000)[:40]}... (4155 characters)"),
    ("sim.theta", [[0, 10**5000, 1]],
     "sim.theta entries must be [time, value] number pairs, got a value with a huge integer"),
    # a key bounded only below: no snapshot could write the integer
    *[(path, 10**5000,
       f"{path} has too many digits for a snapshot, got {hex(10**5000)[:40]}... (4155 characters)")
      for path in ("predictor.horizon", "loss.seed")],
], ids=["integer", "list-holding-one", "horizon", "seed"])
def test_integer_repr_cannot_print_is_quoted_in_hex(path, value, message):
    doc = builtin_scenario_dict("tank-reference")
    section, key = path.split(".")
    doc[section][key] = value
    with pytest.raises(ConfigError) as raised:
        scenario_from_dict(doc)
    assert str(raised.value) == message


def _document_keys():
    """(path, type, required) of every key a document may hold, top level
    and sections alike, read from the records through ``_keys``."""
    for name, record, required in _keys(Scenario):
        if record in _CHECKERS:
            yield name, record, required
        else:
            for key, kind, key_required in _keys(record):
                yield f"{name}.{key}", kind, key_required


def test_records_are_the_schema():
    """The sections and strategies are ``Scenario``'s fields, every key has a
    checker, and the keys with a default are those of ``DEFAULTS``; an
    Optional key defaults to None: only some loss kinds take it, and
    ``LossSpec`` requires it of them."""
    assert [name for name, _, _ in _keys(Scenario)] == [
        "plant", "predictor", "controller", "loss", "sim", "cost", "strategies"]
    assert [path for path, kind, _ in _document_keys() if kind not in _CHECKERS] == []
    defaulted = {path for path, kind, required in _document_keys()
                 if not required and type(None) not in typing.get_args(kind)}
    assert defaulted == set(DEFAULTS)
