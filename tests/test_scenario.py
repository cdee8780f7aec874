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
    LossSpec,
    STRATEGIES,
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


class TestLossSpec:
    def test_builds_each_kind(self, tmp_path):
        def first(model, n=6):
            return [model.sample_reception(k) for k in range(n)]

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
        bits = {seed: [spec.build(seed).sample_reception(k) for k in range(64)] for seed in (3, 7)}
        assert [spec.build().sample_reception(k) for k in range(64)] == bits[3]
        assert [other.build().sample_reception(k) for k in range(64)] == bits[7]
        assert bits[3] != bits[7]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "mystery"},
            {"kind": "bernoulli"},
            {"kind": "gilbert-elliott", "p_g2b": 0.1, "p_b2g": 0.4},
            {"kind": "trace"},
        ],
    )
    def test_rejects_incomplete_specs(self, kwargs):
        with pytest.raises(ConfigError):
            LossSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,key",
        [
            ({"kind": "bernoulli", "p": 1.5}, "loss.p"),
            ({"kind": "bernoulli", "p": float("nan")}, "loss.p"),
            ({**GE_SPEC, "p_g2b": -0.1}, "loss.p_g2b"),
            ({**GE_SPEC, "p_b2g": 2.0}, "loss.p_b2g"),
            ({**GE_SPEC, "loss_in_bad": 1.1}, "loss.loss_in_bad"),
        ],
    )
    def test_rejects_probabilities_outside_unit_interval(self, kwargs, key):
        with pytest.raises(ConfigError, match=key):
            LossSpec(**kwargs)


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
    def test_unknown_top_level_key(self, small_scenario_dict):
        doc = small_scenario_dict()
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="unknown key extra"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section", ["plant", "predictor", "controller", "sim", "cost"])
    def test_unknown_section_key(self, small_scenario_dict, section):
        doc = small_scenario_dict()
        doc[section]["bogus"] = 1
        with pytest.raises(ConfigError, match=f"{section}.bogus"):
            scenario_from_dict(doc)

    def test_missing_required_key_names_it(self, small_scenario_dict):
        doc = small_scenario_dict()
        del doc["cost"]["q_c"]
        with pytest.raises(ConfigError, match="cost.q_c"):
            scenario_from_dict(doc)

    def test_missing_section_names_it(self, small_scenario_dict):
        doc = small_scenario_dict()
        del doc["predictor"]
        with pytest.raises(ConfigError, match="predictor"):
            scenario_from_dict(doc)

    def test_boolean_is_not_a_number(self, small_scenario_dict):
        doc = small_scenario_dict({"sim.x0": True})
        with pytest.raises(ConfigError, match="sim.x0"):
            scenario_from_dict(doc)

    def test_fractional_horizon_rejected(self, small_scenario_dict):
        doc = small_scenario_dict({"predictor.horizon": 2.5})
        with pytest.raises(ConfigError, match="predictor.horizon"):
            scenario_from_dict(doc)

    def test_string_flag_rejected(self, small_scenario_dict):
        doc = small_scenario_dict({"sim.doubled_age_offset": "yes"})
        with pytest.raises(ConfigError, match="sim.doubled_age_offset"):
            scenario_from_dict(doc)

    def test_strategies_must_be_string_list(self, small_scenario_dict):
        with pytest.raises(ConfigError):
            scenario_from_dict(small_scenario_dict({"strategies": "zero-input"}))
        with pytest.raises(ConfigError):
            scenario_from_dict(small_scenario_dict({"strategies": [1, 2]}))

    @pytest.mark.parametrize(
        "theta",
        [
            True,
            "0.1",
            [[0.0, 0.1], [1.0]],
            [[0.0, 0.1], [1.0, "x"]],
            [[1.0, 0.1], [1.0, 0.2]],
            [],
            float("nan"),
            10**400,
            [[0.0, float("inf")]],
        ],
    )
    def test_bad_theta_rejected(self, small_scenario_dict, theta):
        doc = small_scenario_dict({"sim.theta": theta})
        with pytest.raises(ConfigError, match="sim.theta"):
            scenario_from_dict(doc)

    def test_invalid_predictor_value_is_config_error(self, small_scenario_dict):
        doc = small_scenario_dict({"predictor.gamma": 1.0})
        with pytest.raises(ConfigError, match="gamma"):
            scenario_from_dict(doc)


def replaced(field):
    """Build the scenario's ``field`` record again with one key replaced."""
    return lambda sc, key, value: getattr(sc, field)._replace(**{key: value})


class TestRecordsNameTheirKey:
    """Each record checks its own keys and raises the text parsing reports."""

    @pytest.mark.parametrize(
        "path,value,build",
        [
            ("plant.alpha1", 0.0, replaced("plant")),
            ("plant.vol", -2.0, replaced("plant")),
            ("plant.m2", 1.5, replaced("plant")),
            ("plant.p2", -1.0, replaced("plant")),
            ("plant.p1", 50_000.0, replaced("plant")),
            ("plant.domain_margin", -1.0, replaced("plant")),
            ("plant.domain_margin", 50_000.0, replaced("plant")),
            ("predictor.delta", 0.0, replaced("predictor")),
            ("predictor.gamma", 1.5, replaced("predictor")),
            ("predictor.horizon", 0, replaced("predictor")),
            ("controller.setpoint", math.nan, replaced("controller")),
            ("controller.lgv_threshold", 0.0, replaced("controller")),
            ("controller.u_min", 2.0, replaced("controller")),
            ("controller.u_max", -1.0, replaced("controller")),
            ("sim.x0", math.inf, replaced("sim")),
            ("sim.t_s", 0.0, replaced("sim")),
            ("sim.duration", 121.0, replaced("sim")),
            ("sim.duration", 1e12, replaced("sim")),
            ("sim.n_truth", 0, replaced("sim")),
            ("sim.n_truth", 10**8, replaced("sim")),
            (
                "sim.theta", [[1.0, 0.1], [1.0, 0.2]],
                lambda sc, key, value: UncertaintySignal(*map(tuple, zip(*value))),
            ),
            ("cost.q_c", -1.0, replaced("cost")),
            ("cost.r_c", -1.0, replaced("cost")),
            ("cost.m_steps", 0, replaced("cost")),
            ("loss.seed", -1, replaced("loss")),
        ],
    )
    def test_record_and_parser_report_the_same_text(
        self, small_scenario_dict, path, value, build
    ):
        sc = scenario_from_dict(small_scenario_dict())
        section, _, key = path.partition(".")
        with pytest.raises(ConfigError) as built:
            build(sc, key, value)
        with pytest.raises(ConfigError) as parsed:
            scenario_from_dict(small_scenario_dict({path: value}))
        text = str(built.value)
        assert text == str(parsed.value)
        assert text.startswith(f"{section}.") and key in text

    @pytest.mark.parametrize(
        "loss,key",
        [
            ({"kind": "bernoulli"}, "loss.p"),
            ({"kind": "trace"}, "loss.trace_path"),
        ],
    )
    def test_loss_spec_and_parser_report_the_same_text(self, small_scenario_dict, loss, key):
        with pytest.raises(ConfigError) as built:
            LossSpec(**loss)
        with pytest.raises(ConfigError) as parsed:
            scenario_from_dict(small_scenario_dict({"loss": loss}))
        text = str(built.value)
        assert text == str(parsed.value)
        assert text.startswith(f"{key} ")


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
    @pytest.mark.parametrize(
        "path,value,needle",
        [
            ("controller.setpoint", 250_000.0, "setpoint"),
            ("sim.x0", 99_000.0, "x0"),
            ("sim.duration", 121.0, "duration"),
            ("cost.m_steps", 61, "m_steps"),
            ("plant.domain_margin", -1.0, "domain_margin"),
            ("plant.domain_margin", 50_000.0, "domain"),
            ("strategies", ["zero-input", "zero-input"], "unique"),
            ("strategies", ["teleport"], "unknown strategy"),
            ("strategies", [], "non-empty"),
        ],
    )
    def test_inconsistent_documents_rejected(self, small_scenario_dict, path, value, needle):
        doc = small_scenario_dict({path: value})
        with pytest.raises(ConfigError, match=needle):
            scenario_from_dict(doc)

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

    def test_invalid_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "valid JSON" in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        assert main(["run", str(absent), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert str(absent) in capsys.readouterr().err
        # a path that exists but is no file
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "cannot read" in capsys.readouterr().err
