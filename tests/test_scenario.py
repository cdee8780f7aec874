import json

import pytest

from ncsim.scenario import MAX_PREDICTOR_STEPS, MAX_STEPS, MAX_TRUTH_SUBSTEPS
from ncsim import (
    BernoulliLoss,
    ConfigError,
    GilbertElliottLoss,
    LossSpec,
    NoLoss,
    STRATEGIES,
    TraceLoss,
    UncertaintySignal,
    apply_overrides,
    builtin_scenario,
    builtin_scenario_dict,
    load_scenario,
    resolved_json,
    scenario_from_dict,
    scenario_to_dict,
)


GE_SPEC = {"kind": "gilbert-elliott", "p_g2b": 0.1, "p_b2g": 0.4, "loss_in_bad": 1.0}


class TestLossSpec:
    def test_builds_each_kind(self, tmp_path):
        assert isinstance(LossSpec(kind="none").build(), NoLoss)
        bern = LossSpec(kind="bernoulli", p=0.3, seed=5).build()
        assert isinstance(bern, BernoulliLoss)
        assert bern.p_loss == 0.3
        assert bern.seed == 5
        ge = LossSpec(
            kind="gilbert-elliott", p_g2b=0.1, p_b2g=0.4, loss_in_bad=0.9
        ).build()
        assert isinstance(ge, GilbertElliottLoss)
        trace_file = tmp_path / "bits.txt"
        trace_file.write_text("1\n0\n")
        trace = LossSpec(kind="trace", trace_path=str(trace_file), wrap=True).build()
        assert isinstance(trace, TraceLoss)
        assert trace.bits == (1, 0)
        assert trace.wrap is True

    def test_build_seed_override(self):
        spec = LossSpec(kind="bernoulli", p=0.5, seed=3)
        assert spec.build().seed == 3
        assert spec.build(seed=7).seed == 7

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
        assert sc.setpoint == 150_100.0
        assert sc.predictor.gamma == 0.175
        assert sc.predictor.horizon == 10
        assert sc.theta.times == (0.0, 1800.0)
        assert sc.theta.values == (0.175, 0.185)
        assert sc.sim_settings().steps == 1800
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
        assert sc.theta == UncertaintySignal.constant(0.2)
        assert scenario_to_dict(sc)["sim"]["theta"] == [[0.0, 0.2]]

    def test_loss_section_defaults_to_no_loss(self, small_scenario_dict):
        doc = small_scenario_dict()
        del doc["loss"]
        sc = scenario_from_dict(doc)
        assert sc.loss == LossSpec(kind="none", seed=0)


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

    def test_duration_tolerates_float_noise(self, small_scenario_dict):
        doc = small_scenario_dict({"sim.t_s": 0.1, "sim.duration": 0.3, "cost.m_steps": 3})
        assert scenario_from_dict(doc).sim_settings().steps == 3


class TestRunSizeCaps:
    def test_reference_scenario_far_inside_caps(self):
        sc = builtin_scenario("tank-reference")
        steps = sc.sim_settings().steps
        assert 100 * steps <= MAX_STEPS
        assert 100 * steps * sc.n_truth <= MAX_TRUTH_SUBSTEPS
        assert 100 * steps * sc.predictor.horizon * sc.steps_per_input() <= MAX_PREDICTOR_STEPS

    def test_caps_are_inclusive(self, small_scenario_dict):
        # parsing only: nothing runs
        at_cap = {"sim.t_s": 1.0, "sim.duration": float(MAX_STEPS), "sim.n_truth": 20}
        assert scenario_from_dict(small_scenario_dict(at_cap)).sim_settings().steps == MAX_STEPS
        for path, value in (
            ("sim.duration", MAX_STEPS + 1.0),
            ("sim.n_truth", 21),
            ("predictor.horizon", MAX_PREDICTOR_STEPS // MAX_STEPS + 1),
        ):
            with pytest.raises(ConfigError, match=path):
                scenario_from_dict(small_scenario_dict(dict(at_cap, **{path: value})))

    def test_infinite_substep_ratio_is_one_step(self, small_scenario_dict):
        sc = scenario_from_dict(small_scenario_dict({"predictor.delta": 5e-324}))
        assert sc.steps_per_input() == 1


class TestStepsPerInput:
    @pytest.mark.parametrize(
        "delta,expected", [(2.0, 1), (0.5, 4), (10.0, 1), (0.3, 1), (1.0, 2)]
    )
    def test_substep_rule(self, small_scenario_dict, delta, expected):
        sc = scenario_from_dict(small_scenario_dict({"predictor.delta": delta}))
        assert sc.steps_per_input() == expected


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
        assert sc.theta == UncertaintySignal.constant(0.0)

    @pytest.mark.parametrize(
        "assignment",
        ["justakey", "nosection.key=1", "plant.alpha1.deep=1", ".dangling=1", "a..b=1"],
    )
    def test_bad_assignments_rejected(self, small_scenario_dict, assignment):
        with pytest.raises(ConfigError):
            apply_overrides(small_scenario_dict(), [assignment])


class TestLoadScenario:
    def test_file_round_trip(self, tmp_path):
        sc = builtin_scenario("tank-reference")
        path = tmp_path / "scenario.json"
        path.write_text(resolved_json(sc))
        assert load_scenario(str(path)) == sc

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_scenario(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))
