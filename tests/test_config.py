import re

import pytest
import yaml

from radarml.config import (
    _SCENARIO_FIELDS,
    _TARGET_FIELDS,
    ConfigError,
    build_plan,
    parse_config,
    read_config,
)
from radarml.labeling import SCHEMES


class TestDefaults:
    def test_empty_config_uses_defaults(self):
        cfg = parse_config({})
        assert cfg.seed == 0
        assert cfg.n_per_class == 200
        assert cfg.train_fraction == 0.1
        assert cfg.n_folds == 5
        assert [s.scenario_id for s in cfg.scenarios] == ["outdoor", "indoor"]
        assert cfg.schemes == ("simple4", "grid10")
        assert cfg.data_types == ("raw", "baseband", "motion_filtered")
        assert len(cfg.estimators) == 8

    def test_default_scenarios_contrast(self):
        cfg = parse_config({})
        outdoor, indoor = cfg.scenarios
        assert indoor.clutter_amplitude > outdoor.clutter_amplitude
        assert indoor.clutter_path_count > outdoor.clutter_path_count
        assert indoor.noise_sigma > outdoor.noise_sigma

    def test_scenario_seeds_derived_and_distinct(self):
        cfg = parse_config({})
        assert cfg.scenarios[0].seed != cfg.scenarios[1].seed
        again = parse_config({})
        assert [s.seed for s in again.scenarios] == [s.seed for s in cfg.scenarios]

    def test_scheme_objects(self):
        cfg = parse_config({})
        assert [SCHEMES[kind].n_classes for kind in cfg.schemes] == [4, 10]


class TestValidation:
    def test_unknown_top_level_field_named(self):
        with pytest.raises(ConfigError, match="n_per_clas"):
            parse_config({"n_per_clas": 100})

    def test_unknown_scenario_field_named(self):
        with pytest.raises(ConfigError, match="noise_sgma"):
            parse_config(
                {"scenarios": {"o": {"environment": "outdoor", "noise_sgma": 0.1}}}
            )

    def test_type_errors_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"seed": "zero"})
        with pytest.raises(ConfigError):
            parse_config({"seed": True})
        with pytest.raises(ConfigError):
            parse_config({"n_per_class": 2.5})

    def test_range_checks(self):
        with pytest.raises(ConfigError):
            parse_config({"train_fraction": 1.0})
        with pytest.raises(ConfigError):
            parse_config({"n_folds": 1})
        with pytest.raises(ConfigError):
            parse_config({"seed": -1})

    def test_train_pool_must_fill_folds(self):
        # 10% of 40 -> 4 per class, below the 5-fold minimum
        with pytest.raises(ConfigError, match="folds"):
            parse_config({"n_per_class": 40})
        parse_config({"n_per_class": 50})  # 5 per class is enough

    def test_environment_required(self):
        with pytest.raises(ConfigError, match="environment"):
            parse_config({"scenarios": {"x": {"noise_sigma": 0.1}}})

    def test_indoor_clutter_must_exceed_outdoor(self):
        with pytest.raises(ConfigError, match="clutter"):
            parse_config(
                {
                    "scenarios": {
                        "o": {"environment": "outdoor", "clutter_amplitude": 0.5},
                        "i": {"environment": "indoor", "clutter_amplitude": 0.2},
                    }
                }
            )

    def test_scheme_and_estimator_lists_checked(self):
        with pytest.raises(ConfigError):
            parse_config({"schemes": ["simple4", "simple4"]})
        with pytest.raises(ConfigError):
            parse_config({"schemes": []})
        with pytest.raises(ConfigError):
            parse_config({"estimators": ["svm_rbf"]})
        with pytest.raises(ConfigError):
            parse_config({"data_types": ["spectrogram"]})

    @pytest.mark.parametrize(
        "field",
        [
            "n_bins",
            "bin_duration_ps",
            "direct_path_amplitude",
            "pulse_center_freq_hz",
            "pulse_sigma_ps",
            "amplitude_exponent",
        ],
    )
    def test_radar_constants_are_not_scenario_fields(self, field):
        # the radar's sampling and pulse are Scenario constants; naming one
        # in a config fails like any typo
        raw = {"scenarios": {"o": {"environment": "outdoor", field: 1.0}}}
        with pytest.raises(ConfigError, match=rf"^scenarios\.o: unknown field '{field}'$"):
            parse_config(raw)

    def test_target_values_checked(self):
        for target in ({"min_range": 0.0}, {"min_range": 1.0}, {"reflectivity": 0.0}, {"jitter_sigma": -1e-9}):
            with pytest.raises(ConfigError, match="target: "):
                parse_config({"target": target})
        parse_config({"target": {"min_range": 0.99, "jitter_sigma": 0.0, "reflectivity": 1e-3}})

    @pytest.mark.parametrize(
        "text", [".nan", ".inf", "-.inf", "1" + "0" * 400], ids=["nan", "inf", "-inf", "huge_int"]
    )
    @pytest.mark.parametrize(
        "block, field",
        [("scenarios", f) for f, t in _SCENARIO_FIELDS.items() if t is float]
        + [("target", f) for f in _TARGET_FIELDS],
    )
    def test_non_finite_floats_rejected_by_name(self, block, field, text):
        # a NaN slips past every `<`/`>` range check; YAML writes it .nan
        raw = yaml.safe_load(f"{field}: {text}")
        if block == "scenarios":
            raw = {"scenarios": {"o": {"environment": "outdoor", **raw}}}
            where = f"scenarios.o.{field}"
        else:
            raw = {"target": raw}
            where = f"target.{field}"
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}: expected a finite number"):
            parse_config(raw)

    def test_every_float_field_is_covered(self):
        floats = sorted(f for f, t in _SCENARIO_FIELDS.items() if t is float)
        assert floats == ["clutter_amplitude", "noise_sigma"]
        assert sorted(_TARGET_FIELDS) == ["jitter_sigma", "min_range", "reflectivity"]

    def test_bad_scenario_value_wrapped(self):
        with pytest.raises(ConfigError, match="^scenarios.o: noise_sigma must be nonnegative$"):
            parse_config({"scenarios": {"o": {"environment": "outdoor", "noise_sigma": -1.0}}})


class TestPlan:
    def test_default_plan_has_twelve_entries(self):
        plan = build_plan(parse_config({}))
        assert len(plan.entries) == 12
        ids = [e.dataset_id for e in plan.entries]
        assert len(set(ids)) == 12
        assert ids[0] == "outdoor-simple4-raw"
        assert ids[-1] == "indoor-grid10-motion_filtered"

    def test_plan_order_scenario_scheme_datatype(self):
        plan = build_plan(parse_config({}))
        ids = [e.dataset_id for e in plan.entries]
        assert ids[:3] == [
            "outdoor-simple4-raw",
            "outdoor-simple4-baseband",
            "outdoor-simple4-motion_filtered",
        ]
        assert ids[3].startswith("outdoor-grid10")
        assert ids[6].startswith("indoor-simple4")

    def test_data_type_filter(self):
        plan = build_plan(parse_config({}), data_types=["motion_filtered"])
        assert len(plan.entries) == 4
        assert all(e.data_type == "motion_filtered" for e in plan.entries)

    def test_bad_filter_rejected(self):
        with pytest.raises(ConfigError):
            build_plan(parse_config({}), data_types=["fft"])


class TestLoadConfig:
    def test_yaml_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"seed": 7, "n_per_class": 60}))
        cfg = parse_config(read_config(str(path)))
        assert cfg.seed == 7
        assert cfg.n_per_class == 60

    def test_empty_file_is_default_config(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("")
        assert parse_config(read_config(str(path))).n_per_class == 200

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(read_config(str(tmp_path / "nope.yaml")))

    def test_unparseable_yaml_raises_config_error(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: [unclosed")
        with pytest.raises(ConfigError):
            parse_config(read_config(str(path)))
