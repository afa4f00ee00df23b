"""Experiment configuration: YAML schema, validation, plan expansion.

A config names the scenarios, labeling schemes, data types, and
estimators of one experiment; expanding it yields the plan of
(scenario, scheme, data_type) dataset runs. Unknown fields are rejected
by name so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, fields

import yaml

from .dataset import DATA_TYPES
from .estimators import KINDS
from .labeling import SCHEMES
from .modelsel import DEFAULT_N_FOLDS, DEFAULT_TRAIN_FRACTION, _round_half_up
from .seeding import derive_seed
from .synth import Scenario, Target

_SCENARIO_SEED_KEY = 201


def _field_types(cls, skip=()):
    """Field name -> declared type of a dataclass, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in skip}


_SCENARIO_FIELDS = _field_types(Scenario, skip=("scenario_id",))
_TARGET_FIELDS = _field_types(Target)

# calibrated so motion filtering separates the classes cleanly outdoors
# while the noisier, more cluttered indoor setting degrades accuracy
DEFAULT_CONFIG = {
    "seed": 0,
    "n_per_class": 200,
    "train_fraction": DEFAULT_TRAIN_FRACTION,
    "n_folds": DEFAULT_N_FOLDS,
    "target": asdict(Target()),
    "scenarios": {
        "outdoor": {
            "environment": "outdoor",
            "clutter_amplitude": 0.05,
            "clutter_path_count": 4,
            "noise_sigma": 0.001,
        },
        "indoor": {
            "environment": "indoor",
            "clutter_amplitude": 0.5,
            "clutter_path_count": 14,
            "noise_sigma": 0.05,
        },
    },
    "schemes": list(SCHEMES),
    "data_types": list(DATA_TYPES),
    "estimators": list(KINDS),
}


class ConfigError(ValueError):
    """Raised when a configuration file fails to parse or validate."""


def _coerce(value, want, where):
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        # YAML's .nan and .inf parse as floats, and a comparison-only
        # range check lets NaN through
        if not math.isfinite(number):
            raise ConfigError(f"{where}: expected a finite number, got {value!r}")
        return number
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    raise AssertionError(want)


def _check_fields(mapping, allowed, where):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(mapping).__name__}")
    for name in mapping:
        if name not in allowed:
            raise ConfigError(f"{where}: unknown field {name!r}")


def _string_list(value, allowed, where):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{where}: expected a non-empty list")
    out = []
    for item in value:
        if item not in allowed:
            raise ConfigError(f"{where}: {item!r} is not one of {tuple(allowed)}")
        if item in out:
            raise ConfigError(f"{where}: duplicate entry {item!r}")
        out.append(item)
    return tuple(out)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    n_per_class: int
    train_fraction: float
    n_folds: int
    target: Target
    scenarios: tuple  # of Scenario, config order
    schemes: tuple  # of scheme kind strings
    data_types: tuple
    estimators: tuple


@dataclass(frozen=True)
class PlanEntry:
    scenario: Scenario
    scheme: str
    data_type: str

    @property
    def dataset_id(self) -> str:
        return f"{self.scenario.scenario_id}-{self.scheme}-{self.data_type}"


@dataclass(frozen=True)
class ExperimentPlan:
    """Expanded (scenario, scheme, data_type) runs plus run-wide settings."""

    entries: tuple  # of PlanEntry
    seed: int
    out_dir: str = "."

    def __len__(self) -> int:
        return len(self.entries)


def _parse_scenario(name, raw, global_seed, index):
    _check_fields(raw, _SCENARIO_FIELDS, f"scenarios.{name}")
    kwargs = {
        key: _coerce(value, _SCENARIO_FIELDS[key], f"scenarios.{name}.{key}")
        for key, value in raw.items()
    }
    if "environment" not in kwargs:
        raise ConfigError(f"scenarios.{name}: missing required field 'environment'")
    kwargs.setdefault("seed", derive_seed(global_seed, _SCENARIO_SEED_KEY, index))
    try:
        return Scenario(scenario_id=name, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"scenarios.{name}: {exc}") from exc


def parse_config(raw) -> ExperimentConfig:
    """Validate a config mapping against the schema."""
    allowed = set(DEFAULT_CONFIG)
    _check_fields(raw, allowed, "config")
    merged = {**DEFAULT_CONFIG, **raw}

    seed = _coerce(merged["seed"], int, "seed")
    if seed < 0:
        raise ConfigError("seed: must be nonnegative")
    n_per_class = _coerce(merged["n_per_class"], int, "n_per_class")
    if n_per_class < 2:
        raise ConfigError("n_per_class: must be at least 2")
    train_fraction = _coerce(merged["train_fraction"], float, "train_fraction")
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError("train_fraction: must lie strictly between 0 and 1")
    n_folds = _coerce(merged["n_folds"], int, "n_folds")
    if n_folds < 2:
        raise ConfigError("n_folds: must be at least 2")
    n_train_per_class = _round_half_up(train_fraction * n_per_class)
    if n_train_per_class < n_folds:
        raise ConfigError(
            f"n_per_class={n_per_class} gives {n_train_per_class} training examples "
            f"per class, too few for {n_folds} folds"
        )

    target_raw = merged["target"]
    _check_fields(target_raw, _TARGET_FIELDS, "target")
    target_kwargs = {
        key: _coerce(value, _TARGET_FIELDS[key], f"target.{key}")
        for key, value in target_raw.items()
    }
    try:
        target = Target(**target_kwargs)
    except ValueError as exc:
        raise ConfigError(f"target: {exc}") from exc

    scenarios_raw = merged["scenarios"]
    if not isinstance(scenarios_raw, dict) or not scenarios_raw:
        raise ConfigError("scenarios: expected a non-empty mapping")
    scenarios = tuple(
        _parse_scenario(name, block, seed, i)
        for i, (name, block) in enumerate(scenarios_raw.items())
    )

    indoor_clutter = [s.clutter_amplitude for s in scenarios if s.environment == "indoor"]
    outdoor_clutter = [s.clutter_amplitude for s in scenarios if s.environment == "outdoor"]
    if indoor_clutter and outdoor_clutter and min(indoor_clutter) <= max(outdoor_clutter):
        raise ConfigError(
            "scenarios: indoor clutter_amplitude must exceed every outdoor value "
            f"(indoor min {min(indoor_clutter)}, outdoor max {max(outdoor_clutter)})"
        )

    schemes = _string_list(merged["schemes"], SCHEMES, "schemes")
    for sc in scenarios:
        for kind in schemes:
            reach = SCHEMES[kind].max_range
            if sc.window_m <= reach:
                raise ConfigError(
                    f"scenarios.{sc.scenario_id}: the {sc.window_m:.3f} m scan window does "
                    f"not reach the farthest {kind} target, at {reach:.3f} m"
                )

    return ExperimentConfig(
        seed=seed,
        n_per_class=n_per_class,
        train_fraction=train_fraction,
        n_folds=n_folds,
        target=target,
        scenarios=scenarios,
        schemes=schemes,
        data_types=_string_list(merged["data_types"], DATA_TYPES, "data_types"),
        estimators=_string_list(merged["estimators"], KINDS, "estimators"),
    )


def read_config(path) -> dict:
    """The YAML mapping in a config file (empty for an empty file), unvalidated."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a mapping")
    return raw


def build_plan(config: ExperimentConfig, out_dir=".", data_types=None) -> ExperimentPlan:
    """Expand a config into dataset runs, optionally filtered by data type.

    With the default two scenarios, two schemes, and three data types the
    plan has exactly 12 entries.
    """
    if data_types is None:
        data_types = config.data_types
    else:
        data_types = _string_list(list(data_types), DATA_TYPES, "data_types")
    entries = tuple(
        PlanEntry(scenario=sc, scheme=scheme, data_type=dt)
        for sc in config.scenarios
        for scheme in config.schemes
        for dt in data_types
    )
    return ExperimentPlan(entries=entries, seed=config.seed, out_dir=str(out_dir))
