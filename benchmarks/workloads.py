"""The benchmark's workloads: how each one sets up, runs one pass and checks it.

A search workload writes one train/test pair with ``radarml generate``
(its set-up), then each pass loads the pair and calls
``modelsel.evaluate_kinds`` on a pinned sub-grid, as ``radarml run`` does
for one plan entry. ``generate_all`` runs ``radarml generate`` over the
whole default plan in every pass.

``check`` digests the outputs of a pass per item (estimator kind or plan
entry) and tests invariants that hold for every seed; ``problems`` maps an
item to what is wrong with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np
import yaml

from radarml import cli, dataset, modelsel
from radarml.config import DEFAULT_CONFIG, build_plan, parse_config
from radarml.labeling import N_CLASSES
from radarml.seeding import derive_seed


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _write_config(path, raw):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(raw, fh, sort_keys=True)


def _read(path):
    """Parse a dataset file without going through the traced loader."""
    with open(path, "rb") as fh:
        return dataset.dataset_from_bytes(fh.read())


def _generate(config_path, out_dir, *extra):
    """``radarml generate``, with its per-file progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate", "--config", config_path, "--out", out_dir, *extra])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"radarml generate exited with {code}")


class SearchWorkload:
    """Grid search of a pinned sub-grid on one generated train/test pair."""

    data_type = "motion_filtered"
    scenario = "outdoor"
    work_unit = "evals"

    def __init__(self, name, scheme, grids, n_per_class=200):
        self.name = name
        self.scheme = scheme
        self.grids = grids  # kind -> list of parameter dicts from the real grid
        self.n_per_class = n_per_class

    def work_per_pass(self, state):
        return sum(len(c) for c in self.grids.values()) * state["config"].n_folds

    def setup(self, seed, workdir):
        # Only the outdoor scenario and one scheme: seeds are derived from
        # the scenario's position and the scheme's name, so the pair is
        # byte-identical to the one the full default plan writes.
        raw = {
            "seed": seed,
            "n_per_class": self.n_per_class,
            "scenarios": {self.scenario: DEFAULT_CONFIG["scenarios"][self.scenario]},
            "schemes": [self.scheme],
        }
        config_path = os.path.join(workdir, "config.yaml")
        _write_config(config_path, raw)
        _generate(config_path, workdir, "--data-type", self.data_type)
        config = parse_config(raw)
        (entry,) = build_plan(config, workdir, (self.data_type,)).entries
        train_path, test_path = cli._dataset_paths(workdir, entry.dataset_id)
        return {
            "config": config,
            "dataset_id": entry.dataset_id,
            "paths": (train_path, test_path),
            "seed": derive_seed(config.seed, cli._RUN_KEY, *cli._entry_keys(config, entry)),
        }

    def run_pass(self, state):
        train = dataset.load_dataset(state["paths"][0])
        test = dataset.load_dataset(state["paths"][1])
        result = modelsel.evaluate_kinds(
            train.scans,
            train.labels,
            test.scans,
            test.labels,
            dataset_id=state["dataset_id"],
            kinds=tuple(self.grids),
            candidates_by_kind=self.grids,
            seed=state["seed"],
            n_folds=state["config"].n_folds,
        )
        payload = cli._report_payload(state["dataset_id"], result)
        return payload, cli.aggregate_rows([payload], tuple(self.grids))

    def items(self, state):
        return list(self.grids) + ["aggregate.csv"]

    def check(self, state, outputs):
        payload, aggregate = outputs
        n_test = int(_read(state["paths"][1]).labels.size)
        n_folds = state["config"].n_folds
        digests = {"aggregate.csv": hashlib.sha256(aggregate.encode("utf-8")).hexdigest()}
        problems = {}
        for kind, message in payload["errors"].items():
            problems[kind] = message
        for kind, report in payload["estimators"].items():
            # EvalReport.seconds differs run to run, so it is left out
            digests[kind] = _digest(
                {key: report[key] for key in ("best_params", "fold_scores", "test_accuracy", "confusion")}
            )
            confusion = np.asarray(report["confusion"])
            scores = report["fold_scores"]
            if confusion.sum() != n_test or report["n_test"] != n_test:
                problems[kind] = "confusion matrix does not cover the test split"
            elif abs(100.0 * np.trace(confusion) / n_test - report["test_accuracy"]) > 1e-9:
                problems[kind] = "test accuracy disagrees with the confusion matrix"
            elif len(scores) != n_folds or not all(0.0 <= s <= 100.0 for s in scores):
                problems[kind] = f"fold scores {scores} are not {n_folds} percentages"
            elif abs(sum(scores) / n_folds - report["validation_accuracy"]) > 1e-9:
                problems[kind] = "validation accuracy is not the mean fold score"
            elif report["best_params"] not in self.grids[kind]:
                problems[kind] = f"best_params {report['best_params']} is not a candidate"
        for kind in self.grids:
            if kind not in payload["estimators"] and kind not in problems:
                problems[kind] = "no report"
        return digests, problems

    def end_pass(self, state):
        pass


class GenerateWorkload:
    """``radarml generate`` over the whole default plan."""

    name = "generate_all"
    work_unit = "scans"

    def __init__(self, n_per_class=1000):
        self.n_per_class = n_per_class

    def work_per_pass(self, state):
        # three slow-time scans per example, n_per_class examples per class
        config = state["config"]
        per_scenario = sum(N_CLASSES[s] for s in config.schemes) * config.n_per_class
        return 3 * per_scenario * len(config.scenarios)

    def setup(self, seed, workdir):
        raw = {"seed": seed, "n_per_class": self.n_per_class}
        config_path = os.path.join(workdir, "config.yaml")
        _write_config(config_path, raw)
        out_dir = os.path.join(workdir, "out")
        config = parse_config(raw)
        return {
            "config": config,
            "config_path": config_path,
            "out_dir": out_dir,
            "entries": build_plan(config, out_dir).entries,
        }

    def run_pass(self, state):
        _generate(state["config_path"], state["out_dir"])

    def items(self, state):
        return [entry.dataset_id for entry in state["entries"]]

    def check(self, state, outputs):
        config = state["config"]
        digests, problems = {}, {}
        for entry in state["entries"]:
            item = entry.dataset_id
            sha = hashlib.sha256()
            parts = []
            try:
                for path in cli._dataset_paths(state["out_dir"], item):
                    with open(path, "rb") as fh:
                        buf = fh.read()
                    sha.update(buf)
                    parts.append(dataset.dataset_from_bytes(buf))
            except (OSError, ValueError) as exc:
                problems[item] = f"{type(exc).__name__}: {exc}"
                continue
            digests[item] = sha.hexdigest()
            problem = _check_pair(parts, entry, config)
            if problem:
                problems[item] = problem
        return digests, problems

    def end_pass(self, state):
        shutil.rmtree(state["out_dir"], ignore_errors=True)


def _check_pair(parts, entry, config):
    """Invariants of one written train/test pair, for any seed."""
    train, test = parts
    n_classes = N_CLASSES[entry.scheme]
    for part in parts:
        if (part.scheme, part.data_type, part.scenario_id) != (
            entry.scheme,
            entry.data_type,
            entry.scenario.scenario_id,
        ):
            return "header does not match the plan entry"
        if part.n_bins != entry.scenario.n_bins:
            return f"{part.n_bins} bins, expected {entry.scenario.n_bins}"
        rows = part.scans
        if not (np.allclose(rows.mean(axis=1), 0.0, atol=1e-9) and np.allclose(rows.std(axis=1), 1.0, atol=1e-9)):
            return "rows are not standardized"
    labels = np.concatenate([train.labels, test.labels])
    if labels.min() < 0 or labels.max() >= n_classes:
        return "labels outside the scheme"
    train_counts = np.bincount(train.labels, minlength=n_classes)
    total_counts = np.bincount(labels, minlength=n_classes)
    if total_counts.max() > config.n_per_class:
        return "more rows of a class than were generated"
    # stratified split: round-half-up share of every class, at least one per side
    want = np.clip(np.floor(config.train_fraction * total_counts + 0.5), 1, total_counts - 1)
    if not np.array_equal(train_counts, want):
        return f"train class counts {train_counts.tolist()} are not a {config.train_fraction} split"
    return None


_TREE_PARAMS = [
    {"n_estimators": 16, "criterion": criterion, "max_features": "auto"}
    for criterion in ("gini", "entropy")
]

WORKLOADS = {
    w.name: w
    for w in (
        SearchWorkload(
            "tree_search_simple4",
            "simple4",
            {
                "decision_tree": [
                    {"criterion": c, "max_features": m}
                    for c in ("gini", "entropy")
                    for m in ("auto", "sqrt", "log2")
                ],
                "random_forest": _TREE_PARAMS,
                "extra_trees": _TREE_PARAMS,
                # nested n_estimators at one learning rate
                "gradient_boosting": [{"n_estimators": n, "learning_rate": 0.5} for n in (16, 32)],
            },
        ),
        SearchWorkload(
            "linear_knn_grid10",
            "grid10",
            {
                "logistic_regression": [{"C": 0.01, "solver": s} for s in ("lbfgs", "sag", "newton-cg")],
                "perceptron": [{"alpha": 0.0001}],
                "linear_svc": [{"C": c} for c in (0.01, 1.0, 100.0)],
                "knn": [{"n_neighbors": k} for k in range(1, 6)],
            },
        ),
        GenerateWorkload(),
    )
}

# Failure accounting self-test: with 50 examples per class a fold trains
# on 16 rows, so every knn candidate past n_neighbors=16 raises.
SELF_TEST = SearchWorkload(
    "selftest_knn_tiny",
    "simple4",
    {
        "decision_tree": [{"criterion": "gini", "max_features": "auto"}],
        "knn": [{"n_neighbors": k} for k in range(1, 31)],
    },
    n_per_class=50,
)
