"""End-to-end acceptance checks, one test per numbered criterion.

Run ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Criterion 5 synthesizes and evaluates fifteen datasets and
dominates the runtime (a few minutes on one core).
"""

import hashlib
import os
import statistics
import time

import numpy as np
import pytest
import yaml

from radarml.cli import _GEN_KEY, main
from radarml.config import build_plan, parse_config
from radarml.estimators.grids import KINDS, grid_candidates
from radarml.estimators.neighbors import KNearestNeighbors
from radarml.estimators.tree import DecisionTree, impurity
from radarml.labeling import SCHEMES
from radarml.modelsel import (
    CandidateScore,
    run_experiment,
    select_best,
    stratified_kfold,
    stratified_split,
)
from radarml.seeding import derive_seed
from radarml.sigproc import analytic_envelope, motion_filter, standardize
from radarml.sigproc import derive_dataset, standardize_dataset
from radarml.synth import generate_dataset

from test_estimators_knn import oracle_predict_one
from test_estimators_tree import as_nested, oracle_grow


def test_criterion_1_dsp_oracles():
    started = time.perf_counter()
    np.testing.assert_allclose(
        standardize([2.0, 4.0, 6.0]), [-1.22474, 0.0, 1.22474], atol=1e-5
    )
    scan = np.random.default_rng(0).normal(size=480)
    assert np.all(motion_filter(scan, scan, scan) == 0.0)
    n = np.arange(64)
    envelope = analytic_envelope(np.cos(2.0 * np.pi * 8 * n / 64))
    np.testing.assert_allclose(envelope, 1.0, atol=1e-6)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"criterion 1: standardize/motion-filter/envelope oracles hold ({elapsed:.3f}s)")


def test_criterion_2_estimator_oracles():
    started = time.perf_counter()

    assert impurity([5, 5], "gini") == 0.5
    assert impurity([5, 5], "entropy") == 1.0

    rng = np.random.default_rng(7)
    trees = 0
    for criterion in ("gini", "entropy"):
        for _ in range(8):
            n = int(rng.integers(6, 17))
            k = int(rng.integers(2, 4))
            X = rng.normal(size=(n, int(rng.integers(2, 6))))
            y = rng.integers(0, k, size=n)
            y[:k] = np.arange(k)
            tree = DecisionTree(criterion=criterion, max_features=None).fit(X, y)
            assert as_nested(tree.nodes_) == oracle_grow(X, y.astype(np.int64), k, criterion)
            trees += 1

    X_train = rng.normal(size=(50, 6))
    y_train = rng.integers(0, 4, size=50)
    y_train[:4] = np.arange(4)
    X_test = rng.normal(size=(100, 6))
    for k in (1, 5, 11):
        model = KNearestNeighbors(n_neighbors=k).fit(X_train, y_train)
        want = [oracle_predict_one(X_train, y_train, x, k, 4) for x in X_test]
        assert model.predict(X_test).tolist() == want

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"criterion 2: {trees} trees match brute force, kNN matches exhaustive "
        f"sort on 100 instances x 3 k values ({elapsed:.3f}s)"
    )


def test_criterion_3_grid_fidelity_and_selection_rule():
    sizes = tuple(len(list(grid_candidates(kind))) for kind in KINDS)
    assert sizes == (21, 5, 30, 7, 6, 30, 30, 20)
    # mean prefers A (80 vs 75) but the worst fold prefers B
    a = CandidateScore({"x": 0}, (100.0, 100.0, 40.0))
    b = CandidateScore({"x": 1}, (75.0, 75.0, 75.0))
    assert a.s_mean > b.s_mean
    assert select_best([a, b]) == 1
    print(f"criterion 3: grid sizes {sizes}, max-of-min selection confirmed")


def test_criterion_4_plan_split_and_fold_fidelity():
    plan = build_plan(parse_config({}))
    assert len(plan.entries) == 12
    assert len({e.dataset_id for e in plan.entries}) == 12

    y = np.repeat([0, 1, 2, 3], [57, 143, 200, 400])
    tr, te = stratified_split(y, 0.1, seed=5)
    assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(y.size))
    for c, n_c in zip(*np.unique(y, return_counts=True)):
        got = int(np.sum(y[tr] == c))
        assert abs(got - 0.1 * n_c) <= 1
        assert abs((n_c - got) - 0.9 * n_c) <= 1

    y = np.repeat([0, 1, 2], [23, 40, 17])
    folds = stratified_kfold(y, 5, seed=5)
    vals = [val for _, val in folds]
    assert np.array_equal(np.sort(np.concatenate(vals)), np.arange(y.size))
    for c, n_c in zip(*np.unique(y, return_counts=True)):
        for val in vals:
            assert abs(np.sum(y[val] == c) - n_c / 5) <= 1
    print("criterion 4: 12-run plan, 10/90 split and 5 folds stratified within +-1")


# Criterion 5 fixes one representative grid point per tree-family kind;
# searching the full grids over fifteen synthetic datasets is a CLI job,
# not a test. The points are members of the real grids.
_SINGLETONS = {
    "decision_tree": [{"criterion": "gini", "max_features": "auto"}],
    "random_forest": [{"n_estimators": 256, "criterion": "gini", "max_features": "auto"}],
    "extra_trees": [{"n_estimators": 256, "criterion": "gini", "max_features": "auto"}],
    "gradient_boosting": [{"n_estimators": 64, "learning_rate": 0.5}],
}
_ENSEMBLES = ("random_forest", "extra_trees", "gradient_boosting")


def _derived(config, scenario_id, scheme):
    """Mirror the generate command: synthesize, motion-filter, standardize."""
    ids = [s.scenario_id for s in config.scenarios]
    si = ids.index(scenario_id)
    raw = generate_dataset(
        config.scenarios[si],
        SCHEMES[scheme],
        config.n_per_class,
        derive_seed(config.seed, _GEN_KEY, si, list(SCHEMES).index(scheme)),
        config.target,
    )
    return standardize_dataset(derive_dataset(raw, "motion_filtered"))


@pytest.mark.slow
def test_criterion_5_qualitative_reproduction():
    started = time.perf_counter()
    per_kind = {k: [] for k in ("decision_tree",) + _ENSEMBLES}
    best_simple4, best_grid10, best_indoor = [], [], []

    for seed in range(5):
        config = parse_config({"seed": seed, "n_per_class": 200})

        ds = _derived(config, "outdoor", "simple4")
        res = run_experiment(
            ds.scans,
            ds.labels,
            dataset_id="outdoor-simple4-motion_filtered",
            kinds=tuple(per_kind),
            candidates_by_kind=_SINGLETONS,
            seed=seed,
        )
        assert not res.errors
        acc = {k: res.reports[k].test_accuracy for k in per_kind}
        for k, v in acc.items():
            per_kind[k].append(v)
        best_kind = max(_ENSEMBLES, key=lambda k: acc[k])
        best_simple4.append(acc[best_kind])

        for scenario_id, scheme, sink in (
            ("outdoor", "grid10", best_grid10),
            ("indoor", "simple4", best_indoor),
        ):
            other = _derived(config, scenario_id, scheme)
            res = run_experiment(
                other.scans,
                other.labels,
                dataset_id=f"{scenario_id}-{scheme}-motion_filtered",
                kinds=(best_kind,),
                candidates_by_kind=_SINGLETONS,
                seed=seed,
            )
            assert not res.errors
            sink.append(res.reports[best_kind].test_accuracy)

    med = {k: statistics.median(v) for k, v in per_kind.items()}
    med_best = statistics.median(best_simple4)
    med_grid10 = statistics.median(best_grid10)
    med_indoor = statistics.median(best_indoor)
    elapsed = time.perf_counter() - started

    assert med_best >= 90.0  # (a)
    assert med["random_forest"] >= med["decision_tree"]  # (b)
    assert med["extra_trees"] >= med["decision_tree"]  # (b)
    assert med_best > med_grid10  # (c)
    assert med_indoor <= med_best  # (d)
    assert elapsed < 600.0
    print(
        "criterion 5: medians dt={decision_tree:.1f} rf={random_forest:.1f} "
        "et={extra_trees:.1f} gb={gradient_boosting:.1f}".format(**med)
        + f" | best={med_best:.1f} grid10={med_grid10:.1f} "
        f"indoor={med_indoor:.1f} ({elapsed:.0f}s)"
    )


def test_criterion_6_end_to_end_determinism(tmp_path):
    cfg = {
        "seed": 0,
        "n_per_class": 50,
        "scenarios": {
            "outdoor": {
                "environment": "outdoor",
                "clutter_amplitude": 0.05,
                "clutter_path_count": 4,
                "noise_sigma": 0.001,
            }
        },
        "schemes": ["simple4"],
        "data_types": ["motion_filtered"],
        "estimators": ["linear_svc", "decision_tree"],
    }
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    digests = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(["generate", "--config", str(cfg_path), "--out", out]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", out]) == 0
        with open(os.path.join(out, "reports", "aggregate.csv"), "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    assert digests[0] == digests[1]
    print(f"criterion 6: two runs, identical aggregate sha256 {digests[0][:12]}...")


def test_criterion_7_measured_data_out_of_scope():
    """Accuracy values on hardware-recorded radar captures are out of scope.

    No measured indoor/outdoor recordings exist in this repository, so no
    test can target their exact accuracy figures; the synthetic qualitative
    checks of criterion 5 stand in for them.
    """
    print("criterion 7: hardware-recorded accuracy figures out of scope by design")
