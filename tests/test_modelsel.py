import numpy as np
import pytest

from radarml.modelsel import (
    CandidateScore,
    cross_val_scores,
    evaluate_kinds,
    grid_search,
    run_experiment,
    select_best,
    stratified_kfold,
    stratified_split,
)
from radarml.seeding import derive_seed


def features_for(y, seed=0, jitter=0.3):
    """Linearly separable 2-D features keyed to the labels."""
    rng = np.random.default_rng(seed)
    centers = np.array([[3.0 * c, -2.0 * c] for c in range(int(np.max(y)) + 1)])
    return centers[y] + rng.normal(0.0, jitter, size=(y.size, 2))


class TestStratifiedSplit:
    def test_ten_percent_rounds_half_up_per_class(self):
        y = np.repeat([0, 1, 2], [100, 100, 40])
        tr, te = stratified_split(y, 0.10, seed=0)
        tr_counts = np.bincount(y[tr], minlength=3)
        assert tr_counts.tolist() == [10, 10, 4]
        assert np.bincount(y[te], minlength=3).tolist() == [90, 90, 36]

    def test_rounding_table(self):
        # round(0.1 * 14) = 1, round(0.1 * 15) = 2 with half-up ties
        y = np.repeat([0, 1], [14, 15])
        tr, _ = stratified_split(y, 0.10, seed=0)
        assert np.bincount(y[tr]).tolist() == [1, 2]

    def test_every_class_on_both_sides(self):
        y = np.repeat([0, 1], [2, 200])
        tr, te = stratified_split(y, 0.10, seed=3)
        for c in (0, 1):
            assert np.any(y[tr] == c)
            assert np.any(y[te] == c)

    def test_partition_exact(self):
        y = np.repeat(np.arange(4), 25)
        tr, te = stratified_split(y, 0.10, seed=1)
        merged = np.sort(np.concatenate([tr, te]))
        np.testing.assert_array_equal(merged, np.arange(y.size))
        assert np.intersect1d(tr, te).size == 0

    def test_seed_controls_membership(self):
        y = np.repeat([0, 1], 50)
        a, _ = stratified_split(y, 0.10, seed=0)
        b, _ = stratified_split(y, 0.10, seed=0)
        c, _ = stratified_split(y, 0.10, seed=1)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            stratified_split(np.repeat([0, 1], 10), train_fraction=0.0)
        with pytest.raises(ValueError):
            stratified_split(np.zeros(10, dtype=int))  # one class
        with pytest.raises(ValueError):
            stratified_split(np.array([0, 1, 1]))  # class 0 too thin


class TestStratifiedKFold:
    def test_sizes_within_one_per_class(self):
        y = np.repeat([0, 1, 2], [23, 40, 17])
        folds = stratified_kfold(y, 5, seed=0)
        assert len(folds) == 5
        for c, total in zip((0, 1, 2), (23, 40, 17)):
            per_fold = [int(np.sum(y[val] == c)) for _, val in folds]
            assert sum(per_fold) == total
            assert max(per_fold) - min(per_fold) <= 1

    def test_folds_partition_everything(self):
        y = np.repeat([0, 1], [30, 25])
        folds = stratified_kfold(y, 5, seed=2)
        all_val = np.sort(np.concatenate([val for _, val in folds]))
        np.testing.assert_array_equal(all_val, np.arange(y.size))
        for train, val in folds:
            assert np.intersect1d(train, val).size == 0
            np.testing.assert_array_equal(
                np.sort(np.concatenate([train, val])), np.arange(y.size)
            )

    def test_deterministic_per_seed(self):
        y = np.repeat([0, 1], 20)
        a = stratified_kfold(y, 4, seed=9)
        b = stratified_kfold(y, 4, seed=9)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)

    def test_thin_class_rejected(self):
        y = np.repeat([0, 1], [4, 50])
        with pytest.raises(ValueError):
            stratified_kfold(y, 5)

    def test_min_two_folds(self):
        with pytest.raises(ValueError):
            stratified_kfold(np.repeat([0, 1], 10), 1)


class TestSelectBest:
    def test_max_min_beats_max_mean(self):
        # A has the higher mean (80) but B's worst fold (75) beats A's (40)
        a = CandidateScore({"C": 1.0}, (100.0, 100.0, 40.0))
        b = CandidateScore({"C": 10.0}, (75.0, 75.0, 75.0))
        assert a.s_mean > b.s_mean
        assert select_best([a, b]) == 1

    def test_tie_keeps_earliest(self):
        a = CandidateScore({"k": 1}, (70.0, 90.0))
        b = CandidateScore({"k": 2}, (70.0, 95.0))
        assert select_best([a, b]) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_best([])

    def test_properties(self):
        c = CandidateScore({}, (50.0, 70.0, 90.0))
        assert c.s_min == 50.0
        assert c.s_mean == 70.0


class TestCrossValScores:
    def test_one_score_per_fold_and_perfect_on_separable(self):
        y = np.repeat([0, 1, 2], 20)
        X = features_for(y, jitter=0.1)
        folds = stratified_kfold(y, 5, seed=0)
        scores = cross_val_scores("knn", {"n_neighbors": 1}, X, y, folds, seed=0)
        assert len(scores) == 5
        assert scores == (100.0,) * 5


class TestGridSearch:
    def test_explicit_candidates_validated(self):
        y = np.repeat([0, 1], 15)
        X = features_for(y)
        folds = stratified_kfold(y, 3, seed=0)
        with pytest.raises(ValueError):
            grid_search("knn", X, y, folds, candidates=[{"n_neighbors": 99}])

    def test_winner_has_best_min_fold(self):
        y = np.repeat([0, 1], 25)
        X = features_for(y, jitter=1.5)
        folds = stratified_kfold(y, 5, seed=1)
        result = grid_search(
            "knn", X, y, folds, seed=0, candidates=[{"n_neighbors": k} for k in (1, 3, 5)]
        )
        mins = [c.s_min for c in result.candidates]
        assert result.best.s_min == max(mins)
        assert result.best_index == mins.index(max(mins))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            grid_search("naive_bayes", np.zeros((4, 2)), [0, 0, 1, 1], [])


class TestStagedGridSearch:
    @pytest.mark.parametrize("counts", [(16, 32, 64), (32, 16)])
    def test_matches_one_fit_per_candidate(self, counts):
        y = np.repeat([0, 1, 2], 20)
        rng = np.random.default_rng(4)
        X = np.column_stack([features_for(y, jitter=3.0), rng.normal(size=(y.size, 2))])
        folds = stratified_kfold(y, 3, seed=0)
        candidates = [{"n_estimators": n, "learning_rate": lr} for n in counts for lr in (0.5, 1.0)]
        result = grid_search("gradient_boosting", X, y, folds, seed=7, candidates=candidates)
        expected = [
            CandidateScore(p, cross_val_scores("gradient_boosting", p, X, y, folds, seed=derive_seed(7, ci)))
            for ci, p in enumerate(candidates)
        ]
        assert result.candidates == expected
        assert result.best_index == select_best(expected)
        assert len({c.scores for c in expected}) > 1


class TestStagedKnnSearch:
    def test_k_1_to_30_matches_one_fit_per_candidate(self):
        y = np.repeat([0, 1, 2], 25)
        rng = np.random.default_rng(8)
        X = np.round(np.column_stack([features_for(y, jitter=2.0), rng.normal(size=(y.size, 2))]))
        folds = stratified_kfold(y, 5, seed=3)
        candidates = [{"n_neighbors": k} for k in range(1, 31)]
        result = grid_search("knn", X, y, folds, seed=5, candidates=candidates)
        expected = [
            CandidateScore(p, cross_val_scores("knn", p, X, y, folds, seed=derive_seed(5, ci)))
            for ci, p in enumerate(candidates)
        ]
        assert result.candidates == expected
        assert result.best_index == select_best(expected)
        assert len({c.scores for c in expected}) > 5

    def test_k_beyond_a_fold_lands_the_kind_in_errors(self):
        y = np.repeat([0, 1], 10)
        X = features_for(y)
        result = evaluate_kinds(
            X, y, X, y,
            kinds=("knn",),
            candidates_by_kind={"knn": [{"n_neighbors": k} for k in range(1, 31)]},
            seed=0,
        )
        assert result.reports == {}
        assert "exceeds 16 training examples" in result.errors["knn"]


class TestEvaluateKinds:
    def test_reports_and_failure_isolation(self):
        y = np.repeat([0, 1], 30)
        X = features_for(y, jitter=0.2)
        result = evaluate_kinds(
            X[:40],
            y[:40],
            X[40:],
            y[40:],
            dataset_id="toy",
            kinds=("knn", "decision_tree"),
            candidates_by_kind={
                "knn": [{"n_neighbors": 1}],
                "decision_tree": [{"criterion": "gini", "max_features": "auto"}],
            },
            seed=0,
        )
        assert set(result.reports) == {"knn", "decision_tree"}
        assert result.errors == {}
        rep = result.reports["knn"]
        assert rep.dataset_id == "toy"
        assert rep.n_train == 40 and rep.n_test == 20
        assert 0.0 <= rep.test_accuracy <= 100.0
        assert rep.confusion.sum() == 20
        assert rep.seconds >= 0.0

    def test_failing_kind_does_not_stop_others(self):
        y = np.repeat([0, 1], 10)
        X = features_for(y)
        result = evaluate_kinds(
            X,
            y,
            X,
            y,
            kinds=("knn", "linear_svc"),
            # 25 neighbors exceeds each fold's training size -> knn fails
            candidates_by_kind={"knn": [{"n_neighbors": 25}], "linear_svc": [{"C": 1.0}]},
            seed=0,
        )
        assert "knn" in result.errors
        assert "linear_svc" in result.reports

    def test_report_to_dict_is_json_ready(self):
        import json

        y = np.repeat([0, 1], 20)
        X = features_for(y)
        result = evaluate_kinds(
            X[::2], y[::2], X[1::2], y[1::2],
            kinds=("linear_svc",),
            candidates_by_kind={"linear_svc": [{"C": 1.0}]},
            seed=0,
        )
        blob = json.dumps(result.reports["linear_svc"].to_dict())
        assert "test_accuracy" in blob

    def test_report_says_how_the_refit_ended(self):
        y = np.repeat([0, 1], 20)
        X = features_for(y)
        result = evaluate_kinds(
            X[::2], y[::2], X[1::2], y[1::2],
            kinds=("perceptron", "logistic_regression", "knn"),
            candidates_by_kind={
                "perceptron": [{"alpha": 0.0001}],
                "logistic_regression": [{"C": 1.0, "solver": "sag"}],
                "knn": [{"n_neighbors": 1}],
            },
            seed=0,
        )
        for kind in ("perceptron", "logistic_regression"):
            report = result.reports[kind].to_dict()
            assert report["converged"] is True
            assert isinstance(report["n_iter"], int) and report["n_iter"] >= 1
        knn = result.reports["knn"].to_dict()
        assert knn["n_iter"] is None and knn["converged"] is None


class TestRunExperiment:
    def test_end_to_end_toy(self):
        y = np.repeat([0, 1, 2], 50)
        X = features_for(y, jitter=0.2)
        result = run_experiment(
            X,
            y,
            dataset_id="toy",
            kinds=("knn",),
            candidates_by_kind={"knn": [{"n_neighbors": 1}, {"n_neighbors": 3}]},
            seed=0,
        )
        assert result.train_indices.size == 15  # 10% of each class of 50
        assert result.test_indices.size == 135
        assert result.reports["knn"].test_accuracy == 100.0

    def test_deterministic_across_runs(self):
        y = np.repeat([0, 1], 60)
        X = features_for(y, jitter=1.0)
        kw = dict(kinds=("decision_tree",), seed=5)
        a = run_experiment(X, y, **kw)
        b = run_experiment(X, y, **kw)
        ra, rb = a.reports["decision_tree"], b.reports["decision_tree"]
        assert ra.best_params == rb.best_params
        assert ra.fold_scores == rb.fold_scores
        assert ra.test_accuracy == rb.test_accuracy
        np.testing.assert_array_equal(a.train_indices, b.train_indices)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(np.zeros((4, 2)), [0, 1])
