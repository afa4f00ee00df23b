import multiprocessing
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from radarml import modelsel
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
        (scores,) = cross_val_scores("knn", {"n_neighbors": 1}, X, y, folds, seed=0)
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
            CandidateScore(p, *cross_val_scores("gradient_boosting", p, X, y, folds, seed=derive_seed(7, ci)))
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
            CandidateScore(p, *cross_val_scores("knn", p, X, y, folds, seed=derive_seed(5, ci)))
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


def _outcome(result):
    """What a run decides, without its timings."""
    return result.errors, {
        kind: (r.best_params, r.fold_scores, r.test_accuracy, r.confusion.tolist())
        for kind, r in result.reports.items()
    }


class TestJobs:
    def test_chunks_of_folds_score_as_the_whole_list(self):
        # each fold keeps the seed of its index in the full list
        y = np.repeat([0, 1, 2], 20)
        X = features_for(y, jitter=2.0)
        folds = stratified_kfold(y, 5, seed=1)
        params = {"alpha": 0.0001}
        whole = cross_val_scores("perceptron", params, X, y, folds, seed=4)
        head = cross_val_scores("perceptron", params, X, y, folds[:3], seed=4)
        tail = cross_val_scores("perceptron", params, X, y, folds[3:], seed=4, first=3)
        assert [a + b for a, b in zip(head, tail)] == whole
        assert cross_val_scores("perceptron", params, X, y, folds[3:], seed=4) != tail

    @pytest.mark.parametrize(
        "kinds, candidates",
        [
            # every k past a fold's 16 training rows fails
            (("knn",), {"knn": [{"n_neighbors": k} for k in range(1, 31)]}),
            # a failing kind beside two that succeed
            (
                ("knn", "linear_svc", "decision_tree"),
                {
                    "knn": [{"n_neighbors": 25}],
                    "linear_svc": [{"C": 1.0}],
                    "decision_tree": [{"criterion": "gini", "max_features": "auto"}],
                },
            ),
            # several perceptron fits, each stepping its folds in lockstep
            (("perceptron",), {"perceptron": [{"alpha": a} for a in (0.0001, 0.01, 0.1)]}),
        ],
        ids=["knn_exceeds_fold", "failure_beside_success", "perceptron_lockstep"],
    )
    def test_same_result_at_any_jobs(self, kinds, candidates):
        # overlapping classes, so a fold's score depends on its seed
        y = np.repeat([0, 1], 10)
        X = np.random.default_rng(0).normal(size=(y.size, 4)) + 0.5 * y[:, None]
        kw = dict(kinds=kinds, candidates_by_kind=candidates, seed=3)
        outcomes = [
            _outcome(evaluate_kinds(X, y, X[::-1], y[::-1], **kw, jobs=jobs)) for jobs in (1, 2, 4)
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        errors, reports = outcomes[0]
        assert set(errors) | set(reports) == set(kinds)
        if "knn" in kinds:
            assert "exceeds 16 training examples" in errors["knn"]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "kinds, candidates",
        [
            # one kind, one candidate: its refit is fit in its last CV chunk
            (("extra_trees",), {"extra_trees": [{"n_estimators": 16, "criterion": "gini", "max_features": "auto"}]}),
            # refits in the last CV chunk (a single candidate, k-NN's staged
            # grid) beside a kind of two fits, whose refit waits for its CV
            (
                ("linear_svc", "knn", "decision_tree"),
                {
                    "linear_svc": [{"C": 0.1}, {"C": 1.0}],
                    "knn": [{"n_neighbors": k} for k in (1, 3, 5)],
                    "decision_tree": [{"criterion": "entropy", "max_features": "sqrt"}],
                },
            ),
            # a one-candidate CV that fails (folds train on 16 rows) while
            # its refit alone (20 rows) would succeed: the fold's error
            # stands, since the refit is fit after the chunk's folds
            (("knn",), {"knn": [{"n_neighbors": 17}]}),
        ],
        ids=["one_kind", "joined_beside_waiting", "failed_cv"],
    )
    def test_one_candidate_refits_go_in_with_their_cv(self, kinds, candidates):
        # held-out rows of overlapping classes, so test predictions depend
        # on the refit's seed
        y = np.repeat([0, 1], 10)
        rng = np.random.default_rng(5)
        X, X_test = (rng.normal(size=(y.size, 4)) + 0.5 * y[:, None] for _ in range(2))
        kw = dict(kinds=kinds, candidates_by_kind=candidates, seed=6)
        outcomes = [
            _outcome(evaluate_kinds(X, y, X_test, y, **kw, jobs=jobs)) for jobs in (1, 2, 4)
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        errors, reports = outcomes[0]
        if kinds == ("knn",):
            assert errors == {"knn": "ValueError: n_neighbors=17 exceeds 16 training examples"}
        else:
            assert errors == {} and set(reports) == set(kinds)
        assert multiprocessing.active_children() == []

    def test_refit_in_a_cv_chunk_ends_as_a_lone_refit(self):
        # the perceptron's refit steps in lockstep with its last chunk's
        # folds; overlapping classes, so no fit converges early
        y = np.repeat([0, 1, 2], 12)
        X = features_for(y, jitter=2.5)
        X_test = features_for(y, seed=1, jitter=2.5)
        candidates = {
            "perceptron": [{"alpha": 0.0001}],
            "logistic_regression": [{"C": 1.0, "solver": "sag"}],
            "gradient_boosting": [{"n_estimators": 16, "learning_rate": 0.5}],
        }
        kw = dict(kinds=tuple(candidates), candidates_by_kind=candidates, seed=8)
        reports = []
        for jobs in (1, 2, 4):
            result = evaluate_kinds(X, y, X_test, y, **kw, jobs=jobs)
            assert result.errors == {}
            reports.append(
                {kind: {**r.to_dict(), "seconds": 0} for kind, r in result.reports.items()}
            )
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["perceptron"]["converged"] is False
        assert reports[0]["logistic_regression"]["grad_norm"] is not None

    def test_error_is_the_first_in_task_order(self):
        # classes of 10 and 9 rows: folds 0-3 train on 15, fold 4 on 16, so
        # at jobs=4 the last chunk (fold 4 alone) fails with another message
        y = np.repeat([0, 1], [10, 9])
        X = features_for(y)
        errors = [
            evaluate_kinds(
                X, y, X, y, kinds=("knn",), candidates_by_kind={"knn": [{"n_neighbors": 17}]}, jobs=jobs
            ).errors
            for jobs in (1, 2, 4)
        ]
        assert errors == [{"knn": "ValueError: n_neighbors=17 exceeds 15 training examples"}] * 3

    def test_serial_where_the_platform_cannot_fork(self, monkeypatch):
        y = np.repeat([0, 1], 10)
        X = features_for(y, jitter=1.0)
        kw = dict(kinds=("knn",), candidates_by_kind={"knn": [{"n_neighbors": 3}]}, seed=1)
        expected = _outcome(evaluate_kinds(X, y, X, y, **kw, jobs=1))
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(modelsel, "_pooled_searches", None)  # a pool would call it
        assert _outcome(evaluate_kinds(X, y, X, y, **kw, jobs=2)) == expected

    def test_zero_jobs_rejected_before_any_work(self):
        # empty labels would fail the fold split; the jobs check comes first
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            evaluate_kinds(np.zeros((0, 2)), [], np.zeros((0, 2)), [], jobs=0)


def _staged_grid(kind, stages):
    other = {"knn": {}, "gradient_boosting": {"learning_rate": 0.5}}[kind]
    param = {"knn": "n_neighbors", "gradient_boosting": "n_estimators"}[kind]
    return [{param: stage, **other} for stage in stages]


class TestSharedFitRefits:
    """A kind whose grid is one shared fit refits its deepest stage once and
    reads the winner's stage after CV."""

    @pytest.mark.parametrize(
        "kind, stages", [("knn", (1, 2, 3, 5)), ("gradient_boosting", (1, 2, 4, 8))]
    )
    def test_each_stage_equals_a_lone_refit_at_that_stage(self, kind, stages):
        y = np.repeat([0, 1, 2], 12)
        rng = np.random.default_rng(2)
        X, X_test = (rng.normal(size=(y.size, 3)) + 0.7 * y[:, None] for _ in range(2))
        grid = _staged_grid(kind, stages)
        # the refit a last CV chunk fits beside its folds
        folds = stratified_kfold(y, 5, seed=1)[3:]
        _, (predicted, *_) = modelsel._cv_and_refit(kind, grid[-1], X, y, folds, 4, stages, 3, 5, X_test)
        assert sorted(predicted) == list(stages)
        for stage, params in zip(stages, grid):
            alone, *_ = modelsel._refit(kind, params, 5, X, y, X_test)
            np.testing.assert_array_equal(predicted[stage], alone[stage])
        assert len({predicted[stage].tobytes() for stage in stages}) > 1

    def test_same_result_at_any_jobs_with_the_winner_below_the_deepest_stage(self):
        y = np.repeat([0, 1, 2], 15)
        X = features_for(y, jitter=1.5)
        X_test = features_for(y, seed=1, jitter=1.5)
        candidates = {
            "knn": _staged_grid("knn", range(1, 7)),
            "gradient_boosting": _staged_grid("gradient_boosting", (16, 32)),
            # two shared fits: the refit waits for CV
            "logistic_regression": [{"C": 1.0, "solver": s} for s in ("lbfgs", "sag")],
        }
        kw = dict(kinds=tuple(candidates), candidates_by_kind=candidates, seed=4)
        results = [evaluate_kinds(X, y, X_test, y, **kw, jobs=jobs) for jobs in (1, 2, 4)]
        outcomes = [_outcome(result) for result in results]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        errors, reports = outcomes[0]
        assert errors == {} and set(reports) == set(candidates)
        assert reports["knn"][0]["n_neighbors"] < 6
        assert multiprocessing.active_children() == []

    def test_refits_of_one_shared_fit_join_their_last_cv_chunk(self, monkeypatch):
        # the pool is swapped for threads that log what the scheduler does
        log = []

        class LoggingPool(ThreadPoolExecutor):
            def __init__(self, workers, initializer, initargs):
                super().__init__(workers, initializer=initializer, initargs=initargs)

            def submit(self, fn, *args):
                # (task, kind, whether a CV task carries a refit seed)
                log.append((fn.__name__, args[0], fn.__name__ == "_worker_cv" and args[-1] is not None))
                return super().submit(fn, *args)

        chunked = modelsel._chunked_search

        def logged(kind, *args):
            log.append(("read cv", kind, False))
            return chunked(kind, *args)

        monkeypatch.setattr(modelsel, "fork_pool", LoggingPool)
        monkeypatch.setattr(modelsel, "_chunked_search", logged)
        y = np.repeat([0, 1], 10)
        X = features_for(y, jitter=1.0)
        candidates = {
            "logistic_regression": [{"C": c, "solver": "lbfgs"} for c in (0.1, 1.0)],
            "knn": _staged_grid("knn", (1, 3)),
            "gradient_boosting": _staged_grid("gradient_boosting", (16, 32)),
            "perceptron": [{"alpha": 0.0001}],
        }
        evaluate_kinds(X, y, X, y, kinds=tuple(candidates), candidates_by_kind=candidates, jobs=2)
        # two chunks per shared fit: the second of a one-fit kind carries its refit
        cv = [(kind, joined) for name, kind, joined in log if name == "_worker_cv"]
        assert cv == [("logistic_regression", False)] * 4 + [
            (kind, joined) for kind in ("knn", "gradient_boosting", "perceptron") for joined in (False, True)
        ]
        first_read = log.index(("read cv", "logistic_regression", False))
        assert log[: first_read] == [("_worker_cv", kind, joined) for kind, joined in cv]
        assert [entry for entry in log if entry[0] == "_worker_refit"] == [
            ("_worker_refit", "logistic_regression", False)
        ]
        assert log[first_read + 1] == ("_worker_refit", "logistic_regression", False)


class TestReportGradNorm:
    def test_report_json_carries_the_refits_grad_norm(self):
        import json

        y = np.repeat([0, 1], 20)
        X = features_for(y, jitter=1.0)
        candidates = {
            "logistic_regression": [{"C": 1.0, "solver": s} for s in ("lbfgs", "sag", "newton-cg")],
            "knn": [{"n_neighbors": 1}],
            "perceptron": [{"alpha": 0.0001}],
        }
        result = evaluate_kinds(
            X[::2], y[::2], X[1::2], y[1::2],
            kinds=tuple(candidates), candidates_by_kind=candidates, seed=0,
        )
        reports = {k: json.loads(json.dumps(r.to_dict())) for k, r in result.reports.items()}
        lr = reports["logistic_regression"]
        assert lr["converged"] is True and 0.0 < lr["grad_norm"] < 1e-5
        assert reports["knn"]["grad_norm"] is None
        assert reports["perceptron"]["grad_norm"] is None


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
        report = result.reports["knn"]
        assert report.n_train == 15  # 10% of each class of 50
        assert report.n_test == 135
        assert report.test_accuracy == 100.0

    def test_deterministic_across_runs(self):
        y = np.repeat([0, 1], 60)
        X = features_for(y, jitter=1.0)
        kw = dict(kinds=("decision_tree",), seed=5)
        a = run_experiment(X, y, **kw)
        b = run_experiment(X, y, **kw)
        ra, rb = (r.reports["decision_tree"].to_dict() for r in (a, b))
        assert {**ra, "seconds": 0} == {**rb, "seconds": 0}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_experiment(np.zeros((4, 2)), [0, 1])
