import numpy as np
import pytest

from radarml.estimators.ensemble import (
    ExtraTrees,
    GradientBoosting,
    RandomForest,
    _majority_vote,
)
from radarml.estimators.tree import TreeNodes


def blobs(n_per=15, seed=0, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = ((-4.0, 0.0), (4.0, 0.0), (0.0, 6.0))
    X = np.concatenate([rng.normal(c, spread, size=(n_per, 2)) for c in centers])
    y = np.repeat(np.arange(3), n_per)
    return X, y


def overlapping(n_per=12, seed=0):
    """Three classes that overlap, plus two pure-noise features."""
    rng = np.random.default_rng(seed)
    X, y = blobs(n_per=n_per, seed=seed, spread=3.0)
    return np.column_stack([X, rng.normal(size=(y.size, 2))]), y


def leaf(value):
    return TreeNodes(
        feature=np.array([-1]),
        threshold=np.array([0.0]),
        left=np.array([-1]),
        right=np.array([-1]),
        value=np.array([float(value)]),
    )


def nested(nodes, i=0):
    if nodes.feature[i] < 0:
        return ("leaf", float(nodes.value[i]))
    return (
        int(nodes.feature[i]),
        float(nodes.threshold[i]),
        nested(nodes, nodes.left[i]),
        nested(nodes, nodes.right[i]),
    )


class TestMajorityVote:
    def test_tie_goes_to_smallest_class(self):
        X = np.zeros((2, 1))
        votes = _majority_vote([leaf(1), leaf(0)], X, n_classes=3)
        assert votes.tolist() == [0, 0]

    def test_majority_wins(self):
        X = np.zeros((1, 1))
        assert _majority_vote([leaf(2), leaf(2), leaf(0)], X, 3).tolist() == [2]


@pytest.mark.parametrize("cls", [RandomForest, ExtraTrees])
class TestForests:
    def test_deterministic_per_seed(self, cls):
        X, y = blobs()
        a = cls(n_estimators=8, seed=3).fit(X, y)
        b = cls(n_estimators=8, seed=3).fit(X, y)
        assert len(a.trees_) == 8
        for ta, tb in zip(a.trees_, b.trees_):
            assert nested(ta) == nested(tb)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_seed_changes_member_trees(self, cls):
        X, y = blobs()
        a = cls(n_estimators=4, seed=0).fit(X, y)
        b = cls(n_estimators=4, seed=1).fit(X, y)
        assert any(nested(ta) != nested(tb) for ta, tb in zip(a.trees_, b.trees_))

    def test_members_are_distinct(self, cls):
        X, y = blobs()
        model = cls(n_estimators=6, seed=2).fit(X, y)
        shapes = {nested(t) for t in model.trees_}
        assert len(shapes) > 1

    def test_training_set_accuracy(self, cls):
        X, y = blobs()
        model = cls(n_estimators=16, seed=0).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_invalid_params_rejected(self, cls):
        with pytest.raises(ValueError):
            cls(n_estimators=0)
        with pytest.raises(ValueError):
            cls(criterion="variance")


class TestExtraTreesUseFullSample:
    def test_full_sample_no_bootstrap(self):
        # with no feature subsampling the only randomness left is the
        # thresholds, so every member must classify the training set
        # perfectly (distinct rows, grown to purity)
        X, y = blobs(seed=7)
        from radarml.estimators.tree import tree_apply

        model = ExtraTrees(n_estimators=5, max_features=None, seed=0).fit(X, y)
        for nodes in model.trees_:
            assert np.array_equal(tree_apply(nodes, X).astype(int), y)


class TestGradientBoosting:
    def test_deviance_starts_at_prior_and_never_increases(self):
        X, y = blobs()
        model = GradientBoosting(n_estimators=12, learning_rate=1.0).fit(X, y)
        assert model.train_deviance_.size == 13
        assert model.train_deviance_[0] == pytest.approx(np.log(3.0))
        assert np.all(np.diff(model.train_deviance_) <= 1e-9)

    def test_structure_one_tree_per_class_per_stage(self):
        X, y = blobs()
        model = GradientBoosting(n_estimators=4).fit(X, y)
        assert len(model.stages_) == 4
        assert all(len(stage) == 3 for stage in model.stages_)
        assert model.init_scores_.shape == (3,)

    def test_training_set_accuracy(self):
        X, y = blobs()
        model = GradientBoosting(n_estimators=16, learning_rate=0.5).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_repeat_fits_identical(self):
        X, y = blobs(seed=4)
        a = GradientBoosting(n_estimators=6).fit(X, y)
        b = GradientBoosting(n_estimators=6).fit(X, y)
        np.testing.assert_array_equal(a.train_deviance_, b.train_deviance_)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_learning_rate_bounds(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                GradientBoosting(learning_rate=bad)
        GradientBoosting(learning_rate=1.0)  # boundary value is legal

    def test_unbalanced_priors(self):
        rng = np.random.default_rng(0)
        X = np.concatenate([rng.normal(-3, 0.5, (30, 2)), rng.normal(3, 0.5, (10, 2))])
        y = np.array([0] * 30 + [1] * 10)
        model = GradientBoosting(n_estimators=2).fit(X, y)
        np.testing.assert_allclose(model.init_scores_, np.log([0.75, 0.25]))

    def test_stage_prefix_is_the_shorter_fit(self):
        X, y = overlapping()
        X_new, _ = overlapping(seed=1)
        full = GradientBoosting(n_estimators=32).fit(X, y)
        half = GradientBoosting(n_estimators=16).fit(X, y)
        assert [[nested(t) for t in s] for s in full.stages_[:16]] == [
            [nested(t) for t in s] for s in half.stages_
        ]
        scores = [F.copy() for F in full._staged_scores(X_new)]
        assert len(scores) == 32
        *_, half_scores = half._staged_scores(X_new)
        assert np.array_equal(scores[15], half_scores)
        assert not np.array_equal(scores[15], scores[31])
        labels = list(full.staged_predict(X_new))
        assert np.array_equal(labels[15], half.predict(X_new))
        assert np.array_equal(labels[31], full.predict(X_new))

    def test_seed_does_not_change_the_fit(self):
        X, y = overlapping(seed=2)
        a = GradientBoosting(n_estimators=8, seed=0).fit(X, y)
        b = GradientBoosting(n_estimators=8, seed=1).fit(X, y)
        assert [[nested(t) for t in s] for s in a.stages_] == [[nested(t) for t in s] for s in b.stages_]

    def test_training_scores_match_staged_scores(self):
        # the fit adds each training row's leaf value instead of applying
        # the tree, so its recorded deviances must be those of the scores
        # it gives after each stage, to the last bit
        X, y = overlapping(seed=3)
        model = GradientBoosting(n_estimators=12, learning_rate=1.0).fit(X, y)
        deviances = [GradientBoosting._deviance(F, y) for F in model._staged_scores(X)]
        assert np.array_equal(model.train_deviance_[1:], deviances)
