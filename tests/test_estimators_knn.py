import numpy as np
import pytest

from radarml.estimators import neighbors
from radarml.estimators.neighbors import KNearestNeighbors


def oracle_predict_one(X_train, y_train, x, k, n_classes):
    """Exhaustive scalar reimplementation: full sort, lowest-index ties,
    smallest-label vote ties."""
    d2 = [float(((row - x) ** 2).sum()) for row in X_train]
    order = sorted(range(len(d2)), key=lambda i: (d2[i], i))[:k]
    counts = [0] * n_classes
    for i in order:
        counts[y_train[i]] += 1
    best = max(counts)
    return counts.index(best)


class TestAgainstExhaustiveOracle:
    @pytest.mark.parametrize("k", [1, 3, 7, 15])
    def test_hundred_instances(self, k):
        rng = np.random.default_rng(42)
        X_train = rng.normal(size=(60, 8))
        y_train = rng.integers(0, 4, size=60)
        y_train[:4] = np.arange(4)
        X_test = rng.normal(size=(100, 8))
        model = KNearestNeighbors(n_neighbors=k).fit(X_train, y_train)
        got = model.predict(X_test)
        want = [oracle_predict_one(X_train, y_train, x, k, 4) for x in X_test]
        assert got.tolist() == want

    @pytest.mark.parametrize("k", [1, 4])
    def test_discrete_grid_forces_distance_ties(self, k):
        rng = np.random.default_rng(9)
        X_train = rng.integers(0, 2, size=(40, 5)).astype(np.float64)
        y_train = rng.integers(0, 3, size=40)
        y_train[:3] = np.arange(3)
        X_test = rng.integers(0, 2, size=(100, 5)).astype(np.float64)
        model = KNearestNeighbors(n_neighbors=k).fit(X_train, y_train)
        want = [oracle_predict_one(X_train, y_train, x, k, 3) for x in X_test]
        assert model.predict(X_test).tolist() == want


class TestStagedPredict:
    @pytest.mark.parametrize("block_elements", [1, 1 << 17])
    def test_each_stage_matches_a_fit_with_that_k(self, monkeypatch, block_elements):
        # the discrete grid of the oracle test: many tied distances and votes
        monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", block_elements)
        rng = np.random.default_rng(9)
        X_train = rng.integers(0, 2, size=(40, 5)).astype(np.float64)
        y_train = rng.integers(0, 3, size=40) * 10
        y_train[:3] = [0, 10, 20]
        X_test = rng.integers(0, 2, size=(100, 5)).astype(np.float64)
        staged = list(KNearestNeighbors(n_neighbors=40).fit(X_train, y_train).staged_predict(X_test))
        assert len(staged) == 40
        for k, labels in enumerate(staged, start=1):
            alone = KNearestNeighbors(n_neighbors=k).fit(X_train, y_train)
            np.testing.assert_array_equal(labels, alone.predict(X_test))
            want = [oracle_predict_one(X_train, y_train // 10, x, k, 3) * 10 for x in X_test]
            assert labels.tolist() == want
        assert len({labels.tobytes() for labels in staged}) > 5

    def test_validates_input(self):
        model = KNearestNeighbors(n_neighbors=2).fit(np.eye(3), [0, 1, 1])
        with pytest.raises(ValueError):
            next(model.staged_predict(np.eye(4)))


class TestTieRules:
    def test_equal_distance_keeps_lower_training_index(self):
        X = np.array([[1.0], [-1.0]])  # both at distance 1 from the query
        model = KNearestNeighbors(n_neighbors=1).fit(X, np.array([5, 7]))
        assert model.predict(np.array([[0.0]]))[0] == 5

    def test_vote_tie_picks_smallest_label(self):
        X = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        y = np.array([9, 9, 4, 4])
        model = KNearestNeighbors(n_neighbors=4).fit(X, y)
        # two votes each; 4 < 9 wins
        assert model.predict(np.array([[0.0]]))[0] == 4


class TestInterface:
    def test_chunked_prediction_matches_single_block(self):
        rng = np.random.default_rng(3)
        X_train = rng.normal(size=(50, 4))
        y_train = rng.integers(0, 2, size=50)
        y_train[:2] = [0, 1]
        X_test = rng.normal(size=(600, 4))
        model = KNearestNeighbors(n_neighbors=5).fit(X_train, y_train)
        whole = model.predict(X_test)
        parts = np.concatenate([model.predict(X_test[:300]), model.predict(X_test[300:])])
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("block_elements", [1, 3 * 40 * 7, 1 << 30])
    def test_predictions_do_not_depend_on_block_size(self, monkeypatch, block_elements):
        # one query row per block, 3 rows per block, and every row in one block
        rng = np.random.default_rng(4)
        X_train = np.round(rng.normal(size=(40, 7)))  # integer grid: many tied distances
        y_train = rng.integers(0, 3, size=40)
        X_test = np.round(rng.normal(size=(97, 7)))
        model = KNearestNeighbors(n_neighbors=4).fit(X_train, y_train)
        want = model.predict(X_test)
        monkeypatch.setattr(neighbors, "_BLOCK_ELEMENTS", block_elements)
        np.testing.assert_array_equal(model.predict(X_test), want)
        for i in range(0, 97, 24):
            assert model.predict(X_test[i : i + 1])[0] == want[i]

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            KNearestNeighbors(n_neighbors=0)

    def test_k_larger_than_train_rejected(self):
        with pytest.raises(ValueError):
            KNearestNeighbors(n_neighbors=5).fit(np.zeros((3, 2)), [0, 1, 0])

    def test_k_larger_than_train_leaves_the_model_unfitted(self):
        # the check fails after the labels are encoded: neither the new
        # classes nor the last fit's training rows may answer a predict
        X = np.random.default_rng(0).normal(size=(20, 2))
        model = KNearestNeighbors(n_neighbors=5).fit(X, np.arange(20) % 2)
        first = KNearestNeighbors(n_neighbors=5)
        for m in (model, first):
            with pytest.raises(ValueError, match="exceeds 3 training examples"):
                m.fit(X[:3], ["a", "b", "a"])
            with pytest.raises(ValueError, match="is not fitted"):
                m.predict(X[:4])

    def test_labels_mapped_back(self):
        X = np.array([[0.0], [10.0]])
        model = KNearestNeighbors(n_neighbors=1).fit(X, np.array([-3, 12]))
        assert model.predict(np.array([[1.0], [9.0]])).tolist() == [-3, 12]


def _pairwise_sq_distances(A, B):
    # the brute force: (a - b)^2 of every pair, summed over the feature axis
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


def _screen_inputs(case):
    """(X_train, X_test) of 24 training and 60 query rows for one case."""
    rng = np.random.default_rng(11)
    # past 128 features numpy's pairwise sum splits a row's sum in halves
    n_features = 300 if case == "wide_rows" else 12
    X_train = rng.normal(size=(24, n_features))
    X_test = rng.normal(size=(60, n_features))
    if case == "duplicate_rows":
        X_train[12:18] = X_train[:6]
        X_train[18:21] = X_train[0]
        X_test[:24] = X_train + 1e-9 * rng.normal(size=X_train.shape)
    elif case == "queries_on_training_rows":
        X_train[12:16] = X_train[:4]
        X_test[:24] = X_train
    elif case == "scaled_1e6":
        X_train, X_test = 1e6 * X_train, 1e6 * X_test
    elif case == "scaled_1e-6":
        X_train, X_test = 1e-6 * X_train, 1e-6 * X_test
    elif case == "far_from_origin":
        # rows 1e-3 apart and 1e5 from the origin: g = |q|^2 + |b|^2 - 2 q.b
        # cancels to its rounding error, so its ranking alone is wrong
        X_train, X_test = 1e5 + 1e-3 * X_train, 1e5 + 1e-3 * X_test
    elif case == "integer_grid":
        X_train, X_test = np.round(X_train), np.round(X_test)
    elif case == "past_the_screen_limit":
        # |q|^2 + |b|^2 beyond 2^1000: every training row is ranked exactly
        X_train, X_test = 1e150 * X_train, 1e150 * X_test
    return X_train, X_test


class TestScreenAgainstBruteForce:
    """The screened neighbor lists are the first k of a stable argsort of
    the brute-force distances, ties included, for every k."""

    @pytest.mark.parametrize(
        "case",
        [
            "duplicate_rows",
            "queries_on_training_rows",
            "scaled_1e6",
            "scaled_1e-6",
            "far_from_origin",
            "integer_grid",
            "past_the_screen_limit",
            "wide_rows",
        ],
    )
    def test_every_k_matches_the_stable_argsort(self, case):
        X_train, X_test = _screen_inputs(case)
        n_train = X_train.shape[0]
        y_train = np.arange(n_train) % 5
        ranked = np.argsort(_pairwise_sq_distances(X_test, X_train), axis=1, kind="stable")
        # votes[i, j, c]: brute-force neighbors among the j + 1 nearest in class c
        votes = np.cumsum(y_train[ranked][:, :, None] == np.arange(5), axis=1)
        for k in range(1, n_train + 1):
            model = KNearestNeighbors(n_neighbors=k).fit(X_train, y_train)
            nearest = np.concatenate([rows for _, rows in model._nearest(X_test)])
            np.testing.assert_array_equal(nearest, ranked[:, :k], err_msg=f"k={k}")
            for j, labels in enumerate(model.staged_predict(X_test)):
                np.testing.assert_array_equal(labels, np.argmax(votes[:, j], axis=1))
