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

    def test_labels_mapped_back(self):
        X = np.array([[0.0], [10.0]])
        model = KNearestNeighbors(n_neighbors=1).fit(X, np.array([-3, 12]))
        assert model.predict(np.array([[1.0], [9.0]])).tolist() == [-3, 12]
