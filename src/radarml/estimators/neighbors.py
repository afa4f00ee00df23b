"""Brute-force k-nearest-neighbors classifier."""

from __future__ import annotations

import numpy as np

from .base import Classifier, encode_training_data

# Elements of the (rows, n_train, n_features) difference temporary per
# distance block: 1 MB of float64, so a block stays in cache (at least one
# row per block). Each query row's sums do not depend on the other rows of
# its block, so the block size never changes a distance.
_BLOCK_ELEMENTS = 1 << 17


def _pairwise_sq_distances(A, B):
    # (a - b)^2 accumulated directly; dot-product expansion would be
    # faster but loses exactness for tied distances.
    return ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)


class KNearestNeighbors(Classifier):
    """k-NN with exact Euclidean distances.

    Neighbor ties at equal distance keep the lower training index; vote
    ties between classes pick the smallest label.
    """

    kind = "knn"
    fitted = ("_X", "_codes")
    # The k nearest neighbors are the first k of one stable sort, so one fit
    # scores every n_neighbors up to its own.
    staged_param = "n_neighbors"

    def __init__(self, n_neighbors=1, seed=0):
        if int(n_neighbors) < 1:
            raise ValueError("n_neighbors must be >= 1")
        self.n_neighbors = int(n_neighbors)
        self.seed = int(seed)  # unused; kept for a uniform constructor surface

    def fit(self, X, y):
        X, codes, self.classes_ = encode_training_data(X, y)
        if self.n_neighbors > X.shape[0]:
            raise ValueError(
                f"n_neighbors={self.n_neighbors} exceeds {X.shape[0]} training examples"
            )
        self._X = X
        self._codes = codes
        self.n_features_ = X.shape[1]
        return self

    def _staged_codes(self, X):
        """Class codes for each k up to n_neighbors: the vote of the k
        nearest neighbors, whose ties go to the smallest code."""
        k = self.n_neighbors
        classes = np.arange(len(self.classes_))
        out = np.empty((X.shape[0], k), dtype=np.int64)
        rows = max(1, _BLOCK_ELEMENTS // self._X.size)
        for start in range(0, X.shape[0], rows):
            block = X[start : start + rows]
            d2 = _pairwise_sq_distances(block, self._X)
            # stable sort so equal distances keep training order
            nearest = np.argsort(d2, axis=1, kind="stable")[:, :k]
            # votes[i, j, c]: neighbors among the j + 1 nearest in class c
            votes = np.cumsum(self._codes[nearest][:, :, None] == classes, axis=1)
            out[start : start + rows] = np.argmax(votes, axis=2)
        yield from out.T
