"""k-nearest-neighbors classifier with exact Euclidean distances."""

from __future__ import annotations

import numpy as np

from .base import Classifier, positive_int

# Elements of the largest temporary of one block: the (rows, n_train)
# screen matrices and the (pairs, n_features) differences of the exact
# distances. 1 MB of float64, so a block stays in cache (at least one row
# or pair per block). Each distance and each query row's screen depend on
# that row alone, so the block size never changes a neighbor.
_BLOCK_ELEMENTS = 1 << 17

# Screens of pairs with ||q||^2 + ||b||^2 past this bound keep every
# training row, so no step of the screen can overflow.
_SCREEN_LIMIT = 2.0**1000


def _sq_distances(A, B):
    """Squared distances of the rows of ``A`` and ``B``, pair by pair, with
    ``A`` overwritten: ``(a - b)**2`` summed over a contiguous feature
    axis, so a pair's distance has the same bits however many pairs there
    are, and the same as a brute force over every pair."""
    A -= B
    A *= A
    return A.sum(axis=1)


def _screen(block, X, k):
    """(query row, training row) pairs, row-major, that hold every
    training row whose ``_sq_distances`` to the query is at most the k-th
    smallest of that query.

    g = ||q||^2 + ||b||^2 - 2 q.b takes one BLAS product. With u = 2^-53,
    s = ||q||^2 + ||b||^2 and d features, each dot product in g is off by
    at most gamma_d |x|.|y| in any summation order (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1), so g is within
    2 gamma_(d+2) s of ||q - b||^2, and so is the summed ``(q - b)**2``.
    The bound used, 8 (d + 2) u s plus (d + 2) smallest normals for
    underflow, is twice their sum. Every row whose lower bound is at most
    the k-th smallest upper bound is kept; NaN and inf keep a row.
    """
    d = X.shape[1]
    # past _SCREEN_LIMIT an overflow only widens the bound to inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        sq_train = np.einsum("ij,ij->i", X, X)
        sq_block = np.einsum("ij,ij->i", block, block)
        total = sq_block[:, None] + sq_train
        gram = total - 2.0 * (block @ X.T)
        bound = (d + 2) * (2.0**-50 * total + np.finfo(np.float64).tiny)
        bound[~(total <= _SCREEN_LIMIT)] = np.inf
        kth_upper = np.partition(gram + bound, k - 1, axis=1)[:, k - 1 : k]
        return np.nonzero(~(gram - bound > kth_upper))


class KNearestNeighbors(Classifier):
    """k-NN with exact Euclidean distances.

    Neighbor ties at equal distance keep the lower training index; vote
    ties between classes pick the smallest label.
    """

    kind = "knn"
    # The k nearest neighbors are the first k of one stable sort, so one fit
    # scores every n_neighbors up to its own.
    staged_param = "n_neighbors"

    def __init__(self, n_neighbors=1, seed=0):
        self.n_neighbors = positive_int("n_neighbors", n_neighbors)
        self.seed = int(seed)  # unused; kept for a uniform constructor surface

    def _fit(self, X, codes):
        if self.n_neighbors > X.shape[0]:
            raise ValueError(f"n_neighbors={self.n_neighbors} exceeds {X.shape[0]} training examples")
        self._X = X
        self._codes = codes

    def _nearest(self, X):
        """(rows, nearest) per block of rows of ``X``: ``nearest[i]`` holds
        the training indices of the k nearest neighbors of ``X[rows][i]``,
        nearest first. They are the first k of a stable sort of its exact
        distances to every training row, ranked among the rows ``_screen``
        keeps."""
        k = self.n_neighbors
        n, d = self._X.shape
        rows = max(1, _BLOCK_ELEMENTS // n)
        pairs = max(1, _BLOCK_ELEMENTS // d)
        for start in range(0, X.shape[0], rows):
            block = X[start : start + rows]
            query, train = _screen(block, self._X, k)
            d2 = np.concatenate(
                [
                    _sq_distances(block[query[p : p + pairs]], self._X[train[p : p + pairs]])
                    for p in range(0, query.size, pairs)
                ]
            )
            # a stable sort by distance within each query row, whose
            # candidates come in training order, so equal distances keep it
            order = np.lexsort((d2, query))
            first = np.searchsorted(query, np.arange(block.shape[0]))
            yield slice(start, start + rows), train[order[first[:, None] + np.arange(k)]]

    def _staged_codes(self, X):
        """Class codes for each k up to n_neighbors: the vote of the k
        nearest neighbors, whose ties go to the smallest code."""
        classes = np.arange(len(self.classes_))
        out = np.empty((X.shape[0], self.n_neighbors), dtype=np.int64)
        for rows, nearest in self._nearest(X):
            # votes[i, j, c]: neighbors among the j + 1 nearest in class c
            votes = np.cumsum(self._codes[nearest][:, :, None] == classes, axis=1)
            out[rows] = np.argmax(votes, axis=2)
        yield from out.T
