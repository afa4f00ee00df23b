"""Tree ensembles built on the shared CART core.

Random forest bootstraps rows and searches midpoint thresholds
exhaustively; extra trees keep all rows and draw one uniform threshold
per candidate feature. Both vote by majority with ties going to the
smallest class. Gradient boosting fits depth-limited regression trees to
multinomial deviance residuals with mean-residual leaves, which keeps
the training deviance non-increasing for learning rates up to 1.
"""

from __future__ import annotations

import numpy as np

from ..seeding import seed_sequence
from .base import Classifier, log_softmax_rows, softmax_rows
from .tree import CRITERIA, grow_classification, grow_extra_trees, grow_regression, presort, tree_apply


def _majority_vote(trees, X, n_classes):
    counts = np.zeros((X.shape[0], n_classes), dtype=np.int64)
    rows = np.arange(X.shape[0])
    for nodes in trees:
        counts[rows, tree_apply(nodes, X).astype(np.int64)] += 1
    return counts.argmax(axis=1)


class _BaseForest(Classifier):
    def __init__(self, n_estimators=16, criterion="gini", max_features="auto", seed=0):
        if int(n_estimators) < 1:
            raise ValueError("n_estimators must be >= 1")
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        self.n_estimators = int(n_estimators)
        self.criterion = criterion
        self.max_features = max_features
        self.seed = int(seed)

    def _fit(self, X, codes):
        children = seed_sequence(self.seed, 0).spawn(self.n_estimators)
        rngs = [np.random.Generator(np.random.PCG64(child)) for child in children]
        self.trees_ = self._grow(X, codes, len(self.classes_), rngs)

    def _predict_codes(self, X):
        return _majority_vote(self.trees_, X, len(self.classes_))


class RandomForest(_BaseForest):
    """Bootstrap-sampled trees with exhaustive per-node split search."""

    kind = "random_forest"

    def _grow(self, X, codes, n_classes, rngs):
        trees = []
        for rng in rngs:
            picks = rng.integers(0, codes.size, size=codes.size)
            trees.append(
                grow_classification(X[picks], codes[picks], n_classes, self.criterion, self.max_features, rng=rng)
            )
        return trees


class ExtraTrees(_BaseForest):
    """Full-sample trees with one random threshold per candidate feature,
    all grown in lockstep."""

    kind = "extra_trees"

    def _grow(self, X, codes, n_classes, rngs):
        return grow_extra_trees(X, codes, n_classes, rngs, self.criterion, self.max_features)


class GradientBoosting(Classifier):
    """Multinomial-deviance boosting with depth-3 regression trees.

    Scores start at the class log-priors; each stage fits one tree per
    class to the residuals (one-hot minus softmax) and adds the shrunken
    leaf means. ``train_deviance_`` records the mean deviance before any
    stage and after each one.
    """

    kind = "gradient_boosting"
    # An n-stage fit holds every smaller fit exactly and ignores the seed,
    # so one fit per fold can score each n_estimators up to n.
    staged_param = "n_estimators"

    def __init__(self, n_estimators=16, learning_rate=0.5, max_depth=3, seed=0):
        if int(n_estimators) < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if int(max_depth) < 1:
            raise ValueError("max_depth must be >= 1")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.seed = int(seed)  # unused; growth is exhaustive and deterministic

    @staticmethod
    def _deviance(F, codes):
        return float(-log_softmax_rows(F)[np.arange(codes.size), codes].mean())

    def _fit(self, X, codes):
        n = X.shape[0]
        K = len(self.classes_)
        Y = np.eye(K)[codes]
        priors = np.bincount(codes, minlength=K) / n
        self.init_scores_ = np.log(priors)
        F = np.tile(self.init_scores_, (n, 1))
        deviances = [self._deviance(F, codes)]
        sorted_x = presort(X)
        self.stages_ = []
        for _ in range(self.n_estimators):
            residual = Y - softmax_rows(F)
            stage = []
            for k in range(K):
                nodes, leaf = grow_regression(sorted_x, residual[:, k], self.max_depth)
                F[:, k] += self.learning_rate * nodes.value[leaf]
                stage.append(nodes)
            self.stages_.append(stage)
            deviances.append(self._deviance(F, codes))
        self.train_deviance_ = np.asarray(deviances)

    def _staged_scores(self, X):
        """Scores after each stage, as one array updated in place between
        yields; the scores after stage s are those of an s-stage fit."""
        F = np.tile(self.init_scores_, (X.shape[0], 1))
        for stage in self.stages_:
            for k, nodes in enumerate(stage):
                F[:, k] += self.learning_rate * tree_apply(nodes, X)
            yield F

    def _staged_codes(self, X):
        for F in self._staged_scores(X):
            yield np.argmax(F, axis=1)
