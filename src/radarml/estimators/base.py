"""Shared input validation, label encoding and prediction for the estimators."""

from __future__ import annotations

import numpy as np


def check_matrix(X, name="X") -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {X.shape}")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ValueError(f"{name} must be non-empty, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError(f"{name} contains non-finite values")
    return X


def encode_training_data(X, y):
    """Validate (X, y) and map labels to 0..K-1 codes.

    Returns (X, codes, classes) with classes sorted ascending so code
    order is stable across fits.
    """
    X = check_matrix(X)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if y.size != X.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.size} entries")
    classes, codes = np.unique(y, return_inverse=True)
    if classes.size < 2:
        raise ValueError("training data must contain at least two classes")
    return X, codes.astype(np.int64), classes


def check_predict_input(model, X) -> np.ndarray:
    if not hasattr(model, "classes_"):
        raise ValueError(f"{type(model).__name__} is not fitted")
    X = check_matrix(X)
    if X.shape[1] != model.n_features_:
        raise ValueError(
            f"expected {model.n_features_} features, got {X.shape[1]}"
        )
    return X


class Classifier:
    """What every estimator shares.

    ``fit`` sets ``classes_`` and ``n_features_``. Every model is staged:
    ``_staged_codes`` yields the class codes of ``n_stages`` fits, where
    stage s is what a fit with ``staged_param`` = s would predict. A class
    without a ``staged_param`` has one stage, the codes of its
    ``_predict_codes``. ``fit_together`` fits several models, each on its
    own data, as their own ``fit`` would; cross-validation fits its folds
    through it.
    """

    staged_param = None

    @property
    def n_stages(self) -> int:
        return 1 if self.staged_param is None else getattr(self, self.staged_param)

    @staticmethod
    def fit_together(models, Xs, ys):
        for model, X, y in zip(models, Xs, ys):
            model.fit(X, y)

    def _staged_codes(self, X):
        yield self._predict_codes(X)

    def staged_predict(self, X):
        """Labels after each of the ``n_stages`` stages; ``X`` is checked
        before the first is computed."""
        codes = self._staged_codes(check_predict_input(self, X))
        return (self.classes_[c] for c in codes)

    def predict(self, X):
        *_, labels = self.staged_predict(X)
        return labels
