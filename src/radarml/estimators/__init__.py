"""Supervised estimators and their hyperparameter grids.

Everything is trained from scratch on numpy; no external ML library is
involved. ``ESTIMATOR_CLASSES`` maps each kind to its class, whose
constructor takes the kind's grid axes plus ``seed``. Every class follows
the contract of ``base.Classifier``: ``fit`` sets ``classes_`` and
``n_features_``, ``staged_param`` and ``n_stages`` say how many fits one
fit holds, ``staged_predict`` predicts for each of them, and
``fit_together`` fits several models at once.
"""

from __future__ import annotations

from .ensemble import ExtraTrees, GradientBoosting, RandomForest
from .grids import (
    ESTIMATOR_CLASSES,
    GRID_AXES,
    KINDS,
    grid_axes,
    grid_candidates,
    grid_size,
    validate_params,
)
from .linear import LinearSVC, LogisticRegression, Perceptron
from .metrics import accuracy_percent, confusion_matrix
from .neighbors import KNearestNeighbors
from .tree import DecisionTree

__all__ = [
    "KINDS",
    "GRID_AXES",
    "grid_axes",
    "grid_candidates",
    "grid_size",
    "validate_params",
    "accuracy_percent",
    "confusion_matrix",
    "ESTIMATOR_CLASSES",
    "LogisticRegression",
    "Perceptron",
    "KNearestNeighbors",
    "LinearSVC",
    "DecisionTree",
    "RandomForest",
    "ExtraTrees",
    "GradientBoosting",
]
