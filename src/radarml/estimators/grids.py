"""The eight estimator kinds: their classes and hyperparameter grids.

Axes are ordered data, not code: candidate enumeration is the cartesian
product in axis order with the last axis varying fastest, so candidate
index -> parameter dict is a stable contract that tests pin down.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType

from .ensemble import ExtraTrees, GradientBoosting, RandomForest
from .linear import SOLVERS, LinearSVC, LogisticRegression, Perceptron
from .neighbors import KNearestNeighbors
from .tree import CRITERIA, MAX_FEATURES, DecisionTree

_C_VALUES = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)
_TREE_COUNTS = (16, 32, 64, 128, 256)

# kind -> ((axis name, ordered values), ...)
GRID_AXES = MappingProxyType(
    {
        "logistic_regression": (
            ("C", _C_VALUES),
            ("solver", SOLVERS),
        ),
        "perceptron": (("alpha", (0.0001, 0.001, 0.01, 0.1, 1.0)),),
        "knn": (("n_neighbors", tuple(range(1, 31))),),
        "linear_svc": (("C", _C_VALUES),),
        "decision_tree": (
            ("criterion", CRITERIA),
            ("max_features", MAX_FEATURES),
        ),
        "random_forest": (
            ("n_estimators", _TREE_COUNTS),
            ("criterion", CRITERIA),
            ("max_features", MAX_FEATURES),
        ),
        "extra_trees": (
            ("n_estimators", _TREE_COUNTS),
            ("criterion", CRITERIA),
            ("max_features", MAX_FEATURES),
        ),
        "gradient_boosting": (
            ("n_estimators", _TREE_COUNTS),
            ("learning_rate", (0.2, 0.5, 0.8, 1.0)),
        ),
    }
)

KINDS = tuple(GRID_AXES)

ESTIMATOR_CLASSES = MappingProxyType(
    {
        cls.kind: cls
        for cls in (
            LogisticRegression,
            Perceptron,
            KNearestNeighbors,
            LinearSVC,
            DecisionTree,
            RandomForest,
            ExtraTrees,
            GradientBoosting,
        )
    }
)


def grid_axes(kind: str):
    try:
        return GRID_AXES[kind]
    except KeyError:
        raise ValueError(f"unknown estimator kind {kind!r}; expected one of {KINDS}") from None


def grid_candidates(kind: str):
    """Yield parameter dicts in enumeration order."""
    axes = grid_axes(kind)
    names = [name for name, _ in axes]
    for combo in itertools.product(*(values for _, values in axes)):
        yield dict(zip(names, combo))


def validate_params(kind: str, params) -> dict:
    """Check that every entry names a grid axis and uses a grid value.

    Values are normalized to the grid's canonical object (e.g. C=1
    becomes 1.0) so equal specs compare equal.
    """
    axes = dict(grid_axes(kind))
    clean = {}
    for name, value in params.items():
        if name not in axes:
            raise ValueError(f"{kind} has no grid axis {name!r}")
        allowed = axes[name]
        for canonical in allowed:
            if isinstance(value, bool) is isinstance(canonical, bool) and value == canonical:
                clean[name] = canonical
                break
        else:
            raise ValueError(
                f"{kind}.{name}={value!r} is not a grid value; allowed: {allowed}"
            )
    return clean
