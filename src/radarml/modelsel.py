"""Data splitting, cross-validated grid search, and experiment driving.

The protocol mirrors the evaluation pipeline end to end: a stratified
train/test split (10% train by default), stratified k-fold CV on the
training portion, candidate selection by the highest minimum fold score,
a refit on the full training portion, and a final score on the held-out
test portion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .estimators import (
    ESTIMATOR_CLASSES,
    KINDS,
    accuracy_percent,
    confusion_matrix,
    grid_candidates,
    validate_params,
)
from .seeding import derive_seed, make_rng

DEFAULT_TRAIN_FRACTION = 0.10
DEFAULT_N_FOLDS = 5

# spawn-key tags so the split, folds, search, and refit draw from
# disjoint streams of the experiment seed
_SPLIT_KEY = 101
_FOLD_KEY = 102
_SEARCH_KEY = 103
_REFIT_KEY = 104


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _class_indices(y):
    y = np.asarray(y)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("labels must be a non-empty 1-D array")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("need at least two classes")
    return y, classes


def stratified_split(y, train_fraction=DEFAULT_TRAIN_FRACTION, seed=0):
    """Per-class split into (train_idx, test_idx), both sorted.

    Each class contributes round(fraction * count) training examples
    (half up), clamped so both sides keep at least one example of it.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    y, classes = _class_indices(y)
    rng = make_rng(seed, _SPLIT_KEY)
    train, test = [], []
    for c in classes:
        idx = np.nonzero(y == c)[0]
        if idx.size < 2:
            raise ValueError(f"class {c!r} has fewer than 2 examples")
        idx = rng.permutation(idx)
        n_train = min(max(_round_half_up(train_fraction * idx.size), 1), idx.size - 1)
        train.append(idx[:n_train])
        test.append(idx[n_train:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def stratified_kfold(y, n_folds=DEFAULT_N_FOLDS, seed=0):
    """Label-ratio-preserving folds as a list of (train_idx, val_idx).

    Indices of each class are shuffled once and dealt round-robin, so
    per-class fold sizes differ by at most one.
    """
    if n_folds < 2:
        raise ValueError("n_folds must be >= 2")
    y, classes = _class_indices(y)
    smallest = min(int(np.sum(y == c)) for c in classes)
    if smallest < n_folds:
        raise ValueError(
            f"smallest class has {smallest} examples; cannot fill {n_folds} folds"
        )
    rng = make_rng(seed, _FOLD_KEY)
    fold_of = np.empty(y.size, dtype=np.int64)
    for c in classes:
        idx = rng.permutation(np.nonzero(y == c)[0])
        fold_of[idx] = np.arange(idx.size) % n_folds
    folds = []
    for f in range(n_folds):
        val = np.nonzero(fold_of == f)[0]
        train = np.nonzero(fold_of != f)[0]
        folds.append((train, val))
    return folds


@dataclass(frozen=True)
class CandidateScore:
    """Fold accuracies (percent) for one parameter combination."""

    params: dict
    scores: tuple

    @property
    def s_min(self) -> float:
        return min(self.scores)

    @property
    def s_mean(self) -> float:
        return sum(self.scores) / len(self.scores)


def select_best(candidates) -> int:
    """Index of the candidate with the highest minimum fold score.

    Ties keep the earliest candidate in enumeration order.
    """
    if not candidates:
        raise ValueError("no candidates to select from")
    best = 0
    for i, cand in enumerate(candidates):
        if cand.s_min > candidates[best].s_min:
            best = i
    return best


def cross_val_scores(kind, params, X, y, folds, seed=0, stages=None):
    """Accuracy (percent) on each fold's validation split, one tuple per stage.

    Each fold's model is fit once, through the class's ``fit_together`` and
    with the fold's own seed, and scored at each entry of ``stages``: stage
    numbers of its ``staged_predict``, by default only the last,
    ``n_stages``. The tuples come in the order of ``stages``.
    """
    cls = ESTIMATOR_CLASSES[kind]
    models = [cls(**params, seed=derive_seed(seed, fi)) for fi in range(len(folds))]
    cls.fit_together(models, [X[tr] for tr, _ in folds], [y[tr] for tr, _ in folds])
    if stages is None:
        stages = [cls(**params).n_stages]
    per_fold = []
    for model, (_, va) in zip(models, folds):
        staged = list(model.staged_predict(X[va]))
        per_fold.append([accuracy_percent(y[va], staged[s - 1]) for s in stages])
    return [tuple(scores) for scores in zip(*per_fold)]


def _shared_fits(cls, candidates):
    """Candidates grouped by the one fit per fold that scores them all.

    Candidates that differ only in the class's ``staged_param`` share a
    fit. Each group lists (candidate index, stage) pairs, the stage being
    the candidate's ``n_stages``, with the largest, the one to fit, last.
    A class without a ``staged_param`` fits each distinct candidate.
    """
    groups = {}
    for ci, params in enumerate(candidates):
        rest = tuple(sorted((k, v) for k, v in params.items() if k != cls.staged_param))
        groups.setdefault(rest, []).append((cls(**params).n_stages, ci))
    return [[(ci, stage) for stage, ci in sorted(group)] for group in groups.values()]


@dataclass
class GridSearchResult:
    kind: str
    candidates: list  # CandidateScore, enumeration order
    best_index: int

    @property
    def best(self) -> CandidateScore:
        return self.candidates[self.best_index]


def grid_search(kind, X, y, folds, seed=0, candidates=None) -> GridSearchResult:
    """Score every candidate by CV and pick the max-min-fold winner.

    Each group of ``_shared_fits`` is scored from one fit per fold, of its
    last candidate and with that candidate's seed.
    """
    if kind not in ESTIMATOR_CLASSES:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if candidates is None:
        candidates = list(grid_candidates(kind))
    else:
        candidates = [validate_params(kind, p) for p in candidates]
    if not candidates:
        raise ValueError("candidate list is empty")
    fold_scores = {}
    for group in _shared_fits(ESTIMATOR_CLASSES[kind], candidates):
        indices, stages = zip(*group)
        top = indices[-1]
        cv_seed = derive_seed(seed, top)
        per_stage = cross_val_scores(kind, candidates[top], X, y, folds, cv_seed, stages)
        fold_scores.update(zip(indices, per_stage))
    scored = [CandidateScore(params, fold_scores[ci]) for ci, params in enumerate(candidates)]
    return GridSearchResult(kind=kind, candidates=scored, best_index=select_best(scored))


@dataclass
class EvalReport:
    """Outcome of tuning, refitting, and testing one estimator kind."""

    kind: str
    dataset_id: str
    best_params: dict
    fold_scores: tuple
    validation_accuracy: float  # mean fold accuracy of the winner
    min_fold_accuracy: float
    test_accuracy: float
    confusion: np.ndarray  # rows = true label, columns = predicted
    n_train: int
    n_test: int
    seconds: float
    # how the refit ended, for kinds whose fit iterates to a stopping rule
    n_iter: int | None = None
    converged: bool | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dataset_id": self.dataset_id,
            "best_params": dict(self.best_params),
            "fold_scores": list(self.fold_scores),
            "validation_accuracy": self.validation_accuracy,
            "min_fold_accuracy": self.min_fold_accuracy,
            "test_accuracy": self.test_accuracy,
            "confusion": self.confusion.tolist(),
            "n_train": self.n_train,
            "n_test": self.n_test,
            "seconds": self.seconds,
            "n_iter": self.n_iter,
            "converged": self.converged,
        }


@dataclass
class ExperimentResult:
    dataset_id: str
    train_indices: np.ndarray
    test_indices: np.ndarray
    reports: dict = field(default_factory=dict)  # kind -> EvalReport
    errors: dict = field(default_factory=dict)  # kind -> message


def evaluate_kinds(
    X_train,
    y_train,
    X_test,
    y_test,
    *,
    dataset_id="",
    kinds=KINDS,
    candidates_by_kind=None,
    seed=0,
    n_folds=DEFAULT_N_FOLDS,
    train_indices=None,
    test_indices=None,
) -> ExperimentResult:
    """Tune, refit, and test every requested kind on a pre-split dataset.

    A failure in one kind is recorded under ``errors`` and does not stop
    the others. All randomness descends from ``seed``.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    X_test = np.asarray(X_test, dtype=np.float64)
    y_train = np.asarray(y_train)
    y_test = np.asarray(y_test)
    for kind in kinds:
        if kind not in ESTIMATOR_CLASSES:
            raise ValueError(f"unknown estimator kind {kind!r}")
    folds = stratified_kfold(y_train, n_folds, seed=seed)
    class_order = np.unique(np.concatenate([y_train, y_test]))
    result = ExperimentResult(
        dataset_id=dataset_id,
        train_indices=np.asarray([] if train_indices is None else train_indices),
        test_indices=np.asarray([] if test_indices is None else test_indices),
    )
    for kind in kinds:
        ki = KINDS.index(kind)
        started = time.perf_counter()
        try:
            cands = None if candidates_by_kind is None else candidates_by_kind.get(kind)
            search = grid_search(
                kind, X_train, y_train, folds, seed=derive_seed(seed, _SEARCH_KEY, ki), candidates=cands
            )
            winner = search.best
            model = ESTIMATOR_CLASSES[kind](
                **winner.params, seed=derive_seed(seed, _REFIT_KEY, ki)
            )
            model.fit(X_train, y_train)
            predicted = model.predict(X_test)
            result.reports[kind] = EvalReport(
                kind=kind,
                dataset_id=dataset_id,
                best_params=winner.params,
                fold_scores=winner.scores,
                validation_accuracy=winner.s_mean,
                min_fold_accuracy=winner.s_min,
                test_accuracy=accuracy_percent(y_test, predicted),
                confusion=confusion_matrix(y_test, predicted, class_order),
                n_train=int(y_train.size),
                n_test=int(y_test.size),
                seconds=time.perf_counter() - started,
                n_iter=getattr(model, "n_iter_", None),
                converged=getattr(model, "converged_", None),
            )
        except Exception as exc:  # isolate per kind
            result.errors[kind] = f"{type(exc).__name__}: {exc}"
    return result


def run_experiment(
    features,
    labels,
    *,
    dataset_id="",
    kinds=KINDS,
    candidates_by_kind=None,
    seed=0,
    train_fraction=DEFAULT_TRAIN_FRACTION,
    n_folds=DEFAULT_N_FOLDS,
) -> ExperimentResult:
    """Split one feature matrix 10/90 and evaluate the requested kinds."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("features must be 2-D with one row per label")
    tr_idx, te_idx = stratified_split(y, train_fraction, seed=seed)
    return evaluate_kinds(
        X[tr_idx],
        y[tr_idx],
        X[te_idx],
        y[te_idx],
        dataset_id=dataset_id,
        kinds=kinds,
        candidates_by_kind=candidates_by_kind,
        seed=seed,
        n_folds=n_folds,
        train_indices=tr_idx,
        test_indices=te_idx,
    )
