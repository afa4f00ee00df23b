"""Data splitting, cross-validated grid search, and experiment driving.

The protocol mirrors the evaluation pipeline end to end: a stratified
train/test split (10% train by default), stratified k-fold CV on the
training portion, candidate selection by the highest minimum fold score,
a refit on the full training portion, and a final score on the held-out
test portion.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

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

# what a refit reports of how its fit ended, where the model has it
_REFIT_DIAGNOSTICS = ("n_iter_", "converged_", "grad_norm_")


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


def cross_val_scores(kind, params, X, y, folds, seed=0, stages=None, first=0):
    """Accuracy (percent) on each fold's validation split, one tuple per stage.

    Each fold's model is fit once, through the class's ``fit_together`` and
    with the fold's own seed, ``derive_seed(seed, first + i)`` for
    ``folds[i]``: ``first`` is the index of ``folds[0]`` in the full fold
    list, so a run of its folds scores them as the whole list would. Each
    model is scored at each entry of ``stages``: stage numbers of its
    ``staged_predict``, by default only the last, ``n_stages``. The tuples
    come in the order of ``stages``.
    """
    return _cv_and_refit(kind, params, X, y, folds, seed, stages, first)[0]


def _cv_and_refit(kind, params, X, y, folds, seed, stages, first, refit_seed=None, X_test=None):
    """(``cross_val_scores``, refit). With ``refit_seed``, one more model of
    ``params`` with that seed is fit on all of ``X`` in the same
    ``fit_together`` call, after the folds' models, so a fold's error comes
    first; refit is then its ``_refit`` outcome on ``X_test`` at ``stages``.
    Without, refit is None."""
    cls = ESTIMATOR_CLASSES[kind]
    models = [cls(**params, seed=derive_seed(seed, first + fi)) for fi in range(len(folds))]
    Xs, ys = [X[tr] for tr, _ in folds], [y[tr] for tr, _ in folds]
    if refit_seed is not None:
        models.append(cls(**params, seed=refit_seed))
        Xs.append(X)
        ys.append(y)
    cls.fit_together(models, Xs, ys)
    if stages is None:
        stages = [models[0].n_stages]
    per_fold = []
    for model, (_, va) in zip(models, folds):
        staged = list(model.staged_predict(X[va]))
        per_fold.append([accuracy_percent(y[va], staged[s - 1]) for s in stages])
    refit = None if refit_seed is None else _refit_outcome(models[-1], X_test, stages)
    return [tuple(scores) for scores in zip(*per_fold)], refit


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


class _Fit(NamedTuple):
    """One shared fit of a search: the candidates it scores, their stages,
    and its CV seed, that of its last candidate."""

    indices: tuple
    stages: tuple
    seed: int


def _search_plan(kind, seed, candidates):
    """The validated candidates of a search and its ``_shared_fits``."""
    if kind not in ESTIMATOR_CLASSES:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if candidates is None:
        candidates = list(grid_candidates(kind))
    else:
        candidates = [validate_params(kind, p) for p in candidates]
    if not candidates:
        raise ValueError("candidate list is empty")
    fits = []
    for group in _shared_fits(ESTIMATOR_CLASSES[kind], candidates):
        indices, stages = zip(*group)
        fits.append(_Fit(indices, stages, derive_seed(seed, indices[-1])))
    return candidates, fits


def _search_result(kind, candidates, fits, scores) -> GridSearchResult:
    """The max-min-fold winner, from each fit's per-stage fold scores."""
    fold_scores = {}
    for fit, per_stage in zip(fits, scores):
        fold_scores.update(zip(fit.indices, per_stage))
    scored = [CandidateScore(params, fold_scores[ci]) for ci, params in enumerate(candidates)]
    return GridSearchResult(kind=kind, candidates=scored, best_index=select_best(scored))


def grid_search(kind, X, y, folds, seed=0, candidates=None) -> GridSearchResult:
    """Score every candidate by CV and pick the max-min-fold winner.

    Each group of ``_shared_fits`` is scored from one fit per fold, of its
    last candidate and with that candidate's seed.
    """
    candidates, fits = _search_plan(kind, seed, candidates)
    scores = [
        cross_val_scores(kind, candidates[fit.indices[-1]], X, y, folds, fit.seed, fit.stages)
        for fit in fits
    ]
    return _search_result(kind, candidates, fits, scores)


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
    # the kind's CV and refit task times, each measured in the process that
    # ran it; with several workers the sum can exceed the wall time
    seconds: float
    # how the refit ended, for kinds whose fit iterates to a stopping rule;
    # grad_norm is where logistic regression's max|grad| stopped
    n_iter: int | None = None
    converged: bool | None = None
    grad_norm: float | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "confusion": self.confusion.tolist()}


@dataclass
class ExperimentResult:
    dataset_id: str
    reports: dict = field(default_factory=dict)  # kind -> EvalReport
    errors: dict = field(default_factory=dict)  # kind -> message


def default_jobs() -> int:
    """The CPUs this process may use: its affinity set where the platform
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def use_pool(jobs) -> bool:
    """Whether ``jobs`` calls for a ``fork_pool``: more than one job, on a
    platform that can fork. Otherwise the work runs in this process, in
    the same order and to the same result."""
    return jobs > 1 and "fork" in multiprocessing.get_all_start_methods()


def fork_pool(workers, initializer=None, initargs=()) -> ProcessPoolExecutor:
    """A process pool of ``workers`` forked workers.

    Fork: a worker inherits the imported package and this process's data
    in milliseconds, where a spawned one re-imports numpy (about 0.3 s);
    from Python 3.11 a fork pool starts all its workers before its thread.
    """
    return ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    )


def _timed(fn, *args):
    """(seconds, error, value) of ``fn(*args)``: the seconds it took in this
    process, None or the message of what it raised, and what it returned."""
    started = time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception as exc:  # isolate per kind
        value, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - started, error, value


def _refit(kind, params, seed, X, y, X_test):
    """``params`` fit once on the whole training portion: its
    ``_refit_outcome`` at its last stage."""
    model = ESTIMATOR_CLASSES[kind](**params, seed=seed)
    model.fit(X, y)
    return _refit_outcome(model, X_test, (model.n_stages,))


def _refit_outcome(model, X_test, stages):
    """A dict of the test predictions of ``model`` at each stage in
    ``stages``, then its ``n_iter_``, ``converged_`` and ``grad_norm_``
    where it has them."""
    staged = enumerate(model.staged_predict(X_test), 1)
    predicted = {stage: labels for stage, labels in staged if stage in stages}
    return predicted, *(getattr(model, name, None) for name in _REFIT_DIAGNOSTICS)


# A pool worker's ``data``, handed over once by ``_init_worker``.
_worker_data = None


def _init_worker(data):
    global _worker_data
    _worker_data = data


def _worker_cv(kind, params, seed, stages, start, stop, refit_seed=None):
    """The ``_timed`` ``_cv_and_refit`` of one shared fit on ``folds[start:stop]``."""
    X, y, X_test, folds = _worker_data
    return _timed(
        _cv_and_refit, kind, params, X, y, folds[start:stop], seed, stages, start, refit_seed, X_test
    )


def _worker_refit(kind, params, seed):
    X, y, X_test, _ = _worker_data
    return _timed(_refit, kind, params, seed, X, y, X_test)


def _chunked_search(kind, candidates, fits, chunks):
    """A search's ``_timed`` outcome from those of its CV tasks, fit by fit
    and chunk by chunk, each valued as ``_cv_and_refit``: their seconds
    summed, the first error in task order, or the max-min-fold winner."""
    seconds = sum(s for s, _, _ in chunks)
    errors = [error for _, error, _ in chunks if error is not None]
    if errors:
        return seconds, errors[0], None
    n_chunks = len(chunks) // len(fits)
    values = [scores for _, _, (scores, _) in chunks]
    # each fit's per-stage scores, its chunks' folds joined in order
    scores = [
        [sum(stage, ()) for stage in zip(*values[j * n_chunks : (j + 1) * n_chunks])]
        for j in range(len(fits))
    ]
    return seconds, None, _search_result(kind, candidates, fits, scores)


def _pooled_searches(jobs, data, keys):
    """The searches and refits of ``evaluate_kinds`` on ``jobs`` workers.

    ``data`` is (X_train, y_train, X_test, folds), handed to each worker
    once; ``keys`` maps each kind to (candidates, search seed, refit seed).
    Every kind's CV goes in first: per shared fit of its grid, one task per
    chunk of contiguous folds (``min(jobs, n_folds)`` chunks). A kind whose
    grid is one shared fit (one candidate, or candidates that differ only
    in its ``staged_param``) knows its refit before any CV: one fit of the
    group's deepest stage that keeps the test predictions of every stage
    in the group. That refit is one more model in the ``fit_together``
    call of the kind's last chunk, so it shares the chunk's lockstep where
    the class has one, no refit runs alone after CV, and
    ``evaluate_kinds`` reads the winner's stage after CV (a failed CV
    still wins: it then reads no refit). Any other kind's refit goes in
    once its CV is in and has not failed, behind the tasks still queued.
    Returns, per kind, the ``_timed`` outcomes of its search (its tasks'
    seconds summed, the first error in task order) and of its refit, None
    when not run; a refit fit in a CV task counts no seconds of its own.
    """
    folds = data[3]
    n_chunks = min(jobs, len(folds))
    edges = [-(-len(folds) * i // n_chunks) for i in range(n_chunks + 1)]
    outcomes, plans = {}, {}
    for kind, (cands, search_seed, _) in keys.items():
        planned = _timed(_search_plan, kind, search_seed, cands)
        if planned[1] is None:
            plans[kind] = planned[2]
        else:
            outcomes[kind] = (planned, None)
    if not plans:
        return outcomes
    n_tasks = n_chunks * sum(len(fits) for _, fits in plans.values())
    with fork_pool(min(jobs, n_tasks), _init_worker, (data,)) as pool:
        cv = {}
        for kind, (cands, fits) in plans.items():
            # a grid of one shared fit refits in the last chunk's fit_together
            refit_seed = keys[kind][2] if len(fits) == 1 else None
            cv[kind] = [
                pool.submit(
                    _worker_cv,
                    kind,
                    cands[fit.indices[-1]],
                    fit.seed,
                    fit.stages,
                    start,
                    stop,
                    refit_seed if stop == len(folds) else None,
                )
                for fit in fits
                for start, stop in zip(edges, edges[1:])
            ]
        refits = {}
        for kind in plans:
            chunks = [f.result() for f in cv[kind]]
            searched = _chunked_search(kind, *plans[kind], chunks)
            _, error, value = chunks[-1]
            refit = None if error is not None or value[1] is None else (0.0, None, value[1])
            outcomes[kind] = (searched, refit)
            if searched[1] is None and refit is None:
                params = searched[2].best.params
                refits[kind] = pool.submit(_worker_refit, kind, params, keys[kind][2])
        for kind, refit in refits.items():
            outcomes[kind] = (outcomes[kind][0], refit.result())
    return outcomes


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
    jobs=None,
) -> ExperimentResult:
    """Tune, refit, and test every requested kind on a pre-split dataset.

    With ``jobs`` 1, or where the platform cannot fork, each kind runs
    here in turn: ``grid_search``, then the refit of its winner. With more,
    every kind's CV, split into tasks of contiguous folds, and then its
    refit run on ``jobs`` worker processes (at most one per task), which
    exit before this returns (see ``_pooled_searches``). ``jobs`` None
    means ``default_jobs()``. Every fit draws its seed from its kind,
    candidate and fold index, so the result is the same at any ``jobs``.

    A failure in one kind is recorded under ``errors`` and does not stop
    the others; a kind's error is the first raised in task order. All
    randomness descends from ``seed``.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    X_train = np.asarray(X_train, dtype=np.float64)
    X_test = np.asarray(X_test, dtype=np.float64)
    y_train = np.asarray(y_train)
    y_test = np.asarray(y_test)
    for kind in kinds:
        if kind not in ESTIMATOR_CLASSES:
            raise ValueError(f"unknown estimator kind {kind!r}")
    folds = stratified_kfold(y_train, n_folds, seed=seed)
    class_order = np.unique(np.concatenate([y_train, y_test]))
    result = ExperimentResult(dataset_id=dataset_id)
    keys = {
        kind: (
            None if candidates_by_kind is None else candidates_by_kind.get(kind),
            derive_seed(seed, _SEARCH_KEY, KINDS.index(kind)),
            derive_seed(seed, _REFIT_KEY, KINDS.index(kind)),
        )
        for kind in kinds
    }
    if use_pool(jobs):
        outcomes = _pooled_searches(jobs, (X_train, y_train, X_test, folds), keys)
    else:
        outcomes = {}
        for kind, (cands, search_seed, refit_seed) in keys.items():
            search = _timed(grid_search, kind, X_train, y_train, folds, search_seed, cands)
            refit = None
            if search[1] is None:
                params = search[2].best.params
                refit = _timed(_refit, kind, params, refit_seed, X_train, y_train, X_test)
            outcomes[kind] = (search, refit)
    for kind in kinds:
        (search_seconds, error, search), refit = outcomes[kind]
        if error is None:
            refit_seconds, error, refitted = refit
        if error is not None:
            result.errors[kind] = error
            continue
        predicted, n_iter, converged, grad_norm = refitted
        winner = search.best
        predicted = predicted[ESTIMATOR_CLASSES[kind](**winner.params).n_stages]
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
            seconds=search_seconds + refit_seconds,
            n_iter=n_iter,
            converged=converged,
            grad_norm=grad_norm,
        )
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
    )
