"""Bit-exact checks of the per-sample linear solvers against plain loops.

``oracle_sag`` and ``oracle_perceptron`` are the straightforward one-step-
at-a-time forms of the two solvers, kept here as references: the SAG step
kernel works in preallocated buffers and the perceptron steps several fits
in lockstep, and both must give the same coefficient bytes as these loops.
"""

import numpy as np
import pytest

from radarml.estimators import accuracy_percent
from radarml.estimators.linear import (
    LogisticRegression,
    Perceptron,
    _augment,
    _nll_loss_grad,
)
from radarml.modelsel import cross_val_scores, grid_search, stratified_kfold
from radarml.seeding import derive_seed, make_rng


def oracle_sag(Xa, Y, lam, tol, max_iter, seed):
    """Stochastic average gradient with per-sample residual memory."""
    n, d1 = Xa.shape
    K = Y.shape[1]
    theta = np.zeros((K, d1))
    # at theta = 0 every softmax row is uniform
    resid = np.full((n, K), 1.0 / K) - Y
    grad_sum = resid.T @ Xa  # (K, d1), tracks sum_i resid_i x_i
    lipschitz = 0.5 * float(np.max(np.sum(Xa * Xa, axis=1))) + lam
    step = 1.0 / lipschitz
    rng = make_rng(seed, 0)
    for _ in range(max_iter):
        picks = rng.integers(0, n, size=n)
        for i in picks:
            x = Xa[i]
            z = theta @ x
            z -= z.max()
            p = np.exp(z)
            p /= p.sum()
            new_resid = p - Y[i]
            grad_sum += np.outer(new_resid - resid[i], x)
            resid[i] = new_resid
            update = grad_sum * (step / n)
            update[:, :-1] += (step * lam) * theta[:, :-1]
            theta -= update
        _, g = _nll_loss_grad(theta, Xa, Y, lam)
        if np.max(np.abs(g)) < tol:
            break
    return theta


def oracle_perceptron(X, y, alpha, lr, max_epochs, seed):
    """One fit's loop; returns (W, b, epochs run, last epoch clean)."""
    classes, codes = np.unique(y, return_inverse=True)
    n, d = X.shape
    K = len(classes)
    targets = np.full((n, K), -1.0)
    targets[np.arange(n), codes] = 1.0
    W = np.zeros((K, d))
    b = np.zeros(K)
    decay = 1.0 - lr * alpha
    rng = make_rng(seed, 0)
    epochs, mistakes = 0, -1
    for _ in range(max_epochs):
        epochs += 1
        order = rng.permutation(n)
        mistakes = 0
        for i in order:
            x = X[i]
            W *= decay
            scores = W @ x + b
            wrong = targets[i] * scores <= 0.0
            if np.any(wrong):
                mistakes += int(np.count_nonzero(wrong))
                t = lr * targets[i][wrong]
                W[wrong] += t[:, None] * x
                b[wrong] += t
        if mistakes == 0:
            break
    return W, b, epochs, mistakes == 0


def blobs(K, n_per, d, spread, seed):
    """K Gaussian blobs in d dimensions; ``spread`` sets how much they overlap."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 3.0, size=(K, d))
    y = np.repeat(np.arange(K), n_per)
    return centers[y] + rng.normal(0.0, spread, size=(y.size, d)), y


def same_bytes(model, W, b):
    return model.coef_.tobytes() == W.tobytes() and model.intercept_.tobytes() == b.tobytes()


class TestSagMatchesOracle:
    @pytest.mark.parametrize(
        "K, C, max_iter",
        [
            (2, 1.0, 500),
            (4, 1.0, 500),
            (10, 0.01, 500),
            (4, 0.001, 500),
            (4, 1000.0, 5),
            (10, 1000.0, 3),
        ],
    )
    def test_coefficient_bytes(self, K, C, max_iter):
        X, y = blobs(K, 12, 7, 2.0, seed=K)
        model = LogisticRegression(C=C, solver="sag", max_iter=max_iter, seed=5).fit(X, y)
        Y = np.eye(K)[y]
        theta = oracle_sag(_augment(X), Y, 1.0 / C, model.tol, max_iter, 5)
        assert same_bytes(model, theta[:, :-1], theta[:, -1])

    def test_reports_running_out_of_epochs(self):
        X, y = blobs(4, 12, 7, 2.0, seed=1)
        model = LogisticRegression(C=1000.0, solver="sag", max_iter=3).fit(X, y)
        assert (model.n_iter_, model.converged_) == (3, False)


class TestPerceptronMatchesOracle:
    @pytest.mark.parametrize("K", [2, 4, 10])
    @pytest.mark.parametrize("alpha", [0.0, 0.0001, 1.0])
    def test_one_fit(self, K, alpha):
        X, y = blobs(K, 9, 6, 1.5, seed=K)
        model = Perceptron(alpha=alpha, max_epochs=40, seed=3).fit(X, y)
        W, b, epochs, clean = oracle_perceptron(X, y, alpha, 1.0, 40, 3)
        assert same_bytes(model, W, b)
        assert (model.n_iter_, model.converged_) == (epochs, clean)

    def test_lockstep_fits_of_unequal_sizes_that_stop_in_different_epochs(self):
        # well separated (clean in epoch 2, the first epoch that can be
        # clean: every fit errs on its first row), overlapping (runs out
        # its epochs), in between, and a fit cut off after one epoch
        shapes = [(0.2, 11, 30), (3.0, 9, 30), (1.0, 10, 30), (1.0, 8, 1)]
        Xs, ys, models, want = [], [], [], []
        for f, (spread, n_per, max_epochs) in enumerate(shapes):
            X, y = blobs(4, n_per, 6, spread, seed=20 + f)
            Xs.append(X)
            ys.append(y)
            models.append(Perceptron(alpha=0.001, lr=0.5, max_epochs=max_epochs, seed=f))
            want.append(oracle_perceptron(X, y, 0.001, 0.5, max_epochs, f))
        Perceptron.fit_together(models, Xs, ys)
        ends = []
        for model, (W, b, epochs, clean) in zip(models, want):
            assert same_bytes(model, W, b)
            assert (model.n_iter_, model.converged_) == (epochs, clean)
            ends.append((epochs, clean))
        assert ends[0] == (2, True) and ends[1] == (30, False) and ends[3] == (1, False)
        assert len({e for e, _ in ends}) == 4

    def test_lockstep_fits_with_their_own_params_and_shapes(self):
        fits = [
            (blobs(3, 10, 5, 1.0, seed=1), Perceptron(alpha=0.01, lr=2.0, seed=4)),
            (blobs(3, 13, 5, 1.0, seed=2), Perceptron(alpha=0.0, lr=1.0, seed=4)),
            (blobs(2, 10, 5, 1.0, seed=3), Perceptron(alpha=1.0, lr=1.0, seed=9)),
            (blobs(3, 7, 4, 1.0, seed=4), Perceptron(alpha=0.1, lr=0.5, max_epochs=3, seed=1)),
        ]
        models = [model for _, model in fits]
        Perceptron.fit_together(models, [X for (X, _), _ in fits], [y for (_, y), _ in fits])
        for (X, y), model in fits:
            args = (model.alpha, model.lr, model.max_epochs, model.seed)
            W, b, epochs, clean = oracle_perceptron(X, y, *args)
            assert same_bytes(model, W, b)
            assert (model.n_iter_, model.converged_) == (epochs, clean)

    def test_cross_validation_matches_one_fit_per_fold(self):
        # 10 classes of 7 rows: per-class fold sizes 2 and 1, so training
        # folds differ in size and the shorter ones sit out tail steps
        X, y = blobs(10, 7, 8, 2.0, seed=6)
        folds = stratified_kfold(y, 5, seed=2)
        assert len({tr.size for tr, _ in folds}) > 1
        candidates = [{"alpha": a} for a in (0.0001, 0.01, 1.0)]
        result = grid_search("perceptron", X, y, folds, seed=11, candidates=candidates)
        for ci, params in enumerate(candidates):
            cv_seed = derive_seed(11, ci)
            want = []
            for fi, (tr, va) in enumerate(folds):
                fold_seed = derive_seed(cv_seed, fi)
                model = Perceptron(**params, seed=fold_seed).fit(X[tr], y[tr])
                W, b, _, _ = oracle_perceptron(X[tr], y[tr], params["alpha"], 1.0, 100, fold_seed)
                assert same_bytes(model, W, b)
                want.append(accuracy_percent(y[va], model.predict(X[va])))
            assert result.candidates[ci].scores == tuple(want)
            assert cross_val_scores("perceptron", params, X, y, folds, seed=cv_seed) == tuple(want)
