"""Bit-exact checks of the linear solvers against plain loops.

``oracle_sag`` and ``oracle_perceptron`` are the straightforward one-step-
at-a-time forms of the two solvers, kept here as references: the SAG step
kernel works in preallocated buffers and the perceptron steps several fits
in lockstep, and both must give the same coefficient bytes as these loops.
``oracle_sag`` steps on a scaled bias column as the solver does.
``oracle_lbfgs`` and ``oracle_newton_cg`` are the two line-search solvers,
each with its own copy of the descent loop, which the solvers now share.
"""

import numpy as np
import pytest

from radarml.config import parse_config
from radarml.estimators import accuracy_percent, grid_candidates
from radarml.estimators.linear import (
    _ARMIJO_C1,
    _LBFGS_MEMORY,
    _MAX_HALVINGS,
    _SAG_BIAS_SCALE,
    LogisticRegression,
    Perceptron,
    _augment,
    _cg,
    _max_abs,
    _nll_loss_grad,
)
from radarml.labeling import SCHEMES
from radarml.modelsel import cross_val_scores, grid_search, stratified_kfold
from radarml.seeding import derive_seed, make_rng
from radarml.sigproc import derive_dataset, standardize_dataset
from radarml.synth import generate_dataset


def oracle_sag(Xa, Y, lam, tol, max_iter, seed):
    """Stochastic average gradient with per-sample residual memory, on the
    rows with their bias column scaled to ``_SAG_BIAS_SCALE``; the stopping
    rule and the result are in the original coordinates."""
    n, d1 = Xa.shape
    K = Y.shape[1]
    Xs = Xa.copy()
    Xs[:, -1] = _SAG_BIAS_SCALE
    theta = np.zeros((K, d1))
    # at theta = 0 every softmax row is uniform
    resid = np.full((n, K), 1.0 / K) - Y
    grad_sum = resid.T @ Xs  # (K, d1), tracks sum_i resid_i x_i
    lipschitz = 0.5 * float(np.max(np.sum(Xs * Xs, axis=1))) + lam
    step = 1.0 / lipschitz
    rng = make_rng(seed, 0)

    def unscaled(theta):
        out = theta.copy()
        out[:, -1] *= _SAG_BIAS_SCALE
        return out

    for _ in range(max_iter):
        picks = rng.integers(0, n, size=n)
        for i in picks:
            x = Xs[i]
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
        _, g = _nll_loss_grad(unscaled(theta), Xa, Y, lam)
        if np.max(np.abs(g)) < tol:
            break
    return unscaled(theta)


def oracle_lbfgs(Xa, Y, lam, tol, max_iter):
    """L-BFGS with Armijo backtracking; returns (theta, iterations,
    converged, max|grad|)."""
    K = Y.shape[1]
    d1 = Xa.shape[1]
    theta = np.zeros((K, d1))
    f, g = _nll_loss_grad(theta, Xa, Y, lam)
    s_hist, y_hist, rho_hist = [], [], []
    for it in range(max_iter):
        gnorm = _max_abs(g)
        if gnorm < tol:
            return theta, it, True, gnorm
        q = g.reshape(-1).copy()
        alphas = []
        for s, yv, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * s.dot(q)
            alphas.append(a)
            q -= a * yv
        if y_hist:
            q *= s_hist[-1].dot(y_hist[-1]) / y_hist[-1].dot(y_hist[-1])
        for (s, yv, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * yv.dot(q)
            q += (a - b) * s
        p = -q.reshape(theta.shape)
        gTp = float(np.sum(g * p))
        if gTp >= 0.0:  # rounding broke descent; fall back to steepest
            p = -g
            gTp = -float(np.sum(g * g))
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            theta_new = theta + step * p
            f_new, g_new = _nll_loss_grad(theta_new, Xa, Y, lam)
            if f_new <= f + _ARMIJO_C1 * step * gTp:
                break
            step *= 0.5
        else:
            return theta, it, False, gnorm  # line search failed
        s_vec = (theta_new - theta).reshape(-1)
        y_vec = (g_new - g).reshape(-1)
        sy = s_vec.dot(y_vec)
        if sy > 1e-10:
            s_hist.append(s_vec)
            y_hist.append(y_vec)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _LBFGS_MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)
        theta, f, g = theta_new, f_new, g_new
    gnorm = _max_abs(g)
    return theta, max_iter, gnorm < tol, gnorm


def oracle_newton_cg(Xa, Y, lam, tol, max_iter):
    """Truncated Newton with Armijo backtracking; returns (theta,
    iterations, converged, max|grad|)."""
    n, d1 = Xa.shape
    K = Y.shape[1]
    theta = np.zeros((K, d1))
    f, g = _nll_loss_grad(theta, Xa, Y, lam)
    for it in range(max_iter):
        gnorm = _max_abs(g)
        if gnorm < tol:
            return theta, it, True, gnorm
        Z = Xa @ theta.T
        Z = Z - Z.max(axis=1, keepdims=True)
        E = np.exp(Z)
        P = E / E.sum(axis=1, keepdims=True)

        def apply_h(v_flat):
            V = v_flat.reshape(K, d1)
            A = Xa @ V.T  # (n, K)
            M = P * (A - np.sum(P * A, axis=1, keepdims=True))
            HV = M.T @ Xa / n
            R = V.copy()
            R[:, -1] = 0.0
            return (HV + lam * R).reshape(-1)

        b = -g.reshape(-1)
        # inexact Newton forcing term keeps early iterations cheap
        cg_tol = min(0.5, np.sqrt(gnorm)) * np.linalg.norm(b)
        p = _cg(apply_h, b, cg_tol, max_iter=250)
        if not np.any(p):
            p = b
        P_dir = p.reshape(theta.shape)
        gTp = float(np.sum(g * P_dir))
        if gTp >= 0.0:
            P_dir = -g
            gTp = -float(np.sum(g * g))
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            theta_new = theta + step * P_dir
            f_new, g_new = _nll_loss_grad(theta_new, Xa, Y, lam)
            if f_new <= f + _ARMIJO_C1 * step * gTp:
                break
            step *= 0.5
        else:
            return theta, it, False, gnorm  # line search failed
        theta, f, g = theta_new, f_new, g_new
    gnorm = _max_abs(g)
    return theta, max_iter, gnorm < tol, gnorm


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
            assert cross_val_scores("perceptron", params, X, y, folds, seed=cv_seed) == [tuple(want)]


def radar_matrix(scheme, data_type):
    """A standardized outdoor radar dataset of 80 scans, 20 per class of
    simple4 and 8 of grid10, so the 28 fits on it take seconds."""
    (scenario,) = [s for s in parse_config({}).scenarios if s.scenario_id == "outdoor"]
    raw = generate_dataset(scenario, SCHEMES[scheme], 80 // SCHEMES[scheme].n_classes, seed=3)
    ds = standardize_dataset(derive_dataset(raw, data_type))
    return ds.scans, ds.labels


ORACLES = {"lbfgs": oracle_lbfgs, "newton-cg": oracle_newton_cg}
GRID_C = sorted({params["C"] for params in grid_candidates("logistic_regression")})


class TestLineSearchSolversMatchOracles:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    @pytest.mark.parametrize("data_type", ["motion_filtered", "raw"])
    def test_every_grid_c(self, scheme, data_type):
        X, y = radar_matrix(scheme, data_type)
        classes, codes = np.unique(y, return_inverse=True)
        Xa, Y = _augment(X), np.eye(classes.size)[codes]
        capped = 0
        for solver, oracle in ORACLES.items():
            for C in GRID_C:
                model = LogisticRegression(C=C, solver=solver).fit(X, y)
                theta, n_iter, converged, grad_norm = oracle(Xa, Y, 1.0 / C, model.tol, model.max_iter)
                assert same_bytes(model, theta[:, :-1], theta[:, -1]), (solver, C)
                assert (model.n_iter_, model.converged_) == (n_iter, converged), (solver, C)
                assert model.grad_norm_ == grad_norm, (solver, C)
                capped += model.n_iter_ == model.max_iter
        assert capped > 0  # some fits run out of iterations
