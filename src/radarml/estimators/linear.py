"""Linear classifiers: multinomial logistic regression, perceptron, SVM.

All three operate on an augmented design matrix with a trailing bias
column that stays unpenalized. Logistic regression minimizes the mean
negative log-likelihood plus (1/(2C))||W||^2 and exposes three solvers
that share one convergence rule: max|grad| < tol. Each fit records
``n_iter_`` and ``converged_``, so a fit that ran out of iterations or
whose line search failed says so.
"""

from __future__ import annotations

import numpy as np

from ..seeding import make_rng
from .base import Classifier, encode_training_data

_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 30

SOLVERS = ("lbfgs", "sag", "newton-cg")


def _augment(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _softmax_rows(Z):
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def _nll_loss_grad(theta, Xa, Y, lam):
    """Penalized mean NLL and its gradient; theta is (K, d+1)."""
    n = Xa.shape[0]
    Z = Xa @ theta.T
    Z = Z - Z.max(axis=1, keepdims=True)
    logsum = np.log(np.exp(Z).sum(axis=1, keepdims=True))
    logp = Z - logsum
    nll = -np.sum(logp * Y) / n
    P = np.exp(logp)
    G = (P - Y).T @ Xa / n
    W = theta.copy()
    W[:, -1] = 0.0
    loss = nll + 0.5 * lam * np.sum(W * W)
    grad = G + lam * W
    return loss, grad


def _solve_lbfgs(Xa, Y, lam, tol, max_iter):
    K = Y.shape[1]
    d1 = Xa.shape[1]
    theta = np.zeros((K, d1))
    f, g = _nll_loss_grad(theta, Xa, Y, lam)
    s_hist, y_hist, rho_hist = [], [], []
    for it in range(max_iter):
        if np.max(np.abs(g)) < tol:
            return theta, it, True
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
            return theta, it, False  # line search failed
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
    return theta, max_iter, bool(np.max(np.abs(g)) < tol)


def _solve_sag(Xa, Y, lam, tol, max_iter, seed):
    """Stochastic average gradient with per-sample residual memory.

    Returns (theta, epochs run, converged). Each step works in buffers
    allocated once per fit. The rank-1 residual update is a k=1 matrix
    product, a single multiply per element, and the L2 term is ``theta``
    times a per-column ``decay`` that is 0 in the bias column, so every
    array operation runs on contiguous memory and rounds exactly as the
    plain per-sample formulas do.
    """
    n, d1 = Xa.shape
    K = Y.shape[1]
    theta = np.zeros((K, d1))
    # at theta = 0 every softmax row is uniform
    resid = np.full((n, K), 1.0 / K) - Y
    grad_sum = resid.T @ Xa  # (K, d1), tracks sum_i resid_i x_i
    lipschitz = 0.5 * float(np.max(np.sum(Xa * Xa, axis=1))) + lam
    step = 1.0 / lipschitz
    scale = step / n
    decay = np.full(d1, step * lam)
    decay[-1] = 0.0  # the bias stays unpenalized
    p = np.empty(K)
    dr = np.empty((K, 1))
    outer = np.empty((K, d1))
    update = np.empty((K, d1))
    shrink = np.empty((K, d1))
    rng = make_rng(seed, 0)
    for epoch in range(1, max_iter + 1):
        for i in rng.integers(0, n, size=n).tolist():
            np.matmul(theta, Xa[i], out=p)
            p -= p.max()
            np.exp(p, out=p)
            p /= p.sum()
            p -= Y[i]  # the new residual
            np.subtract(p, resid[i], out=dr[:, 0])
            resid[i] = p
            np.dot(dr, Xa[i : i + 1], out=outer)
            grad_sum += outer
            np.multiply(grad_sum, scale, out=update)
            np.multiply(theta, decay, out=shrink)
            update += shrink
            theta -= update
        _, g = _nll_loss_grad(theta, Xa, Y, lam)
        if np.max(np.abs(g)) < tol:
            return theta, epoch, True
    return theta, max_iter, False


def _cg(apply_h, b, tol, max_iter):
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r.dot(r))
    for _ in range(max_iter):
        if np.sqrt(rs) < tol:
            break
        hp = apply_h(p)
        curvature = float(p.dot(hp))
        if curvature <= 0.0:
            break
        alpha = rs / curvature
        x += alpha * p
        r -= alpha * hp
        rs_new = float(r.dot(r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def _solve_newton_cg(Xa, Y, lam, tol, max_iter):
    n, d1 = Xa.shape
    K = Y.shape[1]
    theta = np.zeros((K, d1))
    f, g = _nll_loss_grad(theta, Xa, Y, lam)
    for it in range(max_iter):
        gnorm = np.max(np.abs(g))
        if gnorm < tol:
            return theta, it, True
        P = _softmax_rows(Xa @ theta.T)

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
            return theta, it, False  # line search failed
        theta, f, g = theta_new, f_new, g_new
    return theta, max_iter, bool(np.max(np.abs(g)) < tol)


class _LinearClassifier(Classifier):
    """Scores ``X @ coef_.T + intercept_``, one column per class."""

    def _scores(self, X):
        return X @ self.coef_.T + self.intercept_

    def _predict_codes(self, X):
        return np.argmax(self._scores(X), axis=1)


class LogisticRegression(_LinearClassifier):
    """Softmax regression with L2 strength 1/C."""

    kind = "logistic_regression"

    def __init__(self, C=1.0, solver="lbfgs", tol=1e-5, max_iter=500, seed=0):
        if C <= 0:
            raise ValueError("C must be positive")
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
        self.C = float(C)
        self.solver = solver
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.seed = int(seed)

    def fit(self, X, y):
        X, codes, self.classes_ = encode_training_data(X, y)
        self.n_features_ = X.shape[1]
        K = len(self.classes_)
        Y = np.zeros((X.shape[0], K))
        Y[np.arange(X.shape[0]), codes] = 1.0
        Xa = _augment(X)
        lam = 1.0 / self.C
        if self.solver == "lbfgs":
            solved = _solve_lbfgs(Xa, Y, lam, self.tol, self.max_iter)
        elif self.solver == "sag":
            solved = _solve_sag(Xa, Y, lam, self.tol, self.max_iter, self.seed)
        else:
            solved = _solve_newton_cg(Xa, Y, lam, self.tol, self.max_iter)
        theta, self.n_iter_, self.converged_ = solved
        self.coef_ = theta[:, :-1]
        self.intercept_ = theta[:, -1]
        return self


def _perceptron_lockstep(fits, lr, decay):
    """Run the perceptron epochs of several ``(model, X, codes)`` fits at once.

    The fits share their number of classes and features, ``lr`` and
    ``decay``. Step s of an epoch decays, scores and corrects every fit that
    is still running and has more than s rows, each at the s-th row of its
    own visit order, so each fit does the arithmetic of a lone fit. Stacked
    (fit, class, feature) weights turn a step's decay and matvec into one
    numpy call each, and its corrections into one scatter.
    """
    # longest first, so the fits with more than s rows are a prefix
    fits = sorted(fits, key=lambda fit: -fit[1].shape[0])
    models = [model for model, _, _ in fits]
    F, K, d = len(fits), len(models[0].classes_), fits[0][1].shape[1]
    sizes = np.array([X.shape[0] for _, X, _ in fits])
    max_epochs = np.array([model.max_epochs for model in models])
    targets = []
    for _, X, codes in fits:
        T = np.full((codes.size, K), -1.0)
        T[np.arange(codes.size), codes] = 1.0
        targets.append(T)
    rngs = [make_rng(model.seed, 0) for model in models]
    W = np.zeros((F, K, d))
    b = np.zeros((F, K))
    live = np.arange(F)  # fits still running, longest first
    clean = np.zeros(F, dtype=bool)
    epoch = 0
    while True:
        done = clean[live] | (max_epochs[live] <= epoch)
        for j in np.nonzero(done)[0]:
            model = models[live[j]]
            model.coef_, model.intercept_ = W[j].copy(), b[j].copy()
            model.n_iter_, model.converged_ = epoch, bool(clean[live[j]])
        if done.all():
            return
        if done.any():
            live, W, b = live[~done], W[~done], b[~done]
        epoch += 1
        M = live.size
        # step-major visit orders: X_ord[s, j] is fit j's s-th row
        X_ord = np.zeros((sizes[live[0]], M, d))
        T_ord = np.zeros((sizes[live[0]], M, K))
        for j, f in enumerate(live):
            order = rngs[f].permutation(sizes[f])
            X_ord[: sizes[f], j] = fits[f][1][order]
            T_ord[: sizes[f], j] = targets[f][order]
        L_rows = lr * T_ord.reshape(-1, M * K)
        running = (sizes[live] > np.arange(X_ord.shape[0])[:, None]).sum(axis=1)
        # row j * K + k of W_rows is class k of fit j; the first m fits are
        # its first m * K rows
        W_rows, b_rows = W.reshape(M * K, d), b.reshape(M * K)
        fit_of_row = np.repeat(np.arange(M), K)
        scores = np.empty((M, K, 1))
        margin = np.empty((M, K))
        wrong_mask = np.empty(M * K, dtype=bool)
        # views of the buffers cut to the first m fits, for each m that occurs
        margin_rows = margin.reshape(M * K)
        prefix = {
            m: (W[:m], b[:m], scores[:m], scores[:m, :, 0])
            + (margin[:m], margin_rows[: m * K], wrong_mask[: m * K])
            for m in set(running.tolist())
        }
        erred = np.zeros(M, dtype=bool)
        for x, t, lt, m in zip(X_ord, T_ord, L_rows, running.tolist()):
            w, b_m, scores_m, score, margin_m, margin_m_rows, wrong_m = prefix[m]
            x = x[:m]
            w *= decay
            np.matmul(w, x[:, :, None], out=scores_m)
            score += b_m
            np.multiply(t[:m], score, out=margin_m)
            np.less_equal(margin_m_rows, 0.0, out=wrong_m)
            wrong = wrong_m.nonzero()[0]
            if wrong.size:
                fi = fit_of_row[wrong]
                step = lt[wrong]
                W_rows[wrong] += step[:, None] * x[fi]
                b_rows[wrong] += step
                erred[fi] = True
        clean[live] = ~erred


class Perceptron(_LinearClassifier):
    """One-vs-rest perceptron with multiplicative L2 decay ``alpha``.

    Each visited sample first decays every weight vector by
    (1 - lr * alpha), then applies the classic mistake-driven update for
    the classifiers whose margin is not positive. Training stops early
    after a full epoch without mistakes (``converged_``); ``n_iter_``
    counts the epochs run.
    """

    kind = "perceptron"

    def __init__(self, alpha=0.0001, lr=1.0, max_epochs=100, seed=0):
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if lr * alpha > 1:
            raise ValueError("lr * alpha must not exceed 1")
        self.alpha = float(alpha)
        self.lr = float(lr)
        self.max_epochs = int(max_epochs)
        self.seed = int(seed)

    def fit(self, X, y):
        self.fit_together([self], [X], [y])
        return self

    @staticmethod
    def fit_together(models, Xs, ys):
        """Fit each ``models[f]`` on ``(Xs[f], ys[f])``, bit for bit as its
        own ``fit`` would, stepping fits that share their shape, ``lr``
        and ``alpha`` in lockstep.

        Cross-validation fits its folds through this; ``fit`` is the
        one-fit case.
        """
        groups = {}
        for model, X, y in zip(models, Xs, ys):
            X, codes, model.classes_ = encode_training_data(X, y)
            model.n_features_ = X.shape[1]
            key = (len(model.classes_), X.shape[1], model.lr, 1.0 - model.lr * model.alpha)
            groups.setdefault(key, []).append((model, X, codes))
        for (_, _, lr, decay), fits in groups.items():
            _perceptron_lockstep(fits, lr, decay)


class LinearSVC(_LinearClassifier):
    """One-vs-rest linear SVM trained by deterministic subgradient descent.

    Objective per class: (1/(2C))||w||^2 + mean hinge loss. Every epoch
    applies one full-batch subgradient step with the classic 1/(lam * t)
    schedule, so repeated fits are bit-identical without any RNG.
    """

    kind = "linear_svc"

    def __init__(self, C=1.0, max_epochs=200, seed=0):
        if C <= 0:
            raise ValueError("C must be positive")
        self.C = float(C)
        self.max_epochs = int(max_epochs)
        self.seed = int(seed)  # unused; kept for a uniform constructor surface

    def fit(self, X, y):
        X, codes, self.classes_ = encode_training_data(X, y)
        self.n_features_ = X.shape[1]
        n, d = X.shape
        K = len(self.classes_)
        T = np.full((n, K), -1.0)
        T[np.arange(n), codes] = 1.0
        W = np.zeros((K, d))
        b = np.zeros(K)
        lam = 1.0 / self.C
        for t in range(1, self.max_epochs + 1):
            step = 1.0 / (lam * t)
            margins = T * (X @ W.T + b)
            viol = margins < 1.0  # (n, K)
            coeff = np.where(viol, T, 0.0)
            grad_w = lam * W - coeff.T @ X / n
            grad_b = -coeff.sum(axis=0) / n
            W -= step * grad_w
            b -= step * grad_b
        self.coef_ = W
        self.intercept_ = b
        return self
