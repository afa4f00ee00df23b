"""Linear classifiers: multinomial logistic regression, perceptron, SVM.

All three operate on an augmented design matrix with a trailing bias
column that stays unpenalized. Logistic regression minimizes the mean
negative log-likelihood plus (1/(2C))||W||^2 and exposes three solvers
that share one convergence rule: max|grad| < tol on this objective.
Each fit records ``n_iter_``, ``converged_`` and ``grad_norm_`` (the
max|grad| where it stopped), so a fit that ran out of iterations or whose
line search failed says so, and by how much. ``lbfgs`` and ``newton-cg``
share one line-search loop, ``_descend``, and differ only in the
direction each proposes. ``sag`` steps on rows whose bias column is
``_SAG_BIAS_SCALE`` instead of 1: the bias is unpenalized, so that
reparametrizes the same objective, and ``sag`` tests its stopping rule
and returns its bias in the original coordinates.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..seeding import make_rng
from .base import Classifier, log_softmax_rows, positive_float, softmax_rows

_LBFGS_MEMORY = 10
_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 30
# The bias column of the rows ``sag`` steps on. The penalized weights have
# curvature of at least 1/C but the unpenalized bias at most about 0.25,
# and the 1/L step is not scale-invariant, so scaling the column speeds up
# the bias and with it the fit. Chosen from sag epochs on a standardized
# grid10 fold of 160x480 at C = 0.01 / 1 / 10: 71 / 182 / 500+ at 1,
# 9 / 27 / 88 at 4, 9 / 26 / 102 at 10, 11 / 31 / 243 at 30.
_SAG_BIAS_SCALE = 4.0

SOLVERS = ("lbfgs", "sag", "newton-cg")


def _augment(X):
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _max_abs(g):
    return float(np.max(np.abs(g)))


def _nll_loss_grad(theta, Xa, Y, lam):
    """Penalized mean NLL and its gradient; theta is (K, d+1)."""
    n = Xa.shape[0]
    logp = log_softmax_rows(Xa @ theta.T)
    nll = -np.sum(logp * Y) / n
    P = np.exp(logp)
    G = (P - Y).T @ Xa / n
    W = theta.copy()
    W[:, -1] = 0.0
    return nll + 0.5 * lam * np.sum(W * W), G + lam * W


def _descend(Xa, Y, lam, tol, max_iter, direction):
    """Line-search descent on the objective from theta = 0.

    Each iteration stops converged once max|grad| < tol, else takes the
    step ``direction(theta, g, gnorm)`` proposes, steepest descent where
    that does not descend, backtracked by halving from 1 until the Armijo
    condition holds (Nocedal & Wright, Numerical Optimization, 2006, ch. 3).
    If ``_MAX_HALVINGS`` halvings fail the fit stops unconverged. Returns
    (theta, iterations, converged, max|grad|).
    """
    theta = np.zeros((Y.shape[1], Xa.shape[1]))
    f, g = _nll_loss_grad(theta, Xa, Y, lam)
    for it in range(max_iter):
        gnorm = _max_abs(g)
        if gnorm < tol:
            return theta, it, True, gnorm
        p = direction(theta, g, gnorm)
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
        theta, f, g = theta_new, f_new, g_new
    gnorm = _max_abs(g)
    return theta, max_iter, gnorm < tol, gnorm


def _solve_lbfgs(Xa, Y, lam, tol, max_iter):
    """``_descend`` along the L-BFGS two-loop direction, whose (s, y) pairs
    are the differences of consecutive iterates and their gradients."""
    hist = deque(maxlen=_LBFGS_MEMORY)  # (s, y, 1 / s.y), oldest first
    prev = None  # the previous iterate and its gradient

    def direction(theta, g, gnorm):
        nonlocal prev
        if prev is not None:
            s_vec = (theta - prev[0]).reshape(-1)
            y_vec = (g - prev[1]).reshape(-1)
            sy = s_vec.dot(y_vec)
            if sy > 1e-10:
                hist.append((s_vec, y_vec, 1.0 / sy))
        prev = theta, g
        q = g.reshape(-1).copy()
        alphas = []
        for s, yv, rho in reversed(hist):
            a = rho * s.dot(q)
            alphas.append(a)
            q -= a * yv
        if hist:
            s, yv, _ = hist[-1]
            q *= s.dot(yv) / yv.dot(yv)
        for (s, yv, rho), a in zip(hist, reversed(alphas)):
            b = rho * yv.dot(q)
            q += (a - b) * s
        return -q.reshape(theta.shape)

    return _descend(Xa, Y, lam, tol, max_iter, direction)


def _solve_sag(Xa, Y, lam, tol, max_iter, seed):
    """Stochastic average gradient with per-sample residual memory.

    Steps on ``Xa`` with its bias column set to ``_SAG_BIAS_SCALE``, an
    exact reparametrization of the same objective, and returns (theta with
    its bias in ``Xa``'s coordinates, epochs run, converged, max|grad|).
    Each epoch ends with the shared stopping rule on the original problem.
    Each step works in buffers allocated once per fit. The rank-1 residual
    update is a k=1 matrix product, a single multiply per element, and the
    L2 term is ``theta`` times a per-column ``decay`` that is 0 in the bias
    column, so every array operation runs on contiguous memory and rounds
    exactly as the plain per-sample formulas do.
    """
    n, d1 = Xa.shape
    K = Y.shape[1]
    Xs = Xa.copy()
    Xs[:, -1] = _SAG_BIAS_SCALE
    unscale = np.ones(d1)
    unscale[-1] = _SAG_BIAS_SCALE
    theta = np.zeros((K, d1))
    # at theta = 0 every softmax row is uniform
    resid = np.full((n, K), 1.0 / K) - Y
    grad_sum = resid.T @ Xs  # (K, d1), tracks sum_i resid_i x_i
    lipschitz = 0.5 * float(np.max(np.sum(Xs * Xs, axis=1))) + lam
    step = 1.0 / lipschitz
    scale = step / n
    decay = np.full(d1, step * lam)
    decay[-1] = 0.0  # the bias stays unpenalized
    p = np.empty(K)
    dr = np.empty((K, 1))
    outer = np.empty((K, d1))
    update = np.empty((K, d1))
    shrink = np.empty((K, d1))
    gnorm = _max_abs(_nll_loss_grad(theta, Xa, Y, lam)[1])
    rng = make_rng(seed, 0)
    for epoch in range(1, max_iter + 1):
        for i in rng.integers(0, n, size=n).tolist():
            np.matmul(theta, Xs[i], out=p)
            p -= p.max()
            np.exp(p, out=p)
            p /= p.sum()
            p -= Y[i]  # the new residual
            np.subtract(p, resid[i], out=dr[:, 0])
            resid[i] = p
            np.dot(dr, Xs[i : i + 1], out=outer)
            grad_sum += outer
            np.multiply(grad_sum, scale, out=update)
            np.multiply(theta, decay, out=shrink)
            update += shrink
            theta -= update
        unscaled = theta * unscale
        gnorm = _max_abs(_nll_loss_grad(unscaled, Xa, Y, lam)[1])
        if gnorm < tol:
            return unscaled, epoch, True, gnorm
    return theta * unscale, max_iter, gnorm < tol, gnorm


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
    """``_descend`` along a truncated-CG Newton step."""
    n, d1 = Xa.shape
    K = Y.shape[1]

    def direction(theta, g, gnorm):
        P = softmax_rows(Xa @ theta.T)

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
        return (p if np.any(p) else b).reshape(theta.shape)

    return _descend(Xa, Y, lam, tol, max_iter, direction)


class _LinearClassifier(Classifier):
    """Scores ``X @ coef_.T + intercept_``, one column per class."""

    def _predict_codes(self, X):
        return np.argmax(X @ self.coef_.T + self.intercept_, axis=1)


class LogisticRegression(_LinearClassifier):
    """Softmax regression with L2 strength 1/C.

    ``grad_norm_`` is max|grad| of the objective where the fit stopped,
    below ``tol`` exactly when ``converged_``.
    """

    kind = "logistic_regression"

    def __init__(self, C=1.0, solver="lbfgs", tol=1e-5, max_iter=500, seed=0):
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r}; expected one of {SOLVERS}")
        self.C = positive_float("C", C)
        self.solver = solver
        self.tol = positive_float("tol", tol)
        self.max_iter = int(max_iter)
        self.seed = int(seed)

    def _fit(self, X, codes):
        Y = np.eye(len(self.classes_))[codes]
        Xa = _augment(X)
        lam = 1.0 / self.C
        if self.solver == "lbfgs":
            solved = _solve_lbfgs(Xa, Y, lam, self.tol, self.max_iter)
        elif self.solver == "sag":
            solved = _solve_sag(Xa, Y, lam, self.tol, self.max_iter, self.seed)
        else:
            solved = _solve_newton_cg(Xa, Y, lam, self.tol, self.max_iter)
        theta, self.n_iter_, self.converged_, self.grad_norm_ = solved
        self.coef_ = theta[:, :-1]
        self.intercept_ = theta[:, -1]


def _perceptron_lockstep(fits, lr, alpha):
    """Run the perceptron epochs of several ``(model, X, codes)`` fits at once.

    The fits share their number of classes and features, ``lr`` and
    ``alpha``. Step s of an epoch decays, scores and corrects every fit that
    is still running and has more than s rows, each at the s-th row of its
    own visit order, so each fit does the arithmetic of a lone fit. Stacked
    (fit, class, feature) weights turn a step's decay and matvec into one
    numpy call each, and its corrections into one scatter.
    """
    decay = 1.0 - lr * alpha
    # longest first, so the fits with more than s rows are a prefix
    fits = sorted(fits, key=lambda fit: -fit[1].shape[0])
    models = [model for model, _, _ in fits]
    F, K, d = len(fits), len(models[0].classes_), fits[0][1].shape[1]
    sizes = np.array([X.shape[0] for _, X, _ in fits])
    max_epochs = np.array([model.max_epochs for model in models])
    targets = [2.0 * np.eye(K)[codes] - 1.0 for _, _, codes in fits]
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
        if not 0.0 <= alpha < np.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {alpha}")
        self.alpha = float(alpha)
        self.lr = positive_float("lr", lr)
        if self.lr * self.alpha > 1:
            raise ValueError("lr * alpha must not exceed 1")
        self.max_epochs = int(max_epochs)
        self.seed = int(seed)

    def _fit(self, X, codes):
        _perceptron_lockstep([(self, X, codes)], self.lr, self.alpha)

    @staticmethod
    def fit_together(models, Xs, ys):
        """Fit each ``models[f]`` on ``(Xs[f], ys[f])``, bit for bit as its
        own ``fit`` would, stepping fits that share their shape, ``lr``
        and ``alpha`` in lockstep.

        Cross-validation fits its folds through this; ``_fit`` is the
        one-fit case.
        """
        groups = {}
        for model, X, y in zip(models, Xs, ys):
            X, codes = model._encode(X, y)
            key = (len(model.classes_), X.shape[1], model.lr, model.alpha)
            groups.setdefault(key, []).append((model, X, codes))
        for (_, _, lr, alpha), fits in groups.items():
            _perceptron_lockstep(fits, lr, alpha)


class LinearSVC(_LinearClassifier):
    """One-vs-rest linear SVM trained by deterministic subgradient descent.

    Objective per class: (1/(2C))||w||^2 + mean hinge loss. Every epoch
    applies one full-batch subgradient step with the classic 1/(lam * t)
    schedule, so repeated fits are bit-identical without any RNG.
    """

    kind = "linear_svc"

    def __init__(self, C=1.0, max_epochs=200, seed=0):
        self.C = positive_float("C", C)
        self.max_epochs = int(max_epochs)
        self.seed = int(seed)  # unused; kept for a uniform constructor surface

    def _fit(self, X, codes):
        n, d = X.shape
        K = len(self.classes_)
        T = 2.0 * np.eye(K)[codes] - 1.0
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
