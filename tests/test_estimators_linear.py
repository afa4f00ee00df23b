import numpy as np
import pytest

from radarml.estimators import linear
from radarml.estimators.ensemble import GradientBoosting
from radarml.estimators.linear import (
    LinearSVC,
    LogisticRegression,
    Perceptron,
    _augment,
    _nll_loss_grad,
)


def blobs(n_per=20, centers=((-4.0, 0.0), (4.0, 0.0), (0.0, 6.0)), seed=0, spread=0.5):
    rng = np.random.default_rng(seed)
    X = np.concatenate([rng.normal(c, spread, size=(n_per, 2)) for c in centers])
    y = np.repeat(np.arange(len(centers)), n_per)
    return X, y


def fitted_grad_norm(model, X, y):
    K = len(model.classes_)
    Y = np.zeros((X.shape[0], K))
    Y[np.arange(X.shape[0]), np.searchsorted(model.classes_, y)] = 1.0
    theta = np.hstack([model.coef_, model.intercept_[:, None]])
    _, grad = _nll_loss_grad(theta, _augment(X), Y, 1.0 / model.C)
    return np.max(np.abs(grad))


class TestLogisticRegression:
    @pytest.mark.parametrize("solver", ["lbfgs", "sag", "newton-cg"])
    def test_solver_reaches_stationary_point(self, solver):
        X, y = blobs()
        model = LogisticRegression(C=1.0, solver=solver).fit(X, y)
        assert fitted_grad_norm(model, X, y) < 1e-4

    def test_solvers_agree_on_the_optimum(self):
        X, y = blobs(centers=((-3.0, 0.0), (3.0, 0.0)))
        coefs = {}
        for solver in ("lbfgs", "sag", "newton-cg"):
            m = LogisticRegression(C=1.0, solver=solver).fit(X, y)
            coefs[solver] = np.hstack([m.coef_, m.intercept_[:, None]])
        np.testing.assert_allclose(coefs["lbfgs"], coefs["newton-cg"], atol=1e-3)
        np.testing.assert_allclose(coefs["lbfgs"], coefs["sag"], atol=1e-3)

    def test_symmetric_problem_matches_bisection_oracle(self):
        # two mirrored points, C=1: the optimum satisfies
        # lam * a = 1 - sigmoid(2 a) with W = [[a], [-a]], zero intercepts
        X = np.array([[1.0], [-1.0]])
        y = np.array([0, 1])
        lo, hi = 0.0, 5.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if 1.0 * mid - (1.0 - 1.0 / (1.0 + np.exp(-2.0 * mid))) > 0:
                hi = mid
            else:
                lo = mid
        a = (lo + hi) / 2
        model = LogisticRegression(C=1.0, solver="lbfgs", tol=1e-10).fit(X, y)
        np.testing.assert_allclose(model.coef_, [[a], [-a]], atol=1e-5)
        np.testing.assert_allclose(model.intercept_, [0.0, 0.0], atol=1e-5)

    def test_probabilities_normalized_and_consistent(self):
        X, y = blobs()
        model = LogisticRegression().fit(X, y)
        P = model.predict_proba(X)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P > 0)
        np.testing.assert_array_equal(model.classes_[P.argmax(axis=1)], model.predict(X))

    def test_separable_blobs_memorized(self):
        X, y = blobs()
        model = LogisticRegression(C=100.0).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_sag_deterministic_per_seed(self):
        X, y = blobs()
        a = LogisticRegression(solver="sag", seed=3).fit(X, y)
        b = LogisticRegression(solver="sag", seed=3).fit(X, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)
        np.testing.assert_array_equal(a.intercept_, b.intercept_)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LogisticRegression(C=0.0)
        with pytest.raises(ValueError):
            LogisticRegression(solver="adam")


class TestPerceptron:
    def test_separable_data_fit_perfectly_without_decay(self):
        X, y = blobs()
        model = Perceptron(alpha=0.0).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_deterministic_per_seed(self):
        X, y = blobs(seed=2)
        a = Perceptron(alpha=0.0001, seed=4).fit(X, y)
        b = Perceptron(alpha=0.0001, seed=4).fit(X, y)
        np.testing.assert_array_equal(a.coef_, b.coef_)

    def test_seed_changes_visit_order(self):
        X, y = blobs(seed=2, spread=1.5)
        a = Perceptron(alpha=0.0001, seed=1).fit(X, y)
        b = Perceptron(alpha=0.0001, seed=2).fit(X, y)
        assert not np.array_equal(a.coef_, b.coef_)

    def test_full_decay_alpha_one_still_defined(self):
        # lr * alpha == 1 zeroes the weights before every update; the
        # grid includes alpha = 1.0 so this degenerate setting must run
        X, y = blobs()
        model = Perceptron(alpha=1.0).fit(X, y)
        assert np.all(np.isfinite(model.coef_))
        assert set(model.predict(X)) <= set(model.classes_)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            Perceptron(alpha=-0.1)

    def test_excessive_decay_rejected(self):
        # by the constructor, so no fit can set classes_ and then reject
        # its model, which would leave it half fitted
        for alpha, lr in ((2.0, 1.0), (0.6, 2.0)):
            with pytest.raises(ValueError, match=r"lr \* alpha must not exceed 1"):
                Perceptron(alpha=alpha, lr=lr)


class TestLinearSVC:
    def test_separable_data_fit_perfectly(self):
        X, y = blobs()
        model = LinearSVC(C=1.0).fit(X, y)
        assert np.mean(model.predict(X) == y) == 1.0

    def test_repeat_fits_bit_identical(self):
        X, y = blobs(seed=5)
        a = LinearSVC(C=10.0).fit(X, y)
        b = LinearSVC(C=10.0).fit(X, y)
        assert a.coef_.tobytes() == b.coef_.tobytes()
        assert a.intercept_.tobytes() == b.intercept_.tobytes()

    def test_objective_below_zero_weight_start(self):
        X, y = blobs()
        model = LinearSVC(C=1.0).fit(X, y)
        K = len(model.classes_)
        T = np.full((X.shape[0], K), -1.0)
        T[np.arange(X.shape[0]), np.searchsorted(model.classes_, y)] = 1.0
        margins = T * (X @ model.coef_.T + model.intercept_)
        hinge = np.maximum(0.0, 1.0 - margins).mean(axis=0)
        obj = hinge + 0.5 / model.C * (model.coef_**2).sum(axis=1)
        assert np.all(obj < 1.0)  # at W = 0 every class objective is 1.0

    def test_ovr_shapes(self):
        X, y = blobs()
        model = LinearSVC().fit(X, y)
        assert model.coef_.shape == (3, 2)
        assert model.intercept_.shape == (3,)

    def test_bad_c_rejected(self):
        with pytest.raises(ValueError):
            LinearSVC(C=-1.0)


class TestFitsSayHowTheyEnded:
    @pytest.mark.parametrize("solver", ["lbfgs", "sag", "newton-cg"])
    def test_converged_fit(self, solver):
        X, y = blobs()
        model = LogisticRegression(C=1.0, solver=solver).fit(X, y)
        assert model.converged_ is True
        assert 0 < model.n_iter_ < model.max_iter

    @pytest.mark.parametrize("solver", ["lbfgs", "sag", "newton-cg"])
    def test_out_of_iterations(self, solver):
        X, y = blobs()
        model = LogisticRegression(C=1.0, solver=solver, max_iter=2).fit(X, y)
        assert (model.n_iter_, model.converged_) == (2, False)

    @pytest.mark.parametrize("solver", ["lbfgs", "newton-cg"])
    def test_line_search_failure(self, monkeypatch, solver):
        # a loss that rises on every move away from the start leaves the
        # Armijo search no step to accept
        real = linear._nll_loss_grad

        def rising(theta, Xa, Y, lam):
            loss, grad = real(theta, Xa, Y, lam)
            return loss + float(np.any(theta)), grad

        monkeypatch.setattr(linear, "_nll_loss_grad", rising)
        model = LogisticRegression(solver=solver).fit(*blobs())
        assert (model.n_iter_, model.converged_) == (0, False)
        assert not np.any(model.coef_)

    def test_perceptron_clean_epoch(self):
        X, y = blobs()
        model = Perceptron(alpha=0.0).fit(X, y)
        assert model.converged_ is True
        assert 1 < model.n_iter_ < model.max_epochs

    def test_perceptron_out_of_epochs(self):
        X, y = blobs(spread=4.0)
        model = Perceptron(max_epochs=3).fit(X, y)
        assert (model.n_iter_, model.converged_) == (3, False)


def scorers(model):
    """``decision_function``, and ``staged_decision_function`` where a
    class has one: both must check ``X`` when called."""
    yield model.decision_function
    if hasattr(model, "staged_decision_function"):
        yield model.staged_decision_function


@pytest.mark.parametrize("cls", [LogisticRegression, Perceptron, LinearSVC, GradientBoosting])
class TestDecisionFunctionValidates:
    def test_one_row_as_a_vector_rejected(self, cls):
        X, y = blobs()
        model = cls().fit(X, y)
        for score in scorers(model):
            with pytest.raises(ValueError, match="2-D"):
                score(X[0])

    def test_nan_rows_rejected(self, cls):
        X, y = blobs()
        model = cls().fit(X, y)
        bad = X[:3].copy()
        bad[1, 0] = np.nan
        for score in scorers(model):
            with pytest.raises(ValueError, match="non-finite"):
                score(bad)
        with pytest.raises(ValueError, match="non-finite"):
            model.predict(bad)

    def test_unfitted_rejected(self, cls):
        for score in scorers(cls()):
            with pytest.raises(ValueError, match="not fitted"):
                score(np.zeros((2, 2)))

    def test_wrong_width_rejected(self, cls):
        X, y = blobs()
        model = cls().fit(X, y)
        for score in scorers(model):
            with pytest.raises(ValueError, match="expected 2 features"):
                score(np.zeros((2, 3)))
