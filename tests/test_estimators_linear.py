import numpy as np
import pytest

from radarml.config import parse_config
from radarml.estimators import grid_candidates, linear
from radarml.estimators.linear import (
    SOLVERS,
    LinearSVC,
    LogisticRegression,
    Perceptron,
    _augment,
    _nll_loss_grad,
)
from radarml.labeling import SCHEMES
from radarml.modelsel import stratified_kfold
from radarml.sigproc import derive_dataset, standardize_dataset
from radarml.synth import generate_dataset

GRID_C = sorted({params["C"] for params in grid_candidates("logistic_regression")})


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


class TestSagBiasScale:
    """sag steps on a scaled bias column; the optimum must not move."""

    @pytest.mark.parametrize("C", GRID_C)
    def test_converged_fit_is_stationary_in_original_coordinates(self, C):
        X, y = blobs(spread=2.0)
        model = LogisticRegression(C=C, solver="sag").fit(X, y)
        if C <= 100.0:
            assert model.converged_ is True
        if model.converged_:
            assert fitted_grad_norm(model, X, y) < model.tol

    @pytest.mark.parametrize("C", [c for c in GRID_C if c <= 100.0])
    def test_predicts_as_newton_cg_on_held_out_rows(self, C):
        X, y = blobs(spread=2.0)
        X_test, _ = blobs(seed=1, spread=2.0)
        sag = LogisticRegression(C=C, solver="sag").fit(X, y)
        newton = LogisticRegression(C=C, solver="newton-cg").fit(X, y)
        assert sag.converged_ and newton.converged_
        np.testing.assert_array_equal(sag.predict(X_test), newton.predict(X_test))

    def test_radar_fold_converges_in_few_epochs(self):
        # a standardized 10-class fold of 160 motion-filtered 480-bin scans;
        # with a bias column of 1, sag takes about 75 epochs here at C=0.01
        config = parse_config({"seed": 0, "n_per_class": 200})
        (scenario,) = [s for s in config.scenarios if s.scenario_id == "outdoor"]
        raw = generate_dataset(scenario, SCHEMES["grid10"], 20, seed=7)
        ds = standardize_dataset(derive_dataset(raw, "motion_filtered"))
        (train, _), *_ = stratified_kfold(ds.labels, 5, seed=0)
        X, y = ds.scans[train], ds.labels[train]
        assert X.shape == (160, 480) and len(set(y)) == 10
        for seed in range(3):
            model = LogisticRegression(C=0.01, solver="sag", seed=seed).fit(X, y)
            assert model.converged_ is True
            assert model.n_iter_ <= 15


class TestGradNorm:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("max_iter", [2, 500])
    def test_is_the_final_gradient_of_the_original_problem(self, solver, max_iter):
        X, y = blobs(spread=2.0)
        model = LogisticRegression(C=1.0, solver=solver, max_iter=max_iter).fit(X, y)
        assert model.grad_norm_ == fitted_grad_norm(model, X, y)
        assert (model.grad_norm_ < model.tol) == model.converged_
        assert model.converged_ is (max_iter == 500)


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
