import inspect

import numpy as np
import pytest

from radarml.estimators import ESTIMATOR_CLASSES, GRID_AXES, KINDS, accuracy_percent, grid_candidates
from radarml.estimators.base import Classifier, check_matrix, encode_training_data
from radarml.modelsel import cross_val_scores, stratified_kfold
from radarml.seeding import derive_seed


def overlapping_blobs():
    # close enough that fits err and differ by kind, seed and fold
    rng = np.random.default_rng(2)
    centers = ((-1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 1.5, 0.0, 0.0))
    X = np.concatenate([rng.normal(c, 1.0, size=(15, 4)) for c in centers])
    return X, np.repeat([10, 20, 30], 15)


def multi_stage(cls):
    """A model of ``cls`` with more than one stage, where its class has them."""
    return cls(seed=3) if cls.staged_param is None else cls(**{cls.staged_param: 5}, seed=3)


class TestRegistry:
    def test_registry_lists_every_kind_in_grid_order(self):
        assert tuple(ESTIMATOR_CLASSES) == KINDS
        assert all(cls.kind == kind for kind, cls in ESTIMATOR_CLASSES.items())

    @pytest.mark.parametrize("kind", KINDS)
    def test_constructor_sets_seed(self, kind):
        model = ESTIMATOR_CLASSES[kind](seed=11)
        assert model.seed == 11
        assert model.kind == kind

    # DecisionTree's max_depth is the one constructor option beyond the
    # grid: it is the classification growers' only depth bound, and tests
    # bound trees with it so that a split fault fails instead of hanging
    BEYOND_THE_GRID = {"decision_tree": ("max_depth",)}

    @pytest.mark.parametrize("kind", KINDS)
    def test_constructor_takes_seed_and_every_grid_axis(self, kind):
        # and nothing else: a setting that no grid varies is a class constant
        params = inspect.signature(ESTIMATOR_CLASSES[kind]).parameters
        axes = [name for name, _ in GRID_AXES[kind]]
        assert set(params) == {"seed", *axes, *self.BEYOND_THE_GRID.get(kind, ())}

    # the settings that no grid varies, with the values every fit uses
    CLASS_CONSTANTS = {
        f"{kind}.{name}": (kind, name, value)
        for kind, name, value in (
            ("logistic_regression", "tol", 1e-5),
            ("logistic_regression", "max_iter", 500),
            ("perceptron", "lr", 1.0),
            ("perceptron", "max_epochs", 100),
            ("linear_svc", "max_epochs", 200),
            ("gradient_boosting", "max_depth", 3),
        )
    }

    @pytest.mark.parametrize("kind, name, value", CLASS_CONSTANTS.values(), ids=list(CLASS_CONSTANTS))
    def test_fixed_setting_is_a_class_constant(self, kind, name, value):
        cls = ESTIMATOR_CLASSES[kind]
        assert vars(cls)[name] == value
        assert getattr(cls(seed=1), name) == value
        with pytest.raises(TypeError, match=name):
            cls(**{name: value})

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_grid_candidate_constructs(self, kind):
        for params in grid_candidates(kind):
            ESTIMATOR_CLASSES[kind](**params, seed=1)

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_is_the_shared_one_around_a_kind_specific_fit(self, kind):
        # Classifier.fit alone encodes the labels and records classes_ and
        # n_features_; each kind only supplies _fit(X, codes)
        cls = ESTIMATOR_CLASSES[kind]
        assert cls.fit is Classifier.fit
        own = cls.__mro__[: cls.__mro__.index(Classifier)]
        assert any("_fit" in vars(c) for c in own)

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_before_fit_rejected(self, kind):
        with pytest.raises(ValueError, match="not fitted"):
            ESTIMATOR_CLASSES[kind]().predict(np.zeros((2, 3)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_constructor_sets_exactly_its_params(self, kind):
        cls = ESTIMATOR_CLASSES[kind]
        assert set(vars(cls(seed=3))) == set(inspect.signature(cls).parameters)

    @pytest.mark.parametrize("kind", KINDS)
    def test_staged_predict_ends_at_predict(self, kind):
        X, y = overlapping_blobs()
        model = multi_stage(ESTIMATOR_CLASSES[kind]).fit(X, y)
        staged = list(model.staged_predict(X))
        assert len(staged) == model.n_stages == (1 if model.staged_param is None else 5)
        assert all(labels.shape == y.shape and set(labels) <= set(y) for labels in staged)
        np.testing.assert_array_equal(staged[-1], model.predict(X))

    @pytest.mark.parametrize("kind", KINDS)
    def test_staged_predict_checks_its_input_when_called(self, kind):
        cls = ESTIMATOR_CLASSES[kind]
        X, y = overlapping_blobs()
        with pytest.raises(ValueError, match="not fitted"):
            multi_stage(cls).staged_predict(X)
        model = multi_stage(cls).fit(X, y)
        bad = X[:3].copy()
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model.staged_predict(bad)
        with pytest.raises(ValueError, match="expected 4 features"):
            model.staged_predict(X[:, :3])
        with pytest.raises(ValueError, match="2-D"):
            model.staged_predict(X[0])

    @pytest.mark.parametrize("kind", KINDS)
    def test_cross_val_scores_is_a_lone_fit_per_fold(self, kind):
        # the classes without a fit_together of their own fit their folds
        # through the default one
        X, y = overlapping_blobs()
        folds = stratified_kfold(y, 3, seed=4)
        cls = ESTIMATOR_CLASSES[kind]
        want = []
        for fi, (tr, va) in enumerate(folds):
            model = cls(seed=derive_seed(9, fi)).fit(X[tr], y[tr])
            want.append(accuracy_percent(y[va], model.predict(X[va])))
        assert cross_val_scores(kind, {}, X, y, folds, seed=9) == [tuple(want)]


def two_class_blobs():
    # other classes and another width than overlapping_blobs
    rng = np.random.default_rng(5)
    X = np.concatenate([rng.normal(c, 0.8, size=(10, 3)) for c in (-1.0, 1.0)])
    return X, np.repeat([0, 7], 10)


@pytest.mark.parametrize("kind", KINDS)
class TestFitContract:
    """What every kind's ``fit`` and ``predict`` promise the pipeline."""

    def test_fit_returns_the_model_and_keeps_its_params(self, kind):
        model = multi_stage(ESTIMATOR_CLASSES[kind])
        params = dict(vars(model))
        assert model.fit(*overlapping_blobs()) is model
        assert {name: getattr(model, name) for name in params} == params

    def test_fit_and_predict_leave_their_inputs_unchanged(self, kind):
        X, y = overlapping_blobs()
        X_before, y_before = X.copy(), y.copy()
        model = multi_stage(ESTIMATOR_CLASSES[kind]).fit(X, y)
        model.predict(X)
        list(model.staged_predict(X))
        np.testing.assert_array_equal(X, X_before)
        np.testing.assert_array_equal(y, y_before)

    def test_refit_predicts_as_a_fresh_fit(self, kind):
        # the second fit has other classes and another width, so any state
        # the first fit left behind would show in the predictions or checks
        cls = ESTIMATOR_CLASSES[kind]
        X, y = overlapping_blobs()
        refit = multi_stage(cls).fit(*two_class_blobs()).fit(X, y)
        fresh = multi_stage(cls).fit(X, y)
        assert refit.classes_.tolist() == [10, 20, 30]
        assert refit.n_features_ == 4
        for a, b in zip(refit.staged_predict(X), fresh.staged_predict(X), strict=True):
            np.testing.assert_array_equal(a, b)

    def test_fit_together_fits_each_model_as_its_own_fit(self, kind):
        cls = ESTIMATOR_CLASSES[kind]
        data = [overlapping_blobs(), two_class_blobs(), overlapping_blobs()]
        models = [multi_stage(cls), multi_stage(cls), cls(seed=8)]
        cls.fit_together(models, [X for X, _ in data], [y for _, y in data])
        for model, (X, y), alone in zip(models, data, [multi_stage(cls), multi_stage(cls), cls(seed=8)]):
            alone.fit(X, y)
            assert model.classes_.tolist() == alone.classes_.tolist()
            for a, b in zip(model.staged_predict(X), alone.staged_predict(X), strict=True):
                np.testing.assert_array_equal(a, b)

    def test_predictions_do_not_depend_on_the_other_rows(self, kind):
        X, y = overlapping_blobs()
        model = multi_stage(ESTIMATOR_CLASSES[kind]).fit(X, y)
        labels = model.predict(X)
        order = np.random.default_rng(6).permutation(len(X))
        np.testing.assert_array_equal(model.predict(X[order]), labels[order])
        for i in (0, 17, len(X) - 1):
            np.testing.assert_array_equal(model.predict(X[i : i + 1]), labels[i : i + 1])

    def test_labels_only_name_the_classes(self, kind):
        # an order-keeping renaming of the labels renames the predictions
        cls = ESTIMATOR_CLASSES[kind]
        X, y = overlapping_blobs()
        names = {10: "near", 20: "other", 30: "right"}
        named = multi_stage(cls).fit(X, np.array([names[v] for v in y]))
        coded = multi_stage(cls).fit(X, y)
        assert named.classes_.tolist() == ["near", "other", "right"]
        np.testing.assert_array_equal(named.predict(X), [names[v] for v in coded.predict(X)])

    def test_predict_checks_its_input(self, kind):
        X, y = overlapping_blobs()
        model = multi_stage(ESTIMATOR_CLASSES[kind]).fit(X, y)
        bad = X[:3].copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model.predict(bad)
        with pytest.raises(ValueError, match="expected 4 features"):
            model.predict(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="2-D"):
            model.predict(X[0])
        with pytest.raises(ValueError, match="non-empty"):
            model.predict(X[:0])

    def test_fit_rejects_bad_training_data_and_stays_unfitted(self, kind):
        cls = ESTIMATOR_CLASSES[kind]
        X, y = overlapping_blobs()
        bad = X.copy()
        bad[4, 1] = np.inf
        cases = [
            (bad, y, "non-finite"),
            (X[0], y[:1], "2-D"),
            (X, y[:-1], "45 rows but y has 44"),
            (X, np.full(len(X), 20), "at least two classes"),
        ]
        for X_fit, y_fit, message in cases:
            model = multi_stage(cls)
            with pytest.raises(ValueError, match=message):
                model.fit(X_fit, y_fit)
            with pytest.raises(ValueError, match="not fitted"):
                model.predict(X)

    def test_a_failed_refit_leaves_the_model_unfitted(self, kind, monkeypatch):
        # a refit that fails in the shared checks, or in the kind's own _fit
        # after it recorded part of its state, keeps nothing of either fit
        cls = ESTIMATOR_CLASSES[kind]
        X, y = overlapping_blobs()
        params = set(inspect.signature(cls).parameters)
        model = multi_stage(cls).fit(X, y)
        with pytest.raises(ValueError, match="at least two classes"):
            model.fit(X, np.full(len(X), 20))
        assert set(vars(model)) == params
        with pytest.raises(ValueError, match="not fitted"):
            model.predict(X)

        real = cls._fit

        def interrupted(model, X, codes):
            real(model, X, codes)
            raise MemoryError("interrupted")

        model.fit(X, y)
        monkeypatch.setattr(cls, "_fit", interrupted)
        with pytest.raises(MemoryError):
            model.fit(*two_class_blobs())
        assert set(vars(model)) == params
        with pytest.raises(ValueError, match="not fitted"):
            model.predict(X)

    def test_a_failed_fit_together_leaves_no_model_half_fitted(self, kind):
        # the model whose data fail is unfitted, though an earlier fit had
        # fitted it; the others are fitted as their own fit would, or unfitted
        cls = ESTIMATOR_CLASSES[kind]
        X, y = overlapping_blobs()
        models = [multi_stage(cls), multi_stage(cls).fit(X, y)]
        with pytest.raises(ValueError, match="at least two classes"):
            cls.fit_together(models, [X, X], [y, np.full(len(X), 20)])
        with pytest.raises(ValueError, match="not fitted"):
            models[1].predict(X)
        try:
            labels = models[0].predict(X)
        except ValueError as exc:
            assert "not fitted" in str(exc)
        else:
            np.testing.assert_array_equal(labels, multi_stage(cls).fit(X, y).predict(X))


class TestBaseChecks:
    def test_check_matrix_rules(self):
        with pytest.raises(ValueError):
            check_matrix(np.zeros(4))  # 1-D
        with pytest.raises(ValueError):
            check_matrix(np.zeros((0, 4)))  # empty
        bad = np.zeros((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            check_matrix(bad)

    def test_encode_training_data_sorts_classes(self):
        X = np.zeros((4, 2)) + np.arange(4)[:, None]
        codes_y = np.array([30, 10, 30, 20])
        _, codes, classes = encode_training_data(X, codes_y)
        assert classes.tolist() == [10, 20, 30]
        assert codes.tolist() == [2, 0, 2, 1]

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            encode_training_data(np.zeros((3, 2)), [5, 5, 5])

    def test_label_row_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_training_data(np.zeros((3, 2)), [0, 1])
