import inspect

import numpy as np
import pytest

from radarml.estimators import ESTIMATOR_CLASSES, GRID_AXES, KINDS, accuracy_percent
from radarml.estimators.base import check_matrix, encode_training_data
from radarml.modelsel import cross_val_scores, stratified_kfold
from radarml.seeding import derive_seed


def three_blobs():
    rng = np.random.default_rng(1)
    centers = ((-4.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 6.0, 0.0))
    X = np.concatenate([rng.normal(c, 0.6, size=(12, 3)) for c in centers])
    return X, np.repeat(np.arange(3), 12)


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

    @pytest.mark.parametrize("kind", KINDS)
    def test_constructor_takes_seed_and_every_grid_axis(self, kind):
        params = inspect.signature(ESTIMATOR_CLASSES[kind]).parameters
        assert {"seed", *(name for name, _ in GRID_AXES[kind])} <= set(params)

    @pytest.mark.parametrize("kind", KINDS)
    def test_predict_before_fit_rejected(self, kind):
        with pytest.raises(ValueError, match="not fitted"):
            ESTIMATOR_CLASSES[kind]().predict(np.zeros((2, 3)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_fit_sets_exactly_the_declared_state(self, kind):
        # a model file stores the constructor params and the declared state,
        # so anything else a constructor or fit sets would be lost by it
        cls = ESTIMATOR_CLASSES[kind]
        unfitted = cls(seed=3)
        assert set(vars(unfitted)) == set(inspect.signature(cls).parameters)
        fitted = cls(seed=3).fit(*three_blobs())
        assert set(vars(fitted)) - set(vars(unfitted)) == {"classes_", "n_features_", *cls.fitted}

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
