import io as _io
import json

import numpy as np
import pytest

from radarml.estimators import ESTIMATOR_CLASSES, LogisticRegression
from radarml.estimators.grids import KINDS
from radarml.estimators.io import ModelFormatError, load_model, save_model
from radarml.estimators.tree import TreeNodes


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(1)
    centers = ((-4.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 6.0, 0.0))
    X = np.concatenate([rng.normal(c, 0.6, size=(12, 3)) for c in centers])
    y = np.repeat(np.arange(3), 12)
    return X, y


def saved(kind, training_data, tmp_path, **params):
    model = ESTIMATOR_CLASSES[kind](**params).fit(*training_data)
    path = str(tmp_path / f"{kind}.npz")
    save_model(model, path)
    return model, path


def rewritten(path, edit):
    """A copy of the model file at ``path`` with ``edit(arrays, meta)`` applied."""
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    meta = json.loads(bytes(arrays.pop("meta")))
    edit(arrays, meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    out = path + ".edited.npz"
    buf = _io.BytesIO()
    np.savez(buf, **arrays)
    with open(out, "wb") as fh:
        fh.write(buf.getvalue())
    return out


def assert_same_state(a, b):
    if isinstance(a, TreeNodes):
        for field in ("feature", "threshold", "left", "right", "value"):
            np.testing.assert_array_equal(getattr(b, field), getattr(a, field))
    elif isinstance(a, list):
        assert isinstance(b, list) and len(b) == len(a)
        for x, y in zip(a, b):
            assert_same_state(x, y)
    elif isinstance(a, np.ndarray):
        assert b.dtype == a.dtype
        np.testing.assert_array_equal(b, a)
    else:
        assert type(b) is type(a) and b == a


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_predictions_bitwise(kind, training_data, tmp_path):
    X, y = training_data
    model, path = saved(kind, training_data, tmp_path, seed=7)
    back = load_model(path)
    assert back.kind == kind
    np.testing.assert_array_equal(back.classes_, model.classes_)
    assert back.n_features_ == model.n_features_
    np.testing.assert_array_equal(back.predict(X), model.predict(X))


@pytest.mark.parametrize("kind", KINDS)
def test_round_trip_keeps_every_declared_attribute(kind, training_data, tmp_path):
    model, path = saved(kind, training_data, tmp_path, seed=7)
    back = load_model(path)
    for name in ("classes_", "n_features_", *model.fitted):
        assert_same_state(getattr(model, name), getattr(back, name))


@pytest.mark.parametrize(
    "kind, params", [("logistic_regression", {"max_iter": 3}), ("perceptron", {"max_epochs": 1})]
)
def test_round_trip_keeps_how_the_fit_ended(kind, params, training_data, tmp_path):
    model, path = saved(kind, training_data, tmp_path, **params)
    assert model.converged_ is False
    back = load_model(path)
    assert (back.n_iter_, back.converged_) == (model.n_iter_, model.converged_)
    assert type(back.n_iter_) is int and type(back.converged_) is bool


def test_round_trip_preserves_params(training_data, tmp_path):
    X, y = training_data
    model = LogisticRegression(C=10.0, solver="newton-cg", seed=3).fit(X, y)
    path = str(tmp_path / "m.npz")
    save_model(model, path)
    back = load_model(path)
    assert back.C == 10.0
    assert back.solver == "newton-cg"
    assert back.seed == 3


def test_unfitted_model_rejected(tmp_path):
    from radarml.estimators.tree import DecisionTree

    with pytest.raises(ValueError):
        save_model(DecisionTree(), str(tmp_path / "m.npz"))


def test_not_an_archive_rejected(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"not a zip archive at all")
    with pytest.raises(ModelFormatError, match="junk.npz"):
        load_model(str(path))


@pytest.mark.parametrize("content", ["empty", "npy", "truncated"])
def test_other_non_archives_rejected(content, tmp_path):
    path = tmp_path / f"{content}.npz"
    buf = _io.BytesIO()
    if content == "npy":
        np.save(buf, np.arange(3))
    elif content == "truncated":
        np.savez(buf, a=np.arange(100))
    path.write_bytes(buf.getvalue()[:60])
    with pytest.raises(ModelFormatError, match=f"{content}.npz"):
        load_model(str(path))


def test_foreign_archive_rejected(tmp_path):
    path = str(tmp_path / "other.npz")
    np.savez(path, a=np.arange(3))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_bad_metadata_rejected(tmp_path):
    path = str(tmp_path / "bad.npz")
    np.savez(path, meta=np.frombuffer(b"{broken json", dtype=np.uint8))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_wrong_version_rejected(training_data, tmp_path):
    _, good = saved("knn", training_data, tmp_path)
    bad = rewritten(good, lambda arrays, meta: meta.update(version=99))
    with pytest.raises(ModelFormatError, match="unsupported version 99"):
        load_model(bad)


def test_version_1_file_rejected(training_data, tmp_path):
    # the first layout kept n_features in the metadata and named arrays per kind
    model = LogisticRegression().fit(*training_data)
    meta = {"format": "radarml-model", "version": 1, "kind": model.kind, "n_features": 3,
            "params": {"C": 1.0, "solver": "lbfgs", "tol": 1e-5, "max_iter": 500, "seed": 0}}
    path = str(tmp_path / "v1.npz")
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             classes=model.classes_, coef=model.coef_, intercept=model.intercept_)
    with pytest.raises(ModelFormatError, match="unsupported version 1"):
        load_model(path)


@pytest.mark.parametrize("kind", KINDS)
def test_missing_array_rejected(kind, training_data, tmp_path):
    _, good = saved(kind, training_data, tmp_path)
    with np.load(good) as archive:
        names = [name for name in archive.files if name != "meta"]
    for name in names:
        bad = rewritten(good, lambda arrays, meta: arrays.pop(name))
        with pytest.raises(ModelFormatError, match=f"{kind}.npz.*missing array"):
            load_model(bad)


def test_metadata_without_params_rejected(training_data, tmp_path):
    _, good = saved("decision_tree", training_data, tmp_path)
    bad = rewritten(good, lambda arrays, meta: meta.pop("params"))
    with pytest.raises(ModelFormatError, match="no params"):
        load_model(bad)


@pytest.mark.parametrize("params", [{"n_neighbours": 1}, {"n_neighbors": 0}])
def test_bad_param_rejected(params, training_data, tmp_path):
    _, good = saved("knn", training_data, tmp_path)
    bad = rewritten(good, lambda arrays, meta: meta.update(params=params))
    with pytest.raises(ModelFormatError, match="knn.npz.*bad params"):
        load_model(bad)


def test_gradient_boosting_stage_nesting_survives(training_data, tmp_path):
    X, _ = training_data
    model, path = saved("gradient_boosting", training_data, tmp_path, n_estimators=16, learning_rate=0.5)
    back = load_model(path)
    assert len(back.stages_) == 16
    assert all(len(stage) == 3 for stage in back.stages_)
    np.testing.assert_array_equal(back.train_deviance_, model.train_deviance_)
    np.testing.assert_allclose(back.decision_function(X), model.decision_function(X))
