import pytest

from radarml.estimators.grids import (
    GRID_AXES,
    KINDS,
    grid_candidates,
    validate_params,
)

EXPECTED_SIZES = {
    "logistic_regression": 21,  # 7 C values x 3 solvers
    "perceptron": 5,
    "knn": 30,
    "linear_svc": 7,
    "decision_tree": 6,  # 2 criteria x 3 feature rules
    "random_forest": 30,  # 5 sizes x 2 criteria x 3 feature rules
    "extra_trees": 30,
    "gradient_boosting": 20,  # 5 sizes x 4 learning rates
}


def test_kind_roster():
    assert KINDS == (
        "logistic_regression",
        "perceptron",
        "knn",
        "linear_svc",
        "decision_tree",
        "random_forest",
        "extra_trees",
        "gradient_boosting",
    )


@pytest.mark.parametrize("kind", KINDS)
def test_grid_sizes(kind):
    assert len(list(grid_candidates(kind))) == EXPECTED_SIZES[kind]


def test_enumeration_order_last_axis_fastest():
    first_four = list(grid_candidates("logistic_regression"))[:4]
    assert first_four == [
        {"C": 0.001, "solver": "lbfgs"},
        {"C": 0.001, "solver": "sag"},
        {"C": 0.001, "solver": "newton-cg"},
        {"C": 0.01, "solver": "lbfgs"},
    ]


def test_candidates_unique():
    for kind in KINDS:
        seen = [tuple(sorted(c.items())) for c in grid_candidates(kind)]
        assert len(seen) == len(set(seen))


def test_specific_axis_values():
    axes = dict(GRID_AXES["knn"])
    assert axes["n_neighbors"] == tuple(range(1, 31))
    axes = dict(GRID_AXES["gradient_boosting"])
    assert axes["learning_rate"] == (0.2, 0.5, 0.8, 1.0)
    assert axes["n_estimators"] == (16, 32, 64, 128, 256)
    axes = dict(GRID_AXES["perceptron"])
    assert axes["alpha"] == (0.0001, 0.001, 0.01, 0.1, 1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        list(grid_candidates("naive_bayes"))


class TestValidateParams:
    def test_normalizes_to_canonical_value(self):
        clean = validate_params("logistic_regression", {"C": 1})
        assert clean == {"C": 1.0}
        assert isinstance(clean["C"], float)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            validate_params("knn", {"weights": "distance"})

    def test_off_grid_value_rejected(self):
        with pytest.raises(ValueError):
            validate_params("knn", {"n_neighbors": 31})
        with pytest.raises(ValueError):
            validate_params("gradient_boosting", {"learning_rate": 0.3})

    def test_bool_is_not_an_int_value(self):
        with pytest.raises(ValueError):
            validate_params("knn", {"n_neighbors": True})

    def test_empty_params_pass(self):
        assert validate_params("perceptron", {}) == {}
