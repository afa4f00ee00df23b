"""Bit-exact checks of the regression-tree kernels against frozen copies.

``frozen_presort``, ``frozen_best_split_regression`` and
``frozen_grow_regression`` are the kernels as they were before the
sample-major rewrite (a per-feature ``np.cumsum``, sorted ``values``
carried down the tree next to ``order``, a tie mask on every feature),
kept here verbatim apart from their names. The rewritten kernels must
grow the same node arrays and leaf indices byte for byte, and gradient
boosting must fit the same stages.
"""

import contextlib
import io

import numpy as np
import pytest
import yaml

from radarml import cli, dataset, modelsel
from radarml.config import DEFAULT_CONFIG
from radarml.estimators import ensemble
from radarml.estimators.ensemble import GradientBoosting
from radarml.estimators.tree import (
    _REG_GAIN_ATOL,
    _midpoint,
    _TreeBuilder,
    grow_regression,
    presort,
)


def frozen_presort(X):
    """Feature-major stable sort of ``X`` for ``grow_regression``.

    Returns (order, values), both (d, n): ``order[f]`` lists the rows by
    ascending ``X[:, f]``, ties by row index, and ``values[f]`` holds
    ``X[order[f], f]``.
    """
    XT = X.T
    order = np.argsort(XT, axis=1, kind="stable")
    return order, np.take_along_axis(XT, order, axis=1)


def frozen_best_split_regression(order, values, targets):
    """Exhaustive SSE-minimizing split of one node; None when nothing improves.

    ``order`` and ``values`` are the node's rows of ``frozen_presort`` output,
    one row per feature; ``targets`` is indexed by ``order``. Returns
    (feature, threshold, gain).
    """
    m = order.shape[1]
    if m < 2:
        return None
    # Sequential prefix sums; the total is their last element, which is
    # the row-by-row sum of the original (n, d) layout to the last bit.
    csum = np.cumsum(targets[order], axis=1)
    tot = csum[:, -1:]
    csum = csum[:, :-1]
    nl = np.arange(1, m, dtype=np.float64)
    # score = csum**2 / nl + (tot - csum)**2 / nr, to maximize; computed
    # in place, which rounds the same as the expression
    right = tot - csum
    right *= right
    right /= m - nl
    gain = csum * csum
    gain /= nl
    gain += right
    parent = tot**2 / m
    gain -= parent
    # sorted values, so a pair that does not increase is a tie
    np.copyto(gain, -np.inf, where=values[:, 1:] == values[:, :-1])
    flat = gain.reshape(-1)  # feature-major so argmax ties pick the lowest feature
    j = int(np.argmax(flat))
    best = float(flat[j])
    if not np.isfinite(best) or best <= _REG_GAIN_ATOL * max(1.0, float(np.abs(parent).max())):
        return None
    fi, pos = divmod(j, m - 1)
    return fi, _midpoint(values[fi, pos], values[fi, pos + 1]), best


def frozen_grow_regression(order, values, targets, max_depth):
    """Mean-leaf regression tree, exhaustive splits over all features.

    ``order`` and ``values`` come from ``frozen_presort`` of the training matrix
    and are carried down by stable partition, so each node's rows stay in
    the stable sorted order a per-node sort would give. Returns the tree
    and each training row's leaf index.
    """
    n = targets.size
    leaf = np.empty(n, dtype=np.int64)
    builder = _TreeBuilder()
    root = builder.add()
    stack = [(np.arange(n), order, values, 0, root)]
    while stack:
        idx, order, values, depth, node = stack.pop()
        builder.value[node] = float(targets[idx].mean())
        leaf[idx] = node  # a split overwrites this with the children's
        if idx.size < 2 or depth >= max_depth:
            continue
        found = frozen_best_split_regression(order, values, targets)
        if found is None:
            continue
        feat, thr, _ = found
        n_left = int(np.searchsorted(values[feat], thr, side="right"))
        go_left = np.zeros(n, dtype=bool)
        go_left[order[feat, :n_left]] = True
        left_node = builder.add()
        right_node = builder.add()
        builder.feature[node] = feat
        builder.threshold[node] = thr
        builder.left[node] = left_node
        builder.right[node] = right_node
        # children at max_depth are never split, so they skip the partition
        order_left = go_left[order] if depth + 1 < max_depth else None
        for side, child in ((False, right_node), (True, left_node)):
            rows = idx[go_left[idx] == side]
            if order_left is None:
                stack.append((rows, None, None, depth + 1, child))
                continue
            # flat positions, row by row, so each feature keeps its order
            keep = np.flatnonzero(order_left == side)
            shape = (order.shape[0], rows.size)
            stack.append(
                (rows, order.take(keep).reshape(shape), values.take(keep).reshape(shape), depth + 1, child)
            )
    return builder.freeze(), leaf


def frozen_gb_fit(monkeypatch, model, X, y):
    """``model.fit`` with the frozen kernels in place of the current ones."""
    with monkeypatch.context() as patch:
        patch.setattr(ensemble, "presort", frozen_presort)
        patch.setattr(
            ensemble,
            "grow_regression",
            lambda sorted_x, targets, max_depth: frozen_grow_regression(*sorted_x, targets, max_depth),
        )
        return model.fit(X, y)


def assert_same_growth(X, g, max_depth):
    nodes, leaf = grow_regression(presort(X), g, max_depth)
    want, want_leaf = frozen_grow_regression(*frozen_presort(X), g, max_depth)
    for field in ("feature", "threshold", "left", "right", "value"):
        got, ref = getattr(nodes, field), getattr(want, field)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), field
    assert leaf.dtype == want_leaf.dtype and leaf.tobytes() == want_leaf.tobytes()
    return nodes


def tie_some(X, rng, share=0.5):
    """Round a random share of the columns so that only they tie."""
    X = X.copy()
    cols = rng.random(X.shape[1]) < share
    X[:, cols] = np.round(X[:, cols])
    return X


SIZES = [2, 3, 5, 9, 17, 33, 64, 80]


class TestGrowthMatchesFrozenKernels:
    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("m", SIZES)
    def test_continuous_no_ties(self, m, max_depth):
        rng = np.random.default_rng(m)
        X = rng.normal(size=(m, 12))
        nodes = assert_same_growth(X, rng.normal(size=m), max_depth)
        assert presort(X).tied.size == 0
        if m > 2 and max_depth:
            assert nodes.n_nodes > 1

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("m", SIZES)
    def test_some_features_tie(self, m, max_depth):
        rng = np.random.default_rng(100 + m)
        X = tie_some(rng.normal(size=(m, 15)), rng)
        assert_same_growth(X, rng.normal(size=m), max_depth)

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("m", SIZES)
    def test_all_discrete(self, m, max_depth):
        rng = np.random.default_rng(200 + m)
        X = rng.integers(0, 3, size=(m, 8)).astype(np.float64)
        assert_same_growth(X, rng.normal(size=m), max_depth)

    @pytest.mark.parametrize("seed", range(6))
    def test_ties_in_some_features_decide_the_split(self, seed):
        # one continuous column and copies of a coarse step column that
        # tracks the targets: the tied columns hold the best splits, and
        # the copies tie with each other exactly
        rng = np.random.default_rng(300 + seed)
        step = rng.integers(0, 4, size=40).astype(np.float64)
        X = np.column_stack([rng.normal(size=40), step, step, rng.normal(size=40), step])
        g = step + rng.normal(scale=0.1, size=40)
        nodes = assert_same_growth(X, g, 3)
        assert presort(X).tied.tolist() == [1, 2, 4]
        assert nodes.feature[0] == 1

    @pytest.mark.parametrize("max_depth", [1, 3])
    def test_constant_features(self, max_depth):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.full(30, 2.0), rng.normal(size=30), np.zeros(30), rng.normal(size=30)])
        assert_same_growth(X, rng.normal(size=30), max_depth)
        assert_same_growth(np.full((10, 3), 1.5), rng.normal(size=10), max_depth)

    @pytest.mark.parametrize("max_depth", [1, 2, 4])
    def test_duplicated_rows(self, max_depth):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(12, 6))
        X = base[rng.integers(0, 12, size=36)]
        assert_same_growth(X, rng.normal(size=36), max_depth)

    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("m", SIZES)
    def test_single_feature(self, m, max_depth):
        rng = np.random.default_rng(400 + m)
        assert_same_growth(rng.normal(size=(m, 1)), rng.normal(size=m), max_depth)
        assert_same_growth(rng.integers(0, 2, size=(m, 1)).astype(np.float64), rng.normal(size=m), max_depth)

    @pytest.mark.parametrize("max_depth", [1, 2, 3])
    def test_adjacent_float_pairs(self, max_depth):
        # columns whose values sit one ulp apart, where the midpoint
        # rounds to one of the pair
        rng = np.random.default_rng(9)
        a = np.array([1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 3.0, 3.0, np.nextafter(3.0, 4.0)])
        X = np.column_stack([a[rng.integers(0, a.size, size=24)] for _ in range(4)])
        assert_same_growth(X, rng.normal(size=24), max_depth)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_targets_at_benchmark_size(self, seed):
        # 64 rows of 480 continuous features, one-hot minus softmax targets
        rng = np.random.default_rng(500 + seed)
        X = rng.normal(size=(64, 480))
        g = (rng.integers(0, 4, size=64) == 0) - rng.uniform(0.1, 0.4, size=64)
        assert_same_growth(X, g, 3)


@pytest.fixture(scope="module")
def simple4_train(tmp_path_factory):
    out = tmp_path_factory.mktemp("simple4")
    config = out / "config.yaml"
    raw = {
        "seed": 3,
        "n_per_class": 100,
        "scenarios": {"outdoor": DEFAULT_CONFIG["scenarios"]["outdoor"]},
        "schemes": ["simple4"],
    }
    config.write_text(yaml.safe_dump(raw))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate", "--config", str(config), "--out", str(out), "--data-type", "motion_filtered"])
    assert code == cli.EXIT_OK
    train_path, _ = cli._dataset_paths(str(out), "outdoor-simple4-motion_filtered")
    return dataset.load_dataset(train_path)


def test_gradient_boosting_folds_match_frozen_kernels(simple4_train, monkeypatch):
    X, y = simple4_train.scans, simple4_train.labels
    for train_idx, _ in modelsel.stratified_kfold(y, 5, seed=1):
        params = {"n_estimators": 6, "learning_rate": 0.5, "max_depth": 3}
        got = GradientBoosting(**params).fit(X[train_idx], y[train_idx])
        want = frozen_gb_fit(monkeypatch, GradientBoosting(**params), X[train_idx], y[train_idx])
        assert got.init_scores_.tobytes() == want.init_scores_.tobytes()
        assert got.train_deviance_.tobytes() == want.train_deviance_.tobytes()
        assert len(got.stages_) == len(want.stages_) == 6
        for stage, want_stage in zip(got.stages_, want.stages_):
            for nodes, want_nodes in zip(stage, want_stage):
                for field in ("feature", "threshold", "left", "right", "value"):
                    assert getattr(nodes, field).tobytes() == getattr(want_nodes, field).tobytes()
