"""Bit-exact checks of the regression-tree kernels against frozen copies.

``frozen_presort``, ``frozen_best_split_regression`` and
``frozen_grow_regression`` are the kernels as they were before the
sample-major rewrite (a per-feature ``np.cumsum``, sorted ``values``
carried down the tree next to ``order``, a tie mask on every feature),
kept here verbatim apart from their names. The rewritten kernels must
grow the same node arrays and leaf indices byte for byte, and gradient
boosting must fit the same stages. A node's order, looked up by row set
(``Presorted.orders_of``), must equal a stable sort of its rows. A node
above the size check scores only the cut positions whose gain bound
reaches the floor: it must still find the frozen kernel's split, and no
gain the full search computes may exceed its position's bound.
"""

import contextlib
import io

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from radarml import cli, dataset, modelsel
from radarml.config import DEFAULT_CONFIG
from radarml.estimators import ensemble, tree
from radarml.estimators.ensemble import GradientBoosting
from radarml.estimators.tree import (
    _REG_GAIN_ATOL,
    _midpoint,
    _TreeBuilder,
    best_split_regression,
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
            assert nodes.feature.size > 1

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
        params = {"n_estimators": 6, "learning_rate": 0.5}
        got = GradientBoosting(**params).fit(X[train_idx], y[train_idx])
        want = frozen_gb_fit(monkeypatch, GradientBoosting(**params), X[train_idx], y[train_idx])
        assert got.init_scores_.tobytes() == want.init_scores_.tobytes()
        assert got.train_deviance_.tobytes() == want.train_deviance_.tobytes()
        assert len(got.stages_) == len(want.stages_) == 6
        for stage, want_stage in zip(got.stages_, want.stages_):
            for nodes, want_nodes in zip(stage, want_stage):
                for field in ("feature", "threshold", "left", "right", "value"):
                    assert getattr(nodes, field).tobytes() == getattr(want_nodes, field).tobytes()


def stable_order(X, rows):
    """Each column of ``X[rows]``'s rows by ascending value, ties by row."""
    return rows[np.argsort(X[rows], axis=0, kind="stable")]


def matrices():
    rng = np.random.default_rng(600)
    base = rng.normal(size=(15, 9))
    return {
        "continuous": rng.normal(size=(48, 9)),
        "rounded": tie_some(rng.normal(size=(48, 9)), rng),
        "duplicated_rows": base[rng.integers(0, 15, size=48)],
    }


class TestOrderOf:
    @pytest.mark.parametrize("kind", ["continuous", "rounded", "duplicated_rows"])
    def test_matches_a_stable_sort_of_the_rows(self, kind):
        X = matrices()[kind]
        sorted_x = presort(X)
        rng = np.random.default_rng(601)
        for m in (1, 2, 3, 10, 31, 48):
            for _ in range(3):
                rows = np.sort(rng.choice(X.shape[0], size=m, replace=False))
                (got,) = sorted_x.orders_of([rows])
                assert got.shape == (m, X.shape[1]) and got.dtype == np.uint8
                np.testing.assert_array_equal(got, stable_order(X, rows))
                # a second lookup of the same rows reads the kept order,
                # which no caller can write to
                assert sorted_x.orders_of([rows.copy()])[0] is got
                assert not got.flags.writeable

    @pytest.mark.parametrize("kind", ["continuous", "rounded", "duplicated_rows"])
    def test_parts_are_filtered_from_the_order_within(self, kind):
        # a node's children from the node's own order, one or both at once
        X = matrices()[kind]
        rng = np.random.default_rng(604)
        for m_parent in (2, 9, 30, 48):
            parent_rows = np.sort(rng.choice(X.shape[0], size=m_parent, replace=False))
            (parent,) = presort(X).orders_of([parent_rows])
            for m in sorted({1, m_parent // 2, m_parent - 1}):
                side = np.isin(parent_rows, rng.choice(parent_rows, size=m, replace=False))
                parts = [parent_rows[side], parent_rows[~side]]
                for chosen in (parts, parts[:1], parts[::-1]):
                    got = presort(X).orders_of(chosen, parent)
                    assert len(got) == len(chosen)
                    for rows, order in zip(chosen, got):
                        assert order.shape == (rows.size, X.shape[1]) and order.flags.c_contiguous
                        np.testing.assert_array_equal(order, stable_order(X, rows))

    def test_a_kept_part_is_read_and_the_other_filtered(self):
        X = matrices()["rounded"]
        sorted_x = presort(X)
        left, right = np.arange(0, 48, 2), np.arange(1, 48, 2)
        (kept,) = sorted_x.orders_of([left])
        got = sorted_x.orders_of([left, right], sorted_x.root)
        assert got[0] is kept
        np.testing.assert_array_equal(got[1], stable_order(X, right))
        np.testing.assert_array_equal(sorted_x.root, stable_order(X, np.arange(48)))

    def test_dtype_names_every_row(self):
        rng = np.random.default_rng(602)
        for n, dtype in ((256, np.uint8), (257, np.uint16)):
            X = np.round(rng.normal(size=(n, 3)), 1)
            rows = np.sort(rng.choice(n, size=n // 2, replace=False))
            (got,) = presort(X).orders_of([rows])
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, stable_order(X, rows))

    def test_memo_stays_within_the_budget(self, monkeypatch):
        X = matrices()["rounded"]
        # room for the orders of 100 rows in all: lookups past it are
        # computed, correct and not kept
        monkeypatch.setattr(tree, "_ORDER_BUDGET", 100 * X.shape[1])
        sorted_x = presort(X)
        rng = np.random.default_rng(603)
        for _ in range(40):
            rows = np.sort(rng.choice(X.shape[0], size=rng.integers(1, 30), replace=False))
            np.testing.assert_array_equal(sorted_x.orders_of([rows])[0], stable_order(X, rows))
            kept = sum(order.nbytes for order in sorted_x.memo.values())
            assert kept == sorted_x.memo_bytes <= tree._ORDER_BUDGET
        assert sorted_x.memo and sorted_x.memo_bytes > tree._ORDER_BUDGET - 30 * X.shape[1]


@pytest.fixture(scope="module")
def grid10_fold(tmp_path_factory):
    """The first 160-row CV fold of a 10-class motion-filtered train set."""
    out = tmp_path_factory.mktemp("grid10")
    config = out / "config.yaml"
    raw = {
        "seed": 5,
        "n_per_class": 200,
        "scenarios": {"outdoor": DEFAULT_CONFIG["scenarios"]["outdoor"]},
        "schemes": ["grid10"],
    }
    config.write_text(yaml.safe_dump(raw))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate", "--config", str(config), "--out", str(out), "--data-type", "motion_filtered"])
    assert code == cli.EXIT_OK
    train_path, _ = cli._dataset_paths(str(out), "outdoor-grid10-motion_filtered")
    train = dataset.load_dataset(train_path)
    train_idx, _ = modelsel.stratified_kfold(train.labels, 5, seed=1)[0]
    return train.scans[train_idx], train.labels[train_idx]


def assert_same_stages(got, want, n_stages):
    assert got.init_scores_.tobytes() == want.init_scores_.tobytes()
    assert got.train_deviance_.tobytes() == want.train_deviance_.tobytes()
    assert len(got.stages_) == len(want.stages_) == n_stages
    for stage, want_stage in zip(got.stages_, want.stages_):
        for nodes, want_nodes in zip(stage, want_stage):
            for field in ("feature", "threshold", "left", "right", "value"):
                assert getattr(nodes, field).tobytes() == getattr(want_nodes, field).tobytes()


class TestEveryLookupMisses:
    """With no budget nothing is kept, so every node's order is computed
    afresh; the fit must still be the frozen kernels' fit, also where
    later trees reach the row sets of earlier ones."""

    def fit_without_memo(self, monkeypatch, X, y, n_stages):
        presorted, lookups = [], []
        orders_of = tree.Presorted.orders_of

        def counted(sorted_x, parts, within=None):
            # every miss is filtered from the order of the split node,
            # whose first column lists its rows
            held = within[:, 0]
            for rows in parts:
                assert np.isin(rows, held).all()
                lookups.append(rows.tobytes())
            return orders_of(sorted_x, parts, within)

        with monkeypatch.context() as patch:
            patch.setattr(tree, "_ORDER_BUDGET", 0)
            patch.setattr(tree.Presorted, "orders_of", counted)
            patch.setattr(ensemble, "presort", lambda X: presorted.append(presort(X)) or presorted[-1])
            got = GradientBoosting(n_estimators=n_stages, learning_rate=0.5).fit(X, y)
        (sorted_x,) = presorted
        assert sorted_x.memo == {} and sorted_x.memo_bytes == 0
        assert len(set(lookups)) < len(lookups) / 2  # most row sets recur
        want = frozen_gb_fit(monkeypatch, GradientBoosting(n_estimators=n_stages, learning_rate=0.5), X, y)
        assert_same_stages(got, want, n_stages)

    def test_ten_class_fold(self, grid10_fold, monkeypatch):
        X, y = grid10_fold
        assert X.shape == (160, 480) and np.unique(y).size == 10
        self.fit_without_memo(monkeypatch, X, y, 12)

    def test_some_features_tie(self, monkeypatch):
        rng = np.random.default_rng(604)
        X = tie_some(rng.normal(size=(60, 40)), rng)
        y = np.repeat(np.arange(3), 20)
        assert presort(X).tied.size
        self.fit_without_memo(monkeypatch, X, y, 24)

    def test_memo_holds_a_ten_class_fit(self, grid10_fold, monkeypatch):
        # the same fit with the memo on: same stages, orders kept
        X, y = grid10_fold
        presorted = []
        with monkeypatch.context() as patch:
            patch.setattr(ensemble, "presort", lambda X: presorted.append(presort(X)) or presorted[-1])
            got = GradientBoosting(n_estimators=12, learning_rate=0.5).fit(X, y)
        assert 0 < presorted[0].memo_bytes <= tree._ORDER_BUDGET
        want = frozen_gb_fit(monkeypatch, GradientBoosting(n_estimators=12, learning_rate=0.5), X, y)
        assert_same_stages(got, want, 12)


def split_of(X, rows, targets):
    """``best_split_regression`` of a node and the frozen kernel's split,
    with the left-child size the frozen kernel implies."""
    sorted_x = presort(X)
    got = best_split_regression(sorted_x, sorted_x.orders_of([rows])[0], targets)
    order = stable_order(X, rows).T
    values = np.take_along_axis(X.T, order, axis=1)
    want = frozen_best_split_regression(order, values, targets)
    if want is not None:
        fi, thr, _ = want
        want = (*want, int(np.searchsorted(values[fi], thr, side="right")))
    return got, want


def assert_same_split(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        assert got[0] == want[0] and got[3] == want[3]
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
        assert np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes()


class TestSplitSelectionMatchesFrozenKernel:
    """The split search subtracts the parent term from one column only, not
    from every gain; the winner and its gain must not move."""

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_features_pick_the_lower(self, seed):
        rng = np.random.default_rng(700 + seed)
        col = rng.normal(size=30)
        X = np.column_stack([rng.normal(size=30), col, col, rng.normal(size=30), col])
        g = (col > 0.3) + rng.normal(scale=0.05, size=30)
        rows = np.arange(30)
        got, want = split_of(X, rows, g)
        assert_same_split(got, want)
        assert got[0] == 1

    @pytest.mark.parametrize("offset", [0.0, 3.0, -7.5])
    def test_symmetric_targets_pick_the_first_position(self, offset):
        # the first and last cuts score the same; the first must win
        X = np.arange(6.0).reshape(-1, 1)
        g = offset + np.array([2.0, -1.0, -1.0, -1.0, -1.0, 2.0])
        got, want = split_of(X, np.arange(6), g)
        assert_same_split(got, want)
        assert got[3] == 1

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("offset", [1e8, -1e8, 1e12])
    def test_large_common_offset(self, seed, offset):
        # the parent term dwarfs the score differences between cuts
        rng = np.random.default_rng(800 + seed)
        X = tie_some(rng.normal(size=(40, 12)), rng)
        g = offset + rng.normal(size=40)
        for rows in (np.arange(40), np.sort(rng.choice(40, size=17, replace=False))):
            assert_same_split(*split_of(X, rows, g))


@pytest.fixture
def bounds_taken(monkeypatch):
    """(row count, scale) of each node whose search took the gain bound."""
    taken = []
    gain_bounds = tree._gain_bounds

    def counted(csum, tot, scale):
        taken.append((csum.shape[0] + 1, scale))
        return gain_bounds(csum, tot, scale)

    monkeypatch.setattr(tree, "_gain_bounds", counted)
    return taken


def cut_gains(X, rows, targets):
    """Every cut's gain as the full search computes it, (m - 1, d), -inf at
    a tied pair, and the node's gain bounds and floor."""
    order = stable_order(X, rows)
    m = rows.size
    sums = np.cumsum(targets[order], axis=0)  # sequential, as the row adds
    csum, tot = sums[:-1], sums[-1]
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    right = tot - csum
    right *= right
    right /= m - nl
    gains = csum * csum
    gains /= nl
    gains += right
    gains -= tot**2 / m
    values = np.take_along_axis(X, order, axis=0)
    gains[values[1:] == values[:-1]] = -np.inf
    bound = tree._gain_bounds(csum, tot, 2.0 * m * np.abs(targets[rows]).max())
    return gains, bound, gains[bound.argmax()].max()


def assert_sound(X, rows, targets):
    """No computed gain exceeds its position's bound, and every position the
    bound drops holds only gains below the floor."""
    gains, bound, floor = cut_gains(X, rows, targets)
    assert (gains <= bound[:, None]).all()
    assert (gains[bound < floor] < floor).all()
    return (bound >= floor).mean()


class TestBoundedSearchMatchesFrozenKernel:
    """Nodes above the size check score only the cut positions whose gain
    bound reaches the floor; the split must be that of the full search."""

    def split(self, X, rows, targets, taken, bounded=True):
        before = len(taken)
        assert_same_split(*split_of(X, rows, targets))
        assert len(taken) == before + bounded
        if bounded:
            # the scale comes from this node's own targets, every one of them
            assert taken[-1] == (rows.size, 2.0 * rows.size * np.abs(targets[rows]).max())
            assert_sound(X, rows, targets)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_total_with_unit_prefix_sums(self, seed, bounds_taken):
        # a boosting root: residuals of one class sum to about 0
        rng = np.random.default_rng(900 + seed)
        m = 64
        X = rng.normal(size=(m, 40))
        g = (rng.integers(0, 4, size=m) == 0) - 0.25
        g -= g.mean()
        assert abs(g.sum()) < 1e-12
        self.split(X, np.arange(m), g, bounds_taken)
        self.split(X, np.arange(m), np.where(np.arange(m) % 2, 1.0, -1.0), bounds_taken)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("offset", [1e8, -1e8, 1e12])
    def test_large_common_offset(self, seed, offset, bounds_taken):
        rng = np.random.default_rng(910 + seed)
        X = tie_some(rng.normal(size=(60, 12)), rng)
        g = offset + rng.normal(size=60)
        for rows in (np.arange(60), np.sort(rng.choice(60, size=31, replace=False))):
            self.split(X, rows, g, bounds_taken)

    @pytest.mark.parametrize("magnitude", [1e-150, 1e150])
    def test_extreme_magnitudes(self, magnitude, bounds_taken):
        rng = np.random.default_rng(920)
        X = rng.normal(size=(30, 10))
        self.split(X, np.arange(30), magnitude * rng.normal(size=30), bounds_taken)

    @pytest.mark.parametrize("magnitude", [2.0**-510, 2.0**507])
    def test_magnitudes_past_the_bound_range(self, magnitude, bounds_taken):
        # 2 m max|target| leaves ``_BOUND_SCALES``, so every position is
        # scored; alternating signs keep the prefix sums from overflowing
        rng = np.random.default_rng(925)
        X = rng.normal(size=(30, 10))
        g = magnitude * (np.where(np.arange(30) % 2, 1.0, -1.0) + rng.uniform(-0.2, 0.2, size=30))
        scale = 2.0 * 30 * np.abs(g).max()
        assert not tree._BOUND_SCALES[0] < scale < tree._BOUND_SCALES[1]
        self.split(X, np.arange(30), g, bounds_taken, bounded=False)

    @pytest.mark.parametrize("value", [0.0, 1.0, -3.7, 1e8])
    def test_constant_targets(self, value, bounds_taken):
        rng = np.random.default_rng(930)
        X = rng.normal(size=(40, 8))
        if value:
            self.split(X, np.arange(40), np.full(40, value), bounds_taken)
            assert split_of(X, np.arange(40), np.full(40, value))[0] is None
        else:
            # nothing to bound: every position is scored
            self.split(X, np.arange(40), np.zeros(40), bounds_taken, bounded=False)

    def test_tied_pair_at_the_largest_bound(self, bounds_taken):
        # feature 0 orders the rows by target, but its rows 11 and 12 tie,
        # so the cut with the largest bound is masked there
        rng = np.random.default_rng(940)
        m = 30
        first = np.arange(m, dtype=np.float64)
        first[12] = first[11]
        X = np.column_stack([first, rng.normal(size=(m, 5))])
        g = np.where(np.arange(m) < 12, 1.0, -0.5) + rng.normal(scale=0.01, size=m)
        gains, bound, floor = cut_gains(X, np.arange(m), g)
        assert bound.argmax() == 11 and gains[11, 0] == -np.inf
        assert presort(X).tied.tolist() == [0]
        self.split(X, np.arange(m), g, bounds_taken)

    @pytest.mark.parametrize("seed", range(3))
    def test_tied_gains_at_the_largest_bound(self, seed, bounds_taken):
        # copies of one column hold the best cut; the lowest copy wins
        rng = np.random.default_rng(950 + seed)
        col = rng.normal(size=40)
        X = np.column_stack([rng.normal(size=40), col, rng.normal(size=40), col, col])
        g = (col > 0.2) + rng.normal(scale=0.05, size=40)
        self.split(X, np.arange(40), g, bounds_taken)
        assert split_of(X, np.arange(40), g)[0][0] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_either_side_of_the_size_check(self, seed, bounds_taken):
        rng = np.random.default_rng(960 + seed)
        X = tie_some(rng.normal(size=(50, 20)), rng, 0.3)
        g = rng.normal(size=50)
        below = np.sort(rng.choice(50, size=tree._BOUND_MIN_ROWS, replace=False))
        self.split(X, below, g, bounds_taken, bounded=False)
        above = np.sort(rng.choice(50, size=tree._BOUND_MIN_ROWS + 1, replace=False))
        self.split(X, above, g, bounds_taken)

    @settings(max_examples=150)
    @given(
        st.integers(tree._BOUND_MIN_ROWS + 1, 80),
        st.integers(1, 30),
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, -1e8, 1e12]),
        st.floats(-140.0, 140.0),
        st.integers(0, 2**32 - 1),
    )
    def test_random_nodes(self, m, d, tie_share, offset, log_magnitude, seed):
        rng = np.random.default_rng(seed)
        X = tie_some(rng.normal(size=(m + 10, d)), rng, tie_share)
        g = offset + 10.0**log_magnitude * rng.normal(size=m + 10)
        rows = np.sort(rng.choice(m + 10, size=m, replace=False))
        assert_same_split(*split_of(X, rows, g))
        assert_sound(X, rows, g)


def test_bound_is_sound_on_boosting_nodes(simple4_train, monkeypatch):
    # every node a 16-stage fit searches, and the share of positions kept
    # where a split is found (nodes of near-constant targets keep them all)
    X, y = simple4_train.scans, simple4_train.labels
    train_idx, _ = modelsel.stratified_kfold(y, 5, seed=1)[0]
    nodes = []
    search = tree.best_split_regression

    def checked(sorted_x, order, targets):
        found = search(sorted_x, order, targets)
        rows = np.sort(order[:, 0]).astype(np.int64)
        if rows.size > tree._BOUND_MIN_ROWS:
            kept = assert_sound(sorted_x.X, rows, targets)
            if found is not None:
                nodes.append((rows.size - 1, kept))
        return found

    monkeypatch.setattr(tree, "best_split_regression", checked)
    GradientBoosting(n_estimators=16, learning_rate=0.5).fit(X[train_idx], y[train_idx])
    positions, kept = np.array(nodes).T
    assert positions.size > 50
    assert np.average(kept, weights=positions) < 0.1
