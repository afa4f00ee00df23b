import warnings

import numpy as np
import pytest

from radarml.estimators.tree import (
    DecisionTree,
    best_split_random,
    best_split_regression,
    grow_extra_trees,
    grow_regression,
    impurity,
    presort,
    resolve_max_features,
    tree_apply,
)

# ---------------------------------------------------------------------------
# brute-force partner: recursive split enumeration with plain Python loops.
# It shares only the scoring formulas with the library; candidate
# enumeration, counting and tie handling are written from scratch.


def _scalar_parent_impurity(counts, criterion):
    p = counts / counts.sum()
    if criterion == "gini":
        return float(1.0 - np.sum(p**2))
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def _scalar_child_score(cl, cr, nl, nr, criterion):
    if criterion == "gini":
        il = 1.0 - np.sum(cl**2) / nl**2
        ir = 1.0 - np.sum(cr**2) / nr**2
    else:

        def ent(c, n):
            p = c / n
            logp = np.zeros_like(p)
            np.log2(p, out=logp, where=p > 0)
            return -np.sum(p * logp)

        il = ent(cl, nl)
        ir = ent(cr, nr)
    return (nl * il + nr * ir) / (nl + nr)


def oracle_grow(X, y, n_classes, criterion):
    counts = np.bincount(y, minlength=n_classes)
    value = float(np.argmax(counts))
    if y.size < 2 or np.count_nonzero(counts) == 1:
        return ("leaf", value)
    best = None
    for f in range(X.shape[1]):
        vals = np.sort(X[:, f], kind="stable")
        for a, b in zip(vals[:-1], vals[1:]):
            if not a < b:
                continue
            thr = float((a + b) / 2.0)
            mask = X[:, f] <= thr
            cl = np.bincount(y[mask], minlength=n_classes).astype(np.float64)
            cr = counts.astype(np.float64) - cl
            nl = float(mask.sum())
            nr = float(y.size) - nl
            score = _scalar_child_score(cl, cr, nl, nr, criterion)
            if best is None or score < best[0]:
                best = (score, f, thr)
    if best is None or _scalar_parent_impurity(counts, criterion) - best[0] <= 0.0:
        return ("leaf", value)
    _, f, thr = best
    mask = X[:, f] <= thr
    return (
        f,
        thr,
        oracle_grow(X[mask], y[mask], n_classes, criterion),
        oracle_grow(X[~mask], y[~mask], n_classes, criterion),
    )


def as_nested(nodes, i=0):
    if nodes.feature[i] < 0:
        return ("leaf", float(nodes.value[i]))
    return (
        int(nodes.feature[i]),
        float(nodes.threshold[i]),
        as_nested(nodes, nodes.left[i]),
        as_nested(nodes, nodes.right[i]),
    )


class TestImpurity:
    def test_two_class_even_split_oracles(self):
        assert impurity([5, 5], "gini") == 0.5
        assert impurity([5, 5], "entropy") == 1.0

    def test_pure_node_is_zero(self):
        assert impurity([7, 0], "gini") == 0.0
        assert impurity([0, 7, 0], "entropy") == 0.0

    def test_uniform_four_class(self):
        assert impurity([3, 3, 3, 3], "gini") == pytest.approx(0.75)
        assert impurity([3, 3, 3, 3], "entropy") == pytest.approx(2.0)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            impurity([], "gini")
        with pytest.raises(ValueError):
            impurity([1, -1], "gini")
        with pytest.raises(ValueError):
            impurity([0, 0], "gini")
        with pytest.raises(ValueError):
            impurity([1, 1], "variance")


class TestResolveMaxFeatures:
    @pytest.mark.parametrize(
        "spec,d,expected",
        [
            ("auto", 480, 22),
            ("sqrt", 480, 22),
            ("log2", 480, 9),
            (None, 480, 480),
            ("auto", 1, 1),
            ("log2", 1, 1),
            ("sqrt", 2, 2),
        ],
    )
    def test_table(self, spec, d, expected):
        assert resolve_max_features(spec, d) == expected

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            resolve_max_features("third", 10)


class TestExactStructureVsBruteForce:
    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("n,d,k,seed", [
        (4, 1, 2, 0),
        (8, 3, 2, 1),
        (12, 5, 3, 2),
        (16, 5, 3, 3),
        (16, 4, 2, 4),
        (15, 3, 3, 5),
    ])
    def test_random_continuous(self, criterion, n, d, k, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        y[:k] = np.arange(k)  # every class present
        tree = DecisionTree(criterion=criterion, max_features=None).fit(X, y)
        assert as_nested(tree.nodes_) == oracle_grow(X, y.astype(np.int64), k, criterion)

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_discrete_features_heavy_ties(self, criterion, seed):
        # few distinct values force many equal-score candidates; the
        # lowest-feature-then-lowest-threshold rule must match exactly
        rng = np.random.default_rng(100 + seed)
        X = rng.integers(0, 3, size=(16, 4)).astype(np.float64)
        y = rng.integers(0, 2, size=16)
        y[:2] = [0, 1]
        tree = DecisionTree(criterion=criterion, max_features=None).fit(X, y)
        assert as_nested(tree.nodes_) == oracle_grow(X, y.astype(np.int64), 2, criterion)

    def test_staircase_hand_oracle(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTree(max_features=None).fit(X, y)
        assert as_nested(tree.nodes_) == (0, 1.5, ("leaf", 0.0), ("leaf", 1.0))


class TestDecisionTree:
    def test_training_set_memorized(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 6))
        y = rng.integers(0, 3, size=30)
        y[:3] = [0, 1, 2]
        tree = DecisionTree(max_features=None).fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_predict_returns_original_labels(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([10, 10, 30, 30])
        tree = DecisionTree(max_features=None).fit(X, y)
        assert tree.predict(np.array([[0.5], [2.5]])).tolist() == [10, 30]

    def test_subsampled_features_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(24, 16))
        y = rng.integers(0, 2, size=24)
        y[:2] = [0, 1]
        a = DecisionTree(max_features="auto", seed=5).fit(X, y)
        b = DecisionTree(max_features="auto", seed=5).fit(X, y)
        assert as_nested(a.nodes_) == as_nested(b.nodes_)

    def test_max_depth_limits_growth(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(32, 4))
        y = rng.integers(0, 2, size=32)
        y[:2] = [0, 1]
        stump = DecisionTree(max_features=None, max_depth=1).fit(X, y)
        assert stump.nodes_.feature.size <= 3

    @pytest.mark.parametrize("criterion", ["gini", "entropy"])
    def test_midpoint_rounding_up_takes_the_lower_value(self, criterion):
        # (a + b) / 2 rounds up to b here; a threshold of b sent every row
        # left and split the same rows forever. max_depth bounds the growth
        # so that such a fault fails the assertions instead of hanging.
        a = np.nextafter(1.0, 0.0)
        X = np.array([[a], [1.0], [1.0]])
        model = DecisionTree(criterion=criterion, max_features=None, max_depth=4).fit(X, [0, 1, 1])
        assert model.nodes_.threshold[0] == a
        assert model.predict(X).tolist() == [0, 1, 1]

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree(criterion="variance")

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree().fit(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_predict_before_fit_rejected(self):
        with pytest.raises(ValueError):
            DecisionTree().predict(np.zeros((2, 2)))

    def test_feature_count_mismatch_rejected(self):
        tree = DecisionTree(max_features=None).fit(np.zeros((4, 2)) + np.arange(4)[:, None], [0, 0, 1, 1])
        with pytest.raises(ValueError):
            tree.predict(np.zeros((2, 3)))


class TestRandomSplitter:
    """The batched random-split search, one node per call."""

    def test_constant_feature_never_chosen(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.full(12, 3.0), rng.normal(size=12)])
        y = (X[:, 1] > 0).astype(np.int64)
        for trial in range(10):
            uniforms = np.random.default_rng(trial).random((1, 2))
            feature, threshold, go_left = best_split_random(X, y, 2, [np.arange(12)], np.array([[0, 1]]), uniforms, "gini")
            assert feature.tolist() == [1]
            np.testing.assert_array_equal(go_left[0], X[:, 1] <= threshold[0])

    def test_all_constant_has_no_split(self):
        X = np.full((6, 3), 2.0)
        y = np.array([0, 1, 0, 1, 0, 1])
        uniforms = np.random.default_rng(0).random((1, 3))
        feature, _, _ = best_split_random(X, y, 2, [np.arange(6)], np.arange(3)[None, :], uniforms, "gini")
        assert feature.tolist() == [-1]

    def test_random_tree_memorizes_training_set(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, size=20)
        y[:2] = [0, 1]
        (nodes,) = grow_extra_trees(X, y, 2, [np.random.Generator(np.random.PCG64(np.random.SeedSequence(1)))])
        np.testing.assert_array_equal(tree_apply(nodes, X), y)


class TestRegressionTree:
    def test_step_function_recovered(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        g = np.array([-1.0, -1.0, 2.0, 2.0])
        nodes, _ = grow_regression(presort(X), g, max_depth=3)
        assert as_nested(nodes) == (0, 1.5, ("leaf", -1.0), ("leaf", 2.0))
        np.testing.assert_array_equal(tree_apply(nodes, X), g)

    def test_constant_targets_stay_a_leaf(self):
        X = np.arange(8.0).reshape(-1, 1)
        nodes, _ = grow_regression(presort(X), np.full(8, 5.0), max_depth=3)
        assert nodes.feature.size == 1
        assert nodes.value[0] == 5.0

    def test_no_split_returns_none_on_constant_targets(self):
        X = np.arange(6.0).reshape(-1, 1)
        sorted_x = presort(X)
        assert best_split_regression(sorted_x, sorted_x.root, np.ones(6)) is None

    def test_depth_zero_is_global_mean(self):
        X = np.arange(10.0).reshape(-1, 1)
        g = np.arange(10.0)
        nodes, _ = grow_regression(presort(X), g, max_depth=0)
        assert nodes.feature.size == 1
        assert nodes.value[0] == pytest.approx(4.5)

    def test_leaf_values_are_node_means(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 3))
        g = rng.normal(size=40)
        nodes, _ = grow_regression(presort(X), g, max_depth=2)
        pred = tree_apply(nodes, X)
        for leaf in np.unique(pred):
            members = g[pred == leaf]
            assert leaf == pytest.approx(members.mean(), abs=1e-12)

    def test_midpoint_of_adjacent_floats(self):
        # the midpoint of two adjacent floats rounds to one of them; the
        # rows that go left are still exactly those with value <= threshold
        a = 1.0
        X = np.array([[a], [np.nextafter(a, 2.0)], [a]])
        g = np.array([0.0, 1.0, 0.0])
        nodes, leaf = grow_regression(presort(X), g, max_depth=1)
        assert as_nested(nodes) == (0, a, ("leaf", 0.0), ("leaf", 1.0))
        assert np.array_equal(nodes.value[leaf], tree_apply(nodes, X))

    def test_midpoint_rounding_up_takes_the_lower_value(self):
        # (a + b) / 2 rounds up to b here; a threshold of b would send
        # every row left and leave an empty right leaf (a NaN mean)
        a = np.nextafter(1.0, 0.0)
        X = np.array([[a], [1.0], [1.0]])
        g = np.array([0.0, 1.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            nodes, leaf = grow_regression(presort(X), g, max_depth=2)
        assert as_nested(nodes) == (0, a, ("leaf", 0.0), ("leaf", 1.0))
        assert leaf.tolist() == [1, 2, 2]

    @pytest.mark.parametrize("discrete", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_training_leaves_match_tree_apply(self, discrete, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(50, 6))
        if discrete:
            X = np.round(X)
        g = rng.normal(size=50)
        nodes, leaf = grow_regression(presort(X), g, max_depth=3)
        assert np.array_equal(nodes.value[leaf], tree_apply(nodes, X))
        assert np.all(nodes.feature[leaf] == -1)


# ---------------------------------------------------------------------------
# brute-force partner for regression trees: every midpoint between distinct
# values of every feature, scored with plain Python sums. Targets are
# multiples of 1/4, so every sum is exact and gains tie exactly where the
# true gains tie.


def oracle_grow_regression(X, g, max_depth, depth=0):
    value = float(g.mean())
    if g.size < 2 or depth >= max_depth:
        return ("leaf", value)
    total = sum(g.tolist())
    parent = total**2 / g.size
    best = None
    for f in range(X.shape[1]):
        vals = sorted(set(X[:, f].tolist()))
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            left = [t for x, t in zip(X[:, f], g) if x <= thr]
            s_left = sum(left)
            s_right = total - s_left
            n_left = len(left)
            n_right = g.size - n_left
            gain = s_left**2 / n_left + s_right**2 / n_right - parent
            if best is None or gain > best[0]:
                best = (gain, f, thr)
    if best is None or best[0] <= 1e-12 * max(1.0, abs(parent)):
        return ("leaf", value)
    _, f, thr = best
    mask = X[:, f] <= thr
    return (
        f,
        thr,
        oracle_grow_regression(X[mask], g[mask], max_depth, depth + 1),
        oracle_grow_regression(X[~mask], g[~mask], max_depth, depth + 1),
    )


class TestRegressionStructureVsBruteForce:
    @pytest.mark.parametrize("max_depth", [0, 1, 2, 3])
    @pytest.mark.parametrize("n,d,levels,seed", [
        (8, 1, 3, 0),
        (16, 4, 3, 1),
        (24, 5, 2, 2),
        (30, 3, 4, 3),
        (40, 6, 3, 4),
    ])
    def test_discrete_features_heavy_ties(self, max_depth, n, d, levels, seed):
        rng = np.random.default_rng(200 + seed)
        X = rng.integers(0, levels, size=(n, d)).astype(np.float64)
        g = rng.integers(-4, 5, size=n) / 4.0
        nodes, _ = grow_regression(presort(X), g, max_depth=max_depth)
        assert as_nested(nodes) == oracle_grow_regression(X, g, max_depth)

    def test_duplicate_columns_pick_the_lowest_feature(self):
        rng = np.random.default_rng(9)
        col = rng.integers(0, 3, size=20).astype(np.float64)
        X = np.column_stack([np.zeros(20), col, col])
        g = rng.integers(-4, 5, size=20) / 4.0
        nodes, _ = grow_regression(presort(X), g, max_depth=2)
        assert as_nested(nodes) == oracle_grow_regression(X, g, 2)
        assert nodes.feature[0] == 1
