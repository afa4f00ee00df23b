"""Bit-exact checks of lockstep extra-trees growth against a frozen copy.

``frozen_best_split_random`` and ``frozen_grow_random`` are the per-node
random-split search and the depth-first growth as they were before the
trees of a forest grew in lockstep, kept here verbatim apart from their
names and the exhaustive branch. ``ExtraTrees`` and a lone
``grow_extra_trees`` tree must grow the same node arrays byte for byte:
every tree draws the same features and uniforms from its own
generator, in the same order, and each batched node is scored by the
same arithmetic as a lone one.
"""

import contextlib
import io

import numpy as np
import pytest
import yaml

from radarml import cli, dataset, modelsel
from radarml.config import DEFAULT_CONFIG
from radarml.estimators import tree
from radarml.estimators.ensemble import ExtraTrees
from radarml.estimators.tree import (
    _candidate_features,
    _TreeBuilder,
    _weighted_child_impurity,
    best_split_random,
    impurity,
    resolve_max_features,
)
from radarml.seeding import seed_sequence


def frozen_best_split_random(X, codes, n_classes, feats, criterion, rng):
    """One uniform threshold per candidate feature, best by criterion.

    Features that are constant within the node are skipped; returns None
    when every candidate is constant. The split with the lowest weighted
    child impurity wins, ties going to the lowest feature index.
    """
    m = codes.size
    if m < 2:
        return None
    sub = X[:, feats]
    lo = sub.min(axis=0)
    hi = sub.max(axis=0)
    thresholds = rng.uniform(lo, hi)
    usable = lo < hi
    if not usable.any():
        return None
    mask = sub <= thresholds[None, :]
    onehot = np.zeros((m, n_classes))
    onehot[np.arange(m), codes] = 1.0
    left = mask.T.astype(np.float64) @ onehot  # (f, K)
    totals = onehot.sum(axis=0)
    right = totals[None, :] - left
    nl = mask.sum(axis=0).astype(np.float64)
    nr = m - nl
    usable = usable & (nl > 0) & (nr > 0)
    if not usable.any():
        return None
    # unit denominators keep the masked-out columns from dividing by zero
    nl_safe = np.where(usable, nl, 1.0)
    nr_safe = np.where(usable, nr, 1.0)
    score = np.where(
        usable, _weighted_child_impurity(left, right, nl_safe, nr_safe, criterion), np.inf
    )
    j = int(np.argmin(score))
    return int(feats[j]), float(thresholds[j]), float(impurity(totals, criterion) - score[j])


def frozen_grow_random(X, codes, n_classes, criterion="gini", max_features=None, max_depth=None, rng=None):
    """Grow a classification tree until nodes are pure, have fewer than 2
    samples, hit ``max_depth``, or admit no usable split."""
    n_features = X.shape[1]
    mtry = resolve_max_features(max_features, n_features)
    builder = _TreeBuilder()
    root = builder.add()
    stack = [(np.arange(codes.size), 0, root)]
    while stack:
        idx, depth, node = stack.pop()
        y_node = codes[idx]
        counts = np.bincount(y_node, minlength=n_classes)
        builder.value[node] = float(np.argmax(counts))
        if idx.size < 2 or np.count_nonzero(counts) == 1:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        feats = _candidate_features(n_features, mtry, rng)
        X_node = X[idx]
        found = frozen_best_split_random(X_node, y_node, n_classes, feats, criterion, rng)
        if found is None:
            continue
        feat, thr, _ = found
        go_left = X_node[:, feat] <= thr
        left_node = builder.add()
        right_node = builder.add()
        builder.feature[node] = feat
        builder.threshold[node] = thr
        builder.left[node] = left_node
        builder.right[node] = right_node
        stack.append((idx[~go_left], depth + 1, right_node))
        stack.append((idx[go_left], depth + 1, left_node))
    return builder.freeze()


def frozen_extra_trees(X, y, n_estimators, criterion, max_features, seed):
    """The trees ``ExtraTrees.fit`` grew one at a time."""
    classes, codes = np.unique(y, return_inverse=True)
    children = seed_sequence(seed, 0).spawn(n_estimators)
    return [
        frozen_grow_random(
            X, codes, classes.size, criterion, max_features, None, np.random.Generator(np.random.PCG64(child))
        )
        for child in children
    ]


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for nodes, want_nodes in zip(got, want):
        for field in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(nodes, field), getattr(want_nodes, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def assert_same_forest(X, y, n_estimators, criterion, max_features="auto", seed=0):
    model = ExtraTrees(n_estimators=n_estimators, criterion=criterion, max_features=max_features, seed=seed)
    got = model.fit(X, y).trees_
    assert_same_trees(got, frozen_extra_trees(X, y, n_estimators, criterion, max_features, seed))
    return got


def assert_same_lone_tree(X, y, criterion, max_features, max_depth=None, seed=0):
    classes, codes = np.unique(y, return_inverse=True)
    # the generator a DecisionTree of this seed builds, once for each growth
    rng, frozen_rng = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))) for _ in range(2))
    (got,) = tree.grow_extra_trees(X, codes, classes.size, [rng], criterion, max_features, max_depth)
    want = frozen_grow_random(X, codes, classes.size, criterion, max_features, max_depth, frozen_rng)
    assert_same_trees([got], [want])
    return got


def test_uniform_is_an_affine_map_of_random():
    # the batched search draws rng.random and maps it itself
    rng = np.random.default_rng(900)
    for n in (1, 2, 9, 22, 480):
        lo = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
        hi = lo + np.abs(rng.normal(size=n)) * 10.0 ** rng.integers(-3, 4, size=n)
        hi[: n // 3] = lo[: n // 3]  # constant features draw too
        for seed in range(5):
            want = np.random.default_rng(seed).uniform(lo, hi)
            got = lo + (hi - lo) * np.random.default_rng(seed).random(n)
            assert got.tobytes() == want.tobytes()


CRITERIA = ("gini", "entropy")


class TestForestMatchesFrozenGrowth:
    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("n_estimators", [1, 16, 256])
    def test_continuous_benchmark_shape(self, criterion, n_estimators):
        # 64 rows of 480 features, four classes: a simple4 CV fold's shape
        rng = np.random.default_rng(901)
        X = rng.normal(size=(64, 480))
        y = np.repeat(np.arange(4), 16)
        X[:, :40] += y[:, None] * 0.3
        trees = assert_same_forest(X, y, n_estimators, criterion)
        assert all(nodes.n_nodes > 1 for nodes in trees)

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("n_estimators", [1, 16, 256])
    def test_constant_and_tied_features(self, criterion, n_estimators):
        # constant columns, coarse integer columns and one informative one;
        # nodes where every candidate is constant stay leaves
        rng = np.random.default_rng(902)
        y = rng.integers(0, 3, size=30)
        X = np.column_stack(
            [
                np.full(30, 2.0),
                rng.integers(0, 2, size=30).astype(np.float64),
                np.zeros(30),
                y + rng.normal(scale=0.3, size=30),
                rng.integers(0, 3, size=30).astype(np.float64),
                np.full(30, -1.0),
            ]
        )
        assert_same_forest(X, y, n_estimators, criterion, max_features="log2")
        assert_same_forest(X, y, n_estimators, criterion, max_features=None)

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("n_estimators", [1, 16, 256])
    def test_duplicated_rows_leave_unsplittable_leaves(self, criterion, n_estimators):
        # equal rows of different classes can never be told apart
        rng = np.random.default_rng(903)
        base = rng.normal(size=(6, 5))
        X = base[rng.integers(0, 6, size=24)]
        y = rng.integers(0, 3, size=24)
        y[:3] = [0, 1, 2]
        assert_same_forest(X, y, n_estimators, criterion, max_features="sqrt")

    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_two_row_nodes(self, criterion, n):
        # tiny sets: two-row nodes, padded next to larger ones
        rng = np.random.default_rng(904 + n)
        X = rng.normal(size=(n, 4))
        y = np.arange(n) % 2
        for n_estimators in (1, 16, 256):
            assert_same_forest(X, y, n_estimators, criterion, max_features="log2")

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_ten_classes_of_uneven_sizes(self, criterion):
        # a class axis wider than numpy's 8-way unrolled sum
        rng = np.random.default_rng(905)
        y = np.repeat(np.arange(10), np.arange(2, 12))
        X = rng.normal(size=(y.size, 60)) + (y[:, None] == np.arange(60) % 10) * 0.8
        assert_same_forest(X, y, 16, criterion)

    @pytest.mark.parametrize("block", [1, 300, 5000, 1 << 30])
    def test_any_search_block(self, block, monkeypatch):
        # one node per call (each over the budget), a few, or a whole step
        monkeypatch.setattr(tree, "_RANDOM_BLOCK", block)
        rng = np.random.default_rng(909)
        X = rng.normal(size=(40, 30))
        y = rng.integers(0, 3, size=40)
        for criterion in CRITERIA:
            assert_same_forest(X, y, 16, criterion)

    def test_adjacent_float_values(self):
        # thresholds between values one ulp apart can round onto the upper
        # value and leave the right child empty; such candidates are skipped
        a = np.array([1.0, np.nextafter(1.0, 2.0), 3.0, np.nextafter(3.0, 4.0)])
        rng = np.random.default_rng(906)
        X = np.column_stack([a[rng.integers(0, 4, size=20)] for _ in range(6)])
        y = rng.integers(0, 2, size=20)
        for criterion in CRITERIA:
            assert_same_forest(X, y, 64, criterion, max_features=None)


class TestLoneTreeMatchesFrozenGrowth:
    @pytest.mark.parametrize("criterion", CRITERIA)
    @pytest.mark.parametrize("max_features", [None, "auto", "log2"])
    @pytest.mark.parametrize("max_depth", [None, 0, 1, 2, 4])
    def test_max_depth(self, criterion, max_features, max_depth):
        rng = np.random.default_rng(907)
        X = rng.normal(size=(40, 30))
        y = rng.integers(0, 4, size=40)
        for seed in range(3):
            nodes = assert_same_lone_tree(X, y, criterion, max_features, max_depth, seed)
            if max_depth == 0:
                assert nodes.n_nodes == 1

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_constant_features_and_two_rows(self, criterion):
        X = np.array([[5.0, 1.0, 0.0], [5.0, 2.0, 0.0]])
        nodes = assert_same_lone_tree(X, np.array([0, 1]), criterion, None)
        assert nodes.feature.tolist() == [1, -1, -1]
        all_constant = np.full((4, 3), 7.0)
        nodes = assert_same_lone_tree(all_constant, np.array([0, 1, 0, 1]), criterion, None)
        assert nodes.n_nodes == 1


@pytest.fixture(scope="module")
def simple4_fold(tmp_path_factory):
    """The first CV fold of a four-class motion-filtered train set."""
    out = tmp_path_factory.mktemp("simple4")
    config = out / "config.yaml"
    raw = {
        "seed": 2,
        "n_per_class": 200,
        "scenarios": {"outdoor": DEFAULT_CONFIG["scenarios"]["outdoor"]},
        "schemes": ["simple4"],
    }
    config.write_text(yaml.safe_dump(raw))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["generate", "--config", str(config), "--out", str(out), "--data-type", "motion_filtered"])
    assert code == cli.EXIT_OK
    train = dataset.load_dataset(cli._dataset_paths(str(out), "outdoor-simple4-motion_filtered")[0])
    train_idx, _ = modelsel.stratified_kfold(train.labels, 5, seed=1)[0]
    return train.scans[train_idx], train.labels[train_idx]


@pytest.mark.parametrize("criterion", CRITERIA)
@pytest.mark.parametrize("max_features", ["auto", "log2"])
def test_radar_fold_at_256_trees(simple4_fold, criterion, max_features):
    X, y = simple4_fold
    assert X.shape == (64, 480)
    assert_same_forest(X, y, 256, criterion, max_features, seed=3)


def test_batched_nodes_score_as_lone_nodes():
    # one call over nodes of different sizes equals one call per node
    rng = np.random.default_rng(908)
    X = rng.normal(size=(50, 12))
    codes = rng.integers(0, 3, size=50)
    nodes = [np.sort(rng.choice(50, size=m, replace=False)) for m in (2, 50, 7, 3, 31)]
    feats = np.array([np.sort(rng.choice(12, size=4, replace=False)) for _ in nodes])
    uniforms = rng.random((len(nodes), 4))
    for criterion in CRITERIA:
        feature, threshold, go_left = best_split_random(X, codes, 3, nodes, feats, uniforms, criterion)
        for b, rows in enumerate(nodes):
            lone = best_split_random(X, codes, 3, [rows], feats[b : b + 1], uniforms[b : b + 1], criterion)
            assert lone[0][0] == feature[b]
            assert lone[1][0].tobytes() == threshold[b].tobytes()
            np.testing.assert_array_equal(lone[2][0], go_left[b, : rows.size])
            np.testing.assert_array_equal(go_left[b, : rows.size], X[rows, feature[b]] <= threshold[b])
