"""CART-style trees: impurity measures, split search, growth, traversal.

One node-array representation serves the single decision tree, both
forest variants (exhaustive and random-threshold splitters) and the
regression trees inside gradient boosting. Ties in the split search are
broken deterministically: lowest feature index first, then lowest
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import Classifier, encode_training_data

CRITERIA = ("gini", "entropy")

# Minimum improvement for a regression split; guards against accepting
# pure float noise on constant targets.
_REG_GAIN_ATOL = 1e-12


def impurity(counts, criterion: str) -> float:
    """Gini or entropy of a class-count vector.

    gini = 1 - sum p_i^2; entropy = -sum p_i log2 p_i with 0*log 0 = 0.
    """
    c = np.asarray(counts)
    if c.size == 0:
        raise ValueError("empty count vector")
    if np.any(c < 0):
        raise ValueError("counts must be nonnegative")
    total = c.sum()
    if total <= 0:
        raise ValueError("counts must sum to a positive number")
    p = c / total
    if criterion == "gini":
        return float(1.0 - np.sum(p**2))
    if criterion == "entropy":
        p = p[p > 0]
        return float(-np.sum(p * np.log2(p)))
    raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")


def resolve_max_features(max_features, n_features: int) -> int:
    """Size of the per-node candidate feature subset.

    "auto" and "sqrt" take ceil(sqrt(d)), "log2" takes ceil(log2(d)),
    None means all features; always at least 1 and at most d.
    """
    if max_features is None:
        return n_features
    if max_features in ("auto", "sqrt"):
        m = math.ceil(math.sqrt(n_features))
    elif max_features == "log2":
        m = math.ceil(math.log2(n_features)) if n_features > 1 else 1
    else:
        raise ValueError(f"unknown max_features {max_features!r}")
    return min(max(1, m), n_features)


@dataclass
class TreeNodes:
    """Flat node arrays; feature == -1 marks a leaf.

    ``value`` is the majority class code for classification trees and the
    leaf mean for regression trees.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.feature.size


class _TreeBuilder:
    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def add(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def freeze(self) -> TreeNodes:
        return TreeNodes(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            value=np.asarray(self.value, dtype=np.float64),
        )


def _entropy_of_counts(counts, n):
    # counts: (..., K) float, n: (...) broadcastable sample totals
    p = counts / n[..., None]
    logp = np.zeros_like(p)
    np.log2(p, out=logp, where=p > 0)
    return -np.sum(p * logp, axis=-1)


def _weighted_child_impurity(left, right, nl, nr, criterion):
    # left/right: (..., K) counts, nl/nr: (...) totals; returns per-split score
    if criterion == "gini":
        imp_l = 1.0 - np.sum(left**2, axis=-1) / nl**2
        imp_r = 1.0 - np.sum(right**2, axis=-1) / nr**2
    else:
        imp_l = _entropy_of_counts(left, nl)
        imp_r = _entropy_of_counts(right, nr)
    return (nl * imp_l + nr * imp_r) / (nl + nr)


def _midpoint(a, b) -> float:
    """Threshold between sorted values a < b that sends a left and b right.

    (a + b) / 2 rounds up to b when a and b are adjacent floats; a is
    then the threshold.
    """
    mid = float((a + b) / 2.0)
    return mid if mid < b else float(a)


def best_split_exhaustive(X, codes, n_classes, feats, criterion):
    """Best (feature, threshold) over all midpoint thresholds of ``feats``.

    Returns (feature, threshold, gain) or None when no split strictly
    decreases impurity. Candidates are ranked by weighted child impurity;
    exact ties resolve to the lowest feature index, then the lowest
    threshold.
    """
    m = codes.size
    if m < 2:
        return None
    sub = X[:, feats]
    order = np.argsort(sub, axis=0, kind="stable")
    sv = np.take_along_axis(sub, order, axis=0)
    sy = codes[order]
    onehot = np.zeros((m, feats.size, n_classes))
    onehot[np.arange(m)[:, None], np.arange(feats.size)[None, :], sy] = 1.0
    left = np.cumsum(onehot, axis=0)[:-1]
    totals = np.bincount(codes, minlength=n_classes).astype(np.float64)
    right = totals[None, None, :] - left
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    nr = m - nl
    score = _weighted_child_impurity(left, right, nl, nr, criterion)
    score = np.where(sv[:-1] < sv[1:], score, np.inf)
    flat = score.T.reshape(-1)  # feature-major so argmin ties pick the lowest feature
    j = int(np.argmin(flat))
    if not np.isfinite(flat[j]):
        return None
    gain = impurity(totals, criterion) - float(flat[j])
    if gain <= 0.0:
        return None
    fi, pos = divmod(j, m - 1)
    return int(feats[fi]), _midpoint(sv[pos, fi], sv[pos + 1, fi]), gain


def best_split_random(X, codes, n_classes, feats, criterion, rng):
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


def _candidate_features(n_features, mtry, rng):
    if mtry >= n_features:
        return np.arange(n_features)
    return np.sort(rng.choice(n_features, size=mtry, replace=False))


def grow_classification(
    X,
    codes,
    n_classes,
    criterion="gini",
    max_features=None,
    splitter="best",
    max_depth=None,
    rng=None,
) -> TreeNodes:
    """Grow a classification tree until nodes are pure, have fewer than 2
    samples, hit ``max_depth``, or admit no usable split."""
    if splitter not in ("best", "random"):
        raise ValueError(f"unknown splitter {splitter!r}")
    if splitter == "random" and rng is None:
        raise ValueError("random splitter needs an rng")
    n_features = X.shape[1]
    mtry = resolve_max_features(max_features, n_features)
    if mtry < n_features and rng is None:
        raise ValueError("feature subsampling needs an rng")
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
        if splitter == "best":
            found = best_split_exhaustive(X_node, y_node, n_classes, feats, criterion)
        else:
            found = best_split_random(X_node, y_node, n_classes, feats, criterion, rng)
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


@dataclass
class Presorted:
    """``presort`` output: one training matrix and its per-feature order,
    plus the workspace every node of every tree grown on it reuses."""

    X: np.ndarray  # (n, d) training matrix
    order: np.ndarray  # (d, n): order[f] lists the rows by ascending X[:, f], ties by row
    tied: np.ndarray  # the features holding two equal values, ascending
    sums: np.ndarray  # (n, d) scratch: a node's prefix sums, then its gains
    right: np.ndarray  # (n, d) scratch: a node's right-child terms


def presort(X) -> Presorted:
    """Stable sort of every column of ``X``, once per fit.

    Also finds the features with ties: only their adjacent sorted pairs
    can be equal, so only they need a tie mask in a node's split search.
    """
    XT = X.T
    order = np.argsort(XT, axis=1, kind="stable")
    values = np.take_along_axis(XT, order, axis=1)
    tied = np.flatnonzero((values[:, 1:] == values[:, :-1]).any(axis=1))
    return Presorted(X, order, tied, np.empty(X.shape), np.empty(X.shape))


def best_split_regression(sorted_x, order, targets):
    """Exhaustive SSE-minimizing split of one node; None when nothing improves.

    ``order`` is the node's part of ``sorted_x.order``, one row per
    feature; ``targets`` is indexed by it. The arithmetic runs in the
    workspace of ``sorted_x``. Returns (feature, threshold, gain, n_left):
    the first ``n_left`` rows of ``order[feature]`` go left. Exact ties
    go to the lowest feature, then the lowest threshold.
    """
    m = order.shape[1]
    if m < 2:
        return None
    # Sample-major prefix sums by row adds: the same sequential rounding
    # as a cumsum per feature, without its one dependent chain per column.
    sums = sorted_x.sums[:m]
    sums[...] = targets[order.T]
    prev = sums[0]
    for row in sums[1:]:
        row += prev
        prev = row
    tot = sums[-1]
    csum = sums[:-1]
    nl = np.arange(1, m, dtype=np.float64)[:, None]
    # score = csum**2 / nl + (tot - csum)**2 / nr, to maximize; computed
    # in place, which rounds the same as the expression
    right = np.subtract(tot, csum, out=sorted_x.right[: m - 1])
    right *= right
    right /= m - nl
    gain = csum
    gain *= gain
    gain /= nl
    gain += right
    parent = tot**2 / m
    gain -= parent
    tied = sorted_x.tied
    if tied.size:
        # sorted values, so a pair that does not increase is a tie
        values = sorted_x.X[order[tied], tied[:, None]]
        gain[:, tied] = np.where((values[:, 1:] == values[:, :-1]).T, -np.inf, gain[:, tied])
    # lowest feature, then lowest position, among the maxima
    best_by_feature = gain.max(axis=0)
    fi = int(np.argmax(best_by_feature))
    best = float(best_by_feature[fi])
    if not np.isfinite(best) or best <= _REG_GAIN_ATOL * max(1.0, float(np.abs(parent).max())):
        return None
    pos = int(np.argmax(gain[:, fi]))
    # a tied pair never wins, so the values at pos and pos + 1 increase
    # strictly and exactly the rows up to pos lie at or below the midpoint
    X = sorted_x.X
    return fi, _midpoint(X[order[fi, pos], fi], X[order[fi, pos + 1], fi]), best, pos + 1


def grow_regression(sorted_x, targets, max_depth):
    """Mean-leaf regression tree, exhaustive splits over all features.

    ``sorted_x`` is ``presort`` of the training matrix. Only its
    ``order`` is carried down, by stable partition, so each node's rows
    stay in the stable sorted order a per-node sort would give; split
    thresholds are read from ``sorted_x.X``. Returns the tree and each
    training row's leaf index.
    """
    n = targets.size
    leaf = np.empty(n, dtype=np.int64)
    builder = _TreeBuilder()
    root = builder.add()
    stack = [(np.arange(n), sorted_x.order, 0, root)]
    while stack:
        idx, order, depth, node = stack.pop()
        builder.value[node] = float(targets[idx].sum() / idx.size)  # np.mean's bits, not its overhead
        leaf[idx] = node  # a split overwrites this with the children's
        if idx.size < 2 or depth >= max_depth:
            continue
        found = best_split_regression(sorted_x, order, targets)
        if found is None:
            continue
        feat, thr, _, n_left = found
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
                stack.append((rows, None, depth + 1, child))
                continue
            # flat positions, row by row, so each feature keeps its order
            keep = np.flatnonzero(order_left == side)
            stack.append((rows, order.take(keep).reshape(order.shape[0], rows.size), depth + 1, child))
    return builder.freeze(), leaf


def tree_apply(nodes: TreeNodes, X) -> np.ndarray:
    """Leaf ``value`` for every row, by vectorized root-to-leaf descent."""
    pos = np.zeros(X.shape[0], dtype=np.int64)
    active = nodes.feature[pos] >= 0
    while active.any():
        rows = np.nonzero(active)[0]
        cur = pos[rows]
        go_left = X[rows, nodes.feature[cur]] <= nodes.threshold[cur]
        pos[rows] = np.where(go_left, nodes.left[cur], nodes.right[cur])
        active[rows] = nodes.feature[pos[rows]] >= 0
    return nodes.value[pos]


class DecisionTree(Classifier):
    """Single CART classifier grown to purity.

    ``max_features`` follows the grid vocabulary ("auto" | "sqrt" |
    "log2"); None considers every feature, which is what the brute-force
    comparisons use.
    """

    kind = "decision_tree"

    def __init__(self, criterion="gini", max_features="auto", seed=0, splitter="best", max_depth=None):
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.max_features = max_features
        self.seed = int(seed)
        self.splitter = splitter
        self.max_depth = max_depth

    def fit(self, X, y):
        X, codes, self.classes_ = encode_training_data(X, y)
        self.n_features_ = X.shape[1]
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        self.nodes_ = grow_classification(
            X,
            codes,
            len(self.classes_),
            criterion=self.criterion,
            max_features=self.max_features,
            splitter=self.splitter,
            max_depth=self.max_depth,
            rng=rng,
        )
        return self

    def _predict_codes(self, X):
        return tree_apply(self.nodes_, X).astype(np.int64)
