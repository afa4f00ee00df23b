"""CART-style trees: impurity measures, split search, growth, traversal.

One node-array representation serves the single decision tree, both
forest variants (exhaustive and random-threshold splitters) and the
regression trees inside gradient boosting. Ties in the split search are
broken deterministically: lowest feature index first, then lowest
threshold.

Random-threshold trees grow in lockstep (``grow_extra_trees``): each
step takes one node from every tree still growing and searches them in
batched calls, nodes of similar size together. Regression trees never sort a node: a node's stable
per-feature order is the fit's presorted order restricted to its rows,
so it is looked up by row set (``Presorted.orders_of``) and shared by
every tree of the fit that reaches the same rows.

A regression node's split search scores only the cut positions that can
hold the best gain. A cut's gain is the between-group sum of squares,
m/(nl nr) (S - T nl/m)**2 for left sum S and total T, so each position's
largest and smallest prefix sum over the features bound every feature's
gain there (``_gain_bounds``), padded past all rounding. The position of
the largest bound is scored first; its best gain is the floor, and only
the positions whose bound reaches it are scored. On boosting nodes of
480-feature folds about 3% of positions survive at 33-64 rows and 1% at
129-160. Nodes of at most ``_BOUND_MIN_ROWS`` (18) rows, where the bound
costs more than it saves, score every position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .base import Classifier

CRITERIA = ("gini", "entropy")
MAX_FEATURES = ("auto", "sqrt", "log2")

# Minimum improvement for a regression split; guards against accepting
# pure float noise on constant targets.
_REG_GAIN_ATOL = 1e-12

# Bytes of node orders one fit keeps (``Presorted.orders_of``). The default
# plan's matrices have at most 200 rows, so an order is uint8, m x 480
# bytes for m rows. A 256-stage fit on a 160-row grid10 fold keeps about
# 600 orders (22-24 MB); the 200-row grid10 refit at 256 stages fills the
# budget, and a 64-row simple4 fold keeps under 1 MB.
_ORDER_BUDGET = 32 << 20

# Candidate values in one padded block of ``best_split_random`` (512 KiB
# as float64). A lockstep step's nodes are searched in blocks of similar
# size: small blocks stay in cache and pad little, and a step's memory is
# bounded at any tree count. Ten 256-tree fits on 160 x 480 grid10 folds
# took 5.2 s; 2**14 or 2**17 took 5.3 s and one block per step 6.1 s.
_RANDOM_BLOCK = 1 << 16

# Nodes of more than this many rows bound each cut position's gain before
# scoring (``best_split_regression``); smaller ones score every position.
# On 480-feature boosting nodes of simple4 folds, one CPU, scoring every
# position against bounding first took 44.5 vs 48.3 us at 16 rows, 48.3
# vs 49.5 at 18, 52.6 vs 51.1 at 20, 61.2 vs 52.8 at 24 and 75.9 vs 60.9
# at 32.
_BOUND_MIN_ROWS = 18

# Padding of a gain bound, in units of scale**2 / m (``_gain_bounds``):
# 2**9 times the rounding it covers.
_BOUND_PAD = 2.0**-40

# Bounds are taken only while 2 m max|target| lies strictly inside this
# range: below it, subnormal rounding outgrows the padding; above it, a
# squared bound could overflow. Outside it, every position is scored.
_BOUND_SCALES = (2.0**-500, 2.0**511)


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
    if max_features not in MAX_FEATURES:
        raise ValueError(f"unknown max_features {max_features!r}; expected None or one of {MAX_FEATURES}")
    if max_features == "log2":
        m = math.ceil(math.log2(n_features)) if n_features > 1 else 1
    else:
        m = math.ceil(math.sqrt(n_features))
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
        # integer-valued counts: every partial sum of squares is exact, so
        # einsum's order rounds as np.sum's; entropy's sum keeps np.sum
        imp_l = 1.0 - np.einsum("...k,...k->...", left, left) / nl**2
        imp_r = 1.0 - np.einsum("...k,...k->...", right, right) / nr**2
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


def best_split_random(X, codes, n_classes, nodes, feats, uniforms, criterion):
    """One uniform threshold per candidate feature of each node of a batch,
    best by criterion, in one call for the whole batch.

    ``nodes`` lists each node's ascending row ids; ``feats`` (B, F) holds
    its candidate features and ``uniforms`` (B, F) one draw in [0, 1) per
    candidate. A candidate's threshold is ``lo + (hi - lo) * u`` over the
    node's values, which is ``rng.uniform(lo, hi)`` to the bit. Features
    constant within the node, and thresholds that leave a child empty,
    are skipped; the split with the lowest weighted child impurity wins,
    ties going to the lowest feature index. Returns (feature, threshold,
    go_left): ``feature[b]`` is -1 when node b has no usable split, and
    the first m entries of ``go_left[b]`` mark which of its m rows go left.
    """
    sizes = np.array([rows.size for rows in nodes])
    # Pad every node to the largest one's rows. A padding row copies the
    # node's first row, so it moves neither the minimum nor the maximum,
    # and holds no class, so it counts in no child.
    pos = np.arange(sizes.max())
    real = pos < sizes[:, None]
    starts = np.cumsum(sizes) - sizes
    rows = np.concatenate(nodes)[starts[:, None] + np.where(real, pos, 0)]  # (B, M)
    sub = X[rows[:, None, :], feats[:, :, None]]  # (B, F, M)
    lo = sub.min(axis=2)
    hi = sub.max(axis=2)
    thresholds = lo + (hi - lo) * uniforms
    mask = sub <= thresholds[:, :, None]
    onehot = ((codes[rows][:, :, None] == np.arange(n_classes)) & real[:, :, None]).astype(np.float64)
    # (B, F, K) counts, the class axis last and contiguous as in a lone
    # node's (F, K), so the entropy sums over classes round the same
    left = mask.astype(np.float64) @ onehot
    right = onehot.sum(axis=1)[:, None, :] - left
    nl = left.sum(axis=2)
    nr = sizes[:, None] - nl
    usable = (lo < hi) & (nl > 0) & (nr > 0)
    # unit denominators keep the masked-out columns from dividing by zero
    nl_safe = np.where(usable, nl, 1.0)
    nr_safe = np.where(usable, nr, 1.0)
    score = np.where(usable, _weighted_child_impurity(left, right, nl_safe, nr_safe, criterion), np.inf)
    best = score.argmin(axis=1)
    batch = np.arange(len(nodes))
    feature = np.where(usable.any(axis=1), feats[batch, best], -1)
    return feature, thresholds[batch, best], mask[batch, best]


def _candidate_features(n_features, mtry, rng):
    if mtry >= n_features:
        return np.arange(n_features)
    return np.sort(rng.choice(n_features, size=mtry, replace=False))


def _next_to_split(stack, builder, codes, n_classes, max_depth):
    """Pop ``stack`` down to the next node worth a split search, giving
    every node popped its majority class; None once the stack is empty.

    A node stays a leaf when it is pure, has fewer than 2 samples or
    sits at ``max_depth``.
    """
    while stack:
        idx, depth, node = stack.pop()
        counts = np.bincount(codes[idx], minlength=n_classes)
        builder.value[node] = float(np.argmax(counts))
        if idx.size >= 2 and np.count_nonzero(counts) > 1 and (max_depth is None or depth < max_depth):
            return idx, depth, node
    return None


def _split(builder, node, feat, thr):
    """Make ``node`` split on (feat, thr); returns its new (left, right)
    children, which a depth-first stack takes left first."""
    left = builder.add()
    right = builder.add()
    builder.feature[node] = feat
    builder.threshold[node] = thr
    builder.left[node] = left
    builder.right[node] = right
    return left, right


def grow_classification(X, codes, n_classes, criterion="gini", max_features=None, max_depth=None, rng=None):
    """Grow a classification tree with the exhaustive split search until
    nodes are pure, have fewer than 2 samples, hit ``max_depth``, or admit
    no split that lowers the impurity."""
    n_features = X.shape[1]
    mtry = resolve_max_features(max_features, n_features)
    if mtry < n_features and rng is None:
        raise ValueError("feature subsampling needs an rng")
    builder = _TreeBuilder()
    stack = [(np.arange(codes.size), 0, builder.add())]
    while (popped := _next_to_split(stack, builder, codes, n_classes, max_depth)) is not None:
        idx, depth, node = popped
        feats = _candidate_features(n_features, mtry, rng)
        X_node = X[idx]
        found = best_split_exhaustive(X_node, codes[idx], n_classes, feats, criterion)
        if found is not None:
            feat, thr, _ = found
            go_left = X_node[:, feat] <= thr
            left, right = _split(builder, node, feat, thr)
            stack += [(idx[~go_left], depth + 1, right), (idx[go_left], depth + 1, left)]
    return builder.freeze()


def grow_extra_trees(X, codes, n_classes, rngs, criterion="gini", max_features=None, max_depth=None):
    """One extremely randomized tree per generator of ``rngs``, all grown
    in lockstep; each is the tree a lone depth-first growth would give.

    Every step, each tree still growing pops the next node worth a search
    from its own stack and draws, from its own generator, that node's
    candidate features and then one uniform per candidate: the draws and
    the order of a lone growth. The step's nodes are then searched by
    ``best_split_random``, smallest first, as many per call as keep the
    padded block within ``_RANDOM_BLOCK`` values (at least one). Nodes
    grow until they are pure, have fewer than 2 samples, hit
    ``max_depth``, or every candidate feature is constant within them.
    """
    n_features = X.shape[1]
    mtry = resolve_max_features(max_features, n_features)
    builders = [_TreeBuilder() for _ in rngs]
    stacks = [[(np.arange(codes.size), 0, builder.add())] for builder in builders]
    growing = range(len(rngs))
    while True:
        step, feats, uniforms = [], [], []
        for t in growing:
            popped = _next_to_split(stacks[t], builders[t], codes, n_classes, max_depth)
            if popped is not None:
                step.append((t, *popped))
                feats.append(_candidate_features(n_features, mtry, rngs[t]))
                uniforms.append(rngs[t].random(mtry))
        if not step:
            break
        feats, uniforms = np.array(feats), np.array(uniforms)
        sizes = np.array([idx.size for _, idx, _, _ in step])
        by_size = np.argsort(sizes, kind="stable")
        sizes = sizes[by_size]
        start = 0
        while start < len(step):
            # a block of k nodes pads to its largest, the k-th
            fits = np.arange(1, len(step) - start + 1) * mtry * sizes[start:] <= _RANDOM_BLOCK
            stop = start + max(1, int(np.count_nonzero(fits)))
            part = by_size[start:stop]
            nodes = [step[i][1] for i in part]
            found = best_split_random(X, codes, n_classes, nodes, feats[part], uniforms[part], criterion)
            for i, feat, thr, go_left in zip(part, *found):
                t, idx, depth, node = step[i]
                if feat >= 0:
                    go_left = go_left[: idx.size]
                    left, right = _split(builders[t], node, feat, thr)
                    stacks[t] += [(idx[~go_left], depth + 1, right), (idx[go_left], depth + 1, left)]
            start = stop
        growing = [t for t, _, _, _ in step]
    return [builder.freeze() for builder in builders]


@dataclass
class Presorted:
    """``presort`` output: one training matrix, its per-feature order, the
    node orders found so far, and the workspace every node of every tree
    grown on it reuses."""

    X: np.ndarray  # (n, d) training matrix
    order: np.ndarray  # (d, n): order[f] lists the rows by ascending X[:, f], ties by row
    root: np.ndarray  # (n, d): ``order`` sample-major, the root node's order
    tied: np.ndarray  # the features holding two equal values, ascending
    sums: np.ndarray  # (n, d) scratch: a node's prefix sums, then its scores
    right: np.ndarray  # (n, d) scratch: a node's right-child terms
    memo: dict = field(default_factory=dict)  # row-set bytes -> order of that set
    memo_bytes: int = 0  # bytes of the orders in ``memo``

    def orders_of(self, parts, within=None) -> list:
        """Stable per-feature orders of the row sets ``parts``.

        ``parts`` are disjoint arrays of ascending row ids, all inside the
        row set whose (m, d) order is ``within`` (every row when None).
        Returns one (m_i, d) order per part: column f lists the part's
        rows by ascending ``X[:, f]``, ties by row, which is column f of
        ``within`` with the other rows left out. An order depends on its
        row set alone, so every tree of a fit that reaches the same rows
        reads the order kept from the first, until the kept orders fill
        ``_ORDER_BUDGET`` bytes. The parts found in none are filtered
        from ``within`` together, with one gather.
        """
        found = [self.memo.get(rows.tobytes()) for rows in parts]
        missing = [i for i, order in enumerate(found) if order is None]
        if not missing:
            return found
        # feature-major (d, m); the root's is the presorted order itself
        source = self.order if within is None or within is self.root else np.ascontiguousarray(within.T)
        part = np.zeros(self.X.shape[0], dtype=np.uint8)  # 1 + each row's part, 0 outside them
        for i in missing:
            part[parts[i]] = i + 1
        # a flat take and compress are about 3x faster than a boolean index
        # of the 2-D order; "clip" skips the bounds check of in-range ids
        labels = np.take(part, source, mode="clip").ravel()
        for i in missing:
            rows = parts[i]
            # each feature's run of the flat (d, m) source keeps its order
            order = np.ascontiguousarray(source.compress(labels == i + 1).reshape(-1, rows.size).T)
            order.flags.writeable = False  # shared by every node with these rows
            if self.memo_bytes + order.nbytes <= _ORDER_BUDGET:
                self.memo[rows.tobytes()] = order
                self.memo_bytes += order.nbytes
            found[i] = order
        return found


def presort(X) -> Presorted:
    """Stable sort of every column of ``X``, once per fit.

    The order is held in the smallest unsigned dtype that can name every
    row (uint8 up to 256 rows), which is also the dtype of every node
    order ``orders_of`` keeps. Also finds the features with ties: only
    their adjacent sorted pairs can be equal, so only they need a tie
    mask in a node's split search.
    """
    XT = X.T
    order = np.argsort(XT, axis=1, kind="stable")
    values = np.take_along_axis(XT, order, axis=1)
    tied = np.flatnonzero((values[:, 1:] == values[:, :-1]).any(axis=1))
    order = order.astype(np.min_scalar_type(X.shape[0] - 1))
    root = np.ascontiguousarray(order.T)
    root.flags.writeable = False
    return Presorted(X, order, root, tied, np.empty(X.shape), np.empty(X.shape))


def _scores(sorted_x, order, score, tot, cuts):
    """Scores, to maximize, of the cuts ``cuts`` for every feature, written
    over ``score``, which holds their prefix sums.

    ``cuts`` picks cut positions, after row 0 to after row m - 2: a slice
    or ascending ids. score = csum**2 / nl + (tot - csum)**2 / nr, computed
    in place, which rounds the same as the expression, and -inf at a tied
    pair. The arithmetic is element by element, so a cut scores the same
    bits whichever others are scored with it.
    """
    m = order.shape[0]
    nl = _cut_weights(m)[0][cuts][:, None]
    right = np.subtract(tot, score, out=sorted_x.right[: score.shape[0]])
    right *= right
    right /= m - nl
    score *= score
    score /= nl
    score += right
    tied = sorted_x.tied
    if tied.size:
        # sorted values, so a pair that does not increase is a tie
        values = sorted_x.X[order[:, tied], tied]
        score[:, tied] = np.where(values[1:][cuts] == values[:-1][cuts], -np.inf, score[:, tied])
    return score


@functools.lru_cache(maxsize=1024)
def _cut_weights(m):
    """Per cut position of an m-row node, read-only: nl, nl / m,
    m / (nl nr) and the position's id. Kept per node size."""
    nl = np.arange(1, m, dtype=np.float64)
    weights = nl, nl / m, m / (nl * (m - nl)), np.arange(m - 1)
    for w in weights:
        w.flags.writeable = False
    return weights


def _gain_bounds(csum, tot, scale):
    """For each cut position, a bound on the gain that any feature's cut
    there computes; ``scale`` is 2 m max|target| over the node's m rows.

    A cut's gain is the between-group sum of squares,
    S**2/nl + (T - S)**2/nr - T**2/m = m/(nl nr) (S - T nl/m)**2, and over
    the features |S - T nl/m| <= A = max(hi - t_lo nl/m, t_hi nl/m - lo),
    from the position's largest and smallest prefix sums and the smallest
    and largest total. So m/(nl nr) A**2 bounds every exact gain there,
    and as |S - T nl/m| = |nr S - nl (T - S)| / m <= 2 nl nr max|target| / m,
    it is at most m max|target|**2 = scale**2 / (4 m). The roundings of A, of
    the bound and of the computed gain each err by a few ulps of terms at
    most scale**2 / (2 m), under 2**-49 scale**2 / m in all, and the bound
    is padded by ``_BOUND_PAD`` scale**2 / m.
    """
    m = csum.shape[0] + 1
    _, share, weight, rows = _cut_weights(m)
    # an argmax and a gather beat a max along rows by about 1.5x
    hi = csum[rows, csum.argmax(axis=1)]
    lo = csum[rows, csum.argmin(axis=1)]
    bound = np.maximum(hi - tot.min() * share, tot.max() * share - lo)
    bound *= bound
    bound *= weight
    bound += (_BOUND_PAD * scale) * (scale / m)
    return bound


def best_split_regression(sorted_x, order, targets):
    """Exhaustive SSE-minimizing split of one node; None when nothing improves.

    ``order`` is the node's ``sorted_x.orders_of`` order, (m, d);
    ``targets`` is indexed by it. The arithmetic runs in the workspace of
    ``sorted_x``. Returns (feature, threshold, gain, n_left): the first
    ``n_left`` rows of ``order[:, feature]`` go left. Exact ties go to
    the lowest feature, then the lowest threshold.

    A node of more than ``_BOUND_MIN_ROWS`` rows scores only the positions
    whose ``_gain_bounds`` reaches the floor, the best gain at the position
    of the largest bound. Every other position's gains lie below a gain
    the search computes, so the split is that of scoring every position.
    """
    m = order.shape[0]
    if m < 2:
        return None
    # Sample-major prefix sums by row adds: the same sequential rounding
    # as a cumsum per feature, without its one dependent chain per column.
    # ("clip" on in-range ids: the default "raise" buffers ``out``, 5x slower.)
    sums = np.take(targets, order, out=sorted_x.sums[:m], mode="clip")
    # 2 m max|target| from column 0, which holds the node's targets; a
    # node within the size check takes 0, outside ``_BOUND_SCALES``
    scale = 2.0 * m * float(np.abs(sums[:, 0]).max()) if m > _BOUND_MIN_ROWS else 0.0
    prev = sums[0]
    for row in sums[1:]:
        row += prev
        prev = row
    tot = sums[-1]
    csum = sums[:-1]
    parent = tot**2 / m
    kept = None  # the positions scored, every one when None
    if _BOUND_SCALES[0] < scale < _BOUND_SCALES[1]:
        bound = _gain_bounds(csum, tot, scale)
        top = int(bound.argmax())
        floor = _scores(sorted_x, order, csum[top : top + 1].copy(), tot, slice(top, top + 1)) - parent
        kept = np.flatnonzero(bound >= floor.max())
        score = _scores(sorted_x, order, csum[kept], tot, kept)
    else:
        score = _scores(sorted_x, order, csum, tot, slice(None))
    # The gain is fl(score - parent), nondecreasing in the score, so a
    # feature's best gain is its best score minus parent, and the first
    # maximum of one column's gains is the split. Lowest feature, then
    # lowest position, among the maxima.
    best_by_feature = score.max(axis=0) - parent
    fi = int(np.argmax(best_by_feature))
    best = float(best_by_feature[fi])
    if not np.isfinite(best) or best <= _REG_GAIN_ATOL * max(1.0, float(np.abs(parent).max())):
        return None
    pos = int(np.argmax(score[:, fi] - parent[fi]))
    if kept is not None:
        pos = int(kept[pos])
    # a tied pair never wins, so the values at pos and pos + 1 increase
    # strictly and exactly the rows up to pos lie at or below the midpoint
    X = sorted_x.X
    return fi, _midpoint(X[order[pos, fi], fi], X[order[pos + 1, fi], fi]), best, pos + 1


def grow_regression(sorted_x, targets, max_depth):
    """Mean-leaf regression tree, exhaustive splits over all features.

    ``sorted_x`` is ``presort`` of the training matrix. The row ids are
    carried down, ascending, and with them the stable per-feature order
    of each node a search will reach: a split looks its children's
    orders up with ``sorted_x.orders_of``, filtering misses from its own.
    Split thresholds are read from ``sorted_x.X``. Returns the tree and
    each training row's leaf index.
    """
    n = targets.size
    leaf = np.empty(n, dtype=np.int64)
    builder = _TreeBuilder()
    stack = [(np.arange(n), 0, builder.add(), sorted_x.root)]
    while stack:
        idx, depth, node, order = stack.pop()
        builder.value[node] = float(targets[idx].sum() / idx.size)  # np.mean's bits, not its overhead
        leaf[idx] = node  # a split overwrites this with the children's
        if idx.size < 2 or depth >= max_depth:
            continue
        found = best_split_regression(sorted_x, order, targets)
        if found is None:
            continue
        feat, thr, _, n_left = found
        go_left = np.zeros(n, dtype=bool)
        go_left[order[:n_left, feat]] = True
        side = go_left[idx]
        left, right = _split(builder, node, feat, thr)
        children = [(idx[~side], right), (idx[side], left)]
        searched = [rows.size >= 2 and depth + 1 < max_depth for rows, _ in children]
        orders = iter(sorted_x.orders_of([rows for (rows, _), s in zip(children, searched) if s], order))
        for (rows, child), s in zip(children, searched):
            stack.append((rows, depth + 1, child, next(orders) if s else None))
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

    def __init__(self, criterion="gini", max_features="auto", seed=0, max_depth=None):
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.max_features = max_features
        self.seed = int(seed)
        self.max_depth = max_depth

    def _fit(self, X, codes):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))
        K = len(self.classes_)
        self.nodes_ = grow_classification(X, codes, K, self.criterion, self.max_features, self.max_depth, rng)

    def _predict_codes(self, X):
        return tree_apply(self.nodes_, X).astype(np.int64)
