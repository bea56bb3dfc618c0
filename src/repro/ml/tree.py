"""CART regression trees, grown together by one lockstep builder.

:func:`fit_trees` grows every tree of a forest at once (a single
:class:`DecisionTreeRegressor` is a forest of one). Each round takes
every *ready* node of every tree and runs the split search for the whole
round as a handful of array passes over padded ``(nodes, candidate
features, rows)`` blocks, so the cost per round is a fixed number of NumPy
calls however many nodes it holds. A node is ready when its candidate
features are known: at once for a tree that considers every feature (the
round is the whole frontier of every tree), and in depth-first order,
right child first and one node per tree per round, for a tree that draws
a feature subset per node — its generator is then consumed exactly as a
node-at-a-time builder would consume it. Prediction walks all query rows
through the tree level by level, again vectorized.

Every tree comes out array for array what the node-at-a-time builder
(``tests/tree_oracle.py``) produces, node numbering included; the notes
marked *bitwise* below are what that takes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

_LEAF = -1

# Elements one padded (nodes, candidate features, rows) block of the split
# search may hold: keeps the builder's temporaries at a few MiB however
# many nodes a round has (one node larger than this is a block of its own).
_BLOCK_ELEMS = 1 << 16

# Elements of a block that may be padding: about what one more block's
# fixed cost (some eighty array calls) is worth in element passes, so a
# round of very unequal nodes is cut where padding them alike costs more.
_PAD_ELEMS = 1 << 12

# Columns of the builder's node records.
_GID, _TREE, _START, _SIZE, _DEPTH = range(5)

#: A fitted tree's flat node arrays, one entry per node each.
NODE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples", "mse")


def check_training_data(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``X`` as a C-contiguous float64 matrix and ``y`` as a float64 vector
    of matching, non-zero length — or a :class:`ValueError`."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.ndim != 2 or X.shape[0] != y.size:
        raise ValueError("X must be (n_samples, n_features) matching y")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    return X, y


class Growth(NamedTuple):
    """What one lockstep build produced."""

    trees: list[tuple[np.ndarray, ...]]  # per tree: its NODE_ARRAYS
    nodes: int
    rounds: int
    widest_round: int  # nodes searched in one round, at most
    draws: bool  # whether each node drew its candidate features


class DecisionTreeRegressor:
    """Variance-reduction regression tree (the forest's base learner)."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int | np.random.Generator | None = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = int(min_samples_split)
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = max_features
        self.random_state = random_state
        # flat node arrays, filled by fit()
        self.feature: np.ndarray | None = None
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None
        self.n_samples: np.ndarray | None = None
        self.mse: np.ndarray | None = None

    # -- fitting ------------------------------------------------------------

    def _n_candidate_features(self, n_features: int) -> int:
        mf = self.max_features
        if mf is None or mf == "auto":
            return n_features
        if mf == "sqrt":
            return max(int(np.sqrt(n_features)), 1)
        return max(min(int(mf), n_features), 1)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X, y = check_training_data(X, y)
        fit_trees([self], X, y, np.arange(X.shape[0])[None, :])
        return self

    # -- prediction ----------------------------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.feature is None:
            raise RuntimeError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            internal = self.feature[node] != _LEAF
            if not internal.any():
                break
            rows = np.flatnonzero(internal)
            cur = node[rows]
            go_left = X[rows, self.feature[cur]] <= self.threshold[cur]
            node[rows] = np.where(go_left, self.left[cur], self.right[cur])
        return self.value[node]

    # -- introspection ---------------------------------------------------------

    @property
    def node_count(self) -> int:
        return 0 if self.feature is None else self.feature.size

    @property
    def depth(self) -> int:
        if self.feature is None:
            return 0
        depths = np.zeros(self.node_count, dtype=np.int64)
        best = 0
        for i in range(self.node_count):
            if self.feature[i] != _LEAF:
                depths[self.left[i]] = depths[i] + 1
                depths[self.right[i]] = depths[i] + 1
                best = max(best, depths[i] + 1)
        return best

    def export_text(self, feature_names: list[str] | None = None, max_nodes: int = 64) -> str:
        """Render the tree like the paper's Figure 4 (feature, mse, samples, value)."""
        if self.feature is None:
            return "<unfitted tree>"
        n_features = int(self.feature.max()) + 1 if self.feature.max() >= 0 else 1
        names = feature_names or [f"x{i}" for i in range(n_features)]
        lines: list[str] = []

        def walk(node: int, indent: str) -> None:
            if len(lines) >= max_nodes:
                return
            if self.feature[node] == _LEAF:
                lines.append(
                    f"{indent}leaf: value={self.value[node]:.4g} "
                    f"(mse={self.mse[node]:.3g}, samples={self.n_samples[node]})"
                )
                return
            lines.append(
                f"{indent}{names[self.feature[node]]} <= {self.threshold[node]:.4g} "
                f"(mse={self.mse[node]:.3g}, samples={self.n_samples[node]}, "
                f"value={self.value[node]:.4g})"
            )
            walk(int(self.left[node]), indent + "  ")
            walk(int(self.right[node]), indent + "  ")

        walk(0, "")
        return "\n".join(lines)


# -- the lockstep builder ------------------------------------------------------


def fit_trees(
    trees: list[DecisionTreeRegressor], X: np.ndarray, y: np.ndarray, rows: np.ndarray
) -> Growth:
    """Fit ``trees`` — all with the first one's hyper-parameters — in one
    lockstep build, tree ``t`` on ``X[rows[t]], y[rows[t]]`` with its
    feature draws (if it makes any) from its own ``random_state``. ``X``
    and ``y`` as :func:`check_training_data` returns them."""
    growth = _Build(trees, X, y, rows).run()
    for tree, arrays in zip(trees, growth.trees):
        for name, array in zip(NODE_ARRAYS, arrays):
            setattr(tree, name, array)
    return growth


class _Build:
    """One lockstep build: the shared arrays and the log of what it grew.

    A node is a record ``(gid, tree, start, size, depth)``: its rows are
    ``sample[start:start + size]``, a contiguous segment of its tree's
    stretch of ``sample``, and a split partitions that segment in place.
    ``gid`` numbers nodes across the forest in creation order; the
    per-tree numbering is made at the end (:meth:`assemble`).
    """

    def __init__(self, trees, X, y, rows) -> None:
        proto = trees[0]
        self.n_trees, self.n = rows.shape
        n_rows, self.f = X.shape
        self.k = proto._n_candidate_features(self.f)
        self.max_depth = np.inf if proto.max_depth is None else proto.max_depth
        if self.f == 0:  # nothing to cut on
            self.max_depth = 0
        self.min_leaf = max(proto.min_samples_leaf, 1)
        self.min_size = max(proto.min_samples_split, 2 * self.min_leaf)
        # default_rng hands a Generator back as it is
        self.rngs = (
            [np.random.default_rng(t.random_state) for t in trees] if self.k < self.f else None
        )
        # Padding reads one extra row of X and y, through one extra slot of
        # ``sample`` that always points at it: an x of NaN, which never
        # goes left, and a y of 0.0, which adds nothing to a running sum.
        self.pad_slot = rows.size
        self.sample = np.append(rows.ravel(), n_rows)
        self.x = np.append(X.ravel(), np.full(self.f, np.nan))
        self.y = np.append(y, 0.0)
        # *Bitwise* a stable argsort: a node's rows sort by (rank of x among
        # its column's distinct values, position in the block) packed in
        # one integer — every key distinct, so a plain sort, several times
        # quicker than a stable argsort of the floats, has one answer. NaNs
        # rank alike above every number and the padding above them.
        self.shift = max(_BLOCK_ELEMS, self.n).bit_length()  # bits of a position
        rank = np.empty((n_rows + 1, self.f), dtype=np.int64)
        for j in range(self.f):
            rank[:-1, j] = np.unique(X[:, j], return_inverse=True)[1]
        nan = np.isnan(X)
        rank[:-1][nan] = n_rows
        rank[-1] = n_rows + 1
        self.nan_rank = n_rows if nan.any() else None
        self.key = (rank << self.shift).ravel()
        self.nodes: list[np.ndarray] = []  # records, in gid order
        self.value: list[np.ndarray] = []
        self.mse: list[np.ndarray] = []
        self.splits: list[tuple[np.ndarray, ...]] = []  # (gid, feature, threshold, left gid)
        self.n_nodes = self.n_trees

    def admit(self, nodes: np.ndarray) -> np.ndarray:
        """Log freshly created ``nodes`` with their mean and variance;
        return those that may still split.

        *Bitwise* ``ndarray.mean()`` / ``.var()``: those sum pairwise, with
        an association that depends on the length, which a plain
        ``reduceat`` over concatenated segments does not reproduce. Laid
        out behind one leading ``0.0`` each, ``reduceat`` computes
        ``0 + pairwise(segment)`` — exactly ``ndarray.sum()``.
        """
        size = nodes[:, _SIZE]
        slots = size + 1
        ends = np.cumsum(slots)
        heads = ends - slots
        at = np.arange(ends[-1]) + np.repeat(nodes[:, _START] - 1 - heads, slots)
        at[heads] = self.pad_slot
        vals = self.y.take(self.sample.take(at))
        mean = np.add.reduceat(vals, heads) / size
        vals -= np.repeat(mean, slots)
        vals[heads] = 0.0
        np.square(vals, out=vals)
        var = np.add.reduceat(vals, heads) / size
        self.nodes.append(nodes)
        self.value.append(mean)
        self.mse.append(var)
        return nodes[
            (size >= self.min_size) & (nodes[:, _DEPTH] < self.max_depth) & ~(var <= 1e-30)
        ]

    def split(self, nodes: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Split search for one block of ``nodes`` (largest first) over
        their candidate ``feats``; partitions the segments of those that
        split and returns their children's records, left before right."""
        f, k, x = self.f, self.k, self.x
        b = len(nodes)
        m = nodes[:, _SIZE]
        width = int(m[0])
        r = np.arange(width)
        slot = np.where(r < m[:, None], nodes[:, _START, None] + r, self.pad_slot)
        node_rows = self.sample.take(slot)  # (b, width), node order
        base = node_rows * f
        key = self.key.take(base[:, None, :] + feats[:, :, None])  # (b, k, width)
        key += np.arange(b * width).reshape(b, 1, width)
        key.sort(axis=2)
        at = key & ((1 << self.shift) - 1)  # sorted order, as positions in the block
        key >>= self.shift  # and the ranks in that order
        ys = self.y.take(node_rows).take(at)

        # *bitwise*: cumsum along an axis is sequential per lane, so the
        # padded cumsum equals the node's own; the totals sit at row m - 1
        csum = np.cumsum(ys, axis=2)
        csq = np.cumsum(ys * ys, axis=2)
        last = (np.arange(b * k) * width).reshape(b, k) + (m - 1)[:, None]
        total_sum = csum.take(last)[:, :, None]
        total_sq = csq.take(last)[:, :, None]
        left_sum, left_sq = csum[:, :, :-1], csq[:, :, :-1]
        cut = np.arange(1, width)  # rows left of each cut
        sizes = cut.astype(np.float64)
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        left_sse = left_sq - left_sum**2 / sizes
        right_sse = right_sq - right_sum**2 / (m[:, None, None] - sizes)
        score = left_sse + right_sse
        valid = key[:, :, 1:] != key[:, :, :-1]
        if self.nan_rank is not None:  # NaN != NaN
            valid |= key[:, :, 1:] == self.nan_rank
        valid &= ((cut >= self.min_leaf) & (cut <= (m - self.min_leaf)[:, None]))[:, None, :]
        found = valid.reshape(b, -1).any(axis=1)
        # *bitwise*: a per-node search breaks ties by the flat (row,
        # feature) index, so the argmin runs with the feature axis last
        score = np.where(valid, score, np.inf).transpose(0, 2, 1)
        row, col = np.divmod(score.reshape(b, -1).argmin(axis=1), k)
        lane = np.arange(b) * k + col  # the winning (node, feature) pairs
        fid = feats.take(lane)
        below = lane * width + row  # the row under the cut, in the sorted order
        lower = x.take(base.take(at.take(below)) + fid)
        thr = 0.5 * (lower + x.take(base.take(at.take(below + 1)) + fid))
        x_col = x.take(base + fid[:, None])  # padding is NaN: never goes left
        go_left = x_col <= thr[:, None]
        n_left = go_left.sum(axis=1)
        stuck = (n_left == 0) | (n_left == m)
        if stuck.any():  # the midpoint rounded onto the upper value
            thr = np.where(stuck, lower, thr)
            go_left = x_col <= thr[:, None]
            n_left = go_left.sum(axis=1)
            found &= (n_left > 0) & (n_left < m)

        # *bitwise*: children are a stable partition of the node's row order
        # (ties in their own stable argsort resolve by it)
        part = np.argsort(~go_left, axis=1, kind="stable")
        part += (np.arange(b) * width)[:, None]
        self.sample.put(slot, node_rows.take(part))

        parents, n_left = nodes[found], n_left[found]
        kids = np.repeat(parents, 2, axis=0)
        kids[:, _GID] = self.n_nodes + np.arange(len(kids))
        kids[:, _DEPTH] += 1
        kids[0::2, _SIZE] = n_left
        kids[1::2, _START] += n_left
        kids[1::2, _SIZE] -= n_left
        self.n_nodes += len(kids)
        self.splits.append((parents[:, _GID], fid[found], thr[found], kids[0::2, _GID]))
        return kids

    def run(self) -> Growth:
        n_trees, f, k = self.n_trees, self.f, self.k
        roots = np.zeros((n_trees, 5), dtype=np.int64)
        roots[:, _GID] = roots[:, _TREE] = np.arange(n_trees)
        roots[:, _START] = roots[:, _TREE] * self.n
        roots[:, _SIZE] = self.n
        step = max(_BLOCK_ELEMS // self.n, 1)
        waiting = np.concatenate(
            [self.admit(roots[lo:lo + step]) for lo in range(0, n_trees, step)]
        )
        rounds = widest = 0
        # a padded cut has no right side: its score divides by zero, unread
        with np.errstate(divide="ignore", invalid="ignore"):
            while len(waiting):
                if self.rngs is None:
                    ready, waiting = waiting, waiting[:0]
                    feats = np.broadcast_to(np.arange(f), (len(ready), f))
                else:
                    # each tree's newest waiting node: the top of its
                    # depth-first stack
                    newest = np.full(n_trees, -1)
                    np.maximum.at(newest, waiting[:, _TREE], np.arange(len(waiting)))
                    top = np.zeros(len(waiting), dtype=bool)
                    top[newest[newest >= 0]] = True
                    ready, waiting = waiting[top], waiting[~top]
                    feats = np.concatenate(
                        [self.rngs[t].choice(f, size=k, replace=False) for t in ready[:, _TREE]]
                    ).reshape(-1, k)
                rounds += 1
                widest = max(widest, len(ready))
                by_size = np.argsort(-ready[:, _SIZE], kind="stable")
                ready, feats = ready[by_size], feats[by_size]
                grown = [waiting]
                lo = 0
                while lo < len(ready):
                    width = int(ready[lo, _SIZE])
                    hi = lo + max(_BLOCK_ELEMS // (width * k), 1)
                    padding = np.cumsum(width - ready[lo:hi, _SIZE]) * k
                    hi = lo + max(int(np.searchsorted(padding, _PAD_ELEMS, side="right")), 1)
                    kids = self.split(ready[lo:hi], feats[lo:hi])
                    if len(kids):
                        grown.append(self.admit(kids))
                    lo = hi
                waiting = np.concatenate(grown)
        return Growth(self.assemble(), self.n_nodes, rounds, widest, self.rngs is not None)

    def assemble(self) -> list[tuple[np.ndarray, ...]]:
        """Per-tree ``NODE_ARRAYS`` from the log (which it spends), numbered
        as a depth-first, right-child-first builder numbers them."""
        n_nodes = self.n_nodes
        nodes = np.concatenate(self.nodes)
        del self.nodes
        left = np.full(n_nodes, _LEAF)
        feature = np.full(n_nodes, _LEAF)
        threshold = np.zeros(n_nodes)
        if self.splits:
            gid, fid, thr, kid = (np.concatenate(part) for part in zip(*self.splits))
            left[gid], feature[gid], threshold[gid] = kid, fid, thr
        del self.splits
        local = _local_ids(left, nodes[:, _DEPTH])
        counts = np.bincount(nodes[:, _TREE], minlength=self.n_trees)
        ends = np.cumsum(counts)
        where = (ends - counts)[nodes[:, _TREE]] + local
        leaf = left == _LEAF

        def per_tree(values: np.ndarray) -> list[np.ndarray]:
            placed = np.empty_like(values)
            placed[where] = values
            return np.split(placed, ends[:-1])

        return list(
            zip(
                per_tree(feature),
                per_tree(threshold),
                per_tree(np.where(leaf, _LEAF, local[left])),
                per_tree(np.where(leaf, _LEAF, local[left + 1])),
                per_tree(np.concatenate(self.value)),
                per_tree(nodes[:, _SIZE]),
                per_tree(np.concatenate(self.mse)),
            )
        )


def _local_ids(left: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Each node's id within its tree, given every node's left child
    (``_LEAF`` for none; the right child is the next node) and depth, all
    in forest-wide ids: the root is 0 and the children of the ``i``-th
    splitting node in right-first preorder are ``2i + 1``, ``2i + 2`` —
    the ids a depth-first builder that pushes left, then right, hands out."""
    splitting = np.flatnonzero(left != _LEAF)
    splitting = splitting[np.argsort(depth[splitting], kind="stable")]
    levels = np.split(
        splitting, np.searchsorted(depth[splitting], np.arange(1, depth.max() + 1))
    )
    inner = np.zeros(left.size, dtype=np.int64)  # splitting nodes in the subtree
    for lvl in reversed(levels):
        inner[lvl] = 1 + inner[left[lvl]] + inner[left[lvl] + 1]
    rank = np.zeros(left.size, dtype=np.int64)  # position among its tree's splitting nodes
    local = np.zeros(left.size, dtype=np.int64)
    for lvl in levels:
        rank[left[lvl] + 1] = rank[lvl] + 1
        rank[left[lvl]] = rank[lvl] + 1 + inner[left[lvl] + 1]
        local[left[lvl]] = 2 * rank[lvl] + 1
        local[left[lvl] + 1] = 2 * rank[lvl] + 2
    return local
