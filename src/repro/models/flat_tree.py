"""Flattened-array representation of one particle's tree.

The dynamic tree spends essentially all of its prediction/acquisition time
descending trees: every ``predict()`` and every ALC score routes hundreds of
rows through every particle.  Doing that with per-row Python ``descend()``
loops costs a Python-level branch per (row, level, particle); compiling each
particle's ``_Node`` tree once into flat NumPy arrays turns the same work
into a handful of vectorized gathers per tree *level*.

:class:`FlatTree` stores, per node, ``split_dim`` (``-1`` for leaves),
``split_value`` and ``left``/``right`` child indices, and per *leaf* a row
of cached posterior statistics in a
:class:`~repro.models.leaf.LeafCacheArrays`: the posterior-predictive mean,
variance and observation count of its
:class:`~repro.models.leaf.GaussianLeafModel`, plus the value-independent
terms of the predictive log-pdf consumed by the batched SMC reweight step.
:meth:`route` descends all rows level-by-level with array ops and returns
**stable integer leaf ids** (positions in pre-order), which downstream code
uses instead of fragile ``id(node)`` dictionary keys.

:class:`FlatForest` concatenates every particle's compilation, and its
:meth:`~FlatForest.route` numbers the forest's distinct subtrees once
(:class:`_SharedSubtrees`) so each row visits each distinct subtree once.

A ``FlatTree`` is a one-off compilation — the reference the model's live
forest is checked against, and how that forest is first built.  The live
forest is an :class:`IncrementalForest`: every particle's compilation in
one padded segment of a :class:`FlatForest`, edited in place by each SMC
update (stay-move row patches, grow/prune splices, resample gathers), so
the model never recompiles a particle once its forest exists.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .compiled_kernels import route_all_numpy
from .leaf import GaussianLeafModel, LeafCacheArrays

__all__ = ["FlatTree", "FlatForest", "IncrementalForest"]


class FlatTree:
    """Array-of-structs compilation of one particle tree.

    Attributes
    ----------
    split_dim:
        ``(n_nodes,)`` int array; the splitting feature of internal nodes,
        ``-1`` for leaves.
    split_value:
        ``(n_nodes,)`` float array; the threshold of internal nodes.
    left, right:
        ``(n_nodes,)`` int arrays; child node indices (``-1`` for leaves).
    leaf_slot:
        ``(n_nodes,)`` int array mapping a node index to its leaf id
        (``-1`` for internal nodes).  Leaf ids number the leaves in
        pre-order, so they are stable for a given structure.
    caches:
        :class:`~repro.models.leaf.LeafCacheArrays` with one row per leaf
        id (``leaf_mean``/``leaf_variance``/``leaf_count`` are views of it,
        kept for the established attribute surface).
    """

    __slots__ = (
        "split_dim",
        "split_value",
        "left",
        "right",
        "leaf_slot",
        "caches",
        "leaf_nodes",
        "n_nodes",
        "n_leaves",
        "_nav",
    )

    def __init__(
        self,
        split_dim: np.ndarray,
        split_value: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        leaf_slot: np.ndarray,
        caches: LeafCacheArrays,
        leaf_nodes: Optional[list] = None,
    ) -> None:
        self.split_dim = split_dim
        self.split_value = split_value
        self.left = left
        self.right = right
        self.leaf_slot = leaf_slot
        self.caches = caches
        # Leaf id -> the particle's ``_Node`` leaf, in pre-order (``None``
        # for compilations whose caller did not supply the mapping); an
        # IncrementalForest built from the compilation keeps it as its
        # leaf-node column.
        self.leaf_nodes = leaf_nodes
        self.n_nodes = int(split_dim.shape[0])
        self.n_leaves = len(caches)
        # Plain-list mirror of the structure arrays for scalar descents:
        # Python-list indexing beats numpy scalar extraction several-fold
        # at route_one's grain.  Built lazily: most compilations never take
        # a scalar descent.
        self._nav: Optional[Tuple[list, list, list, list, list]] = None

    @property
    def leaf_mean(self) -> np.ndarray:
        return self.caches.mean

    @property
    def leaf_variance(self) -> np.ndarray:
        return self.caches.variance

    @property
    def leaf_count(self) -> np.ndarray:
        return self.caches.count

    # ---------------------------------------------------------- compilation

    @classmethod
    def compile(cls, root) -> "FlatTree":
        """Lower a ``_Node`` tree into flat arrays (pre-order numbering)."""
        split_dim: List[int] = []
        split_value: List[float] = []
        left: List[int] = []
        right: List[int] = []
        leaf_slot: List[int] = []
        leaves: List[GaussianLeafModel] = []
        leaf_nodes: List = []

        def visit(node) -> int:
            index = len(split_dim)
            if node.leaf is not None:
                split_dim.append(-1)
                split_value.append(0.0)
                left.append(-1)
                right.append(-1)
                leaf_slot.append(len(leaves))
                leaves.append(node.leaf)
                leaf_nodes.append(node)
            else:
                split_dim.append(int(node.split_dim))
                split_value.append(float(node.split_value))
                left.append(-1)
                right.append(-1)
                leaf_slot.append(-1)
                left[index] = visit(node.left)
                right[index] = visit(node.right)
            return index

        visit(root)
        return cls(
            split_dim=np.asarray(split_dim, dtype=np.intp),
            split_value=np.asarray(split_value, dtype=float),
            left=np.asarray(left, dtype=np.intp),
            right=np.asarray(right, dtype=np.intp),
            leaf_slot=np.asarray(leaf_slot, dtype=np.intp),
            caches=LeafCacheArrays.from_leaves(leaves),
            leaf_nodes=leaf_nodes,
        )

    # -------------------------------------------------------------- queries

    def route(self, X: np.ndarray) -> np.ndarray:
        """Leaf ids of every row of ``X``, descending level-by-level.

        All rows start at the root; at each iteration the rows still sitting
        on an internal node are compared against that node's threshold in
        one vectorized gather, and rows that reach a leaf drop out.  The
        loop count is the tree depth, not the number of rows.
        """
        X = np.atleast_2d(X)
        n = X.shape[0]
        nodes = np.zeros(n, dtype=np.intp)
        active = np.flatnonzero(self.split_dim[nodes] >= 0)
        while active.size:
            current = nodes[active]
            dims = self.split_dim[current]
            go_left = X[active, dims] <= self.split_value[current]
            nodes[active] = np.where(go_left, self.left[current], self.right[current])
            still_internal = self.split_dim[nodes[active]] >= 0
            active = active[still_internal]
        return self.leaf_slot[nodes]

    def route_one(self, x) -> int:
        """Leaf id of a single feature vector (scalar descent, no row setup).

        ``x`` may be an array or a plain sequence; callers descending many
        trees pass ``x.tolist()`` once so every comparison is
        float-against-float.
        """
        nav = self._nav
        if nav is None:
            nav = self._nav = (
                self.split_dim.tolist(),
                self.split_value.tolist(),
                self.left.tolist(),
                self.right.tolist(),
                self.leaf_slot.tolist(),
            )
        split_dim, split_value, left, right, leaf_slot = nav
        index = 0
        dim = split_dim[0]
        while dim >= 0:
            index = left[index] if x[dim] <= split_value[index] else right[index]
            dim = split_dim[index]
        return leaf_slot[index]

    def predict_components(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cached posterior-predictive ``(mean, variance)`` of every row."""
        leaf_ids = self.route(X)
        return self.caches.mean[leaf_ids], self.caches.variance[leaf_ids]


class FlatForest:
    """All of a model's particle trees concatenated into one array set.

    Per-particle :class:`FlatTree` routing still pays a fixed NumPy
    dispatch cost per (particle, level); at bench scale (tens of particles,
    tens of rows) that overhead dominates.  The forest concatenates every
    particle's node and leaf arrays — child indices and leaf ids shifted by
    per-particle offsets — so one :meth:`route` call serves all
    ``n_particles × n_rows`` (particle, row) pairs together, routing each
    row through each *distinct* subtree of the forest once (see
    :class:`_SharedSubtrees`).

    Leaf ids returned by the forest are *global*: particle ``p``'s local
    leaf ``i`` becomes ``leaf_offsets[p] + i``.  ``n_leaves`` is the total,
    so a single ``bincount`` aggregates per-leaf statistics across the whole
    forest without per-particle bookkeeping.
    """

    __slots__ = (
        "split_dim",
        "split_value",
        "left",
        "right",
        "leaf_slot",
        "caches",
        "roots",
        "leaf_offsets",
        "n_particles",
        "n_leaves",
        "_subtrees",
    )

    def __init__(
        self,
        split_dim: np.ndarray,
        split_value: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        leaf_slot: np.ndarray,
        caches: LeafCacheArrays,
        roots: np.ndarray,
        leaf_offsets: np.ndarray,
    ) -> None:
        self.split_dim = split_dim
        self.split_value = split_value
        self.left = left
        self.right = right
        self.leaf_slot = leaf_slot
        self.caches = caches
        self.roots = roots
        self.leaf_offsets = leaf_offsets
        self.n_particles = int(roots.shape[0])
        self.n_leaves = len(caches)
        # The forest's distinct subtrees (see :class:`_SharedSubtrees`), built
        # on the first route and dropped whenever a segment's structure is
        # rewritten; leaf-cache patches leave it valid.
        self._subtrees: Optional[_SharedSubtrees] = None

    def __getstate__(self):
        # The subtree numbering is derived from the node arrays: keep it out of
        # pickles (checkpoints) and rebuild it on the first route after load.
        return None, {
            name: getattr(self, name) for name in self.__slots__ if name != "_subtrees"
        }

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self._subtrees = None

    @property
    def leaf_mean(self) -> np.ndarray:
        return self.caches.mean

    @property
    def leaf_variance(self) -> np.ndarray:
        return self.caches.variance

    @property
    def leaf_count(self) -> np.ndarray:
        return self.caches.count

    @classmethod
    def from_trees(cls, trees: Sequence[FlatTree]) -> "FlatForest":
        """Concatenate per-particle compilations, shifting indices by offsets."""
        if not trees:
            raise ValueError("a forest needs at least one tree")
        node_counts = np.asarray([tree.n_nodes for tree in trees], dtype=np.intp)
        leaf_counts = np.asarray([tree.n_leaves for tree in trees], dtype=np.intp)
        node_offsets = np.concatenate([[0], np.cumsum(node_counts[:-1])]).astype(np.intp)
        leaf_offsets = np.concatenate([[0], np.cumsum(leaf_counts[:-1])]).astype(np.intp)
        # Shift child/leaf indices by their tree's offset in one vectorized
        # pass over the concatenated arrays (a per-tree np.where would pay
        # thousands of numpy dispatches per forest rebuild at paper-scale
        # particle counts).
        node_shift = np.repeat(node_offsets, node_counts)
        leaf_shift = np.repeat(leaf_offsets, node_counts)
        left = np.concatenate([tree.left for tree in trees])
        right = np.concatenate([tree.right for tree in trees])
        leaf_slot = np.concatenate([tree.leaf_slot for tree in trees])
        left = np.where(left >= 0, left + node_shift, -1)
        right = np.where(right >= 0, right + node_shift, -1)
        leaf_slot = np.where(leaf_slot >= 0, leaf_slot + leaf_shift, -1)
        return cls(
            split_dim=np.concatenate([tree.split_dim for tree in trees]),
            split_value=np.concatenate([tree.split_value for tree in trees]),
            left=left,
            right=right,
            leaf_slot=leaf_slot,
            caches=LeafCacheArrays.concatenate([tree.caches for tree in trees]),
            roots=node_offsets,
            leaf_offsets=leaf_offsets,
        )

    def route(self, X: np.ndarray) -> np.ndarray:
        """Global leaf ids, shape ``(n_particles, n_rows)``.

        Each distinct subtree of the forest routes every row once (see
        :class:`_SharedSubtrees`), and particle ``p``'s ids are its root
        subtree's row of local leaf ids plus ``leaf_offsets[p]``.
        """
        subtrees = self._subtrees
        if subtrees is None:
            subtrees = self._subtrees = _SharedSubtrees(self)
        table = subtrees.leaf_table(np.atleast_2d(X))
        return table[subtrees.root_ids] + self.leaf_offsets[:, None]

    def route_one(self, x: np.ndarray) -> np.ndarray:
        """Global leaf ids of ONE row routed through every tree, shape ``(n_particles,)``.

        This is the one-row-many-trees kernel behind the batched SMC update:
        reweighting and the propagate front-end both need "which leaf holds
        ``x``" for every particle.  The descent lives in
        :func:`repro.models.compiled_kernels.route_all_numpy` (shared with
        the jitted backends), which advances all particles together in
        depth-many vectorized steps instead of ``n_particles`` Python
        descents.
        """
        return route_all_numpy(
            self.split_dim,
            self.split_value,
            self.left,
            self.right,
            self.leaf_slot,
            self.roots,
            x,
        )

    def predict_components(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-particle predictive ``(mean, variance)``, each ``(n_particles, n_rows)``."""
        leaf_ids = self.route(X)
        return self.caches.mean[leaf_ids], self.caches.variance[leaf_ids]


class _SharedSubtrees:
    """The distinct subtrees of a :class:`FlatForest`.

    Routing is pure structure, and a particle forest is highly redundant:
    resampling duplicates whole trees and later moves on the copies leave
    most of their subtrees intact, so a grown paper-scale state holds a few
    thousand distinct internal subtrees among tens of thousands of internal
    nodes.  The forest's reachable internal nodes are hash-consed
    bottom-up, one depth at a time, on the key ``(split dim, split value,
    left id, right id)``.  Every leaf — padding nodes of an
    :class:`IncrementalForest` included — has id 0, and ids
    ``1..n_subtrees-1`` are issued deepest level first, so a subtree's
    children always carry smaller ids than it does.  ``-0.0`` thresholds are
    folded into ``0.0``: the two route every row alike.  Grouping by depth
    rather than by height needs no height pass and keeps the sharing that
    resampling creates — grow, prune and stay moves never change the depth
    of an existing subtree, so copies of one subtree sit at one depth — at
    the price of separate ids for equal subtrees that arose at different
    depths (about 10 % more subtrees on a grown paper-scale state).

    :meth:`leaf_table` then routes every row through each distinct subtree
    exactly once, a level at a time.
    """

    __slots__ = (
        "root_ids",
        "split_dim",
        "split_value",
        "left",
        "right",
        "left_leaves",
        "bounds",
    )

    def __init__(self, forest: FlatForest) -> None:
        split_dim = forest.split_dim
        left = forest.left
        right = forest.right
        # Reachable internal nodes, one array per depth.
        internal = split_dim >= 0
        levels = []
        frontier = forest.roots[internal[forest.roots]]
        while frontier.size:
            levels.append(frontier)
            children = np.concatenate((left[frontier], right[frontier]))
            frontier = children[internal[children]]
        levels.reverse()
        nodes = np.concatenate(levels) if levels else np.empty(0, dtype=np.intp)

        # One key column per node, deepest level first, behind a column of
        # zeros that stands for the leaf (subtree 0).  Row 4 rides along
        # unkeyed: the leaf count of the node's left subtree, which in a
        # pre-order layout spans node indices ``left .. right - 1``.
        keys = np.empty((5, nodes.shape[0] + 1), dtype=np.int64)
        keys[:, 0] = 0
        body = keys[:, 1:]
        body[0] = split_dim[nodes]
        body[1] = (forest.split_value[nodes] + 0.0).view(np.int64)
        body[2] = left[nodes]
        body[3] = right[nodes]
        body[4] = (body[3] - body[2] + 1) // 2
        node_ids = np.zeros(split_dim.shape[0], dtype=np.intp)
        first = np.ones(keys.shape[1], dtype=bool)
        bounds = [1]
        start = 1
        for level in levels:
            stop = start + level.shape[0]
            level_keys = keys[:, start:stop]
            level_keys[2:4] = node_ids.take(level_keys[2:4])
            order = np.lexsort(level_keys[:4])
            level_keys[:] = level_keys.take(order, axis=1)
            distinct = first[start:stop]
            np.logical_or.reduce(
                level_keys[:4, 1:] != level_keys[:4, :-1], axis=0, out=distinct[1:]
            )
            ids = distinct.cumsum()
            ids += bounds[-1] - 1
            node_ids[level.take(order)] = ids
            bounds.append(int(ids[-1]) + 1)
            start = stop
        unique = keys[:, first]
        self.root_ids = node_ids[forest.roots]
        self.split_dim = unique[0]
        self.split_value = unique[1].view(np.float64)
        self.left = unique[2]
        self.right = unique[3]
        self.left_leaves = unique[4].astype(np.int32)
        self.bounds = bounds

    def leaf_table(self, X: np.ndarray) -> np.ndarray:
        """``(n_subtrees, n_rows)`` int32 local pre-order leaf ids of every row.

        Row ``u`` holds, for each row of ``X``, the leaf it reaches inside
        subtree ``u`` (row 0, the leaf, is all zeros).  A subtree's row is
        its left child's row where the row goes left and its right child's
        row, shifted past the left child's leaves, where it goes right —
        filled a level at a time with array ops over every subtree of that
        level.
        """
        columns = X.T
        split_dim = self.split_dim
        thresholds = self.split_value[:, None]
        table = np.empty((split_dim.shape[0], X.shape[0]), dtype=np.int32)
        table[0] = 0
        left = self.left
        right = self.right
        left_leaves = self.left_leaves[:, None]
        bounds = self.bounds
        # The comparisons are made a level at a time, so no float
        # ``(n_subtrees, n_rows)`` copy of the rows exists next to the table.
        for start, stop in zip(bounds[:-1], bounds[1:]):
            table[start:stop] = np.where(
                columns[split_dim[start:stop]] <= thresholds[start:stop],
                table.take(left[start:stop], axis=0),
                table.take(right[start:stop], axis=0) + left_leaves[start:stop],
            )
        return table




def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` runs, one per entry."""
    total = int(lengths.sum())
    ends = np.cumsum(lengths)
    return np.arange(total, dtype=np.intp) + np.repeat(starts - (ends - lengths), lengths)


class IncrementalForest:
    """A model's particle forest, edited in place by every SMC update.

    Each particle owns one segment of a padded :class:`FlatForest`: its
    nodes in pre-order from ``forest.roots[p]`` and its leaf cache rows
    from ``forest.leaf_offsets[p]``, followed by padding up to the
    segment's capacity (``~2x`` its live size).  Padding is never
    reachable — children point inside the live prefix and roots sit at
    segment starts — so routing, gathered leaf statistics and ``bincount``
    groupings are exactly those of the tight ``FlatForest.from_trees``
    concatenation; only the numeric values of the global ids differ.
    Padding nodes read as leaves without a slot, and the ``-1`` sentinels
    of live nodes (a leaf's children, an internal node's leaf slot) stay
    ``-1``, so every live segment localises to ``FlatTree.compile`` of its
    particle exactly.

    ``leaf_nodes`` is an object column aligned with the cache rows: the
    particle's ``_Node`` leaf behind each live row (``None`` on padding),
    which the batched update reads each leaf's training-row indices from.

    The update applies its moves as batched array edits: :meth:`patch`
    (stay rows), :meth:`grow` and :meth:`prune` (pre-order splices of the
    changed segments), :meth:`gather` (a resample's segment permutation);
    a grow that overflows a segment first re-lays the whole forest out
    with fresh capacities from its own arrays, amortised over the
    doublings of the trees like a growing array.
    """

    __slots__ = ("forest", "leaf_nodes", "n_nodes", "n_leaves", "node_caps", "leaf_caps")

    #: Rows reserved per segment beyond twice its live size.
    MIN_SLACK = 8

    def __init__(self, trees: Sequence[FlatTree]) -> None:
        self.forest = FlatForest.from_trees(trees)
        self.n_nodes = np.asarray([tree.n_nodes for tree in trees], dtype=np.intp)
        self.n_leaves = np.asarray([tree.n_leaves for tree in trees], dtype=np.intp)
        nodes: list = []
        for tree in trees:
            nodes.extend(tree.leaf_nodes or [None] * tree.n_leaves)
        self.leaf_nodes = np.empty(len(nodes), dtype=object)
        self.leaf_nodes[:] = nodes
        self._relayout(
            np.arange(len(trees), dtype=np.intp),
            self._capacity(self.n_nodes),
            self._capacity(self.n_leaves),
        )

    @property
    def n_particles(self) -> int:
        return self.forest.n_particles

    def copy(self) -> "IncrementalForest":
        """An independent copy (the ``_Node`` objects themselves are shared)."""
        clone = IncrementalForest.__new__(IncrementalForest)
        forest = self.forest
        clone.forest = FlatForest(
            forest.split_dim.copy(),
            forest.split_value.copy(),
            forest.left.copy(),
            forest.right.copy(),
            forest.leaf_slot.copy(),
            forest.caches.copy(),
            forest.roots,
            forest.leaf_offsets,
        )
        # The subtree numbering is never mutated, only dropped and rebuilt.
        clone.forest._subtrees = forest._subtrees
        clone.leaf_nodes = self.leaf_nodes.copy()
        for name in ("n_nodes", "n_leaves", "node_caps", "leaf_caps"):
            setattr(clone, name, getattr(self, name).copy())
        return clone

    @classmethod
    def _capacity(cls, sizes: np.ndarray) -> np.ndarray:
        return 2 * sizes + cls.MIN_SLACK

    def _relayout(
        self, order: np.ndarray, node_caps: np.ndarray, leaf_caps: np.ndarray
    ) -> None:
        """Rebuild the padded arrays: segment ``j`` copied from ``order[j]``,
        with room for ``node_caps[j]`` nodes and ``leaf_caps[j]`` leaf rows."""
        old = self.forest
        n_nodes = self.n_nodes[order]
        n_leaves = self.n_leaves[order]
        roots = np.cumsum(node_caps) - node_caps
        leaf_offsets = np.cumsum(leaf_caps) - leaf_caps
        total_nodes = int(node_caps.sum())
        source = _ranges(old.roots[order], n_nodes)
        dest = _ranges(roots, n_nodes)
        node_shift = np.repeat(roots - old.roots[order], n_nodes)
        leaf_shift = np.repeat(leaf_offsets - old.leaf_offsets[order], n_nodes)
        split_dim = np.full(total_nodes, -1, dtype=np.intp)
        split_value = np.zeros(total_nodes)
        split_dim[dest] = old.split_dim[source]
        split_value[dest] = old.split_value[source]
        pointers = []
        for array, shift in (
            (old.left, node_shift),
            (old.right, node_shift),
            (old.leaf_slot, leaf_shift),
        ):
            moved = np.full(total_nodes, -1, dtype=np.intp)
            values = array[source]
            moved[dest] = np.where(values >= 0, values + shift, -1)
            pointers.append(moved)
        total_leaves = int(leaf_caps.sum())
        leaf_source = _ranges(old.leaf_offsets[order], n_leaves)
        leaf_dest = _ranges(leaf_offsets, n_leaves)
        data = np.zeros((total_leaves, LeafCacheArrays.N_COLUMNS))
        data[leaf_dest] = old.caches.data[leaf_source]
        leaf_nodes = np.full(total_leaves, None, dtype=object)
        leaf_nodes[leaf_dest] = self.leaf_nodes[leaf_source]
        self.forest = FlatForest(
            split_dim, split_value, *pointers, LeafCacheArrays(data), roots, leaf_offsets
        )
        self.leaf_nodes = leaf_nodes
        self.n_nodes = n_nodes
        self.n_leaves = n_leaves
        self.node_caps = node_caps
        self.leaf_caps = leaf_caps

    def gather(self, order: np.ndarray) -> None:
        """Resample: slot ``j`` becomes a copy of slot ``order[j]``.

        Copies keep their source segment's capacity.
        """
        self._relayout(order, self.node_caps[order], self.leaf_caps[order])

    def patch(
        self, slots: np.ndarray, leaf_ids: np.ndarray, rows: np.ndarray, nodes: list
    ) -> None:
        """Stay moves: overwrite leaf ``leaf_ids[j]`` of ``slots[j]`` in place."""
        gids = self.forest.leaf_offsets[slots] + leaf_ids
        self.forest.caches.data[gids] = rows
        self.leaf_nodes[gids] = nodes

    def grow(
        self,
        slots: np.ndarray,
        node_ids: np.ndarray,
        leaf_ids: np.ndarray,
        split_dims: np.ndarray,
        split_values: np.ndarray,
        rows: np.ndarray,
        children: list,
    ) -> None:
        """Split local leaf ``leaf_ids[j]`` (node ``node_ids[j]``) of ``slots[j]``.

        One pre-order splice over every growing segment: nodes after the
        split node shift ``+2`` and leaf rows after the split leaf ``+1``
        (pointers with them), the leaf becomes the split node and its two
        children land right behind it.  ``rows`` holds the left children's
        cache rows, then the right children's; ``children`` the matching
        ``_Node`` objects in the same order.  At most one move per slot.
        """
        grown_nodes = self.n_nodes.copy()
        grown_nodes[slots] += 2
        grown_leaves = self.n_leaves.copy()
        grown_leaves[slots] += 1
        if (
            (grown_nodes > self.node_caps).any()
            or (grown_leaves > self.leaf_caps).any()
        ):
            self._relayout(
                np.arange(self.n_particles, dtype=np.intp),
                self._capacity(grown_nodes),
                self._capacity(grown_leaves),
            )
        forest = self.forest
        n_nodes = self.n_nodes[slots]
        pivots = forest.roots[slots] + node_ids
        leaf_pivots = forest.leaf_offsets[slots] + leaf_ids
        source = _ranges(forest.roots[slots], n_nodes)
        node_pivot = np.repeat(pivots, n_nodes)
        dest = source + 2 * (source > node_pivot)
        forest.split_dim[dest] = forest.split_dim[source]
        forest.split_value[dest] = forest.split_value[source]
        for array in (forest.left, forest.right):
            values = array[source]
            array[dest] = values + 2 * (values > node_pivot)
        values = forest.leaf_slot[source]
        forest.leaf_slot[dest] = values + (values > np.repeat(leaf_pivots, n_nodes))
        kids = np.concatenate((pivots + 1, pivots + 2))
        forest.split_dim[pivots] = split_dims
        forest.split_value[pivots] = split_values
        forest.left[pivots] = pivots + 1
        forest.right[pivots] = pivots + 2
        forest.leaf_slot[pivots] = -1
        forest.split_dim[kids] = -1
        forest.split_value[kids] = 0.0
        forest.left[kids] = -1
        forest.right[kids] = -1
        forest.leaf_slot[kids] = np.concatenate((leaf_pivots, leaf_pivots + 1))
        tail = _ranges(leaf_pivots + 1, self.n_leaves[slots] - leaf_ids - 1)
        data = forest.caches.data
        data[tail + 1] = data[tail]
        self.leaf_nodes[tail + 1] = self.leaf_nodes[tail]
        new_rows = np.concatenate((leaf_pivots, leaf_pivots + 1))
        data[new_rows] = rows
        self.leaf_nodes[new_rows] = children
        self.n_nodes = grown_nodes
        self.n_leaves = grown_leaves
        forest._subtrees = None

    def prune(
        self, slots: np.ndarray, node_ids: np.ndarray, rows: np.ndarray, nodes: list
    ) -> None:
        """Collapse split node ``node_ids[j]`` of ``slots[j]`` (two leaf children).

        The inverse splice of :meth:`grow`: the children's two nodes and
        two leaf rows are cut out, later nodes shift ``-2`` and later rows
        ``-1``, and the node becomes a leaf holding ``rows[j]`` (its
        ``_Node`` is ``nodes[j]``).  The freed tail entries become padding.
        """
        forest = self.forest
        roots = forest.roots[slots]
        n_nodes = self.n_nodes[slots]
        pivots = roots + node_ids
        leaf_pivots = forest.leaf_slot[pivots + 1]
        source = _ranges(roots, n_nodes)
        node_pivot = np.repeat(pivots, n_nodes)
        keep = (source <= node_pivot) | (source > node_pivot + 2)
        source = source[keep]
        node_pivot = node_pivot[keep]
        dest = source - 2 * (source > node_pivot)
        forest.split_dim[dest] = forest.split_dim[source]
        forest.split_value[dest] = forest.split_value[source]
        for array in (forest.left, forest.right):
            values = array[source]
            array[dest] = values - 2 * (values > node_pivot + 2)
        values = forest.leaf_slot[source]
        leaf_pivot = np.repeat(leaf_pivots, n_nodes)[keep]
        forest.leaf_slot[dest] = values - (values > leaf_pivot + 1)
        freed = np.concatenate((roots + n_nodes - 2, roots + n_nodes - 1))
        for array, value in (
            (forest.split_dim, -1),
            (forest.split_value, 0.0),
            (forest.left, -1),
            (forest.right, -1),
        ):
            array[pivots] = value
            array[freed] = value
        forest.leaf_slot[pivots] = leaf_pivots
        forest.leaf_slot[freed] = -1
        leaf_ends = forest.leaf_offsets[slots] + self.n_leaves[slots]
        tail = _ranges(leaf_pivots + 2, leaf_ends - leaf_pivots - 2)
        data = forest.caches.data
        data[tail - 1] = data[tail]
        self.leaf_nodes[tail - 1] = self.leaf_nodes[tail]
        data[leaf_pivots] = rows
        self.leaf_nodes[leaf_pivots] = nodes
        self.leaf_nodes[leaf_ends - 1] = None
        self.n_nodes[slots] -= 2
        self.n_leaves[slots] -= 1
        forest._subtrees = None
