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

A flat tree stays valid as long as the particle's *structure* is unchanged:
a "stay" move only sharpens one leaf's sufficient statistics, which
:meth:`patch_leaf` mirrors in O(1) without recompiling; "grow"/"prune"
moves invalidate the compilation (the owner drops its cache and recompiles
lazily).  Trees duplicated by a particle resample share one compilation
copy-on-write: the owner copies the arrays only when a patch is about to
land on a still-shared tree.
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
        nav: Optional[Tuple[list, list, list, list, list]] = None,
        leaf_nodes: Optional[list] = None,
    ) -> None:
        self.split_dim = split_dim
        self.split_value = split_value
        self.left = left
        self.right = right
        self.leaf_slot = leaf_slot
        self.caches = caches
        # Leaf id -> the particle's ``_Node`` leaf, in pre-order (``None``
        # for compilations whose caller did not supply the mapping).  The
        # batched update's gather phase reads each leaf's training-row
        # indices through this O(1) lookup instead of a Python descent.
        # Entries may reference *shared* nodes after a resample — reads
        # are always safe, mutation must still go through the tree's
        # copy-on-write descent.
        self.leaf_nodes = leaf_nodes
        self.n_nodes = int(split_dim.shape[0])
        self.n_leaves = len(caches)
        # Plain-list mirror of the structure arrays for scalar descents:
        # Python-list indexing beats numpy scalar extraction several-fold
        # at route_one's grain.  Built lazily — the batched update path
        # derives thousands of FlatTrees per update (grow_at/prune_at) and
        # routes through the forest arrays instead, so most compilations
        # never take a scalar descent.  The structure never mutates after
        # compilation, so copies share the mirror.
        self._nav = nav

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

    def copy(self) -> "FlatTree":
        """An independent copy of the mutable state.

        Only the leaf caches and the leaf-node mapping are ever patched in
        place, so the copy shares the (immutable-after-compile) structure
        arrays and the scalar navigation mirror — a resample duplicate
        costs one ``(n_leaves, 9)`` array copy plus one list copy.
        """
        return FlatTree(
            split_dim=self.split_dim,
            split_value=self.split_value,
            left=self.left,
            right=self.right,
            leaf_slot=self.leaf_slot,
            caches=self.caches.copy(),
            nav=self._nav,
            leaf_nodes=list(self.leaf_nodes) if self.leaf_nodes is not None else None,
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

    # ------------------------------------------------------------- patching

    def patch_leaf(self, leaf_id: int, leaf: GaussianLeafModel) -> Tuple[float, ...]:
        """Refresh one leaf's cached statistics after a "stay" move.

        Returns the written cache row (see
        :meth:`~repro.models.leaf.LeafCacheArrays.patch`).
        """
        return self.caches.patch(leaf_id, leaf)

    # ---------------------------------------------------------- derivations

    def grow_at(self, leaf_id: int, node) -> "FlatTree":
        """The compilation of this tree after growing leaf ``leaf_id``.

        ``node`` is the just-split ``_Node`` (its ``split_dim``/``split_value``
        are set and both children are leaves).  Pre-order numbering makes the
        incremental derivation a pair of array splices: the leaf's node index
        ``v`` becomes the internal node, its children land at ``v+1``/``v+2``,
        node indices after ``v`` shift by ``+2`` and leaf ids after ``leaf_id``
        by ``+1``.  The result is bit-identical to ``FlatTree.compile`` on the
        mutated particle — structure arrays and cache rows alike (the new
        leaf rows come from the same memoized ``patch`` path) — at O(n) array
        copies instead of an O(n) *Python recursion* with per-node appends.
        """
        v = int(np.flatnonzero(self.leaf_slot == leaf_id)[0])
        n = self.n_nodes
        split_dim = np.empty(n + 2, dtype=np.intp)
        split_value = np.empty(n + 2)
        left = np.empty(n + 2, dtype=np.intp)
        right = np.empty(n + 2, dtype=np.intp)
        leaf_slot = np.empty(n + 2, dtype=np.intp)

        split_dim[:v] = self.split_dim[:v]
        split_dim[v] = int(node.split_dim)
        split_dim[v + 1] = -1
        split_dim[v + 2] = -1
        split_dim[v + 3 :] = self.split_dim[v + 1 :]

        split_value[:v] = self.split_value[:v]
        split_value[v] = float(node.split_value)
        split_value[v + 1] = 0.0
        split_value[v + 2] = 0.0
        split_value[v + 3 :] = self.split_value[v + 1 :]

        # Only the parent of ``v`` points *at* ``v`` (index unchanged);
        # every pointer beyond ``v`` moves with its target.
        shifted_left = np.where(self.left > v, self.left + 2, self.left)
        shifted_right = np.where(self.right > v, self.right + 2, self.right)
        left[:v] = shifted_left[:v]
        left[v] = v + 1
        left[v + 1] = -1
        left[v + 2] = -1
        left[v + 3 :] = shifted_left[v + 1 :]
        right[:v] = shifted_right[:v]
        right[v] = v + 2
        right[v + 1] = -1
        right[v + 2] = -1
        right[v + 3 :] = shifted_right[v + 1 :]

        shifted_slot = np.where(self.leaf_slot > leaf_id, self.leaf_slot + 1, self.leaf_slot)
        leaf_slot[:v] = shifted_slot[:v]
        leaf_slot[v] = -1
        leaf_slot[v + 1] = leaf_id
        leaf_slot[v + 2] = leaf_id + 1
        leaf_slot[v + 3 :] = shifted_slot[v + 1 :]

        data = np.empty((self.n_leaves + 1, LeafCacheArrays.N_COLUMNS))
        data[:leaf_id] = self.caches.data[:leaf_id]
        data[leaf_id + 2 :] = self.caches.data[leaf_id + 1 :]
        caches = LeafCacheArrays(data)
        caches.patch(leaf_id, node.left.leaf)
        caches.patch(leaf_id + 1, node.right.leaf)
        nodes = self.leaf_nodes
        if nodes is not None:
            nodes = nodes[:leaf_id] + [node.left, node.right] + nodes[leaf_id + 1 :]
        return FlatTree(
            split_dim=split_dim,
            split_value=split_value,
            left=left,
            right=right,
            leaf_slot=leaf_slot,
            caches=caches,
            leaf_nodes=nodes,
        )

    def prune_at(self, left_leaf_id: int, parent_node) -> "FlatTree":
        """The compilation of this tree after pruning a leaf pair.

        ``left_leaf_id`` is the *left* child's leaf id (its sibling is
        ``left_leaf_id + 1``); ``parent_node`` the just-pruned ``_Node``
        (its ``leaf`` holds the merged model).  In pre-order the left child
        immediately follows its parent, so the parent sits at
        ``index(left child) - 1``: the two child rows are cut out, node
        indices beyond them shift ``-2`` and leaf ids beyond the pair shift
        ``-1``.  Bit-identical to recompiling the pruned particle.
        """
        merged_leaf = parent_node.leaf
        v_left = int(np.flatnonzero(self.leaf_slot == left_leaf_id)[0])
        parent = v_left - 1
        n = self.n_nodes
        split_dim = np.empty(n - 2, dtype=np.intp)
        split_value = np.empty(n - 2)
        left = np.empty(n - 2, dtype=np.intp)
        right = np.empty(n - 2, dtype=np.intp)
        leaf_slot = np.empty(n - 2, dtype=np.intp)

        split_dim[:parent] = self.split_dim[:parent]
        split_dim[parent] = -1
        split_dim[parent + 1 :] = self.split_dim[parent + 3 :]

        split_value[:parent] = self.split_value[:parent]
        split_value[parent] = 0.0
        split_value[parent + 1 :] = self.split_value[parent + 3 :]

        # No surviving pointer targets the removed pair (only ``parent``
        # pointed there, and it becomes a leaf), so a single ``> parent+2``
        # shift repairs every remaining pointer.
        shifted_left = np.where(self.left > parent + 2, self.left - 2, self.left)
        shifted_right = np.where(self.right > parent + 2, self.right - 2, self.right)
        left[:parent] = shifted_left[:parent]
        left[parent] = -1
        left[parent + 1 :] = shifted_left[parent + 3 :]
        right[:parent] = shifted_right[:parent]
        right[parent] = -1
        right[parent + 1 :] = shifted_right[parent + 3 :]

        shifted_slot = np.where(
            self.leaf_slot > left_leaf_id + 1, self.leaf_slot - 1, self.leaf_slot
        )
        leaf_slot[:parent] = shifted_slot[:parent]
        leaf_slot[parent] = left_leaf_id
        leaf_slot[parent + 1 :] = shifted_slot[parent + 3 :]

        data = np.empty((self.n_leaves - 1, LeafCacheArrays.N_COLUMNS))
        data[:left_leaf_id] = self.caches.data[:left_leaf_id]
        data[left_leaf_id + 1 :] = self.caches.data[left_leaf_id + 2 :]
        caches = LeafCacheArrays(data)
        caches.patch(left_leaf_id, merged_leaf)
        nodes = self.leaf_nodes
        if nodes is not None:
            nodes = nodes[:left_leaf_id] + [parent_node] + nodes[left_leaf_id + 2 :]
        return FlatTree(
            split_dim=split_dim,
            split_value=split_value,
            left=left,
            right=right,
            leaf_slot=leaf_slot,
            caches=caches,
            leaf_nodes=nodes,
        )


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


class IncrementalForest:
    """A :class:`FlatForest` maintained *in place* across model updates.

    ``FlatForest.from_trees`` touches every node of every particle —
    O(total nodes) of concatenation and index shifting — and the dynamic
    tree used to pay it on the first predict/ALC batch after *every*
    update, even though a typical update only patches one leaf row per
    particle (stay moves) and restructures a handful of particles
    (grow/prune, resample duplicates).  This class keeps the concatenated
    arrays alive between updates and repairs exactly what changed:

    * each particle's segment is allocated with *capacity slack*
      (``~2x`` its node/leaf count), so a recompiled tree that still fits
      is written back into its own segment — O(segment), no other
      particle moves and no offsets change;
    * "stay" moves, the overwhelming majority, arrive as ``(slot,
      leaf_id)`` stale-row records and are repaired by copying single
      cache rows — O(particles) per update instead of O(total nodes);
    * a tree that outgrows its segment (or a particle-count change)
      aborts :meth:`sync`, and the owner rebuilds with fresh capacities —
      amortised over the doublings of the tree, like a growing array.

    Padding entries between a segment's live nodes and its capacity are
    never reachable (children only point inside the live prefix and roots
    sit at segment starts), so the padded arrays behave exactly like the
    tight ``from_trees`` arrays under :meth:`FlatForest.route`: routing
    decisions, gathered leaf statistics and ``bincount`` groupings are
    bit-identical, only the numeric values of the global leaf ids differ.

    Ownership tracking is by object identity: the forest remembers which
    :class:`FlatTree` instance each segment was written from.  A tree
    patched in place (stay move) keeps its identity and reports the
    patched rows through ``stale_rows``; every other change installs a
    *different* ``FlatTree`` object in the slot, which :meth:`sync`
    detects and repairs at the cheapest sufficient grain — a cache-segment
    copy when the structure arrays are shared (copy-on-write cache copies
    after a resample), a full segment rewrite otherwise (grow/prune
    recompilations, resample permutations).
    """

    __slots__ = (
        "forest",
        "_trees",
        "_node_caps",
        "_leaf_caps",
        "_node_offsets",
        "_leaf_offsets",
        "n_particles",
    )

    #: Extra node/leaf rows reserved per segment beyond the current tree
    #: size; a grow move adds two nodes (one leaf), so doubling plus a
    #: small constant gives each particle room for many structural moves
    #: before a full rebuild is needed.
    MIN_SLACK = 8

    def __init__(self, trees: Sequence[FlatTree]) -> None:
        if not trees:
            raise ValueError("a forest needs at least one tree")
        self.n_particles = len(trees)
        self._trees: List[Optional[FlatTree]] = [None] * len(trees)
        node_caps = np.asarray(
            [2 * tree.n_nodes + self.MIN_SLACK for tree in trees], dtype=np.intp
        )
        leaf_caps = np.asarray(
            [2 * tree.n_leaves + self.MIN_SLACK for tree in trees], dtype=np.intp
        )
        node_offsets = np.concatenate([[0], np.cumsum(node_caps[:-1])]).astype(np.intp)
        leaf_offsets = np.concatenate([[0], np.cumsum(leaf_caps[:-1])]).astype(np.intp)
        total_nodes = int(node_caps.sum())
        total_leaves = int(leaf_caps.sum())
        self._node_caps = node_caps
        self._leaf_caps = leaf_caps
        self._node_offsets = node_offsets
        self._leaf_offsets = leaf_offsets
        # Padding nodes are marked as leaves with no slot; they are
        # unreachable by construction, the marks only keep accidental
        # reads well-defined.
        split_dim = np.full(total_nodes, -1, dtype=np.intp)
        split_value = np.zeros(total_nodes)
        left = np.full(total_nodes, -1, dtype=np.intp)
        right = np.full(total_nodes, -1, dtype=np.intp)
        leaf_slot = np.full(total_nodes, -1, dtype=np.intp)
        caches = LeafCacheArrays(np.zeros((total_leaves, LeafCacheArrays.N_COLUMNS)))
        self.forest = FlatForest(
            split_dim=split_dim,
            split_value=split_value,
            left=left,
            right=right,
            leaf_slot=leaf_slot,
            caches=caches,
            roots=node_offsets,
            leaf_offsets=leaf_offsets,
        )
        self._write_segments(list(range(len(trees))), trees)

    def _write_segments(self, slots: List[int], trees: Sequence[FlatTree]) -> None:
        """Install each ``trees[slot]`` into its padded segment, batched.

        One concatenate-and-scatter per field instead of a handful of numpy
        calls per slot, so the cost scales with the *changed* node count
        plus one pass over the changed slots — a sync that repairs 5% of
        the particles pays ~5% of a full rebuild.

        The child/leaf indices are shifted by plain adds with no ``-1``
        masking: a leaf's ``left``/``right`` and an internal node's
        ``leaf_slot`` are never dereferenced (routing only follows children
        of internal nodes and only reads leaf slots of leaves), so the
        shifted ``-1`` sentinels may hold garbage without affecting any
        query — ``split_dim``, the one array routing branches on, is copied
        exactly.
        """
        forest = self.forest
        # The segments get new structure: the cached subtree numbering of
        # :meth:`FlatForest.route` is stale.
        forest._subtrees = None
        source = [trees[slot] for slot in slots]
        slots_arr = np.asarray(slots, dtype=np.intp)
        node_counts = np.asarray([tree.n_nodes for tree in source], dtype=np.intp)
        leaf_counts = np.asarray([tree.n_leaves for tree in source], dtype=np.intp)
        node_offsets = self._node_offsets[slots_arr]
        leaf_offsets = self._leaf_offsets[slots_arr]

        node_shift = np.repeat(node_offsets, node_counts)
        starts = np.cumsum(node_counts) - node_counts
        dest = node_shift + (
            np.arange(int(node_counts.sum()), dtype=np.intp)
            - np.repeat(starts, node_counts)
        )
        forest.split_dim[dest] = np.concatenate([tree.split_dim for tree in source])
        forest.split_value[dest] = np.concatenate(
            [tree.split_value for tree in source]
        )
        forest.left[dest] = (
            np.concatenate([tree.left for tree in source]) + node_shift
        )
        forest.right[dest] = (
            np.concatenate([tree.right for tree in source]) + node_shift
        )
        forest.leaf_slot[dest] = np.concatenate(
            [tree.leaf_slot for tree in source]
        ) + np.repeat(leaf_offsets, node_counts)

        leaf_starts = np.cumsum(leaf_counts) - leaf_counts
        leaf_dest = np.repeat(leaf_offsets, leaf_counts) + (
            np.arange(int(leaf_counts.sum()), dtype=np.intp)
            - np.repeat(leaf_starts, leaf_counts)
        )
        forest.caches.data[leaf_dest] = np.concatenate(
            [tree.caches.data for tree in source], axis=0
        )
        recorded = self._trees
        for slot, tree in zip(slots, source):
            recorded[slot] = tree

    def sync(
        self,
        trees: Sequence[FlatTree],
        stale_rows: "dict[Tuple[int, int], Tuple[float, ...]]",
    ) -> bool:
        """Bring the forest up to date with ``trees``; False forces a rebuild.

        ``trees`` must hold one compiled :class:`FlatTree` per particle, in
        particle order; ``stale_rows`` maps ``(slot, local leaf id)`` to the
        cache-row values patched in place since the last sync (latest patch
        wins, which a dict gives for free), applied as one batched fancy
        assignment.  A tree whose *structure arrays* are unchanged but whose
        cache matrix is a new object (a copy-on-write cache copy after a
        resample) only has its cache segment recopied; a structurally new
        tree gets a full segment rewrite.  Either way the slot's recorded
        stale rows are dropped — the segment copy is the current truth and
        the recorded values may predate it.  Returns ``False`` (leaving the
        forest unusable until rebuilt) when the particle count changed or a
        recompiled tree no longer fits its segment capacity.
        """
        if len(trees) != self.n_particles:
            return False
        recorded = self._trees
        node_caps = self._node_caps
        leaf_caps = self._leaf_caps
        data = self.forest.caches.data
        leaf_offsets = self._leaf_offsets
        changed: List[int] = []
        rewritten: set = set()
        for slot, tree in enumerate(trees):
            known = recorded[slot]
            if tree is known:
                continue
            rewritten.add(slot)
            if known is not None and tree.split_dim is known.split_dim:
                # Copy-on-write cache copy: identical structure, fresh
                # cache matrix — refresh the cache segment only.  (The
                # structure arrays may be shared by a *different* tree that
                # arrived here through a resample, so recorded stale rows
                # for this slot are stale-by-lineage and must be dropped —
                # hence the ``rewritten`` membership above.)
                offset = int(leaf_offsets[slot])
                data[offset : offset + tree.n_leaves] = tree.caches.data
                recorded[slot] = tree
                continue
            if tree.n_nodes > node_caps[slot] or tree.n_leaves > leaf_caps[slot]:
                return False
            changed.append(slot)
        if changed:
            self._write_segments(changed, trees)
        if stale_rows:
            if rewritten:
                items = [
                    (key, row)
                    for key, row in stale_rows.items()
                    if key[0] not in rewritten
                ]
            else:
                items = list(stale_rows.items())
            if items:
                count = len(items)
                slots = np.fromiter(
                    (key[0] for key, _ in items), dtype=np.intp, count=count
                )
                ids = np.fromiter(
                    (key[1] for key, _ in items), dtype=np.intp, count=count
                )
                data[leaf_offsets[slots] + ids] = [row for _, row in items]
        return True
