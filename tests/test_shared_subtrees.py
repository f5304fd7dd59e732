"""Property tests for the shared-subtree forest router.

``FlatForest.route`` hash-conses the forest's distinct subtrees and routes
every row through each of them once (``_SharedSubtrees``).  Its leaf ids
must equal the two oracles it replaced on the hot path: per-particle
``FlatTree.route`` plus the particle's ``leaf_offsets`` entry, and the
per-node ``_Node.descend`` reference.  The forests under test come from
real update sequences (so resampled duplicate structures are present),
from the model's in-place forest across grow/prune splices and capacity
re-layouts, from ``FlatForest.from_trees``, and from hand-built trees that put
``0.0``/``-0.0`` thresholds and rows exactly on them.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.dynamic_tree import (
    _ROW_SUM_WIDTH,
    DynamicTreeConfig,
    DynamicTreeRegressor,
)
from repro.models.flat_tree import (
    FlatForest,
    FlatTree,
    IncrementalForest,
    _SharedSubtrees,
)
from repro.models.leaf import LeafCacheArrays

#: Feature values drawn from a small grid, so split thresholds repeat
#: across particles and probe rows land exactly on them.  The denormal
#: pair makes the grow proposal's midpoint threshold ``-0.0`` as well as
#: ``0.0``.
GRID = np.array([-1.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 0.5, 1.0])


def _model(seed, particles, resample_threshold):
    return DynamicTreeRegressor(
        DynamicTreeConfig(n_particles=particles, resample_threshold=resample_threshold),
        rng=np.random.default_rng(seed),
    )


def _training_data(seed, size, dims=3):
    rng = np.random.default_rng(seed)
    X = rng.choice(GRID, size=(size, dims))
    y = np.where(X[:, 0] > 0, 1.5, -0.5) + 0.3 * X[:, 1] + rng.normal(0, 0.05, size)
    return X, y


def _probes(forest, rng, n_rows, dims=3):
    """Rows on the grid, with some columns set exactly to split thresholds."""
    X = rng.choice(GRID, size=(n_rows, dims))
    thresholds = forest.split_value[forest.split_dim >= 0]
    if thresholds.size:
        on_split = rng.random(size=X.shape) < 0.5
        X[on_split] = rng.choice(thresholds, size=int(on_split.sum()))
    return X


def _assert_matches_oracles(forest, trees, X, roots=None):
    ids = forest.route(X)
    assert ids.shape == (len(trees), X.shape[0])
    for p, tree in enumerate(trees):
        local = tree.route(X)
        np.testing.assert_array_equal(ids[p] - forest.leaf_offsets[p], local)
        # The global id addresses this particle's own cache row.
        np.testing.assert_array_equal(
            forest.caches.data[ids[p]], tree.caches.data[local]
        )
        if roots is not None:
            leaves = roots[p].leaves()
            expected = [leaves.index(roots[p].descend(x)) for x in X]
            np.testing.assert_array_equal(local, expected)


def _n_subtrees(forest):
    """Distinct subtrees of ``forest``, the leaf (subtree 0) included."""
    return _SharedSubtrees(forest).split_dim.shape[0]


def _model_forest(model):
    forest = model._ensure_forest()
    trees = [FlatTree.compile(root) for root in model._particles]
    return forest, trees


class TestGrownForests:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        particles=st.integers(1, 10),
        size=st.integers(2, 40),
        resample_threshold=st.sampled_from([0.5, 1.0]),
        n_rows=st.integers(1, 12),
    )
    def test_route_matches_per_tree_and_node_oracles(
        self, seed, particles, size, resample_threshold, n_rows
    ):
        X, y = _training_data(seed, size)
        model = _model(seed, particles, resample_threshold)
        model.fit(X, y)
        forest, trees = _model_forest(model)
        assert forest is model._particle_forest.forest
        probes = _probes(forest, np.random.default_rng(seed + 1), n_rows)
        _assert_matches_oracles(forest, trees, probes, roots=model._particles)

    def test_resampled_duplicates_share_subtrees(self):
        """A resample-every-update run leaves duplicate structures, which the
        router stores once."""
        X, y = _training_data(3, 60)
        model = _model(4, 30, resample_threshold=1.0)
        model.fit(X, y)
        forest, trees = _model_forest(model)
        structures = {tree.split_dim.tobytes() + tree.split_value.tobytes() for tree in trees}
        assert len(structures) < len(trees)
        internal_nodes = sum(int((tree.split_dim >= 0).sum()) for tree in trees)
        assert 1 < _n_subtrees(forest) < internal_nodes + 1
        _assert_matches_oracles(forest, trees, X[:15], roots=model._particles)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), particles=st.integers(1, 8))
    def test_incremental_syncs(self, seed, particles):
        """Route after every update: grow/prune splices and resample gathers
        must drop the cached subtrees, stay-move row patches must not need
        to."""
        X, y = _training_data(seed, 50)
        model = _model(seed, particles, resample_threshold=0.7)
        model.fit(X[:6], y[:6])
        rng = np.random.default_rng(seed + 2)
        for i in range(6, 50):
            model.update(X[i], float(y[i]))
            forest, trees = _model_forest(model)
            probes = _probes(forest, rng, 6)
            _assert_matches_oracles(forest, trees, probes)
            # A second route reuses the cached subtrees.
            np.testing.assert_array_equal(forest.route(X[:4]), forest.route(X[:4]))
        _assert_matches_oracles(forest, trees, X[:10], roots=model._particles)

    def test_capacity_rebuild(self):
        """Trees outgrowing their segments force a re-layout of the forest;
        routing stays exact across the switch."""
        rng = np.random.default_rng(0)
        X = rng.uniform(-1.5, 1.5, size=(60, 3))
        y = 1.0 + 0.3 * X[:, 0] + np.where(X[:, 1] > 0, 0.5, 0.0) + rng.normal(0, 0.05, 60)
        model = _model(3, 8, resample_threshold=0.5)
        model.fit(X[:10], y[:10])
        first_caps = model._particle_forest.node_caps
        for i in range(10, 60):
            model.update(X[i], float(y[i]))
            forest, trees = _model_forest(model)
            _assert_matches_oracles(forest, trees, X[:8])
        assert model._particle_forest.node_caps.max() > first_caps.max()
        _assert_matches_oracles(forest, trees, X[:8], roots=model._particles)

    def test_from_trees_forest(self):
        X, y = _training_data(8, 50)
        model = _model(9, 12, resample_threshold=0.5)
        model.fit(X, y)
        _, trees = _model_forest(model)
        forest = FlatForest.from_trees(trees)
        _assert_matches_oracles(forest, trees, X[:20], roots=model._particles)


def _leaf_caches(n_leaves, base):
    data = np.zeros((n_leaves, LeafCacheArrays.N_COLUMNS))
    data[:, LeafCacheArrays.MEAN] = base + np.arange(n_leaves)
    return LeafCacheArrays(data)


def _stump(value, base):
    """Root split on feature 0 at ``value`` with two leaves."""
    return FlatTree(
        split_dim=np.array([0, -1, -1], dtype=np.intp),
        split_value=np.array([value, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.intp),
        right=np.array([2, -1, -1], dtype=np.intp),
        leaf_slot=np.array([-1, 0, 1], dtype=np.intp),
        caches=_leaf_caches(2, base),
    )


def _single_leaf(base):
    return FlatTree(
        split_dim=np.array([-1], dtype=np.intp),
        split_value=np.zeros(1),
        left=np.array([-1], dtype=np.intp),
        right=np.array([-1], dtype=np.intp),
        leaf_slot=np.array([0], dtype=np.intp),
        caches=_leaf_caches(1, base),
    )


def _forests(trees):
    return [FlatForest.from_trees(trees), IncrementalForest(trees).forest]


class TestHandBuiltForests:
    def test_signed_zero_thresholds_share_one_subtree(self):
        trees = [_stump(0.0, 0.0), _stump(-0.0, 10.0), _stump(0.0, 20.0)]
        X = np.array([[-1.0], [-5e-324], [-0.0], [0.0], [5e-324], [1.0]])
        for forest in _forests(trees):
            assert _n_subtrees(forest) == 2
            _assert_matches_oracles(forest, trees, X)
            ids = forest.route(X) - forest.leaf_offsets[:, None]
            np.testing.assert_array_equal(ids[0], [0, 0, 0, 0, 1, 1])
            np.testing.assert_array_equal(ids[1], ids[0])

    def test_single_leaf_forest(self):
        trees = [_single_leaf(0.0), _single_leaf(5.0)]
        for forest in _forests(trees):
            assert _n_subtrees(forest) == 1
            for X in (np.zeros((1, 2)), np.ones((4, 2))):
                ids = forest.route(X)
                np.testing.assert_array_equal(
                    ids, np.repeat(forest.leaf_offsets[:, None], X.shape[0], axis=1)
                )

    def test_mixed_single_leaf_and_split_trees(self):
        trees = [_single_leaf(0.0), _stump(0.5, 1.0), _single_leaf(2.0)]
        X = np.array([[0.5], [0.25], [0.75]])
        for forest in _forests(trees):
            _assert_matches_oracles(forest, trees, X)

    def test_one_row_vector_input(self):
        trees = [_stump(0.5, 0.0), _single_leaf(3.0)]
        for forest in _forests(trees):
            ids = forest.route(np.array([0.5]))
            assert ids.shape == (2, 1)
            _assert_matches_oracles(forest, trees, np.array([[0.5]]))

    def test_pickles_leave_the_subtree_cache_out(self):
        trees = [_stump(0.5, 0.0), _stump(0.5, 2.0), _single_leaf(4.0)]
        X = np.array([[0.25], [0.75]])
        for forest in _forests(trees):
            routed = forest.route(X)
            assert forest._subtrees is not None
            restored = pickle.loads(pickle.dumps(forest, protocol=pickle.HIGHEST_PROTOCOL))
            assert restored._subtrees is None
            np.testing.assert_array_equal(restored.route(X), routed)


class TestAlcBitIdentity:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        particles=st.integers(1, 10),
        size=st.integers(2, 40),
        resample_threshold=st.sampled_from([0.5, 1.0]),
        n_candidates=st.integers(1, 12),
        n_reference=st.integers(1, 8),
    )
    def test_exact_mode_matches_reference_bit_for_bit(
        self,
        seed,
        particles,
        size,
        resample_threshold,
        n_candidates,
        n_reference,
    ):
        X, y = _training_data(seed, size)
        model = _model(seed, particles, resample_threshold)
        assert model.config.float_mode == "exact"
        model.fit(X, y)
        rng = np.random.default_rng(seed + 3)
        forest = model._ensure_forest()
        candidates = _probes(forest, rng, n_candidates)
        reference = _probes(forest, rng, n_reference)
        fast = model.expected_average_variance(candidates, reference)
        slow = model.expected_average_variance_reference(candidates, reference)
        assert np.array_equal(fast, slow)

    def test_wide_batches_sum_particles_row_by_row_exactly(self):
        """From ``_ROW_SUM_WIDTH`` columns on, the particle sums add one row
        at a time; predictions and ALC scores stay bit-identical to the
        reference loops on both sides of that width."""
        X, y = _training_data(11, 30)
        model = _model(12, 40, resample_threshold=0.5)
        model.fit(X, y)
        rng = np.random.default_rng(13)
        forest = model._ensure_forest()
        candidates = _probes(forest, rng, _ROW_SUM_WIDTH + 12)
        reference = _probes(forest, rng, 6)
        for batch in (candidates, candidates[: _ROW_SUM_WIDTH - 1]):
            assert np.array_equal(
                model.expected_average_variance(batch, reference),
                model.expected_average_variance_reference(batch, reference),
            )
        for rows in (candidates, candidates[:1]):
            fast = model.predict(rows)
            slow = model.predict_reference(rows)
            assert np.array_equal(fast.mean, slow.mean)
            assert np.array_equal(fast.variance, slow.variance)
