"""Equivalence tests for the in-place particle forest.

The batched update keeps every particle in exactly one flat form: its
segment of the model's padded :class:`IncrementalForest`, edited in place
by stay-row patches, grow/prune splices, resample gathers and capacity
re-layouts.  The oracle is a fresh ``FlatTree.compile`` of the particle's
``_Node`` tree: after every update each live segment must equal it bit for
bit — structure arrays, all nine cache columns and the leaf-node column —
and predictions and ALC scores must equal the per-node reference paths.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.dynamic_tree import DynamicTreeConfig, DynamicTreeRegressor
from repro.models.flat_tree import FlatTree, IncrementalForest
from repro.models.leaf import LeafCacheArrays


def _training_data(size, dims=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.5, 1.5, size=(size, dims))
    y = (
        1.0
        + 0.3 * X[:, 0]
        + np.where(X[:, 1] > 0, 0.5, 0.0)
        + rng.normal(0, 0.05, size)
    )
    return X, y


def _model(n_particles=40, seed=3, resample_threshold=0.5, **overrides):
    config = DynamicTreeConfig(
        n_particles=n_particles, resample_threshold=resample_threshold, **overrides
    )
    return DynamicTreeRegressor(config, rng=np.random.default_rng(seed))


def _localised(values, offset):
    return np.where(values >= 0, values - offset, -1)


def assert_segments_match_compilations(model):
    """Every live segment equals ``FlatTree.compile`` of its particle."""
    particles = model._particle_forest
    assert particles is not None
    forest = particles.forest
    assert forest.n_particles == model.n_particles
    assert np.all(particles.n_nodes <= particles.node_caps)
    assert np.all(particles.n_leaves <= particles.leaf_caps)
    for slot, root in enumerate(model._particles):
        fresh = FlatTree.compile(root)
        node_offset = int(forest.roots[slot])
        leaf_offset = int(forest.leaf_offsets[slot])
        assert particles.n_nodes[slot] == fresh.n_nodes
        assert particles.n_leaves[slot] == fresh.n_leaves
        nodes = slice(node_offset, node_offset + fresh.n_nodes)
        leaves = slice(leaf_offset, leaf_offset + fresh.n_leaves)
        np.testing.assert_array_equal(forest.split_dim[nodes], fresh.split_dim)
        np.testing.assert_array_equal(
            forest.split_value[nodes].view(np.int64), fresh.split_value.view(np.int64)
        )
        np.testing.assert_array_equal(
            _localised(forest.left[nodes], node_offset), fresh.left
        )
        np.testing.assert_array_equal(
            _localised(forest.right[nodes], node_offset), fresh.right
        )
        np.testing.assert_array_equal(
            _localised(forest.leaf_slot[nodes], leaf_offset), fresh.leaf_slot
        )
        # Bitwise, all nine columns.
        np.testing.assert_array_equal(
            forest.caches.data[leaves].view(np.int64),
            fresh.caches.data.view(np.int64),
        )
        column = particles.leaf_nodes[leaves].tolist()
        assert len(column) == len(fresh.leaf_nodes)
        assert all(a is b for a, b in zip(column, fresh.leaf_nodes))
        # Padding is never reachable and holds no stale leaf references.
        end = leaf_offset + int(particles.leaf_caps[slot])
        assert all(node is None for node in particles.leaf_nodes[leaves.stop : end])


class TestBitIdentity:
    def test_predict_and_alc_bit_identical_across_updates(self):
        X, y = _training_data(240)
        model = _model()
        model.fit(X[:30], y[:30])
        rng = np.random.default_rng(9)
        probe = rng.uniform(-1.5, 1.5, size=(30, X.shape[1]))
        reference = rng.uniform(-1.5, 1.5, size=(20, X.shape[1]))
        for i in range(30, 240):
            model.update(X[i], float(y[i]))
            fast = model.predict(probe)
            slow = model.predict_reference(probe)
            assert np.array_equal(fast.mean, slow.mean)
            assert np.array_equal(fast.variance, slow.variance)
            assert np.array_equal(
                model.expected_average_variance(probe, reference),
                model.expected_average_variance_reference(probe, reference),
            )

    def test_aggressive_resampling_stays_bit_identical(self):
        """A resample-every-update regime gathers segments on every update;
        the trajectory must still replay the per-particle reference."""
        X, y = _training_data(120, seed=5)
        batched = _model(resample_threshold=1.0, seed=11)
        reference = _model(resample_threshold=1.0, seed=11, vectorized=False)
        batched.fit(X[:20], y[:20])
        reference.fit(X[:20], y[:20])
        probe = X[:25]
        for i in range(20, 120):
            batched.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
            fast = batched.predict(probe)
            slow = reference.predict(probe)
            assert np.array_equal(fast.mean, slow.mean)
            assert np.array_equal(fast.variance, slow.variance)
        assert_segments_match_compilations(batched)

    def test_trajectories_match_reference_implementation(self):
        X, y = _training_data(90, seed=7)
        config = DynamicTreeConfig(n_particles=12)
        vectorized = DynamicTreeRegressor(config, rng=np.random.default_rng(2))
        reference = DynamicTreeRegressor(
            dataclasses.replace(config, vectorized=False),
            rng=np.random.default_rng(2),
        )
        vectorized.fit(X[:15], y[:15])
        reference.fit(X[:15], y[:15])
        probe = X[:20]
        for i in range(15, 90):
            vectorized.update(X[i], float(y[i]))
            reference.update(X[i], float(y[i]))
        p_vec = vectorized.predict(probe)
        p_ref = reference.predict(probe)
        assert np.array_equal(p_vec.mean, p_ref.mean)
        assert np.array_equal(p_vec.variance, p_ref.variance)


class TestSegments:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        particles=st.integers(1, 24),
        size=st.integers(12, 90),
        resample_threshold=st.sampled_from([0.3, 0.5, 0.9, 1.0]),
        min_slack=st.sampled_from([0, 1, IncrementalForest.MIN_SLACK]),
    )
    def test_live_segments_match_fresh_compilations(
        self, seed, particles, size, resample_threshold, min_slack
    ):
        """The compile oracle after every update: stays, grows, prunes,
        resample gathers and (with little slack) frequent capacity
        re-layouts all leave every segment equal to a fresh compilation."""
        default = IncrementalForest.MIN_SLACK
        IncrementalForest.MIN_SLACK = min_slack
        try:
            X, y = _training_data(size, dims=3, seed=seed)
            model = _model(particles, seed, resample_threshold)
            model.fit(X[:2], y[:2])
            assert_segments_match_compilations(model)
            for i in range(2, size):
                model.update(X[i], float(y[i]))
                assert_segments_match_compilations(model)
        finally:
            IncrementalForest.MIN_SLACK = default

    def test_capacity_overflow_forces_rebuild(self):
        """Growing past a segment's capacity re-lays the forest out with
        fresh capacities; the segments stay exact across the switch."""
        X, y = _training_data(60)
        model = _model(n_particles=8)
        model.fit(X[:10], y[:10])
        first_caps = model._particle_forest.node_caps.copy()
        grew = False
        for i in range(10, 60):
            model.update(X[i], float(y[i]))
            caps = model._particle_forest.node_caps
            grew = grew or bool((caps > first_caps.max()).any())
            assert_segments_match_compilations(model)
        assert grew


class TestModelState:
    def test_pickle_round_trip_keeps_forest_and_trajectory(self):
        X, y = _training_data(80, seed=4)
        model = _model(n_particles=16, seed=5)
        model.fit(X[:40], y[:40])
        restored = pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL))
        assert_segments_match_compilations(restored)
        for i in range(40, 80):
            model.update(X[i], float(y[i]))
            restored.update(X[i], float(y[i]))
        assert_segments_match_compilations(restored)
        assert np.array_equal(model.predict(X[:10]).mean, restored.predict(X[:10]).mean)

    def test_state_without_particle_forest_is_rejected(self):
        """A pickle that predates the particle forest fails with the error
        checkpoint loaders treat as stale."""
        model = _model(n_particles=4)
        model.fit(*_training_data(10))
        legacy = dict(model.__dict__)
        del legacy["_particle_forest"]
        legacy.update(_flat=[], _flat_shared=[], _forest=None, _forest_cache=None)
        clone = DynamicTreeRegressor.__new__(DynamicTreeRegressor)
        with pytest.raises(AttributeError):
            clone.__setstate__(legacy)

    def test_reference_updates_drop_the_forest(self):
        X, y = _training_data(40)
        model = _model(n_particles=6, vectorized=False)
        model.fit(X[:20], y[:20])
        model._ensure_forest()
        assert_segments_match_compilations(model)
        model.update(X[20], float(y[20]))
        assert model._particle_forest is None
        model._ensure_forest()
        assert_segments_match_compilations(model)


class TestFantasyCopy:
    def test_fantasy_updates_leave_the_source_untouched(self):
        """A fantasy copy owns its forest: updating it changes none of the
        source's arrays, and the source's next update matches a model
        that never made a fantasy copy."""
        X, y = _training_data(70, seed=6)
        source = _model(n_particles=20, seed=8, resample_threshold=0.9)
        twin = _model(n_particles=20, seed=8, resample_threshold=0.9)
        source.fit(X[:40], y[:40])
        twin.fit(X[:40], y[:40])
        forest = source._particle_forest.forest
        before = {
            name: getattr(forest, name).copy()
            for name in ("split_dim", "split_value", "left", "right", "leaf_slot")
        }
        before_data = forest.caches.data.copy()
        fantasy = source.fantasy_copy()
        for i in range(40, 50):
            fantasy.update(X[i], float(y[i]) + 1.0)
        assert source._particle_forest.forest is forest
        for name, values in before.items():
            np.testing.assert_array_equal(getattr(forest, name), values)
        np.testing.assert_array_equal(forest.caches.data, before_data)
        assert_segments_match_compilations(fantasy)
        for i in range(50, 70):
            source.update(X[i], float(y[i]))
            twin.update(X[i], float(y[i]))
            assert source.leaf_counts() == twin.leaf_counts()
        assert_segments_match_compilations(source)
        np.testing.assert_array_equal(
            source._particle_forest.forest.caches.data,
            twin._particle_forest.forest.caches.data,
        )
        probe = X[:15]
        assert np.array_equal(source.predict(probe).mean, twin.predict(probe).mean)
        assert np.array_equal(
            source.expected_average_variance(probe, X[15:25]),
            twin.expected_average_variance(probe, X[15:25]),
        )


class TestIncrementalForestUnit:
    def test_gather_copies_segments_in_order(self):
        X, y = _training_data(40)
        model = _model(n_particles=5, seed=1)
        model.fit(X, y)
        trees = [FlatTree.compile(root) for root in model._particles]
        forest = IncrementalForest(trees)
        order = np.array([4, 4, 0, 2, 2], dtype=np.intp)
        forest.gather(order)
        model._particles = [model._particles[j] for j in order]
        model._particle_forest = forest
        assert_segments_match_compilations(model)

    def test_patch_overwrites_rows_and_nodes(self):
        X, y = _training_data(40)
        model = _model(n_particles=3, seed=2)
        model.fit(X, y)
        forest = model._particle_forest
        row = np.arange(LeafCacheArrays.N_COLUMNS, dtype=float)
        marker = object()
        forest.patch(np.array([1]), np.array([0]), row[None, :], [marker])
        offset = int(forest.forest.leaf_offsets[1])
        np.testing.assert_array_equal(forest.forest.caches.data[offset], row)
        assert forest.leaf_nodes[offset] is marker

    def test_requires_at_least_one_tree(self):
        with pytest.raises(ValueError):
            IncrementalForest([])
