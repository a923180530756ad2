"""GraphDelta, incremental fingerprints and the num_classes pin."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.fingerprint import (
    BLOCK_ROWS,
    block_count,
    canonical_csr,
    fingerprint_state,
    graph_fingerprint,
)
from repro.graph import DirectedGraph, GraphDelta, from_edge_list
from repro.graph.transforms import largest_connected_component, to_undirected
from repro.models.mlp import MLPClassifier
from repro.models.sgc import SGC
from repro.serving.cache import OperatorCache


def build_graph(seed: int = 0, n: int = 80, f: int = 6, c: int = 4) -> DirectedGraph:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n, size=(4 * n, 2))
    return from_edge_list(
        edges,
        n,
        rng.normal(size=(n, f)),
        rng.integers(0, c, size=n),
        train_mask=rng.random(n) < 0.5,
        val_mask=rng.random(n) < 0.25,
        test_mask=rng.random(n) < 0.25,
        name="delta-test",
    )


def random_delta(rng: np.random.Generator, graph: DirectedGraph) -> GraphDelta:
    n, f = graph.num_nodes, graph.num_features
    kind = int(rng.integers(6))
    if kind == 0:
        m = int(rng.integers(1, 4))
        return GraphDelta(
            add_edges=rng.integers(0, n, size=(m, 2)),
            add_weights=rng.uniform(0.5, 2.0, size=m),
        )
    if kind == 1:
        sources, targets = graph.edge_list()
        picks = rng.integers(0, len(sources), size=min(3, len(sources)))
        return GraphDelta(remove_edges=np.stack([sources[picks], targets[picks]], axis=1))
    if kind == 2:
        return GraphDelta(
            add_edges=rng.integers(0, n, size=(2, 2)),
            remove_edges=rng.integers(0, n, size=(2, 2)),
        )
    if kind == 3:
        return GraphDelta(
            set_features={int(node): rng.normal(size=f) for node in rng.integers(0, n, 3)}
        )
    if kind == 4:
        return GraphDelta(
            set_labels={int(node): int(rng.integers(graph.num_classes)) for node in rng.integers(0, n, 3)}
        )
    return GraphDelta(
        set_masks={
            "train": {int(rng.integers(n)): bool(rng.integers(2))},
            "val_mask": {int(rng.integers(n)): bool(rng.integers(2))},
        }
    )


class TestCanonicalFingerprint:
    def test_duplicate_coo_and_sorted_csr_share_fingerprint(self):
        """Regression: representation-equivalent graphs share one fingerprint."""
        base = build_graph()
        csr = base.adjacency.tocsr()
        coo = csr.tocoo()
        # Same mathematical matrix as duplicate, shuffled COO entries whose
        # values sum back to the originals.
        rng = np.random.default_rng(7)
        row = np.concatenate([coo.row, coo.row])
        col = np.concatenate([coo.col, coo.col])
        data = np.concatenate([coo.data * 0.3, coo.data * 0.7])
        perm = rng.permutation(row.size)
        duplicated = sp.coo_matrix((data[perm], (row[perm], col[perm])), shape=csr.shape)
        twin = DirectedGraph(
            adjacency=duplicated,
            features=base.features,
            labels=base.labels,
            train_mask=base.train_mask,
            val_mask=base.val_mask,
            test_mask=base.test_mask,
        )
        assert twin.fingerprint() == base.fingerprint()

    def test_index_dtype_and_explicit_zeros_ignored(self):
        base = build_graph(seed=3)
        variant = base.adjacency.tocsr().copy()
        variant.indices = variant.indices.astype(np.int32)
        variant.indptr = variant.indptr.astype(np.int32)
        # Append an explicit zero via an addition that scipy keeps stored.
        zero = sp.csr_matrix(
            (np.array([0.0]), (np.array([0]), np.array([0]))), shape=variant.shape
        )
        twin = DirectedGraph(
            adjacency=variant + zero,
            features=base.features,
            labels=base.labels,
            train_mask=base.train_mask,
            val_mask=base.val_mask,
            test_mask=base.test_mask,
        )
        assert twin.fingerprint() == base.fingerprint()

    def test_equivalent_representations_hit_operator_cache(self):
        base = build_graph(seed=5)
        shuffled = base.adjacency.tocoo()
        rng = np.random.default_rng(11)
        perm = rng.permutation(shuffled.nnz)
        twin = DirectedGraph(
            adjacency=sp.coo_matrix(
                (shuffled.data[perm], (shuffled.row[perm], shuffled.col[perm])),
                shape=shuffled.shape,
            ),
            features=base.features,
            labels=base.labels,
            train_mask=base.train_mask,
            val_mask=base.val_mask,
            test_mask=base.test_mask,
        )
        model = SGC(base.num_features, base.num_classes, num_steps=2)
        cache = OperatorCache()
        first = cache.preprocess(model, base)
        second = cache.preprocess(model, twin)
        assert second is first  # cache hit, not a recompute
        assert cache.stats().hits == 1 and cache.stats().misses == 1

    def test_canonical_csr_does_not_mutate_input(self):
        matrix = sp.coo_matrix(
            (np.array([1.0, 2.0]), (np.array([1, 0]), np.array([0, 1]))), shape=(2, 2)
        )
        before = (matrix.row.copy(), matrix.col.copy(), matrix.data.copy())
        canonical_csr(matrix)
        assert np.array_equal(matrix.row, before[0])
        assert np.array_equal(matrix.col, before[1])
        assert np.array_equal(matrix.data, before[2])

    def test_content_changes_still_change_fingerprint(self):
        base = build_graph(seed=9)
        changed = base.apply_delta(GraphDelta(add_edges=[[0, 1]], add_weights=0.5))
        assert changed.fingerprint() != base.fingerprint()


class TestApplyDelta:
    def test_incremental_equals_full_rehash_across_kinds(self):
        """Property: apply_delta's fingerprint is bit-identical to a rehash."""
        rng = np.random.default_rng(42)
        graph = build_graph(seed=1)
        for _ in range(40):
            delta = random_delta(rng, graph)
            # validate=True raises if the incremental digest diverges.
            graph = graph.apply_delta(delta, validate=True)
            assert graph.fingerprint() == graph_fingerprint(graph)
            state = fingerprint_state(graph)
            assert graph.fingerprint_state().digest() == state.digest()

    def test_edge_semantics(self):
        graph = build_graph(seed=2)
        updated = graph.apply_delta(
            GraphDelta(add_edges=[[0, 1], [0, 1]], add_weights=[2.0, 3.0])
        )
        assert updated.adjacency[0, 1] == 3.0  # last write wins
        removed = updated.apply_delta(GraphDelta(remove_edges=[[0, 1]]))
        assert removed.adjacency[0, 1] == 0.0
        assert removed.num_edges == updated.num_edges - 1
        # Removing an absent edge is a no-op; remove-then-add keeps the add.
        both = graph.apply_delta(
            GraphDelta(add_edges=[[2, 3]], remove_edges=[[2, 3]]), validate=True
        )
        assert both.adjacency[2, 3] == 1.0

    def test_input_graph_is_never_mutated(self):
        graph = build_graph(seed=4)
        fp = graph.fingerprint()
        adjacency = graph.adjacency.copy()
        features = graph.features.copy()
        graph.apply_delta(
            GraphDelta(
                add_edges=[[1, 2]],
                set_features={0: np.zeros(graph.num_features)},
                set_labels={0: 1},
                set_masks={"train": {0: True}},
            )
        )
        assert graph.fingerprint() == fp
        assert (graph.adjacency != adjacency).nnz == 0
        assert np.array_equal(graph.features, features)

    def test_empty_delta_preserves_fingerprint(self):
        graph = build_graph(seed=6)
        clone = graph.apply_delta(GraphDelta(), validate=True)
        assert clone is not graph
        assert clone.fingerprint() == graph.fingerprint()

    def test_validation_errors(self):
        graph = build_graph(seed=8)
        n = graph.num_nodes
        with pytest.raises(ValueError, match="out of range"):
            graph.apply_delta(GraphDelta(add_edges=[[0, n]]))
        with pytest.raises(ValueError, match="features"):
            graph.apply_delta(GraphDelta(set_features={0: np.zeros(3)}))
        with pytest.raises(ValueError, match="zero-weight"):
            GraphDelta(add_edges=[[0, 1]], add_weights=0.0)
        with pytest.raises(ValueError, match="unknown mask"):
            GraphDelta(set_masks={"bogus": {0: True}})
        splitless = DirectedGraph(
            adjacency=graph.adjacency, features=graph.features, labels=graph.labels
        )
        with pytest.raises(ValueError, match="no such split"):
            splitless.apply_delta(GraphDelta(set_masks={"train": {0: True}}))

    def test_describe(self):
        delta = GraphDelta(add_edges=[[0, 1]], set_labels={2: 1})
        text = delta.describe()
        assert "+1 edges" in text and "1 labels" in text
        assert GraphDelta().describe() == "GraphDelta(empty)"


#: more than two blocks, the last one partial.
BLOCKED_NODES = 2 * BLOCK_ROWS + 100

#: one row in the first, a middle and the (partial) last block.
BLOCK_EDGE_ROWS = {"first": 3, "middle": BLOCK_ROWS + 17, "last": BLOCKED_NODES - 1}


def absent_target(graph: DirectedGraph, row: int) -> int:
    present = set(graph.adjacency[row].indices.tolist())
    return next(col for col in range(graph.num_nodes) if col not in present)


def block_delta(kind: str, row: int, graph: DirectedGraph) -> GraphDelta:
    """An edge insert, an edge removal or a feature row at ``row``."""
    if kind == "insert":
        return GraphDelta(add_edges=[[row, absent_target(graph, row)]])
    if kind == "remove":
        target = int(graph.adjacency[row].indices[0])
        return GraphDelta(remove_edges=[[row, target]])
    return GraphDelta(set_features={row: np.full(graph.num_features, 0.25)})


class TestBlockBoundaries:
    @pytest.fixture(scope="class")
    def graph(self):
        assert block_count(BLOCKED_NODES) == 3 and BLOCKED_NODES % BLOCK_ROWS
        return build_graph(seed=30, n=BLOCKED_NODES)

    @pytest.mark.parametrize("where", sorted(BLOCK_EDGE_ROWS))
    @pytest.mark.parametrize("kind", ["insert", "remove", "feature"])
    def test_delta_in_block_equals_full_rehash(self, graph, kind, where):
        row = BLOCK_EDGE_ROWS[where]
        before = graph.fingerprint_state()
        updated = graph.apply_delta(block_delta(kind, row, graph), validate=True)
        assert updated.fingerprint() == graph_fingerprint(updated) != graph.fingerprint()
        after = updated.fingerprint_state()
        name = "feature_blocks" if kind == "feature" else "adjacency_blocks"
        changed = np.flatnonzero(getattr(before, name) != getattr(after, name))
        assert changed.tolist() == [row // BLOCK_ROWS]

    def test_delta_across_a_block_boundary(self, graph):
        rows = [BLOCK_ROWS - 1, BLOCK_ROWS]
        delta = GraphDelta(
            add_edges=[[row, absent_target(graph, row)] for row in rows],
            set_features={row: np.zeros(graph.num_features) for row in rows},
        )
        updated = graph.apply_delta(delta, validate=True)
        assert updated.fingerprint() == graph_fingerprint(updated)
        before, after = graph.fingerprint_state(), updated.fingerprint_state()
        for name in ("adjacency_blocks", "feature_blocks"):
            changed = np.flatnonzero(getattr(before, name) != getattr(after, name))
            assert changed.tolist() == [0, 1]

    def test_row_split_inside_a_block_changes_fingerprint(self):
        # Equal column-index and value streams, split 2+1 vs 1+2 over rows 0-1.
        n = 4
        indices = np.array([1, 2, 3])
        data = np.array([1.0, 2.0, 3.0])
        split = {
            rows: sp.csr_matrix((data, indices, np.array([0, *rows, 3, 3])), shape=(n, n))
            for rows in [(2, 3), (1, 3)]
        }
        features, labels = np.zeros((n, 2)), np.zeros(n, dtype=np.int64)
        first, second = (
            DirectedGraph(adjacency=matrix, features=features, labels=labels)
            for matrix in split.values()
        )
        assert first.fingerprint() != second.fingerprint()

    def test_graph_smaller_than_a_block(self):
        graph = build_graph(seed=31, n=12)
        assert len(graph.fingerprint_state().adjacency_blocks) == 1
        for kind in ("insert", "remove", "feature"):
            updated = graph.apply_delta(block_delta(kind, 5, graph), validate=True)
            assert updated.fingerprint() == graph_fingerprint(updated) != graph.fingerprint()


class TestDeltaCost:
    """A delta re-hashes the blocks it touched and re-propagates its frontier."""

    @pytest.mark.parametrize("kind", ["insert", "feature"])
    def test_delta_pays_for_its_blocks_and_frontier_only(self, monkeypatch, kind):
        import repro.graph.delta as delta_module

        # A directed ring: every k-hop neighbourhood is known in closed form.
        n = BLOCKED_NODES
        rng = np.random.default_rng(32)
        nodes = np.arange(n)
        graph = from_edge_list(
            np.stack([nodes, (nodes + 1) % n], axis=1),
            n,
            rng.normal(size=(n, 6)),
            rng.integers(0, 4, size=n),
        )
        row, far = BLOCK_EDGE_ROWS["middle"], BLOCK_EDGE_ROWS["middle"] + n // 2
        if kind == "insert":
            delta, touched = GraphDelta(add_edges=[[row, far]]), [row, far]
        else:
            delta, touched = block_delta("feature", row, graph), [row]
        model = SGC(graph.num_features, graph.num_classes, num_steps=2)
        cache = model.preprocess(graph)
        graph.fingerprint_state()  # the baseline hash is paid before the delta

        hashed = []
        for name in ("csr_block_digest", "dense_block_digest"):
            digest = getattr(delta_module, name)
            monkeypatch.setattr(
                delta_module, name,
                lambda matrix, block, digest=digest: hashed.append(block) or digest(matrix, block),
            )
        mutated = graph.apply_delta(delta)
        assert hashed == [row // BLOCK_ROWS]
        assert mutated.fingerprint() == graph_fingerprint(mutated)

        # Rows the last step does not recompute keep the planted sentinel.
        sentinel = 1e300
        steps = [*cache["steps"][:-1], np.full_like(cache["steps"][-1], sentinel)]
        updated = model.update_preprocess(graph, mutated, delta, {**cache, "steps": steps})
        recomputed = np.flatnonzero((updated["steps"][-1] != sentinel).any(axis=1))
        # Two steps: the touched rows' 2-hop ring neighbourhood, no more.
        frontier = sorted({(node + hop) % n for node in touched for hop in range(-2, 3)})
        assert recomputed.tolist() == frontier
        fresh = model.preprocess(mutated)["steps"][-1]
        np.testing.assert_array_equal(updated["steps"][-1][recomputed], fresh[recomputed])


class TestNumClassesPin:
    def test_pin_survives_dropping_highest_class(self):
        graph = build_graph(seed=10)
        assert graph.num_classes == 4
        top_nodes = np.where(graph.labels == 3)[0]
        relabelled = graph.apply_delta(
            GraphDelta(set_labels={int(node): 0 for node in top_nodes})
        )
        assert int(relabelled.labels.max()) < 3
        assert relabelled.num_classes == 4
        assert relabelled.label_distribution().shape == (4,)
        assert relabelled.summary()["classes"] == 4

    def test_meta_override_and_growth(self):
        graph = build_graph(seed=12)
        wide = graph.with_(meta={**graph.meta, "num_classes": 9})
        assert wide.num_classes == 9
        assert wide.label_distribution().shape == (9,)
        # Labels above the pin still grow it (never understate).
        grown = wide.apply_delta(GraphDelta(set_labels={0: 11}))
        assert grown.num_classes == 12

    def test_pin_carried_by_transforms(self):
        graph = build_graph(seed=14)
        assert to_undirected(graph).num_classes == graph.num_classes
        component = largest_connected_component(graph)
        assert component.num_classes == graph.num_classes

    def test_pin_does_not_change_fingerprint(self):
        graph = build_graph(seed=16)
        pinned = graph.with_(meta={**graph.meta, "num_classes": 7})
        assert pinned.fingerprint() == graph.fingerprint()


class TestUpdatePreprocess:
    def test_sgc_incremental_bit_identical(self):
        rng = np.random.default_rng(21)
        graph = build_graph(seed=18, n=120)
        model = SGC(graph.num_features, graph.num_classes, num_steps=3)
        cache = model.preprocess(graph)
        for _ in range(12):
            delta = random_delta(rng, graph)
            mutated = graph.apply_delta(delta, validate=True)
            updated = model.update_preprocess(graph, mutated, delta, cache)
            assert updated is not None
            fresh = model.preprocess(mutated)
            assert np.array_equal(updated["x"].numpy(), fresh["x"].numpy())
            for incremental_step, full_step in zip(updated["steps"], fresh["steps"]):
                assert np.array_equal(incremental_step, full_step)
            graph, cache = mutated, updated

    def test_mlp_update_rebuilds_features(self):
        graph = build_graph(seed=20)
        model = MLPClassifier(graph.num_features, graph.num_classes)
        delta = GraphDelta(set_features={1: np.zeros(graph.num_features)})
        mutated = graph.apply_delta(delta)
        updated = model.update_preprocess(graph, mutated, delta, model.preprocess(graph))
        assert np.array_equal(updated["x"].numpy(), mutated.features)

    def test_base_default_is_fallback(self):
        from repro.adpa.model import ADPA

        graph = build_graph(seed=22)
        model = ADPA(graph.num_features, graph.num_classes, hidden=8, num_steps=2)
        cache = model.preprocess(graph)
        delta = GraphDelta(add_edges=[[0, 1]])
        assert model.update_preprocess(graph, graph.apply_delta(delta), delta, cache) is None
