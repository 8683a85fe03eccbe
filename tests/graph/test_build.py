"""Unit tests for graph builders and transforms."""

import numpy as np
import pytest

from repro.errors import GraphStructureError
from repro.graph.build import (
    dedupe_edges,
    from_edges,
    from_networkx,
    induced_subgraph,
    largest_connected_component,
    relabel,
    symmetrize_edges,
    to_networkx,
)


class TestFromEdges:
    def test_empty(self):
        g = from_edges([])
        assert g.num_vertices == 0 and g.num_edges == 0

    def test_isolated_trailing_vertices(self):
        g = from_edges([(0, 1)], num_vertices=5)
        assert g.num_vertices == 5
        assert g.isolated_vertices().tolist() == [2, 3, 4]

    def test_num_vertices_too_small(self):
        with pytest.raises(GraphStructureError):
            from_edges([(0, 5)], num_vertices=3)

    def test_negative_endpoint(self):
        with pytest.raises(GraphStructureError):
            from_edges([(-1, 2)])

    def test_dedupe_and_self_loops(self):
        g = from_edges([(0, 1), (1, 0), (0, 1), (2, 2)], num_vertices=3)
        assert g.num_edges == 1
        assert g.degree(2) == 0

    def test_directed(self):
        g = from_edges([(0, 1), (1, 2)], undirected=False)
        assert g.num_edges == 2
        assert g.degree(2) == 0  # no reverse edges

    def test_symmetric_storage(self):
        g = from_edges([(0, 1)])
        assert g.neighbors(0).tolist() == [1]
        assert g.neighbors(1).tolist() == [0]

    def test_already_symmetric_no_double(self):
        sym = symmetrize_edges(np.array([(0, 1), (1, 2)]))
        g = from_edges(sym, undirected=True, already_symmetric=True)
        assert g.num_edges == 2


class TestEdgeHelpers:
    def test_symmetrize(self):
        out = symmetrize_edges(np.array([(0, 1)]))
        assert sorted(map(tuple, out.tolist())) == [(0, 1), (1, 0)]

    def test_dedupe_keeps_loops_when_asked(self):
        out = dedupe_edges(np.array([(1, 1), (0, 1)]), drop_self_loops=False)
        assert (1, 1) in set(map(tuple, out.tolist()))

    def test_dedupe_empty(self):
        assert dedupe_edges(np.empty((0, 2), dtype=np.int64)).shape == (0, 2)


class TestNetworkX:
    def test_roundtrip(self, fig1):
        nxg = to_networkx(fig1)
        assert nxg.number_of_nodes() == 9
        assert nxg.number_of_edges() == 11
        g2 = from_networkx(nxg)
        assert np.array_equal(g2.adj, fig1.adj)

    def test_from_networkx_relabels(self):
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_edge("c", "a")
        nxg.add_edge("a", "b")
        g = from_networkx(nxg)
        assert g.num_vertices == 3 and g.num_edges == 2

    def test_directed_roundtrip(self):
        g = from_edges([(0, 1), (1, 2)], undirected=False)
        nxg = to_networkx(g)
        assert nxg.is_directed()
        assert sorted(nxg.edges()) == [(0, 1), (1, 2)]


class TestComponents:
    def test_largest_component(self, two_components):
        sub = largest_connected_component(two_components)
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_connected_graph_unchanged_size(self, fig1):
        sub = largest_connected_component(fig1)
        assert sub.num_vertices == 9
        assert sub.num_edges == 11

    def test_empty(self):
        g = from_edges([])
        assert largest_connected_component(g).num_vertices == 0


class TestInducedSubgraph:
    def test_triangle(self, fig1):
        sub = induced_subgraph(fig1, [6, 7, 8])  # the 7-8-9 triangle
        assert sub.num_vertices == 3
        assert sub.num_edges == 3

    def test_out_of_range(self, fig1):
        with pytest.raises(IndexError):
            induced_subgraph(fig1, [100])

    def test_no_cross_edges(self, fig1):
        sub = induced_subgraph(fig1, [0, 8])  # vertices 1 and 9: not adjacent
        assert sub.num_edges == 0


class TestRelabel:
    def test_identity(self, fig1):
        g2 = relabel(fig1, np.arange(9))
        assert np.array_equal(g2.adj, fig1.adj)

    def test_reverse_preserves_structure(self, fig1):
        perm = np.arange(9)[::-1]
        g2 = relabel(fig1, perm)
        assert g2.num_edges == fig1.num_edges
        assert sorted(g2.degrees.tolist()) == sorted(fig1.degrees.tolist())

    def test_bad_permutation(self, fig1):
        with pytest.raises(GraphStructureError):
            relabel(fig1, np.zeros(9, dtype=np.int64))
        with pytest.raises(GraphStructureError):
            relabel(fig1, np.arange(5))


def _reference_csr(edges, n, undirected, dedupe):
    """The lexicographic builder the sort-based one must reproduce:
    ``np.unique(axis=0)`` dedupe, then a ``np.lexsort`` CSR build."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if undirected:
        edges = np.concatenate([edges, edges[:, ::-1]])
    if dedupe:
        edges = edges[edges[:, 0] != edges[:, 1]]
        if edges.size:
            edges = np.unique(edges, axis=0)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(edges[:, 0], minlength=n))])
    return indptr.astype(np.int64), edges[:, 1]


class TestBuilderMatchesLexicographicReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("undirected", [True, False])
    @pytest.mark.parametrize("dedupe", [True, False])
    def test_random_edges_with_duplicates_and_loops(self, seed, undirected,
                                                    dedupe):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 200)), 2))
        edges = np.concatenate([edges, edges[: len(edges) // 3]])  # repeats
        g = from_edges(edges, num_vertices=n + 2, undirected=undirected,
                       dedupe=dedupe)
        indptr, adj = _reference_csr(edges, n + 2, undirected, dedupe)
        assert g.indptr.tobytes() == indptr.tobytes()
        assert g.adj.tobytes() == adj.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("drop_self_loops", [True, False])
    def test_dedupe_edges(self, seed, drop_self_loops):
        rng = np.random.default_rng(seed)
        edges = rng.integers(0, 30, size=(300, 2))
        ref = edges[edges[:, 0] != edges[:, 1]] if drop_self_loops else edges
        out = dedupe_edges(edges, drop_self_loops=drop_self_loops)
        assert out.dtype == np.int64
        expect = np.unique(ref, axis=0).astype(np.int64)
        assert out.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("undirected", [True, False])
    def test_empty(self, undirected):
        g = from_edges(np.empty((0, 2), dtype=np.int64), num_vertices=3,
                       undirected=undirected)
        assert g.indptr.tolist() == [0, 0, 0, 0] and g.adj.size == 0
        assert dedupe_edges(np.empty((0, 2))).shape == (0, 2)


# Graph and fold digests key the service's result cache: a builder or
# fold change that moves them would orphan every cached result.
PINNED_DIGESTS = {
    "kron_g500-logn20": (
        "124fbe1969892973e678959c001f180315be8e92d47c5300fb2f5d5e07e2e2cc",
        "d9403ce010e030bcd2a2956149bd35a9f94429c3b95192db181c35e1c53e0e79"),
    "luxembourg.osm": (
        "4f96efceeff87cc75acce612587ae3d8b19f992ea283b96d69a16a360b9c93ad",
        "da840e1b058c52f4731247ebce39694706c7b909333962024a3bb1d2e819737c"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_dataset_and_fold_digests_pinned(name):
    from repro.bc.preprocess import fold_degree_one
    from repro.graph.generators import make_dataset

    g = make_dataset(name, scale_factor=1024)
    graph_digest, fold_digest = PINNED_DIGESTS[name]
    assert g.digest() == graph_digest
    assert fold_degree_one(g).digest() == fold_digest
