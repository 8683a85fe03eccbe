"""Unit tests for degree-1 folding: peel mechanics, credits, mapping."""

import numpy as np
import pytest

from repro.bc.accumulation import dependency_accumulation
from repro.bc.brandes import brandes_reference
from repro.bc.frontier import forward_sweep
from repro.bc.preprocess import (
    FoldResult,
    fold_degree_one,
    folded_betweenness_centrality,
    per_root_correction,
    plan_fold,
)
from repro.graph.build import from_edges

pytestmark = pytest.mark.fold


def path(n):
    return from_edges([(i, i + 1) for i in range(n - 1)])


class TestPeel:
    def test_no_pendants_is_identity(self):
        g = from_edges([(i, (i + 1) % 5) for i in range(5)])  # C5
        fold = fold_degree_one(g)
        assert fold.is_identity
        assert fold.core is g
        assert fold.rounds == 0
        assert np.all(fold.credit == 0)

    def test_directed_is_identity(self):
        g = from_edges([(0, 1), (1, 2)], undirected=False)
        assert fold_degree_one(g).is_identity

    def test_empty_and_single_vertex(self):
        assert fold_degree_one(from_edges([], num_vertices=0)).is_identity
        assert fold_degree_one(from_edges([], num_vertices=1)).is_identity

    def test_path_peels_from_both_ends(self):
        fold = fold_degree_one(path(7))
        assert fold.core.num_vertices == 1
        # 7-path: ends peel inward, 3 rounds to the middle.
        assert fold.rounds == 3
        assert fold.weights[fold.core_vertices[0]] == 7.0

    def test_k2_resolves_higher_into_lower(self):
        fold = fold_degree_one(from_edges([(0, 1)]))
        assert fold.core_vertices.tolist() == [0]
        assert fold.parent[1] == 0
        assert fold.weights[0] == 2.0

    def test_star_folds_to_hub(self):
        fold = fold_degree_one(from_edges([(0, i) for i in range(1, 6)]))
        assert fold.core_vertices.tolist() == [0]
        assert np.all(fold.parent[1:] == 0)
        assert np.all(fold.host == 0)

    def test_self_loop_does_not_block_peel(self):
        # Vertex 1 has a self-loop plus one real edge: still pendant.
        g = from_edges([(0, 1), (1, 1), (0, 2), (2, 3), (3, 0)])
        fold = fold_degree_one(g)
        assert 1 not in fold.core_vertices.tolist()

    def test_isolated_vertices_stay_residual(self):
        g = from_edges([(0, 1), (1, 2)], num_vertices=5)
        fold = fold_degree_one(g)
        assert {3, 4} <= set(fold.core_vertices.tolist())

    def test_pendant_chain_off_cycle(self):
        # C4 with a 3-chain hanging off vertex 0: chain folds, cycle stays.
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0),
                        (0, 4), (4, 5), (5, 6)])
        fold = fold_degree_one(g)
        assert sorted(fold.core_vertices.tolist()) == [0, 1, 2, 3]
        assert fold.weights[0] == 4.0  # absorbed the 3-chain
        assert np.all(fold.host[[4, 5, 6]] == 0)


class TestCredits:
    def test_path_credit_closed_form(self):
        """On an n-path every vertex's full BC is closed-form; a path
        folds to one residual vertex so credit alone must carry all
        interior pairs (ordered units; Brandes halves for undirected)."""
        n = 9
        g = path(n)
        fold = fold_degree_one(g)
        expect = brandes_reference(g)
        # Residual traversal contributes nothing (single-vertex core).
        got = fold.credit / 2.0
        assert np.allclose(got, expect)

    def test_star_credit(self):
        g = from_edges([(0, i) for i in range(1, 6)])
        fold = fold_degree_one(g)
        assert np.allclose(fold.credit / 2.0, brandes_reference(g))

    def test_two_components_credit_uses_local_sizes(self):
        """Component size N in the credit formula is per-component, not
        global — a disconnected pair of paths must stay exact."""
        g = from_edges([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        fold = fold_degree_one(g)
        assert np.allclose(fold.credit / 2.0, brandes_reference(g))


class TestAssembly:
    def _weighted_delta(self, core, cs, tw):
        return dependency_accumulation(core, forward_sweep(core, cs),
                                       target_weights=tw)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4), (4, 5)],
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 6)],
    ])
    def test_folded_assembly_matches_brandes(self, edges):
        g = from_edges(edges)
        got = folded_betweenness_centrality(
            fold_degree_one(g), self._weighted_delta) / 2.0
        assert np.allclose(got, brandes_reference(g))

    def test_expand_scatters_and_zeroes(self):
        fold = fold_degree_one(from_edges([(0, 1), (1, 2), (2, 0), (0, 3)]))
        out = fold.expand(np.array([1.0, 2.0, 3.0]))
        assert out.shape == (4,)
        assert out[3] == 0.0
        assert sorted(out[:3].tolist()) == [1.0, 2.0, 3.0]

    def test_per_root_correction_each_root(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5),
                        (5, 6), (2, 7)])
        fold = fold_degree_one(g)
        tw = fold.core_weights
        for root in range(g.num_vertices):
            core_root, corr = per_root_correction(fold, root)
            delta = self._weighted_delta(fold.core, core_root, tw)
            got = fold.expand(delta) + corr
            expect = dependency_accumulation(g, forward_sweep(g, root))
            assert np.allclose(got, expect), f"root {root}"

    def test_per_root_correction_rejects_bad_root(self):
        fold = fold_degree_one(path(4))
        with pytest.raises(IndexError):
            per_root_correction(fold, 99)


class TestDigest:
    def test_digest_stable_and_cached(self):
        g = path(6)
        a, b = fold_degree_one(g), fold_degree_one(g)
        assert a.digest() == b.digest()
        assert a.digest() is a.digest()  # memoised

    def test_digest_distinguishes_folds(self):
        assert (fold_degree_one(path(6)).digest()
                != fold_degree_one(path(7)).digest())

    def test_identity_fold_digest_differs_from_peeled(self):
        g_cycle = from_edges([(i, (i + 1) % 6) for i in range(6)])
        assert (fold_degree_one(g_cycle).digest()
                != fold_degree_one(path(6)).digest())


class TestMemo:
    def test_fold_memoised_on_graph(self):
        g = path(6)
        assert fold_degree_one(g) is fold_degree_one(g)
        # Structurally equal but distinct graph objects fold separately.
        assert fold_degree_one(path(6)) is not fold_degree_one(g)


def _run_plan(plan):
    """Drive a plan the way the entry points do: weighted traversals of
    the planned roots, then ``finish``."""
    acc = np.zeros(plan.graph.num_vertices)
    for s in plan.roots:
        fwd = forward_sweep(plan.graph, int(s))
        acc += plan.source_weight(s) * dependency_accumulation(
            plan.graph, fwd, target_weights=plan.target_weights)
    return plan.finish(acc)


LOLLIPOP = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (2, 7)]


class TestPlan:
    @pytest.mark.parametrize("g, fold", [
        (from_edges([(i, (i + 1) % 5) for i in range(5)]), True),  # C5
        (from_edges([(0, 1), (1, 2)], undirected=False), True),    # directed
        (from_edges(LOLLIPOP), False),                             # opted out
    ])
    def test_identity_and_unfolded_plans_pass_through(self, g, fold):
        plan = plan_fold(g, None, fold)
        assert plan.graph is g and plan.fold is None
        assert plan.roots.tolist() == list(range(g.num_vertices))
        assert plan.target_weights is None and plan.source_weights is None
        assert plan.source_weight(0) == 1.0
        values = np.arange(g.num_vertices, dtype=np.float64)
        assert plan.finish(values) is values
        explicit = plan_fold(g, [2, 0], fold)
        assert explicit.graph is g and explicit.roots.tolist() == [2, 0]

    def test_full_run_plan(self):
        g = from_edges(LOLLIPOP)
        fold = fold_degree_one(g)
        plan = plan_fold(g)
        assert plan.fold is fold and plan.graph is fold.core
        assert plan.roots.tolist() == list(range(fold.core.num_vertices))
        assert np.array_equal(plan.target_weights, fold.core_weights)
        assert np.array_equal(plan.source_weights, fold.core_weights)
        assert np.array_equal(plan.extra, fold.credit)
        assert np.allclose(_run_plan(plan) / 2.0, brandes_reference(g))

    def test_explicit_roots_plan(self):
        g = from_edges(LOLLIPOP)
        fold = fold_degree_one(g)
        roots = [6, 1, 7, 4]                      # folded and core roots
        plan = plan_fold(g, roots)
        hosts = [per_root_correction(fold, a)[0] for a in roots]
        assert plan.graph is fold.core and plan.roots.tolist() == hosts
        assert plan.source_weights is None
        expect = sum(dependency_accumulation(g, forward_sweep(g, a))
                     for a in roots)
        assert np.allclose(_run_plan(plan), expect)

    def test_weighted_sum_matches_source_weights(self):
        plan = plan_fold(from_edges(LOLLIPOP))
        batch = plan.roots[:3]
        delta = np.ones((3, plan.graph.num_vertices))
        expect = sum(plan.source_weight(s) for s in batch)
        assert np.allclose(plan.weighted_sum(batch, delta), expect)
