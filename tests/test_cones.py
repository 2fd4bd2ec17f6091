"""Cone generators, the branch product count, and the duality checks."""

import pytest

import helpers
from scaledlines.cones import (MAX_UNCOLORED, _nonnegative_combination, generators,
                               pair, ray_count, verify_duality)
from scaledlines.local_divisors import minimally_complete_subsets, ray_of_subset
from scaledlines.trees import ColoredTree, Vertex, enumerate_trees
from scaledlines.weights import label_weights, total_weight


class TestGenerators:
    def test_reference_tree_exact(self, fig):
        assert generators(fig) == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1))
        assert ray_count(fig) == 4

    def test_star(self):
        star = helpers.star_tree(4)
        assert generators(star) == ((1,),)
        assert ray_count(star) == 1

    def test_deep_tree_exact(self, deep):
        assert generators(deep) == (
            (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
            (0, 1, 1, -1), (1, 0, 0, 0), (1, 0, 1, -1),
        )
        assert ray_count(deep) == 6

    def test_count_matches_enumeration(self):
        for n in (2, 3, 4, 5):
            for t in enumerate_trees(n):
                gens = generators(t)
                assert len(gens) == ray_count(t)
                assert len(set(gens)) == len(gens)

    def test_count_on_long_chain(self):
        # Deeper than the default recursion limit, and far above the
        # generator bound: one ray per uncolored vertex.
        t = helpers.chain_tree(1200)
        assert ray_count(t) == len(t.mcs) == 1200

    def test_generators_equal_subset_rays(self):
        # Independent route: one primitive ray per minimally complete subset.
        for n in (2, 3, 4):
            for t in enumerate_trees(n):
                rays = sorted(ray_of_subset(t, y)
                              for y in minimally_complete_subsets(t))
                assert tuple(rays) == generators(t)

    def test_scale_pairing_is_one(self):
        for t in enumerate_trees(4):
            scale = total_weight(t)
            for v in generators(t):
                assert pair(scale, v) == 1

    def test_weight_pairings_nonnegative(self):
        for t in enumerate_trees(4):
            gens = generators(t)
            for w in label_weights(t).values():
                assert all(pair(w, v) >= 0 for v in gens)

    def test_size_guard(self):
        g = MAX_UNCOLORED + 1
        vertices = [Vertex(i, False) for i in range(1, g + 1)]
        vertices.append(Vertex(g + 1, True, 1))
        edges = [(i, i + 1) for i in range(1, g + 1)]
        chain = ColoredTree.build(vertices, edges, 1)
        with pytest.raises(ValueError):
            generators(chain)


class TestPair:
    def test_dot_product(self):
        assert pair((1, 2), (3, 4)) == 11
        with pytest.raises(ValueError):
            pair((1,), (1, 2))


class TestNonnegativeCombination:
    def test_feasible(self):
        assert _nonnegative_combination((1, 1), [(1, 0), (0, 1)])
        assert _nonnegative_combination((3, 2), [(1, 0), (1, 1)])
        assert _nonnegative_combination((0, 0), [])

    def test_infeasible(self):
        assert not _nonnegative_combination((-1, 0), [(1, 0), (0, 1)])
        assert not _nonnegative_combination((1, 0), [(0, 1)])
        assert not _nonnegative_combination((1,), [])

    def test_needs_fractional_coefficients(self):
        # (1, 1) = 1/2 * (2, 0) + 1/2 * (0, 2): feasibility is rational.
        assert _nonnegative_combination((1, 1), [(2, 0), (0, 2)])


class TestDuality:
    def test_reference_tree(self, fig):
        report = verify_duality(fig)
        assert report == {
            "nonnegative_pairings": True,
            "minimal_generators": True,
            "span_dimension": 3,
            "expected_dimension": 3,
            "scale_pairing_one": True,
            "ok": True,
        }

    def test_all_small_trees(self):
        for n in (2, 3, 4):
            for t in enumerate_trees(n):
                report = verify_duality(t)
                assert report["ok"], (t, report)
                assert report["span_dimension"] == t.g
