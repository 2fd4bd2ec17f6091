"""Cone generators, the branch product count, and the duality checks."""

import pytest

import helpers
from scaledlines import cones
from scaledlines.cones import MAX_UNCOLORED, generators, pair, ray_count, verify_duality
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
        # One primitive ray per minimally complete subset, sorted.
        for n in (2, 3, 4):
            for t in enumerate_trees(n):
                rays = sorted(ray_of_subset(t, y)
                              for y in minimally_complete_subsets(t))
                assert tuple(rays) == generators(t)

    def test_generators_match_reference_recursion(self):
        # Independent route: the branch-product recursion over the subtrees.
        for n in (2, 3, 4, 5):
            for t in enumerate_trees(n):
                assert generators(t) == helpers.reference_generators(t)

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
        assert helpers.nonnegative_combination((1, 1), [(1, 0), (0, 1)])
        assert helpers.nonnegative_combination((3, 2), [(1, 0), (1, 1)])
        assert helpers.nonnegative_combination((0, 0), [])

    def test_infeasible(self):
        assert not helpers.nonnegative_combination((-1, 0), [(1, 0), (0, 1)])
        assert not helpers.nonnegative_combination((1, 0), [(0, 1)])
        assert not helpers.nonnegative_combination((1,), [])

    def test_needs_fractional_coefficients(self):
        # (1, 1) = 1/2 * (2, 0) + 1/2 * (0, 2): feasibility is rational.
        assert helpers.nonnegative_combination((1, 1), [(2, 0), (0, 2)])


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

    def test_no_generator_is_a_combination_of_the_others(self):
        # Independent route for minimality: the Fraction simplex.
        for n in (2, 3, 4, 5):
            for t in enumerate_trees(n):
                assert verify_duality(t)["minimal_generators"]
                gens = generators(t)
                for v in gens:
                    assert not helpers.nonnegative_combination(
                        v, [u for u in gens if u != v]), (t, v)

    @pytest.mark.parametrize("extra", ["sum", "duplicate"])
    def test_redundant_generator_is_not_minimal(self, monkeypatch, extra):
        original = cones.generators

        def padded(t):
            gens = original(t)
            if extra == "duplicate":
                return gens + (gens[0],)
            return gens + (tuple(a + b for a, b in zip(gens[0], gens[1])),)

        monkeypatch.setattr(cones, "generators", padded)
        checked = 0
        for t in enumerate_trees(4):
            if t.g < 2:
                continue
            report = verify_duality(t)
            assert not report["minimal_generators"], (t, report)
            assert not report["ok"]
            checked += 1
        assert checked == 25
