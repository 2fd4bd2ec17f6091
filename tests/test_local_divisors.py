"""Local boundary divisors: subsets, rays, the partition dictionary, Cartier."""

import random

import pytest

import helpers
from scaledlines.cones import generators, pair
from scaledlines.intlinalg import IntMatrix, solve_integer
from scaledlines.local_divisors import (CartierDecision, OracleDisagreement,
                                        is_cartier_local, local_cartier_generators,
                                        minimally_complete_subsets,
                                        partition_of_subset, ray_of_subset,
                                        subset_of_partition, vertex_witnesses)
from scaledlines.trees import Partition, enumerate_trees, partitions_of

FIG_SUBSETS = ((1, 2), (1, 6, 7), (2, 4, 5), (4, 5, 6, 7))


class TestMinimallyCompleteSubsets:
    def test_reference_tree_exact(self, fig):
        assert minimally_complete_subsets(fig) == FIG_SUBSETS

    def test_star(self):
        assert minimally_complete_subsets(helpers.star_tree(3)) == ((2, 3, 4),)

    def test_deep_tree_exact(self, deep):
        assert minimally_complete_subsets(deep) == (
            (1, 3, 7, 10), (1, 7, 8, 9, 10), (2, 3, 10),
            (2, 8, 9, 10), (3, 5, 6, 7, 10), (5, 6, 7, 8, 9, 10),
        )

    def test_every_subset_hits_each_marking_path_once(self):
        for t in enumerate_trees(4):
            for y in minimally_complete_subsets(t):
                chosen = set(y)
                for label in t.labels:
                    path = t.path_up(t.colored_id(label))
                    assert len(chosen.intersection(path)) == 1

    def test_count_matches_ray_count(self):
        from scaledlines.cones import ray_count
        for n in (2, 3, 4, 5):
            for t in enumerate_trees(n):
                assert len(minimally_complete_subsets(t)) == ray_count(t)


class TestRays:
    def test_reference_tree_exact(self, fig):
        assert ray_of_subset(fig, (1, 2)) == (0, 0, 1)
        assert ray_of_subset(fig, (1, 6, 7)) == (0, 1, 0)
        assert ray_of_subset(fig, (2, 4, 5)) == (1, 0, 0)
        assert ray_of_subset(fig, (4, 5, 6, 7)) == (1, 1, -1)

    def test_rejects_non_complete_subsets(self, fig):
        with pytest.raises(ValueError):
            ray_of_subset(fig, (1, 4))        # nested cuts
        with pytest.raises(ValueError):
            ray_of_subset(fig, (1, 6))        # marking 4 left uncut
        with pytest.raises(ValueError):
            ray_of_subset(fig, (99,))

    def test_pairing_reproduces_incidence(self, fig):
        # <weight of edge e, ray of Y> is 1 exactly when e lies in Y.
        from scaledlines.weights import label_weights
        for t in enumerate_trees(4):
            weights = label_weights(t)
            for y in minimally_complete_subsets(t):
                ray = ray_of_subset(t, y)
                for e in t.edge_keys:
                    assert pair(weights[e], ray) == (1 if e in y else 0)


class TestPartitionDictionary:
    def test_reference_tree_exact(self, fig):
        keys = [partition_of_subset(fig, y).key() for y in FIG_SUBSETS]
        assert keys == ["1,2|3,4", "1,2|3|4", "1|2|3,4", "1|2|3|4"]

    def test_subset_of_partition_roundtrip(self):
        for n in (2, 3, 4):
            for t in enumerate_trees(n):
                for y in minimally_complete_subsets(t):
                    assert subset_of_partition(t, partition_of_subset(t, y)) == y

    def test_incompatible_partition_rejected(self, fig):
        with pytest.raises(ValueError):
            subset_of_partition(fig, Partition.of([(1, 3), (2, 4)]))
        with pytest.raises(ValueError):
            subset_of_partition(fig, Partition.of([(1, 2, 3), (4,)]))
        with pytest.raises(ValueError):
            subset_of_partition(fig, Partition.of([(1, 2), (3,)]))

    def test_incomplete_subset_rejected(self, fig):
        with pytest.raises(ValueError):
            partition_of_subset(fig, (1,))
        with pytest.raises(ValueError):
            partition_of_subset(fig, (99,))

    def test_dictionary_matches_homomorphism_search(self):
        # Independent route: a partition is the image of some minimally
        # complete subset exactly when its model tree receives a map.
        for n in (2, 3, 4):
            all_partitions = partitions_of(range(1, n + 1))
            for t in enumerate_trees(n):
                from_subsets = {partition_of_subset(t, y)
                                for y in minimally_complete_subsets(t)}
                from_maps = {p for p in all_partitions if helpers.is_compatible(p, t)}
                assert from_subsets == from_maps


class TestCartierGenerators:
    def test_reference_tree_exact(self, fig):
        gens = local_cartier_generators(fig)
        assert gens == [
            {(1, 2): 1, (1, 6, 7): 1, (2, 4, 5): 1, (4, 5, 6, 7): 1},
            {(2, 4, 5): 1, (4, 5, 6, 7): 1},
            {(1, 6, 7): 1, (4, 5, 6, 7): 1},
        ]
        assert vertex_witnesses(fig) == [(1, 1, 1), (1, 0, 0), (0, 1, 0)]

    def test_witness_supports_generator(self):
        # <u_k, ray(Y)> equals the Y-coefficient of the k-th generator.
        for n in (2, 3, 4):
            for t in enumerate_trees(n):
                subsets = minimally_complete_subsets(t)
                rays = {y: ray_of_subset(t, y) for y in subsets}
                for gen, u in zip(local_cartier_generators(t), vertex_witnesses(t)):
                    for y in subsets:
                        assert pair(u, rays[y]) == gen.get(y, 0)


class TestIsCartierLocal:
    def test_reference_tree_kernel(self, fig):
        assert fig.mcs == FIG_SUBSETS
        assert fig.relations.row_list() == [[1, -1, -1, 1]]

    def test_decisions(self, fig):
        yes = is_cartier_local(fig, {y: 1 for y in FIG_SUBSETS})
        assert isinstance(yes, CartierDecision)
        assert yes.cartier and yes.witness == (1, 1, 1)
        assert yes.violated_relation is None

        no = is_cartier_local(fig, {(1, 2): 1})
        assert not no.cartier and no.witness is None
        assert no.violated_relation == (1, -1, -1, 1)
        assert no.subsets == FIG_SUBSETS

    def test_witness_supports_divisor(self, fig):
        coeffs = {(1, 2): 2, (1, 6, 7): 1, (2, 4, 5): 3, (4, 5, 6, 7): 2}
        decision = is_cartier_local(fig, coeffs)
        assert decision.cartier
        for y in FIG_SUBSETS:
            assert pair(decision.witness, ray_of_subset(fig, y)) == coeffs[y]

    def test_unknown_subset_key_rejected(self, fig):
        with pytest.raises(ValueError):
            is_cartier_local(fig, {(1, 4): 1})
        with pytest.raises(ValueError):
            is_cartier_local(fig, {(1, 2): "x"})

    def test_keys_are_normalized(self, fig):
        assert is_cartier_local(fig, {(2, 1): 1, (7, 6, 1): 1,
                                      (5, 4, 2): 1, (7, 6, 5, 4): 1}).cartier

    def test_oracle_type(self):
        assert issubclass(OracleDisagreement, RuntimeError)


def decompose(t, divisor):
    """Coordinates of a divisor over the per-vertex Cartier generators.

    Read off its support function, which is the same combination of the
    vertex witnesses; None when the divisor is not Cartier.
    """
    decision = is_cartier_local(t, divisor)
    if not decision.cartier:
        return None
    witnesses = IntMatrix(list(zip(*vertex_witnesses(t))), cols=t.g)
    return solve_integer(witnesses, decision.witness)


class TestDecompose:
    def test_reference_tree(self, fig):
        combined = {(1, 2): 1, (1, 6, 7): 1, (2, 4, 5): 3, (4, 5, 6, 7): 3}
        assert decompose(fig, combined) == (1, 2, 0)
        assert decompose(fig, {(1, 2): 1}) is None

    def test_roundtrip_on_random_combinations(self):
        rng = random.Random(11)
        for t in enumerate_trees(4)[:10]:
            gens = local_cartier_generators(t)
            subsets = minimally_complete_subsets(t)
            for _ in range(5):
                coeffs = [rng.randint(-3, 3) for _ in gens]
                divisor = {y: sum(c * g.get(y, 0) for c, g in zip(coeffs, gens))
                           for y in subsets}
                solution = decompose(t, divisor)
                assert solution is not None
                rebuilt = {y: sum(c * g.get(y, 0) for c, g in zip(solution, gens))
                           for y in subsets}
                assert rebuilt == divisor
