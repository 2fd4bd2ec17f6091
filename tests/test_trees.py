"""Colored trees: validation, canonical form, enumeration, compatibility."""

import itertools
import json
import random

import pytest

import helpers
from scaledlines import cones, local_divisors, trees, weights
from scaledlines.trees import (ColoredTree, Partition, Subset, Vertex,
                               enumerate_trees, is_reduced, partitions_of,
                               proper_subsets, reduce_tree, set_partitions,
                               validate_tree)


class TestSubset:
    def test_normalization(self):
        s = Subset.of([3, 1, 1, 2])
        assert s.elements == (1, 2, 3)
        assert s.key() == "1,2,3"
        assert Subset.from_key("3,1") == Subset.of([1, 3])
        assert len(s) == 3 and 2 in s and 5 not in s
        assert list(s) == [1, 2, 3]

    def test_rejections(self):
        with pytest.raises(ValueError):
            Subset.of([])
        with pytest.raises(ValueError):
            Subset.of([0, 1])
        with pytest.raises(ValueError):
            Subset.from_key("1,x")


class TestPartition:
    def test_normalization(self):
        p = Partition.of([(3, 4), (2, 1)])
        assert p.blocks == ((1, 2), (3, 4))
        assert p.key() == "1,2|3,4"
        assert Partition.from_key("3,4|1,2") == p
        assert p.ground_set == (1, 2, 3, 4)
        assert p.block_of(3) == (3, 4)
        assert p.separates(1, 3) and not p.separates(3, 4)
        assert Subset.of([1, 2]) in p and (3, 4) in p and (1, 3) not in p

    def test_rejections(self):
        with pytest.raises(ValueError):
            Partition.of([(1, 2, 3)])
        with pytest.raises(ValueError):
            Partition.of([(1, 2), (2, 3)])
        with pytest.raises(KeyError):
            Partition.of([(1,), (2,)]).block_of(9)


def test_set_partition_counts_match_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52]
    for size, expected in enumerate(bell):
        assert sum(1 for _ in set_partitions(list(range(size)))) == expected


def test_partitions_of_and_proper_subsets():
    assert len(partitions_of([1, 2, 3])) == 4
    assert len(partitions_of([1, 2, 3, 4])) == 14
    subs = proper_subsets([1, 2, 3])
    assert [s.key() for s in subs] == ["1", "1,2", "1,3", "2", "2,3", "3"]


class TestVertex:
    def test_label_rules(self):
        with pytest.raises(ValueError):
            Vertex(1, True)
        with pytest.raises(ValueError):
            Vertex(1, False, 2)
        assert Vertex(1, True, 3).label == 3

    def test_boolean_label_rejected(self):
        with pytest.raises(ValueError):
            Vertex(1, True, True)


class TestValidation:
    def test_reference_tree_is_valid(self, fig):
        report = validate_tree(fig)
        assert report.ok
        assert report.issues == ()
        doc = report.to_json_dict()
        assert doc["ok"] and not doc["issues"]

    def test_duplicate_ids(self):
        t = ColoredTree.build([Vertex(1, False), Vertex(1, True, 1)], [(1, 1)], 1)
        report = validate_tree(t)
        assert not report.well_formed and not report.ok

    def test_unknown_root(self):
        t = ColoredTree.build([Vertex(1, True, 1)], [], 9)
        assert not validate_tree(t).well_formed

    def test_edge_to_unknown_vertex(self):
        t = ColoredTree.build([Vertex(1, False), Vertex(2, True, 1)],
                              [(1, 2), (1, 7)], 1)
        assert not validate_tree(t).well_formed

    def test_two_parents(self):
        t = ColoredTree.build(
            [Vertex(1, False), Vertex(2, False), Vertex(3, True, 1)],
            [(1, 2), (1, 3), (2, 3)], 1)
        report = validate_tree(t)
        assert not report.acyclic and not report.ok

    def test_disconnected(self):
        t = ColoredTree.build(
            [Vertex(1, False), Vertex(2, True, 1), Vertex(3, True, 2)],
            [(1, 2)], 1)
        report = validate_tree(t)
        assert not report.connected

    def test_repeated_labels(self):
        t = ColoredTree.build(
            [Vertex(1, False), Vertex(2, True, 1), Vertex(3, True, 1)],
            [(1, 2), (1, 3)], 1)
        assert not validate_tree(t).labels_bijective

    def test_two_colored_on_a_path(self):
        t = ColoredTree.build(
            [Vertex(1, False), Vertex(2, True, 1), Vertex(3, True, 2)],
            [(1, 2), (2, 3)], 1)
        report = validate_tree(t)
        assert not report.one_colored_per_path

    def test_uncolored_leaf(self):
        t = ColoredTree.build(
            [Vertex(1, False), Vertex(2, True, 1), Vertex(3, False)],
            [(1, 2), (1, 3)], 1)
        assert not validate_tree(t).one_colored_per_path


class TestValidatedOnce:
    """Each tree object is validated at most once, however often it is used."""

    @pytest.fixture
    def validations(self, monkeypatch):
        seen = []                       # the tree of every validate_tree call
        real = trees.validate_tree

        def counting(t):
            seen.append(t)
            return real(t)

        monkeypatch.setattr(trees, "validate_tree", counting)
        return lambda t: sum(1 for x in seen if x is t)

    @staticmethod
    def use_everything(t):
        """Every per-tree question, as a stream of requests asks them."""
        weights.label_weights(t)
        cones.generators(t)
        cones.ray_count(t)
        cones.verify_duality(t)
        subsets = local_divisors.minimally_complete_subsets(t)
        for y in subsets:
            local_divisors.ray_of_subset(t, y)
            p = local_divisors.partition_of_subset(t, y)
            assert local_divisors.subset_of_partition(t, p) == y
        local_divisors.is_cartier_local(t, {y: 1 for y in subsets})
        local_divisors.is_cartier_local(t, {subsets[0]: 1})
        for a, b in itertools.islice(helpers.disjoint_multiset_pairs(t.edge_keys, 2), 3):
            weights.weight_sum_equal(t, a, b)
            cert = weights.pairing_certificate(t, a, b)
            if cert is not None:
                assert weights.verify_certificate(t, a, b, cert)

    def test_relabeled_reference_tree(self, validations):
        raw = helpers.relabeled(helpers.fig_tree(), random.Random(4))
        t = reduce_tree(raw)
        self.use_everything(t)
        assert validations(raw) == 1
        assert validations(t) <= 1
        assert t == helpers.fig_tree()

    def test_enumerated_tree(self, validations):
        raw = enumerate_trees(4)[7]
        t = reduce_tree(raw)
        self.use_everything(t)
        assert validations(raw) <= 1
        assert validations(t) <= 1

    def test_unreduced_tree_raises_every_time(self, validations, fig):
        t = ColoredTree.build(fig.vertices + (Vertex(8, False),),
                              fig.edges + ((4, 8),), fig.root)
        for _ in range(2):
            with pytest.raises(ValueError, match="not reduced"):
                weights.label_weights(t)
        assert validations(t) == 1

    def test_invalid_tree_raises_every_time(self, validations):
        t = ColoredTree.build(
            [Vertex(1, False), Vertex(2, True, 1), Vertex(3, True, 1)],
            [(1, 2), (1, 3)], 1)
        for _ in range(2):
            with pytest.raises(ValueError, match="invalid colored tree"):
                local_divisors.minimally_complete_subsets(t)
        with pytest.raises(ValueError, match="invalid colored tree"):
            reduce_tree(t)
        assert validations(t) == 1


class TestReduction:
    def test_reference_tree_already_canonical(self, fig):
        assert is_reduced(fig)
        assert reduce_tree(fig) == fig
        assert fig.index == {1: 1, 2: 2, 3: 3}

    def test_deep_tree_already_canonical(self, deep):
        assert reduce_tree(deep) == deep
        assert deep.index == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_subtree_below_colored_is_dropped(self):
        t = ColoredTree.build(
            [Vertex(1, False), Vertex(2, True, 1), Vertex(3, True, 2),
             Vertex(4, False), Vertex(5, False)],
            [(1, 2), (1, 3), (2, 4), (4, 5)], 1)
        assert not is_reduced(t)
        reduced = reduce_tree(t)
        assert is_reduced(reduced)
        assert reduced == helpers.star_tree(2)

    def test_colored_below_colored_is_invalid(self):
        t = ColoredTree.build(
            [Vertex(1, False), Vertex(2, True, 1), Vertex(3, True, 2),
             Vertex(4, True, 3)],
            [(1, 2), (1, 3), (2, 4)], 1)
        assert not validate_tree(t).one_colored_per_path
        with pytest.raises(ValueError):
            reduce_tree(t)

    def test_invalid_tree_rejected(self):
        t = ColoredTree.build([Vertex(1, False)], [], 1)
        with pytest.raises(ValueError):
            reduce_tree(t)

    def test_canonical_form_is_relabeling_invariant(self, fig, deep):
        rng = random.Random(7)
        for t in [fig, deep, helpers.star_tree(5)] + list(enumerate_trees(4)):
            expected = reduce_tree(t)
            for _ in range(5):
                assert reduce_tree(helpers.relabeled(t, rng)) == expected

    def test_labels_do_not_need_to_be_contiguous(self):
        t = ColoredTree.build(
            [Vertex(10, False), Vertex(11, True, 4), Vertex(12, True, 9)],
            [(10, 11), (10, 12)], 10)
        reduced = reduce_tree(t)
        assert reduced.labels == (4, 9)
        # Colored ids are g + label even for sparse label sets.
        assert reduced.colored_id(4) == 5 and reduced.colored_id(9) == 10

    def test_colored_id_matches_a_scan(self, fig, deep):
        # Reduced trees with scrambled ids, so g + label is not the answer.
        rng = random.Random(11)
        for t in [fig, deep, helpers.star_tree(5)] + list(enumerate_trees(4)):
            raw = helpers.relabeled(t, rng)
            assert is_reduced(raw) and reduce_tree(raw) != raw
            for label in raw.labels:
                scan = next(v.id for v in raw.vertices if v.colored and v.label == label)
                assert raw.colored_id(label) == scan
            with pytest.raises(KeyError):
                raw.colored_id(max(raw.labels) + 1)
        # A repeated label (an invalid tree) resolves to its first vertex.
        twice = ColoredTree.build(
            [Vertex(1, False), Vertex(3, True, 1), Vertex(2, True, 1)],
            [(1, 3), (1, 2)], 1)
        assert twice.colored_id(1) == 3


def test_tree_for_partition_matches_reference(fig):
    assert helpers.tree_for_partition(Partition.of([(1, 2), (3, 4)])) == fig


def test_tree_for_partition_singletons():
    t = helpers.tree_for_partition(Partition.of([(1,), (2,), (3,)]))
    assert t == helpers.star_tree(3)


class TestEnumeration:
    def test_counts_match_independent_oracle(self):
        for n in range(2, 6):
            assert len(enumerate_trees(n)) == helpers.hierarchy_count(n)

    def test_all_enumerated_trees_are_canonical(self):
        for t in enumerate_trees(4):
            assert validate_tree(t).ok and is_reduced(t)
            assert t.labels == (1, 2, 3, 4)
            assert reduce_tree(t) == t
        assert len(set(enumerate_trees(4))) == 26

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_trees(1)


class TestCompatibility:
    def test_reference_tree_cases(self, fig):
        yes = [[(1, 2), (3, 4)], [(1,), (2,), (3,), (4,)],
               [(1, 2), (3,), (4,)], [(1,), (2,), (3, 4)]]
        no = [[(1, 3), (2, 4)], [(1, 2, 3), (4,)], [(1, 4), (2, 3)],
              [(1,), (2, 3, 4)], [(1, 2, 4), (3,)], [(1, 3), (2,), (4,)]]
        for blocks in yes:
            assert helpers.is_compatible(Partition.of(blocks), fig)
        for blocks in no:
            assert not helpers.is_compatible(Partition.of(blocks), fig)

    def test_witness_map_is_a_contraction(self, fig):
        p = Partition.of([(1, 2), (3, 4)])
        target = helpers.tree_for_partition(p)
        mapping = helpers.model_homomorphism(fig, p)
        assert mapping is not None
        assert mapping[fig.root] == target.root
        for label in (1, 2, 3, 4):
            assert mapping[fig.colored_id(label)] == target.colored_id(label)
        surviving = []
        for parent, child in fig.edges:
            a, b = mapping[parent], mapping[child]
            if a != b:
                assert (a, b) in target.edges
                surviving.append((a, b))
        # one surviving edge per model edge keeps the fibers connected
        assert sorted(surviving) == sorted(target.edges)

    def test_sibling_subtrees_never_merge(self):
        # Root carries marking 1 plus two bubbles {2,3} and {4,5}.  A mere
        # graph homomorphism could fold both bubbles onto the block vertex
        # of 1|2,3,4,5, but no edge contraction does, so that partition is
        # not compatible.
        t = ColoredTree.build(
            [Vertex(3, False), Vertex(4, True, 1), Vertex(1, False),
             Vertex(5, True, 2), Vertex(6, True, 3), Vertex(2, False),
             Vertex(7, True, 4), Vertex(8, True, 5)],
            [(3, 4), (3, 1), (1, 5), (1, 6), (3, 2), (2, 7), (2, 8)],
            root=3,
        )
        merged = Partition.of([(1,), (2, 3, 4, 5)])
        assert not helpers.is_compatible(merged, t)
        assert helpers.model_homomorphism(t, merged) is None
        compatible = sorted(p.key() for p in partitions_of(range(1, 6))
                            if helpers.is_compatible(p, t))
        assert compatible == ["1|2,3|4,5", "1|2,3|4|5", "1|2|3|4,5", "1|2|3|4|5"]

    def test_ground_set_mismatch(self, fig):
        with pytest.raises(ValueError):
            helpers.is_compatible(Partition.of([(1, 2), (3,)]), fig)

    def test_star_matches_only_singletons(self):
        # The one-vertex tree is itself the all-singletons divisor; no other
        # partition's model receives a contraction map from it.
        star = helpers.star_tree(4)
        singletons = Partition.of([(1,), (2,), (3,), (4,)])
        for p in partitions_of([1, 2, 3, 4]):
            assert helpers.is_compatible(p, star) == (p == singletons)


class TestSerialization:
    def test_roundtrip(self, fig, deep):
        # Vertices are sorted by id on the way out, so equality holds up to
        # storage order: same vertex set, edge set, root, and canonical form.
        for t in (fig, deep, helpers.star_tree(3)):
            doc = t.to_json_dict()
            json.dumps(doc)
            back = ColoredTree.from_json_dict(doc)
            assert set(back.vertices) == set(t.vertices)
            assert sorted(back.edges) == sorted(t.edges)
            assert back.root == t.root
            assert reduce_tree(back) == reduce_tree(t)

    def test_bad_documents(self):
        bad = [
            "not a dict",
            {},
            {"root": True, "vertices": [], "edges": []},
            {"root": 1, "vertices": [{"id": 1}], "edges": []},
            {"root": 1, "vertices": [{"id": 1, "colored": True}], "edges": []},
            {"root": 1, "vertices": [{"id": 1, "colored": False}], "edges": [[1]]},
            {"root": 1, "vertices": [{"id": 1, "colored": False}], "edges": [[1, "x"]]},
        ]
        for doc in bad:
            with pytest.raises(ValueError):
                ColoredTree.from_json_dict(doc)

    def test_dot_output(self, fig):
        dot = fig.to_dot(edge_labels={1: "a"})
        assert dot.startswith("digraph")
        assert 'v3 -> v1 [label="a"];' in dot
        assert "v3 -> v2;" in dot
        assert dot.count("shape=circle") == 4
