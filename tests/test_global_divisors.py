"""Global strata, the push-pull lattice, witnesses, and pullbacks."""

import random

import pytest

import helpers
from scaledlines.global_divisors import (DivisorVector, NotCartierError,
                                         cartier_witness, enumerate_strata,
                                         enumerate_strata_multi,
                                         image_lattice_basis, is_cartier_global,
                                         local_global_crosscheck,
                                         pullback_fij, pullback_fij_typeI,
                                         pullback_forgetful, pushpull_matrix,
                                         pushpull_rank, relations_basis,
                                         simple_partition_for, simple_partitions)
from scaledlines.intlinalg import IntMatrix, lattice_equal
from scaledlines.trees import Partition, Subset


def singletons(n):
    return Partition.of([(x,) for x in range(1, n + 1)])


class TestStrata:
    def test_counts(self):
        for n, one, two in [(2, 1, 1), (3, 4, 4), (4, 11, 14), (5, 26, 51)]:
            strata = enumerate_strata(n)
            assert (len(strata.typeI), len(strata.typeII)) == (one, two)

    def test_n3_exact(self):
        strata = enumerate_strata(3)
        assert [s.key() for s in strata.typeI] == ["1,2", "1,2,3", "1,3", "2,3"]
        assert [p.key() for p in strata.typeII] == [
            "1|2|3", "1|2,3", "1,2|3", "1,3|2"]

    def test_full_set_is_a_type_one_stratum(self):
        assert Subset.of([1, 2, 3, 4]) in enumerate_strata(4).typeI

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            enumerate_strata(1)
        with pytest.raises(ValueError):
            enumerate_strata("4")


class TestMultiStrata:
    def test_scale_subsets(self):
        assert len(enumerate_strata_multi(2, 1).typeII) == 1
        assert len(enumerate_strata_multi(2, 2).typeII) == 3
        assert len(enumerate_strata_multi(2, 3).typeII) == 7
        assert len(enumerate_strata_multi(3, 2).typeII) == 4 * 3

    def test_single_scale_matches_plain_enumeration(self):
        multi = enumerate_strata_multi(4, 1)
        plain = enumerate_strata(4)
        assert multi.typeI == plain.typeI
        assert tuple(p for p, _ in multi.typeII) == plain.typeII
        assert all(j == (1,) for _, j in multi.typeII)

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            enumerate_strata_multi(3, 0)


class TestDivisorVector:
    def test_construction_and_lookup(self):
        d = DivisorVector.of(
            3,
            {Subset.of([1, 2]): 2},
            {singletons(3): -1, Partition.of([(1, 2), (3,)]): 0},
        )
        assert d.typeI_coeff(Subset.of([1, 2])) == 2
        assert d.typeI_coeff(Subset.of([1, 3])) == 0
        assert d.typeII_coeff(singletons(3)) == -1
        # Zero coefficients are dropped entirely.
        assert len(d.typeII) == 1
        assert d.typeII_vector() == (-1, 0, 0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DivisorVector.of(3, {Subset.of([1]): 1}, {})
        with pytest.raises(ValueError):
            DivisorVector.of(3, {Subset.of([1, 4]): 1}, {})
        with pytest.raises(ValueError):
            DivisorVector.of(3, {}, {Partition.of([(1, 2), (3, 4)]): 1})
        with pytest.raises(ValueError):
            DivisorVector.of(3, {Subset.of([1, 2]): True}, {})

    def test_json_roundtrip(self):
        d = DivisorVector.of(4, {Subset.of([1, 2]): 1},
                             {Partition.of([(1, 2), (3, 4)]): -2})
        assert DivisorVector.from_json_dict(d.to_json_dict()) == d

    def test_json_rejections(self):
        with pytest.raises(ValueError):
            DivisorVector.from_json_dict([])
        with pytest.raises(ValueError):
            DivisorVector.from_json_dict({"n": "4"})
        with pytest.raises(ValueError):
            DivisorVector.from_json_dict({"n": 3, "typeII": {"1,2|3": 1.5}})


class TestPushPull:
    def test_shape(self):
        pp = pushpull_matrix(3)
        assert len(pp.subsets) == 6 and len(pp.partitions) == 4
        assert pp.matrix.rows == 6 and pp.matrix.cols == 4

    def test_column_sums_count_blocks(self):
        for n in (3, 4, 5):
            pp = pushpull_matrix(n)
            cols = pp.matrix.transpose()
            for p, col in zip(pp.partitions, cols):
                assert sum(col) == len(p.blocks)

    def test_row_semantics(self):
        pp = pushpull_matrix(3)
        for s, row in zip(pp.subsets, pp.matrix):
            for p, entry in zip(pp.partitions, row):
                assert entry == (1 if s in p else 0)

    def test_push_pull_and_pull_push(self):
        pp = pushpull_matrix(3)
        rng = random.Random(5)
        h = {p: rng.randint(-4, 4) for p in pp.partitions}
        # The push direction S -> sum of h over partitions with block S is
        # the matrix itself.
        pushed = pp.matrix.matvec([h[p] for p in pp.partitions])
        for s, value in zip(pp.subsets, pushed):
            assert value == sum(c for p, c in h.items() if s in p)
        k = {s: rng.randint(-4, 4) for s in pp.subsets}
        pulled = pp.pull_push(k)
        for p in pp.partitions:
            assert pulled[p] == sum(k[Subset(b)] for b in p.blocks)


class TestRankAndRelations:
    def test_ranks(self):
        for n in (2, 3, 4, 5):
            assert pushpull_rank(n) == 2 ** n - n - 1

    def test_rank_matches_fraction_oracle(self):
        for n in (2, 3, 4):
            m = pushpull_matrix(n).matrix
            assert pushpull_rank(n) == helpers.fraction_rank(m.row_list())

    def test_no_relations_below_four_markings(self):
        assert relations_basis(2).rows == 0
        assert relations_basis(3).rows == 0

    def test_n4_relations(self):
        basis = relations_basis(4)
        assert basis.rows == 3
        m = pushpull_matrix(4).matrix
        for row in basis:
            assert m.matvec(row) == (0,) * m.rows

    def test_n4_pairwise_split_relations_span(self):
        # For each split into two pairs: the two refinements into that pair
        # plus singletons minus the split itself minus all-singletons.
        pindex = {p: i for i, p in enumerate(pushpull_matrix(4).partitions)}
        rows = []
        for pair_blocks in ([(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]):
            a, b = pair_blocks
            vec = [0] * len(pindex)
            vec[pindex[Partition.of([a, (b[0],), (b[1],)])]] += 1
            vec[pindex[Partition.of([(a[0],), (a[1],), b])]] += 1
            vec[pindex[Partition.of([a, b])]] -= 1
            vec[pindex[singletons(4)]] -= 1
            rows.append(vec)
        m = pushpull_matrix(4).matrix
        for vec in rows:
            assert m.matvec(tuple(vec)) == (0,) * m.rows
        assert lattice_equal(IntMatrix(rows), relations_basis(4))


class TestSimplePartitions:
    def test_simple_partition_for(self):
        assert simple_partition_for(Subset.of([2, 3]), 4).key() == "1|2,3|4"

    def test_counts(self):
        for n in (2, 3, 4, 5):
            assert len(simple_partitions(n)) == 2 ** n - n - 1

    def test_n3_exact(self):
        assert [p.key() for p in simple_partitions(3)] == [
            "1|2|3", "1|2,3", "1,2|3", "1,3|2"]


class TestCartierDecision:
    def test_n3_everything_is_cartier(self):
        assert image_lattice_basis(3) == IntMatrix.identity(4)
        d = DivisorVector.of(3, {}, {Partition.of([(1, 2), (3,)]): 1})
        assert is_cartier_global(3, d)

    def test_n4_single_partition_is_not(self):
        d = DivisorVector.of(4, {}, {Partition.of([(1, 2), (3, 4)]): 1})
        assert not is_cartier_global(4, d)
        with pytest.raises(NotCartierError):
            cartier_witness(4, d)

    def test_mismatched_n(self):
        d = DivisorVector.of(3, {}, {singletons(3): 1})
        with pytest.raises(ValueError):
            is_cartier_global(4, d)
        with pytest.raises(ValueError):
            cartier_witness(4, d)

    def test_witness_reconstructs_coefficients(self):
        pp = pushpull_matrix(4)
        rng = random.Random(3)
        for _ in range(20):
            k = {s: rng.randint(-3, 3) for s in pp.subsets}
            divisor = DivisorVector.of(4, {}, pp.pull_push(k))
            witness = cartier_witness(4, divisor)
            assert pp.pull_push(witness) == pp.pull_push(k)

    def test_witness_pinning(self):
        # The singleton values are pinned: {1} carries the all-singletons
        # coefficient, every other singleton carries zero.
        pp = pushpull_matrix(4)
        k = {s: 1 for s in pp.subsets}
        divisor = DivisorVector.of(4, {}, pp.pull_push(k))
        witness = cartier_witness(4, divisor)
        assert witness[Subset.of([2])] == 0
        assert witness[Subset.of([3])] == 0
        assert witness[Subset.of([1])] == divisor.typeII_coeff(singletons(4))


    @pytest.mark.parametrize("n", range(2, 8))
    def test_closed_form_decision_matches_hnf(self, n):
        # Image vectors, image vectors moved off the lattice at one
        # partition, and sparse vectors, against the HNF image solver.
        pp = pushpull_matrix(n)
        solver = helpers.image_solver(n)
        rng = random.Random(100 + n)
        vectors = []
        for _ in range(40):
            image = pp.pull_push({s: rng.randint(-3, 3) for s in pp.subsets})
            vectors.append(image)
            moved = dict(image)
            moved[rng.choice(pp.partitions)] += rng.choice([-1, 1])
            vectors.append(moved)
            vectors.append({p: rng.randint(-3, 3)
                            for p in rng.sample(pp.partitions, min(3, len(pp.partitions)))})
        decisions = set()
        for coeffs in vectors:
            divisor = DivisorVector.of(n, {}, coeffs)
            cartier = is_cartier_global(n, divisor)
            assert cartier == (solver.solve(divisor.typeII_vector()) is not None)
            decisions.add(cartier)
        assert decisions == ({True} if n < 4 else {True, False})


class TestPullbacks:
    def test_forgetful_exact(self):
        d = pullback_forgetful(4, Subset.of([1, 2]))
        assert d.typeI == ((Subset.of([1, 2]), 1),)
        assert sorted(p.key() for p, _ in d.typeII) == ["1,2|3,4", "1,2|3|4"]
        assert is_cartier_global(4, d)

    def test_forgetful_validation(self):
        with pytest.raises(ValueError):
            pullback_forgetful(4, Subset.of([1]))
        with pytest.raises(ValueError):
            pullback_forgetful(4, Subset.of([1, 2, 3, 4]))
        with pytest.raises(ValueError):
            pullback_forgetful(4, Subset.of([1, 7]))

    def test_crossratio_exact(self):
        two = pullback_fij(4, 1, 4)
        assert len(two.typeII) == 10
        expected = {p.key() for p, _ in two.typeII}
        assert "1,4|2|3" not in expected and "1,2,4|3" not in expected
        assert "1|2|3|4" in expected and "1,2,3|4" in expected
        for p, c in two.typeII:
            assert c == 1 and p.separates(1, 4)

    def test_crossratio_type_one(self):
        one = pullback_fij_typeI(4, 1, 4)
        assert [s.key() for s, _ in one.typeI] == ["1,2,3,4", "1,2,4", "1,3,4", "1,4"]

    def test_crossratio_is_cartier_with_witness(self):
        two = pullback_fij(4, 1, 4)
        assert is_cartier_global(4, two)
        witness = cartier_witness(4, two)
        support = sorted(s.key() for s, c in witness.items() if c)
        assert support == ["1", "1,2", "1,2,3", "1,3"]
        assert all(witness[Subset.from_key(k)] == 1 for k in support)

    def test_all_pullbacks_small_n_are_cartier(self):
        for n in (3, 4, 5):
            for s in enumerate_strata(n).typeI:
                if len(s) < n:
                    assert is_cartier_global(n, pullback_forgetful(n, s))
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    assert is_cartier_global(n, pullback_fij(n, i, j))

    def test_bad_pairs(self):
        with pytest.raises(ValueError):
            pullback_fij(4, 2, 2)
        with pytest.raises(ValueError):
            pullback_fij(4, 0, 3)


class TestCrosscheck:
    def test_n2(self):
        report = local_global_crosscheck(2)
        assert report.ok
        assert report.trees_checked == 1
        assert report.rank_expected == report.rank_image == report.rank_local == 1

    def test_n3(self):
        report = local_global_crosscheck(3)
        assert report.ok
        assert report.trees_checked == 4
        assert report.relation_rows == 0
        assert report.separating_vector is None

    def test_n4(self):
        report = local_global_crosscheck(4)
        assert report.ok
        assert report.trees_checked == 26
        assert report.relation_rows > 0
        assert report.rank_image == 11
        doc = report.to_json_dict()
        assert doc["ok"] and doc["lattices_equal"]
