"""Acceptance suite: thirteen frozen criteria, exact equality throughout.

Run ``pytest tests/test_acceptance.py -v -s`` to get one printed line per
criterion.  Expected values are hand-checked worked examples or counts
derived by an independent route (see tests/helpers.py); there are no
tolerances anywhere, every comparison is integer equality.
"""

import random
import time
from contextlib import contextmanager

import helpers
from scaledlines.cones import generators, pair, ray_count
from scaledlines.global_divisors import (DivisorVector, NotCartierError,
                                         cartier_witness, enumerate_strata,
                                         enumerate_strata_multi,
                                         image_lattice_basis, is_cartier_global,
                                         local_global_crosscheck, pullback_fij,
                                         pullback_forgetful, pushpull_matrix,
                                         pushpull_rank, relations_basis,
                                         simple_partitions)
from scaledlines.intlinalg import IntMatrix, lattice_equal, smith_normal_form
from scaledlines.local_divisors import (is_cartier_local, local_cartier_generators,
                                        minimally_complete_subsets,
                                        partition_of_subset, ray_of_subset,
                                        subset_of_partition, vertex_witnesses)
from scaledlines.trees import Partition, Subset, enumerate_trees, partitions_of
from scaledlines.weights import (label_weights, pairing_certificate, total_weight,
                                 verify_certificate, weight_sum_equal)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL ({label})")
        raise
    print(f"[acceptance] criterion {number}: PASS ({label})")


def all_trees(max_n):
    return [t for n in range(2, max_n + 1) for t in enumerate_trees(n)]


def test_criterion_01_strata_counts():
    with criterion(1, "strata counts for n = 2..6 and the multi-scale variant"):
        expected = {2: (1, 1), 3: (4, 4), 4: (11, 14), 5: (26, 51), 6: (57, 202)}
        for n, (one, two) in expected.items():
            strata = enumerate_strata(n)
            assert (len(strata.typeI), len(strata.typeII)) == (one, two)
            assert len(strata.typeI) == 2 ** n - n - 1
        assert len(enumerate_strata(2).typeI) + len(enumerate_strata(2).typeII) == 2
        for s, count in [(1, 1), (2, 3), (3, 7)]:
            assert len(enumerate_strata_multi(2, s).typeII) == count
        assert len(enumerate_strata_multi(3, 2).typeII) == 4 * 3


def test_criterion_02_pushpull_rank_formula():
    with criterion(2, "push-pull rank equals 2^n - n - 1 for n = 2..8"):
        for n in range(2, 8):
            assert pushpull_rank(n) == 2 ** n - n - 1
        start = time.perf_counter()
        assert pushpull_rank(8) == 2 ** 8 - 8 - 1
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"n=8 rank took {elapsed:.1f}s"


def test_criterion_03_four_marking_relations():
    with criterion(3, "the three pairwise-split relations span the n=4 kernel"):
        basis = relations_basis(4)
        assert basis.rows == 3
        pp = pushpull_matrix(4)
        pindex = {p: i for i, p in enumerate(pp.partitions)}
        rows = []
        for a, b in ([(1, 2), (3, 4)], [(1, 3), (2, 4)], [(1, 4), (2, 3)]):
            vec = [0] * len(pp.partitions)
            vec[pindex[Partition.of([a, (b[0],), (b[1],)])]] += 1
            vec[pindex[Partition.of([(a[0],), (a[1],), b])]] += 1
            vec[pindex[Partition.of([a, b])]] -= 1
            vec[pindex[Partition.of([(x,) for x in (1, 2, 3, 4)])]] -= 1
            rows.append(vec)
        for vec in rows:
            assert pp.matrix.matvec(vec) == (0,) * pp.matrix.rows
        assert lattice_equal(IntMatrix(rows), basis)


def test_criterion_04_reference_tree_suite():
    with criterion(4, "every frozen value of the reference tree worked example"):
        fig = helpers.fig_tree()
        assert label_weights(fig) == {1: (0, 1, 1), 2: (1, 0, 1), 4: (1, 0, 0),
                                      5: (1, 0, 0), 6: (0, 1, 0), 7: (0, 1, 0)}
        assert total_weight(fig) == (1, 1, 1)
        assert generators(fig) == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1))
        assert ray_count(fig) == 4

        subsets = minimally_complete_subsets(fig)
        assert subsets == ((1, 2), (1, 6, 7), (2, 4, 5), (4, 5, 6, 7))
        assert [ray_of_subset(fig, y) for y in subsets] == [
            (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, -1)]
        assert [partition_of_subset(fig, y).key() for y in subsets] == [
            "1,2|3,4", "1,2|3|4", "1|2|3,4", "1|2|3|4"]

        assert fig.relations.row_list() == [[1, -1, -1, 1]]
        assert local_cartier_generators(fig) == [
            {(1, 2): 1, (1, 6, 7): 1, (2, 4, 5): 1, (4, 5, 6, 7): 1},
            {(2, 4, 5): 1, (4, 5, 6, 7): 1},
            {(1, 6, 7): 1, (4, 5, 6, 7): 1},
        ]
        assert vertex_witnesses(fig) == [(1, 1, 1), (1, 0, 0), (0, 1, 0)]

        a, b = {1: 3, 4: 2, 5: 1, 6: 1}, {2: 3, 7: 4}
        assert weight_sum_equal(fig, a, b)
        cert = pairing_certificate(fig, a, b)
        shape = sorted((tuple(sorted(p.a_edges)), tuple(sorted(p.b_edges)))
                       for p in cert.pairs)
        assert shape == [((1, 4), (2, 7)), ((1, 4), (2, 7)),
                         ((1, 5), (2, 7)), ((6,), (7,))]
        assert verify_certificate(fig, a, b, cert)

        full = is_cartier_local(fig, {y: 1 for y in subsets})
        assert full.cartier and full.witness == (1, 1, 1)
        single = is_cartier_local(fig, {(1, 2): 1})
        assert not single.cartier
        assert single.violated_relation == (1, -1, -1, 1)


def test_criterion_05_local_route_agreement():
    with criterion(5, "kernel route and support-function route agree on"
                      " 10^4+ sampled divisors over all trees with n <= 5"):
        rng = random.Random(2024)
        trees = all_trees(5)
        per_tree = -(-10000 // len(trees))      # ceil; 267 trees -> 38 each
        samples = cartier_hits = 0
        for t in trees:
            subsets = minimally_complete_subsets(t)
            rays = [ray_of_subset(t, y) for y in subsets]
            for _ in range(per_tree):
                coeffs = {y: rng.randint(-2, 2) for y in subsets}
                decision = is_cartier_local(t, coeffs)  # raises on disagreement
                samples += 1
                if decision.cartier:
                    cartier_hits += 1
                    assert all(pair(decision.witness, r) == coeffs[y]
                               for y, r in zip(subsets, rays))
                else:
                    vec = [coeffs[y] for y in subsets]
                    assert sum(m * x for m, x in
                               zip(decision.violated_relation, vec)) != 0
        assert samples >= 10000
        assert 0 < cartier_hits < samples


def test_criterion_06_local_global_crosscheck():
    with criterion(6, "tree-by-tree lattice equals push-pull image, n = 3..5"):
        for n in (3, 4):
            assert local_global_crosscheck(n).ok
        start = time.perf_counter()
        report = local_global_crosscheck(5)
        elapsed = time.perf_counter() - start
        assert report.ok and report.trees_checked == 236
        assert elapsed < 600.0, f"n=5 crosscheck took {elapsed:.1f}s"


def test_criterion_07_certificates_exhaustive():
    with criterion(7, "certificate exists iff weight sums agree, exhaustively"
                      " over all trees n <= 5 and multiset pairs of size <= 4"):
        checked = matched = 0
        for t in all_trees(5):
            for a, b in helpers.disjoint_multiset_pairs(t.edge_keys, 4):
                equal = weight_sum_equal(t, a, b)
                cert = pairing_certificate(t, a, b)
                assert (cert is not None) == equal
                if cert is not None:
                    assert verify_certificate(t, a, b, cert)
                    matched += 1
                checked += 1
        assert checked > 400000 and matched > 5000


def test_criterion_08_tree_enumeration():
    with criterion(8, "tree counts match the multinomial oracle up to n = 6"):
        expected = {2: 1, 3: 4, 4: 26, 5: 236, 6: 2752}
        for n, count in expected.items():
            trees = enumerate_trees(n)
            assert len(trees) == count == helpers.hierarchy_count(n)
            assert len(set(trees)) == count
        for t in all_trees(5):
            assert len(generators(t)) == ray_count(t)


def test_criterion_09_subset_partition_dictionary():
    with criterion(9, "subsets <-> partitions bijection and the ray count"):
        for n in range(2, 7):
            for t in enumerate_trees(n):
                assert len(minimally_complete_subsets(t)) == ray_count(t)
        for t in all_trees(5):
            for y in minimally_complete_subsets(t):
                assert subset_of_partition(t, partition_of_subset(t, y)) == y
        for n in range(2, 6):
            universe = partitions_of(range(1, n + 1))
            for t in enumerate_trees(n):
                from_subsets = {partition_of_subset(t, y)
                                for y in minimally_complete_subsets(t)}
                from_maps = {p for p in universe if helpers.is_compatible(p, t)}
                assert from_subsets == from_maps


def test_criterion_10_simple_partitions():
    with criterion(10, "the eleven simple partitions on four markings"):
        assert [p.key() for p in simple_partitions(4)] == [
            "1|2|3|4", "1|2|3,4", "1|2,3|4", "1|2,3,4", "1|2,4|3",
            "1,2|3|4", "1,2,3|4", "1,2,4|3", "1,3|2|4", "1,3,4|2", "1,4|2|3",
        ]
        for n in (2, 3, 5, 6):
            assert len(simple_partitions(n)) == 2 ** n - n - 1


def hnf_cartier(n, divisor):
    """The image-lattice decision by HNF, a route independent of the witness."""
    return helpers.image_solver(n).solve(divisor.typeII_vector()) is not None


def test_criterion_11_pullbacks_are_cartier():
    with criterion(11, "forgetful and cross-ratio pullbacks are Cartier, n <= 6"):
        for n in range(3, 7):
            for s in enumerate_strata(n).typeI:
                if len(s) < n:
                    d = pullback_forgetful(n, s)
                    assert is_cartier_global(n, d)
                    assert hnf_cartier(n, d)
                    cartier_witness(n, d)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    d = pullback_fij(n, i, j)
                    assert is_cartier_global(n, d)
                    assert hnf_cartier(n, d)
                    cartier_witness(n, d)
        assert len(pullback_fij(4, 1, 4).typeII) == 10


def test_criterion_12_witness_sampling():
    with criterion(12, "10^3 witnesses per n reconstruct exactly; non-image"
                      " vectors are refused (none exist for n < 4)"):
        rng = random.Random(77)
        for n in range(2, 7):
            pp = pushpull_matrix(n)
            for _ in range(1000):
                k = {s: rng.randint(-3, 3) for s in pp.subsets}
                divisor = DivisorVector.of(n, {}, pp.pull_push(k))
                assert is_cartier_global(n, divisor)
                assert hnf_cartier(n, divisor)
                witness = cartier_witness(n, divisor)
                rebuilt = pp.pull_push(witness)
                for p in pp.partitions:
                    assert rebuilt[p] == divisor.typeII_coeff(p)
        # Below four markings every integer vector is in the image lattice,
        # so the refusal half of the criterion is vacuous there.
        for n in (2, 3):
            assert image_lattice_basis(n) == IntMatrix.identity(
                len(pushpull_matrix(n).partitions))
        for n in (4, 5, 6):
            pp = pushpull_matrix(n)
            refused = 0
            while refused < 1000:
                coeffs = {p: rng.randint(-3, 3) for p in pp.partitions}
                divisor = DivisorVector.of(n, {}, coeffs)
                # The witness route decides, so the HNF route checks it.
                cartier = is_cartier_global(n, divisor)
                assert cartier == hnf_cartier(n, divisor)
                if cartier:
                    continue
                try:
                    cartier_witness(n, divisor)
                except NotCartierError:
                    refused += 1
                else:
                    raise AssertionError("witness produced for a non-image vector")


def test_criterion_13_pushpull_smith_form():
    with criterion(13, "push-pull invariant factors are all 1 for n = 2..6"):
        for n in range(2, 7):
            factors = smith_normal_form(pushpull_matrix(n).matrix)
            assert len(factors) == 2 ** n - n - 1
            assert all(f == 1 for f in factors)
