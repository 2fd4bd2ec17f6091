"""Edge weights and pairing certificates for weight-sum comparisons."""

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from scaledlines.trees import enumerate_trees
from scaledlines.weights import (MAX_TOTAL_MULTIPLICITY, CertificatePair, label_weights,
                                 pairing_certificate, total_weight,
                                 verify_certificate, weight_sum_equal)

# Frozen worked example on the reference tree: the two multisets below have
# equal weight sums and decompose into exactly four path pairs.
EXAMPLE_A = {1: 3, 4: 2, 5: 1, 6: 1}
EXAMPLE_B = {2: 3, 7: 4}


class TestLabelWeights:
    def test_reference_tree_exact(self, fig):
        assert label_weights(fig) == {
            1: (0, 1, 1),       # edge into the {1,2} branch
            2: (1, 0, 1),       # edge into the {3,4} branch
            4: (1, 0, 0), 5: (1, 0, 0),
            6: (0, 1, 0), 7: (0, 1, 0),
        }
        assert total_weight(fig) == (1, 1, 1)
        assert fig.totals == {1: (1, 0, 0), 2: (0, 1, 0), 3: (1, 1, 1)}

    def test_deep_tree_exact(self, deep):
        assert label_weights(deep) == {
            5: (1, 0, 0, 0), 6: (1, 0, 0, 0),
            1: (0, 1, 0, 0),
            7: (1, 1, 0, 0),
            2: (0, 0, 1, 1),
            8: (0, 0, 1, 0), 9: (0, 0, 1, 0),
            3: (1, 1, 0, 1),
            10: (1, 1, 1, 1),
        }
        assert total_weight(deep) == (1, 1, 1, 1)

    def test_star(self):
        star = helpers.star_tree(3)
        assert label_weights(star) == {2: (1,), 3: (1,), 4: (1,)}
        assert total_weight(star) == (1,)

    def test_path_sums_equal_the_total(self):
        # Walking from the root to any marking accumulates the same total.
        for t in enumerate_trees(4):
            weights = label_weights(t)
            total = total_weight(t)
            for label in t.labels:
                path = t.path_up(t.colored_id(label))
                acc = tuple(map(sum, zip(*(weights[e] for e in path))))
                assert acc == total


class TestWeightSumEqual:
    def test_reference_cases(self, fig):
        assert weight_sum_equal(fig, {1: 1, 4: 1}, {2: 1, 6: 1})
        assert not weight_sum_equal(fig, {1: 1}, {4: 1, 6: 1})
        assert weight_sum_equal(fig, EXAMPLE_A, EXAMPLE_B)
        assert weight_sum_equal(fig, {}, {})

    def test_input_validation(self, fig):
        with pytest.raises(ValueError):
            weight_sum_equal(fig, {1: 1}, {1: 1})
        with pytest.raises(ValueError):
            weight_sum_equal(fig, {99: 1}, {2: 1})
        with pytest.raises(ValueError):
            weight_sum_equal(fig, {1: 0}, {2: 1})
        with pytest.raises(ValueError):
            weight_sum_equal(fig, {1: -2}, {2: 1})

    def test_total_multiplicity_bound(self, fig):
        # The bound counts both sides; one unit more is refused before any
        # path is built.
        half = MAX_TOTAL_MULTIPLICITY // 2
        assert weight_sum_equal(fig, {4: half}, {5: MAX_TOTAL_MULTIPLICITY - half})
        with pytest.raises(ValueError, match="total multiplicity"):
            weight_sum_equal(fig, {4: half}, {5: MAX_TOTAL_MULTIPLICITY - half + 1})
        with pytest.raises(ValueError, match="total multiplicity"):
            pairing_certificate(fig, {4: 10 ** 12}, {5: 1})


class TestPairingCertificate:
    def test_worked_example(self, fig):
        cert = pairing_certificate(fig, EXAMPLE_A, EXAMPLE_B)
        assert cert is not None
        shape = sorted(
            (tuple(sorted(p.a_edges)), tuple(sorted(p.b_edges))) for p in cert.pairs)
        assert shape == [((1, 4), (2, 7)), ((1, 4), (2, 7)),
                         ((1, 5), (2, 7)), ((6,), (7,))]
        assert verify_certificate(fig, EXAMPLE_A, EXAMPLE_B, cert)

    def test_pair_endpoints(self, fig):
        cert = pairing_certificate(fig, EXAMPLE_A, EXAMPLE_B)
        for p in cert.pairs:
            # Both paths run from the meet vertex down to their markings.
            assert p.meet in (2, 3)
            assert p.a_mark in (1, 2, 3) and p.b_mark == 4

    def test_unequal_sums_have_no_certificate(self, fig):
        assert pairing_certificate(fig, {1: 1}, {2: 1}) is None
        assert pairing_certificate(fig, {4: 1}, {6: 1}) is None

    def test_empty_multisets(self, fig):
        cert = pairing_certificate(fig, {}, {})
        assert cert is not None and cert.pairs == ()
        assert verify_certificate(fig, {}, {}, cert)

    def test_verify_rejects_wrong_certificate(self, fig):
        cert = pairing_certificate(fig, {1: 1, 4: 1}, {2: 1, 6: 1})
        assert verify_certificate(fig, {1: 1, 4: 1}, {2: 1, 6: 1}, cert)
        assert not verify_certificate(fig, {1: 1, 5: 1}, {2: 1, 6: 1}, cert)
        assert not verify_certificate(fig, EXAMPLE_A, EXAMPLE_B, cert)

    def test_matches_reference_recursion(self):
        # Every tree with n <= 4 and every disjoint pair of total size <= 4:
        # the same certificates, pair for pair, as the recursion over
        # restricted multisets.
        cases = 0
        for n in (2, 3, 4):
            for t in enumerate_trees(n):
                for a, b in helpers.disjoint_multiset_pairs(t.edge_keys, 4):
                    assert (pairing_certificate(t, a, b)
                            == helpers.reference_pairing_certificate(t, a, b))
                    cases += 1
        assert cases == 18150

    @pytest.mark.parametrize("units", [1, 10])
    def test_deep_chain(self, units):
        # The two paths from the root, down the chain to marking 1 and
        # straight to marking 2, each taken ``units`` times; then the chain
        # path one edge short, which has no certificate.
        for depth in (600, 2400):
            t = helpers.chain_tree(depth)
            a = {depth + 2: units}
            b = {**{k: units for k in range(1, depth)}, depth + 1: units}
            cert = pairing_certificate(t, a, b)
            expected = CertificatePair((depth + 2,), (*range(1, depth), depth + 1),
                                       depth, 2, 1)
            assert cert is not None and cert.pairs == (expected,) * units
            assert verify_certificate(t, a, b, cert)
            if depth <= 600:            # the reference recurses once per level
                assert cert == helpers.reference_pairing_certificate(t, a, b)
            short = {e: m for e, m in b.items() if e != 1}
            assert pairing_certificate(t, a, short) is None

    def test_exhaustive_small_trees(self):
        # Certificate existence must coincide with equality of weight sums,
        # and every produced certificate must survive re-validation.
        for t in enumerate_trees(3):
            for a, b in helpers.disjoint_multiset_pairs(t.edge_keys, 3):
                equal = weight_sum_equal(t, a, b)
                cert = pairing_certificate(t, a, b)
                assert (cert is not None) == equal
                if cert is not None:
                    assert verify_certificate(t, a, b, cert)


@st.composite
def tree_with_multisets(draw):
    trees = enumerate_trees(4)
    t = trees[draw(st.integers(0, len(trees) - 1))]
    a, b = {}, {}
    for e in t.edge_keys:
        side = draw(st.integers(0, 2))
        if side:
            mult = draw(st.integers(1, 3))
            (a if side == 1 else b)[e] = mult
    return t, a, b


@settings(max_examples=150, deadline=None)
@given(tree_with_multisets())
def test_certificate_iff_equal_sums(case):
    t, a, b = case
    equal = weight_sum_equal(t, a, b)
    cert = pairing_certificate(t, a, b)
    assert (cert is not None) == equal
    if cert is not None:
        assert verify_certificate(t, a, b, cert)
