"""Edge weights of colored trees and pairing certificates for weight sums.

Weights live in the dual lattice Z^g with one coordinate per uncolored
vertex, indexed by the canonical post-order numbering from
:attr:`scaledlines.trees.ColoredTree.index`.  Every edge below an
uncolored vertex ``v`` with subtree totals ``s`` receives the weight
``s(v) - s(child)``, and the elementary consequence used throughout is
that two disjoint edge multisets have equal weight sums exactly when they
split into pairs of edge-disjoint vertex-to-marking paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .trees import ColoredTree

WeightVector = tuple[int, ...]

#: Refuse multisets whose multiplicities add up to more than this.  A
#: pairing certificate holds one path object per unit of multiplicity,
#: about 340 bytes and 3 microseconds each on a four-marking tree.
MAX_TOTAL_MULTIPLICITY = 10**5


def label_weights(t: ColoredTree) -> dict[int, WeightVector]:
    """Weight of every edge, keyed by child vertex id."""
    return dict(t.weights)


def total_weight(t: ColoredTree) -> WeightVector:
    """Sum of the weights along any root-to-marking path."""
    # A colored root has no uncolored vertex and the empty weight.
    return t.totals.get(t.root, ())


def subtree_weights(t: ColoredTree) -> dict[int, WeightVector]:
    """Path-weight totals of the subtree below each uncolored vertex."""
    return dict(t.totals)


def _check_multisets(t: ColoredTree, a: Mapping[int, int], b: Mapping[int, int]) -> None:
    edge_set = set(t.edge_keys)
    for name, ms in (("a", a), ("b", b)):
        for e, mult in ms.items():
            if e not in edge_set:
                raise ValueError(f"multiset {name} uses unknown edge {e}")
            if not isinstance(mult, int) or isinstance(mult, bool) or mult < 1:
                raise ValueError(f"multiset {name} multiplicity for edge {e} must be >= 1")
    total = sum(a.values()) + sum(b.values())
    if total > MAX_TOTAL_MULTIPLICITY:
        raise ValueError(f"multisets have total multiplicity {total}, above the bound "
                         f"{MAX_TOTAL_MULTIPLICITY}")
    common = set(a) & set(b)
    if common:
        raise ValueError(f"multisets must have disjoint supports, both use {sorted(common)}")


def weight_sum_equal(t: ColoredTree, a: Mapping[int, int], b: Mapping[int, int]) -> bool:
    """Whether two disjoint edge multisets have equal total weight."""
    _check_multisets(t, a, b)
    weights = t.weights

    def total(ms: Mapping[int, int]) -> WeightVector:
        return tuple(sum(mult * weights[e][k] for e, mult in ms.items())
                     for k in range(t.g))

    return total(a) == total(b)


@dataclass(frozen=True)
class CertificatePair:
    """Two edge-disjoint paths from a meet vertex down to markings."""

    a_edges: tuple[int, ...]
    b_edges: tuple[int, ...]
    meet: int
    a_mark: int
    b_mark: int


@dataclass(frozen=True)
class PairingCertificate:
    pairs: tuple[CertificatePair, ...]


@dataclass(frozen=True)
class _Path:
    edges: frozenset[int]
    end: int          # colored vertex id
    mark: int         # its label


def pairing_certificate(t: ColoredTree, a: Mapping[int, int],
                        b: Mapping[int, int]) -> Optional[PairingCertificate]:
    """Split ``a`` and ``b`` into matched path pairs, or None if impossible.

    The certificate exists exactly when the weight sums agree.  Ties among
    candidate paths are broken by the smallest marking label.
    """
    _check_multisets(t, a, b)

    def restrict(ms: Mapping[int, int], edges: tuple[int, ...]) -> dict[int, int]:
        return {e: ms[e] for e in edges if e in ms}

    def leaf(v: int, left: Mapping[int, int], right: Mapping[int, int], k: int):
        """The k empty paths at the colored vertex ``v``; None if edges remain."""
        if left or right:
            return None
        path = _Path(frozenset(), v, t.label_of(v))
        return [path] * k, []

    def rec(v: int, left: Mapping[int, int], right: Mapping[int, int], k: int):
        """Decompose ``left``/``right`` below ``v`` given an excess of k root paths.

        Returns (paths, pairs) where ``paths`` are k full paths from ``v``
        to a marking with edges drawn from ``left``; ``pairs`` is a list of
        (left_path, right_path, meet) triples.  None signals the weight
        equation cannot hold.  For an uncolored ``v``; a generator that
        yields the arguments of each call on a child and is sent back that
        call's result.
        """
        left_paths: list[_Path] = []
        right_paths: list[_Path] = []
        pairs: list[tuple[_Path, _Path, int]] = []
        balance = 0
        for c in t.children[v]:
            below = t.edges_below(c)
            alpha = left.get(c, 0)
            beta = right.get(c, 0)
            balance += alpha - beta
            sub_left = restrict(left, below)
            sub_right = restrict(right, below)
            need = alpha - beta
            if need >= 0:
                res = yield c, sub_left, sub_right, need
                if res is None:
                    return None
                full, sub_pairs = res
                left_paths.extend(_Path(p.edges | {c}, p.end, p.mark) for p in full)
                pairs.extend(sub_pairs)
            else:
                res = yield c, sub_right, sub_left, -need
                if res is None:
                    return None
                full, sub_pairs = res
                right_paths.extend(_Path(p.edges | {c}, p.end, p.mark) for p in full)
                pairs.extend((r, l, m) for l, r, m in sub_pairs)
        if balance != k:
            return None
        left_paths.sort(key=lambda p: (p.mark, sorted(p.edges)))
        right_paths.sort(key=lambda p: (p.mark, sorted(p.edges)))
        reserved, to_match = left_paths[:k], left_paths[k:]
        pairs.extend((l, r, v) for l, r in zip(to_match, right_paths))
        return reserved, pairs

    # Run the calls on an explicit stack, so deep trees need no recursion;
    # a colored vertex is answered at once, without a frame.
    frames = []
    call = (t.root, dict(a), dict(b), 0)
    while True:
        if call is not None:
            if t.is_colored(call[0]):
                result = leaf(*call)
            else:
                frames.append(rec(*call))
                result = None
        if not frames:
            break
        try:
            call = frames[-1].send(result)
        except StopIteration as done:
            frames.pop()
            result = done.value
            call = None
    if result is None:
        return None
    _, raw = result
    cert_pairs = tuple(
        CertificatePair(tuple(sorted(l.edges)), tuple(sorted(r.edges)), meet, l.mark, r.mark)
        for l, r, meet in raw
    )
    return PairingCertificate(cert_pairs)


def verify_certificate(t: ColoredTree, a: Mapping[int, int], b: Mapping[int, int],
                       cert: PairingCertificate) -> bool:
    """Re-check a certificate from scratch against the tree and the multisets.

    Each pair must be two edge-disjoint root-free paths from the claimed
    meet vertex to the claimed markings, and the pairs together must use
    up both multisets exactly.
    """
    _check_multisets(t, a, b)

    def path_edges(meet: int, mark: int) -> Optional[frozenset[int]]:
        # Walk from the marking up to the meet; fails unless the meet is an
        # ancestor-or-self of the marked vertex.
        edges = []
        v = t.colored_id(mark)
        while v != meet:
            if v == t.root:
                return None
            edges.append(v)
            v = t.parent[v]
        return frozenset(edges)

    used_a: dict[int, int] = {}
    used_b: dict[int, int] = {}
    for pair in cert.pairs:
        pa = path_edges(pair.meet, pair.a_mark)
        pb = path_edges(pair.meet, pair.b_mark)
        if pa is None or pb is None:
            return False
        if pa != frozenset(pair.a_edges) or pb != frozenset(pair.b_edges):
            return False
        if pa & pb:
            return False
        for e in pa:
            used_a[e] = used_a.get(e, 0) + 1
        for e in pb:
            used_b[e] = used_b.get(e, 0) + 1
    return used_a == dict(a) and used_b == dict(b)
