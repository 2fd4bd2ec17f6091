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
#: pairing certificate holds one path pair per two units of multiplicity;
#: on the four-marking reference tree a unit costs about 150 bytes and 3
#: microseconds (Python 3.11, 2-vCPU x86-64).
MAX_TOTAL_MULTIPLICITY = 10**5


def label_weights(t: ColoredTree) -> dict[int, WeightVector]:
    """Weight of every edge, keyed by child vertex id."""
    return dict(t.weights)


def total_weight(t: ColoredTree) -> WeightVector:
    """Sum of the weights along any root-to-marking path."""
    # A colored root has no uncolored vertex and the empty weight.
    return t.totals.get(t.root, ())


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


def pairing_certificate(t: ColoredTree, a: Mapping[int, int],
                        b: Mapping[int, int]) -> Optional[PairingCertificate]:
    """Split ``a`` and ``b`` into matched path pairs, or None if impossible.

    The certificate exists exactly when the weight sums agree.  Ties among
    candidate paths are broken by the smallest marking label.
    """
    t.require_reduced()
    _check_multisets(t, a, b)
    # d(e) = a[e] - b[e].  Each vertex needs its child edges' d to add up
    # to its own edge's d, and hands |d| paths of side sign(d) upwards,
    # kept as (mark, end); two paths from one vertex to one marking are
    # the same path, so the mark alone orders them.  Pairs are listed
    # vertex by vertex in post-order, as (a-path, b-path, meet).
    d = {e: a.get(e, 0) - b.get(e, 0) for e in t.edge_keys}
    d[t.root] = 0
    children = t.children
    up: dict[int, list[tuple[int, int]]] = {}
    raw: list[tuple[tuple[int, int], tuple[int, int], int]] = []
    for v in t._postorder(children.__getitem__):
        need = d[v]
        kids = children[v]
        if not kids:
            up[v] = [(t.label_of(v), v)] * abs(need)
            continue
        if sum(d[c] for c in kids) != need:
            return None
        a_paths: list[tuple[int, int]] = []
        b_paths: list[tuple[int, int]] = []
        for c in kids:
            (a_paths if d[c] > 0 else b_paths).extend(up.pop(c))
        a_paths.sort()
        b_paths.sort()
        if need >= 0:
            up[v], a_paths = a_paths[:need], a_paths[need:]
        else:
            up[v], b_paths = b_paths[:-need], b_paths[-need:]
        raw.extend((pa, pb, v) for pa, pb in zip(a_paths, b_paths))
    return PairingCertificate(tuple(
        CertificatePair(tuple(sorted(_edges_between(t, a_end, meet))),
                        tuple(sorted(_edges_between(t, b_end, meet))),
                        meet, a_mark, b_mark)
        for (a_mark, a_end), (b_mark, b_end), meet in raw))


def _edges_between(t: ColoredTree, v: int, meet: int) -> Optional[list[int]]:
    """Edge keys from ``v`` up to ``meet``; None unless ``meet`` is an ancestor-or-self."""
    edges = []
    while v != meet:
        if v == t.root:
            return None
        edges.append(v)
        v = t.parent[v]
    return edges


def verify_certificate(t: ColoredTree, a: Mapping[int, int], b: Mapping[int, int],
                       cert: PairingCertificate) -> bool:
    """Re-check a certificate from scratch against the tree and the multisets.

    Each pair must be two edge-disjoint root-free paths from the claimed
    meet vertex to the claimed markings, and the pairs together must use
    up both multisets exactly.
    """
    _check_multisets(t, a, b)

    def path_edges(meet: int, mark: int) -> Optional[frozenset[int]]:
        edges = _edges_between(t, t.colored_id(mark), meet)
        return None if edges is None else frozenset(edges)

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
