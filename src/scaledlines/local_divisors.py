"""Boundary divisors of the local toric model of a colored tree.

A minimally complete subset is a set of edges met exactly once by every
root-to-marking path; these subsets index both the rays of the local cone
and the partitions compatible with the tree.  Weil divisors are integer
coefficient vectors over them; the Cartier ones are cut out by the kernel
of the edge/subset incidence matrix, and equivalently admit an integral
support function on the rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .intlinalg import IntMatrix, solve_integer
from .trees import ColoredTree, Partition

EdgeSubset = tuple[int, ...]
LocalDivisor = Mapping[EdgeSubset, int]


class OracleDisagreement(RuntimeError):
    """Two independent decision routes returned different answers."""


def minimally_complete_subsets(t: ColoredTree) -> tuple[EdgeSubset, ...]:
    """All minimally complete edge subsets, sorted canonically."""
    return t.mcs


def ray_of_subset(t: ColoredTree, y: EdgeSubset) -> tuple[int, ...]:
    """Primitive ray generator attached to a minimally complete subset.

    Walking down from the root through the uncut edges, each vertex ``v``
    reached contributes ``(1 - k) e_v``, where ``k`` counts its uncut
    children: the ray of ``v`` is its unit vector plus, for each uncut
    child, the child's ray minus that unit vector.
    """
    t.require_reduced()
    index = t.index
    chosen = set(y)
    unknown = chosen - set(t.edge_keys)
    if unknown:
        raise ValueError(f"unknown edges {sorted(unknown)}")

    ray = [0] * len(index)
    ray[index[t.root] - 1] = 1
    # Pre-order walk with an explicit stack, so deep trees need no recursion;
    # child edges are checked in the order a recursive walk meets them.
    stack = [(t.root, iter(t.children[t.root]))]
    while stack:
        v, kids = stack[-1]
        for c in kids:
            if c in chosen:
                if chosen.intersection(t.edges_below(c)):
                    raise ValueError("subset is not minimally complete: nested cuts")
            elif t.is_colored(c):
                raise ValueError("subset is not minimally complete: uncut marking")
            else:
                ray[index[v] - 1] -= 1
                ray[index[c] - 1] = 1
                stack.append((c, iter(t.children[c])))
                break
        else:
            stack.pop()
    return tuple(ray)


def partition_of_subset(t: ColoredTree, y: EdgeSubset) -> Partition:
    """Partition of the markings into the parts hanging below each cut edge."""
    t.require_reduced()
    labels = list(t.labels)
    blocks = []
    seen: list[int] = []
    for e in y:
        if e not in t.parent:
            raise ValueError(f"unknown edge {e}")
        vtx = t.vertex(e)
        block = (vtx.label,) if vtx.colored else t.labels_below(e)
        blocks.append(block)
        seen.extend(block)
    if sorted(seen) != labels:
        raise ValueError("subset is not minimally complete for this tree")
    return Partition.of(blocks)


def subset_of_partition(t: ColoredTree, p: Partition) -> EdgeSubset:
    """The minimally complete subset that induces ``p``, if the two are compatible."""
    t.require_reduced()
    if p.ground_set != tuple(t.labels):
        raise ValueError("partition ground set does not match tree labels")
    cuts = []
    for block in p.blocks:
        paths = [t.path_up(t.colored_id(x)) for x in block]
        common = set(paths[0])
        for path in paths[1:]:
            common &= set(path)
        if not common:
            raise ValueError(f"partition {p.key()} is not compatible with the tree")
        # The first shared edge on the way up is the lowest one.
        first = next(e for e in paths[0] if e in common)
        cuts.append(first)
    y = tuple(sorted(cuts))
    if partition_of_subset(t, y) != p:
        raise ValueError(f"partition {p.key()} is not compatible with the tree")
    return y


def _principal_first(t: ColoredTree) -> list[int]:
    """Uncolored vertex ids: the principal vertex, then the others by index."""
    order = list(t.index)                 # ids in index order 1..g
    return order[-1:] + order[:-1]


def local_cartier_generators(t: ColoredTree) -> list[dict[EdgeSubset, int]]:
    """One Cartier divisor per uncolored vertex, principal vertex first.

    The divisor of a vertex sums every boundary divisor whose subset
    touches the subtree hanging at that vertex.
    """
    subsets = t.mcs
    out = []
    for v in _principal_first(t):
        below = set(t.edges_below(v))
        out.append({y: 1 for y in subsets if below.intersection(y)})
    return out


def _coeff_vector(subsets: tuple[EdgeSubset, ...], a: LocalDivisor) -> list[int]:
    index = {y: i for i, y in enumerate(subsets)}
    vec = [0] * len(subsets)
    for y, coeff in a.items():
        key = tuple(sorted(y))
        if key not in index:
            raise ValueError(f"coefficient key {key} is not a minimally complete subset")
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ValueError("coefficients must be integers")
        vec[index[key]] = coeff
    return vec


@dataclass(frozen=True)
class CartierDecision:
    cartier: bool
    witness: Optional[tuple[int, ...]]
    violated_relation: Optional[tuple[int, ...]]
    subsets: tuple[EdgeSubset, ...]


def is_cartier_local(t: ColoredTree, a: LocalDivisor) -> CartierDecision:
    """Decide whether a boundary divisor is Cartier on the local model.

    Two independent routes must agree: orthogonality to the incidence
    kernel, and existence of an integral support function on the rays.
    The returned witness satisfies <u, ray(Y)> = a_Y for every subset.
    """
    subsets = t.mcs
    vec = _coeff_vector(subsets, a)

    violated = None
    for row in t.relations:
        if sum(m * x for m, x in zip(row, vec)):
            violated = row
            break

    rays = IntMatrix._of(tuple(ray_of_subset(t, y) for y in subsets), t.g)
    witness = solve_integer(rays, vec)

    if (violated is None) != (witness is not None):
        raise OracleDisagreement(
            "incidence-kernel route and support-function route disagree")
    return CartierDecision(witness is not None, witness, violated, subsets)


def vertex_witnesses(t: ColoredTree) -> list[tuple[int, ...]]:
    """Support functions for the per-vertex generators: the subtree totals.

    Returned in the same order as :func:`local_cartier_generators`.
    """
    totals = t.totals
    return [totals[v] for v in _principal_first(t)]


__all__ = [
    "CartierDecision",
    "OracleDisagreement",
    "is_cartier_local",
    "local_cartier_generators",
    "minimally_complete_subsets",
    "partition_of_subset",
    "ray_of_subset",
    "subset_of_partition",
    "vertex_witnesses",
]
