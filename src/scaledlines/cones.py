"""Local toric cones attached to colored trees.

The dual cone of the edge-weight collection is generated by the rays of
the minimally complete subsets, one primitive ray per subset, as computed
by :func:`scaledlines.local_divisors.ray_of_subset`.  Their number is
counted independently by the branch product: every principal branch
either contributes nothing or one ray of its subtree cone, so the count
is the product of (subtree ray count + 1) over the branches.  The cone
always has full dimension g.
"""

from __future__ import annotations

from typing import Sequence

from . import intlinalg
from .local_divisors import ray_of_subset
from .trees import ColoredTree
from .weights import label_weights, total_weight

#: Trees with more uncolored vertices than this are refused.
MAX_UNCOLORED = 8

RayVector = tuple[int, ...]


def pair(w: Sequence[int], v: Sequence[int]) -> int:
    """Dual pairing of a weight vector with a ray vector."""
    if len(w) != len(v):
        raise ValueError("vectors live in different dimensions")
    return sum(a * b for a, b in zip(w, v))


def _check_size(t: ColoredTree) -> None:
    if t.g > MAX_UNCOLORED:
        raise ValueError(f"tree has {t.g} uncolored vertices, limit is {MAX_UNCOLORED}")


def generators(t: ColoredTree) -> tuple[RayVector, ...]:
    """Minimal generators of the cone, in lexicographic coordinate order."""
    t.require_reduced()
    _check_size(t)
    return tuple(sorted(ray_of_subset(t, y) for y in t.mcs))


def ray_count(t: ColoredTree) -> int:
    """Number of cone generators, computed by the branch product formula."""
    t.require_reduced()
    count: dict[int, int] = {}
    for v in t._postorder(t.children.__getitem__):
        out = 0 if t.is_colored(v) else 1
        for c in t.children[v]:
            out *= count.pop(c) + 1
        count[v] = out
    return count[t.root]


def _rank(rows: Sequence[RayVector], cols: int) -> int:
    return intlinalg.rank(intlinalg.IntMatrix._of(tuple(rows), cols))


def verify_duality(t: ColoredTree) -> dict:
    """Cross-check the cone generators against the defining weight vectors.

    Verifies that every edge weight pairs nonnegatively with every
    generator, that the generators are distinct extreme rays of the dual
    cone (the weights vanishing on each one have rank g - 1), and that the
    generators span dimension g.
    """
    gens = generators(t)
    weights = label_weights(t).values()
    nonneg = all(pair(w, v) >= 0 for w in weights for v in gens)
    minimal = len(set(gens)) == len(gens) and all(
        _rank([w for w in weights if pair(w, v) == 0], t.g) == t.g - 1 for v in gens)
    dim = _rank(gens, t.g)
    scale = total_weight(t)
    on_level = all(pair(scale, v) == 1 for v in gens)
    return {
        "nonnegative_pairings": nonneg,
        "minimal_generators": minimal,
        "span_dimension": dim,
        "expected_dimension": t.g,
        "scale_pairing_one": on_level,
        "ok": nonneg and minimal and on_level and dim == t.g,
    }
