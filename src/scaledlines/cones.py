"""Local toric cones attached to colored trees.

The dual cone of the edge-weight collection has a minimal generating set
produced by a product recursion over the principal branches: every branch
independently either contributes nothing or one generator of its subtree
cone.  The count of generators is therefore the product of (subtree ray
count + 1) over the branches, and the cone always has full dimension g.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import intlinalg
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
    units = t.units
    _check_size(t)

    def rec(v: int) -> list[RayVector]:
        if t.is_colored(v):
            return []
        base = units[v]
        combos: list[RayVector] = [base]
        for c in t.children[v]:
            extended: list[RayVector] = []
            for w in rec(c):
                delta = tuple(a - b for a, b in zip(w, base))
                extended.extend(tuple(x + d for x, d in zip(vec, delta)) for vec in combos)
            combos = combos + extended
        return combos

    return tuple(sorted(rec(t.root)))


def ray_count(t: ColoredTree) -> int:
    """Number of cone generators, computed by the branch product formula."""
    t.require_reduced()

    def rec(v: int) -> int:
        if t.is_colored(v):
            return 0
        out = 1
        for c in t.children[v]:
            out *= rec(c) + 1
        return out

    return rec(t.root)


def _nonnegative_combination(target: Sequence[int], rays: Sequence[Sequence[int]]) -> bool:
    """Exact feasibility of target = sum(lambda_i * rays_i) with lambda >= 0.

    Phase-1 simplex over Fractions with Bland's rule; no floating point.
    """
    m = len(target)
    n = len(rays)
    if n == 0:
        return all(x == 0 for x in target)
    # Rows: A lambda + I art = b with b >= 0 after sign normalization.
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        sign = -1 if target[i] < 0 else 1
        rows.append([Fraction(sign * rays[j][i]) for j in range(n)])
        rhs.append(Fraction(sign * target[i]))
    total = n + m  # structural variables then artificials
    tableau = []
    for i in range(m):
        row = rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(rhs[i])
        tableau.append(row)
    basis = list(range(n, n + m))
    # Objective: minimize sum of artificials; cost row = -sum of tableau rows
    # restricted to artificial columns' reduced costs.
    cost = [Fraction(0)] * (total + 1)
    for i in range(m):
        for k in range(total + 1):
            cost[k] -= tableau[i][k]
    for k in range(n, n + m):
        cost[k] += Fraction(1)

    while True:
        enter = -1
        for k in range(total):
            if cost[k] < 0:
                enter = k
                break
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][total] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    leave, best = i, ratio
        if leave < 0:
            # Unbounded phase-1 cannot happen; treat defensively as infeasible.
            return False
        piv = tableau[leave][enter]
        tableau[leave] = [x / piv for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter]:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tableau[leave])]
        basis[leave] = enter
    objective = -cost[total]
    return objective == 0


def verify_duality(t: ColoredTree) -> dict:
    """Cross-check the cone generators against the defining weight vectors.

    Verifies that every edge weight pairs nonnegatively with every
    generator, that no generator is a nonnegative rational combination of
    the others, and that the generators span dimension g.
    """
    gens = generators(t)
    weights = label_weights(t).values()
    nonneg = all(pair(w, v) >= 0 for w in weights for v in gens)
    minimal = all(
        not _nonnegative_combination(v, [u for u in gens if u != v])
        for v in gens
    )
    dim = intlinalg.rank(intlinalg.IntMatrix._of(gens, t.g))
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
