"""Shared tree builders and independent counting/arithmetic oracles.

Everything here is deliberately written by a different route than the
package code it checks: counts come from integer-partition multinomials,
determinants and ranks from fraction Gaussian elimination.  The one
exception is the dense Hermite elimination, which follows the package's
sparse one step for step over dense rows, so that the two must agree
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from scaledlines.trees import ColoredTree, Vertex


def fig_tree() -> ColoredTree:
    """Reference tree on four markings: branches over {1,2} and {3,4}.

    Already in canonical form; uncolored ids 1, 2, 3 with the principal
    vertex 3, colored ids 4..7 carrying labels 1..4.
    """
    return ColoredTree.build(
        [Vertex(3, False), Vertex(1, False), Vertex(4, True, 1),
         Vertex(5, True, 2), Vertex(2, False), Vertex(6, True, 3),
         Vertex(7, True, 4)],
        [(3, 1), (1, 4), (1, 5), (3, 2), (2, 6), (2, 7)],
        root=3,
    )


def star_tree(n: int) -> ColoredTree:
    """One uncolored vertex with n colored children, canonical ids."""
    vertices = [Vertex(1, False)] + [Vertex(1 + k, True, k) for k in range(1, n + 1)]
    edges = [(1, 1 + k) for k in range(1, n + 1)]
    return ColoredTree.build(vertices, edges, root=1)


def deep_tree() -> ColoredTree:
    """Six markings, four uncolored vertices, nesting depth three.

    Branch {1,2} sits inside branch {1,2,3}; {4,5} and the bare marking 6
    hang directly off the principal vertex.  Canonical ids throughout.
    """
    return ColoredTree.build(
        [Vertex(4, False), Vertex(2, False), Vertex(1, False),
         Vertex(5, True, 1), Vertex(6, True, 2), Vertex(7, True, 3),
         Vertex(3, False), Vertex(8, True, 4), Vertex(9, True, 5),
         Vertex(10, True, 6)],
        [(4, 2), (2, 1), (1, 5), (1, 6), (2, 7), (4, 3), (3, 8), (3, 9), (4, 10)],
        root=4,
    )


def relabeled(t: ColoredTree, rng) -> ColoredTree:
    """The same tree with scrambled vertex ids and shuffled orderings."""
    ids = [v.id for v in t.vertices]
    fresh = rng.sample(range(101, 101 + 10 * len(ids)), len(ids))
    mapping = dict(zip(ids, fresh))
    vertices = [Vertex(mapping[v.id], v.colored, v.label) for v in t.vertices]
    rng.shuffle(vertices)
    edges = [(mapping[p], mapping[c]) for p, c in t.edges]
    rng.shuffle(edges)
    return ColoredTree.build(vertices, edges, mapping[t.root])


def _integer_partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in _integer_partitions(n - p, p):
            yield (p,) + rest


@lru_cache(maxsize=None)
def hierarchy_count(n: int) -> int:
    """Number of stable trees on n labels, via multinomial coefficients.

    h(1) = 1; for n >= 2 sum over integer partitions of n with at least two
    parts of n! / prod(s!^m_s * m_s!) * prod h(s)^m_s, where m_s counts the
    parts equal to s.  Shares no code with the tree enumerator.
    """
    if n == 1:
        return 1
    total = 0
    for lam in _integer_partitions(n, n):
        if len(lam) < 2:
            continue
        mult = Counter(lam)
        ways = math.factorial(n)
        for s, m in mult.items():
            ways //= math.factorial(s) ** m * math.factorial(m)
        for s, m in mult.items():
            ways *= hierarchy_count(s) ** m
        total += ways
    return total


def fraction_rank(rows) -> int:
    """Rank by Gaussian elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][j]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][j]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][j]:
                f = work[i][j]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def fraction_det(rows) -> Fraction:
    """Determinant by fraction-free-ish elimination over Fractions."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for j in range(n):
        piv = next((i for i in range(j, n) if work[i][j]), None)
        if piv is None:
            return Fraction(0)
        if piv != j:
            work[j], work[piv] = work[piv], work[j]
            det = -det
        det *= work[j][j]
        inv = 1 / work[j][j]
        for i in range(j + 1, n):
            if work[i][j]:
                f = work[i][j] * inv
                work[i] = [x - f * y for x, y in zip(work[i], work[j])]
    return det


def disjoint_multiset_pairs(edges, max_total: int):
    """All pairs of disjoint-support nonempty multisets with bounded total size."""
    edges = list(edges)
    for ta in range(1, max_total):
        for a in _multisets(edges, ta):
            rest = [e for e in edges if e not in a]
            for tb in range(1, max_total - ta + 1):
                for b in _multisets(rest, tb):
                    yield a, b


def _multisets(edges, total: int):
    """All multisets over ``edges`` with exactly ``total`` elements."""
    for combo in itertools.combinations_with_replacement(edges, total):
        yield dict(Counter(combo))


def dense_hnf_inplace(rows, track):
    """Row-reduce dense ``rows`` to Hermite normal form, mirroring ops on ``track``.

    The reference for ``intlinalg._hnf_inplace``: the same pivot rule
    (smallest absolute value, ties to the lowest row), the same swaps and
    negations and the same reduction above each pivot into ``[0, pivot)``,
    on dense rows and visiting every column.  Returns the pivot columns.
    """
    def axpy(target, source, q):
        if q:
            for k, s in enumerate(source):
                if s:
                    target[k] -= q * s

    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for j in range(ncols):
        if r == m:
            break
        # Euclidean elimination in column j over rows r..m-1.
        while True:
            piv, best = -1, 0
            for i in range(r, m):
                v = rows[i][j]
                if v and (piv < 0 or abs(v) < best):
                    piv, best = i, abs(v)
            if piv < 0:
                break
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                if track is not None:
                    track[r], track[piv] = track[piv], track[r]
            if rows[r][j] < 0:
                rows[r] = [-x for x in rows[r]]
                if track is not None:
                    track[r] = [-x for x in track[r]]
            p = rows[r][j]
            clean = True
            for i in range(r + 1, m):
                v = rows[i][j]
                if v:
                    q = v // p
                    axpy(rows[i], rows[r], q)
                    if track is not None:
                        axpy(track[i], track[r], q)
                    if rows[i][j]:
                        clean = False
            if clean:
                break
        if r < m and rows[r][j] > 0:
            pivots.append(j)
            r += 1
    # Reduce entries above each pivot into [0, pivot).
    for k, j in enumerate(pivots):
        p = rows[k][j]
        for i in range(k):
            q = rows[i][j] // p
            axpy(rows[i], rows[k], q)
            if track is not None:
                axpy(track[i], track[k], q)
    return pivots


def dense_kernel_basis(rows, cols):
    """Kernel basis rows of the matrix ``rows`` (``cols`` columns) by the dense reference."""
    work = [list(c) for c in zip(*rows)] if rows else [[] for _ in range(cols)]
    track = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    pivots = dense_hnf_inplace(work, track)
    ker = track[len(pivots):]
    if ker:
        dense_hnf_inplace(ker, None)
    return ker
