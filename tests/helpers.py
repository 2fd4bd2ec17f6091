"""Shared tree builders and independent counting/arithmetic oracles.

Everything here is deliberately written by a different route than the
package code it checks: counts come from integer-partition multinomials,
determinants, ranks and lattice membership from fraction Gaussian
elimination, JSON documents from the stdlib encoder, pairing
certificates from a recursion over restricted multisets, the Cartier
decision from an HNF solver instead of the closed-form reconstruction,
cone generators from the branch-product recursion, their minimality from
a Fraction simplex, and the partition dictionary from a search for
contractions onto model trees.
The one exception is the dense Hermite elimination, which follows the
package's sparse one step for step over dense rows, so that the two must
agree bit for bit.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from scaledlines.global_divisors import pushpull_matrix
from scaledlines.intlinalg import HnfSolver
from scaledlines.trees import ColoredTree, Partition, Vertex, reduce_tree
from scaledlines.weights import CertificatePair, PairingCertificate


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


def chain_tree(depth: int) -> ColoredTree:
    """A chain of ``depth`` uncolored vertices, marking 1 at its bottom and 2 at its top.

    Canonical ids: uncolored 1..depth from the bottom up (the root is
    ``depth``), so edge k (1 <= k < depth) sits above uncolored vertex k;
    the edges to markings 1 and 2 are depth + 1 and depth + 2.
    """
    vertices = [Vertex(i, False) for i in range(depth)]
    vertices += [Vertex(depth, True, 1), Vertex(depth + 1, True, 2)]
    edges = [(i, i + 1) for i in range(depth)] + [(0, depth + 1)]
    return reduce_tree(ColoredTree.build(vertices, edges, root=0))


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


def in_row_lattice(basis, v) -> bool:
    """Whether ``v`` is an integer combination of the independent rows ``basis``.

    Solves for the coefficients over Fractions; ``v`` is in the lattice
    exactly when a solution exists and is integral.
    """
    basis = [list(row) for row in basis]
    m = len(basis)
    # One equation per coordinate: sum_i x_i * basis[i][j] = v[j].
    work = [[Fraction(row[j]) for row in basis] + [Fraction(x)] for j, x in enumerate(v)]
    rank = 0
    for col in range(m):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    if rank != m:
        raise ValueError("basis rows are dependent")
    if any(row[m] for row in work[rank:]):
        return False
    return all(work[k][m].denominator == 1 for k in range(m))


@lru_cache(maxsize=None)
def image_solver(n: int) -> HnfSolver:
    """Solver for (push-pull matrix transposed) @ k = x: membership in the image lattice."""
    return HnfSolver(pushpull_matrix(n).matrix, transposed=True)


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


def reference_pairing_certificate(t: ColoredTree, a, b):
    """The pairing certificate by the original recursion over restricted multisets.

    Each call decomposes the multisets restricted to one subtree, carrying
    every path as an explicit edge set; recursive, so for small trees only.
    """
    def rec(v, left, right, k):
        # k paths from v down, with edges from ``left``, are owed upwards.
        if t.is_colored(v):
            if left or right:
                return None
            return [(frozenset(), t.label_of(v))] * k, []
        left_paths, right_paths, pairs = [], [], []
        balance = 0
        for c in t.children[v]:
            below = t.edges_below(c)
            need = left.get(c, 0) - right.get(c, 0)
            balance += need
            sub_left = {e: left[e] for e in below if e in left}
            sub_right = {e: right[e] for e in below if e in right}
            if need >= 0:
                res = rec(c, sub_left, sub_right, need)
                if res is None:
                    return None
                left_paths.extend((edges | {c}, mark) for edges, mark in res[0])
                pairs.extend(res[1])
            else:
                res = rec(c, sub_right, sub_left, -need)
                if res is None:
                    return None
                right_paths.extend((edges | {c}, mark) for edges, mark in res[0])
                pairs.extend((r, l, m) for l, r, m in res[1])
        if balance != k:
            return None
        left_paths.sort(key=lambda p: (p[1], sorted(p[0])))
        right_paths.sort(key=lambda p: (p[1], sorted(p[0])))
        pairs.extend((l, r, v) for l, r in zip(left_paths[k:], right_paths))
        return left_paths[:k], pairs

    result = rec(t.root, dict(a), dict(b), 0)
    if result is None:
        return None
    return PairingCertificate(tuple(
        CertificatePair(tuple(sorted(l[0])), tuple(sorted(r[0])), meet, l[1], r[1])
        for l, r, meet in result[1]))


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


def reference_json(doc) -> str:
    """The bytes a JSON-emitting command must print for ``doc``: the stdlib encoder's."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def tree_for_partition(p: Partition) -> ColoredTree:
    """The model tree of a partition: one principal vertex, one branch per block."""
    vertices = [Vertex(0, False)]
    edges: list[tuple[int, int]] = []
    next_id = 1
    for block in p.blocks:
        if len(block) == 1:
            vertices.append(Vertex(next_id, True, block[0]))
            edges.append((0, next_id))
            next_id += 1
        else:
            mid = next_id
            vertices.append(Vertex(mid, False))
            edges.append((0, mid))
            next_id += 1
            for x in block:
                vertices.append(Vertex(next_id, True, x))
                edges.append((mid, next_id))
                next_id += 1
    return reduce_tree(ColoredTree.build(vertices, edges, 0))


def model_homomorphism(t: ColoredTree, p: Partition) -> Optional[dict[int, int]]:
    """A root- and label-preserving contraction from ``t`` onto the model tree of ``p``.

    Edges may be collapsed (both endpoints share an image), and each edge
    that survives must land on its own model edge, one step down from the
    parent's image.  That makes every model vertex's preimage a connected
    subtree; a plain graph homomorphism is weaker, since it could merge two
    sibling subtrees into one model vertex.  Returns a vertex map witness,
    or None if no contraction exists.
    """
    t.require_reduced()
    if tuple(t.labels) != p.ground_set:
        raise ValueError("tree labels and partition ground set differ")
    target = tree_for_partition(p)
    colored_target = {v.label: v.id for v in target.vertices if v.colored}

    order: list[int] = []
    stack = [t.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(t.children[v])

    assignment: dict[int, int] = {}
    claimed: set[int] = set()       # model vertices already entered by an edge

    def candidates(v: int) -> tuple[int, ...]:
        if v == t.root:
            return (target.root,)
        img = assignment[t.parent[v]]
        if t.is_colored(v):
            want = colored_target[t.label_of(v)]
            return (want,) if target.parent.get(want) == img else ()
        down = (c for c in target.children[img] if not target.is_colored(c))
        return (img,) + tuple(down)

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for img in candidates(v):
            steps_down = v != t.root and img != assignment[t.parent[v]]
            if steps_down:
                if img in claimed:
                    continue
                claimed.add(img)
            assignment[v] = img
            if extend(k + 1):
                return True
            del assignment[v]
            if steps_down:
                claimed.discard(img)
        return False

    return dict(assignment) if extend(0) else None


def is_compatible(p: Partition, t: ColoredTree) -> bool:
    """Whether ``t`` contracts onto the model tree of ``p``."""
    return model_homomorphism(t, p) is not None


def reference_generators(t: ColoredTree):
    """Cone generators by the branch-product recursion, sorted.

    Every uncolored vertex starts from its unit vector; each child branch
    either adds nothing or swaps that unit vector for one generator of the
    child's cone.  Recursive, so for small trees only.
    """
    units = t.units

    def rec(v):
        if t.is_colored(v):
            return []
        base = units[v]
        combos = [base]
        for c in t.children[v]:
            extended = []
            for w in rec(c):
                delta = tuple(a - b for a, b in zip(w, base))
                extended.extend(tuple(x + d for x, d in zip(vec, delta)) for vec in combos)
            combos = combos + extended
        return combos

    return tuple(sorted(rec(t.root)))


def nonnegative_combination(target, rays) -> bool:
    """Exact feasibility of target = sum(lambda_i * rays_i) with lambda >= 0.

    Phase-1 simplex over Fractions with Bland's rule; no floating point.
    """
    m = len(target)
    n = len(rays)
    if n == 0:
        return all(x == 0 for x in target)
    # Rows: A lambda + I art = b with b >= 0 after sign normalization.
    rows = []
    rhs = []
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
