"""Seeded inputs for the scaledlines benchmark.

Everything here is built from first principles with the standard library:
subsets, set partitions, stable tree shapes and their canonical numbering.
Nothing is imported from ``scaledlines`` or from the test suite, so the
inputs stay byte-identical across commits of the package, and the same
data serves as the independent side of the output checks in ``checks.py``.

A job is a JSON-able dict with ``warmup`` and ``ops`` lists.  Each op is
one request of the workload:

* ``{"kind": "cli", "argv": [...], "env": {...}, "expect": {...}}`` runs
  ``scaledlines.cli.run(argv)`` with stdout captured;
* ``{"kind": "recon", "n": n, "divisor": {...}}`` is one criterion-12
  witness reconstruction;
* ``{"kind": "tree", "tree": {...}, ...}`` is one per-tree request.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from functools import lru_cache

Subset = tuple[int, ...]
Partition = tuple[tuple[int, ...], ...]


# --- subsets and partitions ------------------------------------------------

@lru_cache(maxsize=None)
def proper_subsets(n: int) -> tuple[Subset, ...]:
    """Nonempty proper subsets of 1..n as sorted tuples."""
    labels = range(1, n + 1)
    return tuple(c for size in range(1, n) for c in itertools.combinations(labels, size))


def set_partitions(items: Subset) -> list[Partition]:
    """Every partition of ``items`` (sorted) into blocks ordered by smallest element."""
    out: list[Partition] = []
    blocks: list[list[int]] = []

    def rec(i: int) -> None:
        if i == len(items):
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(items[i])
            rec(i + 1)
            b.pop()
        blocks.append([items[i]])
        rec(i + 1)
        blocks.pop()

    rec(0)
    return out


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """Partitions of 1..n with at least two blocks: the type II strata."""
    return tuple(p for p in set_partitions(tuple(range(1, n + 1))) if len(p) >= 2)


def bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def subset_key(s: Subset) -> str:
    return ",".join(str(x) for x in s)


def partition_key(p: Partition) -> str:
    return "|".join(subset_key(b) for b in p)


def pull_push(n: int, k: dict[Subset, int]) -> dict[Partition, int]:
    """P -> sum of k over the blocks of P: the image of a function on subsets."""
    return {p: sum(k.get(b, 0) for b in p) for p in partitions(n)}


def closed_form_witness(n: int, x: dict[Partition, int]) -> dict[Subset, int] | None:
    """The pinned function on subsets whose pull-push is ``x``, or None.

    Singletons other than {1} are pinned to 0 and {1} to the all-singletons
    coefficient; every larger subset is then fixed by its simple partition.
    The pinned solution is unique, so a failed reconstruction proves that
    ``x`` is not in the image.
    """
    singletons = tuple((i,) for i in range(1, n + 1))
    base = x.get(singletons, 0)
    k: dict[Subset, int] = {s: 0 for s in proper_subsets(n)}
    k[(1,)] = base
    for s in proper_subsets(n):
        if len(s) >= 2:
            simple = tuple(sorted([s] + [(i,) for i in range(1, n + 1) if i not in s]))
            k[s] = x.get(simple, 0) - (base if 1 not in s else 0)
    if pull_push(n, k) != {p: x.get(p, 0) for p in partitions(n)}:
        return None
    return k


# --- tree shapes -------------------------------------------------------------
# A shape is a marking label (a colored leaf) or a tuple of child shapes (an
# uncolored vertex), children ordered by the smallest label below them.

@lru_cache(maxsize=None)
def shapes_over(labels: Subset) -> tuple:
    """Stable tree shapes over ``labels``: every uncolored vertex has >= 2 children."""
    out = []
    for blocks in set_partitions(labels):
        if len(blocks) < 2:
            continue
        options = [(b[0],) if len(b) == 1 else shapes_over(b) for b in blocks]
        out.extend(itertools.product(*options))
    return tuple(out)


def tree_count(n: int) -> int:
    return len(shapes_over(tuple(range(1, n + 1))))


def _uncolored(shape) -> int:
    return 0 if isinstance(shape, int) else 1 + sum(_uncolored(c) for c in shape)


class Tree:
    """A shape in the package's canonical numbering.

    Uncolored vertices get 1..g in post-order, the marking l gets g + l,
    and an edge is named by its child vertex.
    """

    def __init__(self, shape):
        self.g = _uncolored(shape)
        self.children: dict[int, list[int]] = {}
        self.label: dict[int, int] = {}
        self.parent: dict[int, int] = {}
        counter = itertools.count(1)

        def visit(s) -> int:
            if isinstance(s, int):
                vid = self.g + s
                self.label[vid] = s
                self.children[vid] = []
                return vid
            kids = [visit(c) for c in s]
            vid = next(counter)
            self.children[vid] = kids
            for k in kids:
                self.parent[k] = vid
            return vid

        self.root = visit(shape)
        self.edges = sorted(self.parent)

    def doc(self) -> dict:
        verts = []
        for vid in sorted(self.children):
            item: dict = {"id": vid, "colored": vid in self.label}
            if vid in self.label:
                item["label"] = self.label[vid]
            verts.append(item)
        edges = sorted([self.parent[c], c] for c in self.edges)
        return {"root": self.root, "vertices": verts, "edges": edges}

    def below(self, v: int) -> list[int]:
        """Edges (child ids) strictly below vertex ``v``."""
        out, stack = [], list(self.children[v])
        while stack:
            c = stack.pop()
            out.append(c)
            stack.extend(self.children[c])
        return out

    def labels_below(self, e: int) -> Subset:
        if e in self.label:
            return (self.label[e],)
        return tuple(sorted(self.label[c] for c in self.below(e) if c in self.label))

    def mcs(self) -> list[frozenset[int]]:
        """Edge sets met exactly once by every root-to-marking path."""
        def rec(v: int) -> list[frozenset[int]]:
            out = [frozenset()]
            for c in self.children[v]:
                options = [frozenset([c])]
                if c not in self.label:
                    options.extend(rec(c))
                out = [acc | opt for acc in out for opt in options]
            return out
        return rec(self.root)

    def ray_count(self) -> int:
        def rec(v: int) -> int:
            out = 1
            for c in self.children[v]:
                out *= 1 if c in self.label else rec(c) + 1
            return out
        return rec(self.root)

    def ray(self, y) -> tuple[int, ...]:
        """Ray of a minimally complete subset in the coordinates 1..g."""
        def unit(v: int) -> list[int]:
            vec = [0] * self.g
            vec[v - 1] = 1
            return vec

        def rec(v: int) -> list[int]:
            vec = unit(v)
            for c in self.children[v]:
                if c not in y:
                    sub = rec(c)
                    vec = [a + b - u for a, b, u in zip(vec, sub, unit(v))]
            return vec
        return tuple(rec(self.root))

    def partition_of(self, y) -> Partition:
        return tuple(sorted(self.labels_below(e) for e in y))

    def weights(self) -> dict[int, tuple[int, ...]]:
        """Edge weight vectors: s(parent) - s(child), with s the subtree totals."""
        totals: dict[int, list[int]] = {}
        for v in sorted(self.children):           # post-order ids: children first
            if v in self.label:
                continue
            s = [0] * self.g
            s[v - 1] = 1
            for c in self.children[v]:
                if c not in self.label:
                    s = [a + b for a, b in zip(s, totals[c])]
            totals[v] = s
        zero = [0] * self.g
        return {c: tuple(a - b for a, b in zip(totals[p], totals.get(c, zero)))
                for c, p in self.parent.items()}

    def weight_sum(self, ms: dict[int, int]) -> tuple[int, ...]:
        w = self.weights()
        out = [0] * self.g
        for e, m in ms.items():
            out = [a + m * b for a, b in zip(out, w[e])]
        return tuple(out)

    def path_up(self, leaf: int, top: int) -> list[int]:
        out, v = [], leaf
        while v != top:
            out.append(v)
            v = self.parent[v]
        return out


def scrambled_doc(tree: Tree, rng: random.Random) -> dict:
    """The tree's JSON with fresh vertex ids and shuffled vertex and edge order."""
    ids = sorted(tree.children)
    fresh = rng.sample(range(1, 20 * len(ids) + 100), len(ids))
    relabel = dict(zip(ids, fresh))
    verts = []
    for vid in ids:
        item: dict = {"id": relabel[vid], "colored": vid in tree.label}
        if vid in tree.label:
            item["label"] = tree.label[vid]
        verts.append(item)
    edges = [[relabel[tree.parent[c]], relabel[c]] for c in tree.edges]
    rng.shuffle(verts)
    rng.shuffle(edges)
    return {"root": relabel[tree.root], "vertices": verts, "edges": edges}


# --- workloads ----------------------------------------------------------------

def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def _divisor_doc(n: int, x: dict[Partition, int], one: dict[Subset, int]) -> dict:
    return {"n": n,
            "typeI": {subset_key(s): c for s, c in one.items() if c},
            "typeII": {partition_key(p): c for p, c in x.items() if c}}


def _image_vector(n: int, rng: random.Random) -> dict[Partition, int]:
    k = {s: rng.randint(-3, 3) for s in proper_subsets(n)}
    return pull_push(n, k)


def _sparse_vector(n: int, rng: random.Random) -> dict[Partition, int]:
    chosen = rng.sample(partitions(n), rng.randint(2, 5))
    return {p: rng.choice([-3, -2, -1, 1, 2, 3]) for p in chosen}


def _type_one(n: int, rng: random.Random) -> dict[Subset, int]:
    big = [s for s in proper_subsets(n) if len(s) >= 2]
    return {s: rng.randint(1, 3) for s in rng.sample(big, rng.randint(0, 2))}


def _divisor_ops(n: int, x: dict[Partition, int], one: dict[Subset, int],
                 path: str) -> list[dict]:
    _write_json(path, _divisor_doc(n, x, one))
    cartier = closed_form_witness(n, x) is not None
    expect = {"n": n, "cartier": cartier, "divisor": path}
    return [
        {"kind": "cli", "verb": "decide", "expect": expect,
         "argv": ["global", "decide", "--n", str(n), "--divisor", path]},
        {"kind": "cli", "verb": "witness", "expect": expect,
         "argv": ["global", "witness", "--n", str(n), "--divisor", path]},
    ]


def _pullback_ops(n: int, rng: random.Random) -> list[dict]:
    size = rng.randint(2, n - 1)
    s = tuple(sorted(rng.sample(range(1, n + 1), size)))
    i, j = sorted(rng.sample(range(1, n + 1), 2))
    return [
        {"kind": "cli", "verb": "pullback-subset", "expect": {"n": n, "subset": list(s)},
         "argv": ["global", "pullback", "--n", str(n), "--subset", subset_key(s)]},
        {"kind": "cli", "verb": "pullback-fij", "expect": {"n": n, "fij": [i, j]},
         "argv": ["global", "pullback", "--n", str(n), "--fij", f"{i},{j}"]},
    ]


def global_lattice(rng: random.Random, indir: str) -> dict:
    """Fixed list of global verbs at n = 6, 7, 8 plus crosscheck at n = 3..6."""
    ops: list[dict] = []
    for n in (6, 7):
        for verb in ("rank", "pushpull", "relations"):
            ops.append({"kind": "cli", "verb": verb, "expect": {"n": n},
                        "argv": ["global", verb, "--n", str(n)]})
    n = 8
    for verb in ("rank", "pushpull"):
        ops.append({"kind": "cli", "verb": verb, "expect": {"n": n},
                    "argv": ["global", verb, "--n", str(n)]})
    ops += _divisor_ops(n, _image_vector(n, rng), _type_one(n, rng),
                        os.path.join(indir, "d8-image.json"))
    ops += _divisor_ops(n, _sparse_vector(n, rng), {}, os.path.join(indir, "d8-sparse.json"))
    ops += [op for op in _pullback_ops(n, rng) if op["verb"] == "pullback-fij"]
    for n in range(3, 7):
        ops.append({"kind": "cli", "verb": "crosscheck", "expect": {"n": n},
                    "env": {"SCALEDLINES_MAX_N": "6"},
                    "argv": ["global", "crosscheck", "--n", str(n)]})
    return {"warmup": [], "ops": ops}


def divisor_queries(rng: random.Random, indir: str) -> dict:
    """Stream of decide / witness / pullback requests and witness reconstructions."""
    warmup = []
    for n in (4, 5, 6, 7):
        path = os.path.join(indir, f"warm{n}.json")
        _write_json(path, _divisor_doc(n, {}, {}))
        warmup.append({"kind": "cli", "verb": "decide",
                       "expect": {"n": n, "cartier": True, "divisor": path},
                       "argv": ["global", "decide", "--n", str(n), "--divisor", path]})
    ops: list[dict] = []
    for n in (6, 7):
        for i in range(48):
            image = i % 2 == 0
            x = _image_vector(n, rng) if image else _sparse_vector(n, rng)
            ops += _divisor_ops(n, x, _type_one(n, rng),
                                os.path.join(indir, f"d{n}-{i}.json"))
        for _ in range(32):
            ops += _pullback_ops(n, rng)
    for i in range(96):
        n = (4, 5, 6)[i % 3]
        x = _image_vector(n, rng)
        ops.append({"kind": "recon", "n": n, "divisor": _divisor_doc(n, x, {})})
    rng.shuffle(ops)
    return {"warmup": warmup, "ops": ops}


def _multiset_pairs(tree: Tree, rng: random.Random) -> list[list[dict[str, int]]]:
    """Disjoint edge multisets of size <= 3: two paths from one vertex, then random."""
    pairs = []
    forks = [v for v in tree.children if v not in tree.label and len(tree.children[v]) >= 2]
    for _ in range(2):
        v = rng.choice(forks)
        left, right = rng.sample(tree.children[v], 2)
        a = tree.path_up(tree.g + rng.choice(tree.labels_below(left)), v)
        b = tree.path_up(tree.g + rng.choice(tree.labels_below(right)), v)
        if len(a) <= 3 and len(b) <= 3:
            pairs.append([{str(e): 1 for e in a}, {str(e): 1 for e in b}])
    edges = list(tree.edges)
    rng.shuffle(edges)
    cut = len(edges) // 2                       # stable trees have >= 2 edges
    sides = []
    for side in (edges[:cut], edges[cut:]):
        ms: dict[str, int] = {}
        for e in rng.choices(side, k=rng.randint(1, 3)):
            ms[str(e)] = ms.get(str(e), 0) + 1
        sides.append(ms)
    pairs.append(sides)
    return pairs


def _local_divisors(tree: Tree, rng: random.Random) -> list[list[list]]:
    """One Cartier divisor built from the per-vertex generators, one random."""
    subsets = [tuple(sorted(y)) for y in tree.mcs()]
    combo: dict[tuple[int, ...], int] = {}
    for v in tree.children:
        if v in tree.label:
            continue
        c = rng.randint(-2, 2)
        below = set(tree.below(v))
        for y in subsets:
            if below.intersection(y):
                combo[y] = combo.get(y, 0) + c
    chosen = rng.sample(subsets, min(len(subsets), rng.randint(1, 3)))
    rand = {y: rng.choice([-2, -1, 1, 2]) for y in chosen}
    return [[[list(y), c] for y, c in sorted(d.items()) if c] for d in (combo, rand)]


def _stratified_sample(shapes: tuple, k: int, rng: random.Random) -> list:
    """``k`` of ``shapes``, from each class of equal vertex and MCS counts
    as many as its share of ``shapes`` (largest remainders round up).

    The few costliest trees set the tail latency, and how many of them a
    plain sample holds varies from seed to seed (150 out of 2752 trees hold
    2.45 of the 45 costliest on average), so the tail moved with the seed.
    Here every seed gets the same mix.
    """
    classes: dict[tuple[int, int], list] = {}
    for shape in shapes:
        tree = Tree(shape)
        classes.setdefault((len(tree.children), len(tree.mcs())), []).append(shape)
    quota = {key: k * len(members) // len(shapes) for key, members in classes.items()}
    by_remainder = sorted(classes, key=lambda key: -(k * len(classes[key]) % len(shapes)))
    for key in by_remainder[:k - sum(quota.values())]:
        quota[key] += 1
    return [shape for key in sorted(classes) for shape in rng.sample(classes[key], quota[key])]


def tree_local(rng: random.Random, indir: str) -> dict:
    """Every stratum tree with n <= 5 plus 150 sampled n = 6 trees, scrambled."""
    chosen = []
    for n in range(2, 6):
        chosen.extend(shapes_over(tuple(range(1, n + 1))))
    chosen.extend(_stratified_sample(shapes_over(tuple(range(1, 7))), 150, rng))
    ops = []
    for shape in chosen:
        tree = Tree(shape)
        ops.append({"kind": "tree", "shape": json.dumps(shape),
                    "tree": scrambled_doc(tree, rng),
                    "divisors": _local_divisors(tree, rng),
                    "multisets": _multiset_pairs(tree, rng)})
    rng.shuffle(ops)
    return {"warmup": [], "ops": ops}


WORKLOADS = {
    "global-lattice": global_lattice,
    "divisor-queries": divisor_queries,
    "tree-local": tree_local,
}


def make_job(workload: str, seed: int, indir: str) -> dict:
    """Build the job of ``workload`` for ``seed``; divisor files go under ``indir``."""
    rng = random.Random(f"scaledlines-bench:{workload}:{seed}")
    return WORKLOADS[workload](rng, indir)
