"""Colored trees, set partitions and marked subsets.

A colored tree is a rooted tree in which every root-to-leaf path crosses
exactly one colored vertex.  Colored vertices carry distinct positive
labels (the markings); after reduction they are exactly the leaves.  The
vertex adjacent to the root position is called the principal vertex.

Canonical form: children of every vertex are ordered by the smallest
colored label below them, uncolored vertices are numbered 1..g in
post-order (so the principal vertex gets g), and the colored vertex with
label ``l`` gets id ``g + l``.  Edges are identified by their child vertex
id throughout the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .intlinalg import IntMatrix, kernel_basis


@dataclass(frozen=True, order=True)
class Subset:
    """Nonempty set of marking labels, kept sorted."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("subset must be nonempty")
        if list(self.elements) != sorted(set(self.elements)):
            raise ValueError("subset elements must be sorted and distinct")
        if self.elements[0] < 1:
            raise ValueError("labels are positive integers")

    @classmethod
    def of(cls, elements: Iterable[int]) -> "Subset":
        return cls(tuple(sorted(set(elements))))

    @classmethod
    def from_key(cls, key: str) -> "Subset":
        try:
            parts = [int(p) for p in key.split(",")]
        except ValueError:
            raise ValueError(f"bad subset key {key!r}") from None
        return cls.of(parts)

    def key(self) -> str:
        return ",".join(str(x) for x in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)


@dataclass(frozen=True, order=True)
class Partition:
    """Partition of a label set into at least two blocks.

    Blocks are sorted internally and ordered by their smallest element,
    which makes equal partitions structurally equal.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.blocks) < 2:
            raise ValueError("partition needs at least two blocks")
        seen: set[int] = set()
        for block in self.blocks:
            if not block or list(block) != sorted(block):
                raise ValueError("blocks must be nonempty and sorted")
            if seen.intersection(block):
                raise ValueError("blocks must be disjoint")
            seen.update(block)
        if min(seen) < 1:
            raise ValueError("labels are positive integers")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks must be ordered by smallest element")

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        normal = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[:1])
        return cls(tuple(normal))

    @classmethod
    def from_key(cls, key: str) -> "Partition":
        try:
            blocks = [[int(x) for x in part.split(",")] for part in key.split("|")]
        except ValueError:
            raise ValueError(f"bad partition key {key!r}") from None
        return cls.of(blocks)

    def key(self) -> str:
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    @property
    def ground_set(self) -> tuple[int, ...]:
        return tuple(sorted(x for b in self.blocks for x in b))

    def block_of(self, x: int) -> tuple[int, ...]:
        for b in self.blocks:
            if x in b:
                return b
        raise KeyError(x)

    def separates(self, i: int, j: int) -> bool:
        return self.block_of(i) is not self.block_of(j)

    def __contains__(self, block) -> bool:
        if isinstance(block, Subset):
            return block.elements in self.blocks
        return tuple(block) in self.blocks


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All partitions of ``items`` into nonempty blocks (including the trivial one)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for k in range(len(smaller)):
            yield smaller[:k] + [[first] + smaller[k]] + smaller[k + 1:]
        yield [[first]] + smaller


def partitions_of(labels: Sequence[int]) -> tuple[Partition, ...]:
    """All partitions of ``labels`` with at least two blocks, canonically sorted."""
    out = [Partition.of(p) for p in set_partitions(list(labels)) if len(p) >= 2]
    return tuple(sorted(out))


def proper_subsets(labels: Sequence[int]) -> tuple[Subset, ...]:
    """All nonempty proper subsets of ``labels``, in lexicographic order."""
    labels = sorted(labels)
    out = []
    for size in range(1, len(labels)):
        out.extend(Subset.of(c) for c in itertools.combinations(labels, size))
    return tuple(sorted(out))


@dataclass(frozen=True)
class Vertex:
    id: int
    colored: bool
    label: Optional[int] = None

    def __post_init__(self):
        if self.colored and (self.label is None or isinstance(self.label, bool)
                             or self.label < 1):
            raise ValueError(f"colored vertex {self.id} needs a positive label")
        if not self.colored and self.label is not None:
            raise ValueError(f"uncolored vertex {self.id} must not carry a label")


@dataclass(frozen=True)
class ColoredTree:
    """Rooted tree with labeled colored vertices; edges run parent -> child."""

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]
    root: int

    @classmethod
    def build(cls, vertices: Iterable[Vertex], edges: Iterable[tuple[int, int]],
              root: int) -> "ColoredTree":
        return cls(tuple(vertices), tuple((p, c) for p, c in edges), root)

    @cached_property
    def _by_id(self) -> dict[int, Vertex]:
        out = {}
        for v in self.vertices:
            if v.id in out:
                raise ValueError(f"duplicate vertex id {v.id}")
            out[v.id] = v
        return out

    def vertex(self, vid: int) -> Vertex:
        return self._by_id[vid]

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {v.id: [] for v in self.vertices}
        for p, c in self.edges:
            out[p].append(c)
        return {k: tuple(v) for k, v in out.items()}

    @cached_property
    def parent(self) -> dict[int, int]:
        return {c: p for p, c in self.edges}

    @cached_property
    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(v.label for v in self.vertices if v.colored))

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def uncolored_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices if not v.colored)

    @property
    def g(self) -> int:
        return len(self.uncolored_ids)

    @cached_property
    def edge_keys(self) -> tuple[int, ...]:
        """Edges identified by child id, in sorted order."""
        return tuple(sorted(c for _, c in self.edges))

    def is_colored(self, vid: int) -> bool:
        return self.vertex(vid).colored

    def label_of(self, vid: int) -> int:
        v = self.vertex(vid)
        if not v.colored:
            raise ValueError(f"vertex {vid} is not colored")
        return v.label  # type: ignore[return-value]

    def _postorder(self, kids) -> list[int]:
        """Vertices reached from the root through ``kids(v)``, each after its kids.

        Kids are visited in the order ``kids`` lists them: this is a
        pre-order walk that takes the last kid first, reversed.  The stack
        is explicit, so deep trees need no recursion.
        """
        order: list[int] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            order.append(v)
            if len(order) > len(self.vertices):
                raise ValueError("the edges below the root contain a cycle")
            stack.extend(kids(v))
        order.reverse()
        return order

    @cached_property
    def min_label_below(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in self._postorder(self.children.__getitem__):
            vtx = self.vertex(v)
            below = [out[c] for c in self.children[v]]
            if vtx.colored:
                below.append(vtx.label)
            out[v] = min(below)
        return out

    def ordered_children(self, vid: int) -> tuple[int, ...]:
        """Children sorted by the smallest colored label below them."""
        return tuple(sorted(self.children[vid], key=self.min_label_below.__getitem__))

    def labels_below(self, vid: int) -> tuple[int, ...]:
        acc = []
        stack = [vid]
        while stack:
            v = stack.pop()
            vtx = self.vertex(v)
            if vtx.colored:
                acc.append(vtx.label)
            stack.extend(self.children[v])
        return tuple(sorted(acc))

    @cached_property
    def _edges_below(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, tuple[int, ...]] = {}
        for v in self._postorder(self.children.__getitem__):
            acc = list(self.children[v])
            for c in self.children[v]:
                acc.extend(out[c])
            out[v] = tuple(sorted(acc))
        return out

    def edges_below(self, vid: int) -> tuple[int, ...]:
        """Edge keys of the subtree rooted at ``vid`` (excluding its own parent edge)."""
        return self._edges_below[vid]

    def path_up(self, vid: int) -> tuple[int, ...]:
        """Edge keys on the path from ``vid`` up to the root."""
        out = []
        v = vid
        while v != self.root:
            out.append(v)
            v = self.parent[v]
        return tuple(out)

    def colored_id(self, label: int) -> int:
        for v in self.vertices:
            if v.colored and v.label == label:
                return v.id
        raise KeyError(label)

    # Derived data, computed at most once per tree object.  Everything from
    # ``units`` on presupposes a valid reduced tree and raises otherwise.

    @cached_property
    def validation(self) -> "ValidationReport":
        """The report of :func:`validate_tree` on this tree."""
        return validate_tree(self)

    @cached_property
    def _defect(self) -> Optional[str]:
        if not self.validation.ok:
            return "invalid colored tree: " + "; ".join(self.validation.issues)
        if not is_reduced(self):
            return "tree is not reduced; call reduce_tree first"
        return None

    def require_reduced(self) -> None:
        """Raise ``ValueError`` unless this is a valid reduced colored tree."""
        if self._defect is not None:
            raise ValueError(self._defect)

    @cached_property
    def index(self) -> dict[int, int]:
        """Canonical index 1..g of each uncolored vertex, in index order.

        Post-order, children visited in order of smallest colored label
        below, so the principal vertex always receives index g.
        """
        if self.is_colored(self.root):
            return {}

        def uncolored_children(v: int) -> list[int]:
            return [c for c in self.ordered_children(v) if not self.is_colored(c)]

        return {v: k for k, v in enumerate(self._postorder(uncolored_children), 1)}

    @cached_property
    def units(self) -> dict[int, tuple[int, ...]]:
        """The unit vector of Z^g at each uncolored vertex's index."""
        self.require_reduced()
        g = len(self.index)
        return {v: tuple(1 if k == i else 0 for k in range(1, g + 1))
                for v, i in self.index.items()}

    @cached_property
    def totals(self) -> dict[int, tuple[int, ...]]:
        """Path-weight total of the subtree below each uncolored vertex, in post-order."""
        units = self.units
        zero = (0,) * len(units)
        out: dict[int, tuple[int, ...]] = {}
        for v in self._postorder(self.children.__getitem__):
            if v in units:
                s = units[v]
                for c in self.children[v]:
                    s = tuple(x + y for x, y in zip(s, out.get(c, zero)))
                out[v] = s
        return out

    @cached_property
    def weights(self) -> dict[int, tuple[int, ...]]:
        """Weight ``s(v) - s(child)`` of every edge, keyed by its child id."""
        totals = self.totals
        zero = (0,) * len(totals)
        return {c: tuple(x - y for x, y in zip(s, totals.get(c, zero)))
                for v, s in totals.items() for c in self.children[v]}

    @cached_property
    def mcs(self) -> tuple[tuple[int, ...], ...]:
        """Minimally complete edge subsets, each sorted, in sorted order."""
        self.require_reduced()
        below: dict[int, list[frozenset[int]]] = {}
        for v in self._postorder(self.children.__getitem__):
            if self.is_colored(v):
                continue
            out = [frozenset()]
            for c in self.children[v]:
                options = [frozenset([c]), *below.pop(c, ())]
                out = [acc | opt for acc in out for opt in options]
            below[v] = out
        return tuple(sorted(tuple(sorted(y)) for y in below.get(self.root, ())))

    @cached_property
    def relations(self) -> IntMatrix:
        """Kernel of the edge/subset incidence matrix, rows over ``mcs``."""
        members = [set(y) for y in self.mcs]
        return kernel_basis(IntMatrix._of(
            tuple(tuple(1 if e in m else 0 for m in members) for e in self.edge_keys),
            len(members)))

    def to_json_dict(self) -> dict:
        verts = []
        for v in sorted(self.vertices, key=lambda x: x.id):
            item: dict = {"id": v.id, "colored": v.colored}
            if v.colored:
                item["label"] = v.label
            verts.append(item)
        return {"root": self.root,
                "vertices": verts,
                "edges": [[p, c] for p, c in self.edges]}

    @classmethod
    def from_json_dict(cls, data) -> "ColoredTree":
        if not isinstance(data, dict):
            raise ValueError("tree document must be a JSON object")
        try:
            root = data["root"]
            raw_vertices = data["vertices"]
            raw_edges = data["edges"]
        except (KeyError, TypeError):
            raise ValueError("tree document needs root, vertices and edges") from None
        if not isinstance(root, int) or isinstance(root, bool):
            raise ValueError("root must be an integer vertex id")
        if not isinstance(raw_vertices, list) or not isinstance(raw_edges, list):
            raise ValueError("vertices and edges must be lists")
        vertices = []
        for item in raw_vertices:
            if not isinstance(item, dict) or "id" not in item or "colored" not in item:
                raise ValueError("each vertex needs an id and a colored flag")
            vid, colored = item["id"], item["colored"]
            label = item.get("label")
            if not isinstance(vid, int) or isinstance(vid, bool):
                raise ValueError("vertex ids must be integers")
            if not isinstance(colored, bool):
                raise ValueError("colored must be a boolean")
            if colored and (not isinstance(label, int) or isinstance(label, bool)):
                raise ValueError(f"colored vertex {vid} needs an integer label")
            vertices.append(Vertex(vid, colored, label if colored else None))
        edges = []
        for item in raw_edges:
            if (not isinstance(item, (list, tuple)) or len(item) != 2
                    or any(not isinstance(x, int) or isinstance(x, bool) for x in item)):
                raise ValueError("edges must be [parent, child] integer pairs")
            edges.append((item[0], item[1]))
        return cls.build(vertices, edges, root)

    def to_dot(self, edge_labels: Optional[Mapping[int, str]] = None) -> str:
        lines = ["digraph coloredtree {", "  rankdir=TB;"]
        for v in sorted(self.vertices, key=lambda x: x.id):
            if v.colored:
                lines.append(
                    f'  v{v.id} [shape=circle, style=filled, fillcolor=gray80, label="{v.label}"];')
            else:
                lines.append(f'  v{v.id} [shape=point];')
        for p, c in self.edges:
            if edge_labels and c in edge_labels:
                lines.append(f'  v{p} -> v{c} [label="{edge_labels[c]}"];')
            else:
                lines.append(f"  v{p} -> v{c};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ValidationReport:
    """Per-invariant outcome of :func:`validate_tree`."""

    well_formed: bool
    connected: bool
    acyclic: bool
    labels_bijective: bool
    one_colored_per_path: bool
    issues: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return (self.well_formed and self.connected and self.acyclic
                and self.labels_bijective and self.one_colored_per_path)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "well_formed": self.well_formed,
            "connected": self.connected,
            "acyclic": self.acyclic,
            "labels_bijective": self.labels_bijective,
            "one_colored_per_path": self.one_colored_per_path,
            "issues": list(self.issues),
        }


def validate_tree(t: ColoredTree) -> ValidationReport:
    """Check the colored-tree invariants and report each one separately."""
    issues: list[str] = []
    ids = [v.id for v in t.vertices]
    well_formed = True
    if len(ids) != len(set(ids)):
        well_formed = False
        issues.append("duplicate vertex ids")
    known = set(ids)
    if t.root not in known:
        well_formed = False
        issues.append(f"root {t.root} is not a vertex")
    indeg: dict[int, int] = {i: 0 for i in known}
    for p, c in t.edges:
        if p not in known or c not in known:
            well_formed = False
            issues.append(f"edge ({p}, {c}) references an unknown vertex")
        else:
            indeg[c] += 1
    if not well_formed:
        return ValidationReport(False, False, False, False, False, tuple(issues))

    for v, d in indeg.items():
        if v == t.root and d != 0:
            issues.append("root has a parent edge")
        elif v != t.root and d > 1:
            issues.append(f"vertex {v} has {d} parents")

    # Reachability from the root along parent -> child edges.
    seen = set()
    stack = [t.root]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(t.children.get(v, ()))
    connected = seen == known
    if not connected:
        issues.append("not every vertex is reachable from the root")

    # A directed cycle exists iff some vertex repeats on a root path, or an
    # edge set this large cannot be a forest.
    acyclic = len(t.edges) == len(known) - 1 and all(
        indeg[v] == (0 if v == t.root else 1) for v in known)
    if not acyclic:
        issues.append("edges do not form a tree rooted at the root")

    labels = [v.label for v in t.vertices if v.colored]
    labels_bijective = len(labels) == len(set(labels)) and len(labels) > 0
    if not labels_bijective:
        issues.append("colored labels are missing or repeated")

    one_per_path = connected and acyclic
    if one_per_path:
        # Walk down from the root counting colored vertices on the way.
        stack = [(t.root, 0)]
        while stack and one_per_path:
            v, count = stack.pop()
            count += 1 if t.is_colored(v) else 0
            kids = t.children[v]
            if count > 1 or (count == 0 and not kids):
                one_per_path = False
            stack.extend((c, count) for c in kids)
        if not one_per_path:
            issues.append("some root-to-leaf path crosses != 1 colored vertex")

    return ValidationReport(True, connected, acyclic, labels_bijective,
                            one_per_path, tuple(issues))


def is_reduced(t: ColoredTree) -> bool:
    """Whether every colored vertex is a leaf."""
    return all(not t.children[v.id] for v in t.vertices if v.colored)


def canonical_indices(t: ColoredTree) -> dict[int, int]:
    """Post-order numbering 1..g of the uncolored vertices.

    Children are visited in order of smallest colored label below, so the
    principal vertex always receives index g.  These indices are the
    coordinates used by the weight and cone modules.
    """
    return dict(t.index)


def _canonicalize(t: ColoredTree) -> ColoredTree:
    """Renumber a reduced tree into canonical form."""
    mapping = dict(t.index)
    g = len(mapping)
    for v in t.vertices:
        if v.colored:
            mapping[v.id] = g + v.label
    vertices = []
    edges: list[tuple[int, int]] = []
    # Pre-order; each edge is listed just before its child vertex.
    stack = [t.root]
    while stack:
        v = stack.pop()
        vtx = t.vertex(v)
        if v != t.root:
            edges.append((mapping[t.parent[v]], mapping[v]))
        vertices.append(Vertex(mapping[v], vtx.colored, vtx.label))
        stack.extend(reversed(t.ordered_children(v)))
    return ColoredTree.build(vertices, edges, mapping[t.root])


def reduce_tree(t: ColoredTree) -> ColoredTree:
    """Drop everything strictly below colored vertices and canonicalize."""
    report = t.validation
    if not report.ok:
        raise ValueError("invalid colored tree: " + "; ".join(report.issues))
    keep = set()
    stack = [t.root]
    while stack:
        v = stack.pop()
        keep.add(v)
        if not t.is_colored(v):
            stack.extend(t.children[v])
    trimmed = ColoredTree.build(
        [v for v in t.vertices if v.id in keep],
        [(p, c) for p, c in t.edges if p in keep and c in keep],
        t.root,
    )
    return _canonicalize(trimmed)


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
    return _canonicalize(ColoredTree.build(vertices, edges, 0))


# Tree shapes for enumeration: a colored leaf is the bare label, an
# uncolored vertex is the tuple of child shapes ordered by smallest label.

def _shape_min(shape) -> int:
    return shape if isinstance(shape, int) else _shape_min(shape[0])


def _shape_key(shape):
    if isinstance(shape, int):
        return (0, shape)
    return (1, tuple(_shape_key(c) for c in shape))


def _shape_uncolored(shape) -> int:
    if isinstance(shape, int):
        return 0
    return 1 + sum(_shape_uncolored(c) for c in shape)


def _shapes_over(labels: tuple[int, ...]) -> Iterator[tuple]:
    """All stable tree shapes over a label set of size >= 2.

    Every uncolored vertex has at least two children; a size-1 block of the
    principal partition becomes a bare colored branch.
    """
    for parts in set_partitions(list(labels)):
        if len(parts) < 2:
            continue
        options = []
        for block in sorted(parts, key=min):
            block = tuple(sorted(block))
            if len(block) == 1:
                options.append((block[0],))
            else:
                options.append(tuple(_shapes_over(block)))
        for combo in itertools.product(*options):
            yield tuple(sorted(combo, key=_shape_min))


def _shape_to_tree(shape) -> ColoredTree:
    vertices: list[Vertex] = []
    edges: list[tuple[int, int]] = []
    counter = itertools.count(0)

    def emit(s) -> int:
        vid = next(counter)
        if isinstance(s, int):
            vertices.append(Vertex(vid, True, s))
        else:
            vertices.append(Vertex(vid, False))
            for child in s:
                edges.append((vid, emit(child)))
        return vid

    emit(shape)
    return _canonicalize(ColoredTree.build(vertices, edges, 0))


@lru_cache(maxsize=16)
def enumerate_trees(n: int, max_uncolored: Optional[int] = None) -> tuple[ColoredTree, ...]:
    """All reduced colored trees on labels 1..n, canonically ordered.

    Only trees whose uncolored vertices all have at least two children are
    produced; those are exactly the shapes that occur as boundary strata.
    """
    if n < 2:
        raise ValueError("need at least two labels")
    shapes = sorted(_shapes_over(tuple(range(1, n + 1))), key=_shape_key)
    if max_uncolored is not None:
        shapes = [s for s in shapes if _shape_uncolored(s) <= max_uncolored]
    return tuple(_shape_to_tree(s) for s in shapes)


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
