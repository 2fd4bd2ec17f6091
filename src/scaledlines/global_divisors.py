"""Global boundary divisors of the moduli space of scaled marked lines.

Boundary strata come in two kinds: type I indexed by marking subsets of
size at least two, and type II indexed by partitions of the markings into
at least two blocks.  The incidence correspondence between proper subsets
and partitions containing them as blocks induces a push-pull pair of
integer linear maps; the relations between type II divisors are exactly
the kernel of the subset-direction map, and the Cartier ones are exactly
the image of the partition-direction map.  Type I divisors are always
Cartier and impose no conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping, Optional

from . import local_divisors
from .intlinalg import HnfSolver, IntMatrix, kernel_basis, rank, row_lattice_hnf
from .trees import Partition, Subset, enumerate_trees, partitions_of, proper_subsets


class NotCartierError(ValueError):
    """Raised when a witness is requested for a divisor that has none."""


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ValueError("need an integer number of markings n >= 2")


@lru_cache(maxsize=32)
def _subsets(n: int) -> tuple[Subset, ...]:
    return proper_subsets(range(1, n + 1))


@lru_cache(maxsize=32)
def _partitions(n: int) -> tuple[Partition, ...]:
    return partitions_of(range(1, n + 1))


@dataclass(frozen=True)
class Strata:
    typeI: tuple[Subset, ...]
    typeII: tuple[Partition, ...]


def enumerate_strata(n: int) -> Strata:
    """Boundary strata labels: subsets of size >= 2 and nontrivial partitions."""
    _check_n(n)
    type_one = tuple(s for s in _subsets(n) if len(s) >= 2)
    type_one += (Subset.of(range(1, n + 1)),)
    return Strata(tuple(sorted(type_one)), _partitions(n))


#: Refuse s-scale listings with more type II strata than this.  The
#: largest allowed, n = 4 with s = 14 (229362 strata), takes about 3.7 s
#: and 120 MiB as ``strata`` JSON, less than ``global relations --n 8``.
MAX_MULTI_STRATA = 250_000


def _bell(n: int, cap: int) -> int:
    """The Bell number B_n; stops early at the first Bell number above ``cap``."""
    row = [1]                  # row k of the Bell triangle starts with B_k
    for _ in range(n):
        if row[0] > cap:
            break
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


@dataclass(frozen=True)
class MultiStrata:
    typeI: tuple[Subset, ...]
    typeII: tuple[tuple[Partition, tuple[int, ...]], ...]


def enumerate_strata_multi(n: int, s: int) -> MultiStrata:
    """Boundary strata of the s-scale variant.

    Type II strata carry a nonempty subset of the scales; everything else
    matches the single-scale enumeration, which is the s = 1 case.
    """
    _check_n(n)
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise ValueError("need an integer number of scales s >= 1")
    # There are (B_n - 1)(2^s - 1) type II strata, B_n the Bell number.
    # Both factors are at least 1, so a large s is refused before 2^s is built.
    if s > MAX_MULTI_STRATA.bit_length() or (
            (_bell(n, MAX_MULTI_STRATA + 1) - 1) * (2 ** s - 1) > MAX_MULTI_STRATA):
        raise ValueError(f"n={n} with s={s} scales has more than {MAX_MULTI_STRATA} "
                         "type II strata")
    universe = list(range(1, s + 1))
    scale_sets = sorted(
        tuple(c)
        for size in range(1, s + 1)
        for c in itertools.combinations(universe, size)
    )
    type_two = tuple((p, j) for p in _partitions(n) for j in scale_sets)
    return MultiStrata(enumerate_strata(n).typeI, type_two)


@dataclass(frozen=True)
class DivisorVector:
    """Finitely supported integer combination of boundary divisors."""

    n: int
    typeI: tuple[tuple[Subset, int], ...]
    typeII: tuple[tuple[Partition, int], ...]

    @classmethod
    def of(cls, n: int,
           type_one: Optional[Mapping[Subset, int]] = None,
           type_two: Optional[Mapping[Partition, int]] = None) -> "DivisorVector":
        _check_n(n)
        one = []
        for subset, coeff in (type_one or {}).items():
            if len(subset) < 2 or any(x > n for x in subset):
                raise ValueError(f"type I index {subset.key()} is not a stratum for n={n}")
            cls._check_coeff(coeff)
            if coeff:
                one.append((subset, coeff))
        two = []
        for part, coeff in (type_two or {}).items():
            # Lengths first: a huge n must not build a huge ground set.
            ground = part.ground_set
            if len(ground) != n or ground != tuple(range(1, n + 1)):
                raise ValueError(f"type II index {part.key()} does not partition 1..{n}")
            cls._check_coeff(coeff)
            if coeff:
                two.append((part, coeff))
        return cls(n, tuple(sorted(one)), tuple(sorted(two)))

    @staticmethod
    def _check_coeff(coeff: int) -> None:
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ValueError("divisor coefficients must be integers")

    @cached_property
    def _typeI_map(self) -> dict[Subset, int]:
        return dict(self.typeI)

    @cached_property
    def _typeII_map(self) -> dict[Partition, int]:
        return dict(self.typeII)

    def typeI_coeff(self, subset: Subset) -> int:
        return self._typeI_map.get(subset, 0)

    def typeII_coeff(self, part: Partition) -> int:
        return self._typeII_map.get(part, 0)

    def typeII_vector(self) -> tuple[int, ...]:
        """Coefficients over the canonical partition order."""
        return tuple(self._typeII_map.get(p, 0) for p in _partitions(self.n))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "typeI": {s.key(): c for s, c in self.typeI},
            "typeII": {p.key(): c for p, c in self.typeII},
        }

    @classmethod
    def from_json_dict(cls, data) -> "DivisorVector":
        if not isinstance(data, dict) or "n" not in data:
            raise ValueError("divisor document must be an object with an n field")
        n = data["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("n must be an integer")
        for part in ("typeI", "typeII"):
            if not isinstance(data.get(part, {}), dict):
                raise ValueError(f"{part} must be an object of coefficients")
        one = {Subset.from_key(key): cls._int(coeff)
               for key, coeff in data.get("typeI", {}).items()}
        two = {Partition.from_key(key): cls._int(coeff)
               for key, coeff in data.get("typeII", {}).items()}
        return cls.of(n, one, two)

    @staticmethod
    def _int(x) -> int:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValueError("divisor coefficients must be integers")
        return x


@dataclass(frozen=True)
class PushPull:
    """Incidence matrix between proper subsets and partitions containing them."""

    n: int
    subsets: tuple[Subset, ...]
    partitions: tuple[Partition, ...]
    matrix: IntMatrix            # rows: subsets, cols: partitions

    def pull_push(self, k: Mapping[Subset, int]) -> dict[Partition, int]:
        """Pull back along membership and push to partitions: P -> sum of k over blocks."""
        out = {}
        for p in self.partitions:
            out[p] = sum(k.get(Subset(b), 0) for b in p.blocks)
        return out


@lru_cache(maxsize=32)
def _partition_index(n: int) -> dict[Partition, int]:
    return {p: i for i, p in enumerate(_partitions(n))}


@lru_cache(maxsize=32)
def _subset_index(n: int) -> dict[Subset, int]:
    return {s: i for i, s in enumerate(_subsets(n))}


@lru_cache(maxsize=16)
def _block_indices(n: int) -> tuple[tuple[int, ...], ...]:
    # Per partition, in canonical order, the subset indices of its blocks.
    sindex = _subset_index(n)
    return tuple(tuple(sindex[Subset(b)] for b in p.blocks) for p in _partitions(n))


@lru_cache(maxsize=16)
def pushpull_matrix(n: int) -> PushPull:
    """The 0/1 matrix with a row per proper subset and a column per partition."""
    _check_n(n)
    subsets = _subsets(n)
    partitions = _partitions(n)
    columns: list[list[int]] = [[0] * len(partitions) for _ in subsets]
    for j, blocks in enumerate(_block_indices(n)):
        for i in blocks:
            columns[i][j] = 1
    matrix = IntMatrix._of(tuple(map(tuple, columns)), len(partitions))
    return PushPull(n, subsets, partitions, matrix)


@lru_cache(maxsize=16)
def relations_basis(n: int) -> IntMatrix:
    """Basis of the relations among type II divisors, rows over partition coordinates."""
    return kernel_basis(pushpull_matrix(n).matrix)


@lru_cache(maxsize=16)
def pushpull_rank(n: int) -> int:
    """Rank of the push-pull map; always 2^n - n - 1."""
    return rank(pushpull_matrix(n).matrix)


@lru_cache(maxsize=16)
def image_lattice_basis(n: int) -> IntMatrix:
    """Canonical basis of the lattice of Cartier type II coefficient vectors."""
    return row_lattice_hnf(pushpull_matrix(n).matrix)


def is_cartier_global(n: int, divisor: DivisorVector) -> bool:
    """Whether the divisor is Cartier: type II part in the push-pull image lattice.

    Decided by the exact reconstruction behind :func:`cartier_witness`;
    the HNF image solver stays the oracle in the tests.
    """
    return _reconstruct_witness(n, divisor)[1] is None


def simple_partition_for(subset: Subset, n: int) -> Partition:
    """The unique partition whose only non-singleton block can be ``subset``."""
    blocks = [list(subset.elements)]
    blocks.extend([x] for x in range(1, n + 1) if x not in subset)
    return Partition.of(blocks)


@lru_cache(maxsize=32)
def simple_partitions(n: int) -> tuple[Partition, ...]:
    """Partitions with at most one block of size above one; 2^n - n - 1 of them."""
    _check_n(n)
    out = {Partition.of([[x] for x in range(1, n + 1)])}
    for s in _subsets(n):
        if len(s) >= 2:
            out.add(simple_partition_for(s, n))
    return tuple(sorted(out))


def cartier_witness(n: int, divisor: DivisorVector) -> dict[Subset, int]:
    """An integral function on proper subsets whose pull-push is the type II part.

    Raises :class:`NotCartierError` when the divisor is not Cartier.
    """
    witness, miss = _reconstruct_witness(n, divisor)
    if miss is not None:
        raise NotCartierError(
            f"no witness: reconstruction differs at partition {miss.key()}")
    return witness


def _reconstruct_witness(
        n: int, divisor: DivisorVector) -> tuple[dict[Subset, int], Optional[Partition]]:
    """The witness the simple partitions pin down, and the first partition it misses.

    The value on {1} is pinned to the all-singletons coefficient and the
    other singleton values to zero; any witness can be moved there by a
    kernel vector, and then the simple partitions determine everything
    else.  Verification over every partition is exact, so the divisor is
    Cartier exactly when no partition is missed (second item None).
    """
    _check_n(n)
    if divisor.n != n:
        raise ValueError("divisor was built for a different n")
    coeffs = divisor._typeII_map
    singletons = Partition.of([[x] for x in range(1, n + 1)])
    n_sing = coeffs.get(singletons, 0)
    witness: dict[Subset, int] = {s: 0 for s in _subsets(n)}
    witness[Subset.of([1])] = n_sing
    for s in _subsets(n):
        if len(s) >= 2:
            correction = n_sing if 1 not in s else 0
            witness[s] = coeffs.get(simple_partition_for(s, n), 0) - correction
    values = [witness[s] for s in _subsets(n)]
    for p, blocks in zip(_partitions(n), _block_indices(n)):
        if sum([values[i] for i in blocks]) != coeffs.get(p, 0):
            return witness, p
    return witness, None


def pullback_forgetful(n: int, subset: Subset) -> DivisorVector:
    """Pullback of a type I divisor along the map forgetting the scale.

    The subset must be proper of size at least two; the result adds every
    partition containing it as a block.
    """
    _check_n(n)
    if not (2 <= len(subset) < n):
        raise ValueError("subset must be proper of size at least two")
    if any(x > n or x < 1 for x in subset):
        raise ValueError("subset is not within the marking range")
    two = {p: 1 for p in _partitions(n) if subset.elements in p.blocks}
    return DivisorVector.of(n, {subset: 1}, two)


def pullback_fij(n: int, i: int, j: int) -> DivisorVector:
    """Type II part of the pullback along the i-j cross-ratio map.

    Supported on the partitions separating the two chosen markings.
    """
    _check_n(n)
    _check_pair(n, i, j)
    two = {p: 1 for p in _partitions(n) if p.separates(i, j)}
    return DivisorVector.of(n, {}, two)


def pullback_fij_typeI(n: int, i: int, j: int) -> DivisorVector:
    """Type I part of the pullback along the i-j cross-ratio map.

    Supported on the subsets containing both chosen markings.
    """
    _check_n(n)
    _check_pair(n, i, j)
    one = {s: 1 for s in enumerate_strata(n).typeI if i in s and j in s}
    return DivisorVector.of(n, one, {})


def _check_pair(n: int, i: int, j: int) -> None:
    if i == j or not all(1 <= x <= n for x in (i, j)):
        raise ValueError("need two distinct markings between 1 and n")


@dataclass(frozen=True)
class CrosscheckReport:
    n: int
    trees_checked: int
    relation_rows: int
    rank_expected: int
    rank_image: int
    rank_local: int
    lattices_equal: bool
    separating_vector: Optional[tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return (self.lattices_equal and self.rank_expected == self.rank_image
                == self.rank_local)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "trees_checked": self.trees_checked,
            "relation_rows": self.relation_rows,
            "rank_expected": self.rank_expected,
            "rank_image": self.rank_image,
            "rank_local": self.rank_local,
            "lattices_equal": self.lattices_equal,
            "separating_vector": (list(self.separating_vector)
                                  if self.separating_vector is not None else None),
            "ok": self.ok,
        }


def local_global_crosscheck(n: int) -> CrosscheckReport:
    """Compare the push-pull image with the lattice cut out tree by tree.

    For every stable tree, the incidence-kernel conditions of its local
    model pull back to linear conditions on type II coefficient vectors via
    the subset/partition dictionary.  The vectors satisfying all of them
    must form exactly the image lattice of the push-pull map.
    """
    _check_n(n)
    partitions = _partitions(n)
    pindex = _partition_index(n)
    relation_rows: list[list[int]] = []
    trees = enumerate_trees(n)
    for t in trees:
        dictionary = [pindex[local_divisors.partition_of_subset(t, y)]
                      for y in local_divisors.minimally_complete_subsets(t)]
        for row in t.relations:
            embedded = [0] * len(partitions)
            for coeff, target in zip(row, dictionary):
                embedded[target] += coeff
            relation_rows.append(embedded)

    # Both bases are canonical HNF, so the lattices are equal exactly when
    # the matrices are.
    if relation_rows:
        local_lattice = kernel_basis(
            IntMatrix._of(tuple(map(tuple, relation_rows)), len(partitions)))
    else:
        local_lattice = IntMatrix.identity(len(partitions))
    image = image_lattice_basis(n)
    equal = local_lattice == image

    separating = None
    if not equal:
        for basis, other in ((local_lattice, image), (image, local_lattice)):
            solver = HnfSolver(other, transposed=True)
            separating = next((row for row in basis if solver.solve(row) is None), None)
            if separating is not None:
                break

    return CrosscheckReport(
        n=n,
        trees_checked=len(trees),
        relation_rows=len(relation_rows),
        rank_expected=2 ** n - n - 1,
        rank_image=image.rows,
        rank_local=local_lattice.rows,
        lattices_equal=equal,
        separating_vector=separating,
    )
