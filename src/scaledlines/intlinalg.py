"""Exact linear algebra over the integers.

Everything in this module works with arbitrary-precision Python ints; no
floating point is used anywhere.  Conventions, fixed once so that every
caller sees bit-identical results:

* Hermite normal form is row-style: ``U @ M == H`` with ``U`` unimodular,
  pivots positive and strictly to the right as rows descend, entries above
  a pivot reduced into ``[0, pivot)``, zero rows at the bottom.
* Pivot selection is the nonzero entry of smallest absolute value, ties
  broken by lowest row index.
* Kernels are returned as saturated row bases in Hermite normal form.
* When a linear solve is underdetermined, free coordinates of the
  back-substitution are set to zero, which makes the answer canonical.

Internally every Hermite reduction works on sparse rows, a dict from
column to nonzero entry, for the matrix and for the transform it tracks
alike; columns that no remaining row touches are skipped.  The sparse rows
are built straight from the input's entries, and results are turned back
into dense :class:`IntMatrix` values only on return.  The pivot rule, the
row swaps and negations and the reduction above each pivot are those of
a dense elimination over every column (kept in the tests as the
reference), so every result is bit-identical to it and the conventions
above are unchanged.  Matrices that this package builds from
its own ints skip the per-entry checks of the public constructor.
"""

from __future__ import annotations

import sys
from itertools import compress
from typing import Iterable, Optional, Sequence

#: Refuse to allocate matrices larger than this many entries.
MAX_ENTRIES = 2 * 10**8


class IntMatrix:
    """Immutable dense integer matrix with value semantics."""

    __slots__ = ("_data", "_cols")

    def __init__(self, rows: Iterable[Iterable[int]], cols: Optional[int] = None):
        data = tuple(tuple(self._check_entry(x) for x in row) for row in rows)
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            inferred = widths.pop()
            if cols is not None and cols != inferred:
                raise ValueError("cols does not match row length")
            cols = inferred
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        if len(data) * cols > MAX_ENTRIES:
            raise ValueError("matrix exceeds MAX_ENTRIES")
        self._data = data
        self._cols = cols

    @classmethod
    def _of(cls, data: tuple[tuple[int, ...], ...], cols: int) -> "IntMatrix":
        """Wrap rows of ints built inside this package, skipping every check."""
        m = object.__new__(cls)
        m._data = data
        m._cols = cols
        return m

    @staticmethod
    def _check_entry(x: int) -> int:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"matrix entries must be int, got {type(x).__name__}")
        return x

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls([[0] * cols for _ in range(rows)], cols=cols)

    @property
    def rows(self) -> int:
        return len(self._data)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def entries(self) -> tuple[int, ...]:
        """Row-major flat view of the entries."""
        return tuple(x for row in self._data for x in row)

    def row(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def row_list(self) -> list[list[int]]:
        return [list(r) for r in self._data]

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self._data[i]

    def __iter__(self):
        return iter(self._data)

    def transpose(self) -> "IntMatrix":
        if not self._data:
            return IntMatrix._of(((),) * self.cols, 0)
        return IntMatrix._of(tuple(zip(*self._data)), self.rows)

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other._data)) if other._data else [()] * other.cols
        return IntMatrix._of(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                  for row in self._data),
            other.cols,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._cols == other._cols and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._data]!r})"


_NO_COLUMN = sys.maxsize   # the leading column of a zero row: past every list index


def _sparse_rows(m: IntMatrix) -> list[dict[int, int]]:
    """The rows of ``m`` as sparse rows (column -> nonzero entry)."""
    return [{j: row[j] for j in compress(range(len(row)), row)} for row in m._data]


def _sparse_columns(m: IntMatrix) -> list[dict[int, int]]:
    """The rows of ``m``'s transpose as sparse rows, without transposing ``m``."""
    cols: list[dict[int, int]] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m._data):
        for j in compress(range(len(row)), row):
            cols[j][i] = row[j]
    return cols


def _sparse_identity(n: int) -> list[dict[int, int]]:
    return [{i: 1} for i in range(n)]


def _dense(rows: Iterable[dict[int, int]], cols: int) -> IntMatrix:
    out = []
    for row in rows:
        dense = [0] * cols
        for j, v in row.items():
            dense[j] = v
        out.append(tuple(dense))
    return IntMatrix._of(tuple(out), cols)


def _axpy(target: dict[int, int], source: dict[int, int], q: int) -> None:
    # target -= q * source, in place, keeping only nonzero entries
    get = target.get
    for k, s in source.items():
        v = get(k, 0) - q * s
        if v:
            target[k] = v
        else:
            del target[k]


def _hnf_inplace(rows: list[dict[int, int]],
                 track: Optional[list[dict[int, int]]]) -> list[int]:
    """Row-reduce sparse ``rows`` to Hermite normal form, mirroring ops on ``track``.

    Returns the list of pivot column indices (one per nonzero row).  Rows
    ``r..m-1`` stay zero left of the current column, so the next column
    worth eliminating is the smallest leading column among them; every
    column in between has no nonzero entry in those rows and is skipped.
    """
    m = len(rows)
    lead = [min(row) if row else _NO_COLUMN for row in rows]
    pivots: list[int] = []
    for r in range(m):
        j = min(lead[r:])
        if j == _NO_COLUMN:
            break
        # Euclidean elimination in column j over the rows that touch it.
        touching = [i for i in range(r, m) if lead[i] == j]
        while True:
            piv = min(touching, key=lambda i: abs(rows[i][j]))
            if piv != r:
                rows[r], rows[piv] = rows[piv], rows[r]
                lead[r], lead[piv] = lead[piv], lead[r]
                if track is not None:
                    track[r], track[piv] = track[piv], track[r]
            if rows[r][j] < 0:
                rows[r] = {k: -v for k, v in rows[r].items()}
                if track is not None:
                    track[r] = {k: -v for k, v in track[r].items()}
            pivot_row = rows[r]
            p = pivot_row[j]
            # The row that stood at r before the swap now stands at piv.
            below = sorted(piv if i == r else i for i in touching if i != piv)
            dirty = []
            for i in below:
                row = rows[i]
                q = row[j] // p
                _axpy(row, pivot_row, q)
                if track is not None:
                    _axpy(track[i], track[r], q)
                if j in row:
                    dirty.append(i)
                else:
                    lead[i] = min(row) if row else _NO_COLUMN
            if not dirty:
                break
            touching = [r] + dirty
        pivots.append(j)
    # Reduce entries above each pivot into [0, pivot).
    for k, j in enumerate(pivots):
        pivot_row = rows[k]
        p = pivot_row[j]
        for i in range(k):
            q = rows[i].get(j, 0) // p
            if q:
                _axpy(rows[i], pivot_row, q)
                if track is not None:
                    _axpy(track[i], track[k], q)
    return pivots


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return ``(H, U)`` with ``U @ m == H`` in row-style Hermite normal form."""
    rows = _sparse_rows(m)
    track = _sparse_identity(m.rows)
    _hnf_inplace(rows, track)
    return _dense(rows, m.cols), _dense(track, m.rows)


def rank(m: IntMatrix) -> int:
    """Rank of ``m`` over the rationals (equivalently over the integers)."""
    return len(_hnf_inplace(_sparse_rows(m), None))


def row_lattice_hnf(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice spanned by the rows of ``m``.

    Zero rows are dropped, so equal lattices yield equal matrices.
    """
    rows = _sparse_rows(m)
    pivots = _hnf_inplace(rows, None)
    return _dense(rows[: len(pivots)], m.cols)


def lattice_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether the rows of ``a`` and ``b`` span the same integer lattice."""
    if a.cols != b.cols:
        raise ValueError("ambient dimensions differ")
    return row_lattice_hnf(a) == row_lattice_hnf(b)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of ``{x : m @ x = 0}`` as rows, saturated and HNF-canonical."""
    rows = _sparse_columns(m)
    track = _sparse_identity(m.cols)
    pivots = _hnf_inplace(rows, track)
    ker = track[len(pivots):]
    _hnf_inplace(ker, None)
    return _dense(ker, m.cols)


def _compressed(rows: list[dict[int, int]]) -> tuple[list[tuple[int, ...]],
                                                     list[tuple[int, ...]]]:
    """Compressed sparse rows: per row, its columns and its nonzero values."""
    return [tuple(row) for row in rows], [tuple(row.values()) for row in rows]


class HnfSolver:
    """Prepared integer solver for repeated ``m @ x = b`` queries.

    The Hermite form of the transpose is computed once; each ``solve`` is a
    back-substitution.  With ``transposed=True`` the matrix passed in is
    the transpose of the system matrix, so the transpose's rows are read
    straight from it.

    The Hermite form ``_h`` and its transform ``_u`` are kept as
    compressed sparse rows: ``_h[k]`` holds the nonzero values of row k
    and ``_hcols[k]`` their columns, and likewise for ``_u``.  Iterating a
    row of ``_h`` or ``_u`` thus yields its nonzero entries, which is how
    the benchmark tracer (``bench/tracer.py``) reads their sizes.
    """

    def __init__(self, m: IntMatrix, transposed: bool = False):
        rows = _sparse_rows(m) if transposed else _sparse_columns(m)
        self._b_len = m.cols if transposed else m.rows
        self._x_len = len(rows)
        # The system's columns, kept for the final check of each solution.
        self._acols, self._a = _compressed(rows)
        track = _sparse_identity(len(rows))
        self._pivots = _hnf_inplace(rows, track)
        self._pivot_values = [rows[k][j] for k, j in enumerate(self._pivots)]
        self._hcols, self._h = _compressed(rows)
        self._ucols, self._u = _compressed(track)

    def solve(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        """A canonical integer solution of ``m @ x = b``, or None."""
        if len(b) != self._b_len:
            raise ValueError("dimension mismatch")
        res = list(b)
        coeffs: list[int] = []
        for j, p, cols, vals in zip(self._pivots, self._pivot_values, self._hcols, self._h):
            z, rem = divmod(res[j], p)
            if rem:
                return None
            coeffs.append(z)
            if z:
                for c, v in zip(cols, vals):
                    res[c] -= z * v
        if any(res):
            return None
        x = [0] * self._x_len
        for z, cols, vals in zip(coeffs, self._ucols, self._u):
            if z:
                for c, v in zip(cols, vals):
                    x[c] += z * v
        # m @ x in full, summed over the nonzero entries of m only.
        check = [0] * self._b_len
        for xk, cols, vals in zip(x, self._acols, self._a):
            if xk:
                for c, v in zip(cols, vals):
                    check[c] += xk * v
        if check != list(b):
            raise ArithmeticError("solver produced a non-solution")
        return tuple(x)


def solve_integer(m: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Canonical integer solution of ``m @ x = b``, or None if none exists."""
    return HnfSolver(m).solve(b)


def _snf_diagonal(work: list[list[int]]) -> list[int]:
    """Diagonalize ``work`` in place by unimodular row and column operations.

    Returns the positive invariant factors in divisibility order.
    """
    m = len(work)
    n = len(work[0]) if m else 0
    k = 0
    while k < min(m, n):
        # Locate the nonzero entry of smallest absolute value in the
        # trailing submatrix; ties by lowest (row, col).
        piv, best = None, 0
        for i in range(k, m):
            for j in range(k, n):
                val = work[i][j]
                if val and (piv is None or abs(val) < best):
                    piv, best = (i, j), abs(val)
        if piv is None:
            break
        i, j = piv
        if i != k:
            work[k], work[i] = work[i], work[k]
        if j != k:
            for row in work:
                row[k], row[j] = row[j], row[k]
        if work[k][k] < 0:
            work[k] = [-x for x in work[k]]
        # Clear row k and column k by Euclidean steps until both are clean.
        while True:
            p = work[k][k]
            dirty = False
            for i in range(k + 1, m):
                val = work[i][k]
                if val:
                    q = val // p
                    work[i] = [a - q * b for a, b in zip(work[i], work[k])]
                    if work[i][k]:
                        dirty = True
            if dirty:
                # A smaller remainder appeared below; promote it.
                piv, best = k, abs(work[k][k])
                for i in range(k + 1, m):
                    val = work[i][k]
                    if val and abs(val) < best:
                        piv, best = i, abs(val)
                if piv != k:
                    work[k], work[piv] = work[piv], work[k]
                if work[k][k] < 0:
                    work[k] = [-x for x in work[k]]
                continue
            p = work[k][k]
            dirty = False
            for j in range(k + 1, n):
                val = work[k][j]
                if val:
                    q = val // p
                    for row in work:
                        if row[j] or row[k]:
                            row[j] -= q * row[k]
                    if work[k][j]:
                        dirty = True
            if dirty:
                piv, best = k, abs(work[k][k])
                for j in range(k + 1, n):
                    val = work[k][j]
                    if val and abs(val) < best:
                        piv, best = j, abs(val)
                if piv != k:
                    for row in work:
                        row[k], row[piv] = row[piv], row[k]
                if work[k][k] < 0:
                    work[k] = [-x for x in work[k]]
                continue
            break
        # Enforce divisibility: the pivot must divide the trailing block.
        p = work[k][k]
        offender = None
        for i in range(k + 1, m):
            for j in range(k + 1, n):
                if work[i][j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            work[k] = [a + b for a, b in zip(work[k], work[offender])]
            continue
        k += 1
    return [work[i][i] for i in range(k)]


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Positive invariant factors ``d_1 | d_2 | ...`` of ``m``."""
    work = m.row_list()
    return tuple(_snf_diagonal(work))
