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
"""

from __future__ import annotations

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
            return IntMatrix([[] for _ in range(self.cols)], cols=0)
        return IntMatrix(zip(*self._data), cols=self.rows)

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("dimension mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._data)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = list(zip(*other._data)) if other._data else []
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._data],
            cols=other.cols,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self._cols == other._cols and self._data == other._data

    def __hash__(self) -> int:
        return hash((self._cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self._data]!r})"


def _axpy(target: list[int], source: list[int], q: int) -> None:
    # target -= q * source, in place
    if q:
        for k, s in enumerate(source):
            if s:
                target[k] -= q * s


def _hnf_inplace(rows: list[list[int]], track: Optional[list[list[int]]]) -> list[int]:
    """Row-reduce ``rows`` to Hermite normal form, mirroring ops on ``track``.

    Returns the list of pivot column indices (one per nonzero row).
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: list[int] = []
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
                    _axpy(rows[i], rows[r], q)
                    if track is not None:
                        _axpy(track[i], track[r], q)
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
            _axpy(rows[i], rows[k], q)
            if track is not None:
                _axpy(track[i], track[k], q)
    return pivots


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Return ``(H, U)`` with ``U @ m == H`` in row-style Hermite normal form."""
    rows = m.row_list()
    track = IntMatrix.identity(m.rows).row_list()
    _hnf_inplace(rows, track)
    return IntMatrix(rows, cols=m.cols), IntMatrix(track, cols=m.rows)


def rank(m: IntMatrix) -> int:
    """Rank of ``m`` over the rationals (equivalently over the integers)."""
    rows = m.row_list()
    return len(_hnf_inplace(rows, None))


def row_lattice_hnf(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice spanned by the rows of ``m``.

    Zero rows are dropped, so equal lattices yield equal matrices.
    """
    rows = m.row_list()
    pivots = _hnf_inplace(rows, None)
    return IntMatrix(rows[: len(pivots)], cols=m.cols)


def lattice_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Whether the rows of ``a`` and ``b`` span the same integer lattice."""
    if a.cols != b.cols:
        raise ValueError("ambient dimensions differ")
    return row_lattice_hnf(a) == row_lattice_hnf(b)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Basis of ``{x : m @ x = 0}`` as rows, saturated and HNF-canonical."""
    t = m.transpose()
    rows = t.row_list()
    track = IntMatrix.identity(t.rows).row_list()
    pivots = _hnf_inplace(rows, track)
    ker = track[len(pivots):]
    if not ker:
        return IntMatrix([], cols=m.cols)
    _hnf_inplace(ker, None)
    return IntMatrix(ker, cols=m.cols)


class HnfSolver:
    """Prepared integer solver for repeated ``m @ x = b`` queries.

    The Hermite form of the transpose is computed once; each ``solve`` is a
    back-substitution.
    """

    def __init__(self, m: IntMatrix):
        self.m = m
        t = m.transpose()
        rows = t.row_list()
        track = IntMatrix.identity(t.rows).row_list()
        self._pivots = _hnf_inplace(rows, track)
        self._h = rows
        self._u = track

    def solve(self, b: Sequence[int]) -> Optional[tuple[int, ...]]:
        """A canonical integer solution of ``m @ x = b``, or None."""
        if len(b) != self.m.rows:
            raise ValueError("dimension mismatch")
        res = list(b)
        coeffs: list[int] = []
        for k, j in enumerate(self._pivots):
            p = self._h[k][j]
            z, rem = divmod(res[j], p)
            if rem:
                return None
            coeffs.append(z)
            if z:
                _axpy(res, self._h[k], z)
        if any(res):
            return None
        n = self.m.cols
        x = [0] * n
        for z, urow in zip(coeffs, self._u):
            if z:
                for k in range(n):
                    x[k] += z * urow[k]
        sol = tuple(x)
        if self.m.matvec(sol) != tuple(b):
            raise ArithmeticError("solver produced a non-solution")
        return sol


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
                    _axpy(work[i], work[k], q)
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
            _axpy(work[k], work[offender], -1)
            continue
        k += 1
    return [work[i][i] for i in range(k)]


def smith_normal_form(m: IntMatrix) -> tuple[int, ...]:
    """Positive invariant factors ``d_1 | d_2 | ...`` of ``m``."""
    work = m.row_list()
    return tuple(_snf_diagonal(work))
