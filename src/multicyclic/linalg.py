"""Exact forward elimination over F_q.

No fraction-free or floating-point paths: all entries live in the field
and elimination uses field inversion directly.  `pivot_columns` is the
one elimination: it gives the rank check of a generator matrix and, from
the pivots of the K x N idempotent table at the negated exponents, the
monomials X^m whose multiples X^m e are the rows of `codes.build_basis`.
"""

from __future__ import annotations

import numpy as np

from .gf import Field


class GfMatrix:
    """Row-major matrix of canonical field elements (immutable)."""

    __slots__ = ("field", "array")

    def __init__(self, field: Field, array):
        array = np.asarray(array, dtype=np.int64)
        if array.ndim != 2:
            array = array.reshape(0 if array.size == 0 else 1, -1)
        array = array.copy()
        array.setflags(write=False)
        self.field = field
        self.array = array

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other):
        return (isinstance(other, GfMatrix) and other.field == self.field
                and np.array_equal(other.array, self.array))

    def __repr__(self):
        return f"GfMatrix({self.array.tolist()})"


def pivot_columns(M: GfMatrix) -> list:
    """The pivot columns of M in increasing order; their number is its rank.

    Forward elimination: in column order, the pivot is the first nonzero
    entry at or below the current row, swapped up to it, and each row
    below is reduced by A[r, col] / A[row, col] times the unscaled pivot
    row.  The pivots are those of the reduced row-echelon form."""
    fld = M.field
    A = M.array.copy()
    rows, cols = A.shape
    pivots = []
    for col in range(cols):
        row = len(pivots)
        if row == rows:
            break
        below = np.flatnonzero(A[row:, col])
        if below.size == 0:
            continue
        if below[0]:
            A[[row, row + below[0]]] = A[[row + below[0], row]]
        inv = fld.inv(int(A[row, col]))
        for r in range(row + 1, rows):
            if A[r, col]:
                factor = fld.mul(int(A[r, col]), inv)
                A[r, col:] = fld.sub(A[r, col:], fld.mul(factor, A[row, col:]))
        pivots.append(col)
    return pivots


def rank(M: GfMatrix) -> int:
    return len(pivot_columns(M))
