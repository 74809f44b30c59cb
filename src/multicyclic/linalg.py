"""Exact Gauss-Jordan linear algebra over F_q.

No fraction-free or floating-point paths: all entries live in the field
and elimination uses field inversion directly.  `rref` is the one
elimination: it gives the rank check of a generator matrix and, from the
pivots of the K x N character matrix, the monomials whose multiples of e
are the generator rows of `codes.build_basis`.
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


def rref(M: GfMatrix):
    """Reduced row-echelon form: returns (R, rank, pivot_columns).

    Pivot choice is deterministic: first nonzero entry in column order.
    """
    fld = M.field
    A = M.array.copy()
    rows, cols = A.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_row = None
        for r in range(row, rows):
            if A[r, col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != row:
            A[[row, pivot_row]] = A[[pivot_row, row]]
        A[row] = np.asarray(fld.mul(fld.inv(int(A[row, col])), A[row]))
        for r in range(rows):
            if r != row and A[r, col]:
                A[r] = np.asarray(fld.sub(A[r], fld.mul(int(A[r, col]), A[row])))
        pivots.append(col)
        row += 1
    return GfMatrix(fld, A), len(pivots), pivots


def rank(M: GfMatrix) -> int:
    return rref(M)[1]

