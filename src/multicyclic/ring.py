"""The ambient ring F_q[X_1,...,X_r] / <X_t^{n_t} - 1>.

Elements are dense r-dimensional coefficient tensors in C order.  The
Fourier transform that diagonalises the ring is a tensor product of one
n_t x n_t transform per axis, applied axis by axis in O(N * sum n_t)
time and O(N) memory; multiplication is a forward transform of both
factors, a pointwise product and an inverse transform.  Everything is
exact.  Flattened vectors (`Poly.vector()`, generator-matrix columns)
use a fixed graded-lex monomial order: exponent tuples sorted by total
degree, ties broken lexicographically with X_1 > X_2 > ... > X_r.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import (
    ArityMismatch,
    AxisOutOfRange,
    CtxMismatch,
    OrderNotDividing,
    RingTooLarge,
)
from .gf import Field

_VAR_NAMES_SHORT = ("x", "y", "z")

# Largest number of coefficients N = prod(n_t); the monomial list, once
# read, is O(N) Python tuples.
MAX_N = 1 << 16
# Field elements in one table, 8 MB of int64: the n_t x n_t axis tables
# and each K x N table of `codes._idempotent_rows` hold at most this many.
TABLE_LIMIT = 1 << 20


class Ring:
    """Immutable context: field, lengths, chosen roots, monomial order."""

    def __init__(self, field: Field, lengths):
        lengths = tuple(int(n) for n in lengths)
        if not lengths or any(n < 1 for n in lengths):
            raise ValueError("lengths must be a nonempty tuple of positive integers")
        for t, n in enumerate(lengths):
            if (field.q - 1) % n != 0:
                raise OrderNotDividing(
                    f"axis {t + 1}: n = {n} does not divide q-1 = {field.q - 1}")
        N = math.prod(lengths)
        if N > MAX_N:
            raise RingTooLarge(f"N = {N} coefficients exceeds the limit {MAX_N}")
        if max(lengths) ** 2 > TABLE_LIMIT:
            raise RingTooLarge(f"axis length {max(lengths)} exceeds the limit "
                               f"{math.isqrt(TABLE_LIMIT)}")
        self.field = field
        self.lengths = lengths
        self.r = len(lengths)
        self.N = N
        self.roots = tuple(field.nth_root_of_unity(n) for n in lengths)
        # gather[i] = C-order flat index of the i-th monomial.  np.lexsort
        # sorts by its last key first: total degree, then higher exponents
        # of X_1, X_2, ..., X_r first.
        box = np.indices(lengths).reshape(self.r, N)
        degree = box.sum(axis=0)
        self._gather = np.lexsort(np.vstack([-box[::-1], degree]))
        # total degree of each monomial, in the monomial order
        self._degree = degree[self._gather]

    @cached_property
    def monomials(self) -> list:
        """The exponent tuple of every monomial, in the monomial order,
        formed when first read."""
        exps = np.unravel_index(self._gather, self.lengths)
        return list(zip(*np.array(exps).tolist()))

    @cached_property
    def labels(self) -> tuple:
        """The name of every monomial, in the monomial order: the names of
        the box are the outer concatenation of one table per axis of the
        names of X_t^e, e < n_t ("" for e = 0), and "1" for the constant."""
        if self.r <= len(_VAR_NAMES_SHORT):
            names = _VAR_NAMES_SHORT
        else:
            names = [f"x{t + 1}" for t in range(self.r)]
        box = np.array("", dtype=object)
        for name, n in zip(names, self.lengths):
            axis = ("", name) + tuple(f"{name}^{e}" for e in range(2, n))
            box = np.add.outer(box, np.array(axis[:n], dtype=object))
        box = box.ravel()
        box[0] = "1"
        return tuple(box[self._gather].tolist())

    def in_box(self, idx) -> bool:
        return (len(idx) == self.r
                and all(0 <= i < n for i, n in zip(idx, self.lengths)))

    @cached_property
    def _axis_tables(self):
        # per axis: forward w^(jk) and inverse n^-1 w^(-jk), both symmetric
        fld = self.field
        tables = []
        for n, w in zip(self.lengths, self.roots):
            jk = np.outer(np.arange(n), np.arange(n)) % n
            n_inv = fld.inv(n % fld.p)
            fwd = [fld.pow(w, k) for k in range(n)]
            inv = [fld.mul(n_inv, fld.pow(w, -k)) for k in range(n)]
            tables.append((np.array(fwd, dtype=np.int64)[jk],
                           np.array(inv, dtype=np.int64)[jk]))
        return tuple(tables)

    def transform(self, tensor, inverse=False) -> np.ndarray:
        """Fourier transform of a C-order tensor: out[j] = sum_m tensor[m]
        prod_t w_t^(j_t m_t), or the inverse with w_t^-1 and a factor 1/N.
        Axes before the last r are batch axes: each tensor along them is
        transformed on its own, in one pass.

        The batch axes are moved last.  Each step contracts the leading
        axis with one axis table and appends the result as the last axis,
        so after r steps the batch axes lead and the ring axes follow in
        order."""
        out = np.asarray(tensor, dtype=np.int64)
        batch = out.shape[:out.ndim - self.r]
        out = out.reshape(-1, self.N).T
        for tables in self._axis_tables:
            table = tables[inverse]
            out = self.field.dot(out.reshape(len(table), -1).T, table)
        return out.reshape(batch + self.lengths)

    def zero(self) -> "Poly":
        return Poly(self, np.zeros(self.lengths, dtype=np.int64))

    def one(self) -> "Poly":
        return self.monomial((0,) * self.r)

    def monomial(self, exps, coeff: int = 1) -> "Poly":
        exps = tuple(exps)
        if not self.in_box(exps):
            raise AxisOutOfRange(f"exponent {exps} outside box {self.lengths}")
        c = np.zeros(self.lengths, dtype=np.int64)
        c[exps] = coeff
        return Poly(self, c)

    def from_vector(self, vec) -> "Poly":
        vec = np.asarray(vec, dtype=np.int64)
        flat = np.zeros(self.N, dtype=np.int64)
        flat[self._gather] = vec
        return Poly(self, flat.reshape(self.lengths))

    def random_poly(self, rng) -> "Poly":
        c = np.array([rng.randrange(self.field.q) for _ in range(self.N)],
                     dtype=np.int64).reshape(self.lengths)
        return Poly(self, c)

    def __repr__(self):
        return f"Ring({self.field!r}, lengths={self.lengths})"

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.field == other.field
                and self.lengths == other.lengths)

    def __hash__(self):
        return hash((self.field, self.lengths))


class Poly:
    """A ring element as a dense coefficient tensor (immutable)."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: Ring, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.shape != ring.lengths:
            raise CtxMismatch(
                f"coefficient shape {coeffs.shape} != ring lengths {ring.lengths}")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        self.ring = ring
        self.coeffs = coeffs

    def _check(self, other):
        if not isinstance(other, Poly) or other.ring != self.ring:
            raise CtxMismatch("operands belong to different rings")

    def vector(self) -> np.ndarray:
        """Coefficients flattened in the ring's graded-lex monomial order."""
        return self.coeffs.ravel()[self.ring._gather]

    def __add__(self, other):
        self._check(other)
        return Poly(self.ring, self.ring.field.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return Poly(self.ring, self.ring.field.sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return Poly(self.ring, self.ring.field.neg(self.coeffs))

    def __mul__(self, other):
        """Multidimensional cyclic convolution in O(N * sum n_t): the
        pointwise product of the two spectra, transformed back.  Exact,
        since n_t | q-1 makes N invertible in the field."""
        self._check(other)
        ring = self.ring
        spectrum = ring.field.mul(ring.transform(self.coeffs),
                                  ring.transform(other.coeffs))
        return Poly(ring, ring.transform(spectrum, inverse=True))

    def translate(self, exps) -> "Poly":
        """Multiply by the monomial X^exps (shift along every axis)."""
        if len(exps) != self.ring.r:
            raise ArityMismatch(f"expected {self.ring.r} exponents")
        return Poly(self.ring,
                    np.roll(self.coeffs, tuple(exps), axis=tuple(range(self.ring.r))))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def __bool__(self):
        return bool(self.coeffs.any())

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.ring == self.ring
                and np.array_equal(other.coeffs, self.coeffs))

    def __hash__(self):
        return hash((self.ring, self.coeffs.tobytes()))

    def __str__(self):
        terms = []
        for c, mono in zip(self.vector().tolist(), self.ring.labels):
            if c == 0:
                continue
            if mono == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(mono)
            else:
                terms.append(f"{c}{mono}")
        return " + ".join(terms) if terms else "0"

    def __repr__(self):
        return f"Poly({self})"
