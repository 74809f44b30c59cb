"""Multidimensional Fourier transform over F_q and primitive idempotents.

The transform evaluates a ring element at every tuple of root powers
(w_1^{j_1}, ..., w_r^{j_r}); it is linear and bijective, turns ring
multiplication into pointwise spectrum multiplication, and sends the
primitive idempotent at index i to the Kronecker delta at i.  Both
directions are `Ring.transform`: one n_t x n_t table per axis, in
O(N * sum n_t) time and O(N) memory.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange
from .ring import Poly, Ring


class Spectrum:
    """Fourier image of a ring element: a tensor of field values indexed by j."""

    __slots__ = ("ring", "values")

    def __init__(self, ring: Ring, values):
        values = np.asarray(values, dtype=np.int64)
        if values.shape != ring.lengths:
            raise IndexOutOfRange(
                f"spectrum shape {values.shape} != ring lengths {ring.lengths}")
        values = values.copy()
        values.setflags(write=False)
        self.ring = ring
        self.values = values

    def __getitem__(self, j):
        return int(self.values[tuple(j)])

    def support(self):
        """Index tuples with nonzero value, sorted: C order is lexicographic."""
        return list(map(tuple, np.argwhere(self.values != 0).tolist()))

    def __eq__(self, other):
        return (isinstance(other, Spectrum) and other.ring == self.ring
                and np.array_equal(other.values, self.values))

    def __repr__(self):
        return f"Spectrum({self.values.tolist()})"


def fourier(f: Poly) -> Spectrum:
    """f_hat(j_1,...,j_r) = f(w_1^{j_1}, ..., w_r^{j_r})."""
    return Spectrum(f.ring, f.ring.transform(f.coeffs))


def fourier_inverse(s: Spectrum) -> Poly:
    """Coefficients c[m] = (1/N) sum_j s[j] prod_t w_t^{-j_t m_t}."""
    return Poly(s.ring, s.ring.transform(s.values, inverse=True))


def theta(ring: Ring, axis: int, index: int) -> Poly:
    """Univariate primitive idempotent (1/n_t) sum_m w_t^{-i m} X_t^m: the
    idempotent of the hyperplane {j : j_t = i}."""
    if not 0 <= axis < ring.r:
        raise IndexOutOfRange(f"axis {axis} not in [0, {ring.r})")
    n = ring.lengths[axis]
    if not 0 <= index < n:
        raise IndexOutOfRange(f"index {index} not in [0, {n})")
    return idempotent_from_set(
        ring, (j for j in ring.monomials if j[axis] == index))


def primitive_idempotent(ring: Ring, index) -> Poly:
    """Tensor product of the univariate primitive idempotents, with closed
    form (1/N) sum_m prod_t w_t^{-i_t m_t} X^m: the idempotent of {index}."""
    return idempotent_from_set(ring, [index])


def idempotent_from_set(ring: Ring, indices) -> Poly:
    """Sum of primitive idempotents over a defining set, computed as the
    inverse transform of the 0/1 indicator of the set."""
    values = np.zeros(ring.lengths, dtype=np.int64)
    for idx in indices:
        idx = tuple(idx)
        if not ring.in_box(idx):
            raise IndexOutOfRange(f"index {idx} outside box {ring.lengths}")
        values[idx] = 1
    return fourier_inverse(Spectrum(ring, values))
