import functools
import itertools
import math
import random

import numpy as np
import pytest

from multicyclic import (
    Field, Ring, SearchRow, codes, construct, fourier, fourier_inverse)
from multicyclic import orbits as orb_mod
from multicyclic.codes import BASIS_BOX, BASIS_GREEDY, DEFAULT_BUDGET
from multicyclic.gf import _poly_mulmod
from multicyclic.errors import (
    ArityMismatch,
    BudgetExceeded,
    DivisionByZero,
    Infeasible,
    MulticyclicError,
    RankDeficient,
    ZeroIdempotent,
)
from multicyclic.linalg import GfMatrix, rank
from multicyclic.ring import Poly
from multicyclic.spectral import Spectrum


@pytest.fixture(scope="session")
def f3():
    return Field(3)


@pytest.fixture(scope="session")
def f5():
    return Field(5)


@pytest.fixture(scope="session")
def f8():
    return Field(2, 3)


@pytest.fixture(scope="session")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def ring3(f3):
    """The reference ring: GF(3)[x,y,z] / <x^2-1, y^2-1, z^2-1>."""
    return Ring(f3, (2, 2, 2))


def divisor_lengths(q, max_n=64):
    return [n for n in range(2, min(q, max_n + 1)) if (q - 1) % n == 0]


def enumerate_rings(qs=(3, 5, 7, 8, 9), max_r=3, max_N=64):
    """All rings up to axis permutation: non-increasing length tuples."""
    fields = {3: Field(3), 5: Field(5), 7: Field(7),
              8: Field(2, 3), 9: Field(3, 2)}
    out = []
    for q in qs:
        divs = divisor_lengths(q)
        for r in range(1, max_r + 1):
            for tup in itertools.combinations_with_replacement(sorted(divs, reverse=True), r):
                if sorted(tup, reverse=True) != list(tup):
                    continue
                if np.prod(tup) <= max_N:
                    out.append(Ring(fields[q], tup))
    return out


def graded_lex_monomials(lengths):
    """Oracle: every exponent tuple of the box, sorted by a Python key:
    total degree, then X_1 > X_2 > ... > X_r."""
    return sorted(
        itertools.product(*(range(n) for n in lengths)),
        key=lambda e: (sum(e), tuple(-x for x in e)))


def ravel_gather(lengths, monomials):
    """Oracle: the C-order flat index of each monomial, one
    `np.ravel_multi_index` per monomial."""
    return np.array(
        [int(np.ravel_multi_index(e, lengths)) for e in monomials],
        dtype=np.int64)


_VAR_NAMES_SHORT = ("x", "y", "z")


def var_names(r):
    """Oracle: x, y, z for up to three axes, else x1, ..., xr."""
    if r <= len(_VAR_NAMES_SHORT):
        return _VAR_NAMES_SHORT[:r]
    return tuple(f"x{t + 1}" for t in range(r))


def monomial_name(r, exps) -> str:
    """Oracle: the name of X^exps, one factor per axis with a nonzero
    exponent, and "1" for the constant monomial."""
    parts = []
    for name, e in zip(var_names(r), exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "".join(parts) if parts else "1"


def term_loop_str(f):
    """Oracle: `str` of a ring element, one term per nonzero coefficient in
    the oracle monomial order, each coefficient read from the tensor."""
    terms = []
    for exps in graded_lex_monomials(f.ring.lengths):
        c = int(f.coeffs[exps])
        if c == 0:
            continue
        mono = monomial_name(f.ring.r, exps)
        if mono == "1":
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append(f"{c}{mono}")
    return " + ".join(terms) if terms else "0"


def one_hot(ring, axis, power=1):
    """Exponent tuple of the monomial X_axis^power."""
    return tuple(power if t == axis else 0 for t in range(ring.r))


def brute_field_mul(field, a, b):
    """Independent oracle: polynomial multiplication mod the modulus,
    entirely from the digit representation (no tables)."""
    p, m = field.p, field.m
    if m == 1:
        return (a * b) % p
    da = [(a // p ** i) % p for i in range(m)]
    db = [(b // p ** i) % p for i in range(m)]
    res = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            res[i + j] = (res[i + j] + x * y) % p
    for k in range(len(res) - 1, m - 1, -1):
        c = res[k]
        res[k] = 0
        for i, mc in enumerate(field.modulus[:-1]):
            res[k - m + i] = (res[k - m + i] - c * mc) % p
    return sum(c * p ** i for i, c in enumerate(res[:m]))


def loop_element_order(field, a: int) -> int:
    """Oracle: the order of a nonzero a, by multiplying by a until 1."""
    if a == 0:
        raise DivisionByZero("order of zero")
    k, x = 1, a
    while x != 1:
        x = int(field.mul(x, a))
        k += 1
    return k


@functools.lru_cache(maxsize=None)
def loop_field_tables(field):
    """Oracle: the log/antilog tables by one `_raw_mul` by the generator
    per element, checking that the generator has order q - 1."""
    q = field.q
    exp = np.zeros(q - 1, dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    x = 1
    for k in range(q - 1):
        exp[k] = x
        log[x] = k
        x = field._raw_mul(x, field.generator)
    assert x == 1, "generator order mismatch"
    return exp, log


def digit_add(field, a, b):
    """Independent oracle: addition digit by digit in base p, the
    coefficient-wise sum of the polynomial representations, with no XOR
    shortcut in characteristic 2."""
    a = np.asarray(a)
    b = np.asarray(b)
    p = field.p
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for i in range(field.m):
        pi = p ** i
        out += (((a // pi) + (b // pi)) % p) * pi
    return int(out) if out.ndim == 0 else out


def mul_neg(field, a):
    """Oracle: -a as a times the element p - 1, the constant polynomial -1
    in every GF(p^m), or a copy of a in characteristic 2, where -1 = 1."""
    if field.p == 2:
        out = np.array(a)
        return int(out) if out.ndim == 0 else out
    return field.mul(a, field.p - 1)


def add_neg_sub(field, a, b):
    """Oracle: a - b as a + (-b), through `mul_neg`."""
    return field.add(a, mul_neg(field, b))


def loop_alpha_powers(field):
    """Oracle: the m base-p digits of x^t for t < 2m - 1, by multiplying
    the polynomial x^t by x mod the modulus one step at a time."""
    p, m = field.p, field.m
    pows = []
    cur = [1]
    for _ in range(2 * m - 1):
        digits = list(cur) + [0] * (m - len(cur))
        pows.append(digits[:m])
        cur = _poly_mulmod(cur, [0, 1], field.modulus, p)
    return pows


def brute_dot(field, A, B):
    """Oracle: the matmul of A and B (numpy shape rules, batch axes
    included) with every product from `brute_field_mul` and every sum from
    `digit_add`, one entry at a time: `Field.dot` is never called."""
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    A2 = A[None, :] if A.ndim == 1 else A
    B2 = B[:, None] if B.ndim == 1 else B
    batch = np.broadcast_shapes(A2.shape[:-2], B2.shape[:-2])
    A2 = np.broadcast_to(A2, batch + A2.shape[-2:])
    B2 = np.broadcast_to(B2, batch + B2.shape[-2:])
    out = np.zeros(batch + (A2.shape[-2], B2.shape[-1]), dtype=np.int64)
    for idx in np.ndindex(out.shape):
        row = A2[idx[:-1]]
        col = B2[idx[:-2] + (slice(None), idx[-1])]
        acc = 0
        for x, y in zip(row.tolist(), col.tolist()):
            acc = digit_add(field, acc, brute_field_mul(field, x, y))
        out[idx] = acc
    if A.ndim == 1:
        out = out[..., 0, :]
    if B.ndim == 1:
        out = out[..., 0]
    return int(out) if out.ndim == 0 else out


def _axis_power_table(ring, t, sign=1):
    n = ring.lengths[t]
    pw = np.array([ring.field.pow(ring.roots[t], sign * k) for k in range(n)],
                  dtype=np.int64)
    return pw[np.outer(np.arange(n), np.arange(n)) % n]


@functools.lru_cache(maxsize=None)
def _dense_fourier_matrix(ring):
    """F[a, b] = prod_t w_t^(m_a[t] * m_b[t]) over the monomial order."""
    J = np.array(ring.monomials, dtype=np.int64)
    F = np.ones((ring.N, ring.N), dtype=np.int64)
    for t in range(ring.r):
        P = _axis_power_table(ring, t)
        F = np.asarray(ring.field.mul(F, P[np.ix_(J[:, t], J[:, t])]))
    return F


@functools.lru_cache(maxsize=None)
def _dense_fourier_inverse_matrix(ring):
    J = np.array(ring.monomials, dtype=np.int64)
    F = np.ones((ring.N, ring.N), dtype=np.int64)
    for t in range(ring.r):
        P = _axis_power_table(ring, t, sign=-1)
        F = np.asarray(ring.field.mul(F, P[np.ix_(J[:, t], J[:, t])]))
    n_inv = ring.field.inv(ring.N % ring.field.p)
    return np.asarray(ring.field.mul(n_inv, F))


@functools.lru_cache(maxsize=None)
def _conv_index(ring):
    # CONV[a, u] = position of monomial (m_a - m_u mod lengths)
    mono_pos = {e: i for i, e in enumerate(ring.monomials)}
    idx = np.empty((ring.N, ring.N), dtype=np.int64)
    for a, ma in enumerate(ring.monomials):
        for u, mu in enumerate(ring.monomials):
            diff = tuple((x - y) % n for x, y, n in zip(ma, mu, ring.lengths))
            idx[a, u] = mono_pos[diff]
    return idx


def dense_fourier(f):
    """Independent oracle: the transform as one dense N x N product over
    the monomial order, O(N^2)."""
    ring = f.ring
    vec = ring.field.dot(_dense_fourier_matrix(ring), f.vector())
    flat = np.zeros(ring.N, dtype=np.int64)
    flat[ring._gather] = vec
    return Spectrum(ring, flat.reshape(ring.lengths))


def dense_fourier_inverse(s):
    """Independent oracle: the inverse transform as one dense N x N product."""
    ring = s.ring
    svec = s.values.ravel()[ring._gather]
    vec = ring.field.dot(_dense_fourier_inverse_matrix(ring), svec)
    return ring.from_vector(vec)


def schoolbook_mul(a, b):
    """Independent oracle: multidimensional cyclic convolution through an
    N x N table of monomial differences, O(N^2), with no transform."""
    ring = a.ring
    B = b.vector()[_conv_index(ring)]
    vec = ring.field.dot(B, a.vector())
    return ring.from_vector(vec)


def closed_form_theta(ring, axis, index):
    """Independent oracle: the univariate primitive idempotent
    (1/n_t) sum_m w_t^{-i m} X_t^m, coefficient by coefficient."""
    fld = ring.field
    n = ring.lengths[axis]
    n_inv = fld.inv(n % fld.p)
    coeffs = np.zeros(ring.lengths, dtype=np.int64)
    sl = [0] * ring.r
    for m in range(n):
        sl[axis] = m
        coeffs[tuple(sl)] = fld.mul(n_inv, fld.pow(ring.roots[axis], -index * m))
    return Poly(ring, coeffs)


def closed_form_primitive_idempotent(ring, index):
    """Independent oracle: (1/N) sum_m prod_t w_t^{-i_t m_t} X^m as an
    outer product of per-axis character vectors."""
    fld = ring.field
    n_inv = fld.inv(ring.N % fld.p)
    acc = np.array([n_inv], dtype=np.int64).reshape((1,) * ring.r)
    for t in range(ring.r):
        col = np.array(
            [fld.pow(ring.roots[t], -index[t] * m) for m in range(ring.lengths[t])],
            dtype=np.int64)
        shape = [1] * ring.r
        shape[t] = ring.lengths[t]
        acc = np.asarray(fld.mul(acc, col.reshape(shape)))
    return Poly(ring, np.broadcast_to(acc, ring.lengths))


def spectral_codewords(ring, S):
    """Independent oracle for the code defined by spectral support S:
    every inverse transform of a spectrum supported inside S."""
    S = sorted(S)
    for vals in itertools.product(range(ring.field.q), repeat=len(S)):
        tensor = np.zeros(ring.lengths, dtype=np.int64)
        for idx, v in zip(S, vals):
            tensor[idx] = v
        yield fourier_inverse(Spectrum(ring, tensor))


def spectral_min_distance(ring, S):
    best = None
    for cw in spectral_codewords(ring, S):
        w = int(np.count_nonzero(cw.coeffs))
        if w and (best is None or w < best):
            best = w
    return best


def exhaustive_min_distance(G: GfMatrix, budget: int = DEFAULT_BUDGET) -> int:
    """Minimum Hamming weight over all nonzero codewords, by exhaustive
    chunked enumeration of message vectors."""
    fld = G.field
    q, K = fld.q, G.rows
    total = q ** K
    if total > budget:
        raise BudgetExceeded(f"{total} codewords exceed budget {budget}")
    if K == 0:
        raise ZeroIdempotent("zero code has no nonzero codewords")
    best = G.cols
    chunk = max(1, min(total, 1 << 16))
    for start in range(1, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        msgs = np.stack([(idx // q ** t) % q for t in range(K)], axis=1)
        cw = np.asarray(fld.dot(msgs, G.array))
        w = int(np.count_nonzero(cw, axis=1).min())
        best = min(best, w)
        if best == 1:
            break
    return best


def _projective_codewords(fld, rows):
    """Yield pairs (T, v) whose differences t - v, over the rows t of T and
    all pairs, are one nonzero multiple of each nonzero codeword (with
    multiplicity when rows are dependent): g_j + c or its negative, for
    every row g_j and every c in the span of the rows before it (a span
    table is closed under negation).

    The span of the leading rows is built level by level in a table of at
    most `codes.TABLE_LIMIT` elements (if one level is larger, the
    multiples of the first row are formed in chunks, again for each
    offset); the codewords of the remaining rows come from the same
    enumeration applied to them, and each is formed once, as an offset v
    paired with the whole table.
    """
    k, n = rows.shape
    q = fld.q
    limit = codes.TABLE_LIMIT
    if q * n > limit:
        step = max(1, limit // n)
        yield rows[:1], np.zeros(n, dtype=np.int64)
        if k > 1:
            scalars = np.arange(q, dtype=np.int64)[:, None]
            for T, u in _projective_codewords(fld, rows[1:]):
                for v in fld.sub(T, u):
                    for a in range(0, q, step):
                        yield fld.mul(scalars[a:a + step], rows[0]), v
        return
    inner = 1
    while inner < k and q ** (inner + 1) * n <= limit:
        inner += 1
    scalars = np.arange(q, dtype=np.int64)[:, None, None]
    table = np.zeros((1, n), dtype=np.int64)
    for j in range(inner):
        yield table, rows[j]
        if j + 1 < k:
            multiples = fld.mul(scalars, rows[j])
            table = fld.add(multiples, table).reshape(-1, n)
    if inner < k:
        for T, u in _projective_codewords(fld, rows[inner:]):
            for v in fld.sub(T, u):
                yield table, v


def min_distance(G: GfMatrix, budget: int = DEFAULT_BUDGET) -> int:
    """Projective oracle: the minimum Hamming weight over all nonzero
    codewords of the rows of G.

    Every nonzero codeword is a nonzero scalar times one whose message has
    last nonzero coordinate 1, so only (q^K - 1)/(q - 1) codewords t - v
    are weighed, each by comparing a span-table row t with an offset v.
    Raises BudgetExceeded when q^K > budget.  Dependent rows give 0, the
    weight of the zero codeword they produce.
    """
    fld = G.field
    q, K = fld.q, G.rows
    total = q ** K
    if total > budget:
        raise BudgetExceeded(f"{total} codewords exceed budget {budget}")
    if K == 0:
        raise ZeroIdempotent("zero code has no nonzero codewords")
    best = G.cols
    for T, v in _projective_codewords(fld, G.array):
        best = min(best, int(np.count_nonzero(T != v, axis=1).min()))
        if best <= 1:
            # weight 1 ends the search unless dependent rows still hold
            # a zero codeword further on
            return 0 if best == 0 or rank(G) < K else 1
    return best


def exhaustive_weight_distribution(G: GfMatrix) -> list:
    """Oracle: A[w], the number of the q^K codewords of the rows of G with
    weight w, by forming every one of them."""
    fld = G.field
    q, K = fld.q, G.rows
    A = [0] * (G.cols + 1)
    idx = np.arange(q ** K, dtype=np.int64)
    msgs = np.stack([(idx // q ** t) % q for t in range(K)], axis=1)
    weights = np.count_nonzero(np.asarray(fld.dot(msgs, G.array)), axis=1)
    for w, c in enumerate(np.bincount(weights, minlength=G.cols + 1).tolist()):
        A[w] += c
    return A


def macwilliams_transform(A, q: int) -> list:
    """The weight distribution of the dual code, from A by the MacWilliams
    identity: B_w = |C|^-1 sum_i A_i P_w(i), with the Krawtchouk
    polynomial P_w(i) = sum_j (-1)^j (q-1)^(w-j) C(i, j) C(n-i, w-j)."""
    n = len(A) - 1
    size = sum(A)
    B = []
    for w in range(n + 1):
        total = sum(
            a * sum((-1) ** j * (q - 1) ** (w - j) * math.comb(i, j)
                    * math.comb(n - i, w - j) for j in range(w + 1))
            for i, a in enumerate(A) if a)
        if total % size:
            raise ValueError(f"B_{w} = {total}/{size} is not an integer")
        B.append(total // size)
    return B


def dual_defining_set(ring, S) -> list:
    """{j : -j not in S}, the defining set of the dual code."""
    neg = {tuple(-i % n for i, n in zip(j, ring.lengths)) for j in S}
    return [j for j in ring.monomials if j not in neg]


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


class DimensionMismatch(MulticyclicError):
    """A vector whose length is not the width of the matrix it meets."""


class RowReducer:
    """Oracle: incremental rank builder keeping rows in reduced echelon
    state."""

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.rows = []     # reduced, pivot-normalized rows
        self.pivots = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, v) -> bool:
        """Reduce v against the current rows; keep it if independent."""
        fld = self.field
        v = np.asarray(v, dtype=np.int64).copy()
        for row, pc in zip(self.rows, self.pivots):
            if v[pc]:
                v = np.asarray(fld.sub(v, fld.mul(int(v[pc]), row)))
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        pc = int(nz[0])
        v = np.asarray(fld.mul(fld.inv(int(v[pc])), v))
        for i, row in enumerate(self.rows):
            if row[pc]:
                self.rows[i] = np.asarray(fld.sub(row, fld.mul(int(row[pc]), v)))
        self.rows.append(v)
        self.pivots.append(pc)
        return True


def in_span(v, basis: GfMatrix):
    """Oracle: coefficients alpha with v = sum alpha_i * row_i, or None,
    by reducing the augmented system basis^T * alpha = v."""
    fld = basis.field
    v = np.asarray(v, dtype=np.int64)
    if basis.rows == 0:
        return np.zeros(0, dtype=np.int64) if not v.any() else None
    if v.shape != (basis.cols,):
        raise DimensionMismatch(
            f"vector length {v.shape} incompatible with {basis.cols} columns")
    aug = GfMatrix(fld, np.hstack([basis.array.T, v[:, None]]))
    R, _, pivots = rref(aug)
    k = basis.rows
    if k in pivots:
        return None
    alpha = np.zeros(k, dtype=np.int64)
    for r, c in enumerate(pivots):
        alpha[c] = R.array[r, k]
    return alpha


def evaluate(f, point) -> int:
    """Oracle: f at a point of F_q^r, Horner-style along each axis."""
    if len(point) != f.ring.r:
        raise ArityMismatch(f"expected {f.ring.r} coordinates, got {len(point)}")
    fld = f.ring.field
    arr = f.coeffs
    for x in reversed(list(point)):
        acc = arr[..., -1]
        for k in range(arr.shape[-1] - 2, -1, -1):
            acc = fld.add(fld.mul(acc, x), arr[..., k])
        arr = acc
    return int(arr)


def k_profile(e: Poly) -> tuple:
    """Spectral oracle: per-axis minimal k with X_t^k e dependent on lower
    shifts of e.

    X_t multiplies the spectrum of e at j by w_t^(j_t), so the shifts of e
    along axis t form a Vandermonde system with one node per distinct t-th
    coordinate of the spectral support: k_t is the number of those
    coordinates.  For a generating idempotent the support is the defining
    set S, so k_t = |proj_t(S)|."""
    if e.is_zero():
        raise ZeroIdempotent("k profile of the zero element is undefined")
    support = fourier(e).support()
    return tuple(len({j[t] for j in support}) for t in range(e.ring.r))


def rank_scan_k_profile(e):
    """Independent oracle: per axis, the first k with X_t^k e in the span
    of e, X_t e, ..., X_t^(k-1) e, found by solving for the coefficients
    on the coefficient vectors themselves, with no transform."""
    if e.is_zero():
        raise ZeroIdempotent("k profile of the zero element is undefined")
    ring = e.ring
    out = []
    for t in range(ring.r):
        rows = [e.vector()]
        k = ring.lengths[t]
        for m in range(1, ring.lengths[t]):
            v = e.translate(one_hot(ring, t, m)).vector()
            if in_span(v, GfMatrix(ring.field, np.stack(rows))) is not None:
                k = m
                break
            rows.append(v)
        out.append(k)
    return tuple(out)


def scan_build_basis(e, K: int, kp: tuple):
    """Oracle: basis polynomials for <e>, the monomial multiples of e that
    raise the rank, scanned in the ring's monomial order.

    X^m e with some m_t >= k_t depends on multiples of lower degree, so the
    scan only picks exponents inside the box m_t < k_t; it picks the whole
    box, in the same order, exactly when prod(k_t) = K, i.e. when the
    defining set is the product of its projections."""
    ring = e.ring
    polys = []
    red = RowReducer(ring.field, ring.N)
    for m in ring.monomials:
        cand = e.translate(m)
        if red.add(cand.vector()):
            polys.append(cand)
        if red.rank == K:
            return polys, BASIS_BOX if math.prod(kp) == K else BASIS_GREEDY
    raise RankDeficient(
        f"monomial multiples of e span rank {red.rank}, expected {K}")


def two_branch_build_basis(e, K, kp):
    """Oracle: the box basis {X^m e : m_t < k_t} in graded-lex order when
    prod(k_t) = K, otherwise a greedy rank-building scan of the monomial
    multiples of e."""
    ring = e.ring
    fld = ring.field
    if math.prod(kp) == K:
        exps = sorted(
            (tuple(m) for m in np.ndindex(*kp)),
            key=lambda m: (sum(m), tuple(-x for x in m)))
        polys = [e.translate(m) for m in exps]
        red = RowReducer(fld, ring.N)
        for p in polys:
            red.add(p.vector())
        if red.rank != K:
            raise RankDeficient(
                f"box basis has rank {red.rank}, expected {K}")
        return polys, BASIS_BOX
    polys = []
    red = RowReducer(fld, ring.N)
    for m in ring.monomials:
        cand = e.translate(m)
        if red.add(cand.vector()):
            polys.append(cand)
        if red.rank == K:
            return polys, BASIS_GREEDY
    raise RankDeficient(
        f"monomial multiples of e span rank {red.rank}, expected {K}")


def rolled_build_basis(e, S, kp: tuple):
    """Oracle: basis polynomials for <e>, e the idempotent of the defining
    set S, as shifted copies of e: one `Poly.translate` of e per pivot
    column of the rref of the K x N character matrix w^(j.m), columns in
    monomial order, formed as the product over axes of the forward axis
    tables w_t^(j_t m_t)."""
    ring = e.ring
    K = len(S)
    chars = np.ones((K, 1), dtype=np.int64)
    for t, (table, _) in enumerate(ring._axis_tables):
        axis = table[[j[t] for j in sorted(S)]]
        chars = ring.field.mul(chars[:, :, None], axis[:, None, :])
        chars = chars.reshape(K, -1)
    _, rk, pivots = rref(GfMatrix(ring.field, chars[:, ring._gather]))
    if rk < K:
        raise RankDeficient(
            f"monomial multiples of e span rank {rk}, expected {K}")
    basis = [e.translate(ring.monomials[c]) for c in pivots]
    return basis, BASIS_BOX if math.prod(kp) == K else BASIS_GREEDY


def generator_matrix(basis, ring) -> GfMatrix:
    """Oracle: rows are basis-polynomial coefficient vectors in monomial
    order."""
    rows = np.array([p.vector() for p in basis], dtype=np.int64)
    return GfMatrix(ring.field, rows.reshape(-1, ring.N))


def table_build_basis(ring, S, kp: tuple):
    """`codes.build_basis` on the idempotent table of S, formed as
    `construct` forms it, as a stack of one."""
    E = codes._idempotent_rows(ring, np.array([sorted(S)]))
    return codes.build_basis(ring, [kp], E)[0]


def translation_key(S, lengths) -> tuple:
    """Oracle: the least translate of S, sorted, coordinates mod n_t.  It
    puts some s in S at the origin, so the K translates S - s are enough."""
    return min(tuple(sorted(tuple((i - j) % n for i, j, n in zip(x, s, lengths))
                            for x in S)) for s in S)


def monomial_automorphisms(lengths):
    """Oracle: every monomial automorphism of the index group, as a
    function on index tuples: j -> (u_t j_pi(t) mod n_t)_t for a
    permutation pi of the axes that keeps every length and units u_t of
    Z_{n_t}, found by trying every permutation and every residue."""
    r = len(lengths)
    perms = [pi for pi in itertools.permutations(range(r))
             if [lengths[i] for i in pi] == list(lengths)]
    units = itertools.product(*([u for u in range(n) if math.gcd(u, n) == 1]
                                for n in lengths))
    return [functools.partial(_apply_automorphism, pi, u, lengths)
            for pi, u in itertools.product(perms, units)]


def _apply_automorphism(pi, u, lengths, idx):
    return tuple(idx[i] * c % n for i, c, n in zip(pi, u, lengths))


def monomial_key(S, lengths) -> tuple:
    """Oracle: the least `translation_key` over the images of S under
    every monomial automorphism."""
    return min(translation_key([A(x) for x in S], lengths)
               for A in monomial_automorphisms(lengths))


def unique_rows(keys):
    """Oracle: (first, inverse) of the distinct rows of a (C, K) array, from
    np.unique, which sorts the rows as whole records."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                  return_inverse=True)
    return first, inverse.reshape(-1)


def _search_candidates(ring, K_target, budget, seed):
    """(orbits, selections): the candidates `codes.search` ranks, as
    tuples of orbit positions in the lexicographic order of S."""
    if not 1 <= K_target <= ring.N:
        raise Infeasible(f"K = {K_target} outside [1, {ring.N}]")
    # n_t | q-1 makes every orbit a singleton, so the candidates are the
    # K_target-subsets of the orbits
    orbs = orb_mod.all_orbits(ring.lengths, ring.field.q)
    total = math.comb(len(orbs), K_target)
    q = ring.field.q
    if q ** K_target > budget:
        raise BudgetExceeded(
            f"{q ** K_target} codewords exceed budget {budget}: "
            "candidates cannot be ranked")
    if total <= codes.EXHAUSTIVE_LIMIT:
        return orbs, list(itertools.combinations(range(len(orbs)), K_target))
    rng = random.Random(seed)
    selections = set()
    while len(selections) < min(codes.SAMPLES, total):
        selections.add(tuple(sorted(rng.sample(range(len(orbs)), K_target))))
    return orbs, sorted(selections)


def construct_every_candidate_search(ring, K_target, budget=DEFAULT_BUDGET,
                                     seed=0):
    """Oracle: the same candidates as `codes.search`, each one built and
    measured by `construct`, ranked by d descending and then by the
    lexicographically smallest defining set."""
    orbs, selections = _search_candidates(ring, K_target, budget, seed)
    records = []
    for sel in selections:
        seeds = [orbs[i].representative for i in sel]
        records.append(construct(ring, seeds, budget=budget))
    records.sort(key=lambda r: (-r.d, r.defining_set))
    return records


def translation_class_search(ring, K_target, budget=DEFAULT_BUDGET, seed=0):
    """Oracle: the same candidates as `codes.search`, grouped by
    translation class alone: every candidate keyed by
    `codes.translation_keys` and grouped by `codes.group_rows`, and every
    class weighed by `codes.class_distances`.  Ranked by d descending and
    then by the lexicographically smallest defining set, as SearchRows."""
    orbs, selections = _search_candidates(ring, K_target, budget, seed)
    reps = [o.representative for o in orbs]
    sel = np.array(selections, dtype=np.int64).reshape(-1, K_target)
    coords = np.array(reps, dtype=np.int64)
    first, inverse = codes.group_rows(
        codes.translation_keys(coords[sel], ring.lengths))
    d = codes.class_distances(ring, coords[sel[first]])[inverse]
    order = np.argsort(-d, kind="stable")
    return [SearchRow(tuple(reps[i] for i in sel[c]), K_target, int(d[c]))
            for c in order.tolist()]
