"""Multicyclic code construction: the generating idempotent (the sum of
the rows of one K x N table E of the primitive idempotents of the
defining set S), shift-degree profile (k_t = |proj_t(S)|), polynomial
basis and generator matrix (the monomial multiples of e at the pivot
columns of E at the negated exponents, since E[k, -m] = w^(j_k.m) / N,
one field product of those characters with E), exact minimum distance
and the product bound, built for a stack of defining sets of one size
in one pass (`construct` builds the stack of one), plus
exhaustive/sampled search over the K-subsets of the N C-order flat
indices of the index box, which groups its candidates into classes of
translations and monomial automorphisms, weighs one code per class in
one batched pass over the primitive idempotents of each defining set,
and returns a read-only sequence that forms each ranked row when it is
read.

The exact distance of `construct` weighs one codeword per orbit of the
translations and scalars, which act diagonally on messages over the
primitive idempotents {e_j : j in S}: per message support, the orbits
are the cosets of a lattice of discrete logs, and the box under the
diagonal of its Hermite normal form is a transversal.  One pass weighs
the orbits of every set of a stack.  The orbit sizes give the weight
distribution too.  A set that is the product of its projections (basis
kind box) spans the tensor product of its per-axis cyclic codes, whose
d is the product of theirs: `construct` weighs the orbits of each axis
code, not of the K-dimensional one.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    BoundViolated,
    BudgetExceeded,
    Infeasible,
    RankDeficient,
    RingTooLarge,
    ZeroIdempotent,
)
from .linalg import GfMatrix, pivot_columns, rank
from .orbits import closure
from .ring import TABLE_LIMIT, Poly, Ring

DEFAULT_BUDGET = 3_000_000
# search ranks every candidate up to EXHAUSTIVE_LIMIT, else SAMPLES.
EXHAUSTIVE_LIMIT = 100_000
SAMPLES = 10_000
# Codeword entries weighed at once by class_distances (classes x messages
# x N) and by _orbit_blocks (representatives x N): 128 KB of int64.  On a
# 2-core Xeon the sampled 16x16 / GF(17), K = 3 search took 6.0 s with
# 2^14 blocks, 8.2 s with 2^15 and 9.5 s with 2^16 (2^13 was no faster),
# and blocks of TABLE_LIMIT raised the benchmark's search peak RSS by 11%.
CLASS_BLOCK = 1 << 14

BASIS_BOX = "box"
BASIS_GREEDY = "greedy"


@dataclass
class CodeRecord:
    ring: Ring
    defining_set: tuple
    idempotent: Poly
    n: int
    K: int
    generator: GfMatrix
    k_profile: Optional[tuple] = None
    basis_kind: Optional[str] = None
    d: Optional[int] = None
    product_bound: Optional[int] = None
    bound_applicable: Optional[bool] = None
    singleton_bound: Optional[int] = None

    def params(self) -> str:
        d = self.d if self.d is not None else "?"
        return f"[{self.n}, {self.K}, {d}]_{self.ring.field.q}"


def build_basis(ring: Ring, kps, E) -> list:
    """(G, kind) for each code of the (C, K, N) stack E of idempotent
    tables (`_idempotent_rows`, each in C order): the generator matrix
    whose rows are the monomial multiples of e that raise the rank, in
    monomial order, and its basis kind; kps[c] = (|proj_t(S)|)_t of the
    set of E[c].

    X^m e = sum_{j in S} w^(j.m) e_j, and E[c, k, -m] = w^(j_k.m) / N, so
    the basis exponents are the `pivot_columns` of E[c] at the negated
    exponents, columns in monomial order (a nonzero scale keeps the
    pivots), each set eliminated on its own, and the rows of every code
    are one batched field product of the pivot characters N E[c, :, -m]
    with E.  X^m e with some m_t >= k_t depends on multiples of lower
    degree, so the pivots lie inside the box m_t < k_t; they are the
    whole box, in the same order, exactly when prod(k_t) = K, i.e. when
    the defining set is the product of its projections."""
    fld = ring.field
    C, K, _ = E.shape
    # each box lies in the monomials of degree <= sum(k_t - 1), a prefix of
    # the order, and a column's pivot status depends only on earlier ones
    widths = np.searchsorted(ring._degree, [sum(kp) - ring.r for kp in kps],
                             side="right").tolist()
    exps = np.unravel_index(ring._gather[:max(widths)], ring.lengths)
    neg = np.ravel_multi_index(np.negative(exps), ring.lengths, mode="wrap")
    chars = np.empty((C, K, K), dtype=np.int64)
    for c, width in enumerate(widths):
        pivots = pivot_columns(GfMatrix(fld, E[c][:, neg[:width]]))
        if len(pivots) < K:
            raise RankDeficient(
                f"monomial multiples of e span rank {len(pivots)}, expected {K}")
        chars[c] = E[c][:, neg[pivots]]
    chars = fld.mul(ring.N % fld.p, chars)
    # the product is freed once gathered, before each G copies its slice
    G = fld.dot(chars.transpose(0, 2, 1), E)[..., ring._gather]
    return [(GfMatrix(fld, g), BASIS_BOX if math.prod(kp) == K else BASIS_GREEDY)
            for g, kp in zip(G, kps)]


def _idempotent_rows(ring: Ring, sets) -> np.ndarray:
    """rows[c, k, m] = prod_t n_t^-1 w_t^(-j_t m_t), j = sets[c, k], for
    (C, K, r) index coordinates: the coefficients of the primitive
    idempotent e_j, the outer product of the rows of the per-axis inverse
    tables, each axis appended as the last (fastest) one, so the N
    exponents m come in C order.  Raises RingTooLarge, allocating
    nothing, when one K x N table would exceed TABLE_LIMIT elements."""
    K, N = sets.shape[1], ring.N
    if K * N > TABLE_LIMIT:
        raise RingTooLarge(f"K x N = {K} x {N} = {K * N} idempotent "
                           f"coefficients exceeds the limit {TABLE_LIMIT}")
    fld = ring.field
    rows = np.ones(sets.shape[:2] + (1,), dtype=np.int64)
    for t, (_, table) in enumerate(ring._axis_tables):
        rows = fld.mul(rows[..., None], table[sets[:, :, t], None, :])
        rows = rows.reshape(len(sets), sets.shape[1], -1)
    return rows


def _egcd(a: int, b: int):
    """(g, u, v) with u a + v b = g = gcd(a, b)."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        quot, a, b = a // b, b, a % b
        u0, u1 = u1, u0 - quot * u1
        v0, v1 = v1, v0 - quot * v1
    return a, u0, v0


def _reduce_column(rows, i: int, M: int):
    """One column step of the Hermite normal form of the lattice spanned
    by `rows` (lists of residues mod M) and M Z^k: (h_i, rows spanning its
    vectors that vanish on column i and on the columns reduced before).
    Over the reduced columns, the box 0 <= x_i < h_i is a transversal of
    the lattice's cosets (H. Cohen, A Course in Computational Algebraic
    Number Theory, 2.4).

    Unimodular extended-gcd steps fold the rows with a nonzero entry
    into one pivot row; with M e_i it gives h_i = gcd(pivot_i, M) and the
    lattice vector (M / h_i) pivot, zero in column i.  The pivot row is
    then set aside."""
    pivot = None
    rest = []
    for row in rows:
        a = row[i]
        if not a:
            rest.append(row)
        elif pivot is None:
            pivot = row
        else:
            b = pivot[i]
            g, u, v = _egcd(b, a)
            # the unimodular [[u, v], [a/g, -b/g]] on (pivot, row)
            pivot, row = ([(u * x + v * y) % M for x, y in zip(pivot, row)],
                          [(a // g * x - b // g * y) % M for x, y in zip(pivot, row)])
            rest.append(row)
    if pivot is None:
        return M, rest
    h = math.gcd(pivot[i], M)
    rest.append([M // h * x % M for x in pivot])
    return h, [row for row in rest if any(row)]


def _orbit_boxes(ring: Ring, S):
    """(U, h) for every nonempty support U of a message over {e_j : j in
    S} (positions in S, increasing): the messages with support exactly U
    fall into prod(h) orbits of the translations and scalars, one per
    point of the box 0 <= x_i < h_i of discrete logs.

    A translation by one along axis t multiplies e_j by w_t^(j_t), that
    is, adds j_t (q-1)/n_t to the log of its coefficient, and a scalar
    adds the same to every log.  The all-ones vector gives h = 1 on U[0]
    and leaves the translation vectors minus their value there, with
    (q-1) Z^U.  Row operations commute with dropping the coordinates
    outside U, so the rows keep all of S, and U + (i,) reduces column i
    of the rows U leaves: one column per support, depth first."""
    M = ring.field.q - 1
    K = len(S)
    steps = [[j[t] * (M // n) for j in S] for t, n in enumerate(ring.lengths)]
    stack = []
    for u in reversed(range(K)):
        rows = [[(x - a[u]) % M for x in a] for a in steps]
        stack.append(((u,), [1], [row for row in rows if any(row)]))
    while stack:
        U, h, rows = stack.pop()
        yield U, h
        for i in reversed(range(U[-1] + 1, K)):
            hi, rest = _reduce_column(rows, i, M)
            stack.append((U + (i,), h + [hi], rest))


def _orbit_blocks(ring: Ring, sets, E):
    """Weigh one codeword per orbit of the translations and scalars on
    the nonzero messages over {e_j : j in S}, for each of the C sets S of
    one size K, whose coefficients are the rows of the (C, K, N) stack E,
    each in the order of its set, in blocks of at most CLASS_BLOCK
    codeword entries (one codeword if N is larger); yield (weights, own,
    support, sizes) per block, where own[i] is the set of representative
    i and support[i] indexes sizes, the orbit size (q-1)^|U| / prod(h) of
    each support in the chunk.

    The supports of all the sets, set by set, come in chunks of
    CLASS_BLOCK // K, and their representatives are decoded per block
    from one running index.  A block of one set reads that set's logs as
    one row broadcast over its representatives; only a block shared by
    several sets gathers the logs of each representative's set.  The
    codeword of logs x is sum_j g^(x_j) e_j, formed in the log domain:
    exp[x_j + log e_j(m)] from the field's doubled exp table needs no
    modulo, and an absent coordinate reads x_j = log 0 = 2(q-1), past
    which the table holds zeros; the first 3(q-1) entries hold every
    index.  In characteristic 2 the terms are XORed; otherwise their
    base-p digits are summed and a coordinate is zero when every digit
    sum is 0 mod p."""
    fld = ring.field
    p, M, N = fld.p, fld.q - 1, ring.N
    K = E.shape[1]
    logs = fld._log[E]
    table = fld._exp[:3 * M]
    if p > 2:
        table = table // p ** np.arange(fld.m)[:, None] % p
    rows_per_block = max(1, CLASS_BLOCK // N)
    boxes = ((c, U, h) for c, S in enumerate(sets) for U, h in _orbit_boxes(ring, S))
    while chunk := list(itertools.islice(boxes, max(1, CLASS_BLOCK // K))):
        counts = [math.prod(h) for _, _, h in chunk]
        total = sum(counts)
        if total >= 1 << 63:
            raise BudgetExceeded(
                f"{total} orbit representatives overflow a 64-bit index")
        sizes = [M ** len(U) // c for (_, U, _), c in zip(chunk, counts)]
        owner = np.array([c for c, _, _ in chunk], dtype=np.int64)
        # per support and coordinate: radix, stride (the last coordinate
        # fastest) and the offset log 0 of an absent coordinate
        radix = []
        for (_, U, h), stride in zip(chunk, counts):
            box = [1] * (2 * K) + [int(fld._log[0])] * K
            for i, hi in zip(U, h):
                stride //= hi
                box[i], box[K + i], box[2 * K + i] = hi, stride, 0
            radix += box
        radix = np.array(radix, dtype=np.int64).reshape(-1, 3, K)
        counts = np.array(counts, dtype=np.int64)
        starts = np.cumsum(counts) - counts
        for lo in range(0, total, rows_per_block):
            idx = np.arange(lo, min(lo + rows_per_block, total))
            support = np.searchsorted(starts, idx, side="right") - 1
            own = owner[support]
            # the owners rise with the index, so the block has one set
            # exactly when its first and last representatives share it
            of = own[0] if own[0] == own[-1] else own
            h, stride, absent = radix[support].transpose(1, 0, 2)
            X = (idx - starts[support])[:, None] // stride % h + absent
            acc = np.take(table, X[:, 0, None] + logs[of, 0], axis=-1)
            for j in range(1, K):
                term = np.take(table, X[:, j, None] + logs[of, j], axis=-1)
                if p == 2:
                    acc ^= term
                else:
                    acc += term
            nonzero = acc != 0 if p == 2 else (acc % p != 0).any(axis=0)
            yield np.count_nonzero(nonzero, axis=1), own, support, sizes


def orbit_distance(ring: Ring, S) -> int:
    """Exact minimum distance of the code of closure(S), as `construct`
    takes it, from one codeword per orbit of the translations and scalars
    (see `_orbit_blocks`): weight is constant on an orbit."""
    S = closure(S, ring.lengths, ring.field.q)
    if not S:
        raise ZeroIdempotent("zero code has no nonzero codewords")
    return int(_orbit_distance(ring, [S], _idempotent_rows(ring, np.array([S])))[0])


def _orbit_distance(ring: Ring, sets, E) -> np.ndarray:
    """`orbit_distance` of each of the C sets, given their (C, K, N)
    stack E, in one pass (`_orbit_blocks`)."""
    d = np.full(len(sets), ring.N)
    for weights, own, _, _ in _orbit_blocks(ring, sets, E):
        np.minimum.at(d, own, weights)
    return d


def _tensor_distance(ring: Ring, S, memo: dict) -> int:
    """Exact minimum distance of the code of a set S that is the product
    of its projections P_t = proj_t(S): that code is the tensor product
    C_1 x ... x C_r of the cyclic codes of length n_t spanned by the
    univariate idempotents at P_t, and its d is prod_t d(C_t)
    (MacWilliams-Sloane, ch. 18, sec. 2).  Each d(C_t) is `_orbit_distance`
    on the one-axis ring of length n_t, whose idempotent rows are the P_t
    rows of the inverse axis table (the root of unity is a function of
    the field and n_t); memo holds it per (n_t, P_t).  A code of one
    primitive idempotent, whose coefficients n_t^-1 w^(-jm) are all
    nonzero, has d(C_t) = n_t and takes no pass."""
    d = 1
    for t, (n, (_, inv)) in enumerate(zip(ring.lengths, ring._axis_tables)):
        P = tuple(sorted({j[t] for j in S}))
        if len(P) == 1:
            d *= n
            continue
        if (n, P) not in memo:
            axis = Ring(ring.field, (n,))
            memo[n, P] = int(_orbit_distance(axis, [[(j,) for j in P]],
                                             inv[list(P)][None])[0])
        d *= memo[n, P]
    return d


def weight_distribution(ring: Ring, S) -> list:
    """A[w], the number of codewords of weight w in the code of closure(S),
    for w = 0..N: each orbit representative of weight w counts its orbit."""
    N = ring.N
    A = [1] + [0] * N
    S = closure(S, ring.lengths, ring.field.q)
    if not S:
        return A
    E = _idempotent_rows(ring, np.array([S]))
    for weights, _, support, sizes in _orbit_blocks(ring, [S], E):
        counts = np.bincount(support * (N + 1) + weights)
        for i in np.flatnonzero(counts).tolist():
            s, w = divmod(i, N + 1)
            A[w] += int(counts[i]) * sizes[s]
    return A


def product_bound(lengths, kp) -> int:
    return math.prod(n - k + 1 for n, k in zip(lengths, kp))


def _is_cyclic_interval(values, n) -> bool:
    vals = set(values)
    if len(vals) in (0, n):
        return True
    return any(all((s + i) % n in vals for i in range(len(vals))) for s in vals)


def bound_applicable(S, lengths, kp) -> bool:
    """The product bound is guaranteed only when the defining set is a
    Cartesian product of per-axis cyclic intervals (so the code is a
    tensor product of MDS-like univariate codes).  The weaker condition
    prod(k_t) = K admits counterexamples, e.g. S = {0, 4} at length 8
    over a field with an 8th root of unity.  kp is the k profile of the
    idempotent of S, so k_t = |proj_t(S)| and S is the product of its
    projections exactly when prod(k_t) = |S|."""
    if math.prod(kp) != len(S):
        return False
    proj = [{idx[t] for idx in S} for t in range(len(lengths))]
    return all(_is_cyclic_interval(a, n) for a, n in zip(proj, lengths))


def construct(ring: Ring, seeds, budget: int = DEFAULT_BUDGET) -> CodeRecord:
    """Full pipeline: close the seeds under the Frobenius action into the
    defining set S and build its record, the stack of one of
    `_construct_sets`."""
    S = closure(seeds, ring.lengths, ring.field.q)
    return _construct_sets(ring, [S], budget)[0]


def _construct_sets(ring: Ring, sets, budget: int) -> list:
    """The CodeRecord of each of the closed defining sets, all of one size
    K.  Per set S, the one K x N table E of the primitive idempotents e_j,
    j in S (`_idempotent_rows`) gives everything else: the generating
    idempotent e = sum_j e_j, the k profile k_t = |proj_t(S)|, the
    generator matrix (`build_basis`, from the characters
    w^(j.m) = N E[k, -m]) and, when q^K fits the budget, the exact
    distance: prod_t d(C_t) of its per-axis codes when S is the product
    of its projections, prod(k_t) = K, i.e. basis kind box
    (`_tensor_distance`, each d(C_t) once per call), else
    `_orbit_distance` on the same table E.

    The sets go in chunks of at most CLASS_BLOCK K x N entries (one set
    if its table is larger): per chunk one stack of tables, one field
    product for every e, one for every generator and one orbit pass over
    the rows of the sets that are not products.  Every check raises per
    set: the pivots of each basis and the rank of each generator, and d
    against the Singleton bound and, where it applies, the product
    bound."""
    fld, n = ring.field, ring.N
    K = len(sets[0]) if sets else 0
    if K == 0:
        return [CodeRecord(ring=ring, defining_set=S, idempotent=ring.zero(), n=n,
                           K=0, generator=GfMatrix(fld, np.zeros((0, n))))
                for S in sets]
    sb = n - K + 1
    step = max(1, CLASS_BLOCK // (K * n))
    axis_ds = {}
    records = []
    for lo in range(0, len(sets), step):
        chunk = sets[lo:lo + step]
        E = _idempotent_rows(ring, np.array(chunk, dtype=np.int64))
        es = fld.dot(np.ones(K, dtype=np.int64), E).reshape((-1,) + ring.lengths)
        kps = [tuple(len(set(axis)) for axis in zip(*S)) for S in chunk]
        bases = build_basis(ring, kps, E)
        for G, _ in bases:
            if rank(G) != K:
                raise RankDeficient("generator matrix rank disagrees with |S|")
        ds = [None] * len(chunk)
        if fld.q ** K <= budget:
            ds = [_tensor_distance(ring, S, axis_ds) if kind == BASIS_BOX else None
                  for S, (_, kind) in zip(chunk, bases)]
            rest = [c for c, d in enumerate(ds) if d is None]
            if rest:
                # a chunk of one set's table may hold TABLE_LIMIT entries:
                # copy rows only when some set took the tensor route
                sub = E if len(rest) == len(chunk) else E[rest]
                rest_ds = _orbit_distance(ring, [chunk[c] for c in rest], sub)
                for c, d in zip(rest, rest_ds):
                    ds[c] = int(d)
        for S, e, kp, (G, kind), d in zip(chunk, es, kps, bases, ds):
            pb = product_bound(ring.lengths, kp)
            applicable = bound_applicable(S, ring.lengths, kp)
            if d is not None and d > sb:
                raise BoundViolated(f"d = {d} exceeds the Singleton bound {sb}")
            if d is not None and applicable and d < pb:
                raise BoundViolated(f"d = {d} is below the product bound {pb}")
            records.append(CodeRecord(
                ring=ring, defining_set=S, idempotent=Poly(ring, e), n=n, K=K,
                k_profile=kp, basis_kind=kind, generator=G, d=d,
                product_bound=pb, bound_applicable=applicable,
                singleton_bound=sb))
    return records


def literal_monomial_sum(ring: Ring, seeds) -> Poly:
    """Diagnostic only: the sum of monomials X^i over the closure of the
    seeds, with coefficient 1 (a literal reading of the construction
    recipe that is generally not idempotent)."""
    values = np.zeros(ring.lengths, dtype=np.int64)
    for idx in closure(seeds, ring.lengths, ring.field.q):
        values[idx] = 1
    return Poly(ring, values)


# -- search over orbit selections ------------------------------------------

@dataclass(frozen=True)
class SearchRow:
    defining_set: tuple
    K: int
    d: int


class _RankedRows(Sequence):
    """The ranked candidates of `search`, read-only: row i is formed as a
    SearchRow from its C-order flat indices into the index box only when
    it is read, and a slice gives a list of rows.  Iteration ends at the
    IndexError numpy raises past the end."""

    def __init__(self, lengths, sel, d, K):
        # the index tuples in C order: one lookup per member of a row
        self._box = list(itertools.product(*map(range, lengths)))
        self._sel, self._d, self._K = sel, d, K

    def __len__(self) -> int:
        return len(self._d)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(row, dist) for row, dist in
                    zip(self._sel[i].tolist(), self._d[i].tolist())]
        return self._row(self._sel[i].tolist(), self._d[i].item())

    def _row(self, row, dist) -> SearchRow:
        return SearchRow(tuple(map(self._box.__getitem__, row)), self._K, dist)


def _keep_least(best, rows) -> None:
    """Keep in each row of best the lexicographically lesser of it and the
    same row of rows, decided at the first position where the two differ."""
    at = np.arange(len(best))
    first = (rows != best).argmax(axis=1)
    less = rows[at, first] < best[at, first]
    best[less] = rows[less]


def _anchored(coords, s: int, lengths) -> np.ndarray:
    """Each candidate translated so that its member s sits at the origin,
    as sorted C-order flat indices; coords holds the r contiguous (C, K)
    per-axis coordinate arrays."""
    flat = np.zeros(coords[0].shape, dtype=np.int64)
    for t, coord in enumerate(coords):
        flat += (coord - coord[:, s:s + 1]) % lengths[t] * math.prod(lengths[t + 1:])
    flat.sort(axis=1)
    return flat


def translation_keys(cands, lengths) -> np.ndarray:
    """Row-wise least translate of each candidate, as sorted C-order flat
    indices: (C, K, r) coordinates give (C, K) keys, equal exactly when
    two candidates are translates of each other.  Each least translate
    puts some member at the origin, so the K translates S - s are enough
    (`_anchored`); they are formed one at a time and each row keeps the
    lexicographically least, in O(C K r) memory."""
    coords = [np.ascontiguousarray(cands[:, :, t]) for t in range(cands.shape[2])]
    best = _anchored(coords, 0, lengths)
    for s in range(1, cands.shape[1]):
        _keep_least(best, _anchored(coords, s, lengths))
    return best


def _automorphisms(lengths):
    """(count, elements) of the monomial automorphisms of the index group
    Z_{n_1} x ... x Z_{n_r}: a permutation of axes of equal length, then
    a unit of Z_{n_t} on each axis.  The elements come lazily as (perm,
    units) pairs; image t of a point j is j[perm[t]] units[t] mod n_t."""
    units = [[u for u in range(n) if math.gcd(u, n) == 1] for n in lengths]
    count = math.prod(map(len, units))
    for n in set(lengths):
        count *= math.factorial(lengths.count(n))
    perms = (p for p in itertools.permutations(range(len(lengths)))
             if all(lengths[i] == n for i, n in zip(p, lengths)))
    # itertools.product would list every permutation at once
    return count, ((p, u) for p in perms for u in itertools.product(*units))


def monomial_keys(cands, lengths) -> np.ndarray:
    """The least `translation_keys` row over the images of each candidate
    under the monomial automorphisms (`_automorphisms`): (C, K, r)
    coordinates give (C, K) keys, equal exactly when two candidates are
    equivalent under translations and automorphisms.  An automorphism
    permutes the monomials and maps the code of S to that of its image,
    an equivalent code.  The images are keyed a chunk of group elements
    at a time, at most CLASS_BLOCK index entries per chunk, and each row
    keeps a running least, in O(C K r) memory whatever the group size."""
    C, K, r = cands.shape
    _, elements = _automorphisms(lengths)
    best = None
    while chunk := list(itertools.islice(elements, max(1, CLASS_BLOCK // (C * K)))):
        perm = np.array([p for p, _ in chunk], dtype=np.int64)
        units = np.array([u for _, u in chunk], dtype=np.int64)
        # images[g, c, k, t] = cands[c, k, perm[g, t]] units[g, t] mod n_t
        images = (cands[:, :, perm] * units % lengths).transpose(2, 0, 1, 3)
        keys = translation_keys(images.reshape(-1, K, r), lengths)
        for rows in keys.reshape(len(chunk), C, K):
            if best is None:
                best = rows.copy()
            else:
                _keep_least(best, rows)
    return best


def group_rows(keys):
    """(first, inverse) of the distinct rows of a (C, K) integer array, as
    np.unique(keys, axis=0, return_index=True, return_inverse=True) gives
    them: one stable np.lexsort (last key primary, so the columns go in
    reversed) sorts the rows, each run of equal rows is a class, and its
    first entry is the class's least row index."""
    by_key = np.lexsort(keys.T[::-1])
    ordered = keys[by_key]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[by_key] = np.cumsum(starts) - 1
    return by_key[starts], inverse


def _projective_messages(q: int, K: int, lo: int, hi: int) -> np.ndarray:
    """Messages lo..hi-1 of the (q^K - 1)/(q - 1) whose last nonzero
    coordinate is 1, as (hi - lo, K) digit rows: message i + (q^k - 1)/(q - 1)
    is q^k + i in base q, lowest digit first, for 0 <= i < q^k."""
    powers = q ** np.arange(K, dtype=np.int64)
    starts = (powers - 1) // (q - 1)
    idx = np.arange(lo, hi, dtype=np.int64)
    level = np.searchsorted(starts, idx, side="right") - 1
    digits = (powers[level] + idx - starts[level])[:, None] // powers
    digits %= q         # in place: one (hi - lo, K) array is formed
    return digits


def class_distances(ring: Ring, sets) -> np.ndarray:
    """Exact minimum distance of the code of each defining set, given as
    (C, K, r) coordinates of C sets of K distinct indices.

    Every orbit is a singleton, so the code of S is spanned by the
    primitive idempotents e_j, j in S (`_idempotent_rows`).  Each of the
    (q^K - 1)/(q - 1) projective messages is multiplied into the rows of
    a block of classes at once, and d is the least number of nonzero
    entries.  A block holds at most CLASS_BLOCK codeword entries (one
    codeword if N is larger): several classes with all their messages, or
    one class and a chunk of its messages.  The messages are formed in
    tables of at most TABLE_LIMIT digits, each once: every block of
    classes is weighed against one table before the next is formed."""
    fld = ring.field
    sets = np.asarray(sets, dtype=np.int64)
    C, K, _ = sets.shape
    q, N = fld.q, ring.N
    P = (q ** K - 1) // (q - 1)
    per_block = max(1, CLASS_BLOCK // (P * N))
    step = min(P, max(1, CLASS_BLOCK // N))
    span = max(1, TABLE_LIMIT // K)
    best = np.full(C, N)
    for lo in range(0, P, span):
        msgs = _projective_messages(q, K, lo, min(lo + span, P))
        for c in range(0, C, per_block):
            rows = _idempotent_rows(ring, sets[c:c + per_block])
            weight = best[c:c + per_block]
            for m in range(0, len(msgs), step):
                words = fld.dot(msgs[m:m + step], rows)
                np.minimum(weight, np.count_nonzero(words, axis=2).min(axis=1),
                           out=weight)
    return best


def search(ring: Ring, K_target: int, budget: int = DEFAULT_BUDGET,
           seed: int = 0) -> Sequence[SearchRow]:
    """All (or sampled) unions of orbits of total size K_target, ranked by
    exact distance descending, ties toward the lexicographically smallest
    defining set.  A translate S + a multiplies every codeword by a
    character, and a monomial automorphism maps the code of S to an
    equivalent one.  So `group_rows` groups the candidates at three
    levels: by the translate that puts their least member at the origin,
    each such set by `translation_keys`, and each translation class by
    `monomial_keys` when weighing the translation classes would overflow
    one CLASS_BLOCK and cost more than keying them.  `class_distances`
    weighs one representative per final class in one batched pass and no
    `construct`; every candidate gets its class's d through the composed
    groupings, and a stable sort on d ranks them.  The ranking stays as
    arrays: the result is a read-only sequence that forms a SearchRow
    only when it is read.
    Raises BudgetExceeded, weighing nothing, when q^K_target > budget."""
    if not 1 <= K_target <= ring.N:
        raise Infeasible(f"K = {K_target} outside [1, {ring.N}]")
    # n_t | q-1 makes every orbit a singleton, so the candidates are the
    # K_target-subsets of the N indices, taken as C-order flat indices
    N, q, lengths = ring.N, ring.field.q, ring.lengths
    total = math.comb(N, K_target)
    if q ** K_target > budget:
        raise BudgetExceeded(
            f"{q ** K_target} codewords exceed budget {budget}: "
            "candidates cannot be ranked")
    if total <= EXHAUSTIVE_LIMIT:
        combos = itertools.combinations(range(N), K_target)
        sel = np.fromiter(itertools.chain.from_iterable(combos),
                          dtype=np.int64, count=total * K_target)
        sel = sel.reshape(total, K_target)
    else:
        rng = random.Random(seed)
        drawn = set()
        while len(drawn) < min(SAMPLES, total):
            drawn.add(tuple(sorted(rng.sample(range(N), K_target))))
        sel = np.array(sorted(drawn), dtype=np.int64)
    # C order is the lexicographic order of the index tuples, so each row
    # of sel, and the rows in their order, follow the lexicographic order
    # of S; sel[:, 0] is each candidate's least member
    first, of = group_rows(_anchored(np.unravel_index(sel, lengths), 0, lengths))
    reps = np.stack(np.unravel_index(sel[first], lengths), axis=-1)
    cls_first, cls_of = group_rows(translation_keys(reps, lengths))
    classes, of = reps[cls_first], cls_of[of]
    # weighing a class takes messages x N entries; keying it takes, per
    # group element, K translates of K r entries (`translation_keys`)
    weigh = (q ** K_target - 1) // (q - 1) * N
    key = _automorphisms(lengths)[0] * K_target ** 2 * ring.r
    if len(classes) * weigh > CLASS_BLOCK and key < weigh:
        mono_first, mono_of = group_rows(monomial_keys(classes, lengths))
        classes, of = classes[mono_first], mono_of[of]
    d = class_distances(ring, classes)[of]
    order = np.argsort(-d, kind="stable")
    return _RankedRows(lengths, sel[order], d[order], K_target)
