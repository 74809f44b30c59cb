"""Exact arithmetic in GF(p^m).

Elements are canonical integers in [0, q): the base-p encoding of the
polynomial representation.  Every field builds log/antilog tables once,
zero's log 2(q-1) reading the zeros past the doubled antilogs, so `mul`
is one table read in every field; inverses, powers and element orders
read them too, and `dot` reduces by the digits of x^t they hold.  `add`,
`sub` and `neg` are one digit-wise pass: XOR in characteristic 2, mod p
in a prime field, base-p digit by digit otherwise.  Public operations
take plain ints or numpy integer arrays, give an int for scalars, and
are pure.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegreeTooLarge,
    DivisionByZero,
    NotPrime,
    OrderNotDividing,
    ReducibleModulus,
)

MAX_ORDER = 1 << 16


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over GF(p), coefficients low-degree first -----------

def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    while len(_poly_trim(a)) - 1 >= dm:
        a = _poly_trim(a)
        shift = len(a) - 1 - dm
        lead = a[-1]
        for i, c in enumerate(mod):
            a[shift + i] = (a[shift + i] - lead * c) % p
    return _poly_trim(a)


def _poly_mulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                res[i + j] = (res[i + j] + ca * cb) % p
    return _poly_mod(res, mod, p)


def _digits(x: int, p: int, m: int) -> list:
    """The m base-p digits of x, lowest first."""
    return [(x // p ** i) % p for i in range(m)]


def _is_irreducible(poly, p) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    poly = _poly_trim(list(poly))
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for low in range(p ** d):
            if not _poly_mod(poly, _digits(low, p, d) + [1], p):
                return False
    return True


class Field:
    """A finite field GF(p^m) with its arithmetic tables.

    Immutable after construction; all operations are pure.
    """

    def __init__(self, p: int, m: int = 1, modulus=None):
        # the range check comes first: trial division of a large p is slow
        if m < 1 or m > 16 or p ** m > MAX_ORDER:
            raise DegreeTooLarge(f"p^m = {p}^{m} outside supported range")
        if _prime_factors(p) != [p]:
            raise NotPrime(f"p = {p} is not prime")
        self.p = p
        self.m = m
        self.q = p ** m
        mod = tuple(int(c) % p for c in modulus) if modulus else None
        if mod is not None:
            if len(mod) != m + 1 or mod[-1] != 1:
                raise ReducibleModulus(f"modulus must be monic of degree {m}")
            if not _is_irreducible(mod, p):
                raise ReducibleModulus(f"modulus {mod} is reducible over GF({p})")
        if m == 1:
            # every monic modulus of degree 1 gives the same GF(p)
            self.modulus = ()
        else:
            self.modulus = mod or self._default_modulus()
        self.generator = self._find_generator()
        self._build_tables()
        if m > 1:
            # `dot` reduces by the digits of x^t, t < 2m - 1; x is the element p
            self._alpha_pow_digits = [_digits(self.pow(p, t), p, m)
                                      for t in range(2 * m - 1)]

    # -- construction ------------------------------------------------------

    def _default_modulus(self):
        # smallest monic irreducible of degree m, low coefficients as a
        # base-p integer ascending: deterministic across runs
        p, m = self.p, self.m
        for low in range(p ** m):
            cand = tuple(_digits(low, p, m)) + (1,)
            if _is_irreducible(cand, p):
                return cand
        raise ReducibleModulus("no irreducible modulus found")  # unreachable

    def _raw_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return a * b % p
        digits = _poly_mulmod(_digits(a, p, m), _digits(b, p, m), self.modulus, p)
        return sum(c * p ** i for i, c in enumerate(digits))

    def _find_generator(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        factors = _prime_factors(order)
        for g in range(2, self.q):
            if all(self._raw_pow(g, order // f) != 1 for f in factors):
                return g
        raise NotPrime("no generator found")  # unreachable for a field

    def _raw_pow(self, a, e):
        acc = 1
        while e:
            if e & 1:
                acc = self._raw_mul(acc, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return acc

    def _build_tables(self):
        """exp[k] = g^k by doubling: multiplication by c = g^L is GF(p)-linear
        on the base-p digits, so exp[L:2L] is the digits of exp[:L] times
        the m x m matrix of c (m `_raw_mul` calls), then c is squared."""
        p, m, q = self.p, self.m, self.q
        place = p ** np.arange(m, dtype=np.int64)
        exp = np.ones(1, dtype=np.int64)
        c = self.generator
        while len(exp) < q - 1:
            M = np.array([_digits(self._raw_mul(int(b), c), p, m) for b in place],
                         dtype=np.int64)
            digits = (exp[:, None] // place) % p
            exp = np.concatenate([exp, ((digits @ M) % p) @ place])
            c = self._raw_mul(c, c)
        exp = exp[:q - 1]
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # q - 1 entries that reach every nonzero element: a permutation
        if not np.array_equal(exp[log[1:]], np.arange(1, q)):
            raise NotPrime("generator order mismatch")  # unreachable
        # zero's log is 2(q - 1): two nonzero logs sum below it and read
        # the doubled exp, and any sum with log 0 reads the zeros
        log[0] = 2 * (q - 1)
        self._exp = np.concatenate([exp, exp, np.zeros(2 * q - 1, dtype=np.int64)])
        self._log = log

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _ret(out):
        # numpy gives 0-d results as numpy scalars: scalars come back as int
        return out if isinstance(out, np.ndarray) and out.ndim else int(out)

    def _digitwise(self, op, a, b):
        """op (np.add or np.subtract) on each base-p digit, mod p."""
        a = np.asarray(a)
        b = np.asarray(b)
        if self.p == 2:
            # base-2 digits add and subtract without carries: XOR
            return self._ret(a ^ b)
        if self.m == 1:
            return self._ret(op(a, b) % self.p)
        p = self.p
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for i in range(self.m):
            pi = p ** i
            out += (op(a // pi, b // pi) % p) * pi
        return self._ret(out)

    def add(self, a, b):
        return self._digitwise(np.add, a, b)

    def sub(self, a, b):
        return self._digitwise(np.subtract, a, b)

    def neg(self, a):
        # 0 - a is a fresh array in every characteristic, so writing into
        # it leaves a alone
        return self._digitwise(np.subtract, 0, a)

    def mul(self, a, b):
        return self._ret(self._exp[self._log[a] + self._log[b]])

    def inv(self, a):
        a = np.asarray(a)
        if (a == 0).any():
            raise DivisionByZero("inverse of zero")
        return self._ret(self._exp[self.q - 1 - self._log[a]])

    def pow(self, a, e: int):
        a = int(a)
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 0
        return int(self._exp[int(self._log[a]) * e % (self.q - 1)])

    def dot(self, A, B):
        """Matrix/vector product with field arithmetic (matmul semantics)."""
        A = np.asarray(A, dtype=np.int64)
        B = np.asarray(B, dtype=np.int64)
        if self.m == 1:
            return self._ret((A @ B) % self.p)
        p, m = self.p, self.m
        Ad = [(A // p ** i) % p for i in range(m)]
        Bd = [(B // p ** j) % p for j in range(m)]
        conv = [None] * (2 * m - 1)
        for i in range(m):
            for j in range(m):
                t = Ad[i] @ Bd[j]
                conv[i + j] = t if conv[i + j] is None else conv[i + j] + t
        digits = [np.zeros(conv[0].shape, dtype=np.int64) for _ in range(m)]
        for t, ct in enumerate(conv):
            red = self._alpha_pow_digits[t]
            for k, rk in enumerate(red):
                if rk:
                    digits[k] += rk * ct
        out = np.zeros(conv[0].shape, dtype=np.int64)
        for k in range(m):
            out += (digits[k] % p) * p ** k
        return self._ret(out)

    # -- roots of unity ----------------------------------------------------

    def nth_root_of_unity(self, n: int) -> int:
        """Deterministic primitive n-th root of unity: generator^((q-1)/n)."""
        if n < 1:
            raise OrderNotDividing(f"n = {n} must be positive")
        if (self.q - 1) % n != 0:
            raise OrderNotDividing(f"{n} does not divide q-1 = {self.q - 1}")
        return self.pow(self.generator, (self.q - 1) // n)

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))
