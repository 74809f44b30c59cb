import functools
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from multicyclic import Field
from multicyclic.errors import (
    DegreeTooLarge,
    DivisionByZero,
    NotPrime,
    OrderNotDividing,
    ReducibleModulus,
)
from multicyclic.gf import _is_irreducible

from conftest import (
    add_neg_sub,
    brute_dot,
    brute_field_mul,
    digit_add,
    loop_alpha_powers,
    loop_element_order,
    loop_field_tables,
    mul_neg,
)

EXTENSION_FIELDS = [(p, m) for p in range(2, 65) for m in range(2, 13)
                    if all(p % d for d in range(2, p)) and p ** m <= 4096]


def test_prime_field_basics(f3):
    assert f3.q == 3
    assert f3.generator == 2
    assert f3.element_order(2) == 2
    assert f3.add(2, 2) == 1
    assert f3.inv(2) == 2


def test_f2_trivial():
    f2 = Field(2)
    assert f2.q == 2
    assert f2.generator == 1
    assert f2.mul(1, 1) == 1


def test_f8_every_nonzero_satisfies_x7(f8):
    assert f8.q == 8
    for a in range(1, 8):
        assert f8.pow(a, 7) == 1


@pytest.mark.parametrize("bad", [1, 4, 6, 9, 15])
def test_not_prime_rejected(bad):
    with pytest.raises(NotPrime):
        Field(bad)


def test_degree_limits():
    with pytest.raises(DegreeTooLarge):
        Field(2, 0)
    with pytest.raises(DegreeTooLarge):
        Field(2, 17)
    with pytest.raises(DegreeTooLarge):
        Field(257, 2)  # 257^2 > 2^16


def test_large_prime_rejected_before_trial_division():
    # 2^61 - 1 is prime; trial division up to its square root never ends
    start = time.perf_counter()
    with pytest.raises(DegreeTooLarge):
        Field(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0


def test_reducible_modulus_rejected():
    # x^2 - 1 = (x-1)(x+1) over GF(3)
    with pytest.raises(ReducibleModulus):
        Field(3, 2, modulus=[2, 0, 1])
    with pytest.raises(ReducibleModulus):
        Field(3, 2, modulus=[1, 0, 0, 1])  # wrong degree


def test_prime_field_modulus_checked():
    with pytest.raises(ReducibleModulus, match="monic of degree 1"):
        Field(7, 1, modulus=[1, 0, 0, 5])
    with pytest.raises(ReducibleModulus, match="monic of degree 1"):
        Field(7, 1, modulus=[3, 2])
    # a valid degree-1 modulus names the same field, with the same identity
    fld = Field(7, 1, modulus=[3, 1])
    assert fld.modulus == () and fld == Field(7) and hash(fld) == hash(Field(7))


def test_default_modulus_is_deterministic(f8, f9):
    assert f8.modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert f9.modulus == (1, 0, 1)      # x^2 + 1
    assert Field(2, 3).modulus == f8.modulus


@pytest.mark.parametrize("field", [Field(2), Field(3), Field(5), Field(7),
                                   Field(2, 3), Field(3, 2), Field(2, 4)])
def test_mul_matches_polynomial_oracle(field):
    for a in range(field.q):
        for b in range(field.q):
            assert field.mul(a, b) == brute_field_mul(field, a, b)


@pytest.mark.parametrize("field", [Field(3), Field(5), Field(7), Field(2, 3),
                                   Field(3, 2), Field(2, 4), Field(7, 2)])
def test_field_axioms_exhaustive(field):
    q = field.q
    if q > 64:
        pytest.skip("exhaustive triple check capped at q = 64")
    # the q^2 pairs on scalars, so the scalar path stays exhaustive
    for a, b in itertools.product(range(q), repeat=2):
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
    # all q^3 triples at once: a, b and c broadcast to a (q, q, q) grid
    elems = np.arange(q)
    a, b, c = elems[:, None, None], elems[None, :, None], elems[None, None, :]
    add, mul = field.add, field.mul
    assert np.array_equal(add(add(a, b), c), add(a, add(b, c)))
    assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    assert add(a, add(b, c)).shape == (q, q, q)


@pytest.mark.parametrize("field", [Field(3), Field(7), Field(2, 3), Field(3, 2)])
def test_inverse_exhaustive(field):
    for a in range(1, field.q):
        assert field.mul(a, field.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        field.inv(0)


# the fields of the rings in test_profile, and the largest prime field
INV_FIELDS = [Field(3), Field(5), Field(7), Field(2, 3), Field(3, 2), Field(65521)]


@pytest.mark.parametrize("field", INV_FIELDS, ids=repr)
def test_array_inv_matches_scalar(field):
    a = np.arange(1, field.q)
    inv = field.inv(a)
    assert inv.tolist() == [field.inv(int(x)) for x in a]
    if field.m == 1:
        assert inv.tolist() == [pow(int(x), field.p - 2, field.p) for x in a]
    else:
        assert all(brute_field_mul(field, int(x), int(y)) == 1
                   for x, y in zip(a, inv))
    with pytest.raises(DivisionByZero):
        field.inv(np.array([[1, 0], [2, 1]]))


@pytest.mark.parametrize(
    "field", [Field(p, m) for p in range(2, 48) for m in range(1, 6)
              if all(p % d for d in range(2, p)) and p ** m <= 49],
    ids=repr)
def test_element_order_matches_loop_oracle(field):
    for a in range(1, field.q):
        assert field.element_order(a) == loop_element_order(field, a)
    with pytest.raises(DivisionByZero):
        field.element_order(0)


@pytest.mark.parametrize("field", [Field(3), Field(5), Field(2, 3), Field(3, 2)])
def test_log_antilog_tables(field):
    g = field.generator
    seen = set()
    x = 1
    for _ in range(field.q - 1):
        seen.add(x)
        x = field.mul(x, g)
    assert x == 1
    assert seen == set(range(1, field.q))


@pytest.mark.parametrize(
    "p, m", EXTENSION_FIELDS + [(2, 16), (3, 10), (251, 2), (13, 1), (65521, 1)],
    ids=lambda v: str(v))
def test_doubled_tables_match_loop_oracle(p, m):
    field = Field(p, m)
    exp, log = loop_field_tables(field)
    q = field.q
    # [exp, exp, 2q - 1 zeros]: 4(q - 1) + 1 entries
    assert len(field._exp) == 4 * (q - 1) + 1
    assert np.array_equal(field._exp[:q - 1], exp)
    assert np.array_equal(field._exp[q - 1:2 * (q - 1)], exp)
    assert not field._exp[2 * (q - 1):].any()
    assert len(field._exp[2 * (q - 1):]) == 2 * q - 1
    assert np.array_equal(field._log[1:], log[1:])
    assert field._log[0] == 2 * (q - 1)


@pytest.mark.parametrize("p, m", [(2, 16), (3, 10), (257, 1), (65521, 1)],
                         ids=lambda v: str(v))
def test_mul_and_inv_reach_both_ends_of_the_table(p, m):
    field = Field(p, m)
    q, g = field.q, field.generator
    top = field.pow(g, q - 2)  # the largest log, q - 2
    assert field._log[top] == q - 2
    vals = np.array([0, 1, top, g])
    a, b = np.meshgrid(vals, vals)
    got = field.mul(a, b)
    assert got.tolist() == [[brute_field_mul(field, int(x), int(y))
                             for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    # log 0 + log 0 = 4(q - 1) is the last entry of the table
    assert field._log[0] + field._log[0] == len(field._exp) - 1
    assert field.mul(0, 0) == 0
    assert field.mul(top, top) == brute_field_mul(field, top, top)
    nonzero = np.array([1, top, g])
    inv = field.inv(nonzero)
    # Fermat: a^(q - 2) is the inverse of a nonzero a
    fermat = []
    for x in nonzero.tolist():
        acc, base, e = 1, x, q - 2
        while e:
            if e & 1:
                acc = brute_field_mul(field, acc, base)
            base = brute_field_mul(field, base, base)
            e >>= 1
        fermat.append(acc)
    assert inv.tolist() == fermat
    assert [brute_field_mul(field, int(x), int(y))
            for x, y in zip(nonzero, inv)] == [1, 1, 1]
    with pytest.raises(DivisionByZero):
        field.inv(np.array([1, 0, top]))


def test_tables_reject_generator_of_lower_order():
    field = Field(2, 4)
    field.generator = field.pow(field.generator, 3)  # order 5, not 15
    with pytest.raises(NotPrime, match="order mismatch"):
        field._build_tables()


def test_large_field_builds_fast():
    start = time.perf_counter()
    Field(2, 16)
    assert time.perf_counter() - start < 0.5


def test_nth_root_of_unity(f3, f9):
    assert f3.nth_root_of_unity(2) == 2
    assert f3.nth_root_of_unity(1) == 1
    with pytest.raises(OrderNotDividing):
        f3.nth_root_of_unity(4)
    for n in (1, 2, 4, 8):
        w = f9.nth_root_of_unity(n)
        assert f9.element_order(w) == n if n > 1 else w == 1
        for k in range(1, n):
            assert f9.pow(w, k) != 1
        assert f9.pow(w, n) == 1


def test_unit_fraction_exists_for_dividing_lengths(f3, f5, f8, f9):
    # 1/n must exist whenever n | q-1
    for field in (f3, f5, f8, f9):
        for n in range(1, field.q):
            if (field.q - 1) % n == 0:
                inv = field.inv(n % field.p)
                assert field.mul(inv, n % field.p) == 1


def test_array_ops_match_scalar(f9):
    rng = np.random.default_rng(0)
    a = rng.integers(0, 9, size=(4, 5))
    b = rng.integers(0, 9, size=(4, 5))
    add = np.asarray(f9.add(a, b))
    mul = np.asarray(f9.mul(a, b))
    for i in range(4):
        for j in range(5):
            assert add[i, j] == f9.add(int(a[i, j]), int(b[i, j]))
            assert mul[i, j] == f9.mul(int(a[i, j]), int(b[i, j]))


# fields past the exhaustive checks' q <= 64 cap, and one per kind below it
AXIOM_FIELDS = [Field(2), Field(7), Field(257), Field(2, 3), Field(3, 2),
                Field(2, 8), Field(3, 5), Field(5, 3), Field(7, 2)]


@pytest.mark.parametrize("field", AXIOM_FIELDS, ids=repr)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_field_axioms_against_brute_mul(field, data):
    a, b, c = (data.draw(st.integers(0, field.q - 1)) for _ in range(3))
    mul = functools.partial(brute_field_mul, field)
    assert field.mul(a, b) == mul(a, b) == mul(b, a)
    assert field.add(a, b) == field.add(b, a)
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, field.add(b, c)) == field.add(mul(a, b), mul(a, c))
    assert field.add(a, 0) == a and mul(a, 1) == a
    assert field.add(a, field.neg(a)) == 0
    assert field.sub(field.add(a, b), b) == a
    if a:
        assert mul(a, field.inv(a)) == 1


def _sympy_irreducible(low_first, p):
    return gf_irreducible_p([ZZ(c) for c in reversed(low_first)], p, ZZ)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_matches_sympy(p):
    for deg in range(1, 5):
        for low in itertools.product(range(p), repeat=deg):
            poly = list(low) + [1]
            assert _is_irreducible(poly, p) == _sympy_irreducible(poly, p), poly


SYMPY_MODULUS_CASES = [(2, 2), (2, 3), (2, 4), (2, 8), (3, 2), (3, 3), (3, 5),
                       (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]


@pytest.mark.parametrize("p,m", SYMPY_MODULUS_CASES)
def test_default_modulus_matches_sympy(p, m):
    # the smallest monic irreducible, reading the low coefficients as a
    # base-p number with the constant term as the lowest digit
    for low in range(p ** m):
        cand = [(low // p ** i) % p for i in range(m)] + [1]
        if _sympy_irreducible(cand, p):
            break
    assert Field(p, m).modulus == tuple(cand)


@pytest.mark.parametrize("m", range(1, 17))
def test_char2_add_matches_digit_loop(m):
    fld = Field(2, m)
    q = fld.q
    rng = np.random.default_rng(m)
    if q <= 256:
        a, b = np.divmod(np.arange(q * q, dtype=np.int64), q)
    else:
        a, b = rng.integers(0, q, size=(2, 100_000))
    assert np.array_equal(fld.add(a, b), digit_add(fld, a, b))
    assert np.array_equal(fld.sub(a, b), fld.add(a, b))
    # the shapes of a span-table level: q multiples against one row or a table
    A = rng.integers(0, q, size=(q, 1, 5))
    for B in (rng.integers(0, q, size=5), rng.integers(0, q, size=(3, 5))):
        assert np.array_equal(fld.add(A, B), digit_add(fld, A, B))
        assert np.array_equal(fld.sub(A, B), fld.add(A, B))
    x, y = (int(v) for v in rng.integers(0, q, size=2))
    assert np.array_equal(fld.add(x, b), digit_add(fld, x, b))
    assert np.array_equal(fld.add(a, y), digit_add(fld, a, y))
    for s in (fld.add(x, y), fld.add(np.int64(x), y), fld.sub(x, y)):
        assert type(s) is int and s == digit_add(fld, x, y)



@pytest.mark.parametrize("field", [Field(2), Field(2, 2), Field(2, 4), Field(2, 16)],
                         ids=lambda f: f"q{f.q}")
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_char2_neg_is_a_copy_and_sub_is_add(field, data):
    p = field.p
    element = st.integers(0, field.q - 1)
    a, b = data.draw(element), data.draw(element)
    assert field.neg(a) == field.mul(a, p - 1) == a
    assert field.sub(a, b) == field.add(a, field.mul(b, p - 1))
    shape = data.draw(st.sampled_from([(5,), (3, 4)]))
    A, B = (np.array(data.draw(st.lists(element, min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
            for _ in range(2))
    assert np.array_equal(field.neg(A), field.mul(A, p - 1))
    assert np.array_equal(field.sub(A, B), field.add(A, field.mul(B, p - 1)))
    before = A.copy()
    out = field.neg(A)
    out += 1
    assert np.array_equal(A, before)


# every field with q <= 49, and the largest of each kind
DIGITWISE_FIELDS = [Field(p, m) for p in range(2, 48) for m in range(1, 6)
                    if all(p % d for d in range(2, p)) and p ** m <= 49] + [
    Field(3, 10), Field(2, 16), Field(65521)]


@pytest.mark.parametrize("field", DIGITWISE_FIELDS, ids=repr)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_add_sub_neg_match_oracles(field, data):
    q = field.q
    kind = data.draw(st.sampled_from(["int", "int64", "0-d", "1-D", "broadcast"]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "1-D":
        a, b = rng.integers(0, q, size=(2, 7))
    elif kind == "broadcast":
        # the shapes of a span-table level: q multiples against a table
        a = rng.integers(0, q, size=(min(q, 64), 1, 5))
        b = rng.integers(0, q, size=(3, 5))
    else:
        a, b = (data.draw(st.integers(0, q - 1)) for _ in range(2))
        a = {"int": a, "int64": np.int64(a), "0-d": np.array(a)}[kind]
    for x, y in ((a, b), (b, a)):
        s, d, n = field.add(x, y), field.sub(x, y), field.neg(y)
        assert np.array_equal(s, digit_add(field, x, y))
        assert np.array_equal(d, add_neg_sub(field, x, y))
        assert np.array_equal(digit_add(field, d, y), np.broadcast_to(x, np.shape(d)))
        assert np.array_equal(n, mul_neg(field, y))
        assert not np.any(digit_add(field, n, y))
        if np.ndim(a) == 0:
            assert type(s) is type(d) is type(n) is int
    for x in (a, b):
        if np.ndim(x):
            # writing into -x leaves x alone, in every characteristic
            before = x.copy()
            out = field.neg(x)
            assert not np.shares_memory(out, x)
            out += 1
            assert np.array_equal(x, before)


@pytest.mark.parametrize(
    "field", [Field(p, m) for p, m in SYMPY_MODULUS_CASES]
    + [Field(3, 2, modulus=[2, 1, 1])],     # x^2 + x + 2, not the default
    ids=lambda f: f"{f!r}-{f.modulus}")
def test_alpha_pow_digits_match_polynomial_loop(field):
    assert field._alpha_pow_digits == loop_alpha_powers(field)


DOT_FIELDS = [Field(2, 2), Field(2, 3), Field(3, 2), Field(2, 4), Field(5, 2),
              Field(3, 3), Field(7)]


@pytest.mark.parametrize("field", DOT_FIELDS, ids=repr)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_dot_matches_brute_products(field, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    k, a, b, C = (data.draw(st.integers(1, 6)) for _ in range(4))

    def draw(*shape):
        return rng.integers(0, field.q, size=shape)

    # a vector product, an axis step of the transform, and the class pass's
    # (P, K) messages against (C, K, N) character rows
    for A, B in ((draw(k), draw(k)), (draw(a, k), draw(k, b)),
                 (draw(a, k), draw(C, k, b))):
        assert np.array_equal(field.dot(A, B), brute_dot(field, A, B))
    assert type(field.dot(draw(k), draw(k))) is int
    full = np.full(k, field.q - 1)
    assert field.dot(full, full) == brute_dot(field, full, full)
