import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicyclic import Field, Ring, fourier
from multicyclic.errors import (
    ArityMismatch,
    AxisOutOfRange,
    CtxMismatch,
    OrderNotDividing,
    RingTooLarge,
)
from multicyclic.ring import MAX_N, TABLE_LIMIT, Poly

from conftest import (
    enumerate_rings,
    evaluate,
    graded_lex_monomials,
    monomial_name,
    one_hot,
    ravel_gather,
    term_loop_str,
)

# every small ring, r = 4 and r = 5 rings with lengths >= 3, whose names
# carry powers such as x1^2x3, and rings with length-1 axes, which
# enumerate_rings never makes
ORDER_RINGS = enumerate_rings() + [
    Ring(Field(7), (3, 3, 3, 3)), Ring(Field(5), (4, 4, 4, 4)),
    Ring(Field(7), (6, 3, 3, 3, 3)), Ring(Field(3, 2), (4, 4, 4, 4, 4)),
    Ring(Field(7), (3, 1, 2)), Ring(Field(5), (1, 4)),
    Ring(Field(3), (2, 1, 1, 2))]


def test_ring_new_valid(ring3):
    assert ring3.roots == (2, 2, 2)
    assert ring3.N == 8


def test_ring_new_rejects_bad_axis(f3):
    with pytest.raises(OrderNotDividing) as err:
        Ring(f3, (4,))
    assert "axis 1" in str(err.value)
    with pytest.raises(OrderNotDividing) as err:
        Ring(f3, (2, 4, 2))
    assert "axis 2" in str(err.value)


@pytest.mark.parametrize("r", [17, 64])
def test_ring_size_cap(f3, r):
    # 2^64 coefficients would wrap to 0 in a fixed-width product
    start = time.perf_counter()
    with pytest.raises(RingTooLarge) as err:
        Ring(f3, (2,) * r)
    assert str(2 ** r) in str(err.value) and str(MAX_N) in str(err.value)
    assert time.perf_counter() - start < 1.0


def test_ring_axis_cap():
    # a 65520 x 65520 axis table would need 32 GiB; the check comes before
    # any table is built, and the longest axis fills TABLE_LIMIT
    start = time.perf_counter()
    with pytest.raises(RingTooLarge) as err:
        Ring(Field(65521), (65520,))
    assert "axis length 65520 exceeds the limit 1024" in str(err.value)
    assert str(math.isqrt(TABLE_LIMIT)) in str(err.value)
    assert time.perf_counter() - start < 1.0


def test_ring_longest_axis_constructs():
    from multicyclic import construct
    ring = Ring(Field(12289), (math.isqrt(TABLE_LIMIT),))
    assert construct(ring, [(0,), (1,)]).params() == "[1024, 2, ?]_12289"


def test_ring_f5(f5):
    r = Ring(f5, (4, 2))
    assert f5.element_order(r.roots[0]) == 4
    assert r.roots[1] == 4
    assert f5.element_order(r.roots[1]) == 2


def test_monomial_order_graded_lex(ring3):
    assert ring3.monomials == [
        (0, 0, 0),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1),
        (1, 1, 1),
    ]
    assert ring3.labels == ("1", "x", "y", "z", "xy", "xz", "yz", "xyz")


@pytest.mark.parametrize("ring", ORDER_RINGS, ids=repr)
def test_monomial_table_matches_oracle(ring):
    monomials = graded_lex_monomials(ring.lengths)
    assert ring.monomials == monomials
    assert all(type(x) is int for e in ring.monomials for x in e)
    assert np.array_equal(ring._gather, ravel_gather(ring.lengths, monomials))
    names = tuple(monomial_name(ring.r, e) for e in monomials)
    assert ring.labels == names


@pytest.mark.parametrize("ring", ORDER_RINGS, ids=repr)
def test_monomials_are_formed_when_read(ring):
    fresh = Ring(ring.field, ring.lengths)
    assert "monomials" not in fresh.__dict__
    monomials = graded_lex_monomials(ring.lengths)
    assert fresh._degree.tolist() == [sum(e) for e in monomials]
    assert fresh.monomials == monomials
    assert fresh._degree.tolist() == [sum(e) for e in fresh.monomials]
    assert fresh.monomials is fresh.monomials


def test_labels_of_wide_rings():
    assert Ring(Field(7), (3, 3, 3, 3)).labels[:8] == (
        "1", "x1", "x2", "x3", "x4", "x1^2", "x1x2", "x1x3")
    ring = Ring(Field(7), (6, 3, 3, 3, 3))
    assert ring.labels[ring.monomials.index((2, 0, 1, 0, 2))] == "x1^2x3x5^2"
    assert ring.labels[-1] == "x1^5x2^2x3^2x4^2x5^2"


def test_labels_of_the_big_rings():
    # the two N = 4,096 rings of the big-ring benchmark
    ring = Ring(Field(17), (16, 16, 16))
    assert ring.labels[:8] == ("1", "x", "y", "z", "x^2", "xy", "xz", "y^2")
    assert ring.labels[-1] == "x^15y^15z^15"
    ring = Ring(Field(3, 2), (8, 8, 8, 8))
    assert ring.labels[0] == "1"
    assert ring.labels[-1] == "x1^7x2^7x3^7x4^7"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_str_matches_oracle(data):
    ring = data.draw(st.sampled_from(ORDER_RINGS), label="ring")
    coeff = st.integers(1, ring.field.q - 1)
    at = data.draw(st.lists(st.integers(1, ring.N - 1), min_size=1,
                            max_size=12, unique=True))
    flat = np.zeros(ring.N, dtype=np.int64)
    flat[at] = data.draw(st.lists(coeff, min_size=len(at), max_size=len(at)))
    flat[at[0]] = 1
    flat[0] = data.draw(coeff)
    f = Poly(ring, flat.reshape(ring.lengths))
    assert str(f) == term_loop_str(f)


def test_mul_identity(ring3):
    rng = random.Random(0)
    for _ in range(10):
        a = ring3.random_poly(rng)
        assert a * ring3.one() == a


def test_x_squared_is_one(f3):
    r = Ring(f3, (2,))
    x = r.monomial((1,))
    assert x * x == r.one()


def test_mul_commutative_associative(f3, f5):
    for ring in (Ring(f3, (2, 2, 2)), Ring(f5, (4, 2))):
        rng = random.Random(1)
        for _ in range(25):
            a, b, c = (ring.random_poly(rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)


def test_ctx_mismatch(f3, f5):
    a = Ring(f3, (2,)).one()
    b = Ring(f5, (2,)).one()
    with pytest.raises(CtxMismatch):
        a * b


def test_evaluate_constant(ring3):
    c = ring3.monomial((0, 0, 0), 2)
    assert evaluate(c, (1, 1, 1)) == 2
    assert evaluate(c, (2, 2, 2)) == 2


def test_evaluate_reference_idempotent(ring3):
    # e = 2x + 2y + xy + 2xz + 2yz + xyz: indicator of its defining set
    coeffs = np.zeros((2, 2, 2), dtype=np.int64)
    coeffs[1, 0, 0] = 2
    coeffs[0, 1, 0] = 2
    coeffs[1, 1, 0] = 1
    coeffs[1, 0, 1] = 2
    coeffs[0, 1, 1] = 2
    coeffs[1, 1, 1] = 1
    from multicyclic.ring import Poly
    e = Poly(ring3, coeffs)
    assert evaluate(e, (1, 1, 1)) == 1     # point for index (0,0,0), inside the set
    assert evaluate(e, (2, 2, 2)) == 0     # index (1,1,1), outside the set


def test_evaluate_arity(ring3):
    with pytest.raises(ArityMismatch):
        evaluate(ring3.one(), (1, 1))


def test_evaluate_is_ring_homomorphism(f5):
    ring = Ring(f5, (4, 2))
    rng = random.Random(3)
    for _ in range(20):
        a = ring.random_poly(rng)
        b = ring.random_poly(rng)
        pt = (f5.pow(ring.roots[0], rng.randrange(4)),
              f5.pow(ring.roots[1], rng.randrange(2)))
        assert evaluate(a * b, pt) == f5.mul(evaluate(a, pt), evaluate(b, pt))
        assert evaluate(a + b, pt) == f5.add(evaluate(a, pt), evaluate(b, pt))


def test_shift_full_cycle_is_identity(ring3, f5):
    rng = random.Random(4)
    for ring in (ring3, Ring(f5, (4, 2))):
        f = ring.random_poly(rng)
        for t in range(ring.r):
            assert f.translate(one_hot(ring, t, ring.lengths[t])) == f
            g = f
            for _ in range(ring.lengths[t]):
                g = g.translate(one_hot(ring, t))
            assert g == f


def test_shift_matches_monomial_mul(ring3, f9):
    rng = random.Random(5)
    for ring in (ring3, Ring(f9, (4, 2))):
        for _ in range(50):
            f = ring.random_poly(rng)
            t = rng.randrange(ring.r)
            k = rng.randrange(ring.lengths[t])
            exps = one_hot(ring, t, k)
            assert f.translate(exps) == f * ring.monomial(exps)


def test_shift_axis_bounds(ring3):
    with pytest.raises(ArityMismatch):
        ring3.one().translate((0, 0, 0, 1))
    with pytest.raises(AxisOutOfRange):
        ring3.monomial((0, 0, 2))


def test_shift_of_reference_idempotent(ring3):
    # shifting e along x reproduces the second generator-matrix row
    from multicyclic import construct
    rec = construct(ring3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    shifted = rec.idempotent.translate((1, 0, 0))
    assert shifted.vector().tolist() == [2, 0, 1, 2, 2, 0, 1, 2]


def test_degenerate_axis(f3):
    r = Ring(f3, (2, 1))
    assert r.N == 2
    rng = random.Random(6)
    a, b = r.random_poly(rng), r.random_poly(rng)
    assert a * b == b * a
    assert a.translate((0, 1)) == a  # X_2 = 1


def test_str_canonical(ring3):
    assert str(ring3.zero()) == "0"
    assert str(ring3.one()) == "1"
    f = ring3.monomial((1, 1, 0)) + ring3.monomial((1, 0, 0), 2)
    assert str(f) == "2x + xy"
