import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicyclic import (
    Field,
    Ring,
    fourier,
    fourier_inverse,
    idempotent_from_set,
    primitive_idempotent,
    theta,
)
from multicyclic.errors import IndexOutOfRange
from multicyclic.spectral import Spectrum

from conftest import (
    closed_form_primitive_idempotent,
    closed_form_theta,
    enumerate_rings,
    evaluate,
)

REFERENCE_SET = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]


def test_fourier_of_one(ring3):
    spec = fourier(ring3.one())
    assert np.array_equal(spec.values, np.ones((2, 2, 2), dtype=np.int64))


def test_fourier_of_x_single_axis(f3):
    r = Ring(f3, (2,))
    spec = fourier(r.monomial((1,)))
    assert spec.values.tolist() == [1, 2]


def test_fourier_inverse_round_trip(f3, f5, f9):
    for ring in (Ring(f3, (2, 2, 2)), Ring(f5, (4, 2)), Ring(f9, (8,))):
        rng = random.Random(7)
        for _ in range(100):
            f = ring.random_poly(rng)
            assert fourier_inverse(fourier(f)) == f


def test_inverse_of_all_ones_is_one(ring3):
    s = Spectrum(ring3, np.ones((2, 2, 2), dtype=np.int64))
    assert fourier_inverse(s) == ring3.one()


def test_theta_hand_values(f3):
    r = Ring(f3, (2,))
    assert str(theta(r, 0, 0)) == "2 + 2x"
    assert str(theta(r, 0, 1)) == "2 + x"


def test_theta_degenerate_axis(f3):
    r = Ring(f3, (2, 1))
    assert theta(r, 1, 0) == r.one()


def test_theta_properties(f5):
    r = Ring(f5, (4,))
    for i in range(4):
        th = theta(r, 0, i)
        assert th * th == th
        for j in range(4):
            assert evaluate(th, (f5.pow(r.roots[0], j),)) == (1 if i == j else 0)


def test_theta_bounds(ring3):
    with pytest.raises(IndexOutOfRange):
        theta(ring3, 0, 2)
    with pytest.raises(IndexOutOfRange):
        theta(ring3, 5, 0)


def test_idempotent_000_all_coefficients_two(ring3):
    e = primitive_idempotent(ring3, (0, 0, 0))
    assert np.array_equal(e.coeffs, np.full((2, 2, 2), 2, dtype=np.int64))


def test_idempotent_is_product_of_thetas(ring3, f5):
    for ring in (ring3, Ring(f5, (4, 2))):
        for idx in ring.monomials:
            prod = ring.one()
            for t, i in enumerate(idx):
                prod = prod * theta(ring, t, i)
            assert primitive_idempotent(ring, idx) == prod


def test_idempotent_spectrum_is_delta(ring3):
    for idx in ring3.monomials:
        spec = fourier(primitive_idempotent(ring3, idx))
        expected = np.zeros((2, 2, 2), dtype=np.int64)
        expected[idx] = 1
        assert np.array_equal(spec.values, expected)


def test_reference_idempotent_three_ways(ring3):
    # sum of primitive idempotents == inverse transform of the indicator
    # == the printed polynomial
    by_sum = ring3.zero()
    for idx in REFERENCE_SET:
        by_sum = by_sum + primitive_idempotent(ring3, idx)
    by_set = idempotent_from_set(ring3, REFERENCE_SET)
    assert by_sum == by_set
    assert str(by_set) == "2x + 2y + xy + 2xz + 2yz + xyz"
    assert fourier(by_set).support() == sorted(REFERENCE_SET)


def test_idempotent_from_full_box_and_empty(ring3):
    assert idempotent_from_set(ring3, ring3.monomials) == ring3.one()
    assert idempotent_from_set(ring3, []) == ring3.zero()


def test_sum_of_orthogonal_idempotents_is_idempotent(f9):
    ring = Ring(f9, (4, 2))
    rng = random.Random(11)
    for _ in range(25):
        S = rng.sample(ring.monomials, rng.randrange(ring.N + 1))
        e = idempotent_from_set(ring, S)
        assert e * e == e


def test_idempotence_and_orthogonality_exhaustive(f3, f5):
    for ring in (Ring(f3, (2, 2, 2)), Ring(f5, (4, 4))):
        idems = [primitive_idempotent(ring, i) for i in ring.monomials]
        for e in idems:
            assert e * e == e
        for a, b in itertools.combinations(range(ring.N), 2):
            assert (idems[a] * idems[b]).is_zero()
        total = ring.zero()
        for e in idems:
            total = total + e
        assert total == ring.one()


def test_from_set_bounds(ring3):
    with pytest.raises(IndexOutOfRange):
        idempotent_from_set(ring3, [(0, 0, 2)])


RINGS = enumerate_rings()
IDS = [f"q{r.field.q}-{'x'.join(map(str, r.lengths))}" for r in RINGS]


def index_sets(ring):
    return st.lists(st.sampled_from(ring.monomials), max_size=ring.N,
                    unique=True).map(set)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
def test_idempotents_match_closed_forms_at_every_index(ring):
    for t, n in enumerate(ring.lengths):
        for i in range(n):
            assert theta(ring, t, i) == closed_form_theta(ring, t, i)
    for idx in ring.monomials:
        assert (primitive_idempotent(ring, idx)
                == closed_form_primitive_idempotent(ring, idx))


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_set_idempotents_multiply_as_indicators(ring, data):
    S, T = data.draw(index_sets(ring)), data.draw(index_sets(ring))
    eS, eT = idempotent_from_set(ring, S), idempotent_from_set(ring, T)
    assert eS * eS == eS
    assert eS * eT == idempotent_from_set(ring, S & T)
    assert eS + eT - eS * eT == idempotent_from_set(ring, S | T)
    # e_S is the sum of the closed-form primitive idempotents over S
    total = ring.zero()
    for idx in S:
        total = total + closed_form_primitive_idempotent(ring, idx)
    assert eS == total


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_support_is_strictly_increasing(ring, data):
    values = np.array(data.draw(st.lists(st.integers(0, ring.field.q - 1),
                                         min_size=ring.N, max_size=ring.N)))
    values = values.reshape(ring.lengths)
    support = Spectrum(ring, values).support()
    assert all(a < b for a, b in zip(support, support[1:]))
    # the oracle sorts explicitly
    assert support == sorted(map(tuple, np.argwhere(values != 0).tolist()))
