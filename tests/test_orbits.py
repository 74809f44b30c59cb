import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicyclic import (
    Field,
    Ring,
    all_orbits,
    closure,
    combinatorial_form,
    frobenius,
    idempotent_from_set,
    orbit_of,
    primitive_idempotent,
)
from multicyclic.errors import IndexOutOfRange, NotIdempotent, NotOrbitConstant

from conftest import enumerate_rings

# (lengths, multiplier): every test ring under its own q, and the
# subfield-style action of multiplier 2 on length 7
ACTIONS = [(r.lengths, r.field.q) for r in enumerate_rings()] + [((7,), 2)]


def test_frobenius_identity_when_q_is_1_mod_n(ring3):
    for idx in ring3.monomials:
        assert frobenius(idx, (2, 2, 2), 3) == idx


def test_frobenius_fixes_origin():
    assert frobenius((0, 0), (6, 3), 7) == (0, 0)
    assert frobenius((0,), (7,), 2) == (0,)


def test_frobenius_multiplier_two_mod_seven():
    assert frobenius((1,), (7,), 2) == (2,)
    assert frobenius((2,), (7,), 2) == (4,)
    assert frobenius((4,), (7,), 2) == (1,)


def test_frobenius_bounds():
    with pytest.raises(IndexOutOfRange):
        frobenius((7,), (7,), 2)
    with pytest.raises(IndexOutOfRange):
        frobenius((0, 0), (7,), 2)


def test_orbit_of_singletons(ring3):
    for idx in ring3.monomials:
        orb = orbit_of(idx, (2, 2, 2), 3)
        assert orb.members == (idx,)
        assert orb.representative == idx
        assert orb.size == 1


def test_orbit_of_mod_seven():
    orb = orbit_of((3,), (7,), 2)
    assert orb.representative == (3,)
    assert set(orb.members) == {(3,), (6,), (5,)}
    # iteration order starts at the representative and follows sigma
    assert orb.members == ((3,), (6,), (5,))


def test_all_orbits_partition():
    orbs = all_orbits((7,), 2)
    assert [o.members for o in orbs] == [
        ((0,),), ((1,), (2,), (4,)), ((3,), (6,), (5,))]
    assert sum(o.size for o in orbs) == 7


def test_all_orbits_singleton_regime(f5):
    orbs = all_orbits((4, 2), 5)
    assert len(orbs) == 8
    assert all(o.size == 1 for o in orbs)


def test_orbit_sizes_divide_multiplicative_order():
    rng = random.Random(12)
    for _ in range(20):
        n1 = rng.choice([3, 5, 7, 9, 15])
        n2 = rng.choice([1, 3, 5, 7])
        mult = rng.choice([2, 4, 8])
        if math.gcd(mult, n1) != 1 or math.gcd(mult, n2) != 1:
            continue
        L = math.lcm(n1, n2)
        order = 1
        x = mult % L
        while x != 1:
            x = (x * mult) % L
            order += 1
        for orb in all_orbits((n1, n2), mult):
            assert order % orb.size == 0


def test_closure():
    assert closure([], (7,), 2) == ()
    S = closure([(3,)], (7,), 2)
    assert S == ((3,), (5,), (6,))


@pytest.mark.parametrize("lengths, multiplier", ACTIONS,
                         ids=[f"{'x'.join(map(str, n))}-m{m}" for n, m in ACTIONS])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_closure_is_the_sorted_union_of_orbits(lengths, multiplier, data):
    box = list(itertools.product(*(range(n) for n in lengths)))
    seeds = data.draw(st.lists(st.sampled_from(box), max_size=8))
    repeats = data.draw(st.lists(st.sampled_from(seeds), max_size=4)) if seeds else []
    shuffled = data.draw(st.permutations(seeds + repeats))
    union = set()
    for idx in seeds:
        cur = idx
        while cur not in union:
            union.add(cur)
            cur = tuple(multiplier * i % n for i, n in zip(cur, lengths))
    assert closure(shuffled, lengths, multiplier) == tuple(sorted(union))


def test_closure_of_reference_set(ring3):
    seeds = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    S = closure(seeds, (2, 2, 2), 3)
    assert S == tuple(sorted(seeds))


def test_combinatorial_form_of_one(ring3):
    reps = combinatorial_form(ring3.one())
    assert reps == {idx: 1 for idx in ring3.monomials}


def test_combinatorial_form_of_zero(ring3):
    assert combinatorial_form(ring3.zero()) == {}


def test_combinatorial_form_reference(ring3):
    e = idempotent_from_set(ring3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    reps = combinatorial_form(e)
    assert sorted(reps) == [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
    assert set(reps.values()) == {1}


def test_combinatorial_form_rejects_non_idempotent(ring3):
    e = primitive_idempotent(ring3, (0, 0, 0))
    e = e + e
    with pytest.raises(NotIdempotent):
        combinatorial_form(e)


def test_combinatorial_form_rejects_orbit_violation(f8):
    # indicator of {1} is not closed under multiplication by 2 mod 7
    ring = Ring(f8, (7,))
    e = idempotent_from_set(ring, [(1,)])
    with pytest.raises(NotOrbitConstant):
        combinatorial_form(e, multiplier=2)
    # but is fine under the ring's own (trivial) action
    assert combinatorial_form(e) == {(1,): 1}


def test_round_trip_nontrivial_orbits(f8):
    # subfield-style action: multiplier 2 on length 7 over GF(8)
    ring = Ring(f8, (7,))
    rng = random.Random(13)
    for _ in range(100):
        seeds = rng.sample(ring.monomials, rng.randrange(8))
        S = closure(seeds, (7,), 2)
        e = idempotent_from_set(ring, S)
        reps = combinatorial_form(e, multiplier=2)
        S2 = closure(list(reps), (7,), 2)
        assert S2 == S
        assert idempotent_from_set(ring, S2) == e


def test_round_trip_singleton_orbits(ring3, f5):
    for ring in (ring3, Ring(f5, (4, 2))):
        rng = random.Random(14)
        for _ in range(100):
            seeds = rng.sample(ring.monomials, rng.randrange(ring.N + 1))
            S = closure(seeds, ring.lengths, ring.field.q)
            e = idempotent_from_set(ring, S)
            reps = combinatorial_form(e)
            S2 = closure(list(reps), ring.lengths, ring.field.q)
            assert S2 == S
            assert idempotent_from_set(ring, S2) == e
