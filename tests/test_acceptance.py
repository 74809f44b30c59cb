"""Acceptance suite: one test per criterion, each printing a pass line
with its measured runtime.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion report."""

import itertools
import random
import time

import numpy as np
import pytest

from multicyclic import (
    Field,
    Ring,
    closure,
    combinatorial_form,
    construct,
    fourier,
    fourier_inverse,
    idempotent_from_set,
    primitive_idempotent,
    search,
)

from conftest import enumerate_rings, in_span, one_hot, rref

REFERENCE_SEEDS_K3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
REFERENCE_SEEDS_K4 = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def report(name, start, limit):
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit, f"{name} exceeded the {limit}s budget"


def test_criterion_1_reference_reproduction(ring3):
    start = time.perf_counter()
    rec = construct(ring3, REFERENCE_SEEDS_K3)
    assert str(rec.idempotent) == "2x + 2y + xy + 2xz + 2yz + xyz"
    assert rec.generator.array.tolist() == [
        [0, 2, 2, 0, 1, 2, 2, 1],
        [2, 0, 1, 2, 2, 0, 1, 2],
        [2, 1, 0, 2, 2, 1, 0, 2],
    ]
    report("1 (reference idempotent and generator matrix)", start, 1)


def test_criterion_2_table_distances(ring3):
    start = time.perf_counter()
    rec3 = construct(ring3, REFERENCE_SEEDS_K3)
    rec4 = construct(ring3, REFERENCE_SEEDS_K4)
    assert 3 ** rec3.K - 1 == 26
    assert 3 ** rec4.K - 1 == 80
    assert rec3.d == 4
    assert rec4.d == 4
    report("2 (table distances d=4, d=4)", start, 1)


def test_criterion_3_search_optimality(ring3):
    start = time.perf_counter()
    records = search(ring3, 3)
    assert len(records) == 56
    assert max(r.d for r in records) == 4
    assert any(r.defining_set == tuple(sorted(REFERENCE_SEEDS_K3))
               and r.d == 4 for r in records)
    report("3 (exhaustive K=3 search, max d = 4)", start, 5)


def test_criterion_4_idempotent_family_properties():
    start = time.perf_counter()
    for ring in enumerate_rings():
        idems = [primitive_idempotent(ring, i) for i in ring.monomials]
        for i, e in zip(ring.monomials, idems):
            assert e * e == e, f"idempotence fails at {i} in {ring!r}"
            spec = fourier(e)
            expected = np.zeros(ring.lengths, dtype=np.int64)
            expected[i] = 1
            assert np.array_equal(spec.values, expected), \
                f"delta evaluation fails at {i} in {ring!r}"
        for a, b in itertools.combinations(range(ring.N), 2):
            assert (idems[a] * idems[b]).is_zero(), \
                f"orthogonality fails at {a},{b} in {ring!r}"
        total = ring.zero()
        for e in idems:
            total = total + e
        assert total == ring.one(), f"partition of unity fails in {ring!r}"
    report("4 (idempotent family, all rings q in {3,5,7,8,9}, N <= 64)", start, 30)


def test_criterion_5_transform_isomorphism():
    start = time.perf_counter()
    rings = [Ring(Field(3), (2, 2, 2)), Ring(Field(5), (4, 2)),
             Ring(Field(2, 3), (7,)), Ring(Field(3, 2), (8, 2))]
    for ring in rings:
        fld = ring.field
        rng = random.Random(100)
        for _ in range(100):
            a = ring.random_poly(rng)
            b = ring.random_poly(rng)
            assert fourier_inverse(fourier(a)) == a
            lhs = fourier(a * b).values
            rhs = np.asarray(fld.mul(fourier(a).values, fourier(b).values))
            assert np.array_equal(lhs, rhs)
    report("5 (transform round trip and convolution, 100 pairs per ring)", start, 10)


def test_criterion_6_equivalence_round_trip():
    start = time.perf_counter()
    cases = [(Ring(Field(3), (2, 2, 2)), None),
             (Ring(Field(5), (4, 2)), None),
             (Ring(Field(3, 2), (8,)), None),
             (Ring(Field(2, 3), (7,)), 2)]  # nontrivial orbits via general sigma
    for ring, mult in cases:
        multiplier = mult if mult is not None else ring.field.q
        rng = random.Random(200)
        nontrivial_seen = False
        for _ in range(100):
            seeds = rng.sample(ring.monomials, rng.randrange(ring.N + 1))
            S = closure(seeds, ring.lengths, multiplier)
            e = idempotent_from_set(ring, S)
            reps = list(combinatorial_form(e, multiplier=multiplier))
            S2 = closure(reps, ring.lengths, multiplier)
            assert S2 == S
            assert idempotent_from_set(ring, S2) == e
            if len(reps) < len(S):
                nontrivial_seen = True
        if mult is not None:
            assert nontrivial_seen, "multiplier-2 case never hit a nontrivial orbit"
    report("6 (combinatorial/spectral round trip, incl. multiplier-2 orbits)", start, 30)


def test_criterion_7_dimension_identity():
    start = time.perf_counter()
    rings = [Ring(Field(3), (2, 2, 2)), Ring(Field(5), (4, 2)),
             Ring(Field(7), (6, 2)), Ring(Field(3, 2), (4, 2, 2))]
    rng = random.Random(300)
    for i in range(200):
        ring = rings[i % len(rings)]
        k = rng.randrange(1, ring.N + 1)
        rec = construct(ring, rng.sample(ring.monomials, k), budget=0)
        assert rref(rec.generator)[1] == rec.K == len(rec.defining_set)
    report("7 (rank(G) = |S| on 200 random defining sets)", start, 60)


def test_criterion_8_product_bound_box_regime():
    start = time.perf_counter()
    rings = [Ring(Field(3), (2, 2, 2)), Ring(Field(5), (4, 2)),
             Ring(Field(5), (2, 2, 2)), Ring(Field(7), (6,)),
             Ring(Field(7), (3, 2)), Ring(Field(2, 3), (7,)),
             Ring(Field(2, 2), (3, 3))]
    checked = 0
    for ring in rings:
        assert ring.N <= 32
        for kp in itertools.product(*(range(1, n + 1) for n in ring.lengths)):
            seeds = list(itertools.product(*(range(k) for k in kp)))
            rec = construct(ring, seeds)
            assert rec.bound_applicable is True
            assert rec.k_profile == kp
            bound = 1
            for n, k in zip(ring.lengths, kp):
                bound *= n - k + 1
            assert rec.product_bound == bound
            assert rec.d is not None
            assert rec.d >= bound
            assert rec.d <= rec.n - rec.K + 1
            checked += 1
    assert checked > 40
    report(f"8 (product bound on {checked} Cartesian box codes)", start, 120)


def test_criterion_9_ideal_closure():
    start = time.perf_counter()
    rings = [Ring(Field(3), (2, 2, 2)), Ring(Field(5), (4, 2)),
             Ring(Field(3, 2), (4, 2))]
    rng = random.Random(400)
    for i in range(50):
        ring = rings[i % len(rings)]
        k = rng.randrange(1, ring.N + 1)
        rec = construct(ring, rng.sample(ring.monomials, k), budget=0)
        for row in rec.generator.array:
            f = ring.from_vector(row)
            for t in range(ring.r):
                g = f.translate(one_hot(ring, t))
                assert in_span(g.vector(), rec.generator) is not None
    report("9 (ideal closure under all cyclic shifts, 50 codes)", start, 60)
