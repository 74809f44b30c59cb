import dataclasses
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicyclic import (
    Field,
    GfMatrix,
    Ring,
    construct,
    fourier,
    idempotent_from_set,
    orbit_distance,
    rank,
    search,
    theta,
    weight_distribution,
)
from multicyclic import codes
from multicyclic.cli import record_to_text
from multicyclic.codes import (
    BASIS_BOX,
    BASIS_GREEDY,
    DEFAULT_BUDGET,
    literal_monomial_sum,
)
from multicyclic.errors import (
    BoundViolated,
    BudgetExceeded,
    IndexOutOfRange,
    Infeasible,
    RingTooLarge,
    ZeroIdempotent,
)

from conftest import (
    dual_defining_set,
    enumerate_rings,
    exhaustive_min_distance,
    exhaustive_weight_distribution,
    in_span,
    k_profile,
    macwilliams_transform,
    min_distance,
    one_hot,
    rref,
    spectral_min_distance,
)

REFERENCE_SEEDS_K3 = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
REFERENCE_SEEDS_K4 = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_reference_k3_record(ring3):
    rec = construct(ring3, REFERENCE_SEEDS_K3)
    assert (rec.n, rec.K, rec.d) == (8, 3, 4)
    assert str(rec.idempotent) == "2x + 2y + xy + 2xz + 2yz + xyz"
    assert rec.generator.array.tolist() == [
        [0, 2, 2, 0, 1, 2, 2, 1],
        [2, 0, 1, 2, 2, 0, 1, 2],
        [2, 1, 0, 2, 2, 1, 0, 2],
    ]
    assert rec.basis_kind == BASIS_GREEDY
    assert rec.bound_applicable is False
    assert rec.singleton_bound == 6


def test_reference_k4_record(ring3):
    rec = construct(ring3, REFERENCE_SEEDS_K4)
    assert (rec.n, rec.K, rec.d) == (8, 4, 4)


def test_full_box_is_whole_space(ring3):
    rec = construct(ring3, ring3.monomials)
    assert (rec.K, rec.d) == (8, 1)
    assert rec.basis_kind == BASIS_BOX
    assert rec.k_profile == (2, 2, 2)
    assert rec.product_bound == 1 and rec.bound_applicable
    R, rk, _ = rref(rec.generator)
    assert rk == 8
    assert np.array_equal(R.array, np.eye(8, dtype=np.int64))


def test_zero_code_degenerate(ring3):
    rec = construct(ring3, [])
    assert rec.K == 0 and rec.d is None
    assert rec.generator.rows == 0 and rec.generator.cols == 8
    assert rec.k_profile is None


def test_repetition_style_code(f3, f5):
    # S = {origin}: e has full support with equal nonzero coefficients
    for ring in (Ring(f3, (2,)), Ring(f3, (2, 2, 2)), Ring(f5, (4, 2))):
        rec = construct(ring, [(0,) * ring.r])
        assert rec.K == 1
        assert rec.d == ring.N
        assert np.count_nonzero(rec.idempotent.coeffs) == ring.N


def test_k_profile_full_box_single_axis(f3):
    ring = Ring(f3, (2,))
    assert k_profile(ring.one()) == (2,)


def test_k_profile_theta0_single_axis(f3):
    # x * theta_0 = theta_0 (eigenvector at 1), so k = 1
    ring = Ring(f3, (2,))
    th = theta(ring, 0, 0)
    assert th.translate((1,)) == th
    assert k_profile(th) == (1,)


def test_k_profile_reference(ring3):
    # every index of the reference set has third coordinate 0, so
    # z * e = e and the profile is (2, 2, 1)
    e = idempotent_from_set(ring3, REFERENCE_SEEDS_K3)
    assert e.translate((0, 0, 1)) == e
    assert k_profile(e) == (2, 2, 1)


def test_k_profile_zero_rejected(ring3):
    with pytest.raises(ZeroIdempotent):
        k_profile(ring3.zero())


def test_box_basis_cartesian_set(f3):
    # S = {0} x {0,1} in a (2,2) ring: k = (1,2), dimension 2, bound 2
    ring = Ring(f3, (2, 2))
    rec = construct(ring, [(0, 0), (0, 1)])
    assert rec.K == 2
    assert rec.k_profile == (1, 2)
    assert rec.basis_kind == BASIS_BOX
    assert rec.product_bound == 2 and rec.bound_applicable
    assert rec.d >= 2
    assert rec.d == spectral_min_distance(ring, rec.defining_set)


@pytest.mark.parametrize("lengths,p,m", [((2, 2, 2), 3, 1), ((4, 2), 5, 1),
                                         ((8,), 3, 2), ((7,), 2, 3)])
def test_min_distance_matches_spectral_oracle(lengths, p, m):
    ring = Ring(Field(p, m), lengths)
    rng = random.Random(30)
    for _ in range(6):
        k = rng.randrange(1, min(ring.N, 4) + 1)
        seeds = rng.sample(ring.monomials, k)
        rec = construct(ring, seeds)
        assert rec.d == spectral_min_distance(ring, rec.defining_set)


def test_min_distance_budget(ring3):
    rec = construct(ring3, REFERENCE_SEEDS_K3, budget=10)
    assert rec.d is None
    assert rec.product_bound is not None
    with pytest.raises(BudgetExceeded):
        min_distance(GfMatrix(ring3.field, [[1] * 8] * 3), budget=10)


def test_min_distance_matches_exhaustive_oracle_on_every_ring():
    rng = random.Random(35)
    for ring in enumerate_rings():
        q = ring.field.q
        for _ in range(3):
            k = rng.randrange(1, ring.N + 1)
            G = construct(ring, rng.sample(ring.monomials, k), budget=0).generator
            if q ** G.rows > 20_000:
                G = GfMatrix(ring.field, G.array[:rng.randrange(1, 5)])
            assert min_distance(G) == exhaustive_min_distance(G), (ring, G.array)


def test_min_distance_small_and_dependent_rows(f5, f9):
    for fld, rows, d in [(f5, [[0, 3, 0, 1]], 2), (f9, [[7, 0, 0]], 1)]:
        G = GfMatrix(fld, rows)
        assert min_distance(G) == exhaustive_min_distance(G) == d
    # the oracle may stop at a weight-1 codeword before the zero codeword
    # of dependent rows, so these are checked against 0 alone
    r0, r1 = [1, 5, 0], [3, 0, 8]
    r2 = f9.add(f9.mul(2, r0), r1).tolist()
    for fld, rows in [(f5, [[0, 0, 0, 0]]),
                      (f5, [[1, 2, 3, 4], [0, 0, 0, 0], [1, 1, 0, 0]]),
                      (f5, [[1, 2, 3, 4], [2, 4, 1, 3]]),
                      (f5, [[1, 0, 0], [2, 0, 0]]),
                      (f9, [r0, r1, r2]),
                      (f9, [r2, r0, r1])]:
        assert min_distance(GfMatrix(fld, rows)) == 0, rows


@pytest.mark.parametrize("limit", [1, 40, 300])
def test_min_distance_with_small_table_limits(limit, monkeypatch):
    # tiny tables send most codewords through the nested offset loops
    monkeypatch.setattr(codes, "TABLE_LIMIT", limit)
    rng = random.Random(limit)
    for fld in (Field(3), Field(2, 2), Field(5), Field(3, 2)):
        for _ in range(15):
            k = rng.randrange(1, 6 if fld.q < 9 else 5)
            n = rng.randrange(k, 9)
            G = GfMatrix(fld, [[rng.randrange(fld.q) for _ in range(n)]
                               for _ in range(k)])
            d = 0 if rank(G) < k else exhaustive_min_distance(G)
            assert min_distance(G) == d, G.array


# characteristic 2 past GF(8), where Field.add is XOR on the encodings
CHAR2_RINGS = [Ring(Field(2, 2), (3,)), Ring(Field(2, 2), (3, 3)),
               Ring(Field(2, 4), (15,)), Ring(Field(2, 4), (5, 3)),
               Ring(Field(2, 4), (3, 5))]


@pytest.mark.parametrize("limit", [None, 1, 40, 300])
@pytest.mark.parametrize("ring", CHAR2_RINGS, ids=repr)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_char2_min_distance_matches_exhaustive_oracle(ring, limit, data):
    q = ring.field.q
    K_max = max(k for k in range(1, ring.N + 1) if q ** k <= 4096)
    S = data.draw(st.lists(st.sampled_from(ring.monomials), min_size=1,
                           max_size=K_max, unique=True))
    G = construct(ring, S, budget=0).generator
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(codes, "TABLE_LIMIT", limit)
        assert min_distance(G) == exhaustive_min_distance(G), (S, G.array)


# the four codes of the benchmark's distance workload
DISTANCE_CODES = [
    (2, 4, (15, 15), [(0, 0), (1, 0), (0, 1), (1, 1)], (225, 4, 196)),
    (2, 3, (7, 7), [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
     (49, 6, 30)),
    (3, 2, (8, 8), [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
     (64, 6, 42)),
    (13, 1, (12, 12), [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)],
     (144, 5, 120)),
]


@pytest.mark.parametrize("p,m,lengths,seeds,params", DISTANCE_CODES,
                         ids=[f"{list(c[4])}_{c[0] ** c[1]}" for c in DISTANCE_CODES])
def test_distance_codes_pinned(p, m, lengths, seeds, params):
    rec = construct(Ring(Field(p, m), lengths), seeds)
    assert (rec.n, rec.K, rec.d) == params


# the 3x2 box on 15x15 / GF(16), and on 8x8 / GF(9) with (3, 0): q^K is
# over the default budget, so `construct` prints d as "?" without a raise
OUT_OF_REACH_CODES = [
    (2, 4, (15, 15), DISTANCE_CODES[1][3], 20_000_000, (225, 6, 182)),
    (3, 2, (8, 8), DISTANCE_CODES[2][3] + [(3, 0)], 5_000_000, (64, 7, 40)),
]


@pytest.mark.parametrize("p,m,lengths,seeds,budget,params", OUT_OF_REACH_CODES,
                         ids=[f"{list(c[5])}_{c[0] ** c[1]}" for c in OUT_OF_REACH_CODES])
def test_out_of_reach_codes_pinned(p, m, lengths, seeds, budget, params):
    ring = Ring(Field(p, m), lengths)
    assert construct(ring, seeds).d is None
    rec = construct(ring, seeds, budget=budget)
    assert (rec.n, rec.K, rec.d) == params
    assert min_distance(rec.generator, budget=budget) == rec.d


# the exhaustive distribution forms q^K codewords, the projective oracle
# (q^K - 1)/(q - 1), and the orbit route visits the 2^K supports
EXHAUSTIVE_CODEWORDS = 3 ** 8
ORACLE_CODEWORDS = 100_000
ORBIT_SUPPORTS = 1 << 10


def _orbit_feasible(q, K):
    return 2 ** K <= ORBIT_SUPPORTS and q ** K <= 10 ** 6


@pytest.mark.parametrize("ring", enumerate_rings(), ids=repr)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_orbit_route_matches_oracles_on_every_ring(ring, data):
    q, N = ring.field.q, ring.N
    K = data.draw(st.one_of(st.just(1), st.just(N), st.integers(1, N)), label="K")
    S = data.draw(st.lists(st.sampled_from(ring.monomials), min_size=K,
                           max_size=K, unique=True), label="S")
    if not _orbit_feasible(q, K):
        return
    A = weight_distribution(ring, S)
    d = orbit_distance(ring, S)
    assert sum(A) == q ** K
    assert d == min(w for w in range(1, N + 1) if A[w])
    if q ** K <= DEFAULT_BUDGET:
        assert construct(ring, S).d == d
    if q ** K <= ORACLE_CODEWORDS:
        G = construct(ring, S, budget=0).generator
        assert min_distance(G) == d
        if q ** K <= EXHAUSTIVE_CODEWORDS:
            assert exhaustive_min_distance(G) == d
            assert exhaustive_weight_distribution(G) == A
    T = dual_defining_set(ring, S)
    if _orbit_feasible(q, len(T)):
        assert macwilliams_transform(A, q) == weight_distribution(ring, T)


def _orbit_oracle(x, steps, M):
    """The orbit of the log vector x under the scalars (all coordinates
    plus c) and the translations (plus s times steps[t]), by closure."""
    seen = {tuple(x)}
    todo = [tuple(x)]
    gens = [[1] * len(x)] + steps
    while todo:
        y = todo.pop()
        for g in gens:
            z = tuple((a + b) % M for a, b in zip(y, g))
            if z not in seen:
                seen.add(z)
                todo.append(z)
    return seen


@pytest.mark.parametrize("p,m,lengths", [(5, 1, (4, 2)), (3, 2, (8,)),
                                         (3, 2, (4, 4)), (7, 1, (6, 3)),
                                         (2, 2, (3, 3)), (13, 1, (12,))])
def test_orbit_boxes_are_transversals(p, m, lengths):
    # every message with support U lies in the orbit of exactly one box
    # point, and each orbit has (q-1)^|U| / prod(h) messages
    ring = Ring(Field(p, m), lengths)
    M = ring.field.q - 1
    rng = random.Random(37)
    S = sorted(rng.sample(ring.monomials, min(4, ring.N)))
    for U, h in codes._orbit_boxes(ring, S):
        steps = [[S[i][t] * (M // n) % M for i in U]
                 for t, n in enumerate(lengths)]
        covered = set()
        for x in itertools.product(*map(range, h)):
            orbit = _orbit_oracle(x, steps, M)
            assert len(orbit) == M ** len(U) // math.prod(h)
            assert not orbit & covered
            covered |= orbit
        assert len(covered) == M ** len(U)


def test_orbit_route_on_the_zero_code(ring3):
    with pytest.raises(ZeroIdempotent):
        orbit_distance(ring3, [])
    assert weight_distribution(ring3, []) == [1] + [0] * 8


# defining sets of 4x4 / GF(5), with d and the weight distribution
# (A_0, then A_w for each w with A_w > 0)
ORBIT_ROUTE_PINS = [
    ([(0, 0)], 16, {16: 4}),
    ([(1, 1), (0, 0)], 12, {12: 16, 16: 8}),
    ([(0, 0), (0, 1), (1, 0), (3, 3)], 10, {10: 64, 12: 160, 13: 320, 16: 80}),
    ([(2, 3), (0, 0), (1, 2)], 12, {12: 48, 13: 64, 16: 12}),
]


@pytest.mark.parametrize("S,d,A", ORBIT_ROUTE_PINS)
def test_orbit_route_reads_the_closure_of_S(f5, S, d, A):
    # a repeated member is one index of the defining set, as in construct
    ring = Ring(f5, (4, 4))
    weights = [1] + [A.get(w, 0) for w in range(1, 17)]
    for T in (S, S + S[:1], S[::-1] + S):
        assert orbit_distance(ring, T) == d
        assert weight_distribution(ring, T) == weights


@pytest.mark.parametrize("index", [(-1, 0), (4, 0), (0, 4), (0,)])
def test_orbit_route_refuses_an_index_outside_the_box(f5, index):
    ring = Ring(f5, (4, 4))
    for route in (orbit_distance, weight_distribution):
        with pytest.raises(IndexOutOfRange):
            route(ring, [(0, 0), index])


def test_orbit_route_refuses_a_box_past_64_bit_indices():
    # six indices of one axis over GF(65521): the translations move the
    # logs by multiples of 65520/16 only, so the box holds about
    # 65520^5/16 representatives; a raised budget lets construct try
    ring = Ring(Field(65521), (16,))
    seeds = [(i,) for i in range(6)]
    with pytest.raises(BudgetExceeded, match="64-bit"):
        construct(ring, seeds, budget=10 ** 30)


def test_orbit_route_in_bounded_memory():
    # [64, 6, 42]_9 weighs 1,087 representatives in blocks of 2^14
    # codeword entries; its projective enumeration peaked near 10 MB
    ring = Ring(Field(3, 2), (8, 8))
    S = DISTANCE_CODES[2][3]
    tracemalloc.start()
    try:
        d = orbit_distance(ring, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 42
    assert peak < 2 * 2 ** 20


# the two codes of the benchmark's big-ring workload, both N = 4,096
BIG_RING_CODES = [
    ((17,), (16, 16, 16), [(0, 0, 0), (1, 0, 0)]),
    ((3, 2), (8, 8, 8, 8), [(0, 0, 0, 0), (1, 0, 0, 0)]),
]


@pytest.mark.parametrize("field,lengths,seeds", BIG_RING_CODES,
                         ids=["16x16x16_17", "8x8x8x8_9"])
def test_construct_reads_the_table_without_a_transform(field, lengths, seeds,
                                                       monkeypatch):
    calls = []
    real = Ring.transform

    def counting(self, tensor, inverse=False):
        calls.append(inverse)
        return real(self, tensor, inverse)
    monkeypatch.setattr(Ring, "transform", counting)
    ring = Ring(Field(*field), lengths)
    rec = construct(ring, seeds)
    assert calls == []
    record_to_text(rec)
    assert "monomials" not in ring.__dict__


@pytest.mark.parametrize("field,lengths,seeds",
                         [((3,), (2, 2, 2), REFERENCE_SEEDS_K3)] + BIG_RING_CODES,
                         ids=["2x2x2_3", "16x16x16_17", "8x8x8x8_9"])
def test_construct_forms_each_table_once(field, lengths, seeds, monkeypatch):
    # one idempotent table E: the basis reads its characters off E at -m,
    # and the distance pass reads E
    calls = []
    real = codes._idempotent_rows

    def counting(ring, sets):
        calls.append(len(sets))
        return real(ring, sets)
    monkeypatch.setattr(codes, "_idempotent_rows", counting)
    ring = Ring(Field(*field), lengths)
    rec = construct(ring, seeds)
    assert rec.d is not None
    assert calls == [1]
    calls.clear()
    assert orbit_distance(ring, rec.defining_set) == rec.d
    assert calls == [1]


def test_construct_on_a_big_ring_in_bounded_memory():
    # one window holds the ring and its construct; with e transformed
    # twice and copied once per basis row it peaked at 1.22 MB
    field, lengths, seeds = BIG_RING_CODES[1]
    tracemalloc.start()
    try:
        rec = construct(Ring(Field(*field), lengths), seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.params() == "[4096, 2, 3584]_9"
    assert peak < 1.1e6


def test_construct_holds_one_table_of_many_rows():
    # K = 64 rows of N = 4,096: each K x N table is 2 MB of int64.  With a
    # second table of characters beside the idempotents it peaked at
    # 10.05 MB; the ring's axis tables are formed before the window
    ring = Ring(Field(17), (16, 16, 16))
    ring._axis_tables
    seeds = list(itertools.islice(np.ndindex(ring.lengths), 64))
    tracemalloc.start()
    try:
        rec = construct(ring, seeds, budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.K == 64 and rec.basis_kind == "box" and rec.d is None
    assert peak < 8 * 2 ** 20


# 256x256 / GF(257): the first 16 seeds fill the table limit exactly,
# K x N = 16 x 65,536, and all 17 exceed it
BIG_TABLE_SEEDS = [(0, i) for i in range(17)]


def test_construct_refuses_a_table_past_the_limit():
    # 17 x 65,536 coefficients: refused before the table, or the ring's
    # axis tables, are formed
    ring = Ring(Field(257), (256, 256))
    assert 16 * ring.N == codes.TABLE_LIMIT
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(RingTooLarge, match="17 x 65536 = 1114112 .* 1048576"):
            construct(ring, BIG_TABLE_SEEDS, budget=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2 ** 20
    for route in (orbit_distance, weight_distribution):
        with pytest.raises(RingTooLarge, match="17 x 65536"):
            route(ring, BIG_TABLE_SEEDS)
    rec = construct(ring, BIG_TABLE_SEEDS[:16], budget=0)
    assert rec.params() == "[65536, 16, ?]_257"


def test_min_distance_weighs_by_comparison_in_bounded_memory():
    # [225, 4, 196]_16 weighs against a span table of 16^3 rows x 225, 7.4 MB
    # of int64: one boolean mask per offset fits the bound, while forming
    # each offset's sum with the table needs several table-sized temporaries
    G = construct(Ring(Field(2, 4), (15, 15)), DISTANCE_CODES[0][3],
                  budget=0).generator
    tracemalloc.start()
    try:
        d = min_distance(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 196
    assert peak < 16 * 2 ** 20


def test_min_distance_past_the_table_limit_in_bounded_memory():
    fld = Field(2)
    rng = np.random.default_rng(36)
    G = GfMatrix(fld, rng.integers(0, 2, size=(20, 64)))
    assert 2 ** 20 * 64 > codes.TABLE_LIMIT
    tracemalloc.start()
    try:
        d = min_distance(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert d == exhaustive_min_distance(G)


def test_min_distance_level_over_the_table_limit_in_bounded_memory():
    # one level of q multiples is 257 x 65,536 elements, 16 times the
    # table limit, so it is formed in chunks
    ring = Ring(Field(257), (256, 256))
    G = construct(ring, [(0, 0), (1, 0)], budget=0).generator
    assert 257 * ring.N > codes.TABLE_LIMIT
    tracemalloc.start()
    try:
        d = min_distance(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # the code is the tensor product of a [256, 2, 255] and a [256, 1, 256]
    assert d == 255 * 256 == 65_280


def test_bound_violation_raises(ring3, monkeypatch):
    # one d per set of the stack
    monkeypatch.setattr(codes, "_orbit_distance",
                        lambda ring, sets, E: np.full(len(sets), ring.N))
    with pytest.raises(BoundViolated, match="Singleton"):
        construct(ring3, REFERENCE_SEEDS_K3)
    monkeypatch.setattr(codes, "_orbit_distance",
                        lambda ring, sets, E: np.zeros(len(sets), dtype=int))
    with pytest.raises(BoundViolated, match="product bound"):
        construct(ring3, ring3.monomials)


def test_bound_violation_raises_under_optimize():
    script = (
        "from multicyclic import Field, Ring, codes\n"
        "from multicyclic.errors import BoundViolated\n"
        "codes._orbit_distance = lambda ring, sets, E: [ring.N] * len(sets)\n"
        "try:\n"
        "    codes.construct(Ring(Field(3), (2, 2, 2)), [(0, 0, 0), (1, 0, 0), (0, 1, 0)])\n"
        "except BoundViolated:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(codes.__file__))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_dimension_identity_random(f3, f5, f9):
    rng = random.Random(31)
    for ring in (Ring(f3, (2, 2, 2)), Ring(f5, (4, 2)), Ring(f9, (4, 2))):
        for _ in range(30):
            k = rng.randrange(1, ring.N + 1)
            seeds = rng.sample(ring.monomials, k)
            rec = construct(ring, seeds, budget=0)
            assert rref(rec.generator)[1] == rec.K == len(rec.defining_set)
            # every row's spectrum stays inside S
            S = set(rec.defining_set)
            for row in rec.generator.array:
                f = ring.from_vector(row)
                assert set(fourier(f).support()) <= S


def test_idempotent_acts_as_identity(ring3):
    rng = random.Random(32)
    rec = construct(ring3, REFERENCE_SEEDS_K3)
    for _ in range(20):
        coeffs = [rng.randrange(3) for _ in range(rec.K)]
        cw = ring3.zero()
        for c, row in zip(coeffs, rec.generator.array):
            cw = cw + ring3.from_vector(ring3.field.mul(c, row))
        assert rec.idempotent * cw == cw


def test_ideal_closed_under_shifts(f3, f5):
    rng = random.Random(33)
    for ring in (Ring(f3, (2, 2, 2)), Ring(f5, (4, 2))):
        for _ in range(10):
            k = rng.randrange(1, ring.N + 1)
            rec = construct(ring, rng.sample(ring.monomials, k), budget=0)
            for row in rec.generator.array:
                f = ring.from_vector(row)
                for t in range(ring.r):
                    g = f.translate(one_hot(ring, t))
                    assert in_span(g.vector(), rec.generator) is not None


def test_bound_chain(f3, f5):
    rng = random.Random(34)
    for ring in (Ring(f3, (2, 2, 2)), Ring(f5, (4, 2))):
        for _ in range(20):
            k = rng.randrange(1, ring.N + 1)
            rec = construct(ring, rng.sample(ring.monomials, k))
            assert 1 <= rec.d <= rec.singleton_bound
            if rec.bound_applicable:
                assert rec.d >= rec.product_bound


def test_literal_monomial_sum_diagnostic(ring3):
    lit = literal_monomial_sum(ring3, REFERENCE_SEEDS_K3)
    assert str(lit) == "1 + x + y"
    assert lit * lit != lit  # the literal reading is not idempotent here
    # the sum over the full box IS idempotent only in trivial cases
    lit0 = literal_monomial_sum(ring3, [(0, 0, 0)])
    assert lit0 == ring3.one()
    # the 0/1 indicator of the closure: a repeated seed counts once
    assert literal_monomial_sum(ring3, REFERENCE_SEEDS_K3 + [(1, 0, 0)]) == lit


def test_search_reference_ring_k3(ring3):
    records = search(ring3, 3)
    assert len(records) == 56
    assert records[0].d == 4
    assert max(r.d for r in records) == 4
    # deterministic tie-break: lexicographically smallest defining set first
    assert records[0].defining_set == ((0, 0, 0), (0, 0, 1), (0, 1, 0))


def test_search_full_dimension(ring3):
    records = search(ring3, 8)
    assert len(records) == 1
    assert records[0].d == 1 and records[0].K == 8


def test_search_k7_matches_oracle(ring3):
    records = search(ring3, 7)
    assert len(records) == 8
    best = max(spectral_min_distance(ring3, [m for m in ring3.monomials if m != out])
               for out in ring3.monomials)
    assert records[0].d == best == 2


def test_search_infeasible(ring3):
    with pytest.raises(Infeasible):
        search(ring3, 9)
    with pytest.raises(Infeasible):
        search(ring3, 0)


def test_search_f5_golden(f5):
    ring = Ring(f5, (4, 2))
    records = search(ring, 4)
    oracle_best = max(
        spectral_min_distance(ring, list(S))
        for S in itertools.combinations(ring.monomials, 4))
    assert records[0].d == oracle_best == 4


def test_search_over_budget_constructs_nothing(ring3, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a candidate was constructed")
    monkeypatch.setattr(codes, "construct", fail)
    with pytest.raises(BudgetExceeded):
        search(ring3, 3, budget=26)


def test_search_sampling_deterministic(ring3, monkeypatch):
    monkeypatch.setattr(codes, "EXHAUSTIVE_LIMIT", 10)
    monkeypatch.setattr(codes, "SAMPLES", 20)
    a = search(ring3, 4, seed=1)
    b = search(ring3, 4, seed=1)
    assert len(a) == 20
    assert [r.defining_set for r in a] == [r.defining_set for r in b]
    assert all(r.K == 4 for r in a)


# -- the stack builder: many defining sets of one size in one pass ----------

# q^K of the stacks below, so that every set's exact d is in reach quickly
STACK_CODEWORDS = 3 ** 6


def _closed_sets(ring, data, K, count):
    """count distinct sorted K-subsets of the box, as `closure` gives them."""
    return data.draw(st.lists(
        st.lists(st.sampled_from(ring.monomials), min_size=K, max_size=K,
                 unique=True).map(lambda S: tuple(sorted(S))),
        min_size=1, max_size=count, unique=True), label="sets")


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for field in dataclasses.fields(codes.CodeRecord):
            assert getattr(a, field.name) == getattr(b, field.name), field.name


@pytest.mark.parametrize("ring", enumerate_rings(), ids=repr)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_stack_equals_records_built_one_at_a_time(ring, data):
    q = ring.field.q
    K_max = max(k for k in range(1, ring.N + 1) if q ** k <= STACK_CODEWORDS)
    K = data.draw(st.integers(1, K_max), label="K")
    sets = _closed_sets(ring, data, K, 6)
    stack = codes._construct_sets(ring, sets, DEFAULT_BUDGET)
    _assert_same_records(stack, [construct(ring, S) for S in sets])
    # the projective class pass is an independent enumeration
    assert [rec.d for rec in stack] == codes.class_distances(ring, sets).tolist()


@pytest.mark.parametrize("p,m,lengths,K", [(3, 1, (2, 2, 2), 3), (5, 1, (4, 4), 4),
                                           (7, 1, (6, 6), 2), (3, 2, (4, 2), 3),
                                           (2, 3, (7,), 2)])
def test_stack_is_the_same_across_chunk_boundaries(p, m, lengths, K, monkeypatch):
    # blocks of two sets' tables, so five sets take chunks of 2, 2 and 1,
    # and the orbit pass decodes a few representatives per block
    ring = Ring(Field(p, m), lengths)
    sets = [tuple(sorted(S)) for S in itertools.islice(
        itertools.combinations(ring.monomials, K), 3, 8)]
    whole = codes._construct_sets(ring, sets, DEFAULT_BUDGET)
    chunks = []
    real = codes._idempotent_rows

    def counting(ring, sets):
        chunks.append(len(sets))
        return real(ring, sets)
    monkeypatch.setattr(codes, "_idempotent_rows", counting)
    monkeypatch.setattr(codes, "CLASS_BLOCK", 2 * K * ring.N + 1)
    _assert_same_records(codes._construct_sets(ring, sets, DEFAULT_BUDGET), whole)
    assert chunks == [2, 2, 1]


def test_orbit_blocks_shared_by_several_sets():
    # each K = 3 set on 6x6 / GF(7) has a few representatives, so one
    # block holds the representatives of several sets
    ring = Ring(Field(7), (6, 6))
    sets = [tuple(sorted(S)) for S in itertools.islice(
        itertools.combinations(ring.monomials, 3), 0, 200, 20)]
    E = codes._idempotent_rows(ring, np.array(sets))
    owners = [np.unique(own).tolist()
              for _, own, _, _ in codes._orbit_blocks(ring, sets, E)]
    assert any(len(block) > 1 for block in owners)
    assert sorted(set().union(*owners)) == list(range(len(sets)))
    want = [orbit_distance(ring, S) for S in sets]
    assert codes._orbit_distance(ring, sets, E).tolist() == want
    assert [rec.d for rec in codes._construct_sets(ring, sets, DEFAULT_BUDGET)] == want


def test_stack_checks_raise_per_set(ring3, monkeypatch):
    # the d of the second set alone breaks the Singleton bound
    sets = [((0, 0, 0), (0, 0, 1), (0, 1, 0)), ((0, 0, 0), (0, 1, 1), (1, 1, 0))]
    monkeypatch.setattr(codes, "_orbit_distance",
                        lambda ring, sets, E: np.array([4, ring.N])[:len(sets)])
    with pytest.raises(BoundViolated, match="d = 8 exceeds the Singleton bound 6"):
        codes._construct_sets(ring3, sets, DEFAULT_BUDGET)
    assert codes._construct_sets(ring3, sets[:1], DEFAULT_BUDGET)[0].d == 4
