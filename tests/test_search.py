"""`search` weighs one code per class of translations and monomial
automorphisms in one batched pass: translations and automorphisms keep
the weight distribution, the class keys group exactly the translates and
the automorphic images, the lexsort grouping agrees with np.unique, the
class pass gives `construct`'s d, and the ranked rows, read through the
lazy sequence `search` returns, equal the per-candidate and the
translation-class oracles in conftest on every small ring of the
family."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from multicyclic import (
    Field,
    Ring,
    SearchRow,
    codes,
    construct,
    search,
    weight_distribution,
)
from multicyclic.codes import (
    DEFAULT_BUDGET,
    class_distances,
    group_rows,
    monomial_keys,
    translation_keys,
)

from conftest import (
    construct_every_candidate_search,
    enumerate_rings,
    exhaustive_min_distance,
    monomial_automorphisms,
    monomial_key,
    translation_class_search,
    translation_key,
    unique_rows,
)

RINGS = enumerate_rings()
IDS = [f"q{r.field.q}-{'x'.join(map(str, r.lengths))}" for r in RINGS]

# the oracle constructs every candidate, so keep each comparison small
ORACLE_CANDIDATES = 300
# exhaustive_min_distance forms every one of the q^K codewords
EXHAUSTIVE_CODEWORDS = 3_000
# q^K for the class-pass oracle: K = N on the 2x2x2 box over GF(3)
CLASS_CODEWORDS = 3 ** 8


def translate(S, a, lengths):
    return [tuple((i + s) % n for i, s, n in zip(idx, a, lengths)) for idx in S]


def ranked(rows):
    return [(r.d, r.defining_set) for r in rows]


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_translation_keeps_distance(ring, data):
    q = ring.field.q
    K_max = max(k for k in range(1, ring.N + 1) if q ** k <= EXHAUSTIVE_CODEWORDS)
    S = data.draw(st.lists(st.sampled_from(ring.monomials), min_size=1,
                           max_size=K_max, unique=True))
    a = tuple(data.draw(st.integers(0, n - 1)) for n in ring.lengths)
    moved = translate(S, a, ring.lengths)
    G = construct(ring, S, budget=0).generator
    H = construct(ring, moved, budget=0).generator
    assert exhaustive_min_distance(G) == exhaustive_min_distance(H)
    assert translation_key(S, ring.lengths) == translation_key(moved, ring.lengths)


def test_translation_key_separates_classes():
    # on length 4 the translates of {0, 1} are {1, 2}, {2, 3} and {0, 3}
    lengths = (4,)
    key = translation_key([(0,), (1,)], lengths)
    assert key == ((0,), (1,))
    assert translation_key([(0,), (3,)], lengths) == key
    assert translation_key([(2,), (0,)], lengths) != key
    # every K-subset's class under all translations, formed independently
    for lengths, K in (((2, 2, 2), 3), ((4, 2), 3), ((3, 2), 2), ((6,), 3)):
        box = list(itertools.product(*(range(n) for n in lengths)))
        classes = {}
        for S in itertools.combinations(box, K):
            orbit = frozenset(frozenset(translate(S, a, lengths)) for a in box)
            classes.setdefault(orbit, set()).add(translation_key(S, lengths))
        assert all(len(keys) == 1 for keys in classes.values())
        assert len({k for keys in classes.values() for k in keys}) == len(classes)


def _candidates(ring, K, count, rng):
    """count random K-subsets of the box, each followed by a random
    translate of itself so that classes have several members."""
    box = np.array(ring.monomials, dtype=np.int64)
    out = []
    for _ in range(count):
        S = box[rng.choice(ring.N, size=K, replace=False)]
        shift = np.array([rng.integers(n) for n in ring.lengths])
        out += [S, (S + shift) % ring.lengths]
    return np.stack(out)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 6))
def test_translation_keys_split_into_oracle_classes(ring, seed, count):
    rng = np.random.default_rng(seed)
    for K in sorted({1, ring.N, int(rng.integers(1, ring.N + 1))}):
        cands = _candidates(ring, K, count, rng)
        keys = [tuple(row) for row in
                translation_keys(cands, ring.lengths).tolist()]
        oracle = [translation_key([tuple(x) for x in S], ring.lengths)
                  for S in cands.tolist()]
        # equal keys exactly where the oracle's keys are equal
        assert len(set(zip(keys, oracle))) == len(set(keys)) == len(set(oracle))


def test_translation_keys_memory_is_linear():
    # 10,000 candidates of 64 indices on 256x256: a (C, K, K, r) broadcast
    # would need about 650 MB
    lengths = (256, 256)
    rng = np.random.default_rng(0)
    cands = rng.integers(0, 256, size=(10_000, 64, 2), dtype=np.int64)
    tracemalloc.start()
    try:
        keys = translation_keys(cands, lengths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.shape == (10_000, 64)
    assert peak < 64 * 2 ** 20
    for S, key in zip(cands[:5].tolist(), keys[:5].tolist()):
        assert key == [i * 256 + j for i, j in
                       translation_key([tuple(x) for x in S], lengths)]


def _images(ring, K, count, rng):
    """count random K-subsets of the box, each followed by its image under
    a random monomial automorphism and a random translation."""
    maps = monomial_automorphisms(ring.lengths)
    box = ring.monomials
    out = []
    for _ in range(count):
        S = [box[i] for i in rng.choice(ring.N, size=K, replace=False)]
        A = maps[rng.integers(len(maps))]
        a = [int(rng.integers(n)) for n in ring.lengths]
        out += [S, translate([A(x) for x in S], a, ring.lengths)]
    return np.array(out, dtype=np.int64).reshape(len(out), K, ring.r)


@pytest.mark.parametrize("lengths", [(2,), (6,), (8,), (6, 6), (6, 3), (4, 4, 2),
                                     (8, 4, 2), (3, 3, 3), (2, 2, 2, 2)])
def test_automorphisms_match_oracle(lengths):
    count, elements = codes._automorphisms(lengths)
    box = list(itertools.product(*(range(n) for n in lengths)))
    got = [tuple(tuple(j[pi] * u % n for pi, u, n in zip(perm, units, lengths))
                 for j in box) for perm, units in elements]
    oracle = {tuple(A(j) for j in box) for A in monomial_automorphisms(lengths)}
    assert count == len(got) == len(set(got)) == len(oracle)
    assert set(got) == oracle
    # each element permutes the box
    assert all(len(set(images)) == len(box) for images in got)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 5))
def test_monomial_keys_split_into_oracle_classes(ring, seed, count):
    rng = np.random.default_rng(seed)
    for K in sorted({1, min(3, ring.N), int(rng.integers(1, ring.N + 1))}):
        cands = _images(ring, K, count, rng)
        keys = monomial_keys(cands, ring.lengths).tolist()
        # each candidate's image shares its key
        assert keys[::2] == keys[1::2]
        oracle = [monomial_key([tuple(x) for x in S], ring.lengths)
                  for S in cands.tolist()]
        pairs = set(zip(map(tuple, keys), oracle))
        assert len(pairs) == len({k for k, _ in pairs}) == len(set(oracle))


def test_monomial_keys_are_the_same_in_any_chunks(monkeypatch):
    # 8 group elements on 6x6: one chunk by default, one element per chunk
    # at CLASS_BLOCK = 1, three chunks (3, 3 and 2) at CLASS_BLOCK = 3 C K
    ring = Ring(Field(7), (6, 6))
    cands = _images(ring, 3, 20, np.random.default_rng(5))
    whole = monomial_keys(cands, ring.lengths)
    for block in (1, 3 * cands.shape[0] * cands.shape[1]):
        monkeypatch.setattr(codes, "CLASS_BLOCK", block)
        assert monomial_keys(cands, ring.lengths).tolist() == whole.tolist()


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_automorphisms_keep_the_weight_distribution(ring, data):
    # the invariance that lets `search` weigh one code per monomial class
    q = ring.field.q
    K_max = max(k for k in range(1, ring.N + 1) if q ** k <= CLASS_CODEWORDS)
    S = data.draw(st.lists(st.sampled_from(ring.monomials), min_size=1,
                           max_size=K_max, unique=True), label="S")
    A = data.draw(st.sampled_from(monomial_automorphisms(ring.lengths)), label="A")
    a = tuple(data.draw(st.integers(0, n - 1)) for n in ring.lengths)
    moved = translate([A(x) for x in S], a, ring.lengths)
    assert weight_distribution(ring, moved) == weight_distribution(ring, S)


def _check_grouping(keys):
    first, inverse = group_rows(keys)
    oracle_first, oracle_inverse = unique_rows(keys)
    assert first.tolist() == oracle_first.tolist()
    assert inverse.tolist() == oracle_inverse.tolist()
    # each class is represented by its least candidate index
    members = {}
    for c, cls in enumerate(inverse.tolist()):
        members.setdefault(cls, []).append(c)
    assert first.tolist() == [min(members[i]) for i in range(len(first))]


# a few distinct rows, drawn many times over so that classes repeat
@settings(max_examples=60, deadline=None)
@given(pool=hnp.arrays(np.int64, st.tuples(st.integers(1, 4), st.integers(1, 5)),
                       elements=st.integers(-3, 3)),
       picks=st.lists(st.integers(0, 3), min_size=1, max_size=40))
@example(pool=np.array([[2]]), picks=[0])
@example(pool=np.array([[1, 0, 2]]), picks=[0])
@example(pool=np.array([[1], [0], [1]]), picks=[0, 1, 2, 1, 0])
def test_group_rows_matches_unique(pool, picks):
    keys = pool[[i % len(pool) for i in picks]]
    _check_grouping(keys)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 6))
def test_group_rows_matches_unique_on_translation_keys(ring, seed, count):
    rng = np.random.default_rng(seed)
    for K in sorted({1, ring.N, int(rng.integers(1, ring.N + 1))}):
        _check_grouping(translation_keys(_candidates(ring, K, count, rng),
                                         ring.lengths))


def _oracle_cases():
    for ring in RINGS:
        for K in range(1, ring.N + 1):
            if (math.comb(ring.N, K) <= ORACLE_CANDIDATES
                    and ring.field.q ** K <= DEFAULT_BUDGET):
                yield pytest.param(ring, K, id=f"{IDS[RINGS.index(ring)]}-K{K}")


@pytest.mark.parametrize("ring, K", _oracle_cases())
def test_search_rows_hold_sorted_index_tuples(ring, K):
    rows = search(ring, K)
    for r in rows:
        S = r.defining_set
        assert type(S) is tuple and len(S) == K
        assert all(type(idx) is tuple and len(idx) == ring.r for idx in S)
        assert all(a < b for a, b in zip(S, S[1:]))
    for r in rows[:3]:
        assert construct(ring, r.defining_set).defining_set == r.defining_set


@pytest.mark.parametrize("ring, K", _oracle_cases())
def test_search_matches_every_candidate_oracle(ring, K):
    rows = search(ring, K)
    assert ranked(rows) == ranked(construct_every_candidate_search(ring, K))
    assert all(r.K == K for r in rows)


@pytest.mark.parametrize("ring, K", _oracle_cases())
def test_search_matches_translation_class_oracle(ring, K):
    assert ranked(search(ring, K)) == ranked(translation_class_search(ring, K))


@pytest.mark.parametrize("ring, K", _oracle_cases())
def test_sampled_search_matches_translation_class_oracle(ring, K, monkeypatch):
    total = math.comb(ring.N, K)
    monkeypatch.setattr(codes, "EXHAUSTIVE_LIMIT", total - 1)
    monkeypatch.setattr(codes, "SAMPLES", max(1, total // 2))
    rows = search(ring, K, seed=K)
    assert len(rows) == max(1, total // 2)
    assert ranked(rows) == ranked(translation_class_search(ring, K, seed=K))


# rings where the class pass over the translation classes overflows one
# block, so that `search` also groups by monomial automorphisms
@pytest.mark.parametrize("p, m, lengths, K", [
    (7, 1, (6, 6), 3), (5, 1, (4, 4), 4), (3, 1, (2, 2, 2, 2), 6),
    (3, 2, (8, 8), 2), (5, 1, (4, 2, 2), 4), (7, 1, (3, 3, 3), 3)])
def test_monomial_classes_match_translation_class_oracle(p, m, lengths, K):
    ring = Ring(Field(p, m), lengths)
    assert ranked(search(ring, K)) == ranked(translation_class_search(ring, K))


@pytest.mark.parametrize("p, lengths, K, seed, translation_classes, classes", [
    (7, (6, 6), 3, 0, 201, 40), (5, (4, 4), 4, 0, 122, 33),
    (5, (4, 4), 7, 0, 715, 122), (17, (16, 16), 3, 3, 6_533, 212)],
    ids=["q7-6x6-K3", "q5-4x4-K4", "q5-4x4-K7", "q17-16x16-K3-sampled"])
def test_search_weighs_one_row_per_monomial_class(p, lengths, K, seed,
                                                 translation_classes, classes,
                                                 monkeypatch):
    ring = Ring(Field(p), lengths)
    weighed = []

    def counting_pass(ring, sets):
        weighed.extend(sets.tolist())
        return class_distances(ring, sets)

    monkeypatch.setattr(codes, "class_distances", counting_pass)
    rows = search(ring, K, seed=seed)
    assert len(weighed) == classes
    # one set per monomial class, and the translation classes they stand for
    assert len({monomial_key([tuple(x) for x in S], lengths)
                for S in weighed}) == classes
    assert len({translation_key(r.defining_set, lengths)
                for r in rows}) == translation_classes


# past the block gate the group key runs only while keying a class, K
# translates of K r entries per group element, costs less than weighing
# it: on 2^8 / GF(3) the 40,320 axis permutations would cost far more
# than the 255 translation classes take to weigh
@pytest.mark.parametrize("lengths, K, keyed, classes", [
    ((2,) * 8, 2, False, 255), ((2,) * 5, 5, False, 5_060),
    ((2,) * 4, 5, False, 273), ((2,) * 4, 6, True, 50)],
    ids=["2^8-K2", "2^5-K5-sampled", "2^4-K5", "2^4-K6"])
def test_search_keys_the_group_only_when_it_is_cheaper(lengths, K, keyed,
                                                       classes, monkeypatch):
    ring = Ring(Field(3), lengths)
    weighed, keys = [], []

    def counting_pass(ring, sets):
        weighed.extend(sets.tolist())
        return class_distances(ring, sets)

    def counting_keys(cands, lengths):
        keys.append(len(cands))
        return monomial_keys(cands, lengths)

    monkeypatch.setattr(codes, "class_distances", counting_pass)
    monkeypatch.setattr(codes, "monomial_keys", counting_keys)
    rows = search(ring, K)
    assert bool(keys) == keyed
    assert len(weighed) == classes
    translation_classes = {translation_key(r.defining_set, lengths)
                           for r in rows}
    assert len(translation_classes) == (keys[0] if keyed else classes)


def test_automorphisms_are_counted_without_listing_them():
    # 9! = 362,880 axis permutations of 2^9, about 47 MB as tuples
    tracemalloc.start()
    try:
        count, elements = codes._automorphisms((2,) * 9)
        first = next(elements)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == math.factorial(9)
    assert first == (tuple(range(9)), (1,) * 9)
    assert peak < 2 ** 20


def test_sampled_search_matches_oracle(ring3, monkeypatch):
    monkeypatch.setattr(codes, "EXHAUSTIVE_LIMIT", 10)
    monkeypatch.setattr(codes, "SAMPLES", 30)
    for K in (3, 4, 5):
        rows = search(ring3, K, seed=K)
        assert len(rows) == 30
        assert ranked(rows) == ranked(
            construct_every_candidate_search(ring3, K, seed=K))


def test_search_weighs_one_row_per_class_and_constructs_nothing(ring3,
                                                                monkeypatch):
    built, weighed = [], []

    def counting_construct(ring, seeds, budget=DEFAULT_BUDGET):
        built.append(sorted(seeds))
        return construct(ring, seeds, budget=budget)

    def counting_pass(ring, sets):
        weighed.extend(sets.tolist())
        return class_distances(ring, sets)

    monkeypatch.setattr(codes, "construct", counting_construct)
    monkeypatch.setattr(codes, "class_distances", counting_pass)
    rows = search(ring3, 3)
    assert len(rows) == 56
    assert built == []
    # the 56 3-subsets of the 2x2x2 box fall into 7 translation classes
    assert len(weighed) == 7
    assert len({translation_key([tuple(x) for x in S], ring3.lengths)
                for S in weighed}) == 7


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_class_distances_match_construct(ring, data):
    q = ring.field.q
    # K = N where q^N is in reach, else the largest K that is
    K_max = max(k for k in range(1, ring.N + 1) if q ** k <= CLASS_CODEWORDS)
    for K in sorted({1, K_max, data.draw(st.integers(1, K_max), label="K")}):
        sets = data.draw(st.lists(
            st.lists(st.sampled_from(ring.monomials), min_size=K, max_size=K,
                     unique=True), min_size=1, max_size=4), label="sets")
        got = class_distances(ring, np.array(sets, dtype=np.int64))
        assert got.tolist() == [construct(ring, S).d for S in sets]
        if math.comb(ring.N, K) <= ORACLE_CANDIDATES:
            assert ranked(search(ring, K)) == ranked(
                construct_every_candidate_search(ring, K))


def test_class_blocks_bound_memory(monkeypatch):
    # 12x12 / GF(13), K = 5: (13^5 - 1)/12 = 30,941 messages of length 144,
    # 4.5 million codeword entries (35 MB of int64) for each class
    ring = Ring(Field(13), (12, 12))
    monkeypatch.setattr(codes, "SAMPLES", 3)
    tracemalloc.start()
    try:
        rows = search(ring, 5, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3
    assert peak < 16 * 2 ** 20
    assert [r.d for r in rows] == [
        construct(ring, r.defining_set).d for r in rows]


def _sets_of(ring, K, picks):
    """The K-subsets at the given positions of the combinations of the box."""
    combos = list(itertools.islice(itertools.combinations(ring.monomials, K),
                                   max(picks) + 1))
    return np.array([combos[i] for i in picks], dtype=np.int64)


def _counting_messages(monkeypatch):
    calls = []
    real = codes._projective_messages

    def counting(q, K, lo, hi):
        calls.append((lo, hi))
        return real(q, K, lo, hi)
    monkeypatch.setattr(codes, "_projective_messages", counting)
    return calls


def test_class_pass_forms_the_messages_once(monkeypatch):
    # 4x4 / GF(5), K = 7: 19,531 messages of 7 digits, over one block
    # but under one table, are formed once for every class
    ring = Ring(Field(5), (4, 4))
    calls = _counting_messages(monkeypatch)
    d = class_distances(ring, _sets_of(ring, 7, [0, 100, 2000]))
    assert calls == [(0, (5 ** 7 - 1) // 4)]
    assert d.tolist() == [construct(ring, S).d
                          for S in _sets_of(ring, 7, [0, 100, 2000]).tolist()]


def _tile_once(calls, P, span):
    """The (lo, hi) message ranges cover [0, P) once, in order, with at
    most span messages each."""
    return (calls[0][0] == 0 and calls[-1][1] == P
            and all(hi == lo for (_, hi), (lo, _) in zip(calls, calls[1:]))
            and all(0 < hi - lo <= span for lo, hi in calls))


def test_class_pass_chunks_the_messages_past_the_table_limit(monkeypatch):
    # 156 messages of 4 digits exceed a table limit of 100, so they are
    # formed in tables of 100 // 4 = 25, each once for all 4 classes;
    # the K x N = 64 tables stay under it
    ring = Ring(Field(5), (4, 4))
    sets = _sets_of(ring, 4, [0, 7, 300, 1000])
    whole = class_distances(ring, sets)
    calls = _counting_messages(monkeypatch)
    monkeypatch.setattr(codes, "TABLE_LIMIT", 100)
    monkeypatch.setattr(codes, "CLASS_BLOCK", 40 * ring.N)
    assert class_distances(ring, sets).tolist() == whole.tolist()
    assert _tile_once(calls, (5 ** 4 - 1) // 4, 100 // 4)


def test_class_pass_message_tables_stay_under_the_table_limit(monkeypatch):
    # 2x2x2x2 / GF(3), K = 12: 265,720 messages of 12 digits are 3,188,640
    # digits, over TABLE_LIMIT, so they come in 4 tables, each formed once
    ring = Ring(Field(3), (2, 2, 2, 2))
    sets = _sets_of(ring, 12, [0])
    calls = _counting_messages(monkeypatch)
    d = class_distances(ring, sets)
    P = (3 ** 12 - 1) // 2
    assert P * 12 > codes.TABLE_LIMIT
    assert len(calls) == 4 and _tile_once(calls, P, codes.TABLE_LIMIT // 12)
    assert d.tolist() == [construct(ring, sets[0].tolist()).d]


def test_search_builds_no_orbits(monkeypatch):
    # the candidates are K-subsets of the index box: no Orbit is formed
    from multicyclic import orbits

    cases = [(Ring(Field(3), (2, 2, 2)), 3, 0, construct_every_candidate_search),
             (Ring(Field(7), (6, 6)), 3, 0, translation_class_search),
             (Ring(Field(17), (16, 16)), 3, 3, translation_class_search)]
    expected = [ranked(oracle(ring, K, seed=seed))
                for ring, K, seed, oracle in cases]

    def refuse(*args):
        raise AssertionError("search built an orbit")
    monkeypatch.setattr(orbits, "all_orbits", refuse)
    monkeypatch.setattr(orbits, "orbit_of", refuse)
    for (ring, K, seed, _), want in zip(cases, expected):
        assert ranked(search(ring, K, seed=seed)) == want


def test_class_pass_messages_in_bounded_memory():
    # K = 8: 97,656 messages of 8 digits, 6.25 MB of int64; the digits
    # are reduced in place, where one more temporary would pass 12.5 MB
    ring = Ring(Field(5), (4, 4))
    sets = _sets_of(ring, 8, [0, 500])
    tracemalloc.start()
    try:
        d = class_distances(ring, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert d.tolist() == [4, 6]


def test_monomial_keys_bound_memory(monkeypatch):
    # 16x16x16 / GF(17), K = 3: the group has 8^3 x 3! = 3,072 elements,
    # and the images of the ~200 translation classes under all of them at
    # once would take 3,072 x 200 x 3 x 3 int64, about 44 MB
    ring = Ring(Field(17), (16, 16, 16))
    monkeypatch.setattr(codes, "SAMPLES", 200)
    keyed = []
    real = codes.monomial_keys

    def recording(cands, lengths):
        keyed.append(cands.shape)
        return real(cands, lengths)

    monkeypatch.setattr(codes, "monomial_keys", recording)
    tracemalloc.start()
    try:
        rows = search(ring, 3, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes._automorphisms(ring.lengths)[0] == 3072
    assert len(keyed) == 1 and keyed[0][0] > 150
    # the whole stack of images is over four times the bound
    assert 3072 * keyed[0][0] * 3 * 3 * 8 > 4 * 8 * 2 ** 20
    assert peak < 8 * 2 ** 20
    assert len(rows) == 200
    assert rows[0].d == construct(ring, rows[0].defining_set).d


def test_search_rows_are_frozen(ring3):
    row = search(ring3, 3)[0]
    assert row == SearchRow(((0, 0, 0), (0, 0, 1), (0, 1, 0)), 3, 4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.d = 5


@pytest.mark.parametrize("lengths_p", [((2, 2, 2), 3), ((6, 6), 7)],
                         ids=["q3-2x2x2", "q7-6x6"])
def test_search_ranking_is_a_lazy_sequence(lengths_p):
    lengths, p = lengths_p
    ring = Ring(Field(p), lengths)
    rows = search(ring, 3)
    every = list(rows)
    assert len(rows) == len(every) == math.comb(ring.N, 3)
    assert rows[0] == every[0] and rows[-1] == every[-1]
    assert rows[len(rows) - 1] == every[-1] and rows[-len(rows)] == every[0]
    assert rows[:0] == []
    assert rows[:len(rows) + 10] == every
    assert rows[3:50:7] == every[3:50:7]
    assert rows[::-5] == every[::-5]
    for i in (len(rows), -len(rows) - 1):
        with pytest.raises(IndexError):
            rows[i]
    assert all(type(r) is SearchRow for r in every)
    with pytest.raises(dataclasses.FrozenInstanceError):
        every[-1].d = 0
    assert [(r.defining_set, r.K, r.d) for r in every] == [
        (rec.defining_set, rec.K, rec.d)
        for rec in construct_every_candidate_search(ring, 3)]


def test_search_memory_stays_in_arrays():
    # 7,140 candidates in 201 classes: forming every row up front peaked
    # at 2.1 MB, the ranked arrays alone at 1.3 MB
    ring = Ring(Field(7), (6, 6))
    tracemalloc.start()
    try:
        rows = search(ring, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 7140
    assert peak < 1.5 * 2 ** 20
