import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import multicyclic
from multicyclic import Field, GfMatrix, rank
from multicyclic.linalg import pivot_columns
from conftest import DimensionMismatch, RowReducer, in_span, rref

REFERENCE_G = [
    [0, 2, 2, 0, 1, 2, 2, 1],
    [2, 0, 1, 2, 2, 0, 1, 2],
    [2, 1, 0, 2, 2, 1, 0, 2],
]


def random_matrix(field, rows, cols, rng):
    return GfMatrix(field, [[rng.randrange(field.q) for _ in range(cols)]
                            for _ in range(rows)])


def test_rref_identity(f5):
    M = GfMatrix(f5, np.eye(4, dtype=np.int64))
    R, rk, piv = rref(M)
    assert R == M and rk == 4 and piv == [0, 1, 2, 3]


def test_rref_zero(f5):
    M = GfMatrix(f5, np.zeros((3, 5), dtype=np.int64))
    R, rk, piv = rref(M)
    assert rk == 0 and piv == [] and R == M


def test_reference_generator_rank_three(f3):
    M = GfMatrix(f3, REFERENCE_G)
    assert rank(M) == 3
    # oracle: of all 27 row combinations only the zero one vanishes
    vanishing = 0
    for a, b, c in itertools.product(range(3), repeat=3):
        combo = [(a * x + b * y + c * z) % 3
                 for x, y, z in zip(*REFERENCE_G)]
        if not any(combo):
            vanishing += 1
    assert vanishing == 1


def test_rref_idempotent(f3, f9):
    rng = random.Random(20)
    for field in (f3, f9):
        for _ in range(20):
            M = random_matrix(field, rng.randrange(1, 6), rng.randrange(1, 6), rng)
            R, rk, _ = rref(M)
            R2, rk2, _ = rref(R)
            assert R2 == R and rk2 == rk


def test_rank_invariant_under_row_permutation(f5):
    rng = random.Random(21)
    for _ in range(20):
        M = random_matrix(f5, 5, 7, rng)
        perm = list(range(5))
        rng.shuffle(perm)
        P = GfMatrix(f5, M.array[perm])
        assert rank(P) == rank(M)


def test_in_span_trivial(f3):
    M = GfMatrix(f3, REFERENCE_G)
    alpha = in_span(M.array[0], M)
    assert alpha.tolist() == [1, 0, 0]
    zero = in_span(np.zeros(8, dtype=np.int64), M)
    assert zero.tolist() == [0, 0, 0]


def test_in_span_recombines(f3, f9):
    rng = random.Random(22)
    for field in (f3, f9):
        for _ in range(30):
            M = random_matrix(field, rng.randrange(1, 5), 6, rng)
            coeffs = [rng.randrange(field.q) for _ in range(M.rows)]
            v = np.zeros(6, dtype=np.int64)
            for c, row in zip(coeffs, M.array):
                v = np.asarray(field.add(v, field.mul(c, row)))
            alpha = in_span(v, M)
            assert alpha is not None
            back = np.zeros(6, dtype=np.int64)
            for c, row in zip(alpha, M.array):
                back = np.asarray(field.add(back, field.mul(int(c), row)))
            assert np.array_equal(back, v)


def test_in_span_rejects_outside_vector(f3):
    M = GfMatrix(f3, [[1, 0, 0], [0, 1, 0]])
    assert in_span(np.array([0, 0, 1]), M) is None


def test_in_span_dimension_mismatch(f3):
    M = GfMatrix(f3, [[1, 0, 0]])
    with pytest.raises(DimensionMismatch):
        in_span(np.array([1, 0]), M)


def test_row_reducer_matches_rref_rank(f5):
    rng = random.Random(23)
    for _ in range(30):
        M = random_matrix(f5, rng.randrange(1, 7), rng.randrange(1, 7), rng)
        red = RowReducer(f5, M.cols)
        for row in M.array:
            red.add(row)
        assert red.rank == rank(M)
        kept = GfMatrix(f5, np.array(red.rows, dtype=np.int64).reshape(red.rank, M.cols))
        for row in M.array:
            assert in_span(row, kept) is not None


# prime, characteristic 2 and odd extension fields
ORACLE_FIELDS = [Field(5), Field(2, 3), Field(3, 2), Field(2, 4), Field(17)]


@st.composite
def deficient_matrices(draw):
    """Up to 6 x 10 over an oracle field, likely rank deficient: a product
    of factors through up to 6 dimensions, maybe its rows drawn with
    repeats, maybe some columns zeroed."""
    fld = draw(st.sampled_from(ORACLE_FIELDS))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 10))
    inner = draw(st.integers(0, 6))
    entries = st.integers(0, fld.q - 1)
    L = draw(hnp.arrays(np.int64, (rows, inner), elements=entries, fill=st.nothing()))
    R = draw(hnp.arrays(np.int64, (inner, cols), elements=entries, fill=st.nothing()))
    A = np.asarray(fld.dot(L, R), dtype=np.int64).reshape(rows, cols)
    if draw(st.booleans()):
        A = A[draw(st.lists(st.integers(0, max(rows - 1, 0)), min_size=rows, max_size=rows))]
    if draw(st.booleans()):
        A[:, draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=min(cols, 3)))] = 0
    return GfMatrix(fld, A)


@settings(max_examples=300, deadline=None)
@given(M=deficient_matrices())
def test_pivot_columns_match_rref(M):
    before = M.array.copy()
    with mock.patch.object(M.field, "inv", wraps=M.field.inv) as inv:
        _, rk, pivots = rref(M)
        assert pivot_columns(M) == pivots
    # the same pivot entries: rows below a pivot reduce as under rref
    inverted = [call.args[0] for call in inv.call_args_list]
    assert inverted == 2 * inverted[:rk]
    assert rank(M) == rk
    assert np.array_equal(M.array, before)


def test_public_api_resolves_without_rref():
    for name in multicyclic.__all__:
        assert getattr(multicyclic, name) is not None
    assert "rref" not in multicyclic.__all__
    assert not hasattr(multicyclic, "rref")
    assert not hasattr(multicyclic.linalg, "rref")


def test_oracle_only_names_left_the_library():
    # the spectral k profile and DimensionMismatch live in conftest
    assert "k_profile" not in multicyclic.__all__
    assert not hasattr(multicyclic, "k_profile")
    assert not hasattr(multicyclic.codes, "k_profile")
    assert not hasattr(multicyclic.codes, "fourier")
    assert not hasattr(multicyclic.errors, "DimensionMismatch")
