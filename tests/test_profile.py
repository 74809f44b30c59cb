"""The k profile read off the spectrum and the character-pivot basis against
the rank-scan oracles in conftest, on random defining sets and random
non-idempotent elements over every ring of the family, and the record of
`construct`, read off the table of primitive idempotents, against the
shifted copies of e."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicyclic import (
    Field,
    Ring,
    construct,
    fourier_inverse,
    idempotent_from_set,
    rank,
)
from multicyclic.codes import BASIS_BOX
from multicyclic.spectral import Spectrum

from conftest import (
    enumerate_rings,
    generator_matrix,
    k_profile,
    rank_scan_k_profile,
    rolled_build_basis,
    scan_build_basis,
    table_build_basis,
    two_branch_build_basis,
)

RINGS = enumerate_rings()
IDS = [f"q{r.field.q}-{'x'.join(map(str, r.lengths))}" for r in RINGS]

oracle_settings = settings(max_examples=5, deadline=None)


def defining_sets(ring):
    return st.lists(st.sampled_from(ring.monomials), min_size=1,
                    max_size=ring.N, unique=True)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@oracle_settings
@given(data=st.data())
def test_k_profile_matches_rank_scan_oracle(ring, data):
    S = data.draw(defining_sets(ring))
    e = idempotent_from_set(ring, S)
    assert k_profile(e) == rank_scan_k_profile(e)
    # the same spectral support with arbitrary nonzero values: not idempotent
    values = np.zeros(ring.lengths, dtype=np.int64)
    for idx in S:
        values[idx] = data.draw(st.integers(1, ring.field.q - 1))
    f = fourier_inverse(Spectrum(ring, values))
    assert k_profile(f) == rank_scan_k_profile(f)
    # a random coefficient tensor
    coeffs = data.draw(st.lists(st.integers(0, ring.field.q - 1),
                                min_size=ring.N, max_size=ring.N))
    g = ring.from_vector(coeffs)
    if not g.is_zero():
        assert k_profile(g) == rank_scan_k_profile(g)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@oracle_settings
@given(data=st.data())
def test_build_basis_matches_two_branch_oracle(ring, data):
    S = data.draw(defining_sets(ring))
    e = idempotent_from_set(ring, S)
    kp = k_profile(e)
    G, kind = table_build_basis(ring, S, kp)
    basis, oracle_kind = two_branch_build_basis(e, len(S), kp)
    assert (G, kind) == (generator_matrix(basis, ring), oracle_kind)
    assert rank(G) == len(S)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@oracle_settings
@given(data=st.data())
def test_construct_matches_rolled_copies_of_e(ring, data):
    one = [data.draw(st.sampled_from(ring.monomials))]
    for S in (one, ring.monomials, data.draw(defining_sets(ring))):
        rec = construct(ring, S, budget=0)
        e = idempotent_from_set(ring, S)
        kp = k_profile(e)
        basis, kind = rolled_build_basis(e, S, kp)
        assert rec.generator == generator_matrix(basis, ring)
        assert rec.basis_kind == kind
        assert rec.idempotent == e
        assert rec.k_profile == k_profile(rec.idempotent) == kp


# every ring of the family and two with four axes
SCAN_RINGS = RINGS + [Ring(Field(3), (2, 2, 2, 2)), Ring(Field(3, 2), (4, 2, 2, 2))]
SCAN_IDS = IDS + ["q3-2x2x2x2", "q9-4x2x2x2"]


def box_sets(ring):
    """Products of nonempty per-axis subsets: prod(k_t) = K, a box basis."""
    axes = [st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
            for n in ring.lengths]
    return st.tuples(*axes).map(lambda proj: list(itertools.product(*proj)))


@pytest.mark.parametrize("ring", SCAN_RINGS, ids=SCAN_IDS)
@oracle_settings
@given(data=st.data())
def test_build_basis_matches_scan_oracle(ring, data):
    kinds = []
    for S in (data.draw(box_sets(ring)), data.draw(defining_sets(ring))):
        e = idempotent_from_set(ring, S)
        kp = k_profile(e)
        G, kind = table_build_basis(ring, S, kp)
        basis, oracle_kind = scan_build_basis(e, len(S), kp)
        assert (G, kind) == (generator_matrix(basis, ring), oracle_kind)
        kinds.append(kind)
    assert kinds[0] == BASIS_BOX
