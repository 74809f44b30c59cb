"""The per-axis transform and transform-based multiplication against the
dense O(N^2) oracles in conftest, on random tensors, and the memory the
transform needs at N = 4096."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from multicyclic import Field, Ring, construct, fourier, fourier_inverse
from multicyclic.ring import Poly
from multicyclic.spectral import Spectrum

from conftest import (
    dense_fourier,
    dense_fourier_inverse,
    enumerate_rings,
    schoolbook_mul,
)

# a length-1 axis, and lengths in increasing order, on top of the family
RINGS = enumerate_rings() + [Ring(Field(3), (2, 1)), Ring(Field(5), (2, 4))]
IDS = [f"q{r.field.q}-{'x'.join(map(str, r.lengths))}" for r in RINGS]

oracle_settings = settings(max_examples=10, deadline=None)


def tensors(ring):
    return arrays(np.int64, ring.lengths,
                  elements=st.integers(0, ring.field.q - 1))


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@oracle_settings
@given(data=st.data())
def test_fourier_matches_dense_oracle(ring, data):
    f = Poly(ring, data.draw(tensors(ring)))
    assert fourier(f) == dense_fourier(f)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@oracle_settings
@given(data=st.data())
def test_fourier_inverse_matches_dense_oracle(ring, data):
    s = Spectrum(ring, data.draw(tensors(ring)))
    assert fourier_inverse(s) == dense_fourier_inverse(s)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@oracle_settings
@given(data=st.data())
def test_fourier_round_trip(ring, data):
    values = data.draw(tensors(ring))
    assert fourier_inverse(fourier(Poly(ring, values))) == Poly(ring, values)
    assert fourier(fourier_inverse(Spectrum(ring, values))) == Spectrum(ring, values)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@oracle_settings
@given(data=st.data())
def test_mul_matches_schoolbook_oracle(ring, data):
    a = Poly(ring, data.draw(tensors(ring)))
    b = Poly(ring, data.draw(tensors(ring)))
    assert a * b == schoolbook_mul(a, b)


@pytest.mark.parametrize("ring", RINGS, ids=IDS)
@oracle_settings
@given(data=st.data())
def test_batched_transform_equals_its_slices(ring, data):
    # leading axes are a batch: each slice is transformed on its own
    batch = data.draw(st.sampled_from([(1,), (3,), (2, 3)]), label="batch")
    values = data.draw(arrays(np.int64, batch + ring.lengths,
                              elements=st.integers(0, ring.field.q - 1)))
    for inverse in (False, True):
        got = ring.transform(values, inverse=inverse)
        assert got.shape == values.shape
        for at in np.ndindex(batch):
            assert np.array_equal(got[at], ring.transform(values[at], inverse=inverse))


def test_transform_memory_is_linear_at_n_4096():
    # dense N x N tables would take 128 MB each here
    tracemalloc.start()
    try:
        ring = Ring(Field(17), (16, 16, 16))
        rec = construct(ring, [(0, 0, 0), (1, 0, 0)])
        supports = [fourier(ring.from_vector(row)).support()
                    for row in rec.generator.array]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.params() == "[4096, 2, 3840]_17"
    assert all(set(s) <= {(0, 0, 0), (1, 0, 0)} for s in supports)
    assert peak < 16 * 2 ** 20
