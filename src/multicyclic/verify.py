"""The algebraic property suite, and the reference artifacts: the two
optimal [8, K, 4]_3 three-dimensional codes, the generating idempotent and
the 3x8 generator matrix of the K = 3 code."""

from __future__ import annotations

import random

import numpy as np

from .codes import _idempotent_rows, construct
from .gf import Field
from .orbits import closure, combinatorial_form
from .ring import Poly, Ring
from .spectral import fourier, fourier_inverse, idempotent_from_set

TRIALS = 100


def _first_failure(name, failures):
    """(name, ok, detail) from an iterable of failure details: the property
    holds when it is empty, else its first item is the detail; a lazy
    iterable is not checked past its first failure."""
    detail = next(iter(failures), None)
    return name, detail is None, detail or ""


def property_suite(ring: Ring, seed: int = 0):
    """Run the algebraic invariant suite; returns [(name, ok, detail)].

    All N primitive idempotents are one N x N table from the builder that
    `construct` uses (`codes._idempotent_rows`), so a ring with N^2 over
    `ring.TABLE_LIMIT` raises `RingTooLarge` before any table is built."""
    fld = ring.field
    rng = random.Random(seed)
    keys = ring.monomials
    E = _idempotent_rows(ring, np.array([keys]))[0]
    idems = {i: Poly(ring, e.reshape(ring.lengths)) for i, e in zip(keys, E)}
    total = sum(idems.values(), ring.zero())
    spectra = {i: fourier(e) for i, e in idems.items()}
    # e_a e_b is the inverse transform of the pointwise product of the two
    # spectra, zero exactly when their supports are disjoint: one matrix
    # product counts the shared support of every pair (exact in float32,
    # since N <= 1,024), and the upper triangle is read in pair order; it is
    # the package's one BLAS call, and runs on one OpenBLAS thread unless
    # the caller chose a count (see `multicyclic/__init__.py`)
    support = np.array([s.values.ravel() != 0 for s in spectra.values()],
                       dtype=np.float32)
    shared = np.argwhere(np.triu(support @ support.T, 1)).tolist()

    def round_trips():
        for _ in range(TRIALS):
            f = ring.random_poly(rng)
            if fourier_inverse(fourier(f)) != f:
                yield f"round trip failed for {f}"

    def convolutions():
        for _ in range(TRIALS):
            a = ring.random_poly(rng)
            b = ring.random_poly(rng)
            rhs = np.asarray(fld.mul(fourier(a).values, fourier(b).values))
            if not np.array_equal(fourier(a * b).values, rhs):
                yield f"convolution failed for {a} and {b}"

    def equivalences():
        for _ in range(TRIALS):
            seeds = rng.sample(ring.monomials, rng.randrange(ring.N + 1))
            S = closure(seeds, ring.lengths, fld.q)
            e = idempotent_from_set(ring, S)
            S2 = closure(list(combinatorial_form(e)), ring.lengths, fld.q)
            if S2 != S or idempotent_from_set(ring, S2) != e:
                yield f"round trip failed for seeds {sorted(seeds)}"

    return [
        _first_failure("idempotence", (
            f"e_{i}^2 != e_{i}" for i, e in idems.items() if e * e != e)),
        _first_failure("orthogonality", (
            f"e_{keys[a]} * e_{keys[b]} != 0" for a, b in shared)),
        _first_failure("partition_of_unity",
                       [] if total == ring.one() else [f"sum = {total}"]),
        _first_failure("delta_evaluation", (
            f"fourier(e_{i}) is not the delta at {i}" for i, s in spectra.items()
            if s.support() != [i] or s[i] != 1)),
        _first_failure("fourier_round_trip", round_trips()),
        _first_failure("convolution_property", convolutions()),
        _first_failure("equivalence_round_trip", equivalences()),
    ]


# -- reference artifacts (3-dimensional codes over GF(3)) -------------------

REFERENCE_IDEMPOTENT = "2x + 2y + xy + 2xz + 2yz + xyz"
REFERENCE_GENERATOR = [
    [0, 2, 2, 0, 1, 2, 2, 1],
    [2, 0, 1, 2, 2, 0, 1, 2],
    [2, 1, 0, 2, 2, 1, 0, 2],
]
REFERENCE_ROWS = [
    {"K": 3, "seeds": [(0, 0, 0), (1, 0, 0), (0, 1, 0)], "d": 4},
    {"K": 4, "seeds": [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)], "d": 4},
]


def reference_records() -> list:
    """The codes of `REFERENCE_ROWS`, built over GF(3) on lengths (2, 2, 2)."""
    ring = Ring(Field(3), (2, 2, 2))
    return [construct(ring, row["seeds"]) for row in REFERENCE_ROWS]


def reference_mismatches(records) -> list:
    """One message per computed artifact that differs from its reference."""
    out = [f"K={row['K']}: computed {rec.params()}, expected d={row['d']}"
           for row, rec in zip(REFERENCE_ROWS, records)
           if rec.K != row["K"] or rec.d != row["d"]]
    rec3 = records[0]
    if str(rec3.idempotent) != REFERENCE_IDEMPOTENT:
        out.append(f"idempotent: computed {rec3.idempotent}")
    if rec3.generator.array.tolist() != REFERENCE_GENERATOR:
        out.append(f"generator: computed {rec3.generator.array.tolist()}")
    return out
