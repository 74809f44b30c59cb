"""Frobenius action on multi-indices and cyclotomic orbits.

The action multiplies every coordinate by q modulo its axis length.
Under the standing condition n_t | q-1 every orbit is a singleton, so
the functions take the multiplier explicitly: this keeps the machinery
exercisable with nontrivial orbits (subfield-style actions such as
multiplier 2 on length 7) and is what `combinatorial_form` uses to
check orbit-constancy of spectra.

A defining set, a union of orbits, is the sorted tuple of its index
tuples: `closure` returns that form, and every code record, search row
and printed form reads it in that order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NotIdempotent, NotOrbitConstant
from .ring import Poly


@dataclass(frozen=True)
class Orbit:
    representative: tuple
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


def _check_box(idx, lengths):
    idx = tuple(int(i) for i in idx)
    if len(idx) != len(lengths) or any(
            not 0 <= i < n for i, n in zip(idx, lengths)):
        raise IndexOutOfRange(f"index {idx} outside box {lengths}")
    return idx


def frobenius(idx, lengths, multiplier: int):
    """sigma(i_1,...,i_r) = (multiplier * i_t mod n_t)_t."""
    idx = _check_box(idx, lengths)
    return tuple((multiplier * i) % n for i, n in zip(idx, lengths))


def orbit_of(idx, lengths, multiplier: int) -> Orbit:
    idx = _check_box(idx, lengths)
    cycle = [idx]
    cur = frobenius(idx, lengths, multiplier)
    while cur != idx:
        cycle.append(cur)
        cur = frobenius(cur, lengths, multiplier)
    rep = min(cycle)
    at = cycle.index(rep)
    members = tuple(cycle[at:] + cycle[:at])
    return Orbit(representative=rep, members=members)


def all_orbits(lengths, multiplier: int) -> list[Orbit]:
    """Partition of the index box into orbits, ordered by representative."""
    seen = set()
    orbits = []
    for idx in itertools.product(*(range(n) for n in lengths)):
        if idx in seen:
            continue
        orb = orbit_of(idx, lengths, multiplier)
        seen.update(orb.members)
        orbits.append(orb)
    orbits.sort(key=lambda o: o.representative)
    return orbits


def closure(seeds, lengths, multiplier: int) -> tuple:
    """Union of the orbits of all seeds, as the sorted tuple of its indices."""
    indices = set()
    for idx in seeds:
        indices.update(orbit_of(idx, lengths, multiplier).members)
    return tuple(sorted(indices))


def combinatorial_form(e: Poly, multiplier: int | None = None) -> dict:
    """Orbit representatives of the spectral support of an idempotent.

    The spectrum must be 0/1-valued (NotIdempotent otherwise) and constant
    on orbits of the given multiplier (NotOrbitConstant otherwise).  Returns
    {representative: 1} for every orbit on which the spectrum is 1; with
    `idempotent_from_set` over the closure this forms a round-trip.
    """
    ring = e.ring
    if multiplier is None:
        multiplier = ring.field.q
    vals = ring.transform(e.coeffs)
    bad = [tuple(j) for j in np.argwhere((vals != 0) & (vals != 1)).tolist()]
    if bad:
        raise NotIdempotent(
            f"spectrum value {int(vals[bad[0]])} at {bad[0]} is outside {{0, 1}}")
    out = {}
    for orb in all_orbits(ring.lengths, multiplier):
        values = {int(vals[m]) for m in orb.members}
        if len(values) != 1:
            raise NotOrbitConstant(
                f"spectrum not constant on orbit of {orb.representative}")
        if values == {1}:
            out[orb.representative] = 1
    return out
