"""Multicyclic code construction over finite fields via tensor-product
primitive idempotents and cyclotomic orbits."""

from .codes import (
    CodeRecord,
    SearchRow,
    construct,
    orbit_distance,
    product_bound,
    search,
    weight_distribution,
)
from .gf import Field
from .linalg import GfMatrix, rank
from .orbits import (
    Orbit,
    all_orbits,
    closure,
    combinatorial_form,
    frobenius,
    orbit_of,
)
from .ring import Poly, Ring
from .spectral import (
    Spectrum,
    fourier,
    fourier_inverse,
    idempotent_from_set,
    primitive_idempotent,
    theta,
)

__all__ = [
    "CodeRecord", "Field", "GfMatrix", "Orbit", "Poly",
    "Ring", "SearchRow", "Spectrum", "all_orbits", "closure", "combinatorial_form",
    "construct", "fourier", "fourier_inverse", "frobenius",
    "idempotent_from_set", "orbit_distance", "orbit_of",
    "primitive_idempotent", "product_bound", "rank", "search",
    "theta", "weight_distribution",
]

__version__ = "0.1.0"
