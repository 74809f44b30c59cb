"""Multicyclic code construction over finite fields via tensor-product
primitive idempotents and cyclotomic orbits."""

import os

# The arithmetic is exact int64 and makes no BLAS call but `verify`'s one
# float32 product, so numpy's OpenBLAS starts with one thread, not an idle
# pool that spins through a short run.  OpenBLAS reads the variable once,
# when `.codes` first loads numpy; a count the caller set is kept, and the
# environment is restored after the imports.
_cap_blas = "OPENBLAS_NUM_THREADS" not in os.environ
if _cap_blas:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
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
finally:
    if _cap_blas:
        del os.environ["OPENBLAS_NUM_THREADS"]

__all__ = [
    "CodeRecord", "Field", "GfMatrix", "Orbit", "Poly",
    "Ring", "SearchRow", "Spectrum", "all_orbits", "closure", "combinatorial_form",
    "construct", "fourier", "fourier_inverse", "frobenius",
    "idempotent_from_set", "orbit_distance", "orbit_of",
    "primitive_idempotent", "product_bound", "rank", "search",
    "theta", "weight_distribution",
]

__version__ = "0.1.0"
