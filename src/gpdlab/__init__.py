"""gpdlab: finite-groupoid workbench and Mellin symbol scanner.

Exact combinatorial groupoids, gluing, convolution *-algebras and
Fredholm-criterion checks at desk scale, together with a numerical
Mellin module deciding invertibility of boundary symbols for layer
potential operators on polygonal domains.
"""

__version__ = "0.1.0"


def _cap_blas_threads():
    # BLAS reads its thread count when numpy loads it, so GPDLAB_THREADS
    # must reach the environment before any submodule imports numpy.
    import os

    cap = os.environ.get("GPDLAB_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_blas_threads()

from .groupoid import (
    FiniteGroupoid,
    GroupTable,
    GroupoidError,
    OrbitPartition,
    UnitSubset,
    ValidationReport,
    build,
    build_action,
    build_disjoint_union,
    build_fibered_pullback,
    build_group_bundle,
    build_pair,
    build_product,
    find_group_isomorphism,
    is_invariant,
    orbits_and_isotropy,
    reduction,
    relabel,
    saturation,
    validate,
)
from .iso import are_isomorphic, check_isomorphism, find_isomorphism, is_pair_groupoid

__all__ = [
    "FiniteGroupoid",
    "GroupTable",
    "GroupoidError",
    "OrbitPartition",
    "UnitSubset",
    "ValidationReport",
    "build",
    "build_action",
    "build_disjoint_union",
    "build_fibered_pullback",
    "build_group_bundle",
    "build_pair",
    "build_product",
    "find_group_isomorphism",
    "is_invariant",
    "orbits_and_isotropy",
    "reduction",
    "relabel",
    "saturation",
    "validate",
    "are_isomorphic",
    "check_isomorphism",
    "find_isomorphism",
    "is_pair_groupoid",
    "__version__",
]
