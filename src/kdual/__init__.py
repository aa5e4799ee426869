"""kdual: exact computations in involutive equivariant cohomology and
K-theory, including the T-duality transform for Real circle bundles."""

from importlib import import_module

from .graded_algebra import (
    EQ,
    PM,
    Degree,
    GeneratorSpec,
    PresentedRing,
    RingElement,
    degree_component,
    verify_ring_hom,
)
from .paper_rings import (
    OracleValue,
    build_ring,
    dictionary,
    f_oracle,
    verify_f_injective,
    verify_relation_via_oracle,
)
from .expressions import ParseError, parse_expression

# Names from the other modules resolve on first use (PEP 562), so that
# `import kdual` loads only the rings, their rewriting, the oracle and the
# expression parser; the linear algebra loads when a name of it is read.
_LAZY = {
    "exact_abelian": ("ClassificationError", "FGAbelianGroup", "IntegerMatrix", "RModule",
                      "SmithDecomposition", "cokernel", "rmodule_classify",
                      "smith_normal_form"),
    "transforms": ("GradedGroupTable", "group_cohomology_z2", "gysin_cohomology",
                   "kunneth_split", "pushforward_torus2", "t_power_table",
                   "t_transform"),
    "tduality": ("Pair", "RealCircleBundle", "TDualResult", "TwistedKTable",
                 "enumerate_pair_classes", "gauge_orbit", "tdual", "twisted_k_mv",
                 "verify_theorem_T"),
    "suites": ("Report", "run_suite"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "ClassificationError", "FGAbelianGroup", "IntegerMatrix", "RModule",
    "SmithDecomposition", "cokernel", "rmodule_classify", "smith_normal_form",
    "EQ", "PM", "Degree", "GeneratorSpec", "PresentedRing", "RingElement",
    "degree_component", "verify_ring_hom",
    "OracleValue", "build_ring", "dictionary", "f_oracle",
    "verify_f_injective", "verify_relation_via_oracle",
    "ParseError", "parse_expression",
    "GradedGroupTable", "group_cohomology_z2", "gysin_cohomology",
    "kunneth_split", "pushforward_torus2", "t_power_table", "t_transform",
    "Pair", "RealCircleBundle", "TDualResult", "TwistedKTable",
    "enumerate_pair_classes", "gauge_orbit", "tdual", "twisted_k_mv",
    "verify_theorem_T",
    "Report", "run_suite",
]
