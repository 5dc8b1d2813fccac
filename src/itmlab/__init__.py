"""Exact-arithmetic analysis of interval translation maps.

Core pipeline: ``validate`` a map, ``compute_attractor`` its nested images,
``compute_return_map`` each component, ``build_vectors`` and check the
identities, ``build_ghost_graph`` for A3, ``full_analysis`` for the
verdicts and the final call (``FullAnalysis.stable``),
``perturbation_probe`` to cross-validate it empirically.
"""

__version__ = "0.1.0"

from .intervals import (
    MINUS,
    PLUS,
    EmptySetError,
    IntervalSet,
    InvariantError,
    SignedPoint,
    canonicalize,
    interval,
    minus,
    parse_rational,
    plus,
)
from .itm import (
    BadOrderError,
    BadTranslationError,
    ItmMap,
    MapFormatError,
    parse_map,
    validate,
)
from .kernel import OffGridError, hausdorff_closure_distance
from .attractor import (
    AttractorResult,
    NotFiniteTypeError,
    compute_attractor,
    image,
    nonwandering_witness,
    orbit_closure,
)
from .return_map import (
    NotAComponentError,
    ReturnMapData,
    classify_return_dynamics,
    compute_return_map,
    verify_touching_equations,
)
from .vectors import (
    CoefficientVector,
    build_vectors,
    check_lin_dep_pattern,
    verify_identities,
)
from .ghost import (
    A3Witness,
    DepthBoundError,
    GhostGraph,
    Verdict,
    build_ghost_graph,
    check_A3,
    ghost_tree,
)
from .stability import (
    DirectedPerturbation,
    FullAnalysis,
    NoValidSamplesError,
    NotRealizableDirectlyError,
    PerturbationSpec,
    ProbeResult,
    a3_breaking_perturbation,
    apply_spec,
    check_A1,
    check_A2,
    check_matching,
    full_analysis,
    perturbation_probe,
)
