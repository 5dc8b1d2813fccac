"""Exact-arithmetic analysis of interval translation maps.

Core pipeline: ``validate`` a map, ``compute_attractor`` its nested images,
``compute_return_map`` each component, ``build_vectors`` and check the
identities, ``build_ghost_graph`` for A3, ``stability_verdict`` for the
final call, ``perturbation_probe`` to cross-validate it empirically.
"""

__version__ = "0.1.0"

from .intervals import (
    EMPTY,
    MINUS,
    PLUS,
    EmptySetError,
    IntervalSet,
    SignedPoint,
    canonicalize,
    format_rational,
    hausdorff_closure_distance,
    interval,
    minus,
    parse_rational,
    plus,
    set_ops,
)
from .itm import (
    BadOrderError,
    BadTranslationError,
    ItmMap,
    MapFormatError,
    Precritical,
    Preperiodic,
    load_map,
    parse_map,
    validate,
)
from .kernel import NestingViolatedError, OffGridError
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
    TouchingViolatedError,
    classify_return_dynamics,
    compute_return_map,
    verify_touching_equations,
)
from .vectors import (
    CoefficientVector,
    IdentityViolatedError,
    build_vectors,
    check_lin_dep_pattern,
    product,
    verify_identities,
)
from .ghost import (
    A3Result,
    A3Witness,
    GhostGraph,
    build_ghost_graph,
    check_A3,
    ghost_preimages,
    ghost_tree,
)
from .stability import (
    DirectedPerturbation,
    FullAnalysis,
    NoValidSamplesError,
    NotRealizableDirectlyError,
    PerturbationSpec,
    ProbeResult,
    StabilityReport,
    a3_breaking_perturbation,
    apply_spec,
    check_A1,
    check_A2,
    check_matching,
    full_analysis,
    perturbation_probe,
    stability_verdict,
)
