"""Billiards on arrangements of linear subspaces.

Shortest polygonal paths with prescribed reflection itineraries, the
scattering relations they sweep out on the space of oriented lines, the
thickened deterministic billiard that approximates them, and the worked
origami and N-body examples.
"""

from .arrangement import (
    Arrangement,
    Itinerary,
    Subspace,
    load_arrangement,
    save_arrangement,
)
from .action import Chain, action, gradient, hessian, preconditioned_P
from .errors import (
    CornerCollision,
    InputError,
    MaxIterations,
    NonSmoothPoint,
    PreconditionError,
)
from .solver import (
    Classification,
    MinimizeResult,
    minimize,
)
from .trajectory import (
    BilliardTrajectory,
    OrientedLine,
    boundary_lines,
    is_generic,
    is_transverse,
    reflection_residual,
)
from .scattering import (
    AnchorGrid,
    RelationPatch,
    RelationSample,
    lagrangian_residual,
    legendrian_theta_residual,
    reduce_line,
    sample_relation,
)
from .thickened import (
    ThickenedTable,
    first_hit,
    minimize_thickened,
    r_family,
    simulate,
)
from .symmetry import (
    RotationGenerator,
    angular_momentum,
    conservation_report,
    translation_core,
)
from .origami import (
    itinerary_bound,
    law_of_sines_residual,
    search_realizable,
    unfold,
)
from .nbody import (
    NBodySystem,
    build_arrangement,
    cross_validate_slice,
    three_body_slice,
)

__all__ = [
    "AnchorGrid",
    "Arrangement",
    "BilliardTrajectory",
    "Chain",
    "Classification",
    "CornerCollision",
    "InputError",
    "Itinerary",
    "MaxIterations",
    "MinimizeResult",
    "NBodySystem",
    "NonSmoothPoint",
    "OrientedLine",
    "PreconditionError",
    "RelationPatch",
    "RelationSample",
    "RotationGenerator",
    "Subspace",
    "ThickenedTable",
    "action",
    "angular_momentum",
    "boundary_lines",
    "build_arrangement",
    "conservation_report",
    "cross_validate_slice",
    "first_hit",
    "gradient",
    "hessian",
    "is_generic",
    "is_transverse",
    "itinerary_bound",
    "lagrangian_residual",
    "law_of_sines_residual",
    "legendrian_theta_residual",
    "load_arrangement",
    "minimize",
    "minimize_thickened",
    "preconditioned_P",
    "r_family",
    "reduce_line",
    "reflection_residual",
    "sample_relation",
    "save_arrangement",
    "search_realizable",
    "simulate",
    "three_body_slice",
    "translation_core",
    "unfold",
]

__version__ = "0.1.0"
