"""Diophantine approximation of subspaces: heights, Plucker coordinates,
canonical angles, height-bounded enumeration and constructive approximation
procedures, all verifiable at desk scale."""

__version__ = "0.1.0"

from .exact import PluckerVec, gram_det_sq, normalize_plucker, wedge_plucker
from .angles import (
    AngleProfile,
    PrecisionError,
    RealSubspace,
    canonical_angles,
    phi,
    phi_via_det,
    principal_pairs,
    sin_angle,
)
from .grassmann import (
    RationalSubspace,
    from_generators,
    from_plucker,
    parse_key,
    plucker_relations_check,
    real_view,
)
from .enumeration import (
    ApproximationRecord,
    Enumeration,
    ExponentEstimate,
    ScanResult,
    enumerate_subspaces,
    estimate_exponent,
    plucker_sweep_count_4_2,
    scan_target,
)
from .witness import (
    LowerBoundReport,
    WitnessSpec,
    lower_bound_check,
    r4_irrationality_certificate,
    r5_trivial_solution_search,
    witness_r4,
    witness_r5,
)
from .dirichlet import (
    DirichletApproximant,
    FlagBasis,
    build_approximant,
    direct_sum_angle_bound,
    flag_basis,
    going_up_search,
    line_decomposition,
    simultaneous_approx,
    unit_chord_bound,
)
