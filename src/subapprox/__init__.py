"""Diophantine approximation of subspaces: heights, Plucker coordinates,
canonical angles, height-bounded enumeration and constructive approximation
procedures, all verifiable at desk scale.

The names below are the library API: the types a caller builds or catches,
and the entry points of the constructions.  Everything else is reached
through its module."""

__version__ = "0.1.0"

from .exact import PluckerVec, wedge_plucker
from .angles import PrecisionError, RealSubspace, canonical_angles
from .grassmann import (
    RationalSubspace,
    from_generators,
    from_plucker,
    parse_key,
    real_view,
    refine_psi,
)
from .enumeration import enumerate_subspaces, estimate_exponent, scan_target
from .witness import (
    lower_bound_check,
    r4_irrationality_certificate,
    r5_trivial_solution_search,
    witness_r4,
    witness_r5,
)
from .dirichlet import (
    build_approximant,
    flag_basis,
    going_up_search,
    simultaneous_approx,
)
