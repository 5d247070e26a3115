"""fslab: coefficient-functional bounds for a family of close-to-convex
function classes, extremal witnesses, and randomized verification.

See :mod:`fslab.members` for the class definition, :mod:`fslab.bounds` for the
closed-form bounds (including the validity caveat on the piecewise real-mu
value), :mod:`fslab.extremal` for the witnesses that attain them, and
:mod:`fslab.search` for the independent numerical check.
"""

from .bounds import (
    BoundReport,
    KM_SIGN_NOTE,
    REDUCTION_PRESETS,
    bound_complex,
    bound_real,
    bound_sharp,
    branch_value,
    breakpoints,
    caratheodory_bound,
    classical_s_bound,
    coeff_bounds,
    psi,
    reduction_bound,
    starlike_fs_bound,
)
from .errors import (
    CaseRangeError,
    DomainError,
    FslabError,
    NearSingular,
    ViolationError,
)
from .extremal import (
    ExtremalConfig,
    extremal_config,
    extremal_member,
    libera_transform,
    sharp_witness,
    sharpness_residual,
    transform_spotcheck,
)
from .members import (
    ClassMember,
    ClassParams,
    HerglotzMeasure,
    denominators,
    fs_functional,
    herglotz_coeffs,
    member_from_pq,
    membership_spotcheck,
    rotate,
    shift_measure,
    starlike_from_q,
)
from .search import (
    SearchBudget,
    SearchResult,
    VerificationReport,
    maximize_fs,
    sample_measure,
    verify_inequality,
)
from .series import (
    DEFAULT_ORDER,
    PowerSeries,
    TOL_DIV,
    ps_derivative,
    ps_div,
    ps_linear,
    ps_mul,
    ps_shift,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CaseRangeError",
    "ClassMember",
    "ClassParams",
    "DEFAULT_ORDER",
    "DomainError",
    "ExtremalConfig",
    "FslabError",
    "HerglotzMeasure",
    "KM_SIGN_NOTE",
    "NearSingular",
    "PowerSeries",
    "REDUCTION_PRESETS",
    "SearchBudget",
    "SearchResult",
    "TOL_DIV",
    "VerificationReport",
    "ViolationError",
    "bound_complex",
    "bound_real",
    "bound_sharp",
    "branch_value",
    "breakpoints",
    "caratheodory_bound",
    "classical_s_bound",
    "coeff_bounds",
    "denominators",
    "extremal_config",
    "extremal_member",
    "fs_functional",
    "herglotz_coeffs",
    "libera_transform",
    "maximize_fs",
    "member_from_pq",
    "membership_spotcheck",
    "psi",
    "ps_derivative",
    "ps_div",
    "ps_linear",
    "ps_mul",
    "ps_shift",
    "reduction_bound",
    "rotate",
    "sample_measure",
    "sharp_witness",
    "sharpness_residual",
    "shift_measure",
    "starlike_from_q",
    "starlike_fs_bound",
    "transform_spotcheck",
    "verify_inequality",
]
