"""fslab: coefficient-functional bounds for a family of close-to-convex
function classes, extremal witnesses, and randomized verification.

See :mod:`fslab.members` for the class definition, :mod:`fslab.bounds` for the
closed-form bounds (including the validity caveat on the piecewise real-mu
value), :mod:`fslab.extremal` for the witnesses that attain them, and
:mod:`fslab.search` for the independent numerical check.
"""

import numpy as np

from .bounds import (
    BoundReport,
    bound_complex,
    bound_real,
    bound_sharp,
    breakpoints,
    caratheodory_bound,
    coeff_bounds,
    starlike_fs_bound,
)
from .errors import (
    CaseRangeError,
    DomainError,
    FslabError,
    ViolationError,
)
from .extremal import (
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
    DEFAULT_ORDER,
    HerglotzMeasure,
    denominators,
    fs_functional,
    herglotz_coeffs,
    member_from_pq,
    membership_spotcheck,
    starlike_from_q,
)
from .search import (
    SearchBudget,
    SearchResult,
    maximize_fs,
    verify_inequality,
)

# Allocator warm-up, once per process: unmapping this 4 MiB array sets glibc's
# mmap and trim thresholds to 4 and 8 MiB. No array of a search or a 2,001-row
# sweep is that large and their heap peaks stay under 2.1 MiB (2.4 as JSON, 4.0
# for a search whose screen keeps every sample, :mod:`fslab.search`), so
# their arrays are not trimmed off the heap and faulted back in (about 100 and
# 250 minor faults per op, and about 480 per search that keeps every sample
# under a 4 MiB trim threshold, where the heap's layout lets the freed top
# pass 4 MiB). Under any other allocator it does nothing.
np.empty(1 << 19)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CaseRangeError",
    "ClassMember",
    "ClassParams",
    "DEFAULT_ORDER",
    "DomainError",
    "FslabError",
    "HerglotzMeasure",
    "SearchBudget",
    "SearchResult",
    "ViolationError",
    "bound_complex",
    "bound_real",
    "bound_sharp",
    "breakpoints",
    "caratheodory_bound",
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
    "sharp_witness",
    "sharpness_residual",
    "starlike_from_q",
    "starlike_fs_bound",
    "transform_spotcheck",
    "verify_inequality",
]
