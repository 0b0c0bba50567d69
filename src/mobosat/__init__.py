"""Multi-objective Boolean optimization via minimal-correction-subset enumeration.

Exact Pareto fronts and guaranteed (1+epsilon)-approximation sets with
intrinsic lower-bound sets, on top of a self-contained CDCL SAT solver and
lazy unary objective encodings.
"""

from .approx import CoeffApproxMap, approx_coefficients, as_ratio, compute_domain
from .engine import (
    ApproxResult,
    RatioSchedule,
    core_solve,
    enumerate_efficient_set,
    intre_solve,
    mcs_approx,
    solve_exact,
    update_ratio,
)
from .model import (
    Instance,
    LinearExpr,
    Literal,
    PBConstraint,
    Point,
    SolutionRecord,
    evaluate,
    nondominated_filter,
    weakly_dominates,
)

__all__ = [
    "ApproxResult",
    "CoeffApproxMap",
    "Instance",
    "LinearExpr",
    "Literal",
    "PBConstraint",
    "Point",
    "RatioSchedule",
    "SolutionRecord",
    "approx_coefficients",
    "as_ratio",
    "compute_domain",
    "core_solve",
    "enumerate_efficient_set",
    "evaluate",
    "intre_solve",
    "mcs_approx",
    "nondominated_filter",
    "solve_exact",
    "update_ratio",
    "weakly_dominates",
]

__version__ = "0.1.0"
