"""Reward design for sets of acceptable policies via polyhedral separation
of discounted state-action visitations."""

from .bundles import (
    BundleError,
    ProblemBundle,
    fixture_path,
    parse_bundle,
    parse_bundle_text,
    serialize_bundle,
)
from .lp import LinearProgram, LpSolution, check_feasible, solve
from .mdp import (
    EnvError,
    LimitExceededError,
    MarkovEnv,
    Policy,
    PolicyError,
    RewardSpec,
    Visitation,
    compute_visitation,
    enumerate_deterministic_policies,
    flow_residuals,
    policy_value,
    validate_env,
)
from .numeric import EXACT, FLOAT, ExactInputError, NumericMode, parse_rational
from .separability import (
    DesignOutcome,
    DeterministicSoapRequired,
    InconsistentSoapError,
    PointSet,
    check_scalar_optimality,
    design_multi,
    design_scalar,
    hulls_intersect,
    in_convex_hull,
)
from .soap import ConsistencyReport, Soap, SoapError, check_consistency
from .verify import RealizationReport, verify_realization

__version__ = "0.1.0"

__all__ = [
    "BundleError",
    "ConsistencyReport",
    "DesignOutcome",
    "DeterministicSoapRequired",
    "EXACT",
    "EnvError",
    "ExactInputError",
    "FLOAT",
    "InconsistentSoapError",
    "LimitExceededError",
    "LinearProgram",
    "LpSolution",
    "MarkovEnv",
    "NumericMode",
    "Policy",
    "PolicyError",
    "PointSet",
    "ProblemBundle",
    "RealizationReport",
    "RewardSpec",
    "Soap",
    "SoapError",
    "Visitation",
    "check_consistency",
    "check_feasible",
    "check_scalar_optimality",
    "compute_visitation",
    "design_multi",
    "design_scalar",
    "enumerate_deterministic_policies",
    "fixture_path",
    "flow_residuals",
    "hulls_intersect",
    "in_convex_hull",
    "parse_bundle",
    "parse_bundle_text",
    "parse_rational",
    "policy_value",
    "serialize_bundle",
    "solve",
    "validate_env",
    "verify_realization",
    "__version__",
]
