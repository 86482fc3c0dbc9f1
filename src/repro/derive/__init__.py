"""Derivation engine: compile inductive relations into computations."""

from .api import derive, derive_checker, derive_enumerator, derive_generator
from .instances import (
    CHECKER,
    ENUM,
    GEN,
    Instance,
    register_checker,
    register_producer,
    resolve,
    resolve_checker,
)
from .interp_checker import DerivedChecker, HandwrittenChecker
from .interp_enum import DerivedEnumerator, HandwrittenEnumerator
from .interp_gen import DerivedGenerator, HandwrittenGenerator, SampledGenerator
from .memo import (
    clear_memo,
    derive_stats,
    disable_memoization,
    enable_memoization,
    memoization_enabled,
)
from .modes import Mode
from .plan import (
    Plan,
    PlanHandler,
    disable_functionalization,
    enable_functionalization,
    functionalization_enabled,
    lower_schedule,
)
from .stats import DeriveStats
from .trace import DeriveTrace, profile, trace_of
from .preprocess import preprocess_relation, preprocess_rule
from .schedule import Handler, Schedule
from .mutual import derive_mutual_checkers, mutual_components
from .scheduler import (
    DEFAULT_POLICY,
    PAPER_POLICY,
    DerivePolicy,
    build_schedule,
    required_instances,
)

__all__ = [
    "CHECKER",
    "DEFAULT_POLICY",
    "DerivePolicy",
    "DeriveStats",
    "DeriveTrace",
    "DerivedChecker",
    "DerivedEnumerator",
    "DerivedGenerator",
    "ENUM",
    "GEN",
    "Handler",
    "HandwrittenChecker",
    "HandwrittenEnumerator",
    "HandwrittenGenerator",
    "Instance",
    "Mode",
    "Plan",
    "PlanHandler",
    "SampledGenerator",
    "Schedule",
    "build_schedule",
    "clear_memo",
    "derive",
    "derive_checker",
    "derive_enumerator",
    "derive_generator",
    "derive_mutual_checkers",
    "derive_stats",
    "disable_functionalization",
    "disable_memoization",
    "enable_functionalization",
    "enable_memoization",
    "functionalization_enabled",
    "lower_schedule",
    "memoization_enabled",
    "mutual_components",
    "PAPER_POLICY",
    "preprocess_relation",
    "preprocess_rule",
    "profile",
    "register_checker",
    "register_producer",
    "required_instances",
    "resolve",
    "resolve_checker",
    "trace_of",
]
