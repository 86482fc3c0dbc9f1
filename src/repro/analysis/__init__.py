"""Static relation/mode linter (``repro.analysis``).

Checks inductive relations for derivability and performance problems
*without executing* any checker or producer, reporting structured
diagnostics with stable codes::

    from repro.analysis import analyze, analyze_context

    report = analyze(ctx, 'typing', 'ioi')
    for d in report:
        print(d.render())

Command line::

    python -m repro.analysis file.v            # lint surface syntax
    python -m repro.analysis --corpus          # lint the sf corpus
    python -m repro.analysis file.v --mode 'square_of:oi'

The same checks gate ``derive_checker`` / ``derive_enumerator`` /
``derive_generator``: error diagnostics raise
:class:`~repro.core.errors.AnalysisError` before derivation starts.
Disable per call (``analysis=False``) or per context
(:func:`disable_analysis`).
"""

from ..core.errors import AnalysisError
from .checks import analyze, analyze_context
from .determinacy import (
    DetResult,
    Verdict,
    analyze_determinacy,
    finite_by_input,
    relation_verdict,
)
from .diagnostics import CODES, Diagnostic, Report, Severity
from .gate import (
    analysis_enabled,
    cached_report,
    check_before_derive,
    disable_analysis,
    enable_analysis,
)

__all__ = [
    "AnalysisError",
    "CODES",
    "DetResult",
    "Diagnostic",
    "Report",
    "Severity",
    "Verdict",
    "analysis_enabled",
    "analyze",
    "analyze_context",
    "analyze_determinacy",
    "cached_report",
    "check_before_derive",
    "disable_analysis",
    "enable_analysis",
    "finite_by_input",
    "relation_verdict",
]
