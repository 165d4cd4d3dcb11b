"""Staged information-security maturity planning and gated assessment.

The library covers the full pipeline: ingest stakeholder importance surveys
over the ISO/IEC 27001 Annex A controls, partition the controls into four
implementation stages, attach per-control minimum maturity levels (one fixed
floor, or levels derived from probability/impact risk ratings), evaluate
measured maturity levels stage by stage with prefix gating, and render the
results as reports with gap and misallocation analysis.

The top level exports the names callers use. Everything else (document
codecs, report rendering, most record types) is imported from its submodule,
e.g. ismaturity.files or ismaturity.reporting.
"""

from .assessment import (
    evaluate,
    gap_analysis,
    misallocation_findings,
    naive_average,
)
from .catalog import (
    ControlCatalog,
    ControlId,
    DependencyGraph,
    load_catalog,
    parse_control_id,
    topological_order,
)
from .errors import ConsistencyError, MaturityError, ValidationError
from .files import (
    default_catalog,
    default_stage_plan,
    load_applicability_csv,
    load_measurements_csv,
    load_ratings_csv,
    load_survey_csv,
)
from .importance import ingest_responses
from .minimums import (
    ApplicabilityMap,
    RiskGrade,
    build_minimum_db,
    level_name,
    parse_risk_grade,
    risk_minimum,
)
from .reporting import compare_modes, format_level, label_line
from .staging import (
    Stage,
    StagePlan,
    build_stage_plan,
    default_boundaries,
    diff_stage_plans,
    exclude_from_plan,
    partition_quartiles,
    promote_prerequisites,
)

__version__ = "0.1.0"

__all__ = [
    "ApplicabilityMap",
    "ConsistencyError",
    "ControlCatalog",
    "ControlId",
    "DependencyGraph",
    "MaturityError",
    "RiskGrade",
    "Stage",
    "StagePlan",
    "ValidationError",
    "build_minimum_db",
    "build_stage_plan",
    "compare_modes",
    "default_boundaries",
    "default_catalog",
    "default_stage_plan",
    "diff_stage_plans",
    "evaluate",
    "exclude_from_plan",
    "format_level",
    "gap_analysis",
    "ingest_responses",
    "label_line",
    "level_name",
    "load_applicability_csv",
    "load_catalog",
    "load_measurements_csv",
    "load_ratings_csv",
    "load_survey_csv",
    "misallocation_findings",
    "naive_average",
    "parse_control_id",
    "parse_risk_grade",
    "partition_quartiles",
    "promote_prerequisites",
    "risk_minimum",
    "topological_order",
    "__version__",
]
