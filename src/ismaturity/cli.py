"""Command-line front end: one subcommand per pipeline step.

Subcommands: import-survey, stage-plan build, stage-plan diff, minimums
build, assess, report, compare-modes. Exit codes: 0 success, 1 invalid
input data (the message names file and row where possible), 2 semantically
inconsistent inputs, 64 usage errors.

Two run modes exist end to end. Model mode evaluates against the bundled
default stage database with one fixed minimum level (default 3) and forbids
a survey. Independent mode builds the organization's own plan from its
survey and takes per-control minimums from a risk ratings file (or a fixed
floor). Reports embed a caller-supplied timestamp, so repeated runs over the
same inputs write byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

from .assessment import evaluate, gap_analysis, misallocation_findings
from .catalog import ControlCatalog
from .errors import ConsistencyError, ValidationError
from . import files
from .files import (
    default_stage_plan,
    diff_document,
    importance_document,
    load_applicability_csv,
    load_measurements_csv,
    load_ratings_csv,
    load_survey_csv,
    minimum_db_document,
    read_importance_file,
    read_stage_plan_file,
    stage_label,
    stage_plan_document,
    write_document,
    write_text_atomic,
)
from .importance import ingest_responses, merge_responses
from .minimums import (
    LEVEL_MAX,
    ApplicabilityMap,
    FixedMinimums,
    RiskMinimums,
    build_minimum_db,
    parse_mode_tag,
)
from .reporting import (
    HUMAN,
    STRUCTURED,
    build_report,
    compare_modes,
    parse_report,
    render_comparison,
    render_document,
)
from .staging import Stage, build_stage_plan, diff_stage_plans, exclude_from_plan

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2
EXIT_USAGE = 64

MODEL_FIXED_LEVEL = 3  # the published model's single minimum level


class UsageError(Exception):
    """Bad flag combination; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _utc_now() -> str:
    from datetime import datetime, timezone  # only runs without --timestamp

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _fixed_level(text: str) -> int:
    """Parse --fixed-level; a value outside 1..5 is a usage error."""
    try:
        level = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= level <= LEVEL_MAX:
        raise argparse.ArgumentTypeError(f"minimum level {level} outside 1..{LEVEL_MAX}")
    return level


def _load_catalog(args) -> ControlCatalog:
    if getattr(args, "catalog", None):
        return files.read_catalog_file(args.catalog)
    return files.default_catalog()


def _load_applicability(args) -> ApplicabilityMap:
    if getattr(args, "applicability", None):
        return load_applicability_csv(args.applicability)
    return ApplicabilityMap()


def _check_known_controls(ids, catalog: ControlCatalog, what: str, source) -> None:
    unknown = sorted(set(ids) - set(catalog.control_ids()))
    if unknown:
        raise ValidationError(
            f"{what} for controls not in the catalog: " + ", ".join(str(c) for c in unknown),
            source=str(source),
        )


def _applicable_measurements(args, catalog, applicability):
    """Load measurements and drop rows for excluded controls.

    Dropping (rather than erroring) realizes the guarantee that an excluded
    control's presence or absence in input files never changes any result.
    """
    raw = load_measurements_csv(args.measurements)
    _check_known_controls(raw, catalog, "measurements", args.measurements)
    excluded = set(applicability.excluded_within(catalog))
    return {cid: level for cid, level in raw.items() if cid not in excluded}


def _build_independent_minimums(args, catalog, applicability):
    if args.ratings and args.fixed_level is not None:
        raise UsageError("pass either --ratings or --fixed-level, not both")
    if args.ratings:
        ratings = load_ratings_csv(args.ratings)
        _check_known_controls(ratings, catalog, "ratings", args.ratings)
        return build_minimum_db(RiskMinimums(ratings=ratings), applicability, catalog)
    if args.fixed_level is not None:
        return build_minimum_db(FixedMinimums(level=args.fixed_level), applicability, catalog)
    raise UsageError("independent mode needs --ratings or --fixed-level")


@contextmanager
def _survey_warnings(path):
    """Print each warning raised inside (an incomplete respondent) as one stderr line naming `path`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield
    for warning in caught:
        print(f"warning: {path}: {warning.message}", file=sys.stderr)


def _ingest_survey(path, catalog):
    with _survey_warnings(path):
        return ingest_responses(load_survey_csv(path), catalog)


def _mode_comparison_deltas(plan):
    """Stage changes vs the bundled default, when the universes line up."""
    default = default_stage_plan()
    if plan.universe() != default.universe():
        return None
    return diff_stage_plans(default, plan)


# ---------------------------------------------------------------------------
# Handlers

def _cmd_import_survey(args) -> int:
    if args.replace and not args.into:
        raise UsageError("--replace is only meaningful together with --into")
    rows = load_survey_csv(args.survey)
    with _survey_warnings(args.survey):
        if args.into:
            db = merge_responses(read_importance_file(args.into), rows, replace=args.replace)
        else:
            db = ingest_responses(rows, _load_catalog(args))
    write_document(args.out, importance_document(db))
    print(f"{len(rows)} responses from {len(db.respondents)} respondents -> {args.out}")
    return EXIT_OK


def _cmd_stage_plan_build(args) -> int:
    if bool(args.survey) == bool(args.importance):
        raise UsageError("pass exactly one of --survey or --importance")
    catalog = _load_catalog(args)
    applicability = _load_applicability(args)
    if args.survey:
        db = _ingest_survey(args.survey, catalog)
    else:
        db = read_importance_file(args.importance)
    plan = build_stage_plan(db, catalog, applicability)
    write_document(args.out, stage_plan_document(plan))
    sizes = plan.sizes()
    summary = ", ".join(f"{stage.label} {sizes[stage]}" for stage in Stage)
    print(f"{summary}; excluded {len(plan.excluded)} -> {args.out}")
    return EXIT_OK


def _resolve_plan(token: str):
    if token == "default":
        return default_stage_plan()
    return read_stage_plan_file(token)


def _cmd_stage_plan_diff(args) -> int:
    plan_a = _resolve_plan(args.plan_a)
    plan_b = _resolve_plan(args.plan_b)
    deltas = diff_stage_plans(plan_a, plan_b)
    for delta in deltas:
        print(f"{delta.control}: {stage_label(delta.before)} -> {stage_label(delta.after)}")
    print(f"{len(deltas)} difference{'s' if len(deltas) != 1 else ''}")
    if args.out:
        write_document(args.out, diff_document(deltas))
    return EXIT_OK


def _cmd_minimums_build(args) -> int:
    try:
        level = parse_mode_tag(args.mode)
    except ValidationError:
        raise UsageError(f"--mode must be risk or fixed:<level>, got {args.mode!r}") from None
    catalog = _load_catalog(args)
    applicability = _load_applicability(args)
    if level is None:
        if not args.ratings:
            raise UsageError("risk mode needs --ratings")
        ratings = load_ratings_csv(args.ratings)
        _check_known_controls(ratings, catalog, "ratings", args.ratings)
        db = build_minimum_db(RiskMinimums(ratings=ratings), applicability, catalog)
    else:
        if args.ratings:
            raise UsageError("--ratings only applies to risk mode")
        db = build_minimum_db(FixedMinimums(level=level), applicability, catalog)
    write_document(args.out, minimum_db_document(db))
    print(f"{len(db.requirements)} requirements (mode {db.mode}, {len(db.excluded)} excluded) -> {args.out}")
    return EXIT_OK


def _cmd_assess(args) -> int:
    catalog = _load_catalog(args)
    applicability = _load_applicability(args)
    measurements = _applicable_measurements(args, catalog, applicability)
    if args.mode == "model":
        if args.survey:
            raise UsageError("model mode uses the bundled stage database; --survey is not allowed")
        if args.ratings:
            raise UsageError("model mode uses a fixed minimum level; --ratings is not allowed")
        level = MODEL_FIXED_LEVEL if args.fixed_level is None else args.fixed_level
        plan = exclude_from_plan(default_stage_plan(), applicability.excluded_within(catalog))
        mins = build_minimum_db(FixedMinimums(level=level), applicability, catalog)
        deltas = None
    else:
        if not args.survey:
            raise UsageError("independent mode needs --survey")
        db = _ingest_survey(args.survey, catalog)
        plan = build_stage_plan(db, catalog, applicability)
        mins = _build_independent_minimums(args, catalog, applicability)
        deltas = _mode_comparison_deltas(plan)
    result = evaluate(plan, mins, measurements)
    gaps = gap_analysis(result)
    findings = misallocation_findings(result, args.misallocation_threshold)
    report = build_report(
        result,
        gaps,
        findings,
        applicability,
        deltas,
        company=args.company,
        timestamp=args.timestamp or _utc_now(),
        mode=args.mode,
        minimums=mins,
        misallocation_threshold=args.misallocation_threshold,
    )
    if args.out:
        write_text_atomic(args.out, render_document(report, STRUCTURED))
    human = render_document(report, HUMAN)
    if args.out_text:
        write_text_atomic(args.out_text, human)
    else:
        print(human, end="")
    return EXIT_OK


def _cmd_report(args) -> int:
    path = Path(args.report)
    document = parse_report(files.read_text(path), source=str(path))
    human = render_document(document, HUMAN)
    if args.out:
        write_text_atomic(args.out, human)
    else:
        print(human, end="")
    return EXIT_OK


def _cmd_compare_modes(args) -> int:
    if not args.survey:
        raise UsageError("compare-modes needs --survey")
    catalog = _load_catalog(args)
    applicability = _load_applicability(args)
    measurements = _applicable_measurements(args, catalog, applicability)
    db = _ingest_survey(args.survey, catalog)
    company_plan = build_stage_plan(db, catalog, applicability)
    mins_model = build_minimum_db(FixedMinimums(level=MODEL_FIXED_LEVEL), applicability, catalog)
    mins_independent = _build_independent_minimums(args, catalog, applicability)
    comparison = compare_modes(
        default_stage_plan(), company_plan, mins_model, mins_independent, measurements
    )
    timestamp = args.timestamp or _utc_now()
    if args.out:
        write_text_atomic(
            args.out, render_comparison(comparison, STRUCTURED, company=args.company, timestamp=timestamp)
        )
    human = render_comparison(comparison, HUMAN, company=args.company, timestamp=timestamp)
    if args.out_text:
        write_text_atomic(args.out_text, human)
    else:
        print(human, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

def _add_catalog_flag(parser) -> None:
    parser.add_argument("--catalog", help="catalog document (default: bundled 114-control catalog)")


def _add_common_assess_flags(parser) -> None:
    parser.add_argument("--measurements", required=True, help="measured levels CSV (control_id,level)")
    parser.add_argument("--applicability", help="applicability CSV (control_id,applicable,justification)")
    parser.add_argument("--survey", help="survey CSV (respondent_id,control_id,score)")
    parser.add_argument("--ratings", help="risk ratings CSV (control_id,probability,impact)")
    parser.add_argument(
        "--fixed-level", type=_fixed_level, help="use one fixed minimum level (1..5) instead of ratings"
    )
    _add_catalog_flag(parser)
    parser.add_argument("--company", default="unnamed", help="organization name for the report header")
    parser.add_argument("--timestamp", help="report timestamp (default: current UTC time)")
    parser.add_argument("--out", help="write the structured JSON document here")
    parser.add_argument("--out-text", help="write the human-readable text here instead of stdout")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ismaturity",
        description="Staged information-security maturity planning and gated assessment.",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("import-survey", help="turn a survey CSV into an importance database")
    p.add_argument("survey", help="survey CSV (respondent_id,control_id,score)")
    p.add_argument("--out", required=True, help="importance database JSON to write")
    p.add_argument("--into", help="existing importance database to merge into")
    p.add_argument("--replace", action="store_true", help="allow respondents in --into to be resubmitted")
    _add_catalog_flag(p)
    p.set_defaults(handler=_cmd_import_survey)

    stage_plan = commands.add_parser("stage-plan", help="build or compare stage plans")
    stage_sub = stage_plan.add_subparsers(dest="subcommand", required=True, metavar="ACTION")

    p = stage_sub.add_parser("build", help="partition controls into the four stages")
    p.add_argument("--survey", help="survey CSV to ingest")
    p.add_argument("--importance", help="existing importance database JSON")
    p.add_argument("--applicability", help="applicability CSV")
    p.add_argument("--out", required=True, help="stage plan JSON to write")
    _add_catalog_flag(p)
    p.set_defaults(handler=_cmd_stage_plan_build)

    p = stage_sub.add_parser("diff", help="list per-control differences between two plans")
    p.add_argument("plan_a", help="stage plan JSON, or the word 'default' for the bundled plan")
    p.add_argument("plan_b", help="stage plan JSON, or the word 'default'")
    p.add_argument("--out", help="also write the differences as a JSON document")
    p.set_defaults(handler=_cmd_stage_plan_diff)

    minimums = commands.add_parser("minimums", help="build minimum-level databases")
    minimums_sub = minimums.add_subparsers(dest="subcommand", required=True, metavar="ACTION")

    p = minimums_sub.add_parser("build", help="derive per-control minimum maturity levels")
    p.add_argument("--mode", required=True, help="risk or fixed:<level>")
    p.add_argument("--ratings", help="risk ratings CSV (risk mode only)")
    p.add_argument("--applicability", help="applicability CSV")
    p.add_argument("--out", required=True, help="minimum database JSON to write")
    _add_catalog_flag(p)
    p.set_defaults(handler=_cmd_minimums_build)

    p = commands.add_parser("assess", help="run the gated assessment and write the report")
    p.add_argument("--mode", required=True, choices=["model", "independent"], help="strategy mode")
    p.add_argument(
        "--misallocation-threshold",
        type=int,
        default=2,
        help="level difference that counts as misallocated effort (default 2)",
    )
    _add_common_assess_flags(p)
    p.set_defaults(handler=_cmd_assess)

    p = commands.add_parser("report", help="render a structured report as text")
    p.add_argument("report", help="structured assessment report JSON")
    p.add_argument("--out", help="write the text here instead of stdout")
    p.set_defaults(handler=_cmd_report)

    p = commands.add_parser("compare-modes", help="evaluate both strategies on the same measurements")
    _add_common_assess_flags(p)
    p.set_defaults(handler=_cmd_compare_modes)

    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConsistencyError as exc:
        print(f"inconsistent inputs: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
