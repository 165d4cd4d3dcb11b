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
same inputs write byte-identical files; the clock is read only when
--timestamp is absent, so an explicit empty timestamp stays empty.

Each handler writes nothing: it returns its outputs, a dict from each path
to the file's full text, with the path None for stdout. main() writes every
file, all or none (files.write_all, in the handler's order), and only then
prints the stdout text, so a command that fails prints nothing on stdout,
and one that fails to write a file leaves every output file as it was.

main(argv) runs one command and returns its exit code, for library callers
and tests. run() is the program's entry point, for both the installed
`ismaturity` script and `python -m ismaturity.cli`: it calls main(), then
gc.freeze(), so the interpreter's exit-time collections skip every object
the process holds, then exits with main's code. Exit handlers still run and
stdout and stderr are still flushed; every output file is already closed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

from .assessment import DEFAULT_MISALLOCATION_THRESHOLD, check_misallocation_threshold, evaluate
from .catalog import ControlCatalog, check_known, check_same
from .errors import ConsistencyError, ValidationError
from . import files
from .files import (
    canonical_json,
    default_stage_plan,
    delta_line,
    diff_document,
    importance_document,
    integer_cell,
    load_applicability_csv,
    load_measurements_csv,
    load_ratings_csv,
    load_survey_csv,
    minimum_db_document,
    read_importance_file,
    read_stage_plan_file,
    stage_plan_document,
)
from .importance import fold_scores, ingest_responses
from .minimums import (
    ApplicabilityMap,
    FixedMinimums,
    RiskMinimums,
    build_minimum_db,
    check_level,
)
from .reporting import (
    HUMAN,
    STRUCTURED,
    assess,
    compare_modes,
    model_plan,
    parse_report,
    render_comparison,
    render_document,
)
from .staging import Stage, build_stage_plan, diff_stage_plans

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2
EXIT_USAGE = 64

MODEL_FIXED_LEVEL = 3  # the published model's single minimum level


class UsageError(Exception):
    """Bad flag combination, raised before any input file is read; maps to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _print(text: str) -> None:
    """print to stdout; text stdout cannot encode (a lone surrogate), or a reader gone from it, is a ValidationError.

    Once the reader has gone, the process's real stdout is pointed at
    os.devnull, so the text still buffered for it goes nowhere when the
    interpreter flushes it at exit, instead of printing "Exception ignored".
    """
    try:
        print(text, end="", flush=True)
    except UnicodeEncodeError as exc:
        raise ValidationError(f"cannot write text: {exc}", source="standard output") from None
    except BrokenPipeError as exc:
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValidationError(f"cannot write text: {exc.strerror or exc}", source="standard output") from None


def _fixed_level(text: str) -> int:
    """Parse --fixed-level; a level that is not an integer in 1..5 (minimums.check_level) is a usage error."""
    try:
        return check_level(integer_cell(text), minimum=1)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _misallocation_threshold(text: str) -> int:
    """Parse --misallocation-threshold; a value that is no integer (files.integer_cell), or that
    assessment.check_misallocation_threshold rejects, is a usage error."""
    threshold = integer_cell(text)
    if isinstance(threshold, str):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return check_misallocation_threshold(threshold)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_catalog(args) -> ControlCatalog:
    return files.read_catalog_file(args.catalog) if args.catalog else files.default_catalog()


def _load_applicability(args, catalog: ControlCatalog) -> ApplicabilityMap:
    """The exclusions of --applicability, each naming a control of `catalog`; none without the flag."""
    if not args.applicability:
        return ApplicabilityMap()
    applicability = load_applicability_csv(args.applicability)
    check_known(applicability.not_applicable, catalog, "applicability rows", source=str(args.applicability))
    return applicability


def _plan_argument(text: str) -> str | None:
    """A stage-plan diff operand: a stage-plan document's path, or None for the word 'default', the bundled plan."""
    return None if text == "default" else text


def _given(args, names):
    """(name, path) for each flag or positional in `names` that `args` gives a path for, even an empty one."""
    for name in names:
        path = getattr(args, name.lstrip("-").replace("-", "_"))
        if path is not None:
            yield name, path


def _check_paths(args) -> None:
    """No path may be empty or hold a NUL byte, and no output may be an existing non-regular file or name another
    output or any path its command reads.

    Runs before any file is read. No file system accepts an empty name or a
    NUL in one. An output that, once symlinks are followed, exists and is no
    regular file (a directory, a FIFO, a device, a symlink loop) is refused
    here by the writer's own rule (files.regular_or_absent), before any work
    is done; through any other symlink the output is written to the file it
    leads to (files.write_text_atomic). One file for
    two outputs would hold only the last one written, and an output over an
    input replaces the input. Paths are compared with symlinks resolved
    (os.path.realpath, which a loop does not stop), so `x` and `./x` match.
    A command declares its paths with the parser defaults `outputs`,
    `inputs` and `updated` (read, and free to be rewritten by an output).
    """
    for name, path in _given(args, (*args.outputs, *args.inputs, *args.updated)):
        if not path:
            raise UsageError(f"{name} path is empty")
        if "\0" in path:
            raise UsageError(f"{name} path holds a NUL byte: {path!r}")
    outputs = []
    for name, path in _given(args, args.outputs):
        if not files.regular_or_absent(path):
            raise UsageError(f"{name} exists and is not a regular file: {path}")
        resolved = os.path.realpath(path)
        for other, _, earlier in outputs:
            if resolved == earlier:
                raise UsageError(f"{other} and {name} name the same file: {path}")
        outputs.append((name, path, resolved))
    if outputs:
        for name_in, path_in in _given(args, args.inputs):
            what = f"{name_in} file" if name_in.startswith("-") else name_in
            read = os.path.realpath(path_in)
            for name, path, resolved in outputs:
                if resolved == read:
                    raise UsageError(f"{name} names the {what} being read: {path}")


def _timestamp(args) -> str:
    """--timestamp as given, even empty; the current UTC time only when the flag is absent."""
    if args.timestamp is not None:
        return args.timestamp
    from datetime import datetime, timezone  # only runs without --timestamp

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _check_minimum_source(args, what: str) -> None:
    """Minimums come from exactly one of --ratings and --fixed-level; `what` names who needs them."""
    if args.ratings and args.fixed_level is not None:
        raise UsageError("pass either --ratings or --fixed-level, not both")
    if not args.ratings and args.fixed_level is None:
        raise UsageError(f"{what} needs --ratings or --fixed-level")


def _load_assessment_inputs(args):
    """The catalog, the applicability map, and the measurements without rows for excluded controls.

    Dropping (rather than erroring) realizes the guarantee that an excluded
    control's presence or absence in input files never changes any result.
    """
    catalog = _load_catalog(args)
    applicability = _load_applicability(args, catalog)
    raw = load_measurements_csv(args.measurements)
    check_known(raw, catalog, "measurements", source=str(args.measurements))
    return catalog, applicability, {cid: level for cid, level in raw.items() if applicability.is_applicable(cid)}


def _minimums(catalog, applicability, ratings_path, level):
    """The minimum database from the ratings file `ratings_path`, or without one from the fixed `level`."""
    if ratings_path:
        ratings = load_ratings_csv(ratings_path)
        check_known(ratings, catalog, "ratings", source=str(ratings_path))
        source = RiskMinimums(ratings=ratings)
    else:
        source = FixedMinimums(level=level)
    return build_minimum_db(source, applicability, catalog)


def _fold_survey(path, scores, catalog=None, into=None, replace: bool = False):
    """The survey `scores` read from `path` as a database, with errors naming `path`.

    The database is a fresh one over `catalog` (importance.ingest_responses),
    or for import-survey --into the database `into` with the scores folded in
    (importance.fold_scores). Once the fold succeeds, each respondent who
    skipped controls prints as one stderr warning line naming `path`.
    """
    try:
        folded = ingest_responses(scores, catalog) if into is None else fold_scores(into, scores, replace=replace)
    except ValidationError as exc:
        raise ValidationError(str(exc), source=str(path)) from None
    total = len(folded.controls)
    for respondent, by_control in sorted(scores.items()):
        if len(by_control) < total:
            scored = len(by_control)
            print(f"warning: {path}: respondent {respondent} scored {scored} of {total} controls"
                  f" ({total - scored} missing)", file=sys.stderr)
    return folded


def _survey_plan(path, catalog, applicability):
    """The stage plan built from the importance survey in `path`."""
    return build_stage_plan(_fold_survey(path, load_survey_csv(path), catalog), catalog, applicability)


def _plan(mode, survey, catalog, applicability):
    """A mode's stage plan: the bundled default without the exclusions (model), or built from `survey` (independent)."""
    if mode == "model":
        return model_plan(applicability.excluded_within(catalog))
    return _survey_plan(survey, catalog, applicability)


# ---------------------------------------------------------------------------
# Handlers

def _cmd_import_survey(args) -> dict:
    if args.replace and not args.into:
        raise UsageError("--replace is only meaningful together with --into")
    if args.into and args.catalog:
        raise UsageError("--catalog does not apply with --into, whose database fixes the controls")
    scores = load_survey_csv(args.survey)
    if args.into:
        db = _fold_survey(args.survey, scores, into=read_importance_file(args.into), replace=args.replace)
    else:
        db = _fold_survey(args.survey, scores, _load_catalog(args))
    summary = f"{sum(map(len, scores.values()))} responses from {len(db.respondents)} respondents -> {args.out}\n"
    return {args.out: canonical_json(importance_document(db)), None: summary}


def _cmd_stage_plan_build(args) -> dict:
    if bool(args.survey) == bool(args.importance):
        raise UsageError("pass exactly one of --survey or --importance")
    catalog = _load_catalog(args)
    applicability = _load_applicability(args, catalog)
    if args.survey:
        plan = _survey_plan(args.survey, catalog, applicability)
    else:
        db = read_importance_file(args.importance)
        what = f"{args.importance} and {args.catalog or 'the bundled catalog'} cover different controls"
        check_same(set(db.controls), set(catalog.control_ids()), what)
        plan = build_stage_plan(db, catalog, applicability)
    sizes = plan.sizes()
    summary = ", ".join(f"{stage.label} {sizes[stage]}" for stage in Stage)
    return {
        args.out: canonical_json(stage_plan_document(plan)),
        None: f"{summary}; excluded {len(plan.excluded)} -> {args.out}\n",
    }


def _cmd_stage_plan_diff(args) -> dict:
    deltas = diff_stage_plans(*(
        default_stage_plan() if path is None else read_stage_plan_file(path)
        for path in (args.plan_a, args.plan_b)
    ))
    outputs = {args.out: canonical_json(diff_document(deltas))} if args.out else {}
    count = f"{len(deltas)} difference{'s' if len(deltas) != 1 else ''}"
    outputs[None] = "".join(f"{line}\n" for line in (*map(delta_line, deltas), count))
    return outputs


def _cmd_minimums_build(args) -> dict:
    _check_minimum_source(args, "minimums build")
    catalog = _load_catalog(args)
    db = _minimums(catalog, _load_applicability(args, catalog), args.ratings, args.fixed_level)
    summary = f"{len(db.requirements)} requirements (mode {db.mode}, {len(db.excluded)} excluded) -> {args.out}\n"
    return {args.out: canonical_json(minimum_db_document(db)), None: summary}


def _cmd_assess(args) -> dict:
    if args.mode == "model":
        if args.survey:
            raise UsageError("model mode uses the bundled stage database; --survey is not allowed")
        if args.ratings:
            raise UsageError("model mode uses a fixed minimum level; --ratings is not allowed")
    else:
        if not args.survey:
            raise UsageError("independent mode needs --survey")
        _check_minimum_source(args, "independent mode")
    catalog, applicability, measurements = _load_assessment_inputs(args)
    plan = _plan(args.mode, args.survey, catalog, applicability)
    # MODEL_FIXED_LEVEL is model mode's default: independent mode has --ratings or --fixed-level
    mins = _minimums(catalog, applicability, args.ratings, args.fixed_level or MODEL_FIXED_LEVEL)
    report = assess(
        plan, mins, measurements, mode=args.mode, company=args.company, timestamp=_timestamp(args),
        misallocation_threshold=args.misallocation_threshold,
    )
    outputs = {args.out: render_document(report, STRUCTURED)} if args.out else {}
    outputs[args.out_text] = render_document(report, HUMAN)
    return outputs


def _cmd_report(args) -> dict:
    return {args.out: render_document(parse_report(files.read_text(args.report), source=args.report), HUMAN)}


def _cmd_compare_modes(args) -> dict:
    if not args.survey:
        raise UsageError("compare-modes needs --survey")
    _check_minimum_source(args, "compare-modes")
    catalog, applicability, measurements = _load_assessment_inputs(args)
    company_plan = _plan("independent", args.survey, catalog, applicability)
    mins_model = _minimums(catalog, applicability, None, MODEL_FIXED_LEVEL)
    mins_independent = _minimums(catalog, applicability, args.ratings, args.fixed_level)
    comparison = compare_modes(
        evaluate(_plan("model", None, catalog, applicability), mins_model, measurements),
        evaluate(company_plan, mins_independent, measurements),
    )
    timestamp = _timestamp(args)
    outputs = {}
    if args.out:
        outputs[args.out] = render_comparison(comparison, STRUCTURED, company=args.company, timestamp=timestamp)
    outputs[args.out_text] = render_comparison(comparison, HUMAN, company=args.company, timestamp=timestamp)
    return outputs


# ---------------------------------------------------------------------------
# Parser

def _add_catalog_flag(parser) -> None:
    parser.add_argument("--catalog", help="catalog document (default: bundled 114-control catalog)")


def _add_minimum_source_flags(parser) -> None:
    """--ratings and --fixed-level, of which _check_minimum_source takes exactly one."""
    parser.add_argument("--ratings", help="risk ratings CSV (control_id,probability,impact)")
    parser.add_argument(
        "--fixed-level", type=_fixed_level, help="use one fixed minimum level (1..5) instead of ratings"
    )


def _add_common_assess_flags(parser) -> None:
    parser.add_argument("--measurements", required=True, help="measured levels CSV (control_id,level)")
    parser.add_argument("--applicability", help="applicability CSV (control_id,applicable,justification)")
    parser.add_argument("--survey", help="survey CSV (respondent_id,control_id,score)")
    _add_minimum_source_flags(parser)
    _add_catalog_flag(parser)
    parser.add_argument("--company", default="unnamed", help="organization name for the report header")
    parser.add_argument("--timestamp", help="report timestamp (default: current UTC time)")
    parser.add_argument("--out", help="write the structured JSON document here")
    parser.add_argument("--out-text", help="write the human-readable text here instead of stdout")
    parser.set_defaults(
        outputs=("--out", "--out-text"),
        inputs=("--measurements", "--applicability", "--survey", "--ratings", "--catalog"),
    )


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ismaturity",
        description="Staged information-security maturity planning and gated assessment.",
    )
    parser.set_defaults(updated=())
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("import-survey", help="turn a survey CSV into an importance database")
    p.add_argument("survey", help="survey CSV (respondent_id,control_id,score)")
    p.add_argument("--out", required=True, help="importance database JSON to write")
    p.add_argument("--into", help="existing importance database to merge into")
    p.add_argument("--replace", action="store_true", help="allow respondents in --into to be resubmitted")
    _add_catalog_flag(p)
    # --into is read but is no input an output must avoid: `--into DB --out DB` updates DB in place
    p.set_defaults(
        handler=_cmd_import_survey, outputs=("--out",), inputs=("survey", "--catalog"), updated=("--into",)
    )

    stage_plan = commands.add_parser("stage-plan", help="build or compare stage plans")
    stage_sub = stage_plan.add_subparsers(dest="subcommand", required=True, metavar="ACTION")

    p = stage_sub.add_parser("build", help="partition controls into the four stages")
    p.add_argument("--survey", help="survey CSV to ingest")
    p.add_argument("--importance", help="existing importance database JSON")
    p.add_argument("--applicability", help="applicability CSV")
    p.add_argument("--out", required=True, help="stage plan JSON to write")
    _add_catalog_flag(p)
    p.set_defaults(
        handler=_cmd_stage_plan_build,
        outputs=("--out",),
        inputs=("--survey", "--importance", "--applicability", "--catalog"),
    )

    p = stage_sub.add_parser("diff", help="list per-control differences between two plans")
    p.add_argument("plan_a", type=_plan_argument, help="stage plan JSON, or the word 'default' for the bundled plan")
    p.add_argument("plan_b", type=_plan_argument, help="stage plan JSON, or the word 'default'")
    p.add_argument("--out", help="also write the differences as a JSON document")
    p.set_defaults(handler=_cmd_stage_plan_diff, outputs=("--out",), inputs=("plan_a", "plan_b"))

    minimums = commands.add_parser("minimums", help="build minimum-level databases")
    minimums_sub = minimums.add_subparsers(dest="subcommand", required=True, metavar="ACTION")

    p = minimums_sub.add_parser("build", help="derive per-control minimum maturity levels")
    _add_minimum_source_flags(p)
    p.add_argument("--applicability", help="applicability CSV")
    p.add_argument("--out", required=True, help="minimum database JSON to write")
    _add_catalog_flag(p)
    p.set_defaults(
        handler=_cmd_minimums_build, outputs=("--out",), inputs=("--ratings", "--applicability", "--catalog")
    )

    p = commands.add_parser("assess", help="run the gated assessment and write the report")
    p.add_argument("--mode", required=True, choices=["model", "independent"], help="strategy mode")
    p.add_argument(
        "--misallocation-threshold",
        type=_misallocation_threshold,
        default=DEFAULT_MISALLOCATION_THRESHOLD,
        help="level difference that counts as misallocated effort (default %(default)s)",
    )
    _add_common_assess_flags(p)
    p.set_defaults(handler=_cmd_assess)

    p = commands.add_parser("report", help="render a structured report as text")
    p.add_argument("report", help="structured assessment report JSON")
    p.add_argument("--out", help="write the text here instead of stdout")
    p.set_defaults(handler=_cmd_report, outputs=("--out",), inputs=("report",))

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
        _check_paths(args)
        outputs = args.handler(args)
        files.write_all([(path, text) for path, text in outputs.items() if path is not None])
        _print(outputs.get(None, ""))  # even empty, so that a reader gone from stdout is reported as a failed write
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConsistencyError as exc:
        print(f"inconsistent inputs: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def run() -> NoReturn:
    """The program's entry point: main() on the process's arguments, then exit with its code.

    gc.freeze() first moves every live object into the collector's permanent
    generation, which the interpreter's shutdown collections skip. main()
    itself never freezes: in a long-lived process that calls it, a freeze
    would keep all later garbage for good.
    """
    import gc  # here, so that importing the module, as library callers do, loads no module for it

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
