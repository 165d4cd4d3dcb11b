"""Shared fixtures: bundled defaults, company-a inputs, an in-process CLI runner."""

from __future__ import annotations

from pathlib import Path

import pytest

from ismaturity import (
    build_minimum_db,
    build_stage_plan,
    default_catalog,
    default_stage_plan,
    evaluate,
    ingest_responses,
    load_applicability_csv,
    load_measurements_csv,
    load_ratings_csv,
    load_survey_csv,
)
from ismaturity.cli import main as cli_main
from ismaturity.minimums import RiskMinimums

FIXTURES = Path(__file__).parent / "data" / "company_a"


@pytest.fixture(scope="session")
def catalog():
    return default_catalog()


@pytest.fixture(scope="session")
def default_plan():
    return default_stage_plan()


@pytest.fixture(scope="session")
def panel_path():
    """The synthetic 40-respondent importance panel; test data, since no command reads it."""
    return Path(__file__).parent / "data" / "panel" / "importance_default.json"


@pytest.fixture(scope="session")
def ca_paths():
    return {
        "survey": FIXTURES / "survey.csv",
        "ratings": FIXTURES / "ratings.csv",
        "applicability": FIXTURES / "applicability.csv",
        "measurements": FIXTURES / "measurements.csv",
    }


@pytest.fixture(scope="session")
def ca_inputs(ca_paths):
    return {
        "survey": load_survey_csv(ca_paths["survey"]),
        "ratings": load_ratings_csv(ca_paths["ratings"]),
        "applicability": load_applicability_csv(ca_paths["applicability"]),
        "measurements": load_measurements_csv(ca_paths["measurements"]),
    }


@pytest.fixture(scope="session")
def ca_plan(catalog, ca_inputs):
    db = ingest_responses(ca_inputs["survey"], catalog)
    return build_stage_plan(db, catalog, ca_inputs["applicability"])


@pytest.fixture(scope="session")
def ca_minimums(catalog, ca_inputs):
    return build_minimum_db(
        RiskMinimums(ratings=ca_inputs["ratings"]), ca_inputs["applicability"], catalog
    )


@pytest.fixture(scope="session")
def ca_result(ca_plan, ca_minimums, ca_inputs):
    return evaluate(ca_plan, ca_minimums, ca_inputs["measurements"])


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""

    def _run(*argv):
        capsys.readouterr()  # drop anything buffered before the run
        code = cli_main([str(arg) for arg in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run
