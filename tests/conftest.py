"""Shared fixtures: the 9-bus case, its input files, and one solved base case."""

from pathlib import Path

import pytest

from opfkit import (
    SolverOptions,
    build_acopf,
    load_case,
    parse_contingencies_file,
    parse_load_profile_files,
    parse_scenarios_file,
    solve,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def case9_path():
    return DATA / "case9.m"


@pytest.fixture(scope="session")
def case9(case9_path):
    return load_case(case9_path)


@pytest.fixture(scope="session")
def ctgs(data_dir):
    return parse_contingencies_file(data_dir / "ctgc.cont")


@pytest.fixture(scope="session")
def scens(data_dir):
    return parse_scenarios_file(data_dir / "scenarios.csv")


@pytest.fixture(scope="session")
def profile(data_dir):
    return parse_load_profile_files(data_dir / "load_p.csv",
                                    data_dir / "load_q.csv")


@pytest.fixture(scope="session")
def base_solve(case9):
    """Plain ACOPF solve of the 9-bus case, shared across tests."""
    problem, imap = build_acopf(case9)
    result = solve(problem, SolverOptions(tol=1e-6))
    assert result.status == "Optimal"
    return problem, imap, result
