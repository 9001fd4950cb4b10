"""Suite-wide pytest plumbing (golden-result refresh flag, one lint of
the source tree, a guard that no simulation starts)."""

import pathlib

import pytest

from repro.analysis.core import lint_paths
from repro.simul.core import Environment

#: The source tree every whole-tree lint check reads.
SOURCE_TREE = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/ expected-result files from the "
        "current code instead of diffing against them",
    )


@pytest.fixture
def update_golden(request):
    """True when the run should refresh golden files, not check them."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def source_tree_reports():
    """One lint of ``src/`` per session, read by every check of the
    whole tree (it takes seconds)."""
    return lint_paths([SOURCE_TREE])


@pytest.fixture
def no_environment(monkeypatch):
    """Fail the test if anything builds a simulation Environment."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("an Environment was built")

    monkeypatch.setattr(Environment, "__init__", refuse)
