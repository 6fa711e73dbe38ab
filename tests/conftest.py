import importlib.util
import json
import os

import pytest

from skv.arithdata import ExtensionFixture

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "skv",
                           "fixtures")
FIXTURE_NAMES = ["q", "q_i", "q_zeta3", "q_sqrt_m5", "q_zeta23", "s3c2"]

_acceptance_lines = []


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name + ".json")


def load_fixture_json(name: str) -> dict:
    with open(fixture_path(name)) as fh:
        return json.load(fh)


def ladder_fixture_writer():
    """``write_ladder_fixture(p, directory)`` from tools/make_fixtures.py,
    which writes the ladder field Q(zeta_p) and returns its path."""
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "make_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.write_ladder_fixture


@pytest.fixture(scope="session")
def fixtures():
    return {name: ExtensionFixture.load(fixture_path(name))
            for name in FIXTURE_NAMES}


def record_acceptance(line: str):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
