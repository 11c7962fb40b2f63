import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches the constants it collects from the sources under its
    # home directory, ./.hypothesis by default, even with no example
    # database; a directory per session keeps the checkout clean
    config.stash[HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def emit_line(request):
    """Write one line into the live test report, past output capture.

    The acceptance tests use this so their PASS/FAIL verdict lines stay
    visible in a plain ``pytest -v`` run.
    """
    reporter = request.config.pluginmanager.getplugin("terminalreporter")

    def emit(text: str) -> None:
        if reporter is not None:
            reporter.write_line(text)
        else:
            print(text)

    return emit
