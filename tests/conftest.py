import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from gpmor import fileio  # noqa: E402

# Property tests draw the same examples on every run and have no per-example
# deadline, so a slow or loaded machine cannot turn them red.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture
def racy_window(monkeypatch):
    """pin(ns) sets the factor cache's racy window for the test: with 0 a
    call stamps every snapshot written before it, with float("inf") none, so
    which calls stream a snapshot does not depend on the machine's speed."""
    def pin(ns):
        monkeypatch.setattr(fileio, "RACY_WINDOW_NS", ns)
    return pin


@pytest.fixture
def fileio_calls(monkeypatch):
    """calls(name) spies on fileio.<name>, and calls(name, module) on
    module.<name>: a list that gets the first argument of each later call of
    it through the module."""
    def calls(name, module=fileio):
        log, orig = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda first, *rest: log.append(first) or orig(first, *rest))
        return log
    return calls
