import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from covrep.examples import corpus_instances


@pytest.fixture(scope="session")
def corpus():
    return corpus_instances()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, *names)`` wraps each ``owner.name`` for the test
    and returns the dict in which the wrappers count their calls by name."""
    calls: dict = {}

    def install(owner, *names):
        for name in names:
            def run(*args, _fn=getattr(owner, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(owner, name, run)
        return calls

    return install
