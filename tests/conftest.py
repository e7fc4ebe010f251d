import gc
import json
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from knowtell.states import Scenario  # noqa: E402


@pytest.fixture
def worked_example() -> Scenario:
    """Facts {a,b,c}; side 1 starts with a, side 2 with b; communication model."""
    return Scenario.make(["a", "b", "c"], ["a"], ["b"], "communication")


@pytest.fixture
def write_json(tmp_path):
    counter = iter(range(10_000))

    def write(payload) -> str:
        path = tmp_path / f"doc{next(counter)}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def frozen_heap():
    """Moves every object that exists now out of the cyclic collector's
    reach, so that a gc.collect() in the test scans only what it made."""
    gc.freeze()
    yield
    gc.unfreeze()
