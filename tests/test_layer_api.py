"""The benchmark's boundary tracer names knowtell's layer entry points by
string; every name must still exist, or ``--trace 1`` breaks silently."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_layer_api():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_API


LAYER_API = load_layer_api()


@pytest.mark.parametrize("layer", sorted(LAYER_API))
def test_every_traced_name_resolves(layer):
    home = importlib.import_module(f"knowtell.{layer}")
    for name in LAYER_API[layer]:
        owner_name, _, attr = name.rpartition(".")
        if owner_name:
            # the tracer rebinds methods through the class's own __dict__
            assert attr in vars(getattr(home, owner_name)), name
        else:
            assert callable(getattr(home, attr, None)), name
