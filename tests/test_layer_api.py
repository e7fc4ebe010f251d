"""The benchmark's boundary tracer names knowtell's layer entry points by
string, and its worker reads the engine's counters from outside; every
name must still exist, or ``--trace 1`` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import knowtell

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYER_API = load_perfbench("tracer").LAYER_API


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


def test_the_engine_counters_read_the_intern_table(worked_example):
    state_a = knowtell.initial_state(1, worked_example)
    state_b = knowtell.initial_state(2, worked_example)
    for sender, text in ((1, "a"), (2, "a.1"), (1, "a.1.2"), (2, "b")):
        event = knowtell.TellEvent(sender, 3 - sender, knowtell.parse_sentence(text))
        state_a, state_b = knowtell.step(state_a, state_b, event, worked_example.model)
    counters = load_perfbench("worker").engine_counters(knowtell)
    assert set(counters) == {"langs.interned", "langs.interned_states",
                             "langs.cache_hit_ratio"}
    interned = list(knowtell.Lang._interned.values())
    assert counters["langs.interned"] == len(interned)
    assert counters["langs.interned_states"] == sum(len(lang.dfa.delta) for lang in interned)
    assert 0 <= counters["langs.cache_hit_ratio"] <= 1
