"""knowtell's records are plain slotted classes with the value semantics
that frozen dataclasses gave them, and importing knowtell builds none of
the dataclass machinery."""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import knowtell
from knowtell.automata import Dfa
from knowtell.checks import CheckConfig, CheckReport, Violation
from knowtell.dynamics import SaturationResult, TellEvent, saturate
from knowtell.langs import from_regex
from knowtell.oracle import BoundedKnowledge, Mismatch, OracleReport
from knowtell.regexes import Alt, Cat, Empty, Eps, Lit, Opt, Plus, Star
from knowtell.sentences import Sentence
from knowtell.states import Scenario, initial_state


def scenario():
    return Scenario.make("ab", "a", "b", "understanding")


# One row per record class: a factory that builds a fresh record, the
# record's fields in order, and whether it hashes (a record that holds a
# dict does not, as with the frozen dataclasses before).
ROWS = [
    (lambda: Dfa(((1, 1), (1, 1)), (True, False)), ("delta", "accepting"), True),
    (Empty, (), True),
    (Eps, (), True),
    (lambda: Lit(2), ("letter",), True),
    (lambda: Alt(Lit(1), Eps()), ("left", "right"), True),
    (lambda: Cat(Lit(1), Star(Lit(2))), ("left", "right"), True),
    (lambda: Star(Lit(1)), ("body",), True),
    (lambda: Plus(Lit(1)), ("body",), True),
    (lambda: Opt(Lit(1)), ("body",), True),
    (lambda: Sentence("a", (2, 1)), ("fact", "suffix"), True),
    (scenario, ("facts", "side_a", "side_b", "model"), True),
    (lambda: initial_state(1, scenario()), ("agent", "langs"), False),
    (lambda: TellEvent(1, 2, Sentence("a")), ("sender", "receiver", "message"), True),
    (lambda: saturate(scenario()), ("state_a", "state_b", "regexes"), False),
    (lambda: BoundedKnowledge(1, 2, {"a": frozenset({(), (1,)})}),
     ("agent", "bound", "suffixes"), False),
    (lambda: Mismatch(1, "a", ("a.1",), ()),
     ("agent", "fact", "only_symbolic", "only_bounded"), True),
    (lambda: OracleReport(scenario(), 3, (Mismatch(2, "b", (), ("b",)),)),
     ("scenario", "depth", "mismatches"), True),
    (lambda: CheckConfig(max_facts=2, seed=7),
     ("max_facts", "depth", "traces", "seed", "disable_understanding"), True),
    (lambda: Violation("facts={a}", "success denied"), ("scenario", "witness"), True),
    (lambda: CheckReport("demo", 3, (Violation("s", "w"),), 17, ("note",)),
     ("name", "scenarios", "violations", "millis", "notes"), True),
]


@pytest.mark.parametrize("make, fields, hashable", ROWS,
                         ids=[row[0]().__class__.__name__ for row in ROWS])
def test_records_keep_their_value_semantics(make, fields, hashable):
    record, twin = make(), make()
    assert record == twin and not record != twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert record != object() and record != tuple(getattr(record, f) for f in fields)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1  # no new attribute either
    for again in (copy.copy(record), copy.deepcopy(record),
                  pickle.loads(pickle.dumps(record))):
        assert type(again) is type(record) and again == record
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{type(record).__name__}({shown})"


@pytest.mark.parametrize("make, fields", [row[:2] for row in ROWS],
                         ids=[row[0]().__class__.__name__ for row in ROWS])
def test_records_are_built_from_their_fields_by_position(make, fields):
    record = make()
    values = tuple(getattr(record, field) for field in fields)
    assert type(record)(*values) == record
    with pytest.raises(TypeError):
        type(record)(*values, values[-1] if values else None)  # one field too many


def test_regex_nodes_of_different_kinds_differ():
    # from_ast caches by node, so x*, x+ and x? must be three keys
    body = Lit(1)
    nodes = [Star(body), Plus(body), Opt(body), Alt(body, body), Cat(body, body)]
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            assert a != b and b != a
    assert Empty() != Eps()
    assert len({from_regex(text) for text in ("1*", "1+", "1?")}) == 3


def test_regex_nodes_match_positionally():
    match Cat(Alt(Lit(1), Eps()), Star(Lit(2))):
        case Cat(Alt(Lit(one), Eps()), Star(Lit(two))):
            assert (one, two) == (1, 2)
        case _:
            pytest.fail("positional match failed")
    assert Lit.__match_args__ == ("letter",) and Empty.__match_args__ == ()


def test_records_have_no_instance_dict_but_the_config():
    for make, _, _ in ROWS:
        record = make()
        assert hasattr(record, "__dict__") == isinstance(record, CheckConfig)
    # the config keeps its fields per instance and its defaults on the class
    assert (CheckConfig.max_facts, CheckConfig.depth, CheckConfig.traces,
            CheckConfig.seed) == (3, 5, 100, 42)
    assert CheckConfig(max_facts=2).max_facts == 2 and CheckConfig.max_facts == 3


def test_importing_the_cli_builds_no_dataclass_machinery():
    src = Path(knowtell.__file__).resolve().parents[1]
    code = ("import sys, knowtell.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -S: no site hook may import either module first
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
                          check=True)
    assert proc.stdout.strip() == "[]"
