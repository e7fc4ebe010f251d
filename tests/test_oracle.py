import pytest

from knowtell import automata, langs, oracle
from knowtell.dynamics import saturate
from knowtell.oracle import (
    MAX_ORACLE_DEPTH,
    BoundedKnowledge,
    bounded_closure,
    compare_symbolic,
)
from knowtell.sentences import append_knows
from knowtell.states import Scenario


def texts(bounded: BoundedKnowledge) -> set[str]:
    return {str(s) for s in bounded.sentences}


def test_bound_zero(worked_example):
    side_a, side_b = bounded_closure(worked_example, 0)
    assert texts(side_a) == {"a"}
    assert texts(side_b) == {"b"}


def test_bound_two_communication(worked_example):
    side_a, side_b = bounded_closure(worked_example, 2)
    have = texts(side_a)
    for present in ("b.2", "b.2.1", "a.1", "a.1.1"):
        assert present in have
    for absent in ("b", "a.2"):
        assert absent not in have
    # mirror image on the other side
    assert "a.1" in texts(side_b) and "a" not in texts(side_b)


def test_bound_two_understanding(worked_example):
    scenario = Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        "understanding",
    )
    side_a, _ = bounded_closure(scenario, 2)
    have = texts(side_a)
    assert "b" in have and "b.1" in have


def test_bounded_sets_are_own_closed(worked_example):
    side_a, side_b = bounded_closure(worked_example, 4)
    for bounded, agent in ((side_a, 1), (side_b, 2)):
        assert bounded.bound == 4
        for sentence in bounded.sentences:
            assert sentence.depth <= 4
            if sentence.depth < 4:
                assert append_knows(sentence, agent) in bounded.sentences


@pytest.mark.parametrize("model", ["communication", "understanding"])
def test_monotone_in_bound(worked_example, model):
    scenario = Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        model,
    )
    for k in range(4):
        at_k = bounded_closure(scenario, k)
        at_k1 = bounded_closure(scenario, k + 1)
        for smaller, larger in zip(at_k, at_k1):
            filtered = {s for s in larger.sentences if s.depth <= k}
            assert smaller.sentences == filtered


def test_suffixes_view(worked_example):
    side_a, _ = bounded_closure(worked_example, 2)
    assert side_a.suffixes("a") == {(), (1,), (1, 1), (1, 2)}
    assert side_a.suffixes("c") == frozenset()


def test_compare_symbolic_worked_example(worked_example):
    report = compare_symbolic(worked_example, 6)
    assert report.ok
    assert report.depth == 6
    assert report.mismatches == ()


def test_compare_symbolic_empty_scenario():
    scenario = Scenario.make([], [], [], "communication")
    for depth in (0, 3, 6):
        assert compare_symbolic(scenario, depth).ok


def test_compare_symbolic_small_grid():
    facts = ("a", "b")
    subsets = [(), ("a",), ("b",), ("a", "b")]
    for model in ("communication", "understanding"):
        for side_a in subsets:
            for side_b in subsets:
                scenario = Scenario.make(facts, side_a, side_b, model)
                assert compare_symbolic(scenario, 4).ok, scenario.describe()


def test_compare_symbolic_reports_mismatches(worked_example, monkeypatch):
    # make the symbolic side compute the other model; the oracle must object
    understanding = Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        "understanding",
    )
    monkeypatch.setattr(
        oracle, "saturate", lambda s, **kw: saturate(understanding)
    )
    report = compare_symbolic(worked_example, 3)
    assert not report.ok
    bad = {(m.agent, m.fact) for m in report.mismatches}
    assert (1, "b") in bad  # the bare relay of b is symbolic-only now
    mismatch = next(m for m in report.mismatches if (m.agent, m.fact) == (1, "b"))
    assert "b" in mismatch.only_symbolic
    assert mismatch.only_bounded == ()


def test_bad_bound_rejected(worked_example):
    for bound in (-1, MAX_ORACLE_DEPTH + 1):
        with pytest.raises(ValueError):
            bounded_closure(worked_example, bound)
        with pytest.raises(ValueError):
            compare_symbolic(worked_example, bound)


def test_closure_uses_no_automata(worked_example, monkeypatch):
    understanding = Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        "understanding",
    )
    expected = [bounded_closure(s, 4) for s in (worked_example, understanding)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle touched the symbolic engine")

    for module, name in ((langs, "union"), (langs, "concat"), (langs, "star"),
                         (automata, "product_dfa"), (automata, "determinize"),
                         (oracle, "enumerate_words"), (oracle, "saturate")):
        monkeypatch.setattr(module, name, forbidden)
    for scenario, (side_a, side_b) in zip((worked_example, understanding),
                                          expected):
        again_a, again_b = bounded_closure(scenario, 4)
        assert again_a.sentences == side_a.sentences
        assert again_b.sentences == side_b.sentences
