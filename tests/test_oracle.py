import re

import pytest

from knowtell import automata, langs, oracle
from knowtell.checks import check_oracle_equivalence, scenario_grid
from knowtell.dynamics import SaturationResult, saturate
from knowtell.langs import enumerate_words
from knowtell.oracle import (
    MAX_ORACLE_DEPTH,
    BoundedKnowledge,
    Mismatch,
    OracleReport,
    bounded_closure,
    compare_symbolic,
)
from knowtell.sentences import Sentence, Word, append_knows, format_sentence
from knowtell.states import KnowledgeState, ModelKind, Scenario


def texts(bounded: BoundedKnowledge) -> set[str]:
    return {str(s) for s in bounded.sentences}


def worklist_closure(scenario: Scenario, bound: int
                     ) -> tuple[BoundedKnowledge, BoundedKnowledge]:
    """The reference: apply the rules one sentence at a time until the
    worklist empties, with no argument about the order of lengths."""
    understanding = scenario.model is ModelKind.UNDERSTANDING
    held: dict[int, set[tuple[str, Word]]] = {1: set(), 2: set()}
    todo = [(1, (f, ())) for f in scenario.side_a]
    todo += [(2, (f, ())) for f in scenario.side_b]
    while todo:
        agent, pair = todo.pop()
        if pair in held[agent]:
            continue
        held[agent].add(pair)
        fact, word = pair
        if len(word) < bound:
            told = (fact, word + (agent,))
            todo += [(agent, told), (3 - agent, told)]
        if understanding:
            todo.append((3 - agent, pair))
    return tuple(
        BoundedKnowledge(agent, bound, {
            fact: frozenset(word for f, word in held[agent] if f == fact)
            for fact in scenario.facts
        })
        for agent in (1, 2)
    )


@pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
def test_closure_equals_the_worklist_over_the_grid(model):
    for scenario in scenario_grid(3, model):
        for bound in range(9):
            assert bounded_closure(scenario, bound) == \
                worklist_closure(scenario, bound), (scenario.describe(), bound)


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
    assert side_a.suffixes["a"] == {(), (1,), (1, 1), (1, 2)}
    assert side_a.suffixes["c"] == frozenset()


@pytest.mark.parametrize("model", list(ModelKind), ids=lambda m: m.value)
def test_every_scenario_fact_has_suffixes(model):
    for scenario in scenario_grid(3, model):
        for bounded in bounded_closure(scenario, 3):
            assert tuple(bounded.suffixes) == scenario.facts, scenario.describe()


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


def test_compare_symbolic_reports_side_two_under_understanding(monkeypatch):
    # under understanding both sides' closures are equal, so side 2 is
    # compared with the same suffix sets as side 1; it must still be checked
    scenario = Scenario.make(["a", "b"], ["a"], [], "understanding")
    side_a, side_b = bounded_closure(scenario, 3)
    assert side_a.suffixes == side_b.suffixes
    right = saturate(scenario)
    wrong = saturate(Scenario.make(["a", "b"], [], [], "understanding"))
    monkeypatch.setattr(oracle, "saturate", lambda s, **kw: SaturationResult(
        right.state_a, wrong.state_b, right.regexes))
    report = compare_symbolic(scenario, 3)
    assert [(m.agent, m.fact, m.only_symbolic) for m in report.mismatches] == [
        (2, "a", ())]
    assert report.mismatches[0].only_bounded[:3] == ("a", "a.1", "a.2")


def test_bad_bound_rejected(worked_example):
    for bound in (-1, MAX_ORACLE_DEPTH + 1):
        with pytest.raises(ValueError):
            bounded_closure(worked_example, bound)
        with pytest.raises(ValueError):
            compare_symbolic(worked_example, bound)


@pytest.mark.parametrize("bound", [True, 2.0], ids=["bool", "float"])
@pytest.mark.parametrize("run", [bounded_closure, compare_symbolic],
                         ids=["closure", "compare"])
def test_a_bound_that_is_not_an_int_is_rejected(worked_example, run, bound):
    # True and 2.0 compare equal to ints, so only a type test keeps them out
    with pytest.raises(ValueError, match=re.escape(f"got {bound!r}")):
        run(worked_example, bound)


def test_closure_uses_no_automata(worked_example, monkeypatch):
    understanding = Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        "understanding",
    )
    expected = [bounded_closure(s, 4) for s in (worked_example, understanding)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle touched the symbolic engine")

    for module, name in ((langs, "union"), (langs, "concat"), (langs, "star"),
                         (langs, "members"),
                         (automata, "product_dfa"), (automata, "determinize"),
                         (oracle, "enumerate_words"), (oracle, "saturate")):
        monkeypatch.setattr(module, name, forbidden)
    for scenario, (side_a, side_b) in zip((worked_example, understanding),
                                          expected):
        again_a, again_b = bounded_closure(scenario, 4)
        assert again_a.sentences == side_a.sentences
        assert again_b.sentences == side_b.sentences


def reference_compare(scenario: Scenario, depth: int) -> OracleReport:
    """compare_symbolic built fact by fact, with no cache: every fact of the
    scenario closed by bounded_closure and listed by enumerate_words again."""
    closed = bounded_closure(scenario, depth)
    result = oracle.saturate(scenario)
    mismatches = []
    for state, bounded in zip((result.state_a, result.state_b), closed):
        for fact in scenario.facts:
            symbolic = enumerate_words(state.langs[fact], depth)
            brute = bounded.suffixes[fact]
            if symbolic != brute:
                def render(words):
                    ordered = sorted(words, key=lambda w: (len(w), w))
                    return tuple(format_sentence(Sentence(fact, w)) for w in ordered)

                mismatches.append(Mismatch(state.agent, fact, render(symbolic - brute),
                                           render(brute - symbolic)))
    return OracleReport(scenario, depth, tuple(mismatches))


def two_fact_grid():
    subsets = [(), ("a",), ("b",), ("a", "b")]
    return [Scenario.make(("a", "b"), side_a, side_b, model)
            for model in ModelKind for side_a in subsets for side_b in subsets]


def other_model(scenario: Scenario) -> SaturationResult:
    model, = set(ModelKind) - {scenario.model}
    return saturate(Scenario(scenario.facts, scenario.side_a, scenario.side_b, model))


def sides_swapped(scenario: Scenario) -> SaturationResult:
    right = saturate(scenario)
    return SaturationResult(KnowledgeState(1, right.state_b.langs),
                            KnowledgeState(2, right.state_a.langs), right.regexes)


@pytest.mark.parametrize("wrong", [None, other_model, sides_swapped],
                         ids=["right", "other-model", "sides-swapped"])
def test_compare_symbolic_equals_the_fact_by_fact_reference(monkeypatch, wrong):
    if wrong is not None:
        monkeypatch.setattr(oracle, "saturate", wrong)
    mismatches = 0
    for scenario in two_fact_grid():
        for depth in range(7):
            report = compare_symbolic(scenario, depth)
            assert report == reference_compare(scenario, depth), (scenario.describe(), depth)
            mismatches += len(report.mismatches)
    assert (mismatches > 0) == (wrong is not None)


def test_a_warm_cache_still_sees_a_wrong_engine(worked_example, monkeypatch):
    # the wrong engines of test_compare_symbolic_reports_mismatches and
    # test_compare_symbolic_reports_side_two_under_understanding, met on a
    # cold cache and after the right engine filled it for the same classes
    two_facts = Scenario.make(["a", "b"], ["a"], [], "understanding")
    understanding = saturate(Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        "understanding"))
    right = saturate(two_facts)
    wrong = saturate(Scenario.make(["a", "b"], [], [], "understanding"))
    cases = [
        (worked_example, lambda s, **kw: understanding, (1, "b"), ("b",)),
        (two_facts, lambda s, **kw: SaturationResult(right.state_a, wrong.state_b,
                                                     right.regexes), (2, "a"), ()),
    ]
    for scenario, wrong_saturate, where, only_symbolic in cases:
        reports = []
        for warm in (False, True):
            oracle._compare_fact.cache_clear()
            if warm:
                assert compare_symbolic(scenario, 3).ok
            with monkeypatch.context() as patch:
                patch.setattr(oracle, "saturate", wrong_saturate)
                reports.append(compare_symbolic(scenario, 3))
                assert reports[-1] == reference_compare(scenario, 3)
            assert compare_symbolic(scenario, 3).ok  # nor does the wrong run stay
        assert reports[0] == reports[1]
        found = next(m for m in reports[1].mismatches if (m.agent, m.fact) == where)
        assert found.only_symbolic[:1] == only_symbolic


def test_a_warm_cache_still_refuses_a_depth_that_is_not_an_int(worked_example):
    # an lru key cannot tell 2.0 from 2, or True from 1
    for depth in (1, 2):
        assert compare_symbolic(worked_example, depth).ok
    for bad in (True, 2.0):
        with pytest.raises(ValueError,
                           match=rf"^depth must be an int, got {re.escape(repr(bad))}$"):
            compare_symbolic(worked_example, bad)


def test_a_cold_check_compares_each_fact_class_once():
    # a class is who starts with the fact, and the model: 2 x 2 x 2
    oracle._compare_fact.cache_clear()
    assert check_oracle_equivalence(3, 5).status == "pass"
    info = oracle._compare_fact.cache_info()
    facts = sum(len(s.facts) for model in ModelKind for s in scenario_grid(3, model))
    assert (info.misses, info.hits, facts) == (8, 448, 456)
