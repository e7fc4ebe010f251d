import functools
import itertools
import random
import re

import pytest

from knowtell.checks import subsets_of
from knowtell.dynamics import saturate, step
from knowtell.langs import ALL_WORDS, LETTER, concat, from_ast, from_regex, subset
from knowtell.oracle import bounded_closure
from knowtell.regexes import word_regex
from knowtell.sentences import Sentence, parse_sentence
from knowtell.states import (
    KnowledgeState,
    ModelKind,
    Scenario,
    ScenarioError,
    UnknownFactError,
    common_knowledge,
    initial_state,
    knows,
    known_facts,
    language_equal,
    project_success,
    validate_scenario,
)
from tests.test_checks import sample_tell


def own_suffix_closed(state):
    # appending the agent's own mark stays inside every fact language
    own = LETTER[state.agent]
    return all(subset(concat(lang, own), lang) for lang in state.langs.values())


def test_scenario_validation():
    ok = Scenario.make(["a", "b", "c"], ["a"], ["b"], "communication")
    assert validate_scenario(ok) is ok
    assert Scenario.make(["a"], [], [], "understanding").facts == ("a",)
    with pytest.raises(ScenarioError) as err:
        Scenario.make(["a"], ["x"], [], "communication")
    assert "x" in str(err.value)
    with pytest.raises(ScenarioError):
        Scenario.make(["a", "a"], [], [], "communication")
    with pytest.raises(ScenarioError):
        Scenario.make(["a"], [], [], "telepathy")


@pytest.mark.parametrize("facts, side_a, side_b, message", [
    (("a",), ("a",), frozenset(), "side_a must be a frozenset, got ('a',)"),
    (("a",), frozenset(), (), "side_b must be a frozenset, got ()"),
    (("a",), {"a"}, frozenset(), "side_a must be a frozenset, got {'a'}"),
    (["a"], frozenset(), frozenset(), "facts must be a tuple, got ['a']"),
    ("a", frozenset(), frozenset(), "facts must be a tuple, got 'a'"),
], ids=["side-tuple", "side-empty-tuple", "side-set", "facts-list", "facts-str"])
def test_a_scenario_refuses_fields_that_make_would_normalise(facts, side_a, side_b, message):
    # a tuple side once raised a raw TypeError, and a list or a set built a
    # record that could change or not be hashed; make still normalises them
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        Scenario(facts, side_a, side_b, "communication")
    made = Scenario.make(facts, side_a, side_b, "communication")
    assert hash(made) == hash(Scenario(("a",), frozenset(side_a), frozenset(side_b),
                                       ModelKind.COMMUNICATION))


def test_scenario_sides():
    scenario = Scenario.make(["a", "b"], ["a"], ["b"], "communication")
    assert scenario.side(1) == {"a"}
    assert scenario.side(2) == {"b"}
    assert scenario.model is ModelKind.COMMUNICATION


def test_initial_state_languages(worked_example):
    side1 = initial_state(1, worked_example)
    assert side1.langs["a"] == from_regex("1*")
    assert side1.langs["b"] == from_regex("0")
    assert side1.langs["c"] == from_regex("0")
    side2 = initial_state(2, worked_example)
    assert side2.langs["b"] == from_regex("2*")
    empty = initial_state(1, Scenario.make(["a"], [], [], "communication"))
    assert empty.langs["a"] == from_regex("0")


def test_initial_knowledge(worked_example):
    side1 = initial_state(1, worked_example)
    assert knows(side1, parse_sentence("a"))
    assert knows(side1, parse_sentence("a.1.1"))
    assert not knows(side1, parse_sentence("a.2"))
    assert known_facts(side1) == {"a"}
    with pytest.raises(UnknownFactError):
        knows(side1, parse_sentence("z"))


def test_saturated_knowledge_against_bounded_closure(worked_example):
    # the brute-force closure is the independent witness for these
    side_a, _ = bounded_closure(worked_example, 6)
    assert parse_sentence("b.2") in side_a.sentences
    assert parse_sentence("b") not in side_a.sentences

    result = saturate(worked_example)
    assert knows(result.state_a, parse_sentence("b.2"))
    assert not knows(result.state_a, parse_sentence("b"))
    assert known_facts(result.state_a) == {"a"}


def test_understanding_adds_bare_facts(worked_example):
    scenario = Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        "understanding",
    )
    side_a, _ = bounded_closure(scenario, 6)
    assert parse_sentence("b") in side_a.sentences
    result = saturate(scenario)
    assert known_facts(result.state_a) == {"a", "b"}


def test_common_knowledge_initially_false(worked_example):
    side1 = initial_state(1, worked_example)
    side2 = initial_state(2, worked_example)
    for fact in worked_example.facts:
        assert not common_knowledge(side1, side2, Sentence(fact))


def test_common_knowledge_communication_limit(worked_example):
    # a.2 never appears in side 1's closure, so the cone cannot fill
    side_a, _ = bounded_closure(worked_example, 6)
    assert parse_sentence("a.2") not in side_a.sentences
    result = saturate(worked_example)
    assert not common_knowledge(result.state_a, result.state_b, Sentence("a"))


def test_common_knowledge_understanding_limit():
    scenario = Scenario.make(["a", "b"], ["a"], ["b"], "understanding")
    # bounded closure fills the whole cone up to its depth
    side_a, side_b = bounded_closure(scenario, 4)
    words = {s.suffix for s in side_a.sentences if s.fact == "a"}
    assert len(words) == 2 ** 5 - 1  # every suffix word of length <= 4
    result = saturate(scenario)
    assert common_knowledge(result.state_a, result.state_b, Sentence("a"))

    # cone membership: every sampled extension is known to both sides
    rng = random.Random(11)
    for _ in range(50):
        extension = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 8)))
        sentence = Sentence("a", extension)
        assert knows(result.state_a, sentence)
        assert knows(result.state_b, sentence)


@functools.lru_cache(maxsize=None)
def cone_from_regex(suffix):
    return concat(from_ast(word_regex(suffix)), ALL_WORDS)


def ck_by_cone_inclusion(state_a, state_b, sentence):
    # the definition: the cone of the suffix, compiled from a regex, lies
    # inside both agents' languages for the fact
    cone = cone_from_regex(sentence.suffix)
    return (subset(cone, state_a.langs[sentence.fact])
            and subset(cone, state_b.langs[sentence.fact]))


def test_common_knowledge_matches_cone_inclusion():
    facts = ("a", "b")
    words = [w for n in range(5) for w in itertools.product((1, 2), repeat=n)]
    rng = random.Random(8)
    answers = set()
    for model in ModelKind:
        for side_a, side_b in itertools.product(subsets_of(facts), repeat=2):
            scenario = Scenario.make(facts, side_a, side_b, model)
            result = saturate(scenario)
            pairs = [(result.state_a, result.state_b)]
            state_a, state_b = initial_state(1, scenario), initial_state(2, scenario)
            for _ in range(6):
                pairs.append((state_a, state_b))
                event = sample_tell(state_a, state_b, facts, rng, 3)
                if event is None:
                    break
                state_a, state_b = step(state_a, state_b, event, model)
            for (state_a, state_b), fact, word in itertools.product(
                    pairs, facts, words):
                sentence = Sentence(fact, word)
                answer = common_knowledge(state_a, state_b, sentence)
                assert answer == ck_by_cone_inclusion(state_a, state_b, sentence)
                answers.add(answer)
    assert answers == {True, False}


def test_language_equal_cases(worked_example):
    same = Scenario.make(["a"], ["a"], ["a"], "communication")
    result = saturate(same)
    assert language_equal(result.state_a, result.state_b)

    result = saturate(worked_example)
    assert not language_equal(result.state_a, result.state_b)

    one = initial_state(1, worked_example)
    other = initial_state(1, worked_example)
    assert language_equal(one, other)

    with pytest.raises(ValueError):
        language_equal(one, KnowledgeState(2, {"a": from_regex("0")}))


def test_project_success_cases():
    full = Scenario.make(["a", "b", "c"], ["a", "b", "c"], ["a", "b", "c"],
                         "communication")
    result = saturate(full)
    assert project_success(result.state_a, result.state_b, full)

    covered = Scenario.make(["a", "b", "c"], ["a"], ["b", "c"], "understanding")
    result = saturate(covered)
    assert project_success(result.state_a, result.state_b, covered)

    gap = Scenario.make(["a", "b", "c"], ["a"], ["b"], "understanding")
    result = saturate(gap)
    assert language_equal(result.state_a, result.state_b)
    assert not project_success(result.state_a, result.state_b, gap)


def test_coverage_is_symmetric_once_languages_are_equal():
    # the success predicate only asks about side 1's bare facts, but bare
    # facts are a function of the languages, so equality makes the one-sided
    # condition indistinguishable from a symmetric one
    for model in ("communication", "understanding"):
        scenario = Scenario.make(["a", "b"], ["a", "b"], ["a", "b"], model)
        result = saturate(scenario)
        if language_equal(result.state_a, result.state_b):
            assert known_facts(result.state_a) == known_facts(result.state_b)


def test_own_suffix_closure(worked_example):
    for agent in (1, 2):
        assert own_suffix_closed(initial_state(agent, worked_example))
    result = saturate(worked_example)
    assert own_suffix_closed(result.state_a)
    assert own_suffix_closed(result.state_b)
