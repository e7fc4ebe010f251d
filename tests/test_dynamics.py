import hashlib
import random
import re
import sys

import pytest

from knowtell import dynamics, langs, regexes
from knowtell.checks import check_ck_dynamics, check_fixpoint_stability
from knowtell.dynamics import (
    TellError,
    TellEvent,
    TraceError,
    _tell_tail,
    run_trace,
    saturate,
    step,
)
from knowtell.langs import (
    ALL_WORDS,
    CACHE_SIZE,
    EMPTY,
    LETTER,
    Lang,
    concat,
    enumerate_words,
    from_ast,
    from_regex,
    option,
    prefixed,
    star,
    subset,
    union,
)
from knowtell.regexes import Cat
from knowtell.sentences import Sentence, SentenceError, parse_sentence
from knowtell.states import (
    KnowledgeState,
    ModelKind,
    Scenario,
    ScenarioError,
    UnknownFactError,
    common_knowledge,
    initial_state,
    knows,
    language_equal,
)
from tests.test_checks import sample_tell
from tests.test_langs import (assert_one_universal_state, clear_language_caches, evicting,
                              language_caches, moore_block_count, reachable_states)


def own_suffix_closed(state):
    # appending the agent's own mark stays inside every fact language
    own = LETTER[state.agent]
    return all(subset(concat(lang, own), lang) for lang in state.langs.values())


def test_tell_event_validation():
    TellEvent(1, 2, Sentence("a"))
    with pytest.raises(TellError):
        TellEvent(1, 1, Sentence("a"))
    for sender, receiver in ((True, 2), (1.0, 2), (1, 2.0)):
        with pytest.raises(SentenceError):
            TellEvent(sender, receiver, Sentence("a"))


@pytest.mark.parametrize("message", ["a", ("a", ()), None], ids=["str", "pair", "none"])
def test_tell_event_refuses_a_message_that_is_not_a_sentence(message):
    with pytest.raises(TellError,
                       match=rf"^message must be a Sentence, got {re.escape(repr(message))}$"):
        TellEvent(1, 2, message)


def test_step_gains_tagged_message(worked_example):
    state_a = initial_state(1, worked_example)
    state_b = initial_state(2, worked_example)
    state_a, state_b = step(
        state_a, state_b, TellEvent(1, 2, parse_sentence("a")),
        worked_example.model,
    )
    # side 2 now holds a.1 and its own-mark extensions, nothing shorter
    for text in ("a.1", "a.1.2", "a.1.2.2"):
        assert knows(state_b, parse_sentence(text))
    assert not knows(state_b, parse_sentence("a"))
    assert not knows(state_b, parse_sentence("a.2"))

    state_a, state_b = step(
        state_a, state_b, TellEvent(1, 2, parse_sentence("a.1.1")),
        worked_example.model,
    )
    got = enumerate_words(state_b.langs["a"], 4)
    assert (1, 1, 1) in got
    assert (1, 1, 1, 2) in got
    assert (1, 1) not in got  # the untagged message itself is not gained


def test_step_understanding_also_gains_bare_message(worked_example):
    scenario = Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        "understanding",
    )
    state_a = initial_state(1, scenario)
    state_b = initial_state(2, scenario)
    state_a, state_b = step(
        state_a, state_b, TellEvent(1, 2, parse_sentence("a")), scenario.model
    )
    assert knows(state_b, parse_sentence("a"))
    assert knows(state_b, parse_sentence("a.2"))
    assert knows(state_b, parse_sentence("a.1"))


def test_step_requires_truthful_sender(worked_example):
    state_a = initial_state(1, worked_example)
    state_b = initial_state(2, worked_example)
    with pytest.raises(TellError):
        step(state_a, state_b, TellEvent(1, 2, parse_sentence("b")),
             worked_example.model)
    # either model enforces the guard
    with pytest.raises(TellError):
        step(state_a, state_b, TellEvent(2, 1, parse_sentence("a")),
             ModelKind.UNDERSTANDING)


def test_step_takes_the_models_scenario_make_takes(worked_example):
    state_a = initial_state(1, worked_example)
    state_b = initial_state(2, worked_example)
    event = TellEvent(1, 2, parse_sentence("a"))
    for kind in ModelKind:
        assert (step(state_a, state_b, event, kind.value)
                == step(state_a, state_b, event, kind))
    # a receiver told a under understanding, by name, knows bare a
    _, told = step(state_a, state_b, event, "understanding")
    assert knows(told, parse_sentence("a"))
    for bad in ("bogus", None, 7):
        with pytest.raises(ScenarioError, match=(
                "^model must be one of 'communication', 'understanding', "
                rf"got {re.escape(repr(bad))}$")):
            step(state_a, state_b, event, bad)


def test_step_requires_the_sides_in_order():
    scenario = Scenario.make(["a"], ["a"], ["a"], "communication")
    state_a = initial_state(1, scenario)
    state_b = initial_state(2, scenario)
    event = TellEvent(1, 2, parse_sentence("a"))
    # swapped, side 2's state would take side 1's gain a.1.2
    for first, second in ((state_b, state_a), (state_a, state_a), (state_b, state_b)):
        with pytest.raises(ValueError, match="sides 1 and 2 in that order"):
            step(first, second, event, scenario.model)


@pytest.mark.parametrize("sender", [1, 2])
def test_step_refuses_a_fact_either_state_lacks(sender):
    scenario = Scenario.make(["a", "b"], ["a", "b"], ["a", "b"], "communication")
    full = {x: initial_state(x, scenario) for x in (1, 2)}
    # the receiver lacks b, although the sender knows it
    lacking = KnowledgeState(3 - sender, {"a": full[3 - sender].langs["a"]})
    pair = (full[1], lacking) if sender == 1 else (lacking, full[2])
    with pytest.raises(UnknownFactError, match="'b'"):
        step(*pair, TellEvent(sender, 3 - sender, parse_sentence("b")), scenario.model)
    # a fact neither state carries
    with pytest.raises(UnknownFactError, match="'c'"):
        step(full[1], full[2], TellEvent(sender, 3 - sender, parse_sentence("c")),
             scenario.model)


def test_step_leaves_sender_untouched(worked_example):
    state_a = initial_state(1, worked_example)
    state_b = initial_state(2, worked_example)
    after_a, after_b = step(
        state_a, state_b, TellEvent(1, 2, parse_sentence("a")),
        worked_example.model,
    )
    assert after_a is state_a
    assert after_b is not state_b


def test_repeated_tell_leaves_states_unchanged(worked_example):
    state_a = initial_state(1, worked_example)
    state_b = initial_state(2, worked_example)
    event = TellEvent(1, 2, parse_sentence("a"))
    state_a, state_b = step(state_a, state_b, event, worked_example.model)
    again_a, again_b = step(state_a, state_b, event, worked_example.model)
    assert again_a is state_a and again_b is state_b
    assert all(again_b.langs[f] is state_b.langs[f] for f in worked_example.facts)


def tell_gain(suffix, sender, understanding):
    # what the receiver's language for the told fact gains from one tell
    return prefixed(suffix, from_ast(_tell_tail(sender, understanding)))


@pytest.mark.parametrize("model", list(ModelKind))
def test_step_is_union_with_gain_or_unchanged(model):
    rng = random.Random(17)
    no_ops = grows = 0
    for side_a, side_b in ((["a"], ["b"]), (["a", "b"], ["a"]), ([], ["b"])):
        scenario = Scenario.make(["a", "b"], side_a, side_b, model)
        state_a = initial_state(1, scenario)
        state_b = initial_state(2, scenario)
        for _ in range(120):
            event = sample_tell(state_a, state_b, scenario.facts, rng, 3)
            if event is None:
                break
            receiver = state_b if event.sender == 1 else state_a
            old = receiver.langs[event.message.fact]
            gain = tell_gain(event.message.suffix, event.sender,
                             model is ModelKind.UNDERSTANDING)
            after_a, after_b = step(state_a, state_b, event, model)
            new_receiver = after_b if event.sender == 1 else after_a
            if subset(gain, old):
                no_ops += 1
                assert after_a is state_a and after_b is state_b
            else:
                grows += 1
                new = new_receiver.langs[event.message.fact]
                assert new is union(old, gain) and new is not old
                assert all(new_receiver.langs[f] is receiver.langs[f]
                           for f in scenario.facts if f != event.message.fact)
            state_a, state_b = after_a, after_b
    assert no_ops and grows


def test_traced_acceptors_and_ck_answers_are_pinned():
    # every acceptor and twelve ck answers after each sampled tell, and on the
    # limit states, in both models; the digest was taken from the tell rule
    # built by product and full minimisation, so any change in a canonical
    # acceptor or an answer shows
    digest = hashlib.sha256()
    suffixes = ((), (1,), (2,), (1, 2), (2, 1), (1, 1, 2))
    rng = random.Random(5)
    for model in ModelKind:
        for side_a, side_b in ((["a"], ["b"]), (["a", "b"], ["a"]), ([], ["b"]),
                               (["a"], ["a"])):
            scenario = Scenario.make(["a", "b"], side_a, side_b, model)
            pairs = []
            state_a, state_b = initial_state(1, scenario), initial_state(2, scenario)
            for _ in range(120):
                event = sample_tell(state_a, state_b, scenario.facts, rng, 6)
                state_a, state_b = step(state_a, state_b, event, model)
                pairs.append((state_a, state_b))
            limit = saturate(scenario)
            pairs.append((limit.state_a, limit.state_b))
            for pair in pairs:
                for state in pair:
                    for fact in scenario.facts:
                        digest.update(repr(state.langs[fact].dfa).encode())
                digest.update(bytes(common_knowledge(*pair, Sentence(f, s))
                                    for f in scenario.facts for s in suffixes))
    assert digest.hexdigest() == (
        "b0850abce6b41b4dfd7fa8c58d6536484a0ad5ff91c4a2de36f80c617fbf1926")


@pytest.mark.usefixtures("frozen_heap")
def test_evicting_every_cache_keeps_the_pinned_acceptors(monkeypatch):
    # the pinned replay above, run through a step that empties every cache first
    monkeypatch.setattr(sys.modules[__name__], "step", evicting(dynamics.step))
    test_traced_acceptors_and_ck_answers_are_pinned()


def test_a_tiny_store_cap_keeps_the_pinned_acceptors(monkeypatch):
    # the pinned replay above, with the store rebuilt from the live roots
    # whenever it passes 64 states, or twice what the last rebuild kept:
    # a rebuild renumbers every stored state and root and changes no language
    rebuild, kept = langs._rebuild, []

    def counted_rebuild():
        rebuild()
        kept.append(len(langs._delta))

    monkeypatch.setattr(langs, "STORE_CAP", 64)
    monkeypatch.setattr(langs, "_rebuild", counted_rebuild)
    clear_language_caches()
    test_traced_acceptors_and_ck_answers_are_pinned()
    assert len(kept) > 2
    assert_one_universal_state()


def test_every_way_of_building_a_language_keeps_the_store_minimal(worked_example):
    clear_language_caches()
    langs._rebuild()  # the store now holds only what live languages reach
    rng = random.Random(6)
    state_a, state_b = initial_state(1, worked_example), initial_state(2, worked_example)
    for _ in range(300):  # tells add their states by signature alone
        event = sample_tell(state_a, state_b, worked_example.facts, rng, 8)
        state_a, state_b = step(state_a, state_b, event, worked_example.model)
    limit = saturate(worked_example)  # minimal acceptors, inserted component by component
    built = [*state_a.langs.values(), *state_b.langs.values(), *limit.state_a.langs.values(),
             *limit.state_b.langs.values(), from_regex("1(21)*2|22*1"),
             prefixed((2, 1, 2), limit.state_b.langs["a"])]
    states = range(len(langs._delta))
    assert moore_block_count(states) == len(states)
    assert_one_universal_state()
    for lang in built:
        assert Lang(lang.dfa) is lang


@pytest.mark.parametrize("model", list(ModelKind))
def test_no_tell_builds_a_cycle(worked_example, model, monkeypatch):
    # every own-mark run of a told language stops at the empty state or at
    # the receiver's own chains, so no tell adds or matches a component, nor
    # takes the general union that a run closing a cycle through a rejecting
    # state would take; the runs of a limit close on accepting states
    clear_language_caches()
    langs._rebuild()  # a rebuild inserts components too; none is due below
    entered, unions = [], []
    add_component, general = langs._add_component, langs.union

    def counted_add_component(*args):
        entered.append(args)
        return add_component(*args)

    def counted_union(*args):
        unions.append(args)
        return general(*args)

    monkeypatch.setattr(langs, "_add_component", counted_add_component)
    monkeypatch.setattr(langs, "union", counted_union)
    scenario = Scenario(worked_example.facts, worked_example.side_a,
                        worked_example.side_b, model)
    rng = random.Random(19)
    state_a, state_b = initial_state(1, scenario), initial_state(2, scenario)
    for _ in range(300):
        event = sample_tell(state_a, state_b, scenario.facts, rng, 12)
        state_a, state_b = step(state_a, state_b, event, model)
    assert langs._union_tail.cache_info().misses > 100  # the tells grew languages
    assert entered == [] and unions == []
    # the tells of the check workload, whose limits insert components
    monkeypatch.setattr(langs, "_add_component", add_component)
    clear_language_caches()
    for report in (check_ck_dynamics(traces=20, seed=42), check_fixpoint_stability()):
        assert report.violations == ()
    assert langs._union_tail.cache_info().misses > 100
    assert unions == []


def cache_room():
    """How many languages the caches can hold: a union_tail entry holds its
    key and its result, a _solve_fact entry both sides' limits, any other
    entry one language."""
    room = 0
    for cached in language_caches():
        info = cached.cache_info()
        if cached is dynamics._solve_fact:  # one entry per fact class, at most 8
            assert info.maxsize is None and info.currsize <= 8
            room += 2 * 8
        else:
            assert info.currsize <= info.maxsize == CACHE_SIZE
            room += info.maxsize * (2 if cached is langs._union_tail else 1)
    return room


def test_a_long_session_keeps_the_intern_table_bounded(worked_example, monkeypatch):
    # 2,537 of these tells grow a language; with a strong intern table and
    # unbounded caches the table grows with them, to 2,544 languages. They
    # add 18,869 states to the store, which a smaller cap rebuilds along the way.
    monkeypatch.setattr(langs, "STORE_CAP", 4096)
    clear_language_caches()
    held_elsewhere = set(Lang._interned.values())
    rng = random.Random(10)
    state_a, state_b = initial_state(1, worked_example), initial_state(2, worked_example)
    for _ in range(10):
        for _ in range(1000):
            event = sample_tell(state_a, state_b, worked_example.facts, rng, 10)
            state_a, state_b = step(state_a, state_b, event, worked_example.model)
        live = {*state_a.langs.values(), *state_b.langs.values()}
        assert len(Lang._interned) <= len(held_elsewhere) + len(live) + cache_room()
        assert len(langs._delta) <= max(langs.STORE_CAP, 2 * langs._kept)
    clear_language_caches()
    assert set(Lang._interned.values()) <= held_elsewhere | live
    # a rebuild keeps exactly the states the live languages reach
    langs._rebuild()
    assert len(langs._delta) == len(reachable_states(lang.root for lang in Lang._interned.values()))


def test_run_trace(worked_example):
    assert run_trace(worked_example, []) == (
        initial_state(1, worked_example), initial_state(2, worked_example)
    )
    _, state_b = run_trace(
        worked_example, [TellEvent(1, 2, parse_sentence("a"))]
    )
    assert knows(state_b, parse_sentence("a.1"))

    with pytest.raises(TraceError) as err:
        run_trace(worked_example, [
            TellEvent(1, 2, parse_sentence("a")),
            TellEvent(1, 2, parse_sentence("b")),
        ])
    assert err.value.index == 1
    assert str(err.value).startswith("event 1:")


def test_trace_monotone_and_closure_preserving(worked_example):
    rng = random.Random(3)
    state_a = initial_state(1, worked_example)
    state_b = initial_state(2, worked_example)
    for _ in range(12):
        sender = rng.choice((1, 2))
        sender_state = state_a if sender == 1 else state_b
        options = [
            (f, w)
            for f in worked_example.facts
            for w in sorted(enumerate_words(sender_state.langs[f], 3))
        ]
        if not options:
            continue
        fact, word = rng.choice(options)
        event = TellEvent(sender, 3 - sender, Sentence(fact, word))
        next_a, next_b = step(state_a, state_b, event, worked_example.model)
        for f in worked_example.facts:
            assert subset(state_a.langs[f], next_a.langs[f])
            assert subset(state_b.langs[f], next_b.langs[f])
        assert own_suffix_closed(next_a) and own_suffix_closed(next_b)
        state_a, state_b = next_a, next_b


def test_permutable_trace_order_insensitive():
    import itertools

    scenario = Scenario.make(["a", "b"], ["a", "b"], [], "communication")
    # all three messages are known at the start, so every order is truthful
    events = [
        TellEvent(1, 2, parse_sentence("a")),
        TellEvent(1, 2, parse_sentence("b")),
        TellEvent(1, 2, parse_sentence("a.1")),
    ]
    results = set()
    for permuted in itertools.permutations(events):
        state_a, state_b = run_trace(scenario, list(permuted))
        results.add(
            (tuple(state_a.langs.items()), tuple(state_b.langs.items()))
        )
    assert len(results) == 1


def test_saturate_worked_example(worked_example):
    result = saturate(worked_example)
    side1, side2 = result.state_a, result.state_b
    assert side1.langs["a"] == from_regex("e|1(1|2)*")
    assert side1.langs["a"] == from_regex("1*(12+1*)*")
    assert side1.langs["b"] == from_regex("2(1|2)*")
    assert side1.langs["c"] == from_regex("0")
    assert side2.langs["b"] == from_regex("e|2(1|2)*")
    assert side2.langs["a"] == from_regex("1(1|2)*")
    assert side2.langs["c"] == from_regex("0")
    assert result.regexes[1]["a"] == "1*(12+1*)*"
    assert from_regex(result.regexes[1]["b"]) == side1.langs["b"]


def test_saturate_equal_fact_sets():
    scenario = Scenario.make(["a"], ["a"], ["a"], "communication")
    result = saturate(scenario)
    assert result.state_a.langs["a"] == ALL_WORDS
    assert result.state_b.langs["a"] == ALL_WORDS
    # at the limit the shared fact even becomes common knowledge, unlike
    # along any finite trace
    assert common_knowledge(result.state_a, result.state_b, Sentence("a"))


def test_saturate_empty_sides():
    scenario = Scenario.make(["a", "b"], [], [], "understanding")
    result = saturate(scenario)
    for fact in scenario.facts:
        assert result.state_a.langs[fact] is EMPTY
        assert result.state_b.langs[fact] is EMPTY
    assert language_equal(result.state_a, result.state_b)


def test_saturated_states_satisfy_their_equations(worked_example):
    for model in ("communication", "understanding"):
        scenario = Scenario.make(
            worked_example.facts, worked_example.side_a,
            worked_example.side_b, model,
        )
        result = saturate(scenario)
        understanding = scenario.model is ModelKind.UNDERSTANDING
        tail_a = concat(option(LETTER[2]) if understanding else LETTER[2],
                        star(LETTER[1]))
        tail_b = concat(option(LETTER[1]) if understanding else LETTER[1],
                        star(LETTER[2]))
        for fact in scenario.facts:
            base_a = star(LETTER[1]) if fact in scenario.side_a else from_regex("0")
            base_b = star(LETTER[2]) if fact in scenario.side_b else from_regex("0")
            got_a = result.state_a.langs[fact]
            got_b = result.state_b.langs[fact]
            assert got_a == union(base_a, concat(got_b, tail_a))
            assert got_b == union(base_b, concat(got_a, tail_b))


def test_saturated_states_are_fixpoints(worked_example):
    rng = random.Random(5)
    for model in ("communication", "understanding"):
        scenario = Scenario.make(
            worked_example.facts, worked_example.side_a,
            worked_example.side_b, model,
        )
        result = saturate(scenario)
        state_a, state_b = result.state_a, result.state_b
        for _ in range(25):
            sender = rng.choice((1, 2))
            sender_state = state_a if sender == 1 else state_b
            options = [
                (f, w)
                for f in scenario.facts
                for w in sorted(enumerate_words(sender_state.langs[f], 5))
            ]
            fact, word = rng.choice(options)
            event = TellEvent(sender, 3 - sender, Sentence(fact, word))
            after_a, after_b = step(state_a, state_b, event, scenario.model)
            assert language_equal(after_a, state_a)
            assert language_equal(after_b, state_b)


def test_ck_stays_empty_along_finite_traces(worked_example):
    rng = random.Random(9)
    for model in ("communication", "understanding"):
        scenario = Scenario.make(["a", "b"], ["a"], ["b"], model)
        state_a = initial_state(1, scenario)
        state_b = initial_state(2, scenario)
        for _ in range(15):
            assert not any(
                common_knowledge(state_a, state_b, Sentence(f))
                for f in scenario.facts
            )
            sender = rng.choice((1, 2))
            sender_state = state_a if sender == 1 else state_b
            options = [
                (f, w)
                for f in scenario.facts
                for w in sorted(enumerate_words(sender_state.langs[f], 3))
            ]
            fact, word = rng.choice(options)
            event = TellEvent(sender, 3 - sender, Sentence(fact, word))
            state_a, state_b = step(state_a, state_b, event, scenario.model)


def test_disable_understanding_matches_communication(worked_example):
    # the success check's self-test fixture solves an understanding scenario
    # under the communication rule; tell by tell, that rule drops the bare gain
    scenario = Scenario.make(
        worked_example.facts, worked_example.side_a, worked_example.side_b,
        "understanding",
    )
    engine = Scenario(scenario.facts, scenario.side_a, scenario.side_b,
                      ModelKind.COMMUNICATION)
    assert engine == worked_example
    mutated = saturate(engine)
    plain = saturate(worked_example)
    for fact in scenario.facts:
        assert mutated.state_a.langs[fact] == plain.state_a.langs[fact]
        assert mutated.state_b.langs[fact] == plain.state_b.langs[fact]
    event = TellEvent(1, 2, parse_sentence("a"))
    state_a, state_b = initial_state(1, scenario), initial_state(2, scenario)
    _, told = step(state_a, state_b, event, engine.model)
    assert not knows(told, parse_sentence("a"))
    _, told = step(state_a, state_b, event, scenario.model)
    assert knows(told, parse_sentence("a"))


# --emit-regex prints these texts; each denotes exactly the solved language
@pytest.mark.parametrize("in_a,in_b,model,text_a,text_b", [
    (False, False, "communication", "0", "0"),
    (True, False, "communication", "1*(12+1*)*", "1+2*(21+2*)*"),
    (False, True, "communication", "2+1*(12+1*)*", "2*(21+2*)*"),
    (True, True, "communication", "(1*|2+1*)(12+1*)*", "(2*|1+2*)(21+2*)*"),
    (False, False, "understanding", "0", "0"),
    (True, False, "understanding", "1*(1?2*2?1*)*", "1*1?2*(2?1*1?2*)*"),
    (False, True, "understanding", "2*2?1*(1?2*2?1*)*", "2*(2?1*1?2*)*"),
    (True, True, "understanding", "(1*|2*2?1*)(1?2*2?1*)*",
     "(2*|1*1?2*)(2?1*1?2*)*"),
])
def test_solved_texts_are_pinned_and_exact(in_a, in_b, model, text_a, text_b):
    scenario = Scenario.make(["a"], ["a"] if in_a else [], ["a"] if in_b else [],
                             model)
    result = saturate(scenario)
    assert (result.regexes[1]["a"], result.regexes[2]["a"]) == (text_a, text_b)
    assert from_regex(text_a) is result.state_a.langs["a"]
    assert from_regex(text_b) is result.state_b.langs["a"]


def test_closed_form_check_rejects_a_wrong_solution(worked_example, monkeypatch):
    # with star(loop) dropped from the solution, start alone is not a fixpoint
    real_star = regexes.star
    monkeypatch.setattr(regexes, "star",
                        lambda r: regexes.EPS if isinstance(r, Cat) else real_star(r))
    dynamics._solve_fact.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="failed its defining equation"):
            saturate(worked_example)
    finally:
        dynamics._solve_fact.cache_clear()


def test_simplified_per_fact_claim_differs_from_fixpoint(worked_example):
    # a blanket "everything a side started with spans its whole cone" reading
    # would give side 1 the full cone for fact a; the operational limit keeps
    # the word 2 out of it, matching the tell-by-tell behavior
    blanket = ALL_WORDS
    operational = saturate(worked_example).state_a.langs["a"]
    assert blanket != operational
    assert not operational.contains((2,))
    assert blanket.contains((2,))
