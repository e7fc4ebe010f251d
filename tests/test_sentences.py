import copy
import pickle
import random
import re
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from knowtell import sentences
from knowtell.sentences import (
    Sentence,
    SentenceError,
    append_knows,
    format_sentence,
    parse_sentence,
)

# independent statement of the grammar, used as the oracle below
GRAMMAR = re.compile(r"[a-z][a-z0-9_]*(\.(1|2))*\Z")


@pytest.mark.parametrize(
    "text,fact,suffix",
    [
        ("a.2.1", "a", (2, 1)),
        ("a", "a", ()),
        ("b", "b", ()),
        ("a.1", "a", (1,)),
        ("a.1.1", "a", (1, 1)),
        ("fact_42.2.2.1", "fact_42", (2, 2, 1)),
    ],
)
def test_parse_well_formed(text, fact, suffix):
    sentence = parse_sentence(text)
    assert sentence.fact == fact
    assert sentence.suffix == suffix
    assert format_sentence(sentence) == text


@pytest.mark.parametrize(
    "text,position",
    [
        ("a.3", 2),        # agent outside {1,2}
        ("a.", 2),         # trailing dot
        ("a..1", 2),       # empty segment
        (".1", 0),         # missing fact
        ("", 0),
        ("A.1", 0),        # uppercase fact
        ("a b", 1),        # space inside fact
        ("1a", 0),         # fact must start with a letter
        ("a.12", 2),       # two digits in one segment
        ("a.1.", 4),
        ("a.1 ", 2),       # space inside agent segment
    ],
)
def test_parse_rejects(text, position):
    with pytest.raises(SentenceError) as err:
        parse_sentence(text)
    assert err.value.position == position


def test_format_examples():
    assert format_sentence(Sentence("a", (1, 1))) == "a.1.1"
    assert format_sentence(Sentence("b")) == "b"


def test_round_trip_random_sentences():
    rng = random.Random(7)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(1000):
        fact = rng.choice(alphabet) + "".join(
            rng.choice(alphabet + "0123456789_")
            for _ in range(rng.randint(0, 5))
        )
        suffix = tuple(rng.choice((1, 2)) for _ in range(rng.randint(0, 6)))
        sentence = Sentence(fact, suffix)
        assert parse_sentence(format_sentence(sentence)) == sentence


@given(st.text(max_size=12))
def test_parse_agrees_with_grammar_oracle(text):
    # parse accepts exactly the texts the grammar regex accepts, and
    # formatting what it parsed gives the input back
    if GRAMMAR.match(text):
        assert format_sentence(parse_sentence(text)) == text
    else:
        with pytest.raises(SentenceError):
            parse_sentence(text)


facts_st = st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
suffixes_st = st.lists(st.sampled_from((1, 2)), max_size=8).map(tuple)


@given(facts_st, suffixes_st)
def test_parse_builds_what_the_checked_constructor_builds(fact, suffix):
    parsed = parse_sentence(".".join([fact, *map(str, suffix)]))
    built = Sentence(fact, suffix)
    assert parsed == built
    assert hash(parsed) == hash(built) and repr(parsed) == repr(built)
    assert type(parsed.fact) is str and type(parsed.suffix) is tuple
    assert all(type(mark) is int for mark in parsed.suffix)
    assert pickle.loads(pickle.dumps(parsed)) == built
    assert copy.deepcopy(parsed) == built
    # a parsed sentence changed afterwards is checked like a built one
    with pytest.raises(SentenceError):
        Sentence(parsed.fact, suffix=(3,))
    with pytest.raises(SentenceError):
        Sentence("A", parsed.suffix)


def test_a_parse_does_not_check_what_its_match_proved(monkeypatch):
    calls = []

    def counted(check):
        def wrapper(value):
            calls.append(value)
            return check(value)
        return wrapper

    for name in ("check_agent", "check_fact"):
        monkeypatch.setattr(sentences, name, counted(getattr(sentences, name)))
    for text in ("a", "a.1", "a.2.1", "fact_42.2.2.1", "b" + ".1.2" * 6):
        parse_sentence(text)
    assert calls == []
    Sentence("a", (1, 2))
    assert calls == ["a", 1, 2]


def walk_outcome(text):
    # the parser with its one-match route switched off walks every text,
    # and the walk never returns a sentence
    with mock.patch.object(sentences, "_SENTENCE_RE", re.compile(r"(?!)")):
        with pytest.raises((SentenceError, AssertionError)) as err:
            parse_sentence(text)
    if err.type is AssertionError:
        return None  # the walk found no error
    return str(err.value), err.value.position


@given(st.one_of(st.text(max_size=12), st.text("ab_1.2 ", max_size=12),
                 st.builds("".join, st.lists(st.sampled_from(("a", ".1", ".2")),
                                             max_size=6))))
def test_the_segment_walk_finds_an_error_exactly_where_the_pattern_fails(text):
    # so every ill-formed text keeps its message and position, and no
    # well-formed text reaches the walk
    try:
        parse_sentence(text)
    except SentenceError as err:
        assert walk_outcome(text) == (str(err), err.position)
    else:
        assert walk_outcome(text) is None


FACT_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def per_character_fact_error(fact):
    # the rule the parser once applied to a bad fact, character by character:
    # the first one that may not stand where it does
    position = 0
    for i, ch in enumerate(fact):
        if ch not in FACT_CHARS or (i == 0 and not ch.isalpha()):
            position = i
            break
    return f"bad fact name {fact!r} (at position {position})", position


@given(st.one_of(st.text(max_size=12), st.text("az09_.1 A-\u00e9", max_size=12)))
def test_a_bad_fact_is_located_where_the_per_character_rule_located_it(text):
    fact = text.split(".")[0]
    assume(text and not GRAMMAR.match(fact))  # empty text has its own message
    with pytest.raises(SentenceError) as err:
        parse_sentence(text)
    assert (str(err.value), err.value.position) == per_character_fact_error(fact)


@given(facts_st, suffixes_st, st.sampled_from((1, 2)))
def test_append_knows_extends_depth_by_one(fact, suffix, agent):
    sentence = Sentence(fact, suffix)
    extended = append_knows(sentence, agent)
    assert extended.fact == sentence.fact
    assert extended.depth == sentence.depth + 1
    assert extended.suffix == suffix + (agent,)


def test_append_knows_examples():
    assert str(append_knows(parse_sentence("a"), 1)) == "a.1"
    assert str(append_knows(parse_sentence("a.2"), 1)) == "a.2.1"
    sentence = parse_sentence("a")
    for _ in range(4):
        sentence = append_knows(sentence, 2)
    assert str(sentence) == "a.2.2.2.2"


def test_bad_values_rejected_at_construction():
    with pytest.raises(SentenceError):
        Sentence("A")
    with pytest.raises(SentenceError):
        Sentence("a", (3,))
    for not_an_int in (True, 1.0, "1"):
        with pytest.raises(SentenceError):
            Sentence("a", (not_an_int,))
    # a list suffix cannot be hashed, so a tell of it would fail in a cache
    for not_a_tuple in ([1], [], "1"):
        with pytest.raises(SentenceError, match="^suffix must be a tuple of marks, got "):
            Sentence("a", not_a_tuple)
    with pytest.raises(SentenceError):
        append_knows(Sentence("a"), 0)
