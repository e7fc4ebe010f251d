import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from knowtell.sentences import (
    Sentence,
    SentenceError,
    append_knows,
    format_sentence,
    other_agent,
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


@given(
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
    st.lists(st.sampled_from((1, 2)), max_size=6).map(tuple),
    st.sampled_from((1, 2)),
)
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
    with pytest.raises(SentenceError):
        append_knows(Sentence("a"), 0)


def test_other_agent():
    assert other_agent(1) == 2
    assert other_agent(2) == 1
    with pytest.raises(SentenceError):
        other_agent(3)
