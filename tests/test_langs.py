import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from knowtell import langs
from knowtell.dynamics import _solve_fact
from knowtell.langs import (
    ALL_WORDS,
    EMPTY,
    EPSILON,
    LETTER,
    compose,
    concat,
    cone,
    contains,
    count_words,
    distinguishing_word,
    enumerate_words,
    equals,
    from_regex,
    from_word,
    option,
    plus,
    solve_arden,
    star,
    subset,
    to_dot,
    union,
    word_at,
)
from tests.test_regexes import regex_asts


def all_words(max_len):
    for n in range(max_len + 1):
        yield from itertools.product((1, 2), repeat=n)


def test_membership_examples():
    assert contains(from_regex("1(1|2)*"), (1, 2, 1))
    assert not contains(from_regex("1(1|2)*"), ())
    assert contains(from_regex("2+1*"), (2, 2, 1))


def test_from_regex_examples():
    ones = from_regex("1*")
    assert all(contains(ones, (1,) * n) for n in range(5))
    assert not contains(ones, (2,))
    assert from_regex("0") == EMPTY
    assert enumerate_words(ALL_WORDS, 2) == frozenset(all_words(2))


def test_own_language_identity():
    # confirmed first by bounded enumeration, then by exact equivalence
    solved = from_regex("1*(12+1*)*")
    direct = from_regex("e|1(1|2)*")
    for word in all_words(8):
        assert contains(solved, word) == contains(direct, word), word
    assert equals(solved, direct)


def test_equality_examples():
    assert equals(from_regex("(1|2)*"), from_regex("e|(1|2)(1|2)*"))
    assert not equals(from_regex("1*"), from_regex("1+"))


def test_interning_makes_equal_languages_identical():
    assert from_regex("(1|2)*") is from_regex("e|(1|2)(1|2)*")
    assert from_regex("1*") is not from_regex("1+")


def test_compose_operations():
    assert compose("union", [from_regex("1*"), EMPTY]) == from_regex("1*")
    two_then_ones = compose("concat", [from_regex("2+"), from_regex("1*")])
    assert contains(two_then_ones, (2, 1))
    assert not contains(two_then_ones, (1, 2))
    assert compose("star", [EMPTY]) == EPSILON
    assert compose("plus", [LETTER[1]]) == from_regex("11*")
    assert compose("option", [LETTER[2]]) == from_regex("e|2")


def test_compose_arity_and_kind_errors():
    with pytest.raises(ValueError):
        compose("union", [EMPTY])
    with pytest.raises(ValueError):
        compose("star", [EMPTY, EMPTY])
    with pytest.raises(ValueError):
        compose("complement", [EMPTY])


def test_subset_examples():
    assert subset(from_regex("1*"), ALL_WORDS)
    assert not subset(ALL_WORDS, from_regex("1*"))


def test_enumerate_examples():
    assert enumerate_words(from_regex("2+1*"), 2) == {(2,), (2, 1), (2, 2)}
    for k in range(5):
        assert enumerate_words(EMPTY, k) == frozenset()


def test_solve_arden_examples():
    assert solve_arden(from_regex("1*"), from_regex("12+1*")) == from_regex(
        "1*(12+1*)*"
    )
    assert solve_arden(EPSILON, EMPTY) == EPSILON
    with pytest.raises(ValueError):
        solve_arden(from_regex("1*"), from_regex("2*"))


def test_cone_examples():
    assert cone(()) == ALL_WORDS
    two_cone = cone((2,))
    assert contains(two_cone, (2,)) and contains(two_cone, (2, 1, 1))
    assert not contains(two_cone, (1, 2))


def test_to_dot_shape():
    dot = to_dot(from_regex("1*"), name="ones")
    assert dot.startswith("digraph ones {")
    assert "doublecircle" in dot
    assert 'label="1"' in dot or 'label="1,2"' in dot


langs_st = regex_asts.map(langs.from_ast)


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st)
def test_union_commutative_and_idempotent(a, b):
    assert union(a, b) == union(b, a)
    assert union(a, a) == a


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st, langs_st)
def test_associativity_and_distribution(a, b, c):
    assert union(union(a, b), c) == union(a, union(b, c))
    assert concat(concat(a, b), c) == concat(a, concat(b, c))
    assert concat(a, union(b, c)) == union(concat(a, b), concat(a, c))
    assert concat(union(a, b), c) == union(concat(a, c), concat(b, c))


@settings(max_examples=60, deadline=None)
@given(langs_st)
def test_star_laws(a):
    assert star(star(a)) == star(a)
    assert plus(a) == concat(a, star(a))
    assert option(a) == union(a, EPSILON)
    assert union(a, EMPTY) == a


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st)
def test_equality_agrees_with_enumeration(a, b):
    if a == b:
        for k in (0, 2, 4, 8):
            assert enumerate_words(a, k) == enumerate_words(b, k)
        assert distinguishing_word(a, b) is None
    else:
        word = distinguishing_word(a, b)
        assert word is not None
        assert contains(a, word) != contains(b, word)


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st)
def test_subset_is_an_exact_order(a, b):
    assert subset(a, a)
    assert subset(a, union(a, b))
    both = subset(a, b) and subset(b, a)
    assert both == (a == b)


@settings(max_examples=40, deadline=None)
@given(langs_st, st.integers(min_value=0, max_value=6))
def test_enumeration_matches_membership(a, k):
    expected = {w for w in all_words(k) if contains(a, w)}
    assert enumerate_words(a, k) == expected


@settings(max_examples=60, deadline=None)
@given(langs_st, langs_st)
def test_arden_solution_satisfies_its_equation(base, loop):
    assume(not loop.accepts_empty)
    solution = solve_arden(base, loop)
    assert solution == union(base, concat(solution, loop))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from((1, 2)), max_size=5).map(tuple))
def test_from_word_singleton(word):
    lang = from_word(word)
    assert enumerate_words(lang, len(word) + 2) == {word}


def assert_enumeration_ops_agree(lang):
    for d in range(7):
        ordered = sorted(enumerate_words(lang, d), key=lambda w: (len(w), w))
        n = count_words(lang, d)
        assert n == len(ordered)
        assert [word_at(lang, d, i) for i in range(n)] == ordered
        with pytest.raises(IndexError):
            word_at(lang, d, n)


@settings(max_examples=60, deadline=None)
@given(langs_st)
def test_count_and_unrank_match_enumeration(a):
    assert_enumeration_ops_agree(a)


def test_count_and_unrank_on_fixed_languages():
    saturated = [
        lang
        for in_a, in_b, understanding in itertools.product((False, True), repeat=3)
        for lang in _solve_fact(in_a, in_b, understanding)[:2]
    ]
    for lang in [EMPTY, ALL_WORDS, *saturated]:
        assert_enumeration_ops_agree(lang)
    assert count_words(ALL_WORDS, 6) == 2 ** 7 - 1
    with pytest.raises(ValueError):
        count_words(ALL_WORDS, -1)
    with pytest.raises(IndexError):
        word_at(ALL_WORDS, 2, -1)
