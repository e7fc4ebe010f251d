import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knowtell import langs
from knowtell.automata import compile_regex, walk
from knowtell.regexes import (
    EMPTY,
    EPS,
    MAX_NESTING,
    Alt,
    Cat,
    Empty,
    Eps,
    Lit,
    Opt,
    Plus,
    RegexError,
    Star,
    alt,
    cat,
    opt,
    parse_regex,
    plus,
    regex_to_text,
    star,
    word_regex,
)


def test_parse_atoms():
    assert parse_regex("1") == Lit(1)
    assert parse_regex("2") == Lit(2)
    assert parse_regex("e") == EPS
    assert parse_regex("0") == EMPTY


def test_parse_structure():
    assert parse_regex("12") == Cat(Lit(1), Lit(2))
    assert parse_regex("1|2") == Alt(Lit(1), Lit(2))
    assert parse_regex("1*") == Star(Lit(1))
    assert parse_regex("2+") == Plus(Lit(2))
    assert parse_regex("1?") == Opt(Lit(1))
    # concatenation binds tighter than alternation
    assert parse_regex("11|22") == Alt(Cat(Lit(1), Lit(1)), Cat(Lit(2), Lit(2)))
    assert parse_regex("(1|2)*") == Star(Alt(Lit(1), Lit(2)))


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("|1", 0),
        ("1|", 2),
        ("(1", 0),       # the unmatched parenthesis
        ("1)", 1),
        ("*", 0),
        ("x", 0),
        ("1 2", 1),
        # parentheses nested too deep: the first one past the bound
        pytest.param("(" * (MAX_NESTING + 1) + "1" + ")" * (MAX_NESTING + 1),
                     MAX_NESTING, id="nested-one-too-deep"),
        pytest.param("(" * 400 + "1" + ")" * 400, MAX_NESTING, id="nested-400"),
        # anything that is not a str
        (["1"], 0),
        (None, 0),
        (b"1", 0),
    ],
)
def test_parse_rejects(text, position):
    with pytest.raises(RegexError) as err:
        parse_regex(text)
    assert err.value.position == position


def ast_depth(r):
    match r:
        case Alt(a, b) | Cat(a, b):
            return 1 + max(ast_depth(a), ast_depth(b))
        case Star(body) | Plus(body) | Opt(body):
            return 1 + ast_depth(body)
    return 0


def test_long_chains_parse_as_balanced_trees():
    # left-nested chains this long used to raise RecursionError
    n = 600
    assert ast_depth(parse_regex("1" * n)) == 10
    assert langs.from_regex("1" * n) is langs.from_word((1,) * n)
    assert ast_depth(parse_regex("|".join("1" * n))) == 10
    assert langs.from_regex("|".join("1" * n)) is langs.LETTER[1]
    assert langs.from_regex("1" + "?+" * n) is langs.from_regex("1*")
    # juxtaposition and | chains print as before
    assert regex_to_text(parse_regex("1(2|1)2*1|2|e")) == "1(2|1)2*1|2|e"
    # nesting up to the bound parses; sibling groups do not add up
    deepest = "(" * MAX_NESTING + "1" + ")" * MAX_NESTING
    assert langs.from_regex(deepest) is langs.LETTER[1]
    assert parse_regex("(1)" * (MAX_NESTING + 5)) == parse_regex("1" * (MAX_NESTING + 5))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((1, 2)), max_size=40).map(tuple))
def test_word_regex_is_the_parsed_tree(word):
    text = "".join(map(str, word)) or "e"
    assert word_regex(word) == parse_regex(text)


def test_long_word_regex():
    # folding cat over the letters raised RecursionError at 1,000 letters
    word = (1, 2, 2) * 1667
    assert word_regex(word) == parse_regex("122" * 1667)
    assert ast_depth(word_regex(word)) == 13
    assert regex_to_text(word_regex(word)) == "122" * 1667


def test_smart_constructors_drop_units():
    assert alt(EMPTY, Lit(1)) == Lit(1)
    assert cat(EPS, Lit(2)) == Lit(2)
    assert cat(EMPTY, Lit(2)) == EMPTY
    assert star(EMPTY) == EPS
    assert star(star(Lit(1))) == Star(Lit(1))
    assert plus(EPS) == EPS
    assert opt(EMPTY) == EPS
    assert word_regex(()) == EPS
    assert regex_to_text(word_regex((2, 1))) == "21"
    assert cat(star(Lit(1)), Lit(1)) == Plus(Lit(1))
    two_tail = cat(Lit(2), star(Lit(1)))
    assert cat(star(Lit(2)), two_tail) == Cat(Plus(Lit(2)), Star(Lit(1)))
    assert cat(star(Lit(1)), Lit(2)) == Cat(Star(Lit(1)), Lit(2))
    assert plus(opt(Lit(1))) == Star(Lit(1))
    assert opt(plus(Lit(2))) == Star(Lit(2))


def test_render_minimal_parens():
    assert regex_to_text(parse_regex("1*(12+1*)*")) == "1*(12+1*)*"
    assert regex_to_text(parse_regex("e|1(1|2)*")) == "e|1(1|2)*"
    assert regex_to_text(parse_regex("(1|2)(1)")) == "(1|2)1"


_leaves = st.sampled_from([Lit(1), Lit(2), EPS, EMPTY])
regex_asts = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Alt, kids, kids),
        st.builds(Cat, kids, kids),
        st.builds(Star, kids),
        st.builds(Plus, kids),
        st.builds(Opt, kids),
    ),
    max_leaves=8,
)


@given(regex_asts, regex_asts)
def test_smart_constructors_preserve_language(a, b):
    lang = langs.from_ast
    assert lang(alt(a, b)) == lang(Alt(a, b))
    assert lang(cat(a, b)) == lang(Cat(a, b))
    assert lang(star(a)) == lang(Star(a))
    assert lang(plus(a)) == lang(Plus(a))
    assert lang(opt(a)) == lang(Opt(a))


@given(regex_asts)
def test_print_parse_preserves_language(ast):
    reparsed = parse_regex(regex_to_text(ast))
    assert langs.from_ast(reparsed) == langs.from_ast(ast)


def python_pattern(r):
    # the same AST in Python's re syntax, every node a non-capturing group
    match r:
        case Empty():
            return "(?!)"
        case Eps():
            return "(?:)"
        case Lit(letter):
            return str(letter)
        case Alt(a, b):
            return f"(?:{python_pattern(a)}|{python_pattern(b)})"
        case Cat(a, b):
            return f"(?:{python_pattern(a)}{python_pattern(b)})"
        case Star(body):
            return f"(?:{python_pattern(body)})*"
        case Plus(body):
            return f"(?:{python_pattern(body)})+"
        case Opt(body):
            return f"(?:{python_pattern(body)})?"


WORDS_UP_TO_6 = [w for n in range(7) for w in itertools.product((1, 2), repeat=n)]


def nullable(r):
    match r:
        case Eps() | Star() | Opt():
            return True
        case Alt(a, b):
            return nullable(a) or nullable(b)
        case Cat(a, b):
            return nullable(a) and nullable(b)
        case Plus(body):
            return nullable(body)
    return False


def _cat(a, b):
    # only the identities 0.r = 0 and e.r = r
    if isinstance(a, Empty):
        return a
    return b if isinstance(a, Eps) else Cat(a, b)


def _alt(a, b):
    # only the identities 0|r = r (either side) and r|r = r
    if isinstance(a, Empty) or a == b:
        return b
    return a if isinstance(b, Empty) else Alt(a, b)


def derivative(r, letter):
    """Brzozowski's derivative: the words w such that letter.w matches r."""
    match r:
        case Lit(mark):
            return EPS if mark == letter else EMPTY
        case Alt(a, b):
            return _alt(derivative(a, letter), derivative(b, letter))
        case Cat(a, b):
            head = _cat(derivative(a, letter), b)
            return _alt(head, derivative(b, letter)) if nullable(a) else head
        case Star(body):
            return _cat(derivative(body, letter), r)
        case Plus(body):
            return _cat(derivative(body, letter), Star(body))
        case Opt(body):
            return derivative(body, letter)
    return EMPTY


def derivative_matches(r):
    """Whether r matches each of WORDS_UP_TO_6, one derivative per word,
    taken from the derivative of the word without its last letter."""
    by_word = {(): r}
    for word in WORDS_UP_TO_6[1:]:
        by_word[word] = derivative(by_word[word[:-1]], word[-1])
    return {word: nullable(d) for word, d in by_word.items()}


def repeat_under_repeat(r, under=False):
    match r:
        case Star(body) | Plus(body):
            return under or repeat_under_repeat(body, True)
        case Alt(a, b) | Cat(a, b):
            return repeat_under_repeat(a, under) or repeat_under_repeat(b, under)
        case Opt(body):
            return repeat_under_repeat(body, under)
    return False


@settings(max_examples=150, deadline=None)
@given(regex_asts)
# re takes seconds to minutes on this one, which matches the words without a 2
@example(Star(Cat(Cat(Star(Lit(1)), Star(Lit(1))), Star(Lit(1)))))
def test_compile_regex_agrees_with_python_re(ast):
    # the reference is the derivative matcher, linear in the word; Python's
    # backtracking re, exponential on a repeat under a repeat, checks that
    # reference wherever the regex has none
    dfa = compile_regex(ast)
    expected = derivative_matches(ast)
    pattern = None if repeat_under_repeat(ast) else re.compile(python_pattern(ast))
    for word in WORDS_UP_TO_6:
        text = "".join(map(str, word))
        assert dfa.accepting[walk(dfa.delta, 0, word)] == expected[word], text
        if pattern:
            assert bool(pattern.fullmatch(text)) == expected[word], text
