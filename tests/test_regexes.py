import pytest
from hypothesis import given
from hypothesis import strategies as st

from knowtell import langs
from knowtell.regexes import (
    EMPTY,
    EPS,
    Alt,
    Cat,
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
    ],
)
def test_parse_rejects(text, position):
    with pytest.raises(RegexError) as err:
        parse_regex(text)
    assert err.value.position == position


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
