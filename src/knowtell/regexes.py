"""Regular-expression notation for suffix languages over the marks 1 and 2.

Grammar: ``1`` and ``2`` are the letters, ``e`` the empty word, ``0`` the
empty language; juxtaposition concatenates, ``|`` alternates, postfix
``*`` ``+`` ``?`` iterate, parentheses group. No other syntax exists, so
the notation stays ASCII-clean in files and CLI output.
"""

from __future__ import annotations

from typing import Iterable

from .records import Record


class RegexError(ValueError):
    """Text that does not follow the regex grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Regex(Record):
    """Base class for the regex AST; nodes are frozen and comparable."""

    __slots__ = ()


class Empty(Regex):
    """The empty language, written ``0``."""

    __slots__ = ()


class Eps(Regex):
    """The empty word, written ``e``."""

    __slots__ = ()


class Lit(Regex):
    __slots__ = ("letter",)

    def __init__(self, letter: int):
        # the type test keeps out True and 1.0, which compare equal to 1
        if type(letter) is not int or letter not in (1, 2):
            raise ValueError(f"letter must be 1 or 2, got {letter!r}")
        super().__init__(letter)


class Alt(Regex):
    __slots__ = ("left", "right")


class Cat(Regex):
    __slots__ = ("left", "right")


class Star(Regex):
    __slots__ = ("body",)


class Plus(Regex):
    __slots__ = ("body",)


class Opt(Regex):
    __slots__ = ("body",)


EMPTY = Empty()
EPS = Eps()


# Smart constructors: drop Empty/Eps units, fold x*x into x+ and x?+, x+?
# into x*, and nest to the right, so that machine-built expressions print
# without dead subterms and runs of postfix operators stay shallow.

def alt(a: Regex, b: Regex) -> Regex:
    match (a, b):
        case (Empty(), _):
            return b
        case (_, Empty()):
            return a
        case (Alt(a1, a2), _):
            return Alt(a1, alt(a2, b))
        case _:
            return a if a == b else Alt(a, b)


def cat(a: Regex, b: Regex) -> Regex:
    match (a, b):
        case (Empty(), _) | (_, Empty()):
            return EMPTY
        case (Eps(), _):
            return b
        case (_, Eps()):
            return a
        case (Cat(a1, a2), _):
            return Cat(a1, cat(a2, b))
        case (Star(x), _) if b == x:
            return plus(x)
        case (Star(x), Cat(y, rest)) if y == x:
            return Cat(plus(x), rest)
        case _:
            return Cat(a, b)


def star(r: Regex) -> Regex:
    match r:
        case Empty() | Eps():
            return EPS
        case Star(_):
            return r
        case Plus(body) | Opt(body):
            return Star(body)
        case _:
            return Star(r)


def plus(r: Regex) -> Regex:
    match r:
        case Empty():
            return EMPTY
        case Eps():
            return EPS
        case Star(_) | Plus(_):
            return r
        case Opt(body):
            return star(body)
        case _:
            return Plus(r)


def opt(r: Regex) -> Regex:
    match r:
        case Empty() | Eps():
            return EPS
        case Star(_) | Opt(_):
            return r
        case Plus(body):
            return star(body)
        case _:
            return Opt(r)


def word_regex(word: Iterable[int]) -> Regex:
    """The single-word language, e.g. (2, 1) -> ``21``: the balanced tree
    the parser builds for the same text."""
    letters = [Lit(letter) for letter in word]
    return _balanced(Cat, letters) if letters else EPS


_ATOM_START = frozenset("120e(")
_POSTFIX = {"*": star, "+": plus, "?": opt}


# Deepest parenthesis nesting accepted. Chains of juxtaposition and ``|``
# parse as balanced trees and postfix runs fold, so each level of nesting
# adds depth only logarithmic in the text's length; with this bound the
# recursive hashing and compiling of the AST stays far inside the
# interpreter's recursion limit.
MAX_NESTING = 32


def _balanced(node, items: list[Regex]) -> Regex:
    # items joined in order by the binary node, halving at each level
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return node(_balanced(node, items[:mid]), _balanced(node, items[mid:]))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.nesting = 0

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse_alt(self) -> Regex:
        terms = [self.parse_cat()]
        while self.peek() == "|":
            self.pos += 1
            terms.append(self.parse_cat())
        return _balanced(Alt, terms)

    def parse_cat(self) -> Regex:
        factors = [self.parse_postfix()]
        while self.peek() in _ATOM_START:
            factors.append(self.parse_postfix())
        return _balanced(Cat, factors)

    def parse_postfix(self) -> Regex:
        node = self.parse_atom()
        while self.peek() in _POSTFIX:
            node = _POSTFIX[self.peek()](node)
            self.pos += 1
        return node

    def parse_atom(self) -> Regex:
        ch = self.peek()
        if ch == "1" or ch == "2":
            self.pos += 1
            return Lit(int(ch))
        if ch == "e":
            self.pos += 1
            return EPS
        if ch == "0":
            self.pos += 1
            return EMPTY
        if ch == "(":
            open_pos = self.pos
            if self.nesting == MAX_NESTING:
                raise RegexError(f"parentheses nested deeper than {MAX_NESTING}",
                                 open_pos)
            self.pos += 1
            self.nesting += 1
            node = self.parse_alt()
            self.nesting -= 1
            if self.peek() != ")":
                raise RegexError("missing ')'", open_pos)
            self.pos += 1
            return node
        if ch is None:
            raise RegexError("expected an expression", self.pos)
        raise RegexError(f"unexpected {ch!r}", self.pos)


def parse_regex(text: str) -> Regex:
    """Parse regex text; raises RegexError with the offending position."""
    if not isinstance(text, str):
        raise RegexError(f"expected regex text, got {type(text).__name__}", 0)
    parser = _Parser(text)
    node = parser.parse_alt()
    if parser.pos != len(text):
        raise RegexError(f"unexpected {text[parser.pos]!r}", parser.pos)
    return node


# Precedence levels used when printing: Alt < Cat < postfix < atom.
_PREC_ALT, _PREC_CAT, _PREC_POSTFIX, _PREC_ATOM = 0, 1, 2, 3


def regex_to_text(r: Regex) -> str:
    """Render an AST back to the textual notation with minimal parentheses."""
    text, _ = _render(r)
    return text


def _render(r: Regex) -> tuple[str, int]:
    match r:
        case Empty():
            return "0", _PREC_ATOM
        case Eps():
            return "e", _PREC_ATOM
        case Lit(letter):
            return str(letter), _PREC_ATOM
        case Alt(a, b):
            return f"{_child(a, _PREC_ALT)}|{_child(b, _PREC_ALT)}", _PREC_ALT
        case Cat(a, b):
            return f"{_child(a, _PREC_CAT)}{_child(b, _PREC_CAT)}", _PREC_CAT
        case Star(body):
            return f"{_child(body, _PREC_ATOM)}*", _PREC_POSTFIX
        case Plus(body):
            return f"{_child(body, _PREC_ATOM)}+", _PREC_POSTFIX
        case Opt(body):
            return f"{_child(body, _PREC_ATOM)}?", _PREC_POSTFIX
    raise TypeError(f"not a regex node: {r!r}")


def _child(r: Regex, need: int) -> str:
    text, prec = _render(r)
    return text if prec >= need else f"({text})"
