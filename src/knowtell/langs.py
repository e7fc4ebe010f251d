"""Exact algebra of regular suffix languages over the marks 1 and 2.

Every value is interned behind its canonical minimal acceptor, so equal
languages are the same object and ``==`` is identity; the lru caches below
make the repeated small operations of the dynamics essentially free. All
operations are pure; nothing here is ever approximated or sampled.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from operator import or_

from . import regexes
from .automata import (Dfa, canonical_dfa, compile_regex, concat_dfa,
                       dfa_to_dot, product_dfa, star_dfa)
from .regexes import Regex, parse_regex
from .sentences import Word


class Lang:
    """An exact regular language of suffix words; immutable and interned."""

    __slots__ = ("dfa",)

    _interned: dict[Dfa, "Lang"] = {}

    def __new__(cls, dfa: Dfa):
        # dfa must already be canonical; use the module constructors.
        lang = cls._interned.get(dfa)
        if lang is None:
            lang = super().__new__(cls)
            lang.dfa = dfa
            cls._interned[dfa] = lang
        return lang

    def __reduce__(self):
        # copies and unpickled values come back as the interned object
        return Lang, (self.dfa,)

    def contains(self, word: Word) -> bool:
        return self.dfa.accepts(word)

    @property
    def accepts_empty(self) -> bool:
        return self.dfa.accepting[0]

    @property
    def is_empty(self) -> bool:
        return not any(self.dfa.accepting)

    def __repr__(self) -> str:
        n = count_words(self, 3)
        sample = (word_at(self, 3, i) for i in range(min(n, 6)))
        shown = ",".join("e" if not w else "".join(map(str, w)) for w in sample)
        more = ",..." if n > 6 or count_words(self, 6) > n else ""
        return f"Lang{{{shown}{more}}}"


@lru_cache(maxsize=None)
def from_ast(r: Regex) -> Lang:
    """Compile a regex AST to its language."""
    return Lang(compile_regex(r))


def from_regex(text: str) -> Lang:
    """Compile regex text, e.g. ``"e|1(1|2)*"``; RegexError on bad syntax."""
    return from_ast(parse_regex(text))


def prefixed(word: Word, lang: Lang) -> Lang:
    """word . lang, built from lang's acceptor: a path reads the word into its
    start state, and every letter off the path goes to one dead state."""
    n = len(word)
    if not n:
        return lang
    dead = n + len(lang.dfa.delta)
    path = []
    for i, letter in enumerate(word):
        if letter not in (1, 2):
            raise ValueError(f"letter must be 1 or 2, got {letter!r}")
        path.append((i + 1, dead) if letter == 1 else (dead, i + 1))
    body = tuple((n + s, n + t) for s, t in lang.dfa.delta)
    delta = (*path, *body, (dead, dead))
    accepting = (False,) * n + lang.dfa.accepting + (False,)
    return Lang(canonical_dfa(Dfa(delta, accepting)))


def from_word(word: Word) -> Lang:
    """The one-word language {word}."""
    return prefixed(word, EPSILON)


EMPTY: Lang
EPSILON: Lang
ALL_WORDS: Lang
LETTER: dict[int, Lang]


@lru_cache(maxsize=None)
def union(a: Lang, b: Lang) -> Lang:
    if a is b:
        return a
    return Lang(product_dfa(a.dfa, b.dfa, or_))


def without_empty_word(a: Lang) -> Lang:
    """a minus the empty word."""
    return Lang(product_dfa(a.dfa, EPSILON.dfa, lambda x, y: x and not y))


@lru_cache(maxsize=None)
def concat(a: Lang, b: Lang) -> Lang:
    return Lang(concat_dfa(a.dfa, b.dfa))


@lru_cache(maxsize=None)
def star(a: Lang) -> Lang:
    return Lang(star_dfa(a.dfa))


def plus(a: Lang) -> Lang:
    return concat(a, star(a))


def option(a: Lang) -> Lang:
    return union(a, EPSILON)


@lru_cache(maxsize=None)
def subset(a: Lang, b: Lang) -> bool:
    """Exact inclusion: no reachable product state accepts in a but not b.
    Pairs whose a-side is dead (rejecting, looping on both letters) are not
    expanded, so the walk stays within the live part of a."""
    if a is b:
        return True
    delta_a, accepting_a = a.dfa.delta, a.dfa.accepting
    delta_b, accepting_b = b.dfa.delta, b.dfa.accepting
    seen = {(0, 0)}
    stack = [(0, 0)]
    while stack:
        s, t = stack.pop()
        if accepting_a[s]:
            if not accepting_b[t]:
                return False
        elif delta_a[s] == (s, s):
            continue
        for letter_index in (0, 1):
            pair = (delta_a[s][letter_index], delta_b[t][letter_index])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return True


def contains_cone(lang: Lang, word: Word) -> bool:
    """Is every extension of the word in lang? In a minimal complete acceptor:
    does the word lead to the universal state (accepting, looping on 1 and 2)?"""
    state = 0
    for letter in word:
        if letter not in (1, 2):
            raise ValueError(f"letter must be 1 or 2, got {letter!r}")
        state = lang.dfa.delta[state][letter - 1]
    return lang.dfa.accepting[state] and lang.dfa.delta[state] == (state, state)


# Enumeration (and the oracle's closure) grow as 2^(depth+1); at depth 16 the
# worked example already peaks near 110 MB, so anything deeper is refused.
MAX_ORACLE_DEPTH = 16


@lru_cache(maxsize=None)
def enumerate_words(lang: Lang, max_len: int) -> frozenset[Word]:
    """Exactly the members with length <= max_len, read off the count table;
    ValueError outside 0..MAX_ORACLE_DEPTH."""
    if max_len > MAX_ORACLE_DEPTH:
        raise ValueError(f"max_len must be <= {MAX_ORACLE_DEPTH}, got {max_len}")
    return frozenset(word_at(lang, max_len, i)
                     for i in range(count_words(lang, max_len)))


@lru_cache(maxsize=None)
def _path_counts(lang: Lang, max_len: int) -> tuple[tuple[int, ...], ...]:
    # counts[r][q]: accepted words of length exactly r read from state q
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    row = tuple(map(int, lang.dfa.accepting))
    counts = [row]
    for _ in range(max_len):
        row = tuple(row[s] + row[t] for s, t in lang.dfa.delta)
        counts.append(row)
    return tuple(counts)


def count_words(lang: Lang, max_len: int) -> int:
    """How many members have length <= max_len, without listing them."""
    return sum(row[0] for row in _path_counts(lang, max_len))


def word_at(lang: Lang, max_len: int, index: int) -> Word:
    """The index-th member of length <= max_len in (length, word) order,
    letter 1 before 2; IndexError outside 0..count_words - 1."""
    counts = _path_counts(lang, max_len)
    if not 0 <= index < count_words(lang, max_len):
        raise IndexError("word index out of range")
    length = 0
    while index >= counts[length][0]:
        index -= counts[length][0]
        length += 1
    word, state = (), 0
    for remaining in reversed(range(length)):
        # the words that go on with letter 1 take the lower ranks
        ones = counts[remaining][lang.dfa.delta[state][0]]
        letter, index = (1, index) if index < ones else (2, index - ones)
        word += (letter,)
        state = lang.dfa.delta[state][letter - 1]
    return word


def solve_arden(base: Lang, loop: Lang) -> Lang:
    """Least solution X = base . loop* of the equation X = base + X . loop.

    The loop language must not contain the empty word, otherwise the
    solution is not unique and the closed form is not justified.
    """
    if loop.accepts_empty:
        raise ValueError("loop language contains the empty word; no unique solution")
    return concat(base, star(loop))


def cone(word: Word) -> Lang:
    """All extensions of a word: {word} followed by anything."""
    return prefixed(word, ALL_WORDS)


def distinguishing_word(a: Lang, b: Lang) -> Word | None:
    """Shortest word (letter 1 before 2) in exactly one of the languages."""
    if a is b:
        return None
    queue = deque([((), (0, 0))])
    seen = {(0, 0)}
    while queue:
        word, (s, t) = queue.popleft()
        if a.dfa.accepting[s] != b.dfa.accepting[t]:
            return word
        for letter_index in (0, 1):
            pair = (a.dfa.delta[s][letter_index], b.dfa.delta[t][letter_index])
            if pair not in seen:
                seen.add(pair)
                queue.append((word + (letter_index + 1,), pair))
    return None


def to_dot(lang: Lang, name: str = "lang") -> str:
    """Canonical acceptor in GraphViz DOT form."""
    return dfa_to_dot(lang.dfa, name)


EMPTY = from_ast(regexes.EMPTY)
EPSILON = from_ast(regexes.EPS)
ALL_WORDS = from_regex("(1|2)*")
LETTER = {1: from_ast(regexes.Lit(1)), 2: from_ast(regexes.Lit(2))}
