"""Exact algebra of regular suffix languages over the marks 1 and 2.

Every value is interned behind its canonical minimal acceptor, so equal
languages are the same object and ``==`` is identity. The intern table
holds its languages weakly: a language nothing references is freed, and
building it again interns a new object that is again the only one. The
lru caches below keep regex compilation, a tell's growth and word counting
from being redone; each holds at most ``CACHE_SIZE`` entries, so a long
session keeps only its live languages and those the caches still hold.
All operations are pure; nothing here is ever approximated or sampled.
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import lru_cache

from . import regexes
from .automata import (Dfa, Register, compile_regex, concat_dfa, dfa_to_dot,
                       product_dfa, row_for, star_dfa)
from .regexes import Regex, parse_regex
from .sentences import Word


class Lang:
    """An exact regular language of suffix words; immutable and interned."""

    __slots__ = ("dfa", "__weakref__")

    # one live object per canonical acceptor; a language nothing else holds
    # drops out
    _interned: weakref.WeakValueDictionary[Dfa, "Lang"] = weakref.WeakValueDictionary()

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

    def __repr__(self) -> str:
        n = count_words(self, 3)
        sample = (word_at(self, 3, i) for i in range(min(n, 6)))
        shown = ",".join("e" if not w else "".join(map(str, w)) for w in sample)
        more = ",..." if n > 6 or count_words(self, 6) > n else ""
        return f"Lang{{{shown}{more}}}"


# Entries per language-keyed cache, sized from the traffic. Unbounded,
# `check --seed 42` leaves 2,537 entries and 13,187 hits in _union_tail,
# 661 in _path_counts, 23 in from_ast and 6 in enumerate_words. At 1,024
# entries _union_tail misses 2,550 times (2,432 at seed 1, 2,469 at seed 7),
# under 1% of its hits lost; at 256 it misses 4,175 times, which slows the
# check by about a fifth. A long trace of tells rarely hits it at all.
CACHE_SIZE = 1024


@lru_cache(maxsize=CACHE_SIZE)
def from_ast(r: Regex) -> Lang:
    """Compile a regex AST to its language."""
    return Lang(compile_regex(r))


def from_regex(text: str) -> Lang:
    """Compile regex text, e.g. ``"e|1(1|2)*"``; RegexError on bad syntax."""
    return from_ast(parse_regex(text))


def prefixed(word: Word, lang: Lang) -> Lang:
    """word . lang: a path that reads the word into lang's start state, every
    letter off the path going to the empty language. Only the path states
    are new, so each is merged through the register, last letter first."""
    lang.dfa.path(word)  # checks the letters
    if not word:
        return lang
    register = Register(lang.dfa)
    dead = register.add_dead()
    state = 0
    for letter in reversed(word):
        state = register.add(False, row_for(letter, state, dead))
    return Lang(register.to_dfa(state))


def from_word(word: Word) -> Lang:
    """The one-word language {word}."""
    return prefixed(word, EPSILON)


EMPTY: Lang
EPSILON: Lang
ALL_WORDS: Lang
LETTER: dict[int, Lang]


def union(a: Lang, b: Lang) -> Lang:
    if a is b:
        return a
    return Lang(product_dfa(a.dfa, b.dfa))


def _own_loop_accepts(lang: Lang, state: int, own: int) -> bool:
    # does every run of the own mark, read from state, end in an accepting state?
    seen = set()
    while state not in seen:
        if not lang.dfa.accepting[state]:
            return False
        seen.add(state)
        state = lang.dfa.delta[state][own - 1]
    return True


def union_tail(lang: Lang, word: Word, mark: int, optional: bool) -> Lang:
    """lang + word.T for the tell tail T = mark.own* ((mark|e).own* when
    optional), where own = 3 - mark is the receiver's mark; lang itself
    when it already holds all of word.T."""
    # checked before the cache, whose keys do not tell True or 1.0 from 1
    if type(mark) is not int or mark not in (1, 2):
        raise ValueError(f"mark must be 1 or 2, got {mark!r}")
    lang.dfa.path(word)  # checks the letters
    return _union_tail(lang, word, mark, optional)


@lru_cache(maxsize=CACHE_SIZE)
def _union_tail(lang: Lang, word: Word, mark: int, optional: bool) -> Lang:
    """union_tail for arguments already checked, such as a TellEvent's.

    With q the state that word leads to, lang already holds word.T when
    every run of the own mark from q's mark successor (and, when optional,
    from q) stays on accepting states. Otherwise the result is built from
    lang's states plus the few states the tell adds, each merged through
    the register once its successors are known: first, for each state s on
    those own-mark runs, the state of L_s + own* (the runs end in cycles,
    which `Register.add_cycle` merges); then q with T; then the states
    along word, from the last letter back.
    """
    own = 3 - mark
    delta, accepting = lang.dfa.delta, lang.dfa.accepting
    path = lang.dfa.path(word)
    q = path.pop()
    if (_own_loop_accepts(lang, delta[q][mark - 1], own)
            and (not optional or _own_loop_accepts(lang, q, own))):
        return lang

    register = Register(lang.dfa)
    looped: dict[int, int] = {}  # s -> the state of L_s + own*

    def loop(seed: int) -> int:
        walk, on_walk, s = [], {}, seed
        while s not in looped and s not in on_walk:
            on_walk[s] = len(walk)
            walk.append(s)
            s = delta[s][own - 1]
        if s in on_walk:  # the run closed a cycle that starts at s
            cycle = walk[on_walk[s]:]
            del walk[on_walk[s]:]
            exits = [delta[c][mark - 1] for c in cycle]
            looped.update(zip(cycle, register.add_cycle(own, exits)))
        for s in reversed(walk):
            after = looped[delta[s][own - 1]]
            looped[s] = register.add(True, row_for(own, after, delta[s][mark - 1]))
        return looped[seed]

    after_own = loop(delta[q][own - 1]) if optional else delta[q][own - 1]
    state = register.add(accepting[q] or optional,
                         row_for(mark, loop(delta[q][mark - 1]), after_own))
    for letter, s in zip(reversed(word), reversed(path)):
        state = register.add(accepting[s], row_for(letter, state, delta[s][2 - letter]))
    return Lang(register.to_dfa(state))


def concat(a: Lang, b: Lang) -> Lang:
    return Lang(concat_dfa(a.dfa, b.dfa))


def star(a: Lang) -> Lang:
    return Lang(star_dfa(a.dfa))


def plus(a: Lang) -> Lang:
    return concat(a, star(a))


def option(a: Lang) -> Lang:
    return union(a, EPSILON)


def subset(a: Lang, b: Lang) -> bool:
    """Exact inclusion: a lies inside b exactly when their union is b, and
    interning makes that an identity test."""
    return union(a, b) is b


def contains_cone(lang: Lang, word: Word) -> bool:
    """Is every extension of the word in lang? In a minimal complete acceptor:
    does the word lead to the universal state (accepting, looping on 1 and 2)?"""
    state = lang.dfa.path(word)[-1]
    return lang.dfa.accepting[state] and lang.dfa.delta[state] == (state, state)


def cone_word(lang: Lang) -> Word | None:
    """The shortest word (letter 1 before 2) whose whole cone lang holds, or
    None when it holds none: a breadth-first walk to the universal state."""
    delta, accepting = lang.dfa.delta, lang.dfa.accepting
    if not any(accepting[s] and row == (s, s) for s, row in enumerate(delta)):
        return None
    queue = deque([((), 0)])
    seen = {0}
    while queue:
        word, state = queue.popleft()
        if accepting[state] and delta[state] == (state, state):
            return word
        for letter, after in ((1, delta[state][0]), (2, delta[state][1])):
            if after not in seen:
                seen.add(after)
                queue.append((word + (letter,), after))
    return None


# Enumeration (and the oracle's closure) grow as 2^(depth+1); at depth 16 the
# worked example already peaks near 110 MB, so anything deeper is refused.
MAX_ORACLE_DEPTH = 16


@lru_cache(maxsize=CACHE_SIZE)
def enumerate_words(lang: Lang, max_len: int) -> frozenset[Word]:
    """Exactly the members with length <= max_len, read off the count table;
    ValueError outside 0..MAX_ORACLE_DEPTH."""
    if max_len > MAX_ORACLE_DEPTH:
        raise ValueError(f"max_len must be <= {MAX_ORACLE_DEPTH}, got {max_len}")
    return frozenset(word_at(lang, max_len, i)
                     for i in range(count_words(lang, max_len)))


@lru_cache(maxsize=CACHE_SIZE)
def _path_counts(lang: Lang, max_len: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    # counts[r][q]: accepted words of length exactly r read from state q;
    # and the number of members with length <= max_len
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    row = tuple(map(int, lang.dfa.accepting))
    counts = [row]
    for _ in range(max_len):
        row = tuple(row[s] + row[t] for s, t in lang.dfa.delta)
        counts.append(row)
    return tuple(counts), sum(row[0] for row in counts)


def count_words(lang: Lang, max_len: int) -> int:
    """How many members have length <= max_len, without listing them."""
    return _path_counts(lang, max_len)[1]


def word_at(lang: Lang, max_len: int, index: int) -> Word:
    """The index-th member of length <= max_len in (length, word) order,
    letter 1 before 2; IndexError outside 0..count_words - 1."""
    counts, total = _path_counts(lang, max_len)
    if not 0 <= index < total:
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
