"""Exact algebra of regular suffix languages over the marks 1 and 2.

Every language lives in one store of states shared by all of them, in
which no two states have the same language and no state changes once
added. A `Lang` is a root state: equal languages are the same root,
interned as one object, so ``==`` is identity, and the states a root
reaches are exactly its minimal acceptor. A new state goes in by one lookup
of its acceptance and successors, exact because the store is minimal, and
a cycle, which only a minimal acceptor brings and always whole, by one
lookup of its shape, so a tell adds only the states it needs and renumbers
nothing. `Lang(dfa)`, the public door, minimises any acceptor first, so
the one universal state is `ALL_WORDS.root`; the operations here insert
the canonical acceptors that `automata` returns as they are. `Lang.dfa`
is rendered on each read.

The intern table holds its languages weakly, and past ``STORE_CAP``
states the store is rebuilt from the live ones. The lru caches below keep
regex compilation, a tell's growth and a language's ranked member list,
which random draws and enumeration read, from being redone; each holds at
most ``CACHE_SIZE`` entries, so a long session keeps only its live
languages and those the caches still hold. All operations are pure;
nothing here is ever approximated or sampled.
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import lru_cache

from . import regexes
from .automata import (Dfa, canonical_dfa, compile_regex, concat_dfa, product_dfa, renumber,
                       star_dfa, walk)
from .regexes import Lit, Regex, cat, opt, parse_regex
from .sentences import Word

# The store. State s accepts when _accepting[s], reads 1 and 2 to the two
# states of _delta[s], and reaches the universal state (accepting, looping
# on both letters) when _cone[s].
_delta: list[tuple[int, int]] = []
_accepting = bytearray()
_cone = bytearray()
# row -> state, for rejecting and for accepting states; keyed by the stored row
_signatures: tuple[dict, dict] = ({}, {})
# the shape key of a cyclic component (`_add_component`) -> the states of
# each stored component with that key, which are consecutive
_shapes: dict[tuple, list[range]] = {}

# States past which the store is rebuilt from the live languages, or past
# twice what the last rebuild kept. A benchmark trace-session round adds
# 10.6k to 10.8k states, `check --seed 42` 852 and 10,000 tells of the
# worked example 18,869, so none of them reaches it.
STORE_CAP = 1 << 16
_kept = 0


class _Root(int):
    """An intern-table key: a root state, whose ``delta`` is the transition
    table of its language's canonical acceptor."""

    __slots__ = ()

    @property
    def delta(self) -> tuple[tuple[int, int], ...]:
        return renumber(_delta, _accepting, self).delta


class Lang:
    """An exact regular language of suffix words: a root state of the store;
    immutable and interned."""

    __slots__ = ("root", "__weakref__")

    # one live object per root state; a language nothing else holds drops out
    _interned: weakref.WeakValueDictionary[_Root, "Lang"] = weakref.WeakValueDictionary()

    def __new__(cls, dfa: Dfa):
        # the interned language of any complete acceptor
        return _lang(_insert(canonical_dfa(dfa)))

    def __reduce__(self):
        # copies and unpickled values come back as the interned object
        return Lang, (self.dfa,)

    @property
    def dfa(self) -> Dfa:
        """The canonical acceptor, rendered from the store on each read."""
        return renumber(_delta, _accepting, self.root)

    def contains(self, word: Word) -> bool:
        return bool(_accepting[walk(_delta, self.root, word)])

    @property
    def accepts_empty(self) -> bool:
        return bool(_accepting[self.root])

    def __repr__(self) -> str:
        listed = members(self, 3)
        # in the minimal store every state but EMPTY's root leads on to a
        # member, so one reached by four letters means a longer member
        level = {self.root}
        for _ in range(4):
            level = {after for state in level for after in _delta[state]}
        more = ",..." if len(listed) > 6 or level != {EMPTY.root} else ""
        text = ",".join("e" if not w else "".join(map(str, w)) for w in listed[:6])
        return f"Lang{{{text}{more}}}"


def _lang(root: int) -> Lang:
    """The interned language of a root state. A store past its limit is
    rebuilt here, once the root is held, as no other state id is in flight."""
    lang = Lang._interned.get(root)
    if lang is None:
        lang = object.__new__(Lang)
        lang.root = root
        Lang._interned[_Root(root)] = lang
        if len(_delta) > max(STORE_CAP, 2 * _kept):
            _rebuild()
    return lang


def _add(accepting: bool, row: tuple[int, int], cone: bool | None = None) -> int:
    """The state that accepts as given and moves to row's states; a state
    added on a cycle is told whether it reaches the universal state."""
    signatures = _signatures[accepting]
    state = signatures.get(row)
    if state is None:
        state = signatures[row] = len(_delta)
        _delta.append(row)
        _accepting.append(accepting)
        _cone.append(_cone[row[0]] | _cone[row[1]] if cone is None else cone)
    return state


def _add_component(accepting: list[bool], rows: list[tuple[int, int]]) -> list[int]:
    """The states of a strongly connected component with no two states
    alike: its state k accepts when accepting[k] and moves to rows[k], where
    a successor k >= 0 is its own state k and -1 - s is store state s.

    Every component goes in whole, from a minimal acceptor, and no exit of
    a stored one reaches back into it. So if its states equal stored ones,
    those form a whole stored component of the same shape, found by one
    lookup of a key that ignores how the component is numbered; state 0 is
    matched against each state of those components.
    """
    key = tuple(sorted([(int(accepts), one if one < 0 else 0, two if two < 0 else 0)
                        for accepts, (one, two) in zip(accepting, rows)]))
    for states in _shapes.get(key, ()):
        for state in states:
            found = _match(accepting, rows, state)
            if found is not None:
                return found
    states = range(len(_delta), len(_delta) + len(rows))
    _shapes.setdefault(key, []).append(states)
    # an exit that reaches the universal state, or the universal state itself
    cone = key == ((1, 0, 0),) or any(_cone[-1 - e] for row in rows for e in row if e < 0)
    for k, row in enumerate(rows):
        _add(accepting[k], tuple(states[e] if e >= 0 else -1 - e for e in row), cone)
    return list(states)


def _match(accepting: list[bool], rows: list[tuple[int, int]], state: int) -> list[int] | None:
    """The stored states equal to a component's (as `_add_component` takes
    it), if its state 0 equals the stored state given."""
    where, todo = [state] + [None] * (len(rows) - 1), [0]
    for k in todo:
        if _accepting[where[k]] != accepting[k]:
            return None
        for after, target in zip(rows[k], _delta[where[k]]):
            if after < 0:
                if -1 - after != target:
                    return None
            elif where[after] is None:
                where[after] = target
                todo.append(after)
            elif where[after] != target:
                return None
    return where


def _sccs(delta) -> list[list[int]]:
    """The strongly connected components of the states reachable from 0,
    sinks first (Tarjan's algorithm, without recursion). A state is on the
    stack while it has a low entry."""
    index, low, stack, found = {0: 0}, {0: 0}, [0], []
    work = [(0, iter(delta[0]))]
    while work:
        state, successors = work[-1]
        for after in successors:
            if after not in index:
                index[after] = low[after] = len(index)
                stack.append(after)
                work.append((after, iter(delta[after])))
                break
            if after in low:
                low[state] = min(low[state], index[after])
        else:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[state])
            if low[state] == index[state]:
                component = []
                while state in low:
                    component.append(stack.pop())
                    del low[component[-1]]
                found.append(component)
    return found


def _insert(dfa: Dfa) -> int:
    """The root of a minimal acceptor's language. Its components go in sinks
    first: a state on no cycle by its signature, any other as a component."""
    delta, accepting = dfa.delta, dfa.accepting
    ids: dict[int, int] = {}
    for component in _sccs(delta):
        state = component[0]
        if len(component) == 1 and state not in delta[state]:
            one, two = delta[state]
            ids[state] = _add(accepting[state], (ids[one], ids[two]))
            continue
        local = {s: k for k, s in enumerate(component)}
        rows = [tuple(local[t] if t in local else -1 - ids[t] for t in delta[s])
                for s in component]
        ids.update(zip(component, _add_component([accepting[s] for s in component], rows)))
    return ids[0]


def _rebuild() -> None:
    """Insert the live languages into an empty store."""
    global _kept
    live = [(lang, lang.dfa) for lang in Lang._interned.values()]
    for table in (_delta, _accepting, _cone):
        del table[:]
    for table in (*_signatures, _shapes, Lang._interned):
        table.clear()
    for lang, dfa in live:
        lang.root = _insert(dfa)
        Lang._interned[_Root(lang.root)] = lang
    _kept = len(_delta)


# Entries per language-keyed cache, sized from the traffic. Unbounded,
# `check --seed 42` leaves 2,537 entries and 13,187 hits in _union_tail,
# 23 in from_ast and 661 in members (9,722 hits). At 1,024 entries members
# keeps all 661 and _union_tail misses 2,550 times (2,432 at seed 1, 2,469 at
# seed 7), under 1% of its hits lost; at 256 it misses 4,175 times and members
# 867, which slows the checks by about 15%. A long trace rarely hits it at all.
CACHE_SIZE = 1024


@lru_cache(maxsize=CACHE_SIZE)
def from_ast(r: Regex) -> Lang:
    """Compile a regex AST to its language."""
    return _lang(_insert(compile_regex(r)))


def from_regex(text: str) -> Lang:
    """Compile regex text, e.g. ``"e|1(1|2)*"``; RegexError on bad syntax."""
    return from_ast(parse_regex(text))


def prefixed(word: Word, lang: Lang) -> Lang:
    """word . lang: a path that reads the word into lang's root, every
    letter off the path going to the empty language. Only the path states
    are new, each added by its signature, last letter first."""
    walk(_delta, lang.root, word)  # checks the letters
    state, dead = lang.root, EMPTY.root
    for letter in reversed(word):
        state = _add(False, (state, dead) if letter == 1 else (dead, state))
    return _lang(state)


def from_word(word: Word) -> Lang:
    """The one-word language {word}."""
    return prefixed(word, EPSILON)


EMPTY: Lang
EPSILON: Lang
ALL_WORDS: Lang
LETTER: dict[int, Lang]
OWN_CHAINS: dict[int, Lang]


def union(a: Lang, b: Lang) -> Lang:
    if a is b:
        return a
    return _lang(_insert(product_dfa(a.dfa, b.dfa)))


def _tell_tail(mark: int, optional: bool) -> Regex:
    """The tail T of a tell that the mark's agent sends: its mark (optional
    under understanding), then any run of the receiver's own mark."""
    return cat(opt(Lit(mark)) if optional else Lit(mark), regexes.star(Lit(3 - mark)))


def union_tail(lang: Lang, word: Word, mark: int, optional: bool) -> Lang:
    """lang + word.T for the tell tail T that `_tell_tail` writes; lang
    itself when it already holds all of word.T."""
    # checked before the cache, whose keys do not tell True or 1.0 from 1
    # and cannot hold a list
    if not isinstance(lang, Lang):
        raise ValueError(f"lang must be a Lang, got {lang!r}")
    if type(mark) is not int or mark not in (1, 2):
        raise ValueError(f"mark must be 1 or 2, got {mark!r}")
    if not isinstance(word, tuple):
        raise ValueError(f"word must be a tuple, got {word!r}")
    _require_bool("optional", optional)
    walk(_delta, lang.root, word)  # checks the letters
    return _union_tail(lang, word, mark, optional)


@lru_cache(maxsize=CACHE_SIZE)
def _union_tail(lang: Lang, word: Word, mark: int, optional: bool) -> Lang:
    """union_tail for arguments already checked, such as a TellEvent's.

    With q the state that word leads to, the result shares every state of
    the store and adds the few states the tell needs, each added by its
    signature once its successors are known: first, by `_loop`, the state
    of L_s + own* for each state s on the own-mark runs from q's mark
    successor (and, when optional, its own successor); then q with T; then
    the states along word, from the last letter back. The store is minimal,
    so when q's state is q itself the tell adds nothing, and lang comes back.

    A run stops at the empty state or at own*, where L_s + own* is own*. A
    language that tells build from the start languages is own* or empty plus
    finitely many word.T, so each of its runs reaches one of the two. A run
    of another language can close a cycle instead: through accepting states
    only, as a limit's runs do, each state on it holds own* already; through
    a rejecting one, the tell takes the general union with word.T.
    """
    own = 3 - mark
    delta, accepting = _delta, _accepting
    path, q = [], lang.root  # the states before each letter of word; then q
    for letter in word:
        path.append(q)
        q = delta[q][letter - 1]

    chain = OWN_CHAINS[own].root  # read here, since a rebuild renews roots
    looped = {EMPTY.root: chain, chain: chain}  # s -> the state of L_s + own*
    after_mark, after_own = delta[q] if mark == 1 else delta[q][::-1]
    if optional:
        after_own = _loop(after_own, own, looped)
    after_mark = None if after_own is None else _loop(after_mark, own, looped)
    if after_mark is None:
        return union(lang, prefixed(word, from_ast(_tell_tail(mark, optional))))
    state = _add(accepting[q] or optional,
                 (after_mark, after_own) if mark == 1 else (after_own, after_mark))
    if state == q:
        return lang
    for letter, s in zip(reversed(word), reversed(path)):
        one, two = delta[s]
        state = _add(accepting[s], (state, two) if letter == 1 else (one, state))
    return _lang(state)


def _loop(seed: int, own: int, looped: dict[int, int]) -> int | None:
    """The state of L_seed + own*, or None for a closed run that rejects;
    looped, s -> the state of L_s + own*, gains the run's states."""
    run, s = {}, seed
    while s not in looped:
        if s in run:
            if not all(_accepting[t] for t in run):
                return None
            looped.update(zip(run, run))
            return seed
        run[s] = None
        s = _delta[s][own - 1]
    for s in reversed(run):
        one, two = _delta[s]
        looped[s] = _add(True, (looped[one], two) if own == 1 else (one, looped[two]))
    return looped[seed]


def concat(a: Lang, b: Lang) -> Lang:
    return _lang(_insert(concat_dfa(a.dfa, b.dfa)))


def star(a: Lang) -> Lang:
    return _lang(_insert(star_dfa(a.dfa)))


def plus(a: Lang) -> Lang:
    return concat(a, star(a))


def option(a: Lang) -> Lang:
    return union(a, EPSILON)


def subset(a: Lang, b: Lang) -> bool:
    """Exact inclusion: a lies inside b exactly when their union is b, and
    interning makes that an identity test."""
    return union(a, b) is b


def contains_cone(lang: Lang, word: Word) -> bool:
    """Does the word lead to the universal state, so lang holds its whole cone?"""
    return walk(_delta, lang.root, word) == ALL_WORDS.root


def _reach(lang: Lang, word: Word) -> int:
    """The state word leads lang's root to, unchecked: for a Sentence's suffix."""
    state = lang.root
    for letter in word:
        state = _delta[state][letter - 1]
    return state


def cone_word(lang: Lang) -> Word | None:
    """The shortest word (letter 1 before 2) whose whole cone lang holds, or
    None when it holds none: a breadth-first walk to the universal state,
    through the states that reach it."""
    if not _cone[lang.root]:
        return None
    queue = deque([((), lang.root)])
    seen = {lang.root}
    while queue:
        word, state = queue.popleft()
        if state == ALL_WORDS.root:
            return word
        for letter, after in zip((1, 2), _delta[state]):
            if _cone[after] and after not in seen:
                seen.add(after)
                queue.append((word + (letter,), after))


# Enumeration (and the oracle's closure) grow as 2^(depth+1); at depth 16 the
# worked example already peaks near 110 MB, so anything deeper is refused.
MAX_ORACLE_DEPTH = 16


def _require_count(name: str, value: object, low: int, high: int | None = None):
    # the type test keeps out True and 2.0, which compare equal to ints
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < low or (high is not None and value > high):
        wanted = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be {wanted}, got {value}")


def _require_bool(name: str, value: object):
    if type(value) is not bool:  # a truthy "no" would switch a rule on
        raise ValueError(f"{name} must be a bool, got {value!r}")


# The member cache is typed, so that 2.0 and True miss the entries of 2 and
# 1 and reach the type test inside.
@lru_cache(maxsize=CACHE_SIZE, typed=True)
def members(lang: Lang, max_len: int) -> tuple[Word, ...]:
    """Exactly the members with length <= max_len, in (length, word) order,
    letter 1 before 2; ValueError unless max_len is an int in
    0..MAX_ORACLE_DEPTH. The words are listed level by level from the root,
    and no walk steps into the empty state."""
    _require_count("max_len", max_len, 0, MAX_ORACLE_DEPTH)
    dead = EMPTY.root
    found, level = [], [] if lang.root == dead else [((), lang.root)]
    for length in range(max_len + 1):
        found += [word for word, state in level if _accepting[state]]
        if length == max_len:
            return tuple(found)
        deeper = []  # the next level, in order: letter 1 before 2
        for word, state in level:
            one, two = _delta[state]
            if one != dead:
                deeper.append((word + (1,), one))
            if two != dead:
                deeper.append((word + (2,), two))
        level = deeper


def enumerate_words(lang: Lang, max_len: int) -> frozenset[Word]:
    """The set of `members`: exactly the members with length <= max_len."""
    return frozenset(members(lang, max_len))


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
    queue = deque([((), (a.root, b.root))])
    seen = {(a.root, b.root)}
    while queue:
        word, (s, t) = queue.popleft()
        if _accepting[s] != _accepting[t]:
            return word
        for letter, pair in zip((1, 2), zip(_delta[s], _delta[t])):
            # a state paired with itself tells nothing apart
            if pair[0] != pair[1] and pair not in seen:
                seen.add(pair)
                queue.append((word + (letter,), pair))


def to_dot(lang: Lang, name: str = "lang") -> str:
    """Canonical acceptor in GraphViz DOT form: double circles accept,
    edges carry the letters."""
    lines = [
        f"digraph {name} {{",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        "  __start -> s0;",
    ]
    dfa = lang.dfa
    for state, acc in enumerate(dfa.accepting):
        shape = "doublecircle" if acc else "circle"
        lines.append(f"  s{state} [shape={shape}, label=\"{state}\"];")
    for state, row in enumerate(dfa.delta):
        if row[0] == row[1]:
            lines.append(f"  s{state} -> s{row[0]} [label=\"1,2\"];")
        else:
            lines.append(f"  s{state} -> s{row[0]} [label=\"1\"];")
            lines.append(f"  s{state} -> s{row[1]} [label=\"2\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"


EMPTY = from_ast(regexes.EMPTY)
EPSILON = from_ast(regexes.EPS)
ALL_WORDS = from_regex("(1|2)*")
LETTER = {1: from_ast(Lit(1)), 2: from_ast(Lit(2))}
# each agent's own-mark chains, where its own facts start
OWN_CHAINS = {agent: star(LETTER[agent]) for agent in (1, 2)}
