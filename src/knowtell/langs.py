"""Exact algebra of regular suffix languages over the marks 1 and 2.

Every language lives in one store of states shared by all of them, in
which no two states have the same language and no state changes once
added. A `Lang` is a root state: equal languages are the same root,
interned as one object, so ``==`` is identity, and the states a root
reaches are exactly its minimal acceptor. A new state goes in by one lookup
of its acceptance and successors, exact because the store is minimal, and
a cycle by one lookup of its shape, so a tell adds only the states it needs
and renumbers nothing. The canonical table `Lang.dfa` is built when read.

The intern table holds its languages weakly, and past ``STORE_CAP``
states the store is rebuilt from the live ones. The lru caches below keep
regex compilation, a tell's growth and enumeration from being redone; each
holds at most ``CACHE_SIZE`` entries, so a long session keeps only its live
languages and those the caches still hold. All operations are pure;
nothing here is ever approximated or sampled.
"""

from __future__ import annotations

import weakref
from collections import deque
from functools import lru_cache

from . import regexes
from .automata import Dfa, compile_regex, concat_dfa, product_dfa, renumber, star_dfa, walk
from .regexes import Regex, parse_regex
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
# each stored component with that key, and each state on a cycle -> the
# states of its component, which are consecutive
_shapes: dict[tuple, list[range]] = {}
_cyclic: dict[int, range] = {}
# state -> the number of accepted words of each length 0, 1, ... read from
# it, as far as counted; shared by every language that reaches the state
_counts: dict[int, list[int]] = {}

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

    __slots__ = ("root", "_dfa", "__weakref__")

    # one live object per root state; a language nothing else holds drops out
    _interned: weakref.WeakValueDictionary[_Root, "Lang"] = weakref.WeakValueDictionary()

    def __new__(cls, dfa: Dfa):
        # the interned language of a canonical acceptor
        return _lang(_insert(dfa))

    def __reduce__(self):
        # copies and unpickled values come back as the interned object
        return Lang, (self.dfa,)

    @property
    def dfa(self) -> Dfa:
        """The canonical acceptor, built on first read and then kept."""
        if self._dfa is None:
            self._dfa = renumber(_delta, _accepting, self.root)
        return self._dfa

    def contains(self, word: Word) -> bool:
        return bool(_accepting[walk(_delta, self.root, word)])

    @property
    def accepts_empty(self) -> bool:
        return bool(_accepting[self.root])

    def __repr__(self) -> str:
        n = count_words(self, 3)
        sample = (word_at(self, 3, i) for i in range(min(n, 6)))
        shown = ",".join("e" if not w else "".join(map(str, w)) for w in sample)
        more = ",..." if n > 6 or count_words(self, 6) > n else ""
        return f"Lang{{{shown}{more}}}"


def _lang(root: int) -> Lang:
    """The interned language of a root state. A store past its limit is
    rebuilt here, once the root is held, as no other state id is in flight."""
    lang = Lang._interned.get(root)
    if lang is None:
        lang = object.__new__(Lang)
        lang.root, lang._dfa = root, None
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

    If its states equal stored ones, those form a stored component of the
    same shape, found by one lookup of a key that ignores how the component
    is numbered, or lie in the stored component of one of its exits; state
    0 is matched against each state of those components.
    """
    key = tuple(sorted([(int(accepts), one if one < 0 else 0, two if two < 0 else 0)
                        for accepts, (one, two) in zip(accepting, rows)]))
    exits = {-1 - e for row in rows for e in row if e < 0}
    for states in [*_shapes.get(key, ()), *filter(None, map(_cyclic.get, exits))]:
        for state in states:
            found = _match(accepting, rows, state)
            if found is not None:
                return found
    states = range(len(_delta), len(_delta) + len(rows))
    _shapes.setdefault(key, []).append(states)
    _cyclic.update(dict.fromkeys(states, states))
    # an exit that reaches the universal state, or the universal state itself
    cone = key == ((1, 0, 0),) or any(_cone[e] for e in exits)
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


def row_for(letter: int, target: int, other: int) -> tuple[int, int]:
    """The transition row that reads letter to target and the other letter
    to other."""
    return (target, other) if letter == 1 else (other, target)


def _add_cycle(letter: int, exits: list[int]) -> list[int]:
    """Accepting states c_0 .. c_{p-1}, where c_k reads letter to
    c_{k+1 mod p} and the other letter to exits[k]. c_k and c_{k+d} are
    equal exactly when d is a multiple of the least period of exits."""
    p = period = len(exits)
    for d in range(1, p):
        if p % d == 0 and exits[d:] + exits[:d] == exits:
            period = d
            break
    cycle = _add_component([True] * period, [row_for(letter, (k + 1) % period, -1 - exits[k])
                                             for k in range(period)])
    return [cycle[k % period] for k in range(p)]


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
    live = [(lang, renumber(_delta, _accepting, lang.root)) for lang in Lang._interned.values()]
    for table in (_delta, _accepting, _cone):
        del table[:]
    for table in (*_signatures, _shapes, _cyclic, _counts, Lang._interned):
        table.clear()
    for lang, dfa in live:
        lang.root = _insert(dfa)
        Lang._interned[_Root(lang.root)] = lang
    _kept = len(_delta)


# Entries per language-keyed cache, sized from the traffic. Unbounded,
# `check --seed 42` leaves 2,537 entries and 13,187 hits in _union_tail,
# 23 in from_ast and 6 in enumerate_words. At 1,024
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
    """word . lang: a path that reads the word into lang's root, every
    letter off the path going to the empty language. Only the path states
    are new, each added by its signature, last letter first."""
    walk(_delta, lang.root, word)  # checks the letters
    state, dead = lang.root, EMPTY.root
    for letter in reversed(word):
        state = _add(False, row_for(letter, state, dead))
    return _lang(state)


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


def _own_loop_accepts(state: int, own: int) -> bool:
    # does every run of the own mark, read from state, end in an accepting state?
    seen = set()
    while state not in seen:
        if not _accepting[state]:
            return False
        seen.add(state)
        state = _delta[state][own - 1]
    return True


def union_tail(lang: Lang, word: Word, mark: int, optional: bool) -> Lang:
    """lang + word.T for the tell tail T = mark.own* ((mark|e).own* when
    optional), where own = 3 - mark is the receiver's mark; lang itself
    when it already holds all of word.T."""
    # checked before the cache, whose keys do not tell True or 1.0 from 1
    # and cannot hold a list
    if type(mark) is not int or mark not in (1, 2):
        raise ValueError(f"mark must be 1 or 2, got {mark!r}")
    if not isinstance(word, tuple):
        raise ValueError(f"word must be a tuple, got {word!r}")
    if type(optional) is not bool:  # a truthy "no" would run the understanding rule
        raise ValueError(f"optional must be a bool, got {optional!r}")
    walk(_delta, lang.root, word)  # checks the letters
    return _union_tail(lang, word, mark, optional)


@lru_cache(maxsize=CACHE_SIZE)
def _union_tail(lang: Lang, word: Word, mark: int, optional: bool) -> Lang:
    """union_tail for arguments already checked, such as a TellEvent's.

    With q the state that word leads to, lang already holds word.T when
    every run of the own mark from q's mark successor (and, when optional,
    from q) stays on accepting states. Otherwise the result shares every
    state of the store and adds the few states the tell needs, each added
    by its signature once its successors are known: first, for each state s
    on those own-mark runs, the state of L_s + own* (the runs end in cycles,
    which `_add_cycle` adds as a component); then q with T; then the states
    along word, from the last letter back.
    """
    own = 3 - mark
    delta, accepting = _delta, _accepting
    path, q = [], lang.root  # the states before each letter of word; then q
    for letter in word:
        path.append(q)
        q = delta[q][letter - 1]
    if (_own_loop_accepts(delta[q][mark - 1], own)
            and (not optional or _own_loop_accepts(q, own))):
        return lang

    looped: dict[int, int] = {}  # s -> the state of L_s + own*

    def loop(seed: int) -> int:
        run, on_run, s = [], {}, seed
        while s not in looped and s not in on_run:
            on_run[s] = len(run)
            run.append(s)
            s = delta[s][own - 1]
        if s in on_run:  # the run closed a cycle that starts at s
            cycle = run[on_run[s]:]
            del run[on_run[s]:]
            exits = [delta[c][mark - 1] for c in cycle]
            looped.update(zip(cycle, _add_cycle(own, exits)))
        for s in reversed(run):
            after = looped[delta[s][own - 1]]
            looped[s] = _add(True, row_for(own, after, delta[s][mark - 1]))
        return looped[seed]

    after_own = loop(delta[q][own - 1]) if optional else delta[q][own - 1]
    state = _add(accepting[q] or optional, row_for(mark, loop(delta[q][mark - 1]), after_own))
    for letter, s in zip(reversed(word), reversed(path)):
        state = _add(accepting[s], row_for(letter, state, delta[s][2 - letter]))
    return _lang(state)


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
    state = walk(_delta, lang.root, word)
    return bool(_accepting[state]) and _delta[state] == (state, state)


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
        if _accepting[state] and _delta[state] == (state, state):
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


# The enumeration cache is typed, so that 2.0 and True miss the entries of 2
# and 1 and reach the count rule inside.
@lru_cache(maxsize=CACHE_SIZE, typed=True)
def enumerate_words(lang: Lang, max_len: int) -> frozenset[Word]:
    """Exactly the members with length <= max_len, read off the count table;
    ValueError unless max_len is an int in 0..MAX_ORACLE_DEPTH."""
    _require_count("max_len", max_len, 0, MAX_ORACLE_DEPTH)
    return frozenset(word_at(lang, max_len, i)
                     for i in range(count_words(lang, max_len)))


def _counted(root: int, max_len: int) -> list[int]:
    """root's count row, with those of every state it reaches, extended to
    length max_len: row[r] is the number of accepted words of length exactly
    r read from the state."""
    if len(_counts.get(root, ())) <= max_len:
        reach, seen = [root], {root}
        for state in reach:
            for after in _delta[state]:
                if after not in seen:
                    seen.add(after)
                    reach.append(after)
        for length in range(max_len + 1):
            for state in reach:
                row = _counts.setdefault(state, [])
                if len(row) == length:  # its successors' rows reach length - 1
                    one, two = _delta[state]
                    row.append(_counts[one][length - 1] + _counts[two][length - 1] if length
                               else _accepting[state])
    return _counts[root]


def count_words(lang: Lang, max_len: int) -> int:
    """How many members have length <= max_len, without listing them;
    ValueError unless max_len is an int >= 0."""
    _require_count("max_len", max_len, 0)
    return sum(_counted(lang.root, max_len)[:max_len + 1])


def word_at(lang: Lang, max_len: int, index: int) -> Word:
    """The index-th member of length <= max_len in (length, word) order,
    letter 1 before 2; max_len as for count_words, ValueError when index
    is not an int and IndexError outside 0..count_words - 1."""
    total = count_words(lang, max_len)
    if type(index) is not int:  # True would answer for index 1
        raise ValueError(f"index must be an int, got {index!r}")
    if not 0 <= index < total:
        raise IndexError("word index out of range")
    row, length = _counts[lang.root], 0
    while index >= row[length]:
        index -= row[length]
        length += 1
    word, state = (), lang.root
    for remaining in reversed(range(length)):
        # the words that go on with letter 1 take the lower ranks
        ones = _counts[_delta[state][0]][remaining]
        letter, index = (1, index) if index < ones else (2, index - ones)
        word += (letter,)
        state = _delta[state][letter - 1]
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
    for state, acc in enumerate(lang.dfa.accepting):
        shape = "doublecircle" if acc else "circle"
        lines.append(f"  s{state} [shape={shape}, label=\"{state}\"];")
    for state, row in enumerate(lang.dfa.delta):
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
LETTER = {1: from_ast(regexes.Lit(1)), 2: from_ast(regexes.Lit(2))}
