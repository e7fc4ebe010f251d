"""Finite acceptors over the two agent marks.

Everything funnels into one canonical form: a complete deterministic
acceptor, minimized and renumbered breadth-first with letter 1 before
letter 2. Two acceptors recognize the same language exactly when their
canonical forms are structurally identical, which is what lets each
language be interned as one object. Union, concatenation and star each
join their operands' transition rows and run the one subset construction,
and regexes compile through those operations. An acceptor that only gains
a few states on top of a minimal one is not minimized again: a `Register`
merges each new state into an equal one. It looks among the states it
added and, only when both successors are held, among the held rows: no
held state moves to an added one.

Every acceptor is born in `renumber`, which takes each transition row from
one table, so equal rows in any two acceptors are one tuple. The table is
emptied past ``ROW_TABLE_SIZE`` = 32,768 rows: a benchmark trace-session
round builds 7.3k to 10.8k distinct rows, and `check --seed 42` 69.
Emptying never changes an answer, as acceptors compare and hash by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .regexes import Alt, Cat, Empty, Eps, Lit, Opt, Plus, Regex, Star


@dataclass(frozen=True, slots=True)
class Dfa:
    """Complete deterministic acceptor; state 0 is the start state.

    delta[s] is the pair of successor states on letters 1 and 2.
    """

    delta: tuple[tuple[int, int], ...]
    accepting: tuple[bool, ...]
    # hashed once, as the intern table hashes on every lookup, insert and drop;
    # with slots the cached field does not enlarge every acceptor
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.delta, self.accepting)))

    def __hash__(self) -> int:
        return self._hash

    def end(self, word) -> int:
        """The state a run over the word ends in; ValueError on a letter
        other than 1 or 2."""
        delta, state = self.delta, 0
        for letter in word:
            # the type test keeps out True and 1.0, which compare equal to 1
            if type(letter) is not int or letter not in (1, 2):
                raise ValueError(f"letter must be 1 or 2, got {letter!r}")
            state = delta[state][letter - 1]
        return state

    def accepts(self, word) -> bool:
        return self.accepting[self.end(word)]


def product_dfa(a: Dfa, b: Dfa) -> Dfa:
    """Canonical acceptor of the words of a or b: b's states follow a's,
    and the run starts in both start states at once."""
    n = len(a.delta)
    delta = a.delta + tuple((n + s, n + t) for s, t in b.delta)
    finals = {s for s, acc in enumerate(a.accepting + b.accepting) if acc}
    return determinize(delta, {}, (0, n), finals)


def concat_dfa(a: Dfa, b: Dfa) -> Dfa:
    """Canonical acceptor of a's words followed by b's words: b's states
    follow a's, and each accepting state of a also stands for b's start."""
    n = len(a.delta)
    delta = a.delta + tuple((n + s, n + t) for s, t in b.delta)
    eps = {s: (n,) for s, acc in enumerate(a.accepting) if acc}
    finals = {n + s for s, acc in enumerate(b.accepting) if acc}
    return determinize(delta, eps, (0,), finals)


def star_dfa(a: Dfa) -> Dfa:
    """Canonical acceptor of any run of a's words, the empty run included:
    an accepting hub that moves like a's start, and that each accepting
    state of a also stands for."""
    hub = len(a.delta)
    eps = {s: (hub,) for s, acc in enumerate(a.accepting) if acc}
    return determinize(a.delta + (a.delta[0],), eps, (hub,), {hub})


# Canonical acceptors of the regex leaves: minimal, complete and numbered
# breadth-first with letter 1 first, exactly as canonical_dfa leaves them.
EMPTY_DFA = Dfa(((0, 0),), (False,))
EPS_DFA = Dfa(((1, 1), (1, 1)), (True, False))
LETTER_DFA = {
    1: Dfa(((1, 2), (2, 2), (2, 2)), (False, True, False)),
    2: Dfa(((1, 2), (1, 1), (1, 1)), (False, False, True)),
}


def compile_regex(r: Regex) -> Dfa:
    """Structural recursion over the canonical operations on acceptors."""
    match r:
        case Empty():
            return EMPTY_DFA
        case Eps():
            return EPS_DFA
        case Lit(letter) if letter in LETTER_DFA:
            return LETTER_DFA[letter]
        case Alt(a, b):
            return product_dfa(compile_regex(a), compile_regex(b))
        case Cat(a, b):
            return concat_dfa(compile_regex(a), compile_regex(b))
        case Star(body):
            return star_dfa(compile_regex(body))
        case Plus(body):
            inner = compile_regex(body)
            return concat_dfa(inner, star_dfa(inner))
        case Opt(body):
            return product_dfa(compile_regex(body), EPS_DFA)
    raise TypeError(f"not a regex node: {r!r}")


def determinize(delta: tuple[tuple[int, int], ...], eps: dict[int, tuple[int, ...]],
                starts: tuple[int, ...], finals: set[int]) -> Dfa:
    """Subset construction over complete transition rows joined by epsilon
    edges (eps[s]: the states s also stands for), run from all the start
    states at once. Returns the canonical minimal form."""

    def closure(states) -> frozenset:
        out = set(states)
        stack = list(out)
        while stack:
            for nxt in eps.get(stack.pop(), ()):
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return frozenset(out)

    first = closure(starts)
    index = {first: 0}
    order = [first]
    rows = []
    i = 0
    while i < len(order):
        row = []
        for letter_index in (0, 1):
            subset = closure({delta[state][letter_index] for state in order[i]})
            if subset not in index:
                index[subset] = len(order)
                order.append(subset)
            row.append(index[subset])
        rows.append(tuple(row))
        i += 1
    accepting = tuple(bool(subset & finals) for subset in order)
    return canonical_dfa(Dfa(tuple(rows), accepting))


def canonical_dfa(dfa: Dfa) -> Dfa:
    """Moore minimization plus breadth-first renumbering.

    Assumes every state is reachable (true for anything built here).
    """
    n = len(dfa.delta)
    block = [1 if acc else 0 for acc in dfa.accepting]
    n_blocks = len(set(block))
    while True:
        signature_index: dict[tuple[int, int, int], int] = {}
        refined = [0] * n
        for state in range(n):
            sig = (block[state], block[dfa.delta[state][0]], block[dfa.delta[state][1]])
            refined[state] = signature_index.setdefault(sig, len(signature_index))
        block = refined
        if len(signature_index) == n_blocks:
            break
        n_blocks = len(signature_index)

    rows: list = [None] * n_blocks
    accepting: list = [False] * n_blocks
    for state, (s, t) in enumerate(dfa.delta):
        rows[block[state]] = (block[s], block[t])
        accepting[block[state]] = dfa.accepting[state]
    return renumber(rows, accepting, block[0])


# The row table, sized as the module docstring says.
ROW_TABLE_SIZE = 1 << 15
_ROWS: dict[tuple[int, int], tuple[int, int]] = {}


def renumber(delta, accepting, start: int) -> Dfa:
    """The states reachable from start, numbered breadth-first with letter 1
    before letter 2: on a minimal acceptor, its canonical form."""
    number = [-1] * len(delta)
    number[start] = 0
    order = [start]
    rows = []
    shared = _ROWS.setdefault
    for state in order:
        one, two = delta[state]
        if number[one] < 0:
            number[one] = len(order)
            order.append(one)
        if number[two] < 0:
            number[two] = len(order)
            order.append(two)
        row = (number[one], number[two])
        rows.append(shared(row, row))
    if len(_ROWS) > ROW_TABLE_SIZE:
        _ROWS.clear()
    return Dfa(tuple(rows), tuple([accepting[s] for s in order]))


# Held lookups a register makes by list.index before it hashes the held rows:
# a scan of a trace-session acceptor's ~94 rows costs 1.4-3.4 us and hashing
# them 19 us (CPython 3.11 on a shared 2-core VM), and 11 of the 2,656
# registers of two such rounds made more than eight held lookups (most made
# two to five).
HELD_SCANS = 8


def row_for(letter: int, target: int, other: int) -> tuple[int, int]:
    """The transition row that reads letter to target and the other letter
    to other."""
    return (target, other) if letter == 1 else (other, target)


class Register:
    """A minimal acceptor that grows one state at a time without ever
    holding two states with the same language.

    Because every state it holds is distinct, a new state equals an old one
    exactly when both accept alike and move to the same states (the register
    of Carrasco & Forcada's incremental minimisation). A held state moves
    only to held states, so a new state with an added successor is looked up
    among the added states alone, in a dict of their signatures; one whose
    successors are both held is also looked up among the held rows, of which
    a minimal acceptor has at most two alike, one accepting and one not
    (`_held_state`). The states are kept under their numbers; `to_dfa`
    renumbers what a start state reaches.
    """

    def __init__(self, dfa: Dfa):
        self.held = len(dfa.delta)
        self.delta = list(dfa.delta)
        self.accepting = list(dfa.accepting)
        self.signatures: dict = {}  # (accepting, delta) -> state, added states only
        self.held_scans = 0  # held lookups made by scanning the rows
        self.held_signatures: dict | None = None  # the same for held states, once needed

    def _new(self, accepting: bool, delta: tuple[int, int]) -> int:
        state = self.signatures[accepting, delta] = len(self.delta)
        self.delta.append(delta)
        self.accepting.append(accepting)
        return state

    def add(self, accepting: bool, delta: tuple[int, int]) -> int:
        """The state that accepts as given and moves to the given states."""
        state = self.signatures.get((accepting, delta))
        held = self.held
        if state is None and delta[0] < held and delta[1] < held:
            state = self._held_state(accepting, delta)
        return self._new(accepting, delta) if state is None else state

    def _held_state(self, accepting: bool, delta: tuple[int, int]) -> int | None:
        """The held state with this signature, if any. The first HELD_SCANS
        lookups scan the held rows, which costs less than hashing them all;
        later ones use a dict of the held signatures, built once, so the
        lookups of one register stay linear in its states."""
        held = self.held
        if self.held_scans < HELD_SCANS:
            self.held_scans += 1
            try:
                state = self.delta.index(delta, 0, held)
                if self.accepting[state] != accepting:
                    state = self.delta.index(delta, state + 1, held)
                return state
            except ValueError:  # no held state accepts so and has this row
                return None
        if self.held_signatures is None:
            self.held_signatures = dict(zip(zip(self.accepting[:held], self.delta[:held]),
                                            range(held)))
        return self.held_signatures.get((accepting, delta))

    def add_dead(self) -> int:
        """The state of the empty language: rejecting, looping on both letters."""
        for state, delta in enumerate(self.delta):
            if delta == (state, state) and not self.accepting[state]:
                return state
        state = len(self.delta)
        return self._new(False, (state, state))

    def add_cycle(self, letter: int, exits: list[int]) -> list[int]:
        """Accepting states c_0 .. c_{p-1}, where c_k reads letter to
        c_{k+1 mod p} and the other letter to exits[k].

        c_k and c_{k+d} are equal exactly when d is a multiple of the least
        period of exits, and one of them equals a held state only if c_0
        does, which a walk of one period from each candidate decides.
        """
        p = period = len(exits)
        for d in range(1, p):
            if p % d == 0 and exits[d:] + exits[:d] == exits:
                period = d
                break
        on, off = letter - 1, 2 - letter
        delta, accepting = self.delta, self.accepting
        first_exit, rest = exits[0], exits[1:period]
        for first, row in enumerate(delta):
            if row[off] != first_exit or not accepting[first]:
                continue
            state, cycle = row[on], [first]
            for exit in rest:
                if not accepting[state] or delta[state][off] != exit:
                    break
                cycle.append(state)
                state = delta[state][on]
            else:
                if state == first:
                    return [cycle[k % period] for k in range(p)]
        first = len(self.delta)
        cycle = [self._new(True, row_for(letter, first + (k + 1) % period, exits[k]))
                 for k in range(period)]
        return [cycle[k % period] for k in range(p)]

    def to_dfa(self, start: int) -> Dfa:
        return renumber(self.delta, self.accepting, start)

