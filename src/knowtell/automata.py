"""Finite acceptors over the two agent marks.

Everything funnels into one canonical form: a complete deterministic
acceptor, minimized and renumbered breadth-first with letter 1 before
letter 2. Two acceptors recognize the same language exactly when their
canonical forms are structurally identical. Union, concatenation and star
each join their operands' transition rows and run the one subset
construction, and regexes compile through those operations. These are the
general operations; `langs` keeps every language in one shared store of
distinct states and builds a tell's few new states there directly.
"""

from __future__ import annotations

from .records import Record
from .regexes import Alt, Cat, Empty, Eps, Lit, Opt, Plus, Regex, Star


class Dfa(Record):
    """Complete deterministic acceptor; state 0 is the start state.

    delta[s] is the pair of successor states on letters 1 and 2.
    """

    __slots__ = ("delta", "accepting")

    def accepts(self, word) -> bool:
        return self.accepting[walk(self.delta, 0, word)]


def walk(delta, state: int, word) -> int:
    """The state a run over the word from state ends in; ValueError on a
    letter other than 1 or 2."""
    for letter in word:
        # the type test keeps out True and 1.0, which compare equal to 1
        if type(letter) is not int or letter not in (1, 2):
            raise ValueError(f"letter must be 1 or 2, got {letter!r}")
        state = delta[state][letter - 1]
    return state


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
    """Moore minimization plus breadth-first renumbering; states the start
    does not reach are dropped."""
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


def renumber(delta, accepting, start: int) -> Dfa:
    """The states reachable from start, numbered breadth-first with letter 1
    before letter 2: on a minimal acceptor, its canonical form."""
    number = {start: 0}
    order = [start]
    rows = []
    for state in order:
        one, two = delta[state]
        if one not in number:
            number[one] = len(order)
            order.append(one)
        if two not in number:
            number[two] = len(order)
            order.append(two)
        rows.append((number[one], number[two]))
    return Dfa(tuple(rows), tuple([bool(accepting[s]) for s in order]))
