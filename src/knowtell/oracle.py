"""Depth-bounded brute-force closure over explicit (fact, suffix) sets.

Deliberately free of the acceptor machinery: agreement between this module
and the symbolic engine is evidence, not circularity. The bounded result is
exact up to the bound because no rule ever shortens a suffix, so a missing
short sentence can never appear later via longer ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import saturate
from .langs import MAX_ORACLE_DEPTH, _require_count, enumerate_words
from .sentences import Sentence, Word, format_sentence
from .states import ModelKind, Scenario


@dataclass(frozen=True)
class BoundedKnowledge:
    """Every sentence an agent holds with suffix length up to the bound."""

    agent: int
    bound: int
    pairs: frozenset[tuple[str, Word]]  # (fact, suffix)

    @property
    def sentences(self) -> frozenset[Sentence]:
        return frozenset(Sentence(fact, word) for fact, word in self.pairs)

    def suffixes(self, fact: str) -> frozenset[Word]:
        return frozenset(word for f, word in self.pairs if f == fact)


def bounded_closure(scenario: Scenario, bound: int
                    ) -> tuple[BoundedKnowledge, BoundedKnowledge]:
    """Exhaustively apply the rules, keeping suffixes at or below the bound.

    Once agent j holds f.w, j knows it knows it and can tell it: j holds
    f.w.j, the other agent gains f.w.j, and with understanding also the
    bare f.w. The universe of bounded sentences is finite and the held sets
    only grow, so the worklist empties at the least fixpoint.
    """
    _require_count("bound", bound, 0, MAX_ORACLE_DEPTH)
    understanding = scenario.model is ModelKind.UNDERSTANDING
    held: dict[int, set[tuple[str, Word]]] = {1: set(), 2: set()}
    todo = [(1, (f, ())) for f in scenario.side_a]
    todo += [(2, (f, ())) for f in scenario.side_b]
    while todo:
        agent, pair = todo.pop()
        if pair in held[agent]:
            continue
        held[agent].add(pair)
        fact, word = pair
        if len(word) < bound:
            told = (fact, word + (agent,))
            todo += [(agent, told), (3 - agent, told)]
        if understanding:
            todo.append((3 - agent, pair))
    return (
        BoundedKnowledge(1, bound, frozenset(held[1])),
        BoundedKnowledge(2, bound, frozenset(held[2])),
    )


@dataclass(frozen=True)
class Mismatch:
    """Per agent and fact: sentences only one engine produced."""

    agent: int
    fact: str
    only_symbolic: tuple[str, ...]
    only_bounded: tuple[str, ...]


@dataclass(frozen=True)
class OracleReport:
    scenario: Scenario
    depth: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def compare_symbolic(scenario: Scenario, depth: int) -> OracleReport:
    """Enumerate each saturated language to the depth and compare it with
    the bounded closure, per agent per fact. Mismatches are report content."""
    closed = bounded_closure(scenario, depth)
    result = saturate(scenario)
    mismatches = []
    for state, bounded in zip((result.state_a, result.state_b), closed):
        by_fact = {fact: set() for fact in scenario.facts}  # one pass, not one per fact
        for fact, word in bounded.pairs:
            by_fact[fact].add(word)
        for fact in scenario.facts:
            symbolic = enumerate_words(state.langs[fact], depth)
            brute = by_fact[fact]
            if symbolic != brute:
                def render(words):
                    ordered = sorted(words, key=lambda w: (len(w), w))
                    return tuple(format_sentence(Sentence(fact, w)) for w in ordered)

                mismatches.append(
                    Mismatch(
                        agent=state.agent,
                        fact=fact,
                        only_symbolic=render(symbolic - brute),
                        only_bounded=render(brute - symbolic),
                    )
                )
    return OracleReport(scenario, depth, tuple(mismatches))
