"""Depth-bounded brute-force closure over explicit per-fact suffix sets.

Deliberately free of the acceptor machinery: agreement between this module
and the symbolic engine is evidence, not circularity. No rule mixes facts,
so each fact is closed on its own, one suffix length at a time: every rule
takes a sentence of length n to one of length n or n + 1, never shorter,
so once the rules at length n have run, no longer sentence can add one of
length n, and one pass per length is exact up to the bound.
"""

from __future__ import annotations

from .dynamics import saturate
from .langs import MAX_ORACLE_DEPTH, _require_count, enumerate_words
from .records import Record
from .sentences import Sentence, format_sentence
from .states import ModelKind, Scenario


class BoundedKnowledge(Record):
    """Every sentence an agent holds with suffix length up to the bound."""

    __slots__ = ("agent", "bound", "suffixes")  # suffixes: every fact, empty if not held

    @property
    def sentences(self) -> frozenset[Sentence]:
        return frozenset(Sentence(fact, word)
                         for fact, words in self.suffixes.items() for word in words)


def bounded_closure(scenario: Scenario, bound: int
                    ) -> tuple[BoundedKnowledge, BoundedKnowledge]:
    """Apply the rules one suffix length at a time, up to the bound.

    Once agent j holds f.w, j knows it knows it and can tell it: j holds
    f.w.j, the other agent gains f.w.j, and with understanding also the
    bare f.w. The relay keeps the length, and relaying a relayed sentence
    only returns it, so at length 0 one union closes it. A told sentence
    reaches both sides, so from length 1 on they hold one shared level and
    the relay adds nothing there; each level is built from the one before
    it alone. No rule shortens a suffix, so one pass per length reaches
    the least fixpoint.
    """
    _require_count("bound", bound, 0, MAX_ORACLE_DEPTH)
    held_a, held_b = {}, {}
    for fact in scenario.facts:
        own_a = frozenset({()} if fact in scenario.side_a else ())
        own_b = frozenset({()} if fact in scenario.side_b else ())
        if scenario.model is ModelKind.UNDERSTANDING:
            own_a = own_b = own_a | own_b
        one, two, told = own_a, own_b, set()
        for _ in range(bound):
            one = two = {word + (agent,)
                         for agent, level in ((1, one), (2, two)) for word in level}
            told |= one
        held_a[fact] = own_a.union(told)
        held_b[fact] = held_a[fact] if own_b == own_a else own_b.union(told)
    return BoundedKnowledge(1, bound, held_a), BoundedKnowledge(2, bound, held_b)


class Mismatch(Record):
    """Per agent and fact: sentences only one engine produced."""

    __slots__ = ("agent", "fact", "only_symbolic", "only_bounded")


class OracleReport(Record):
    __slots__ = ("scenario", "depth", "mismatches")

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
        for fact in scenario.facts:
            symbolic = enumerate_words(state.langs[fact], depth)
            brute = bounded.suffixes[fact]
            if symbolic != brute:
                def render(words):
                    ordered = sorted(words, key=lambda w: (len(w), w))
                    return tuple(format_sentence(Sentence(fact, w)) for w in ordered)

                mismatches.append(Mismatch(state.agent, fact, render(symbolic - brute),
                                           render(brute - symbolic)))
    return OracleReport(scenario, depth, tuple(mismatches))
