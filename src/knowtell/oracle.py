"""Depth-bounded brute-force closure over explicit per-fact suffix sets.

Deliberately free of the acceptor machinery: agreement between this module
and the symbolic engine is evidence, not circularity. No rule mixes facts,
so each fact is closed on its own, one suffix length at a time: every rule
takes a sentence of length n to one of length n or n + 1, never shorter,
so once the rules at length n have run, no longer sentence can add one of
length n, and one pass per length is exact up to the bound.
"""

from __future__ import annotations

from functools import lru_cache

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


def _close_fact(in_a: bool, in_b: bool, understanding: bool, bound: int):
    """Both sides' suffix sets for one fact, given who starts with it."""
    own_a = frozenset({()} if in_a else ())
    own_b = frozenset({()} if in_b else ())
    if understanding:
        own_a = own_b = own_a | own_b
    one, two, told = own_a, own_b, set()
    for _ in range(bound):
        one = two = {word + (agent,)
                     for agent, level in ((1, one), (2, two)) for word in level}
        told |= one
    held_a = own_a.union(told)
    return held_a, held_a if own_b == own_a else own_b.union(told)


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
    closed = {fact: _close_fact(fact in scenario.side_a, fact in scenario.side_b,
                                scenario.model is ModelKind.UNDERSTANDING, bound)
              for fact in scenario.facts}
    return tuple(BoundedKnowledge(agent, bound, {f: s[agent - 1] for f, s in closed.items()})
                 for agent in (1, 2))


class Mismatch(Record):
    """Per agent and fact: sentences only one engine produced."""

    __slots__ = ("agent", "fact", "only_symbolic", "only_bounded")


class OracleReport(Record):
    __slots__ = ("scenario", "depth", "mismatches")

    @property
    def ok(self) -> bool:
        return not self.mismatches


# A fact class is who starts with the fact, and the model: the grid's 456
# facts at one depth fall in 8 classes, and all 8 at every depth fit. An
# entry keeps its limit languages, which dynamics._solve_fact keeps anyway,
# and the differences as tuples, the shared () on a correct engine.
@lru_cache(maxsize=8 * (MAX_ORACLE_DEPTH + 1))
def _compare_fact(lang_a, lang_b, in_a, in_b, understanding, depth):
    """Per side: (symbolic-only words, bounded-only words) for one fact."""
    symbolic = (enumerate_words(lang_a, depth), enumerate_words(lang_b, depth))
    return tuple((tuple(mine - brute), tuple(brute - mine)) for mine, brute in
                 zip(symbolic, _close_fact(in_a, in_b, understanding, depth)))


def compare_symbolic(scenario: Scenario, depth: int) -> OracleReport:
    """Compare each saturated language, enumerated to the depth, with the
    bounded closure, once per fact class; mismatches are report content."""
    _require_count("depth", depth, 0, MAX_ORACLE_DEPTH)  # a cache key takes 2.0 for 2
    result = saturate(scenario)
    found = [(fact, _compare_fact(result.state_a.langs[fact], result.state_b.langs[fact],
                                  fact in scenario.side_a, fact in scenario.side_b,
                                  scenario.model is ModelKind.UNDERSTANDING, depth))
             for fact in scenario.facts]

    def render(fact, words):
        ordered = sorted(words, key=lambda w: (len(w), w))
        return tuple(format_sentence(Sentence(fact, w)) for w in ordered)

    return OracleReport(scenario, depth, tuple(
        Mismatch(agent, fact, render(fact, symbolic), render(fact, bounded))
        for agent in (1, 2) for fact, sides in found
        for symbolic, bounded in [sides[agent - 1]] if symbolic or bounded))
