"""Operational semantics: single tells, finite traces, and the
full-communication limit.

A tell of fact.w from agent j to agent r grows the receiver's suffix
language for that fact by w.j followed by any run of the receiver's own
mark; with understanding the bare w (again with the own-mark tail) is
added too. The sender never changes.

Telling everything never terminates step by step, because every exchange
strictly lengthens suffixes. The limit is therefore computed per fact in
closed form with the Arden solution of the two coupled language equations,
and each result is checked against its defining equation exactly before it
is returned.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from . import regexes
from .langs import Lang, _accepting, _reach, _tell_tail, _union_tail, concat, from_ast, union
from .records import Record
from .regexes import Lit, alt, cat, regex_to_text
from .sentences import Sentence, Word, check_agent
from .states import KnowledgeState, ModelKind, Scenario, initial_state, model_kind


class TellError(ValueError):
    """An impossible tell: unknown message, or sender talking to itself."""


class TraceError(ValueError):
    """A tell inside a trace failed; carries the event index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"event {index}: {message}")
        self.index = index


class TellEvent(Record):
    """One truthful message from sender to receiver."""

    __slots__ = ("sender", "receiver", "message")

    def __init__(self, sender: int, receiver: int, message: Sentence):
        check_agent(sender)
        check_agent(receiver)
        if sender == receiver:
            raise TellError("sender and receiver must be different agents")
        if not isinstance(message, Sentence):
            raise TellError(f"message must be a Sentence, got {message!r}")
        # set by hand, faster than Record.__init__: a TellEvent is built per tell
        object.__setattr__(self, "sender", sender)
        object.__setattr__(self, "receiver", receiver)
        object.__setattr__(self, "message", message)


def _tell_fact(pair: tuple[Lang, Lang], sender: int, word: Word,
               understanding: bool) -> tuple[Lang, Lang]:
    """The tell rule on one fact, unchecked: pair is side 1's and side 2's
    language for it, and the sender (1 or 2) must hold word. The receiver's
    grows by word.T (T as `_tell_tail` writes it), built from the few states
    the tell adds; a tell that adds nothing returns the very same pair."""
    current = pair[2 - sender]
    grown = _union_tail(current, word, sender, understanding)
    if grown is current:
        return pair
    return (pair[0], grown) if sender == 1 else (grown, pair[1])


def step(state_a: KnowledgeState, state_b: KnowledgeState, event: TellEvent,
         model: ModelKind | str) -> tuple[KnowledgeState, KnowledgeState]:
    """Apply one tell, checked: the model must be one `Scenario.make` takes
    (ScenarioError), the states side 1's then side 2's (ValueError), the
    sender must know the message (TellError), and both states must carry
    its fact (UnknownFactError). The event checked its agents and message
    when it was built; `_tell_fact` then applies the rule to its languages.
    """
    understanding = model_kind(model) is ModelKind.UNDERSTANDING
    if state_a.agent != 1 or state_b.agent != 2:
        raise ValueError("step takes the states of sides 1 and 2 in that order, "
                         f"got sides {state_a.agent} and {state_b.agent}")
    states, fact = (state_a, state_b), event.message.fact
    pair = (state_a.lang_for(fact), state_b.lang_for(fact))  # UnknownFactError
    # the sender's language for the fact, walked as `knows` walks it
    if not _accepting[_reach(pair[event.sender - 1], event.message.suffix)]:
        raise TellError(f"side {event.sender} does not know '{event.message}'")
    after = _tell_fact(pair, event.sender, event.message.suffix, understanding)
    if after is pair:
        return state_a, state_b
    side = event.receiver - 1
    grown = KnowledgeState(event.receiver, {**states[side].langs, fact: after[side]})
    return (state_a, grown) if side else (grown, state_b)


def run_trace(scenario: Scenario, events: Sequence[TellEvent]
              ) -> tuple[KnowledgeState, KnowledgeState]:
    """Fold step over the events, failing fast with the offending index."""
    state_a = initial_state(1, scenario)
    state_b = initial_state(2, scenario)
    for index, event in enumerate(events):
        try:
            state_a, state_b = step(state_a, state_b, event, scenario.model)
        except ValueError as exc:  # TellError among them
            raise TraceError(index, str(exc)) from exc
    return state_a, state_b


class SaturationResult(Record):
    """Both limit states plus the solved per-fact expressions for audit."""

    __slots__ = ("state_a", "state_b", "regexes")  # regexes: side -> fact -> text


@lru_cache(maxsize=None)
def _solve_fact(in_a: bool, in_b: bool, understanding: bool):
    """Closed-form limit languages for one fact, given who starts with it.

    Side x's language solves X_x = B_x + X_y.T_x: its start B_x (any run of
    its own mark, if it starts with the fact) plus what the other side y
    holds, followed by the tail T_x of a tell to x. Substituting X_y gives
    X_x = (B_x + B_y.T_x) + X_x.(T_y.T_x), whose least solution is
    start.loop* by the Arden rule. Each side's language and printed text
    come from that one regex, and both languages are then checked against
    the coupled defining equations, exactly.
    """
    base = {1: regexes.star(Lit(1)) if in_a else regexes.EMPTY,
            2: regexes.star(Lit(2)) if in_b else regexes.EMPTY}
    tail = {x: _tell_tail(3 - x, understanding) for x in (1, 2)}
    langs: dict[int, Lang] = {}
    texts: dict[int, str] = {}
    for x, y in ((1, 2), (2, 1)):
        start = alt(base[x], cat(base[y], tail[x]))
        loop = cat(tail[y], tail[x])
        solution = cat(start, regexes.star(loop))
        langs[x] = from_ast(solution)
        texts[x] = regex_to_text(solution)

    # substitution check against the defining fixpoint equations
    for x, y in ((1, 2), (2, 1)):
        if langs[x] != union(from_ast(base[x]), concat(langs[y], from_ast(tail[x]))):
            raise RuntimeError(
                "internal error: closed-form limit failed its defining equation"
            )

    return langs[1], langs[2], texts[1], texts[2]


def saturate(scenario: Scenario) -> SaturationResult:
    """The least fixpoint of exchanging every knowable sentence both ways."""
    understanding = scenario.model is ModelKind.UNDERSTANDING
    # fact -> (side 1's language, side 2's, side 1's text, side 2's)
    solved = {fact: _solve_fact(fact in scenario.side_a, fact in scenario.side_b,
                                understanding)
              for fact in scenario.facts}
    return SaturationResult(KnowledgeState(1, {fact: s[0] for fact, s in solved.items()}),
                            KnowledgeState(2, {fact: s[1] for fact, s in solved.items()}),
                            {1: {fact: s[2] for fact, s in solved.items()},
                             2: {fact: s[3] for fact, s in solved.items()}})
