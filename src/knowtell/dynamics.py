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

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import regexes
from .langs import Lang, _union_tail, concat, from_ast, union
from .regexes import Lit, Regex, alt, cat, opt, regex_to_text
from .sentences import Sentence, Word, check_agent
from .states import (KnowledgeState, ModelKind, Scenario, initial_state, knows,
                     model_kind)


class TellError(ValueError):
    """An impossible tell: unknown message, or sender talking to itself."""


class TraceError(ValueError):
    """A tell inside a trace failed; carries the event index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"event {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class TellEvent:
    """One truthful message from sender to receiver."""

    sender: int
    receiver: int
    message: Sentence

    def __post_init__(self):
        check_agent(self.sender)
        check_agent(self.receiver)
        if self.sender == self.receiver:
            raise TellError("sender and receiver must be different agents")
        if not isinstance(self.message, Sentence):
            raise TellError(f"message must be a Sentence, got {self.message!r}")


def _tell_tail(sender: int, understanding: bool) -> Regex:
    # after the told suffix: the sender's mark (optional under understanding)
    # and then any run of the receiver's own mark
    mark = Lit(sender)
    return cat(opt(mark) if understanding else mark, regexes.star(Lit(3 - sender)))


def _tell(state_a: KnowledgeState, state_b: KnowledgeState, sender: int,
          fact: str, word: Word, understanding: bool
          ) -> tuple[KnowledgeState, KnowledgeState]:
    """The tell rule, unchecked: the caller vouches that the states are in
    side order, that the sender (1 or 2) knows fact.word and that both
    states carry the fact. The receiver's language for the fact grows by
    word.T (T as `_tell_tail` writes it), built from the few states the tell
    adds; a tell that adds nothing returns the very same pair of states."""
    receiver = state_b if sender == 1 else state_a
    current = receiver.langs[fact]
    grown = _union_tail(current, word, sender, understanding)
    if grown is current:
        return state_a, state_b
    new_receiver = KnowledgeState(receiver.agent, {**receiver.langs, fact: grown})
    return (state_a, new_receiver) if sender == 1 else (new_receiver, state_b)


def step(state_a: KnowledgeState, state_b: KnowledgeState, event: TellEvent,
         model: ModelKind | str) -> tuple[KnowledgeState, KnowledgeState]:
    """Apply one tell, checked: the model must be one `Scenario.make` takes
    (ScenarioError), the states side 1's then side 2's (ValueError), the
    sender must know the message (TellError), and both states must carry
    its fact (UnknownFactError). The event checked its agents and message
    when it was built; `_tell` then applies the rule.
    """
    understanding = model_kind(model) is ModelKind.UNDERSTANDING
    if state_a.agent != 1 or state_b.agent != 2:
        raise ValueError("step takes the states of sides 1 and 2 in that order, "
                         f"got sides {state_a.agent} and {state_b.agent}")
    pair, fact = (state_a, state_b), event.message.fact
    if not knows(pair[event.sender - 1], event.message):
        raise TellError(f"side {event.sender} does not know '{event.message}'")
    pair[event.receiver - 1].lang_for(fact)  # UnknownFactError if it lacks the fact
    return _tell(state_a, state_b, event.sender, fact, event.message.suffix,
                 understanding)


def run_trace(scenario: Scenario, events: Sequence[TellEvent]
              ) -> tuple[KnowledgeState, KnowledgeState]:
    """Fold step over the events, failing fast with the offending index."""
    state_a = initial_state(1, scenario)
    state_b = initial_state(2, scenario)
    for index, event in enumerate(events):
        try:
            state_a, state_b = step(state_a, state_b, event, scenario.model)
        except (TellError, ValueError) as exc:
            raise TraceError(index, str(exc)) from exc
    return state_a, state_b


@dataclass(frozen=True)
class SaturationResult:
    """Both limit states plus the solved per-fact expressions for audit."""

    state_a: KnowledgeState
    state_b: KnowledgeState
    regexes: dict[int, dict[str, str]]


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
    langs_a: dict[str, Lang] = {}
    langs_b: dict[str, Lang] = {}
    texts_a: dict[str, str] = {}
    texts_b: dict[str, str] = {}
    for fact in scenario.facts:
        lang_a, lang_b, text_a, text_b = _solve_fact(
            fact in scenario.side_a, fact in scenario.side_b, understanding
        )
        langs_a[fact] = lang_a
        langs_b[fact] = lang_b
        texts_a[fact] = text_a
        texts_b[fact] = text_b
    return SaturationResult(
        state_a=KnowledgeState(1, langs_a),
        state_b=KnowledgeState(2, langs_b),
        regexes={1: texts_a, 2: texts_b},
    )
