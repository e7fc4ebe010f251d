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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from . import regexes
from .langs import (
    LETTER,
    Lang,
    concat,
    from_ast,
    option,
    prefixed,
    solve_arden,
    star,
    subset,
    union,
)
from .regexes import Lit, alt, cat, opt, plus, regex_to_text
from .sentences import Sentence, Word, check_agent
from .states import KnowledgeState, ModelKind, Scenario, initial_state, knows


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


Trace = tuple[TellEvent, ...]


def _understands(model: ModelKind, disable_understanding: bool) -> bool:
    return model is ModelKind.UNDERSTANDING and not disable_understanding


@lru_cache(maxsize=None)
def _tell_tail(sender: int, receiver: int, understanding: bool) -> Lang:
    # after the told suffix: the sender's mark (optional under understanding)
    # and then any run of the receiver's own mark
    sender_mark = option(LETTER[sender]) if understanding else LETTER[sender]
    return concat(sender_mark, star(LETTER[receiver]))


@lru_cache(maxsize=None)
def _tell_gain(suffix: Word, sender: int, receiver: int, understanding: bool) -> Lang:
    # what the receiver's language for the told fact gains from one tell
    return prefixed(suffix, _tell_tail(sender, receiver, understanding))


def step(state_a: KnowledgeState, state_b: KnowledgeState, event: TellEvent,
         model: ModelKind, *, disable_understanding: bool = False
         ) -> tuple[KnowledgeState, KnowledgeState]:
    """Apply one tell; the sender must actually know the message.

    A tell whose whole gain the receiver already knows returns both
    states unchanged: the very same objects.
    """
    sender_state = state_a if event.sender == 1 else state_b
    receiver_state = state_b if event.sender == 1 else state_a
    if not knows(sender_state, event.message):
        raise TellError(f"side {event.sender} does not know '{event.message}'")
    gain = _tell_gain(
        event.message.suffix,
        event.sender,
        event.receiver,
        _understands(model, disable_understanding),
    )
    fact = event.message.fact
    current = receiver_state.lang_for(fact)
    if subset(gain, current):
        return state_a, state_b
    new_langs = dict(receiver_state.langs)
    new_langs[fact] = union(current, gain)
    new_receiver = KnowledgeState(receiver_state.agent, new_langs)
    if event.sender == 1:
        return state_a, new_receiver
    return new_receiver, state_b


def run_trace(scenario: Scenario, events: Sequence[TellEvent], *,
              disable_understanding: bool = False
              ) -> tuple[KnowledgeState, KnowledgeState]:
    """Fold step over the events, failing fast with the offending index."""
    state_a = initial_state(1, scenario)
    state_b = initial_state(2, scenario)
    for index, event in enumerate(events):
        try:
            state_a, state_b = step(
                state_a, state_b, event, scenario.model,
                disable_understanding=disable_understanding,
            )
        except (TellError, ValueError) as exc:
            raise TraceError(index, str(exc)) from exc
    return state_a, state_b


@dataclass(frozen=True)
class SaturationResult:
    """Both limit states plus the solved per-fact expressions for audit."""

    state_a: KnowledgeState
    state_b: KnowledgeState
    method: str = "closed-form"
    regexes: dict[int, dict[str, str]] = field(default_factory=dict)


@lru_cache(maxsize=None)
def _solve_fact(in_a: bool, in_b: bool, understanding: bool):
    """Closed-form limit languages for one fact, given who starts with it.

    Each side's equation is reduced by substituting the other side's and
    applying the Arden solution; the loop coefficient collects one full
    round trip and never contains the empty word. Both results are then
    checked against the coupled defining equations, exactly.
    """
    lit1, lit2 = Lit(1), Lit(2)
    base_a = regexes.star(lit1) if in_a else regexes.EMPTY
    base_b = regexes.star(lit2) if in_b else regexes.EMPTY

    if understanding:
        relay_to_a = cat(opt(lit2), regexes.star(lit1))   # (e|2)1*
        relay_to_b = cat(opt(lit1), regexes.star(lit2))   # (e|1)2*
        # one round trip, empty word stripped: 2+1* | 12*1* and its mirror
        loop_a = alt(cat(plus(lit2), regexes.star(lit1)),
                     cat(lit1, cat(regexes.star(lit2), regexes.star(lit1))))
        loop_b = alt(cat(plus(lit1), regexes.star(lit2)),
                     cat(lit2, cat(regexes.star(lit1), regexes.star(lit2))))
    else:
        relay_to_a = cat(lit2, regexes.star(lit1))        # 21*
        relay_to_b = cat(lit1, regexes.star(lit2))        # 12*
        loop_a = cat(lit1, cat(plus(lit2), regexes.star(lit1)))   # 12+1*
        loop_b = cat(lit2, cat(plus(lit1), regexes.star(lit2)))   # 21+2*

    ast_a = cat(alt(base_a, cat(base_b, relay_to_a)), regexes.star(loop_a))
    ast_b = cat(alt(base_b, cat(base_a, relay_to_b)), regexes.star(loop_b))

    lang_a = solve_arden(from_ast(alt(base_a, cat(base_b, relay_to_a))),
                         from_ast(loop_a))
    lang_b = solve_arden(from_ast(alt(base_b, cat(base_a, relay_to_b))),
                         from_ast(loop_b))

    # substitution check against the defining fixpoint equations
    tail_a = _tell_tail(2, 1, understanding)
    tail_b = _tell_tail(1, 2, understanding)
    if lang_a != union(from_ast(base_a), concat(lang_b, tail_a)) or lang_b != union(
        from_ast(base_b), concat(lang_a, tail_b)
    ):
        raise RuntimeError(
            "internal error: closed-form limit failed its defining equation"
        )

    return lang_a, lang_b, regex_to_text(ast_a), regex_to_text(ast_b)


def saturate(scenario: Scenario, *, disable_understanding: bool = False
             ) -> SaturationResult:
    """The least fixpoint of exchanging every knowable sentence both ways."""
    understanding = _understands(scenario.model, disable_understanding)
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
