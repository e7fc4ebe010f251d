"""Dotted knowledge sentences over the two agents.

A sentence is a basic fact followed by a chain of agent marks, written
``fact(.agent)*``: ``a.2.1`` is "agent 1 knows that agent 2 knows a".
Each appended mark wraps the whole preceding sentence, so the outermost
knower is always the last mark.
"""

from __future__ import annotations

import re

from .records import Record

AGENTS = (1, 2)

# A suffix word: the chain of agent marks, innermost first.
Word = tuple[int, ...]

_FACT_RE = re.compile(r"[a-z][a-z0-9_]*")
_SENTENCE_RE = re.compile(rf"({_FACT_RE.pattern})((?:\.[12])*)")  # fact, marks
_MARKS = bytes.maketrans(b"12", b"\x01\x02")  # mark bytes to their ints


class SentenceError(ValueError):
    """Text that does not follow the sentence grammar."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


def check_agent(agent: int) -> int:
    # the type test keeps out True and 1.0, which compare equal to 1
    if type(agent) is not int or agent not in AGENTS:
        raise SentenceError(f"agent id must be 1 or 2, got {agent!r}")
    return agent


def check_fact(name: str) -> str:
    if not isinstance(name, str) or not _FACT_RE.fullmatch(name):
        raise SentenceError(
            f"bad fact name {name!r}: expected a lowercase letter followed by "
            "lowercase letters, digits or underscores"
        )
    return name


class Sentence(Record):
    """A fact plus the agent marks wrapped around it: ("a", (2, 1)) is a.2.1."""

    __slots__ = ("fact", "suffix")

    def __init__(self, fact: str, suffix: Word = ()):
        check_fact(fact)
        if not isinstance(suffix, tuple):
            raise SentenceError(f"suffix must be a tuple of marks, got {suffix!r}")
        for agent in suffix:
            check_agent(agent)
        super().__init__(fact, suffix)

    @property
    def depth(self) -> int:
        return len(self.suffix)

    def __str__(self) -> str:
        return format_sentence(self)


def parse_sentence(text: str) -> Sentence:
    """Parse ``fact(.agent)*`` text such as ``a.2.1``.

    Well-formed text parses in one anchored match, which proves the fact
    and every mark, so the sentence is built without checking them again.
    Other text is walked segment by segment to the first error, which
    names the offending position: malformed fact names, empty segments,
    agent marks outside {1, 2}, and trailing dots all reject.
    """
    if not isinstance(text, str):
        raise SentenceError(f"expected sentence text, got {type(text).__name__}")
    match = _SENTENCE_RE.fullmatch(text)
    if match:
        fact, marks = match.groups()
        sentence = object.__new__(Sentence)
        object.__setattr__(sentence, "fact", fact)
        object.__setattr__(sentence, "suffix",
                           tuple(marks.encode().translate(_MARKS, b".")))
        return sentence
    if not text:
        raise SentenceError("empty sentence", 0)
    segments = text.split(".")
    fact = segments[0]
    match = _FACT_RE.match(fact)  # a bad fact is wrong where the match stops
    if not match or match.end() < len(fact):
        raise SentenceError(f"bad fact name {fact!r}", match.end() if match else 0)
    pos = len(fact)
    for segment in segments[1:]:
        pos += 1  # the separating dot
        if segment == "":
            raise SentenceError("empty segment after '.'", pos)
        if segment not in ("1", "2"):
            raise SentenceError(f"agent mark must be '1' or '2', got {segment!r}", pos)
        pos += len(segment)
    raise AssertionError(f"{text!r} fails the sentence pattern, yet no segment is wrong")


def format_sentence(s: Sentence) -> str:
    """Inverse of parse_sentence: fact name, then one dotted mark per suffix letter."""
    return ".".join([s.fact] + [str(a) for a in s.suffix])


def append_knows(s: Sentence, agent: int) -> Sentence:
    """The sentence "agent knows s": same fact, suffix one mark longer."""
    check_agent(agent)
    return Sentence(s.fact, s.suffix + (agent,))
