"""Inputs and reference answers for the trace-session workload.

Nothing here imports knowtell. Each side's knowledge is kept as explicit
word sets, per fact, up to DEPTH marks, and the tell rule is applied by
hand. A set cut at DEPTH is exact up to DEPTH, because no rule shortens a
suffix. Because the generator never touches the engine, the replay that
the benchmark times starts with the engine's caches cold.

A word is an int: a leading 1 bit, then one bit per mark, innermost
first, 0 for mark 1 and 1 for mark 2. Ordering these ints orders words by
length and then letter by letter, so the candidate lists stay sorted and a
seed always reproduces the same session.
"""

from __future__ import annotations

import bisect
import random

DEPTH = 12
FACTS = ("a", "b", "c")
# The worked example: side 1 starts with a, side 2 with b, nobody with c.
SIDE_FACTS = {1: ("a",), 2: ("b",)}
MODELS = ("communication", "understanding")

EMPTY_WORD = 1


def append(word: int, mark: int) -> int:
    return (word << 1) | (mark - 1)


def length(word: int) -> int:
    return word.bit_length() - 1


def sentence_text(fact: str, word: int) -> str:
    marks = bin(word)[3:]  # drop "0b" and the leading 1 bit
    return fact + "".join(".1" if bit == "0" else ".2" for bit in marks)


class Knowledge:
    """Every sentence of depth <= DEPTH that each side knows, per fact."""

    def __init__(self):
        self.words: dict[tuple[int, str], list[int]] = {
            (side, fact): [] for side in (1, 2) for fact in FACTS
        }
        self.members: dict[tuple[int, str], set[int]] = {
            key: set() for key in self.words
        }
        for side, facts in SIDE_FACTS.items():
            for fact in facts:
                self._add_tail(side, fact, EMPTY_WORD)

    def _add(self, side: int, fact: str, word: int) -> None:
        members = self.members[side, fact]
        if word not in members:
            members.add(word)
            bisect.insort(self.words[side, fact], word)

    def _add_tail(self, side: int, fact: str, word: int) -> None:
        # word followed by any run of the side's own mark
        while length(word) <= DEPTH:
            self._add(side, fact, word)
            word = append(word, side)

    def tell(self, sender: int, fact: str, word: int, understanding: bool) -> None:
        """The receiver gains word.sender and, with understanding, the bare
        word, each followed by any run of the receiver's own mark."""
        receiver = 3 - sender
        self._add_tail(receiver, fact, append(word, sender))
        if understanding:
            self._add_tail(receiver, fact, word)

    def knows(self, side: int, fact: str, word: int) -> bool:
        return word in self.members[side, fact]

    def candidate(self, index: int) -> tuple[int, str, int]:
        """The index-th truthful tell, candidates ordered by sender, fact
        and word."""
        for (side, fact), words in self.words.items():
            if index < len(words):
                return side, fact, words[index]
            index -= len(words)
        raise IndexError(index)

    def candidates(self) -> int:
        return sum(len(words) for words in self.words.values())


def _random_word(rng: random.Random) -> int:
    word = EMPTY_WORD
    for _ in range(rng.randint(0, DEPTH)):
        word = append(word, rng.choice((1, 2)))
    return word


def make_session(model: str, tells: int, rng: random.Random) -> dict:
    """A session of random truthful tells, each followed by one knows query
    and one ck query, with the reference answer of each query.

    Half of the knows queries ask about a sentence the side holds, half
    about a random sentence, so both answers occur. On a finite trace
    nothing is ever common knowledge, so every ck reference is false.
    """
    knowledge = Knowledge()
    understanding = model == "understanding"
    events, knows_queries, ck_queries = [], [], []
    for _ in range(tells):
        sender, fact, word = knowledge.candidate(rng.randrange(knowledge.candidates()))
        knowledge.tell(sender, fact, word, understanding)
        events.append([sender, sentence_text(fact, word)])

        side, fact = rng.choice((1, 2)), rng.choice(FACTS)
        held = knowledge.words[side, fact]
        word = rng.choice(held) if held and rng.random() < 0.5 else _random_word(rng)
        knows_queries.append(
            [side, sentence_text(fact, word), knowledge.knows(side, fact, word)]
        )
        ck_queries.append([sentence_text(rng.choice(FACTS), _random_word(rng)), False])
    return {
        "model": model,
        "facts": list(FACTS),
        "side_a": list(SIDE_FACTS[1]),
        "side_b": list(SIDE_FACTS[2]),
        "tells": events,
        "knows": knows_queries,
        "ck": ck_queries,
    }


def make_sessions(rng: random.Random, tells: int) -> list[dict]:
    """One session per model."""
    return [make_session(model, tells, rng) for model in MODELS]
