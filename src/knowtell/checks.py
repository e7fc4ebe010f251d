"""Verification checks: exhaustive scenario grids plus seeded random
traces, producing machine-readable pass/fail reports whose violations carry
replayable witnesses. Grids are never sampled; randomness appears only in
trace generation and always flows from an explicit seed.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Iterator, Sequence

from .dynamics import _tell_fact, saturate
from .langs import Lang, _require_bool, _require_count, cone_word, distinguishing_word, members
from .oracle import MAX_ORACLE_DEPTH, compare_symbolic
from .records import Record
from .sentences import Sentence, Word, format_sentence
from .states import (
    KnowledgeState,
    ModelKind,
    Scenario,
    common_knowledge,
    initial_state,
    known_facts,
    project_success,
)

FACT_POOL = ("a", "b", "c")

# depth of the message suffixes of random tells: shallow messages already
# exercise cross-references, and the seeded reports depend on this value
SAMPLE_DEPTH = 3
# the longest random trace of ck-dynamics, and the tells, message depth and
# seed with which fixpoint-stability probes each saturated pair
TRACE_LENGTH = 10
STABILITY_TELLS = 50
STABILITY_DEPTH = 5
STABILITY_SEED = 2024


class CheckConfig(Record):
    """The settings of `knowtell check`, refused when built, before any check runs.
    The defaults are read on the class, so this `__init__` fills a `__dict__`."""

    __match_args__ = ("max_facts", "depth", "traces", "seed", "disable_understanding")
    max_facts, depth, traces, seed = 3, 5, 100, 42

    def __init__(self, max_facts: int = max_facts, depth: int = depth,
                 traces: int = traces, seed: int = seed, disable_understanding: bool = False):
        _require_count("max_facts", max_facts, 1, len(FACT_POOL))
        _require_count("depth", depth, 0, MAX_ORACLE_DEPTH)
        _require_count("traces", traces, 1)
        _require_seed(seed)
        _require_bool("disable_understanding", disable_understanding)
        self.__dict__.update(zip(self.__match_args__,
                                 (max_facts, depth, traces, seed, disable_understanding)))


def _require_seed(seed: object) -> None:
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")


class Violation(Record):
    __slots__ = ("scenario", "witness")


class CheckReport(Record):
    __slots__ = ("name", "scenarios", "violations", "millis", "notes")

    def __init__(self, name: str, scenarios: int, violations: tuple[Violation, ...],
                 millis: int, notes: tuple[str, ...] = ()):
        super().__init__(name, scenarios, violations, millis, notes)

    @property
    def status(self) -> str:
        return "pass" if not self.violations else "fail"


def _finish(name: str, scenarios: int, violations: list[Violation],
            started: float, notes: Sequence[str] = ()) -> CheckReport:
    millis = int((time.perf_counter() - started) * 1000)
    return CheckReport(name, scenarios, tuple(violations), millis, tuple(notes))


def subsets_of(facts: Sequence[str]) -> list[tuple[str, ...]]:
    """All subsets in a fixed order: by inclusion bitmask over fact order."""
    return [
        tuple(f for i, f in enumerate(facts) if mask >> i & 1)
        for mask in range(2 ** len(facts))
    ]


def scenario_grid(max_facts: int, model: ModelKind) -> Iterator[Scenario]:
    """Every subset pair over fact sets of size 1..max_facts (checked at the call)."""
    _require_count("max_facts", max_facts, 1, len(FACT_POOL))
    return (Scenario.make(facts, side_a, side_b, model)
            for facts in (FACT_POOL[:size] for size in range(1, max_facts + 1))
            for side_a in subsets_of(facts) for side_b in subsets_of(facts))


def _inequality_witness(state_a: KnowledgeState, state_b: KnowledgeState) -> str | None:
    """The first fact's shortest sentence in one side's language only, or
    None when the languages are equal."""
    for fact in state_a.langs:
        if state_a.langs[fact] != state_b.langs[fact]:
            word = distinguishing_word(state_a.langs[fact], state_b.langs[fact])
            sentence = format_sentence(Sentence(fact, word))
            side = 1 if state_a.langs[fact].contains(word) else 2
            return f"'{sentence}' is in side {side}'s language only"
    return None


def check_language_equivalence_props(max_facts: int = CheckConfig.max_facts) -> CheckReport:
    """Saturated languages are equal exactly when the two sides start from
    the same facts; checked both ways over the whole subset grid."""
    started = time.perf_counter()
    violations: list[Violation] = []
    count = 0
    for scenario in scenario_grid(max_facts, ModelKind.COMMUNICATION):
        count += 1
        result = saturate(scenario)
        witness = _inequality_witness(result.state_a, result.state_b)
        if (witness is None) != (scenario.side_a == scenario.side_b):
            violations.append(Violation(
                scenario.describe(),
                witness or "languages equal although the sides' fact sets differ",
            ))
    return _finish("language-equivalence", count, violations, started)


def _draw_tell(blocks: Sequence[Sequence[Word]], total: int,
               rng: random.Random) -> tuple[int, Word] | None:
    """A uniformly random truthful tell, given its candidate blocks in draw
    order (each sender's ranked member list of each fact, side 1's blocks
    first) and total, the sum of their lengths: (the block it lands in, the
    word), or None when total is 0. One rng.randrange(total) indexes the
    blocks one after another, which draws exactly as rng.choice over their
    concatenation would, and as ck-dynamics draws inline. Each block is the
    sender's `members` list, so `_tell_fact` may take the word as is."""
    if not total:
        return None
    index = rng.randrange(total)
    for block, words in enumerate(blocks):
        if index < len(words):
            return block, words[index]
        index -= len(words)


def _draw_order(facts: Sequence[str]) -> tuple[tuple[int, str, int], ...]:
    """Per block of `_draw_tell`, in draw order: its sender, its fact, and
    the block of the same fact on the other side."""
    return tuple((side + 1, fact, (1 - side) * len(facts) + at)
                 for side in (0, 1) for at, fact in enumerate(facts))


def check_ck_dynamics(traces: int = CheckConfig.traces,
                      seed: int = CheckConfig.seed) -> CheckReport:
    """Along random truthful traces, in both models, no language either side
    reaches holds the whole cone of a sentence. Common knowledge of f.w
    needs every chain of "knows" over it held, that is the whole cone
    f.w.{1,2}*, so this one invariant rules out common knowledge of every
    sentence. A bare fact is common knowledge exactly when both its
    languages are `ALL_WORDS`, whose cone word is the empty suffix, so the
    scan reports it as a cone at the bare fact. The cone test is exact: a
    finite trace leaves each language an own-mark chain plus finitely many
    w.T, and none of those holds a cone.

    Covers every subset pair over the two-fact set; reproducible from the
    seed alone, so a seed that is not an int is refused (`random.Random`
    seeds None from the system's entropy). Zero traces is refused: that
    check would pass unexercised.

    No rule mixes facts: a trace is a language pair per fact, and a tell is
    `dynamics._tell_fact` on one pair, its one call per tell, where tests
    observe the walk; the n-th tell leads to prefix n. A language is scanned
    when a scenario first reaches it: its four start languages, each own* or
    the empty language, then each side of a pair a tell changes, side 1
    first; the real rule leaves the sender's, already scanned, as it was.
    Each trace keeps its candidate blocks in draw order with their running
    total, started from the scenario's member lists, and draws inline as
    `_draw_tell` would, from one `getrandbits`: a draw asks no cache. A tell
    grows the receiver's language only; its block is listed again when the
    next draw needs it, and the sender's at once should a broken rule change it.
    """
    _require_count("traces", traces, 1)
    _require_seed(seed)
    started = time.perf_counter()
    getrandbits = random.Random(seed).getrandbits
    violations: list[Violation] = []
    count = 0
    facts = FACT_POOL[:2]
    order = _draw_order(facts)

    def scan(lang: Lang, side: int, fact: str, trace_index: int,
             step_index: int) -> None:
        # a language is searched once per scenario: one table for the whole
        # run would hold every language at once and raise the peak memory
        scanned.add(lang)
        word = cone_word(lang)
        if word is not None:
            violations.append(Violation(
                scenario.describe(),
                f"trace {trace_index} prefix {step_index}: side {side}'s language "
                f"for {fact} holds every extension of "
                f"'{format_sentence(Sentence(fact, word))}'"))

    for model in (ModelKind.COMMUNICATION, ModelKind.UNDERSTANDING):
        understanding = model is ModelKind.UNDERSTANDING
        for side_a, side_b in itertools.product(subsets_of(facts), repeat=2):
            scenario = Scenario.make(facts, side_a, side_b, model)
            count += 1
            scanned: set[Lang] = set()
            states = (initial_state(1, scenario), initial_state(2, scenario))
            start = {f: (states[0].langs[f], states[1].langs[f]) for f in facts}
            for sender, fact, _ in order:
                if start[fact][sender - 1] not in scanned:
                    scan(start[fact][sender - 1], sender, fact, 0, 0)
            start_blocks = [members(start[fact][sender - 1], SAMPLE_DEPTH)
                            for sender, fact, _ in order]
            start_total = sum(map(len, start_blocks))
            for trace_index in range(traces):
                pairs, blocks, total = dict(start), start_blocks[:], start_total
                stale = grown = None
                length = TRACE_LENGTH + 1
                while length > TRACE_LENGTH:  # randint(0, TRACE_LENGTH), as below
                    length = getrandbits((TRACE_LENGTH + 1).bit_length())
                for step_index in range(1, length + 1):
                    if stale is not None:  # the last tell grew this block's language
                        words = members(grown, SAMPLE_DEPTH)
                        total += len(words) - len(blocks[stale])
                        blocks[stale] = words
                        stale = None
                    if not total:
                        break
                    # _draw_tell inline: randrange(total) as `random` draws it
                    index = total
                    while index >= total:
                        index = getrandbits(total.bit_length())
                    block = 0
                    while index >= len(blocks[block]):
                        index -= len(blocks[block])
                        block += 1
                    word = blocks[block][index]
                    sender, fact, other = order[block]
                    before = pairs[fact]
                    after = pairs[fact] = _tell_fact(before, sender, word, understanding)
                    if after is before:  # nothing changed, and nothing to scan
                        continue
                    stale, grown = other, after[2 - sender]
                    if after[sender - 1] is not before[sender - 1]:  # a broken rule only
                        words = members(after[sender - 1], SAMPLE_DEPTH)
                        total += len(words) - len(blocks[block])
                        blocks[block] = words
                    if after[0] not in scanned:
                        scan(after[0], 1, fact, trace_index, step_index)
                    if after[1] not in scanned:
                        scan(after[1], 2, fact, trace_index, step_index)
    return _finish("ck-dynamics", count, violations, started)


def check_success_theorems(max_facts: int = CheckConfig.max_facts, *,
                           disable_understanding: bool = False) -> CheckReport:
    """Equal starting fact sets guarantee success under communication alone;
    joint coverage guarantees success (and common knowledge of every fact)
    under full understanding. Coverage gaps with equal languages are listed
    as notes, not violations. The self-test fixture disable_understanding
    (`check --mutate no-understanding`) solves that grid under communication."""
    _require_count("max_facts", max_facts, 1, len(FACT_POOL))
    _require_bool("disable_understanding", disable_understanding)
    started = time.perf_counter()
    violations: list[Violation] = []
    notes: list[str] = []
    count = 0

    for size in range(1, max_facts + 1):
        facts = FACT_POOL[:size]
        scenario = Scenario.make(facts, facts, facts, ModelKind.COMMUNICATION)
        count += 1
        result = saturate(scenario)
        witness = _inequality_witness(result.state_a, result.state_b)
        if witness:
            violations.append(Violation(scenario.describe(), witness))
        elif not project_success(result.state_a, result.state_b, scenario):
            violations.append(Violation(scenario.describe(), "success denied"))

    for scenario in scenario_grid(max_facts, ModelKind.UNDERSTANDING):
        count += 1
        result = saturate(Scenario(scenario.facts, scenario.side_a, scenario.side_b,
                                   ModelKind.COMMUNICATION)
                          if disable_understanding else scenario)
        covered = scenario.side_a | scenario.side_b >= set(scenario.facts)
        witness = _inequality_witness(result.state_a, result.state_b)
        if covered:
            if witness:
                violations.append(Violation(scenario.describe(), witness))
                continue
            missing_ck = [
                f for f in scenario.facts
                if not common_knowledge(result.state_a, result.state_b,
                                        Sentence(f))
            ]
            if missing_ck:
                violations.append(Violation(
                    scenario.describe(),
                    f"not common knowledge: {{{','.join(missing_ck)}}}",
                ))
            elif not project_success(result.state_a, result.state_b, scenario):
                violations.append(Violation(
                    scenario.describe(), "coverage holds but success denied"
                ))
        else:
            if witness is None and not project_success(result.state_a,
                                                       result.state_b, scenario):
                bare = ",".join(sorted(known_facts(result.state_a)))
                notes.append(
                    f"{scenario.describe()}: languages equal but side 1 knows "
                    f"only {{{bare}}}; lack of knowledge blocks success"
                )
    return _finish("success-theorems", count, violations, started, notes)


# fixed list exercising both models, coverage, gaps, and empty sides
STABILITY_SCENARIOS: tuple[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...], str], ...] = (
    (("a", "b", "c"), ("a",), ("b",), "communication"),
    (("a", "b", "c"), ("a",), ("b",), "understanding"),
    (("a",), ("a",), ("a",), "communication"),
    (("a",), ("a",), (), "understanding"),
    (("a", "b"), ("a",), ("b",), "understanding"),
    (("a", "b"), ("a", "b"), ("a", "b"), "communication"),
    (("a", "b", "c"), ("a", "b", "c"), ("a", "b", "c"), "communication"),
    (("a", "b", "c"), ("a",), ("b", "c"), "understanding"),
    (("a", "b"), (), ("a",), "communication"),
    (("a", "b", "c"), ("a", "b"), ("b", "c"), "understanding"),
)


def check_fixpoint_stability() -> CheckReport:
    """Telling a saturated pair anything it already knows changes nothing."""
    started = time.perf_counter()
    rng = random.Random(STABILITY_SEED)
    violations: list[Violation] = []
    count = 0
    for facts, side_a, side_b, model in STABILITY_SCENARIOS:
        scenario = Scenario.make(facts, side_a, side_b, model)
        count += 1
        result = saturate(scenario)
        pairs = {f: (result.state_a.langs[f], result.state_b.langs[f])
                 for f in facts}
        order = _draw_order(facts)
        blocks = [members(pairs[fact][sender - 1], STABILITY_DEPTH)
                  for sender, fact, _ in order]
        total = sum(map(len, blocks))
        understanding = scenario.model is ModelKind.UNDERSTANDING
        for _ in range(STABILITY_TELLS):
            draw = _draw_tell(blocks, total, rng)
            if draw is None:
                break
            block, word = draw
            sender, fact, _ = order[block]
            # no rule mixes facts: only the told fact's languages can grow
            if _tell_fact(pairs[fact], sender, word, understanding) is not pairs[fact]:
                violations.append(Violation(
                    scenario.describe(),
                    f"telling '{Sentence(fact, word)}' from side {sender} grew "
                    f"the language of {{{fact}}}",
                ))
    return _finish("fixpoint-stability", count, violations, started)


def check_oracle_equivalence(max_facts: int = CheckConfig.max_facts,
                             depth: int = CheckConfig.depth) -> CheckReport:
    """The bounded brute-force closure equals the enumerated saturated
    languages, per agent per fact, over the whole grid in both models."""
    _require_count("depth", depth, 0, MAX_ORACLE_DEPTH)
    started = time.perf_counter()
    violations: list[Violation] = []
    count = 0
    for model in (ModelKind.COMMUNICATION, ModelKind.UNDERSTANDING):
        for scenario in scenario_grid(max_facts, model):
            count += 1
            report = compare_symbolic(scenario, depth)
            for mismatch in report.mismatches:
                symbolic = ",".join(mismatch.only_symbolic) or "(none)"
                bounded = ",".join(mismatch.only_bounded) or "(none)"
                violations.append(Violation(
                    scenario.describe(),
                    f"side {mismatch.agent} fact {mismatch.fact}: "
                    f"symbolic-only {symbolic}; bounded-only {bounded}",
                ))
    return _finish("oracle-equivalence", count, violations, started)


def run_all_checks(config: CheckConfig = CheckConfig()) -> list[CheckReport]:
    """Every check in a fixed order; overall status is their conjunction."""
    return [
        check_language_equivalence_props(config.max_facts),
        check_ck_dynamics(config.traces, seed=config.seed),
        check_success_theorems(
            config.max_facts,
            disable_understanding=config.disable_understanding,
        ),
        check_fixpoint_stability(),
        check_oracle_equivalence(config.max_facts, config.depth),
    ]
