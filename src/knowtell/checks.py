"""Verification checks: exhaustive scenario grids plus seeded random
traces, producing machine-readable pass/fail reports whose violations carry
replayable witnesses. Grids are never sampled; randomness appears only in
trace generation and always flows from an explicit seed.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .dynamics import _tell, saturate
from .langs import Lang, cone_word, count_words, distinguishing_word, word_at
from .oracle import compare_symbolic
from .sentences import Sentence, Word, format_sentence
from .states import (
    KnowledgeState,
    ModelKind,
    Scenario,
    common_knowledge,
    initial_state,
    known_facts,
    language_equal,
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


@dataclass(frozen=True)
class Violation:
    scenario: str
    witness: str


@dataclass(frozen=True)
class CheckReport:
    name: str
    scenarios: int
    violations: tuple[Violation, ...]
    millis: int
    notes: tuple[str, ...] = ()

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
    """Every subset pair over fact sets of size 1..max_facts."""
    if not 1 <= max_facts <= len(FACT_POOL):
        raise ValueError(f"max_facts must be in 1..{len(FACT_POOL)}")
    for size in range(1, max_facts + 1):
        facts = FACT_POOL[:size]
        for side_a in subsets_of(facts):
            for side_b in subsets_of(facts):
                yield Scenario.make(facts, side_a, side_b, model)


def _engine_scenario(scenario: Scenario, disable_understanding: bool) -> Scenario:
    """What both engines run: the no-understanding self-test fixture solves
    an understanding scenario under the communication rule."""
    if disable_understanding:
        return dataclasses.replace(scenario, model=ModelKind.COMMUNICATION)
    return scenario


def _inequality_witness(state_a: KnowledgeState, state_b: KnowledgeState,
                        facts: Sequence[str]) -> str:
    for fact in facts:
        if state_a.langs[fact] != state_b.langs[fact]:
            word = distinguishing_word(state_a.langs[fact], state_b.langs[fact])
            sentence = format_sentence(Sentence(fact, word))
            side = 1 if state_a.langs[fact].contains(word) else 2
            return f"'{sentence}' is in side {side}'s language only"
    return "languages differ on no fact"


def check_language_equivalence_props(max_facts: int = 3) -> CheckReport:
    """Saturated languages are equal exactly when the two sides start from
    the same facts; checked both ways over the whole subset grid."""
    started = time.perf_counter()
    violations: list[Violation] = []
    count = 0
    for scenario in scenario_grid(max_facts, ModelKind.COMMUNICATION):
        count += 1
        result = saturate(scenario)
        equal = language_equal(result.state_a, result.state_b)
        expected = scenario.side_a == scenario.side_b
        if equal and not expected:
            violations.append(Violation(
                scenario.describe(),
                "languages equal although the sides' fact sets differ",
            ))
        elif expected and not equal:
            violations.append(Violation(
                scenario.describe(),
                _inequality_witness(result.state_a, result.state_b, scenario.facts),
            ))
    return _finish("language-equivalence", count, violations, started)


def _block_counts(state_a: KnowledgeState, state_b: KnowledgeState,
                  facts: Sequence[str], depth: int) -> list[int]:
    """How many truthful messages of depth <= depth each (sender, fact) block
    offers, in the order a draw ranks them: side 1's facts, then side 2's."""
    return [count_words(state.langs[fact], depth)
            for state in (state_a, state_b) for fact in facts]


def _draw_tell(state_a: KnowledgeState, state_b: KnowledgeState,
               facts: Sequence[str], counts: Sequence[int], rng: random.Random,
               depth: int) -> tuple[int, str, Word] | None:
    """A uniformly random truthful tell (sender, fact, word) with message
    depth <= depth, given the states' `_block_counts` at that depth: one
    rng.randrange over the candidates ranked by sender, fact, then (length,
    word), which draws exactly as rng.choice over that ranked list would.
    The word comes from the sender's language: `_tell` may take it as is."""
    total = sum(counts)
    if not total:
        return None
    index = rng.randrange(total)
    for block, n in enumerate(counts):
        if index < n:
            state = state_b if block >= len(facts) else state_a
            fact = facts[block % len(facts)]
            return state.agent, fact, word_at(state.langs[fact], depth, index)
        index -= n


def check_ck_dynamics(traces: int = 100, seed: int = 42) -> CheckReport:
    """Along random truthful traces, the set of facts that are common
    knowledge stays empty at every prefix and never shrinks, in both models;
    and no language either side reaches holds the whole cone of a sentence,
    which rules out common knowledge of every sentence, not only bare facts.
    The cone test is exact: a finite trace leaves each language an own-mark
    chain plus finitely many w.T, and none of those holds a cone.

    Covers every subset pair over the two-fact set; reproducible from the
    seed alone. Zero traces is refused: that check would pass unexercised.

    A tell grows at most one language, and interning shows which by
    identity. So a trace carries its block counts and one answer per fact
    and re-derives only what a tell changed; the draws are exactly those of
    a full recount before each one. A draw is the sender's by construction,
    so the check tells through the unchecked `dynamics._tell`, not `step`,
    and builds a `Sentence` only for a violation's text.
    """
    if traces < 1:
        raise ValueError(f"traces must be >= 1, got {traces}")
    started = time.perf_counter()
    rng = random.Random(seed)
    violations: list[Violation] = []
    count = 0
    facts = FACT_POOL[:2]
    bare = {f: Sentence(f) for f in facts}

    def report(trace_index: int, step_index: int, text: str) -> None:
        violations.append(Violation(
            scenario.describe(), f"trace {trace_index} prefix {step_index}: {text}"
        ))

    def scan(state: KnowledgeState, fact: str, trace_index: int,
             step_index: int) -> None:
        # a language is searched once per scenario: one set for the whole
        # run would hold every language at once and raise the peak memory
        scanned.add(state.langs[fact])
        word = cone_word(state.langs[fact])
        if word is not None:
            report(trace_index, step_index,
                   f"side {state.agent}'s language for {fact} holds every "
                   f"extension of '{format_sentence(Sentence(fact, word))}'")

    for model in (ModelKind.COMMUNICATION, ModelKind.UNDERSTANDING):
        understanding = model is ModelKind.UNDERSTANDING
        for side_a in subsets_of(facts):
            for side_b in subsets_of(facts):
                scenario = Scenario.make(facts, side_a, side_b, model)
                count += 1
                scanned: set[Lang] = set()
                start = (initial_state(1, scenario), initial_state(2, scenario))
                for state in start:
                    for fact in facts:
                        if state.langs[fact] not in scanned:
                            scan(state, fact, 0, 0)
                start_counts = _block_counts(*start, facts, SAMPLE_DEPTH)
                start_ck = frozenset(
                    f for f in facts if common_knowledge(*start, bare[f])
                )
                for trace_index in range(traces):
                    length = rng.randint(0, TRACE_LENGTH)
                    state_a, state_b = start
                    counts = list(start_counts)
                    recount: dict[int, Lang] = {}  # block -> its grown language
                    ck_set, previous = start_ck, frozenset()
                    for step_index in range(length + 1):
                        if ck_set:
                            report(trace_index, step_index,
                                   f"common knowledge of "
                                   f"{{{','.join(sorted(ck_set))}}} on a finite trace")
                        if not previous <= ck_set:
                            report(trace_index, step_index,
                                   f"common knowledge lost: "
                                   f"{{{','.join(sorted(previous - ck_set))}}}")
                        previous = ck_set
                        if step_index == length:
                            break
                        for block, lang in recount.items():
                            counts[block] = count_words(lang, SAMPLE_DEPTH)
                        recount.clear()
                        draw = _draw_tell(state_a, state_b, facts, counts, rng,
                                          SAMPLE_DEPTH)
                        if draw is None:
                            break
                        after = _tell(state_a, state_b, *draw, understanding)
                        for side, old, new in zip((0, 1), (state_a, state_b), after):
                            if new is old:
                                continue
                            for i, fact in enumerate(facts):
                                lang = new.langs[fact]
                                if lang is old.langs[fact]:
                                    continue
                                recount[side * len(facts) + i] = lang
                                if lang not in scanned:
                                    scan(new, fact, trace_index, step_index + 1)
                                if (common_knowledge(*after, bare[fact])
                                        != (fact in ck_set)):
                                    ck_set ^= {fact}
                        state_a, state_b = after
    return _finish("ck-dynamics", count, violations, started)


def check_success_theorems(max_facts: int = 3, *,
                           disable_understanding: bool = False) -> CheckReport:
    """Equal starting fact sets guarantee success under communication alone;
    joint coverage guarantees success (and common knowledge of every fact)
    under full understanding. Coverage gaps with equal languages are listed
    as notes, not violations."""
    started = time.perf_counter()
    violations: list[Violation] = []
    notes: list[str] = []
    count = 0

    for size in range(1, max_facts + 1):
        facts = FACT_POOL[:size]
        scenario = Scenario.make(facts, facts, facts, ModelKind.COMMUNICATION)
        count += 1
        result = saturate(scenario)
        if not language_equal(result.state_a, result.state_b):
            violations.append(Violation(
                scenario.describe(),
                _inequality_witness(result.state_a, result.state_b, facts),
            ))
        elif not project_success(result.state_a, result.state_b, scenario):
            violations.append(Violation(scenario.describe(), "success denied"))

    for scenario in scenario_grid(max_facts, ModelKind.UNDERSTANDING):
        count += 1
        result = saturate(_engine_scenario(scenario, disable_understanding))
        covered = scenario.side_a | scenario.side_b >= set(scenario.facts)
        if covered:
            if not language_equal(result.state_a, result.state_b):
                violations.append(Violation(
                    scenario.describe(),
                    _inequality_witness(result.state_a, result.state_b,
                                        scenario.facts),
                ))
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
            if (language_equal(result.state_a, result.state_b)
                    and not project_success(result.state_a, result.state_b,
                                            scenario)):
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


def check_fixpoint_stability(*, disable_understanding: bool = False) -> CheckReport:
    """Telling a saturated pair anything it already knows changes nothing."""
    started = time.perf_counter()
    rng = random.Random(STABILITY_SEED)
    violations: list[Violation] = []
    count = 0
    for facts, side_a, side_b, model in STABILITY_SCENARIOS:
        scenario = Scenario.make(facts, side_a, side_b, model)
        count += 1
        engine = _engine_scenario(scenario, disable_understanding)
        result = saturate(engine)
        state_a, state_b = result.state_a, result.state_b
        # no tell is kept, so the counts hold for every draw
        counts = _block_counts(state_a, state_b, facts, STABILITY_DEPTH)
        understanding = engine.model is ModelKind.UNDERSTANDING
        for _ in range(STABILITY_TELLS):
            draw = _draw_tell(state_a, state_b, facts, counts, rng,
                              STABILITY_DEPTH)
            if draw is None:
                break
            after_a, after_b = _tell(state_a, state_b, *draw, understanding)
            changed = [
                f for f in facts
                if after_a.langs[f] != state_a.langs[f]
                or after_b.langs[f] != state_b.langs[f]
            ]
            if changed:
                sender, fact, word = draw
                violations.append(Violation(
                    scenario.describe(),
                    f"telling '{Sentence(fact, word)}' from side {sender} grew "
                    f"the language of {{{','.join(changed)}}}",
                ))
    return _finish("fixpoint-stability", count, violations, started)


def check_oracle_equivalence(max_facts: int = 3, depth: int = 5, *,
                             disable_understanding: bool = False) -> CheckReport:
    """The bounded brute-force closure equals the enumerated saturated
    languages, per agent per fact, over the whole grid in both models."""
    started = time.perf_counter()
    violations: list[Violation] = []
    count = 0
    for model in (ModelKind.COMMUNICATION, ModelKind.UNDERSTANDING):
        for scenario in scenario_grid(max_facts, model):
            count += 1
            report = compare_symbolic(
                _engine_scenario(scenario, disable_understanding), depth
            )
            for mismatch in report.mismatches:
                symbolic = ",".join(mismatch.only_symbolic) or "(none)"
                bounded = ",".join(mismatch.only_bounded) or "(none)"
                violations.append(Violation(
                    scenario.describe(),
                    f"side {mismatch.agent} fact {mismatch.fact}: "
                    f"symbolic-only {symbolic}; bounded-only {bounded}",
                ))
    return _finish("oracle-equivalence", count, violations, started)


@dataclass(frozen=True)
class CheckConfig:
    max_facts: int = 3
    depth: int = 5
    traces: int = 100
    seed: int = 42
    disable_understanding: bool = False


def run_all_checks(config: CheckConfig = CheckConfig()) -> list[CheckReport]:
    """Every check in a fixed order; overall status is their conjunction."""
    return [
        check_language_equivalence_props(config.max_facts),
        check_ck_dynamics(config.traces, seed=config.seed),
        check_success_theorems(
            config.max_facts,
            disable_understanding=config.disable_understanding,
        ),
        check_fixpoint_stability(
            disable_understanding=config.disable_understanding,
        ),
        check_oracle_equivalence(
            config.max_facts, config.depth,
            disable_understanding=config.disable_understanding,
        ),
    ]
