import dataclasses
import hashlib
import itertools
import random
import sys

import pytest

from knowtell import checks
from knowtell.checks import (
    FACT_POOL,
    SAMPLE_DEPTH,
    STABILITY_SCENARIOS,
    TRACE_LENGTH,
    CheckConfig,
    Violation,
    _block_counts,
    _draw_tell,
    check_ck_dynamics,
    check_fixpoint_stability,
    check_language_equivalence_props,
    check_oracle_equivalence,
    check_success_theorems,
    run_all_checks,
    scenario_grid,
    subsets_of,
)
from knowtell.dynamics import TellEvent, _tell, saturate, step
from knowtell.langs import ALL_WORDS, cone, contains_cone, count_words, union
from knowtell.sentences import Sentence, format_sentence
from knowtell.states import KnowledgeState, ModelKind, Scenario, initial_state, knows
from tests.test_langs import evicting


def sample_tell(state_a, state_b, facts, rng, depth):
    """One draw from fresh block counts, as the checks make it, as the
    TellEvent it stands for; None when no tell is possible."""
    counts = _block_counts(state_a, state_b, facts, depth)
    draw = _draw_tell(state_a, state_b, facts, counts, rng, depth)
    if draw is None:
        return None
    sender, fact, word = draw
    return TellEvent(sender, 3 - sender, Sentence(fact, word))


def model_of(understanding):
    return ModelKind.UNDERSTANDING if understanding else ModelKind.COMMUNICATION


def test_subsets_order_is_stable():
    assert subsets_of(("a", "b")) == [(), ("a",), ("b",), ("a", "b")]


def test_scenario_grid_size():
    grid = list(scenario_grid(3, ModelKind.COMMUNICATION))
    assert len(grid) == 4 + 16 + 64
    assert len({s.describe() for s in grid}) == len(grid)
    with pytest.raises(ValueError):
        list(scenario_grid(0, ModelKind.COMMUNICATION))
    with pytest.raises(ValueError):
        list(scenario_grid(4, ModelKind.COMMUNICATION))


def test_language_equivalence_check_passes():
    report = check_language_equivalence_props(3)
    assert report.status == "pass"
    assert report.scenarios == 84
    assert report.violations == ()


def test_language_equivalence_smallest_grid():
    report = check_language_equivalence_props(1)
    assert report.status == "pass"
    assert report.scenarios == 4


def test_ck_dynamics_passes_and_is_seeded():
    report = check_ck_dynamics(traces=20, seed=42)
    assert report.status == "pass"
    assert report.scenarios == 32  # 16 subset pairs, both models
    again = check_ck_dynamics(traces=20, seed=42)
    assert (report.scenarios, report.violations) == (
        again.scenarios, again.violations
    )


@pytest.mark.parametrize("traces", [0, -1])
def test_ck_dynamics_refuses_to_run_no_trace(traces):
    with pytest.raises(ValueError, match="traces must be >= 1"):
        check_ck_dynamics(traces=traces)


def test_success_theorems_pass_with_gap_notes():
    report = check_success_theorems(3)
    assert report.status == "pass"
    # every note is an understanding scenario whose sides cannot cover P
    assert report.notes
    assert all("languages equal but side 1 knows only" in n for n in report.notes)


def test_fixpoint_stability_passes():
    report = check_fixpoint_stability()
    assert report.status == "pass"
    assert report.scenarios == 10


def test_oracle_equivalence_passes():
    report = check_oracle_equivalence(2, depth=4)
    assert report.status == "pass"
    assert report.scenarios == (4 + 16) * 2


def test_run_all_checks_order_and_status():
    reports = run_all_checks(CheckConfig(max_facts=2, depth=4, traces=10))
    assert [r.name for r in reports] == [
        "language-equivalence",
        "ck-dynamics",
        "success-theorems",
        "fixpoint-stability",
        "oracle-equivalence",
    ]
    assert all(r.status == "pass" for r in reports)
    assert all(r.millis >= 0 for r in reports)


def test_check_config_has_only_the_cli_settings():
    assert [f.name for f in dataclasses.fields(CheckConfig)] == [
        "max_facts", "depth", "traces", "seed", "disable_understanding",
    ]


def test_reports_deterministic_given_seed():
    config = CheckConfig(max_facts=2, depth=4, traces=10, seed=7)
    first = run_all_checks(config)
    second = run_all_checks(config)
    for a, b in zip(first, second):
        # identical except wall-clock timing
        assert dataclasses.replace(a, millis=0) == dataclasses.replace(b, millis=0)


def test_mutation_breaks_only_the_success_check():
    config = CheckConfig(max_facts=2, depth=4, traces=5)
    reports = run_all_checks(dataclasses.replace(config, disable_understanding=True))
    by_name = {r.name: r for r in reports}
    assert by_name["success-theorems"].status == "fail"
    assert by_name["success-theorems"].violations
    witness = by_name["success-theorems"].violations[0]
    assert "understanding" in witness.scenario
    # the fixture reaches the success check only: every other report passes
    # and is the unmutated one, timing aside
    plain = {r.name: r for r in run_all_checks(config)}
    for name, report in by_name.items():
        if name != "success-theorems":
            assert report.status == "pass", name
            assert (dataclasses.replace(report, millis=0)
                    == dataclasses.replace(plain[name], millis=0)), name


def test_violations_replay():
    reports = run_all_checks(
        CheckConfig(max_facts=2, depth=4, traces=5,
                    disable_understanding=True)
    )
    failing = next(r for r in reports if r.status == "fail")
    rerun = check_success_theorems(2, disable_understanding=True)
    assert failing.violations == rerun.violations


def reference_sample_tell(state_a, state_b, facts, rng, depth):
    """The sampler written the direct way: list every candidate, choose one."""
    candidates = []
    for state in (state_a, state_b):
        receiver = 2 if state.agent == 1 else 1
        for fact in facts:
            # every word by (length, word), letter 1 first, kept if a member
            for word in (w for n in range(depth + 1)
                         for w in itertools.product((1, 2), repeat=n)
                         if state.langs[fact].contains(w)):
                candidates.append(
                    TellEvent(state.agent, receiver, Sentence(fact, word))
                )
    if not candidates:
        return None
    return rng.choice(candidates)


def assert_samplers_agree(state_a, state_b, facts, seed, depth, draws):
    fast, reference = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        event = sample_tell(state_a, state_b, facts, fast, depth)
        assert event == reference_sample_tell(state_a, state_b, facts,
                                              reference, depth)
        assert fast.getstate() == reference.getstate()


def test_sampler_matches_reference_along_traces():
    facts = FACT_POOL[:2]
    rng = random.Random(42)
    for model in (ModelKind.COMMUNICATION, ModelKind.UNDERSTANDING):
        for side_a in subsets_of(facts):
            for side_b in subsets_of(facts):
                scenario = Scenario.make(facts, side_a, side_b, model)
                state_a = initial_state(1, scenario)
                state_b = initial_state(2, scenario)
                for _ in range(8):
                    seed = rng.randrange(2 ** 32)
                    assert_samplers_agree(state_a, state_b, facts, seed, 3, 5)
                    event = sample_tell(state_a, state_b, facts, rng, 3)
                    if event is None:
                        break
                    state_a, state_b = step(state_a, state_b, event, model)


def test_sampler_matches_reference_on_saturated_states():
    for facts, side_a, side_b, model in STABILITY_SCENARIOS:
        result = saturate(Scenario.make(facts, side_a, side_b, model))
        assert_samplers_agree(result.state_a, result.state_b, facts,
                              len(facts), 5, 20)


def told_stream_digest(monkeypatch, run):
    """SHA-256 over every (sender, fact, suffix, model) that run passes to
    the check suite's tell rule."""
    digest = hashlib.sha256()

    def recording(state_a, state_b, sender, fact, word, understanding):
        suffix = "".join(map(str, word))
        digest.update(f"{sender} {fact} {suffix} "
                      f"{model_of(understanding).value}\n".encode())
        return _tell(state_a, state_b, sender, fact, word, understanding)

    monkeypatch.setattr(checks, "_tell", recording)
    run()
    return digest.hexdigest()


# taken from the sampler that recounted every block before each draw and
# asked common knowledge of both facts at every prefix
TELL_STREAM_PINS = [
    (42, "caa91132791b29f640d5682246cf0ef47019f27b286ac393c040513e5daa5a3f"),
    (1, "6b926e4a8e3924aef13e09e632612692b07bc3690d8e071a33f38631b1c01b8b"),
    (7, "a44a1950e66acb544914a95f15ffb0c24b94728dd68d12f5559b2b26585c773c"),
]


@pytest.mark.parametrize("seed, pinned", TELL_STREAM_PINS, ids=["seed42", "seed1", "seed7"])
def test_ck_dynamics_tell_stream_is_pinned(monkeypatch, seed, pinned):
    digest = told_stream_digest(monkeypatch, lambda: check_ck_dynamics(100, seed))
    assert digest == pinned


@pytest.mark.usefixtures("frozen_heap")
def test_evicting_every_cache_keeps_the_tell_stream(monkeypatch):
    # the seed-42 pin, replayed through a tell that empties every cache first
    monkeypatch.setattr(sys.modules[__name__], "_tell", evicting(_tell))
    test_ck_dynamics_tell_stream_is_pinned(monkeypatch, *TELL_STREAM_PINS[0])


def test_fixpoint_stability_tell_stream_is_pinned(monkeypatch):
    assert told_stream_digest(monkeypatch, check_fixpoint_stability) == (
        "700b6eca4f1e1cc842bbe6ce11db09e087942290651be6c2e9e335c1c5161cf9"
    )


def test_the_checks_tell_by_the_rule_that_step_guards(monkeypatch):
    # along every tell ck-dynamics makes, the unchecked core and the checked
    # step agree, and the sender knows the drawn word, which step would have
    # proved again
    tells = grown = 0

    def both(state_a, state_b, sender, fact, word, understanding):
        nonlocal tells, grown
        event = TellEvent(sender, 3 - sender, Sentence(fact, word))
        assert knows((state_a, state_b)[sender - 1], event.message)
        checked = step(state_a, state_b, event, model_of(understanding))
        core = _tell(state_a, state_b, sender, fact, word, understanding)
        assert [c is s for c, s in zip(checked, (state_a, state_b))] == [
            c is s for c, s in zip(core, (state_a, state_b))]
        assert checked == core  # interned languages: == is identity
        tells += 1
        grown += core[0] is not state_a or core[1] is not state_b
        return core

    monkeypatch.setattr(checks, "_tell", both)
    assert check_ck_dynamics(20, 42).status == "pass"
    assert tells > grown > 0


def test_ck_dynamics_counts_only_the_languages_it_draws_from(monkeypatch):
    # a grown block is counted when the next draw needs it, so the last
    # states of a trace are never counted
    counted, drawn_from = set(), set()

    def counting(lang, depth):
        counted.add(lang)
        return count_words(lang, depth)

    def drawing(state_a, state_b, facts, counts, rng, depth):
        drawn_from.update(s.langs[f] for s in (state_a, state_b) for f in facts)
        return _draw_tell(state_a, state_b, facts, counts, rng, depth)

    monkeypatch.setattr(checks, "count_words", counting)
    monkeypatch.setattr(checks, "_draw_tell", drawing)
    check_ck_dynamics(20, 42)
    assert counted == drawn_from


def growing_tells(traces, seed):
    """Every tell of check_ck_dynamics(traces, seed) that grows a language,
    replayed from scratch: (scenario, trace, the prefix it leads to, event,
    the pair it leads to)."""
    rng = random.Random(seed)
    facts = FACT_POOL[:2]
    for model in (ModelKind.COMMUNICATION, ModelKind.UNDERSTANDING):
        for side_a, side_b in itertools.product(subsets_of(facts), repeat=2):
            scenario = Scenario.make(facts, side_a, side_b, model)
            for trace_index in range(traces):
                length = rng.randint(0, TRACE_LENGTH)
                state_a, state_b = initial_state(1, scenario), initial_state(2, scenario)
                for step_index in range(length):
                    event = sample_tell(state_a, state_b, facts, rng, SAMPLE_DEPTH)
                    if event is None:
                        break
                    after = step(state_a, state_b, event, model)
                    if after != (state_a, state_b):
                        yield scenario, trace_index, step_index + 1, event, after
                    state_a, state_b = after


def mutant_tell(k, mutate):
    """The tell rule, except that the k-th tell that grows a language also
    applies mutate to the pair it returns, given the receiver and the fact."""
    grown = 0

    def mutant(state_a, state_b, sender, fact, word, understanding):
        nonlocal grown
        after = _tell(state_a, state_b, sender, fact, word, understanding)
        if after[0] is state_a and after[1] is state_b:
            return after
        grown += 1
        return mutate(after, 3 - sender, fact) if grown == k else after

    return mutant


def all_words_on_both_sides(after, receiver, fact):
    return tuple(KnowledgeState(s.agent, {**s.langs, fact: ALL_WORDS})
                 for s in after)


def cone_at(suffix):
    def add_cone(after, receiver, fact):
        state = after[receiver - 1]
        grown = KnowledgeState(state.agent, {
            **state.langs, fact: union(state.langs[fact], cone(suffix)),
        })
        return (grown, after[1]) if receiver == 1 else (after[0], grown)
    return add_cone


@pytest.mark.parametrize("k", [1, 273, 1624])
def test_ck_dynamics_sees_common_knowledge_made_by_a_step(monkeypatch, k):
    # kills a check that does not ask common knowledge again after a step
    scenario, trace, prefix, event, _ = next(
        itertools.islice(growing_tells(20, 42), k - 1, None))
    monkeypatch.setattr(checks, "_tell", mutant_tell(k, all_words_on_both_sides))
    report = check_ck_dynamics(20, 42)
    ck_found = [v for v in report.violations if "common knowledge" in v.witness]
    assert ck_found[0] == Violation(
        scenario.describe(),
        f"trace {trace} prefix {prefix}: common knowledge of "
        f"{{{event.message.fact}}} on a finite trace",
    )


@pytest.mark.parametrize("k, suffix", [(1, (1,)), (602, (2, 1, 2)), (2289, (1, 1))])
def test_ck_dynamics_sees_a_cone_behind_a_suffix(monkeypatch, k, suffix):
    # only one side holds the cone, and not at the bare fact: no bare-fact ck
    # answer changes, so only the whole-state invariant can see it
    scenario, trace, prefix, event, after = next(
        itertools.islice(growing_tells(20, 42), k - 1, None))
    mutate = cone_at(suffix)
    monkeypatch.setattr(checks, "_tell", mutant_tell(k, mutate))
    report = check_ck_dynamics(20, 42)
    assert not any("common knowledge" in v.witness for v in report.violations)
    fact = event.message.fact
    held = mutate(after, event.receiver, fact)[event.receiver - 1].langs[fact]
    words = (w for n in range(len(suffix) + 1)
             for w in itertools.product((1, 2), repeat=n))
    shortest = next(w for w in words if contains_cone(held, w))
    assert report.violations[0] == Violation(
        scenario.describe(),
        f"trace {trace} prefix {prefix}: side {event.receiver}'s language for "
        f"{fact} holds every extension of "
        f"'{format_sentence(Sentence(fact, shortest))}'",
    )
