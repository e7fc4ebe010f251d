import hashlib
import inspect
import itertools
import random
import re
import sys

import pytest

from knowtell import checks, dynamics, oracle
from knowtell.checks import (
    FACT_POOL,
    SAMPLE_DEPTH,
    STABILITY_DEPTH,
    STABILITY_SCENARIOS,
    TRACE_LENGTH,
    CheckConfig,
    CheckReport,
    Violation,
    check_ck_dynamics,
    check_fixpoint_stability,
    check_language_equivalence_props,
    check_oracle_equivalence,
    check_success_theorems,
    run_all_checks,
    scenario_grid,
    subsets_of,
)
from knowtell.dynamics import TellEvent, _tell_fact, saturate, step
from knowtell.langs import ALL_WORDS, MAX_ORACLE_DEPTH, cone, contains_cone, members, union
from knowtell.sentences import Sentence, format_sentence
from knowtell.states import KnowledgeState, ModelKind, Scenario, initial_state, knows
from tests.test_langs import evicting


def without_millis(report: CheckReport) -> CheckReport:
    """The report with its wall-clock timing zeroed."""
    return CheckReport(report.name, report.scenarios, report.violations, 0, report.notes)


def pairs_of(state_a, state_b, facts):
    """Per fact, side 1's and side 2's language: what the checks carry."""
    return {f: (state_a.langs[f], state_b.langs[f]) for f in facts}


def blocks_of(pairs, depth):
    """The member lists up to depth that the checks draw from, in draw
    order: side 1's list of each fact, then side 2's."""
    return [members(pair[side], depth) for side in (0, 1) for pair in pairs.values()]


def check_locals(*names):
    """The named local variables of the running check, read from the
    innermost frame of a `checks` function: called from a hook on
    `checks._tell_fact`, which each check calls once per tell. A local that
    the check does not have fails the test by its name."""
    frame = sys._getframe(1)
    while frame.f_globals is not checks.__dict__:
        frame = frame.f_back
    seen = frame.f_locals
    missing = [name for name in names if name not in seen]
    if missing:
        pytest.fail(f"{frame.f_code.co_name} has no local {', '.join(missing)}")
    return tuple(seen[name] for name in names)


def told(pairs, draw):
    """The (sender, fact, word) that a draw over blocks_of(pairs) stands for."""
    block, word = draw
    side, at = divmod(block, len(pairs))
    return side + 1, list(pairs)[at], word


def draw_tell(blocks, total, rng):
    """A uniformly random truthful tell, given its candidate blocks in draw
    order (each sender's ranked member list of each fact, side 1's blocks
    first) and total, the sum of their lengths: (the block it lands in, the
    word), or None when total is 0. One rng.randrange(total) indexes the
    blocks one after another, which draws exactly as rng.choice over their
    concatenation would: the reference for ck-dynamics' inline draw."""
    if not total:
        return None
    index = rng.randrange(total)
    for block, words in enumerate(blocks):
        if index < len(words):
            return block, words[index]
        index -= len(words)


def sample_tell(state_a, state_b, facts, rng, depth):
    """One draw, as ck-dynamics makes it, as the TellEvent it stands for;
    None when no tell is possible."""
    pairs = pairs_of(state_a, state_b, facts)
    blocks = blocks_of(pairs, depth)
    draw = draw_tell(blocks, sum(map(len, blocks)), rng)
    if draw is None:
        return None
    sender, fact, word = told(pairs, draw)
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


def test_language_equivalence_reports_both_witnesses(monkeypatch):
    # a broken engine: sides that differ saturate as if equal, and equal
    # sides as if side 2 started empty
    def saturate_mixed_up(scenario):
        side_b = frozenset() if scenario.side_a == scenario.side_b else scenario.side_a
        return saturate(Scenario(scenario.facts, scenario.side_a, side_b, scenario.model))

    monkeypatch.setattr(checks, "saturate", saturate_mixed_up)
    report = check_language_equivalence_props(1)
    assert report.status == "fail"
    assert [(v.scenario, v.witness) for v in report.violations] == [
        ("facts={a} side1={} side2={a} model=communication",
         "languages equal although the sides' fact sets differ"),
        ("facts={a} side1={a} side2={} model=communication",
         "languages equal although the sides' fact sets differ"),
        ("facts={a} side1={a} side2={a} model=communication",
         "'a' is in side 1's language only"),
    ]


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


@pytest.mark.parametrize("bad", [True, 2.0, "3", None], ids=["true", "float", "str", "none"])
def test_the_check_entry_points_refuse_counts_that_are_not_ints(bad):
    # True ran as one trace, 2.0 died in range() and a seed of None drew
    # from the system's entropy; each is now refused before any work,
    # naming the value
    calls = [
        ("traces", lambda: check_ck_dynamics(bad)),
        ("seed", lambda: check_ck_dynamics(1, bad)),
        ("max_facts", lambda: scenario_grid(bad, ModelKind.COMMUNICATION)),
        ("max_facts", lambda: check_language_equivalence_props(bad)),
        ("max_facts", lambda: check_success_theorems(bad)),
        ("max_facts", lambda: check_oracle_equivalence(bad)),
        ("depth", lambda: check_oracle_equivalence(2, bad)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError,
                           match=rf"^{name} must be an int, got {re.escape(repr(bad))}$"):
            call()


@pytest.mark.parametrize("bad", ["no", None, 0, 1])
def test_the_success_check_refuses_a_fixture_that_is_not_a_bool(bad):
    # a truthy "no" once ran the mutated rule and failed with 2 violations
    with pytest.raises(ValueError, match=rf"^disable_understanding must be a bool, "
                                         rf"got {re.escape(repr(bad))}$"):
        check_success_theorems(1, disable_understanding=bad)


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


def test_the_stability_table_covers_every_fact_class():
    # the check tells each saturated pair of the table, so it is exhaustive
    # only while the table reaches all 8 (in side 1, in side 2, model) classes
    reached = {(fact in side_a, fact in side_b, model)
               for facts, side_a, side_b, model in STABILITY_SCENARIOS for fact in facts}
    assert reached == set(itertools.product((False, True), (False, True),
                                            ("communication", "understanding")))


def test_fixpoint_stability_tells_every_held_word_once(monkeypatch):
    # every (pair, sender, word, model) the table's saturated pairs allow,
    # listed by contains over every word up to the depth, not by members
    words = [w for n in range(STABILITY_DEPTH + 1)
             for w in itertools.product((1, 2), repeat=n)]
    expected = set()
    for facts, side_a, side_b, model in STABILITY_SCENARIOS:
        result = saturate(Scenario.make(facts, side_a, side_b, model))
        for pair in pairs_of(result.state_a, result.state_b, facts).values():
            expected.update((pair, sender, word, model == "understanding")
                            for sender in (1, 2) for word in words
                            if pair[sender - 1].contains(word))
    told = []

    def recording(pair, sender, word, understanding):
        told.append((pair, sender, word, understanding))
        return _tell_fact(pair, sender, word, understanding)

    monkeypatch.setattr(checks, "_tell_fact", recording)
    assert check_fixpoint_stability().status == "pass"
    assert set(told) == expected
    assert len(told) == len(expected) == 378


def test_fixpoint_stability_fails_when_side_1s_bare_tell_gains_as_understanding(monkeypatch):
    # the mutant census row: a bare tell from side 1 also adds
    # understanding's bare gain in communication, which no other check sees
    union_tail = dynamics._union_tail

    def mutant(lang, word, mark, optional):
        return union_tail(lang, word, mark, optional or (word == () and mark == 1))

    monkeypatch.setattr(dynamics, "_union_tail", mutant)
    report = check_fixpoint_stability()
    assert report.status == "fail"
    assert report.violations[0] == Violation(
        "facts={a,b,c} side1={a} side2={b} model=communication",
        "telling 'a' from side 1 grew the language of {a}")


def test_oracle_equivalence_passes():
    report = check_oracle_equivalence(2, depth=4)
    assert report.status == "pass"
    assert report.scenarios == (4 + 16) * 2


def test_oracle_equivalence_fails_when_members_drops_its_longest_level(monkeypatch):
    # the mutant census row: each listed language loses its words of the
    # full depth, which the bounded closure still holds
    listed = oracle.enumerate_words
    monkeypatch.setattr(oracle, "enumerate_words", lambda lang, depth: frozenset(
        word for word in listed(lang, depth) if len(word) < depth))
    oracle._compare_fact.cache_clear()
    try:
        report = check_oracle_equivalence(1, 3)
    finally:
        oracle._compare_fact.cache_clear()
    assert (report.status, len(report.violations)) == ("fail", 12)  # both sides of 6 of 8
    assert report.violations[0] == Violation(
        "facts={a} side1={} side2={a} model=communication",
        "side 1 fact a: symbolic-only (none); bounded-only a.2.1.1,a.2.1.2,a.2.2.1,a.2.2.2")
    for violation in report.violations:
        symbolic_only, bounded_only = violation.witness.split("; bounded-only ")
        assert symbolic_only.endswith("symbolic-only (none)")
        assert all(len(text.split(".")) == 4 for text in bounded_only.split(","))


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
    assert list(inspect.signature(CheckConfig).parameters) == [
        "max_facts", "depth", "traces", "seed", "disable_understanding",
    ]


@pytest.mark.parametrize("settings, message", [
    ({"seed": None}, "seed must be an int, got None"),
    ({"seed": True}, "seed must be an int, got True"),
    ({"traces": 0}, "traces must be >= 1, got 0"),
    ({"max_facts": 4}, "max_facts must be in 1..3, got 4"),
    ({"depth": 2.0}, "depth must be an int, got 2.0"),
    ({"depth": MAX_ORACLE_DEPTH + 1},
     f"depth must be in 0..{MAX_ORACLE_DEPTH}, got {MAX_ORACLE_DEPTH + 1}"),
    ({"disable_understanding": "no"}, "disable_understanding must be a bool, got 'no'"),
], ids=["seed-none", "seed-bool", "traces", "max-facts", "depth-float", "depth-high",
        "mutate-str"])
def test_a_bad_config_is_refused_before_any_check_runs(monkeypatch, settings, message):
    ran = []

    def counted(name, check):
        return lambda *args, **kwargs: ran.append(name) or check(*args, **kwargs)

    for name in ("check_language_equivalence_props", "check_ck_dynamics",
                 "check_success_theorems", "check_fixpoint_stability",
                 "check_oracle_equivalence"):
        monkeypatch.setattr(checks, name, counted(name, getattr(checks, name)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_all_checks(CheckConfig(**settings))
    assert ran == []


def test_reports_deterministic_given_seed():
    config = CheckConfig(max_facts=2, depth=4, traces=10, seed=7)
    first = run_all_checks(config)
    second = run_all_checks(config)
    for a, b in zip(first, second):
        # identical except wall-clock timing
        assert without_millis(a) == without_millis(b)


def test_mutation_breaks_only_the_success_check():
    config = CheckConfig(max_facts=2, depth=4, traces=5)
    reports = run_all_checks(CheckConfig(max_facts=2, depth=4, traces=5,
                                         disable_understanding=True))
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
            assert without_millis(report) == without_millis(plain[name]), name


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


def below(getrandbits, n):
    """randrange(n) as check_ck_dynamics draws it inline, from getrandbits
    alone: n's bit length of bits, drawn again while n or more."""
    bits = n.bit_length()
    index = getrandbits(bits)
    while index >= n:
        index = getrandbits(bits)
    return index


def test_the_inline_draw_is_the_stdlib_draw():
    # ck-dynamics draws a tell and a trace length by the rejection loop that
    # Random.randrange and randint run, which keeps it on the stream of
    # draw_tell, the tests' reference sampler; a Python that draws another
    # way fails here first
    spread = random.Random(5).sample(range(4097, 2 ** 40), 200)
    powers = [2 ** k + d for k in range(12, 65) for d in (-1, 0, 1)]
    inline, stdlib = random.Random(2024), random.Random(2024)
    for n in [*range(1, 4097), *spread, *powers]:
        for _ in range(3):
            assert below(inline.getrandbits, n) == stdlib.randrange(n)
        assert inline.getstate() == stdlib.getstate(), n
    for _ in range(200):
        assert below(inline.getrandbits, TRACE_LENGTH + 1) == stdlib.randint(0, TRACE_LENGTH)
    assert inline.getstate() == stdlib.getstate()


def test_a_hook_that_reads_a_local_the_check_lacks_fails_by_its_name(monkeypatch):
    def reading(pair, sender, word, understanding):
        check_locals("pairs", "no_such_local")

    monkeypatch.setattr(checks, "_tell_fact", reading)
    with pytest.raises(pytest.fail.Exception,
                       match="^check_ck_dynamics has no local no_such_local$"):
        check_ck_dynamics(1, 42)


def told_stream_digest(monkeypatch, run):
    """SHA-256 over every (sender, fact, suffix, model) that run tells
    through the check suite's rule, and the number of tells. At each tell
    ck-dynamics must hold, in draw order, the member lists up to
    SAMPLE_DEPTH of its pairs and the total of their lengths, and tell a
    word of the sender's list on the pair it holds for the fact."""
    digest = hashlib.sha256()
    tells = 0

    def recording(pair, sender, word, understanding):
        nonlocal tells
        pairs, fact, blocks, total = check_locals("pairs", "fact", "blocks", "total")
        assert blocks == blocks_of(pairs, SAMPLE_DEPTH)
        assert total == sum(map(len, blocks))
        assert pair is pairs[fact] and word in members(pair[sender - 1], SAMPLE_DEPTH)
        tells += 1
        suffix = "".join(map(str, word))
        digest.update(f"{sender} {fact} {suffix} "
                      f"{model_of(understanding).value}\n".encode())
        return _tell_fact(pair, sender, word, understanding)

    monkeypatch.setattr(checks, "_tell_fact", recording)
    run()
    return digest.hexdigest(), tells


# taken from the sampler that recounted every block before each draw and
# asked common knowledge of both facts at every prefix
TELL_STREAM_PINS = [
    (42, "caa91132791b29f640d5682246cf0ef47019f27b286ac393c040513e5daa5a3f"),
    (1, "6b926e4a8e3924aef13e09e632612692b07bc3690d8e071a33f38631b1c01b8b"),
    (7, "a44a1950e66acb544914a95f15ffb0c24b94728dd68d12f5559b2b26585c773c"),
]


@pytest.mark.parametrize("seed, pinned", TELL_STREAM_PINS, ids=["seed42", "seed1", "seed7"])
def test_ck_dynamics_tell_stream_is_pinned(monkeypatch, seed, pinned):
    digest, tells = told_stream_digest(monkeypatch, lambda: check_ck_dynamics(100, seed))
    assert digest == pinned and tells > 14_000


@pytest.mark.usefixtures("frozen_heap")
def test_evicting_every_cache_keeps_the_tell_stream(monkeypatch):
    # the seed-42 pin, replayed through a tell that empties every cache first
    monkeypatch.setattr(sys.modules[__name__], "_tell_fact", evicting(_tell_fact))
    test_ck_dynamics_tell_stream_is_pinned(monkeypatch, *TELL_STREAM_PINS[0])


def test_the_checks_tell_by_the_rule_that_step_guards(monkeypatch):
    # along every tell ck-dynamics makes, the unchecked rule on the told
    # fact's pair and the checked step on the whole states agree, and the
    # sender knows the drawn word, which step would have proved again
    tells = grown = 0

    def both(pair, sender, word, understanding):
        nonlocal tells, grown
        pairs, fact = check_locals("pairs", "fact")
        assert pair is pairs[fact]
        states = tuple(KnowledgeState(agent, {f: p[agent - 1] for f, p in pairs.items()})
                       for agent in (1, 2))
        event = TellEvent(sender, 3 - sender, Sentence(fact, word))
        assert knows(states[sender - 1], event.message)
        checked = step(*states, event, model_of(understanding))
        core = _tell_fact(pair, sender, word, understanding)
        assert [c is s for c, s in zip(checked, states)] == [
            c is p for c, p in zip(core, pair)]
        # interned languages: == is identity
        assert checked == tuple(KnowledgeState(s.agent, {**s.langs, fact: lang})
                                for s, lang in zip(states, core))
        tells += 1
        grown += core is not pair
        return core

    monkeypatch.setattr(checks, "_tell_fact", both)
    assert check_ck_dynamics(20, 42).status == "pass"
    assert tells > grown > 1_000


def test_ck_dynamics_counts_only_the_languages_it_draws_from(monkeypatch):
    # a grown language is listed when the next draw needs it, and that draw
    # finds a tell, so the last states of a trace are never listed
    listed, told_from = set(), set()

    def listing(lang, depth):
        listed.add(lang)
        return members(lang, depth)

    def telling(pair, sender, word, understanding):
        [pairs] = check_locals("pairs")
        told_from.update(itertools.chain.from_iterable(pairs.values()))
        return _tell_fact(pair, sender, word, understanding)

    monkeypatch.setattr(checks, "members", listing)
    monkeypatch.setattr(checks, "_tell_fact", telling)
    check_ck_dynamics(20, 42)
    assert listed == told_from and len(told_from) > 300


def test_a_draw_reads_no_cache(monkeypatch):
    # ck-dynamics lists each scenario's four start languages once, and after
    # a tell that grew a language, that one language, when a draw follows
    # in the same trace; a draw itself asks no cache
    calls = tells = followed = 0
    grew = False

    def listing(lang, depth):
        nonlocal calls
        calls += 1
        return members(lang, depth)

    def telling(pair, sender, word, understanding):
        nonlocal tells, followed, grew
        tells += 1
        # a draw after a growing tell always finds a tell to make; a
        # trace's first draw, at step 1, follows no tell of its own trace
        [step_index] = check_locals("step_index")
        followed += grew and step_index > 1
        after = _tell_fact(pair, sender, word, understanding)
        grew = after is not pair
        return after

    monkeypatch.setattr(checks, "members", listing)
    monkeypatch.setattr(checks, "_tell_fact", telling)
    report = check_ck_dynamics(100, 42)
    assert report.status == "pass" and followed > 0
    assert calls - 4 * report.scenarios == followed
    # the draws that find no tell call no rule: replayed, each is the
    # first draw of a trace of a scenario whose sides both start empty
    untold, sample = [], sample_tell

    def sampling(*args):
        event = sample(*args)
        if event is None:
            untold.append(at[:3])
        return event

    monkeypatch.setattr(sys.modules[__name__], "sample_tell", sampling)
    for at in replay(100, 42):
        pass
    assert all(not scenario.side_a and not scenario.side_b and prefix == 0
               for scenario, _, prefix in untold)
    # a draw used to ask the cache four times, once per (sender, fact)
    # block: 61,612 calls for these 15,403 draws
    assert (tells, len(untold)) == (15_224, 179) and calls < 2 * tells


def replay(traces, seed, k=None, mutate=None):
    """check_ck_dynamics(traces, seed) replayed from scratch through step on
    whole states: (scenario, trace, prefix, the event that led there or
    None, the pair of states) for every prefix it reaches, in order. Given
    k and mutate, the k-th tell that grows a language is mutated as
    mutant_tell(k, mutate) mutates it in the check."""
    rng = random.Random(seed)
    facts = FACT_POOL[:2]
    grown = 0
    for model in (ModelKind.COMMUNICATION, ModelKind.UNDERSTANDING):
        for side_a, side_b in itertools.product(subsets_of(facts), repeat=2):
            scenario = Scenario.make(facts, side_a, side_b, model)
            for trace_index in range(traces):
                length = rng.randint(0, TRACE_LENGTH)
                states = (initial_state(1, scenario), initial_state(2, scenario))
                event = None
                for step_index in range(length + 1):
                    yield scenario, trace_index, step_index, event, states
                    if step_index == length:
                        break
                    event = sample_tell(*states, facts, rng, SAMPLE_DEPTH)
                    if event is None:
                        break
                    after = step(*states, event, model)
                    if after != states:
                        grown += 1
                        if grown == k:
                            fact = event.message.fact
                            pair = mutate(tuple(s.langs[fact] for s in after),
                                          event.receiver)
                            after = tuple(KnowledgeState(s.agent, {**s.langs, fact: lang})
                                          for s, lang in zip(after, pair))
                    states = after


def growing_tells(traces, seed):
    """Every tell of check_ck_dynamics(traces, seed) that grows a language,
    replayed from scratch: (scenario, trace, the prefix it leads to, event,
    the pair it leads to)."""
    before = None
    for scenario, trace_index, prefix, event, states in replay(traces, seed):
        if prefix and states != before:
            yield scenario, trace_index, prefix, event, states
        before = states


def mutant_tell(k, mutate):
    """The tell rule, except that the k-th tell that grows a language also
    applies mutate to the pair it returns, given the receiver."""
    grown = 0

    def mutant(pair, sender, word, understanding):
        nonlocal grown
        after = _tell_fact(pair, sender, word, understanding)
        if after is pair:
            return after
        grown += 1
        return mutate(after, 3 - sender) if grown == k else after

    return mutant


def all_words_on_both_sides(after, receiver):
    return ALL_WORDS, ALL_WORDS


def cone_at(suffix):
    def add_cone(after, receiver):
        grown = union(after[receiver - 1], cone(suffix))
        return (grown, after[1]) if receiver == 1 else (after[0], grown)
    return add_cone


@pytest.mark.parametrize("k, suffix", [(1, (1,)), (602, (2, 1, 2)), (2289, (1, 1))])
def test_ck_dynamics_sees_a_cone_behind_a_suffix(monkeypatch, k, suffix):
    # only one side holds the cone, and not at the bare fact: no bare fact
    # is common knowledge, yet the scan still sees the cone
    scenario, trace, prefix, event, after = next(
        itertools.islice(growing_tells(20, 42), k - 1, None))
    mutate = cone_at(suffix)
    monkeypatch.setattr(checks, "_tell_fact", mutant_tell(k, mutate))
    report = check_ck_dynamics(20, 42)
    assert not any("common knowledge" in v.witness for v in report.violations)
    fact = event.message.fact
    pair = tuple(s.langs[fact] for s in after)
    held = mutate(pair, event.receiver)[event.receiver - 1]
    words = (w for n in range(len(suffix) + 1)
             for w in itertools.product((1, 2), repeat=n))
    shortest = next(w for w in words if contains_cone(held, w))
    assert report.violations[0] == Violation(
        scenario.describe(),
        f"trace {trace} prefix {prefix}: side {event.receiver}'s language for "
        f"{fact} holds every extension of "
        f"'{format_sentence(Sentence(fact, shortest))}'",
    )


def made_then_taken_back(k):
    """The tell rule, except that the k-th tell that grows a language makes
    both sides of its fact universal, and the next tell of that fact hands
    back the pair the rule had grown there: common knowledge made, then lost."""
    grown, held = 0, None

    def mutant(pair, sender, word, understanding):
        nonlocal grown, held
        if held is not None and pair == (ALL_WORDS, ALL_WORDS):
            back, held = held, None
            return back
        after = _tell_fact(pair, sender, word, understanding)
        if after is pair:
            return after
        grown += 1
        if grown == k:
            held = after
            return ALL_WORDS, ALL_WORDS
        return after

    return mutant


# every violation of check_ck_dynamics(20, 42) under each mutant, in report
# order: the scans of a tell's pair, side 1 first
ONE_COMM = "facts={a,b} side1={} side2={a} model=communication"
VIOLATION_PINS = {
    "both-universal-1": (
        lambda: mutant_tell(1, all_words_on_both_sides),
        [(ONE_COMM, "trace 1 prefix 1: side 1's language for a holds every extension of 'a'")],
    ),
    "cone-602": (
        lambda: mutant_tell(602, cone_at((2, 1, 2))),
        [("facts={a,b} side1={b} side2={} model=communication",
          f"trace 3 prefix {p}: side 1's language for b holds every extension of 'b.2.1.2'")
         for p in (8, 9)],
    ),
    "made-then-lost-194": (
        lambda: made_then_taken_back(194),
        [("facts={a,b} side1={} side2={a,b} model=communication",
          "trace 9 prefix 5: side 1's language for a holds every extension of 'a'")],
    ),
    # the sender is side 1 here; the pair handed back was scanned before
    "sender-made-then-lost-5": (
        lambda: made_then_taken_back(5),
        [(ONE_COMM, "trace 1 prefix 7: side 1's language for a holds every extension of 'a'")],
    ),
}


def both_universal_at(k):
    return mutant_tell(k, all_words_on_both_sides)


# per mutant that makes a bare fact common knowledge at the k-th growing
# tell: k, and where check_ck_dynamics(20, 42) first reports it
CK_MADE = {
    "1": (both_universal_at, 1, ONE_COMM, 1, 1),
    "273": (both_universal_at, 273,
            "facts={a,b} side1={a} side2={} model=communication", 4, 7),
    "1624": (both_universal_at, 1624,
             "facts={a,b} side1={a} side2={a} model=understanding", 16, 5),
    "made-then-lost-194": (made_then_taken_back, 194,
                           "facts={a,b} side1={} side2={a,b} model=communication", 9, 5),
    "made-then-lost-5": (made_then_taken_back, 5, ONE_COMM, 1, 7),
}


@pytest.mark.parametrize("name", CK_MADE)
def test_ck_dynamics_sees_common_knowledge_made_by_a_step(monkeypatch, name):
    # a fact made common knowledge leaves both its languages ALL_WORDS, the
    # whole cone of the bare fact, so the scan of the grown pair reports it
    # at the tell's prefix: the check needs no ck set of its own
    made_at, k, scenario, trace, prefix = CK_MADE[name]
    replayed, r_trace, r_prefix, event, _ = next(
        itertools.islice(growing_tells(20, 42), k - 1, None))
    assert (replayed.describe(), r_trace, r_prefix) == (scenario, trace, prefix)
    monkeypatch.setattr(checks, "_tell_fact", made_at(k))
    report = check_ck_dynamics(20, 42)
    assert report.status == "fail"
    assert not any("common knowledge" in v.witness for v in report.violations)
    fact = event.message.fact
    assert report.violations[0] == Violation(
        scenario,
        f"trace {trace} prefix {prefix}: side 1's language for {fact} holds "
        f"every extension of '{fact}'",
    )


@pytest.mark.parametrize("name", VIOLATION_PINS)
def test_ck_dynamics_reports_every_violation_in_order(monkeypatch, name):
    mutant, pinned = VIOLATION_PINS[name]
    monkeypatch.setattr(checks, "_tell_fact", mutant())
    report = check_ck_dynamics(20, 42)
    assert [(v.scenario, v.witness) for v in report.violations] == pinned


@pytest.mark.parametrize("name", ["both-universal-1", "sender-made-then-lost-5"])
def test_every_draw_lists_the_pairs_the_check_holds(monkeypatch, name):
    # these mutants change the sender's language too, whose block the check
    # must then list again at once: the receiver's waits for the next draw
    mutant = VIOLATION_PINS[name][0]()
    tells = 0

    def telling(pair, sender, word, understanding):
        nonlocal tells
        tells += 1
        pairs, blocks, total = check_locals("pairs", "blocks", "total")
        assert blocks == blocks_of(pairs, SAMPLE_DEPTH)
        assert total == sum(map(len, blocks))
        return mutant(pair, sender, word, understanding)

    monkeypatch.setattr(checks, "_tell_fact", telling)
    assert check_ck_dynamics(20, 42).status == "fail" and tells > 3_000


def walked_prefixes(monkeypatch, traces, seed, rule=_tell_fact):
    """Run check_ck_dynamics(traces, seed) telling by rule, and read its
    walk at every tell from the check's locals: (the report, [((scenario,
    trace, prefix), per-fact pairs)]), where the prefix counts the tells
    made before this one."""
    walked = []

    def telling(pair, sender, word, understanding):
        scenario, trace_index, step_index, pairs = check_locals(
            "scenario", "trace_index", "step_index", "pairs")
        walked.append(((scenario.describe(), trace_index, step_index - 1), dict(pairs)))
        return rule(pair, sender, word, understanding)

    monkeypatch.setattr(checks, "_tell_fact", telling)
    return check_ck_dynamics(traces, seed), walked


@pytest.mark.parametrize("mutate", [None, all_words_on_both_sides, cone_at(())],
                         ids=["plain", "both-universal", "receiver-universal"])
def test_the_per_fact_walk_loses_nothing_against_whole_states(monkeypatch, mutate):
    # at every prefix the check tells at, its pairs are the languages of the
    # replayed states; the mutants of the first growing tell make one or
    # both sides universal. The check tells, in order, at every prefix of a
    # trace but the last, where the trace ends or its draw finds no tell;
    # test_the_checks_tell_by_the_rule_that_step_guards checks the pairs a
    # trace's last tell leads to.
    k = mutate and 1
    rule = mutant_tell(k, mutate) if mutate else _tell_fact
    report, walked = walked_prefixes(monkeypatch, 20, 42, rule)
    replayed = {(scenario.describe(), trace, prefix): pairs_of(*states, scenario.facts)
                for scenario, trace, prefix, _, states in replay(20, 42, k, mutate)}
    keys = list(replayed)
    inner = [key for key, after in zip(keys, keys[1:]) if key[:2] == after[:2]]
    assert [key for key, _ in walked] == inner
    for key, pairs in walked:
        assert pairs == replayed[key]
    assert len(walked) > 3_000
    assert report.status == ("fail" if mutate else "pass")
