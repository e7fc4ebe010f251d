import dataclasses
import itertools
import random

import pytest

from knowtell.checks import (
    FACT_POOL,
    STABILITY_SCENARIOS,
    CheckConfig,
    _sample_tell,
    check_ck_dynamics,
    check_fixpoint_stability,
    check_language_equivalence_props,
    check_oracle_equivalence,
    check_success_theorems,
    run_all_checks,
    scenario_grid,
    subsets_of,
)
from knowtell.dynamics import TellEvent, saturate, step
from knowtell.sentences import Sentence
from knowtell.states import ModelKind, Scenario, initial_state


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
    reports = run_all_checks(
        CheckConfig(max_facts=2, depth=4, traces=5,
                    disable_understanding=True)
    )
    by_name = {r.name: r for r in reports}
    assert by_name["success-theorems"].status == "fail"
    assert by_name["success-theorems"].violations
    witness = by_name["success-theorems"].violations[0]
    assert "understanding" in witness.scenario
    for name, report in by_name.items():
        if name != "success-theorems":
            assert report.status == "pass", name


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
        event = _sample_tell(state_a, state_b, facts, fast, depth)
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
                    event = _sample_tell(state_a, state_b, facts, rng, 3)
                    if event is None:
                        break
                    state_a, state_b = step(state_a, state_b, event, model)


def test_sampler_matches_reference_on_saturated_states():
    for facts, side_a, side_b, model in STABILITY_SCENARIOS:
        result = saturate(Scenario.make(facts, side_a, side_b, model))
        assert_samplers_agree(result.state_a, result.state_b, facts,
                              len(facts), 5, 20)
