"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line (run with ``pytest -s`` to stream them) and holding its
runtime budget."""

import time

from knowtell.checks import (
    check_ck_dynamics,
    check_fixpoint_stability,
    scenario_grid,
    subsets_of,
)
from knowtell.cli import main
from knowtell.dynamics import TellError, TellEvent, saturate, step
from knowtell.langs import from_regex
from knowtell.oracle import compare_symbolic
from knowtell.sentences import Sentence, parse_sentence
from knowtell.states import (
    ModelKind,
    Scenario,
    common_knowledge,
    initial_state,
    language_equal,
    project_success,
)

FACTS = ("a", "b", "c")


class _Criterion:
    """Prints 'criterion N PASS/FAIL: ...' whichever way the body ends."""

    def __init__(self, number: int, description: str, budget: float):
        self.number = number
        self.description = description
        self.budget = budget
        self.started = 0.0

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > self.budget

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number} {verdict} "
              f"({elapsed:.2f}s / {self.budget:.0f}s): {self.description}")
        return False


def test_criterion_1_worked_example_exact():
    with _Criterion(1, "saturation reproduces the two-sided worked example "
                       "exactly", budget=1.0) as c:
        scenario = Scenario.make(FACTS, ["a"], ["b"], "communication")
        result = saturate(scenario)
        assert result.state_a.langs["a"] == from_regex("e|1(1|2)*")
        assert result.state_a.langs["a"] == from_regex("1*(12+1*)*")
        assert result.state_a.langs["b"] == from_regex("2(1|2)*")
        assert result.state_a.langs["c"] == from_regex("0")
        assert result.state_b.langs["b"] == from_regex("e|2(1|2)*")
        assert result.state_b.langs["a"] == from_regex("1(1|2)*")
        assert result.state_b.langs["c"] == from_regex("0")
        assert not c.over_budget()


def test_criterion_2_equivalence_biconditional():
    with _Criterion(2, "languages equal exactly when both sides start from "
                       "the same facts, over every subset pair",
                    budget=10.0) as c:
        checked = 0
        for scenario in scenario_grid(3, ModelKind.COMMUNICATION):
            result = saturate(scenario)
            equal = language_equal(result.state_a, result.state_b)
            assert equal == (scenario.side_a == scenario.side_b), (
                scenario.describe()
            )
            checked += 1
        assert checked == 84
        assert not c.over_budget()


def test_criterion_3_equal_fact_sets_succeed():
    with _Criterion(3, "full coverage on both sides guarantees success "
                       "under communication alone", budget=5.0) as c:
        for size in (1, 2, 3):
            facts = FACTS[:size]
            scenario = Scenario.make(facts, facts, facts, "communication")
            result = saturate(scenario)
            assert language_equal(result.state_a, result.state_b)
            assert project_success(result.state_a, result.state_b, scenario)
        assert not c.over_budget()


def test_criterion_4_joint_coverage_succeeds_with_understanding():
    with _Criterion(4, "joint coverage under full understanding gives equal "
                       "languages, common knowledge of every fact, and "
                       "success", budget=10.0) as c:
        for size in (1, 2, 3):
            facts = FACTS[:size]
            for side_a in subsets_of(facts):
                for side_b in subsets_of(facts):
                    if not set(side_a) | set(side_b) >= set(facts):
                        continue
                    scenario = Scenario.make(facts, side_a, side_b,
                                             "understanding")
                    result = saturate(scenario)
                    assert language_equal(result.state_a, result.state_b), (
                        scenario.describe()
                    )
                    for fact in facts:
                        assert common_knowledge(
                            result.state_a, result.state_b, Sentence(fact)
                        ), (scenario.describe(), fact)
                    assert project_success(
                        result.state_a, result.state_b, scenario
                    ), scenario.describe()
        assert not c.over_budget()


def test_criterion_5_ck_conserved_on_finite_traces():
    with _Criterion(5, "common knowledge of basic facts is never obtained "
                       "and never lost along seeded finite traces",
                    budget=10.0) as c:
        report = check_ck_dynamics(traces=100, seed=42)
        assert report.scenarios == 32
        assert report.violations == ()
        assert not c.over_budget()


def test_criterion_6_oracle_equivalence():
    with _Criterion(6, "bounded brute-force closure equals the enumerated "
                       "saturated languages at depth 5, all scenarios, both "
                       "models", budget=60.0) as c:
        checked = 0
        for model in (ModelKind.COMMUNICATION, ModelKind.UNDERSTANDING):
            for scenario in scenario_grid(3, model):
                report = compare_symbolic(scenario, 5)
                assert report.ok, (scenario.describe(), report.mismatches[:1])
                checked += 1
        assert checked == 168
        assert not c.over_budget()


def test_criterion_7_fixpoint_stability():
    with _Criterion(7, "sampled tells against saturated states change "
                       "nothing", budget=10.0) as c:
        report = check_fixpoint_stability()
        assert report.scenarios == 10
        assert report.violations == ()
        assert not c.over_budget()


def test_criterion_8_guards_and_mutation(capsys):
    with _Criterion(8, "untruthful tells fail loudly; the check command "
                       "exits 0 clean and 1 under the mutation fixture",
                    budget=60.0):
        scenario = Scenario.make(FACTS, ["a"], ["b"], "communication")
        state_a = initial_state(1, scenario)
        state_b = initial_state(2, scenario)
        try:
            step(state_a, state_b, TellEvent(1, 2, parse_sentence("b")),
                 scenario.model)
            raise AssertionError("untruthful tell was accepted")
        except TellError as exc:
            assert "does not know" in str(exc)

        assert main(["check"]) == 0
        capsys.readouterr()
        assert main(["check", "--mutate", "no-understanding"]) == 1
        out = capsys.readouterr().out
        assert "FAIL success-theorems" in out
        assert "understanding" in out
