"""Tests of the benchmark itself, at the smoke size of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import session
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

kt = worker.import_knowtell()


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_is_correct_and_reports_end_to_end(workload):
    result = result_of(bench("--workload", workload, "--seed", "3",
                             "--trace", "0", "--size", "smoke"))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_reports_every_layer_metric():
    result = result_of(bench("--workload", "trace-session", "--seed", "3",
                             "--trace", "1", "--size", "smoke"))
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == run.PER_LAYER
    assert metrics["dynamics.step_calls"]["value"] == 2 * run.SIZES["smoke"]["tells"]
    assert metrics["checks.events_per_step"]["value"] == 1.0
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["automata.self_s"]["value"] > 0


def test_speed_probe_times_its_work_and_turns_the_collector_back_on():
    assert run.machine_probe() > 0
    assert gc.isenabled()


def test_session_inputs_are_reproducible_from_the_seed():
    first = session.make_sessions(random.Random(7), 30)
    assert first == session.make_sessions(random.Random(7), 30)
    assert first != session.make_sessions(random.Random(8), 30)


def test_session_references_agree_with_an_independent_replay():
    for data in session.make_sessions(random.Random(5), 40):
        scenario = kt.states.Scenario.make(data["facts"], data["side_a"],
                                           data["side_b"], data["model"])
        events = [kt.dynamics.TellEvent(sender, 3 - sender,
                                        kt.sentences.parse_sentence(text))
                  for sender, text in data["tells"]]
        state_a, state_b = kt.dynamics.run_trace(scenario, events)
        # answers after the last tell, for every sentence of depth <= 4
        knowledge = session.Knowledge()
        for sender, text in data["tells"]:
            fact, *marks = text.split(".")
            word = session.EMPTY_WORD
            for mark in marks:
                word = session.append(word, int(mark))
            knowledge.tell(sender, fact, word, data["model"] == "understanding")
        for side, state in ((1, state_a), (2, state_b)):
            for fact in session.FACTS:
                for word in range(1, 1 << 5):
                    sentence = kt.sentences.parse_sentence(
                        session.sentence_text(fact, word))
                    assert kt.states.knows(state, sentence) == \
                        knowledge.knows(side, fact, word)


def test_gate_counts_a_wrong_reference_as_a_failure():
    data = session.make_sessions(random.Random(9), 10)[0]
    scenario = kt.states.Scenario.make(data["facts"], data["side_a"],
                                       data["side_b"], data["model"])
    assert worker.replay_session(kt, data, scenario)["failed"] == 0
    data["knows"][4][2] = not data["knows"][4][2]
    data["ck"][6][1] = True
    # nobody ever holds fact c, so this last tell is refused
    data["tells"][9] = [2, "c"]
    data["knows"][9] = [1, "c", False]
    assert worker.replay_session(kt, data, scenario)["failed"] == 3


def test_gate_rejects_a_failed_or_incomplete_check_report():
    report = [{"check": name, "scenarios": count, "status": "pass"}
              for name, count in worker.expected_scenarios(3).items()]
    assert worker.gate_check_report(json.dumps(report), 3) == (5, 0)
    report[1]["status"] = "fail"
    report[2]["scenarios"] -= 1
    assert worker.gate_check_report(json.dumps(report), 3) == (5, 2)
    assert worker.gate_check_report(json.dumps(report[:4]), 3) == (5, 3)


def test_tracer_counts_spans_and_restores_every_binding():
    from tracer import Tracer

    def bindings():
        return {
            (name, attr): value
            for name, module in sys.modules.items() if name.startswith("knowtell")
            for attr, value in vars(module).items()
        }

    before = bindings()
    methods = (kt.sentences.Sentence.__init__, kt.automata.Dfa.accepts)
    scenario = kt.states.Scenario.make(["q"], ["q"], [], "understanding")
    with Tracer() as tracer:
        assert kt.oracle.compare_symbolic(scenario, 3).ok
    assert bindings() == before
    assert (kt.sentences.Sentence.__init__, kt.automata.Dfa.accepts) == methods
    assert tracer.calls["oracle.compare_symbolic"] == 1
    assert tracer.calls["oracle.bounded_closure"] == 1
    assert tracer.counts["oracle.closure_sentences"] > 0
    own = sum(tracer.layer_self.values())
    assert own == pytest.approx(tracer.inclusive["oracle.compare_symbolic"])


def test_a_checkout_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "check-default", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
