"""One round of one workload in a fresh process.

Reads a job (JSON) on stdin, imports knowtell from the checkout's ``src``,
runs the round, checks every answer, and prints one JSON result line.
run.py starts one of these per round, one at a time, so every round
starts with cold engine caches, as a new CLI invocation or library
session does.

    python3 perfbench/worker.py < job.json
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def import_knowtell():
    """The package from this checkout's src, never an installed copy."""
    if not (SRC / "knowtell" / "__init__.py").is_file():
        raise SystemExit(f"error: no knowtell package under {SRC}")
    sys.path.insert(0, str(SRC))
    import knowtell
    import knowtell.cli  # noqa: F401  (imports every layer)

    if Path(knowtell.__file__).resolve().parent != SRC / "knowtell":
        raise SystemExit(f"error: imported knowtell from {knowtell.__file__}")
    return knowtell


def expected_scenarios(max_facts: int) -> dict[str, int]:
    """Scenario counts of each check in `knowtell check` for --max-facts."""
    grid = sum(4 ** size for size in range(1, max_facts + 1))
    return {
        "language-equivalence": grid,
        "ck-dynamics": 32,  # 2 models x 4 x 4 subset pairs over two facts
        "success-theorems": max_facts + grid,
        "fixpoint-stability": 10,
        "oracle-equivalence": 2 * grid,
    }


def gate_check_report(text: str, max_facts: int) -> tuple[int, int]:
    """(attempted, failed) over the checks of a `check --format json` report:
    every check must pass, and each of the five known checks must be there
    and cover the expected number of scenarios."""
    expected = expected_scenarios(max_facts)
    reports = {entry["check"]: entry for entry in json.loads(text)}
    names = set(reports) | set(expected)
    failed = sum(
        1 for name in names
        if name not in reports or reports[name]["status"] != "pass"
        or reports[name]["scenarios"] != expected.get(name, reports[name]["scenarios"])
    )
    return len(names), failed


def run_check_default(kt, job: dict, scenarios: list) -> dict:
    args = ["check", "--format", "json", "--seed", str(job["cli_seed"])]
    args += job["extra_args"]
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = kt.cli.main(args)
    wall = time.perf_counter() - started
    attempted, failed = gate_check_report(out.getvalue(), job["max_facts"])
    # the exit code counts as one more answer
    return {"wall_s": wall, "attempted": attempted + 1,
            "failed": failed + (code != 0)}


def replay_session(kt, session: dict, scenario) -> dict:
    """Replay one session, timing each tell and each query on its own."""
    parse = kt.sentences.parse_sentence
    dynamics, states = kt.dynamics, kt.states
    state_a = states.initial_state(1, scenario)
    state_b = states.initial_state(2, scenario)
    tell_s, query_s = [], []
    failed = 0
    clock = time.perf_counter
    for (sender, message), (side, k_text, k_expected), (ck_text, ck_expected) in zip(
            session["tells"], session["knows"], session["ck"]):
        t0 = clock()
        try:
            event = dynamics.TellEvent(sender, 3 - sender, parse(message))
            state_a, state_b = dynamics.step(state_a, state_b, event,
                                             scenario.model)
        except dynamics.TellError:
            failed += 1
        t1 = clock()
        answer = states.knows(state_a if side == 1 else state_b, parse(k_text))
        t2 = clock()
        ck = states.common_knowledge(state_a, state_b, parse(ck_text))
        t3 = clock()
        tell_s.append(t1 - t0)
        query_s += (t2 - t1, t3 - t2)
        failed += (answer != k_expected) + (ck != ck_expected)
    return {"tell_s": tell_s, "query_s": query_s, "failed": failed,
            "attempted": 3 * len(tell_s)}


def run_trace_session(kt, job: dict, scenarios: list) -> dict:
    started = time.perf_counter()
    results = [replay_session(kt, session, scenario)
               for session, scenario in zip(job["sessions"], scenarios)]
    wall = time.perf_counter() - started
    return {
        "wall_s": wall,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "tell_s": [t for r in results for t in r["tell_s"]],
        "query_s": [q for r in results for q in r["query_s"]],
    }


def engine_counters(kt) -> dict:
    """Engine state read from outside: the intern table and the lru caches
    defined in langs and dynamics."""
    interned = kt.langs.Lang._interned
    hits = misses = 0
    for module in (kt.langs, kt.dynamics):
        for value in vars(module).values():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                info = value.cache_info()
                hits += info.hits
                misses += info.misses
    return {
        "langs.interned": len(interned),
        "langs.interned_states": sum(len(dfa.delta) for dfa in interned),
        "langs.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process. VmHWM belongs to the address
    space the process got at exec; ru_maxrss may also count the parent's
    pages when the process was started by vfork, as subprocess does."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tracer) -> dict:
    """The per-layer metrics of BENCHMARK.json that come from the spans."""
    calls, inclusive, own = tracer.calls, tracer.inclusive, tracer.layer_self
    steps = calls["dynamics.step"]
    metrics = {
        f"checks.{name}_s": inclusive[f"checks.{function}"]
        for name, function in (
            ("ck-dynamics", "check_ck_dynamics"),
            ("fixpoint-stability", "check_fixpoint_stability"),
            ("oracle-equivalence", "check_oracle_equivalence"),
            ("language-equivalence", "check_language_equivalence_props"),
            ("success-theorems", "check_success_theorems"),
        )
    }
    metrics.update({
        "checks.events_per_step": calls["dynamics.TellEvent.__init__"] / steps if steps else 0.0,
        "sentences.built": calls["sentences.Sentence.__init__"],
        "oracle.bounded_closure_s": inclusive["oracle.bounded_closure"],
        "oracle.closure_sentences": tracer.counts["oracle.closure_sentences"],
        "langs.enumerate_words_calls": calls["langs.enumerate_words"],
        "langs.enumerate_words_s": inclusive["langs.enumerate_words"],
        "automata.canonical_calls": calls["automata.canonical_dfa"],
        "automata.states_minimized": tracer.counts["automata.states_minimized"],
        "automata.product_calls": calls["automata.product_dfa"],
        "automata.determinize_calls": calls["automata.determinize"],
        "langs.union_calls": calls["langs.union"],
        "langs.union_s": inclusive["langs.union"],
        "dynamics.step_calls": steps,
        "dynamics.step_s": inclusive["dynamics.step"],
        "states.knows_s": inclusive["states.knows"],
        "states.common_knowledge_calls": calls["states.common_knowledge"],
        "states.common_knowledge_s": inclusive["states.common_knowledge"],
        "langs.subset_s": inclusive["langs.subset"],
        "dynamics.saturate_calls": calls["dynamics.saturate"],
        "dynamics.saturate_s": inclusive["dynamics.saturate"],
    })
    metrics.update({f"{layer}.self_s": seconds for layer, seconds in own.items()})
    return metrics


def make_scenarios(kt, workload: str, job: dict) -> list:
    """The program set-up a workload does before its first timed call."""
    make = kt.states.Scenario.make
    if workload == "trace-session":
        return [make(s["facts"], s["side_a"], s["side_b"], s["model"])
                for s in job["sessions"]]
    return []


RUNS = {
    "check-default": run_check_default,
    "trace-session": run_trace_session,
}


def main() -> int:
    job = json.load(sys.stdin)
    started = time.perf_counter()
    kt = import_knowtell()
    workload = job["workload"]
    scenarios = make_scenarios(kt, workload, job)
    setup = time.perf_counter() - started
    if workload == "import":
        print(json.dumps({"setup_s": setup}))
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        with Tracer() as tracer:
            result = RUNS[workload](kt, job, scenarios)
        tracer.write(job["spans_path"])
    else:
        result = RUNS[workload](kt, job, scenarios)
    result["setup_s"] = setup
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        result["layers"] = {**layer_metrics(tracer), **engine_counters(kt)}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
