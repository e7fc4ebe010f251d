"""The knowtell benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload check-default --seed 1 --seconds 55 --trace 0

Rounds run one after another, each in a fresh single-threaded worker
process (worker.py), and no round starts that would end after --seconds;
every round's inputs come from the seed and the round number. Each round
checks every answer the engine gives. Between workers this process times
a speed probe, a fixed piece of pure-Python work that never touches
knowtell, and the reported times are rescaled by the speed it shows (see
machine_probe). The run prints a readable summary, then, as its last
line, one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1). A traced run alternates untraced and
traced rounds on the same inputs, which gives the tracing overhead.

Exit code 0 when the run completed, whether or not every answer was
correct (see "correct" and "failed"); 1 when a worker could not run, for
example because the checkout has no src/knowtell.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import session

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = ("check-default", "trace-session")
MIN_ROUNDS = 3
SETUP_SAMPLES = 5
# a run must end within 180 s; no worker may start a wait beyond this
RUN_LIMIT_S = 170

# A fixed probe time that counts as speed 1: the probe's median in the first
# runs on the machine where baseline.json was recorded (over the baseline
# runs it was 0.07 to 0.11 s). Only its being constant matters.
REF_PROBE_S = 0.125

END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "checks.ck-dynamics_s": "s",
    "checks.fixpoint-stability_s": "s",
    "checks.oracle-equivalence_s": "s",
    "checks.language-equivalence_s": "s",
    "checks.success-theorems_s": "s",
    "checks.events_per_step": "ratio",
    "sentences.built": "count",
    "sentences.self_s": "s",
    "oracle.bounded_closure_s": "s",
    "oracle.closure_sentences": "count",
    "oracle.self_s": "s",
    "langs.enumerate_words_calls": "count",
    "langs.enumerate_words_s": "s",
    "automata.self_s": "s",
    "automata.canonical_calls": "count",
    "automata.states_minimized": "count",
    "automata.product_calls": "count",
    "automata.determinize_calls": "count",
    "langs.union_calls": "count",
    "langs.union_s": "s",
    "langs.self_s": "s",
    "dynamics.step_calls": "count",
    "dynamics.step_s": "s",
    "langs.interned": "count",
    "langs.interned_states": "count",
    "langs.cache_hit_ratio": "ratio",
    "states.knows_s": "s",
    "states.common_knowledge_calls": "count",
    "states.common_knowledge_s": "s",
    "states.self_s": "s",
    "langs.subset_s": "s",
    "dynamics.saturate_calls": "count",
    "dynamics.saturate_s": "s",
    "dynamics.self_s": "s",
    "regexes.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# "smoke" is a tiny size of each workload for the benchmark's own tests.
SIZES = {
    "full": {"tells": 1000, "max_facts": 3, "check_args": []},
    "smoke": {"tells": 20, "max_facts": 1,
              "check_args": ["--max-facts", "1", "--traces", "2", "--depth", "3"]},
}

class WorkerError(RuntimeError):
    """A worker process failed or produced no result."""


def make_job(workload: str, seed: int, index: int, size: dict) -> dict:
    """The inputs of round `index`; the same seed and index give the same job."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "check-default":
        return {"cli_seed": rng.randrange(2**31), "max_facts": size["max_facts"],
                "extra_args": size["check_args"]}
    return {"sessions": session.make_sessions(rng, size["tells"])}


def machine_probe() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work
    that never touches knowtell: building 60,000 small frozensets,
    indexing them in a dict, and building a set of tuples.

    The single-thread speed of a shared host drifts, by 2x and more over
    tens of seconds, with what its other tenants run. Each worker's times
    are rescaled by REF_PROBE_S / (the mean of the probes just before and
    just after it), which cancels most of that drift. The probe builds a
    working set of a few MB, as a round does, so the two slow down alike
    when other tenants crowd the CPU's caches. It runs here and not in the
    worker, so it adds nothing to the worker's memory, and with the
    collector off, so its time does not depend on this process's heap.
    """
    gc.disable()
    started = time.perf_counter()
    items = [frozenset(((i % 251, i % 7), (i % 13,), i % 1009))
             for i in range(60_000)]
    index: dict = {}
    for position, item in enumerate(items):
        index.setdefault(item, []).append(position)
    sum(1 for item in items if item in index)  # look each one up again
    words = {(i % 3, i % 5, i % 11, i % 17) for i in range(80_000)}
    seconds = time.perf_counter() - started
    del items, index, words
    gc.enable()
    return seconds


class Rounds:
    """Workers run one after another, with a speed probe between two."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        # Each CPU of a shared host drifts on its own, so the probe tells
        # about the worker only when both run on the same CPU. Workers
        # inherit this process's CPU set.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        machine_probe()  # warm-up: the first probe also grows the heap
        self.probes = [machine_probe()]

    def run(self, job: dict, hash_seed: int) -> dict:
        result = run_worker(job, hash_seed, self.deadline)
        self.probes.append(machine_probe())
        result["probe_s"] = (self.probes[-2] + self.probes[-1]) / 2
        result["speed"] = REF_PROBE_S / result["probe_s"]
        return result


def run_worker(job: dict, hash_seed: int, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before the round could start")
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    # The first worker writes the bytecode cache, as installing the package
    # would, so set-up never includes compiling it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)], input=json.dumps(job),
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(
            f"worker exited {proc.returncode}: {proc.stderr.strip() or 'no output'}"
        )
    return json.loads(lines[-1])


def percentile(sorted_values: list[float], share: float) -> float:
    return sorted_values[round(share * (len(sorted_values) - 1))]


def session_summary(rounds: list[dict]) -> str:
    """Latency of single tells and queries, pooled over the untraced rounds."""
    tells = sorted(t for r in rounds for t in r["tell_s"])
    queries = sorted(q for r in rounds for q in r["query_s"])
    return (
        f"tells_per_s={len(tells) / sum(tells):.1f} 1/s "
        f"tell_p50_us={percentile(tells, 0.5) * 1e6:.1f} us "
        f"tell_p99_us={percentile(tells, 0.99) * 1e6:.1f} us "
        f"query_p50_us={percentile(queries, 0.5) * 1e6:.1f} us "
        f"query_p99_us={percentile(queries, 0.99) * 1e6:.1f} us "
        f"(tells={len(tells)}, queries={len(queries)})"
    )


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              size: dict) -> dict:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    # The first import compiles the package's bytecode and fails fast when
    # the checkout has no src/knowtell; it is not counted. The next ones
    # add set-up samples, which are short and noisy.
    run_worker({"workload": "import"}, 0, deadline)
    rounds = Rounds(deadline)
    setups = [rounds.run({"workload": "import"}, i)
              for i in range(1, SETUP_SAMPLES + 1)]
    untraced, traced = [], []
    spans_path = OUT / f"{workload}-seed{seed}.spans.json"
    if trace:
        OUT.mkdir(exist_ok=True)
    steps = []
    index = 0
    while True:
        step_started = time.monotonic()
        job = make_job(workload, seed, index, size)
        job.update(workload=workload, trace=False)
        hash_seed = (seed * 1000 + index) % 2**32
        untraced.append(rounds.run(job, hash_seed))
        if trace:
            job.update(trace=True, spans_path=str(spans_path))
            traced.append(rounds.run(job, hash_seed))
        index += 1
        now = time.monotonic()
        steps.append(now - step_started)
        # Start no round that would end after --seconds, so that a run
        # measures for --seconds whatever the length of its rounds.
        if ((trace or len(untraced) >= MIN_ROUNDS)
                and now - started + statistics.median(steps) > seconds):
            break

    attempted = sum(r["attempted"] for r in untraced + traced)
    failed = sum(r["failed"] for r in untraced + traced)

    def median(rs, key, rescaled=False):
        return statistics.median(
            r[key] * (r["speed"] if rescaled else 1) for r in rs)

    end_to_end = {
        "setup_s": median(setups + untraced, "setup_s", rescaled=True),
        "wall_ref_s": median(untraced, "wall_s", rescaled=True),
        "peak_rss_mb": median(untraced, "peak_rss_mb"),
    }
    lines = [
        f"{workload} seed={seed} rounds={len(untraced)} untraced"
        + (f", {len(traced)} traced" if trace else ""),
        " ".join(f"{name}={value:.4g} {END_TO_END[name]}"
                 for name, value in end_to_end.items())
        + f" fail_ratio={failed / attempted:.4g} ({failed}/{attempted})",
        f"probe median {statistics.median(rounds.probes):.4g} s over"
        f" {len(rounds.probes)}, unscaled: setup_s="
        f"{median(setups + untraced, 'setup_s'):.4g} s"
        f" wall_s={median(untraced, 'wall_s'):.4g} s",
        "wall_s,probe_s per untraced round: "
        + " ".join(f"{r['wall_s']:.4g},{r['probe_s']:.4g}" for r in untraced),
        "setup_s,probe_s per import: "
        + " ".join(f"{r['setup_s']:.4g},{r['probe_s']:.4g}" for r in setups),
    ]
    if workload == "trace-session":
        lines.append(session_summary(untraced))
    if trace:
        values = {
            name: statistics.median(
                r["layers"][name] * (r["speed"] if unit == "s" else 1)
                for r in traced)
            for name, unit in PER_LAYER.items() if name != "trace.overhead_ratio"
        }
        values["trace.overhead_ratio"] = (
            median(traced, "wall_s") / median(untraced, "wall_s"))
        units = PER_LAYER
        lines.append(f"spans of the last traced round: {spans_path.relative_to(ROOT)}")
    else:
        values, units = end_to_end, END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    return {"lines": lines, "result": {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)
    try:
        outcome = benchmark(args.workload, args.seed, args.seconds,
                            bool(args.trace), SIZES[args.size])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in outcome["lines"]:
        print(line)
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
