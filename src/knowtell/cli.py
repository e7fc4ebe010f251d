"""Command-line surface: scenario and trace files in, saturation results,
queries, theorem reports, DOT graphs, and an interactive shell out.

Exit codes: 0 all pass, 1 any violation or mismatch, 2 usage error,
3 invalid input (unreadable or non-UTF-8 file, bad JSON, bad scenario, bad
trace, bad query).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .checks import FACT_POOL, CheckConfig, CheckReport, run_all_checks
from .dynamics import (
    TellError,
    TellEvent,
    TraceError,
    run_trace,
    saturate,
    step,
)
from .langs import MAX_ORACLE_DEPTH, _require_count, to_dot
from .oracle import compare_symbolic
from .regexes import RegexError
from .sentences import Sentence, SentenceError, parse_sentence
from .states import (
    KnowledgeState,
    Scenario,
    ScenarioError,
    UnknownFactError,
    common_knowledge,
    initial_state,
    knows,
    known_facts,
    language_equal,
    project_success,
)

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3


class InputError(ValueError):
    """Unreadable or malformed input file; message is path-qualified."""


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario file.

    The document is an object {"facts": [...], "side_a": [...],
    "side_b": [...], "model": "communication"|"understanding"}.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    for key in ("facts", "side_a", "side_b", "model"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    for key in ("facts", "side_a", "side_b"):
        value = doc[key]
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise InputError(f"{path}: {key} must be an array of fact names")
    try:
        return Scenario.make(doc["facts"], doc["side_a"], doc["side_b"], doc["model"])
    except (ScenarioError, SentenceError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def load_trace(path: str) -> list[TellEvent]:
    """Read a trace file: a JSON array of {"from": 1|2, "to": 1|2, "msg": text}.

    Messages are checked syntactically here; whether each tell is truthful
    is only known once the trace runs.
    """
    doc = _read_json(path)
    if not isinstance(doc, list):
        raise InputError(f"{path}: expected a JSON array of tell events")
    events = []
    for index, item in enumerate(doc):
        where = f"{path}: [{index}]"
        if not isinstance(item, dict):
            raise InputError(f"{where}: expected an object")
        for key in ("from", "to", "msg"):
            if key not in item:
                raise InputError(f"{where}: missing field {key!r}")
        try:
            message = parse_sentence(item["msg"])
            events.append(TellEvent(item["from"], item["to"], message))
        except (SentenceError, TellError) as exc:
            raise InputError(f"{where}: {exc}") from exc
    return events


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except RecursionError:
        raise InputError(f"{path}: bad JSON: nested too deeply") from None
    except ValueError as exc:  # a decode error, or an integer too long to convert
        raise InputError(f"{path}: bad JSON: {exc}") from exc


def emit_report(reports: Sequence[CheckReport], fmt: str = "text") -> str:
    """Serialize check reports; identical reports give identical bytes."""
    if fmt == "json":
        payload = [
            {
                "check": r.name,
                "scenarios": r.scenarios,
                "violations": [
                    {"scenario": v.scenario, "witness": v.witness}
                    for v in r.violations
                ],
                "notes": list(r.notes),
                "status": r.status,
                "millis": r.millis,
            }
            for r in reports
        ]
        return json.dumps(payload, indent=2)
    lines = []
    for r in reports:
        lines.append(
            f"{r.status.upper():4s} {r.name}  "
            f"(scenarios={r.scenarios}, millis={r.millis})"
        )
        for v in r.violations:
            lines.append(f"     violation: {v.scenario}")
            lines.append(f"                {v.witness}")
        for note in r.notes:
            lines.append(f"     note: {note}")
    failed = sum(1 for r in reports if r.status != "pass")
    lines.append(
        "all checks passed" if not failed else f"{failed} check(s) failed"
    )
    return "\n".join(lines)


def _knows_line(scenario: Scenario, state: KnowledgeState) -> str:
    bare = known_facts(state)
    shown = ", ".join(f for f in scenario.facts if f in bare) or "(none)"
    return f"side {state.agent} knows: {shown}"


def _summary_lines(scenario: Scenario, state_a: KnowledgeState,
                   state_b: KnowledgeState) -> list[str]:
    ck = [f for f in scenario.facts
          if common_knowledge(state_a, state_b, Sentence(f))]
    return [
        f"model: {scenario.model.value}",
        f"facts: {', '.join(scenario.facts) or '(none)'}",
        _knows_line(scenario, state_a),
        _knows_line(scenario, state_b),
        f"languages equal: {str(language_equal(state_a, state_b)).lower()}",
        f"common knowledge: {', '.join(ck) or '(none)'}",
        f"project success: {str(project_success(state_a, state_b, scenario)).lower()}",
    ]


def _cmd_check(args) -> int:
    config = CheckConfig(
        max_facts=args.max_facts,
        depth=args.depth,
        traces=args.traces,
        seed=args.seed,
        disable_understanding=args.mutate == "no-understanding",
    )
    reports = run_all_checks(config)
    print(emit_report(reports, args.format))
    return EXIT_PASS if all(r.status == "pass" for r in reports) else EXIT_VIOLATIONS


def _selected(scenario: Scenario, args) -> list[tuple[int, str]]:
    sides = (args.side,) if args.side else (1, 2)
    facts = (args.fact,) if args.fact else scenario.facts
    return [(side, fact) for side in sides for fact in facts]


def _cmd_saturate(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.fact is not None and args.fact not in scenario.facts:
        raise InputError(f"fact {args.fact!r} is not part of the scenario")
    chosen = _selected(scenario, args)
    if args.emit_dot and len(chosen) != 1:
        raise InputError(
            "--emit-dot needs exactly one acceptor; pass --fact and --side"
        )
    result = saturate(scenario)
    if args.emit_dot:  # written before any output, so an unwritable path prints nothing
        (side, fact), = chosen
        lang = (result.state_a, result.state_b)[side - 1].langs[fact]
        with open(args.emit_dot, "w", encoding="utf-8") as dot_file:
            dot_file.write(to_dot(lang, name=f"side{side}_{fact}"))
    for line in _summary_lines(scenario, result.state_a, result.state_b):
        print(line)
    if args.emit_regex:
        for side, fact in chosen:
            print(f"side {side} fact {fact}: {result.regexes[side][fact]}")
    if args.emit_dot:
        print(f"wrote {args.emit_dot}")
    return EXIT_PASS


def _answer(words: Sequence[str], state_a: KnowledgeState,
            state_b: KnowledgeState) -> str | None:
    """"true" or "false" for "knows SIDE SENTENCE" or "ck SENTENCE"; None
    when the words are not a query. SentenceError and UnknownFactError
    propagate."""
    match words:
        case ["knows", "1" | "2" as side, text]:
            answer = knows(state_a if side == "1" else state_b, parse_sentence(text))
        case ["ck", text]:
            answer = common_knowledge(state_a, state_b, parse_sentence(text))
        case _:
            return None
    return str(answer).lower()


def _cmd_trace(args) -> int:
    scenario = load_scenario(args.scenario)
    events = load_trace(args.trace)
    state_a, state_b = run_trace(scenario, events)
    if not args.query:
        for line in _summary_lines(scenario, state_a, state_b):
            print(line)
    for query in args.query or ():
        try:
            answer = _answer(query.split(), state_a, state_b)
        except (SentenceError, UnknownFactError) as exc:
            raise InputError(f"query {query!r}: {exc}") from exc
        if answer is None:
            raise InputError(f"bad query {query!r}: want \"knows SIDE SENTENCE\" "
                             "or \"ck SENTENCE\"")
        print(answer)
    return EXIT_PASS


def _cmd_oracle_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    report = compare_symbolic(scenario, args.depth)
    print(f"scenario: {scenario.describe()}")
    print(f"depth: {report.depth}")
    if report.ok:
        print("zero mismatches")
        return EXIT_PASS
    for m in report.mismatches:
        print(f"mismatch side {m.agent} fact {m.fact}:")
        if m.only_symbolic:
            print(f"  symbolic only: {', '.join(m.only_symbolic)}")
        if m.only_bounded:
            print(f"  bounded only: {', '.join(m.only_bounded)}")
    return EXIT_VIOLATIONS


def _cmd_repl(args) -> int:
    scenario = load_scenario(args.scenario)
    state_a = initial_state(1, scenario)
    state_b = initial_state(2, scenario)
    interactive = sys.stdin.isatty()
    if interactive:
        print(f"scenario: {scenario.describe()}")
        print("commands: tell FROM TO SENTENCE | knows SIDE SENTENCE | "
              "ck SENTENCE | facts | quit")
    while True:
        if interactive:
            print("> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            return EXIT_PASS
        words = line.split()
        if not words:
            continue
        try:
            match words:
                case ["quit", *_]:
                    return EXIT_PASS
                case ["facts", *_]:
                    for state in (state_a, state_b):
                        print(_knows_line(scenario, state))
                case ["tell", "1" | "2" as sender, "1" | "2" as receiver, text]:
                    event = TellEvent(int(sender), int(receiver), parse_sentence(text))
                    state_a, state_b = step(state_a, state_b, event, scenario.model)
                    print("ok")
                case _:
                    answer = _answer(words, state_a, state_b)
                    print(answer or f"error: unknown command {line.strip()!r}")
        except (SentenceError, UnknownFactError, TellError) as exc:
            print(f"error: {exc}")


def _int_in(low: int, high: int | None = None):
    """argparse type: an int >= low, and <= high when given, refused as the
    library refuses a count."""
    def parse(text: str) -> int:
        value = int(text)
        try:
            _require_count("value", value, low, high)
        except ValueError as exc:  # argparse would print only "invalid int value"
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value
    parse.__name__ = "int"  # argparse reports bad text as "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knowtell",
        description="Two-agent knowledge exchange modeled as regular "
                    "languages of dotted sentences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="run every verification check and report pass/fail"
    )
    p_check.add_argument("--max-facts", type=_int_in(1, len(FACT_POOL)),
                         default=CheckConfig.max_facts, metavar="N")
    p_check.add_argument("--depth", type=_int_in(0, MAX_ORACLE_DEPTH),
                         default=CheckConfig.depth, metavar="K")
    p_check.add_argument("--traces", type=_int_in(1), default=CheckConfig.traces, metavar="N")
    p_check.add_argument("--seed", type=int, default=CheckConfig.seed, metavar="S")
    p_check.add_argument("--format", choices=("json", "text"), default="text")
    p_check.add_argument(
        "--mutate", choices=("no-understanding",), default=None,
        help="testing fixture: drop the bare-message gain from the "
             "understanding model so the success checks must fail",
    )
    p_check.set_defaults(func=_cmd_check)

    p_sat = sub.add_parser(
        "saturate", help="solve the full-communication limit of a scenario"
    )
    p_sat.add_argument("scenario")
    p_sat.add_argument("--fact", default=None)
    p_sat.add_argument("--side", type=int, choices=(1, 2), default=None)
    p_sat.add_argument("--emit-regex", action="store_true",
                       help="print the solved per-fact expressions")
    p_sat.add_argument("--emit-dot", metavar="PATH", default=None,
                       help="write the selected acceptor as a DOT graph")
    p_sat.set_defaults(func=_cmd_saturate)

    p_trace = sub.add_parser("trace", help="replay a finite trace of tells")
    p_trace.add_argument("scenario")
    p_trace.add_argument("trace")
    p_trace.add_argument(
        "--query", action="append", metavar="Q",
        help='"knows SIDE SENTENCE" or "ck SENTENCE"; may repeat',
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_cmp = sub.add_parser(
        "oracle-compare",
        help="compare the symbolic limit against the brute-force closure",
    )
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--depth", type=_int_in(0, MAX_ORACLE_DEPTH),
                       default=CheckConfig.depth, metavar="K")
    p_cmp.set_defaults(func=_cmd_oracle_compare)

    p_repl = sub.add_parser("repl", help="interactive tell-by-tell shell")
    p_repl.add_argument("scenario")
    p_repl.set_defaults(func=_cmd_repl)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, ScenarioError, SentenceError, RegexError,
            UnknownFactError, TellError, TraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
