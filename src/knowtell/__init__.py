"""Two-agent knowledge exchange modeled as regular languages.

Each agent's knowledge is a language of dotted sentences (a basic fact
plus a chain of "agent i knows ..." marks), factored per fact into exact
regular suffix languages. The package provides the sentence grammar, the
language algebra, tell-by-tell dynamics with a closed-form limit, a
brute-force oracle, an exhaustive check suite, and a CLI.
"""

from .checks import CheckConfig, CheckReport, run_all_checks
from .dynamics import (
    SaturationResult,
    TellError,
    TellEvent,
    TraceError,
    run_trace,
    saturate,
    step,
)
from .langs import Lang, from_regex, solve_arden
from .oracle import BoundedKnowledge, OracleReport, bounded_closure, compare_symbolic
from .regexes import RegexError, parse_regex, regex_to_text
from .sentences import (
    AGENTS,
    Sentence,
    SentenceError,
    append_knows,
    format_sentence,
    parse_sentence,
)
from .states import (
    KnowledgeState,
    ModelKind,
    Scenario,
    ScenarioError,
    UnknownFactError,
    common_knowledge,
    initial_state,
    known_facts,
    knows,
    language_equal,
    project_success,
    validate_scenario,
)

__all__ = [
    "AGENTS",
    "BoundedKnowledge",
    "CheckConfig",
    "CheckReport",
    "KnowledgeState",
    "Lang",
    "ModelKind",
    "OracleReport",
    "RegexError",
    "SaturationResult",
    "Scenario",
    "ScenarioError",
    "Sentence",
    "SentenceError",
    "TellError",
    "TellEvent",
    "TraceError",
    "UnknownFactError",
    "append_knows",
    "bounded_closure",
    "common_knowledge",
    "compare_symbolic",
    "format_sentence",
    "from_regex",
    "initial_state",
    "known_facts",
    "knows",
    "language_equal",
    "parse_regex",
    "parse_sentence",
    "project_success",
    "regex_to_text",
    "run_all_checks",
    "run_trace",
    "saturate",
    "solve_arden",
    "step",
    "validate_scenario",
]

__version__ = "0.1.0"
