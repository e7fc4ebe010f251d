"""Spans at knowtell's layer boundaries, recorded from outside the package.

Layers call each other through module attributes that are looked up at
call time: ``from .langs import union`` binds ``knowtell.dynamics.union``.
`Tracer.install` rebinds every such attribute, in every knowtell module,
to a wrapper that times the call; constructors and methods are wrapped on
their class. `Tracer.uninstall` puts every original back, so the package
itself is never edited.

Spans are kept in memory, aggregated per (caller, callee) edge, and
written out once at the end. A span's self time is its duration minus the
time of the spans it caused.
"""

from __future__ import annotations

import json
import sys
import time

# The public entry points of each layer that get a span. The validators
# check_agent and check_fact are left out: they run once per mark of every
# sentence built, and a span would cost more than the call it measures.
LAYER_API: dict[str, tuple[str, ...]] = {
    "sentences": ("Sentence.__init__", "parse_sentence", "append_knows",
                  "format_sentence"),
    "regexes": ("parse_regex", "regex_to_text", "word_regex", "alt", "cat",
                "star", "plus", "opt"),
    "automata": ("compile_regex", "determinize", "canonical_dfa",
                 "product_dfa", "Dfa.accepts"),
    "langs": ("Lang.contains", "from_ast", "from_regex", "from_word", "union",
              "concat", "star", "plus", "option", "subset", "enumerate_words",
              "solve_arden", "cone", "distinguishing_word"),
    "states": ("initial_state", "knows", "known_facts", "common_knowledge",
               "language_equal", "project_success", "validate_scenario"),
    "dynamics": ("TellEvent.__init__", "step", "run_trace", "saturate"),
    "oracle": ("bounded_closure", "compare_symbolic"),
    "checks": ("run_all_checks", "check_language_equivalence_props",
               "check_ck_dynamics", "check_success_theorems",
               "check_fixpoint_stability", "check_oracle_equivalence"),
    "cli": ("main", "emit_report"),
}

# the caller recorded for spans that no other span caused
OUTSIDE = "benchmark"


def _states_minimized(args, result) -> int:
    return len(args[0].delta)


def _closure_sentences(args, result) -> int:
    return sum(len(knowledge.sentences) for knowledge in result)


# Counts taken from a call's arguments or result, keyed by the span name.
MEASURES = {
    "automata.canonical_dfa": ("automata.states_minimized", _states_minimized),
    "oracle.bounded_closure": ("oracle.closure_sentences", _closure_sentences),
}


class Tracer:
    """Boundary spans over one knowtell import; use as a context manager."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        # inclusive time, counted once per outermost call of each span name
        self.inclusive: dict[str, float] = {}
        self.layer_self: dict[str, float] = dict.fromkeys(LAYER_API, 0.0)
        self.counts: dict[str, int] = {name: 0 for name, _ in MEASURES.values()}
        # (caller, callee) -> [calls, total seconds, self seconds]
        self.edges: dict[tuple[str, str], list] = {}
        self._stack: list[list] = [[OUTSIDE, 0.0]]
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        modules = [module for name, module in sys.modules.items()
                   if name == "knowtell" or name.startswith("knowtell.")]
        for layer, names in LAYER_API.items():
            home = sys.modules[f"knowtell.{layer}"]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                span = f"{layer}.{name}"
                if owner_name:
                    owner = getattr(home, owner_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, self._wrap(span, layer, original))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(span, layer, original)
                for module in modules:
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, bound, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, span: str, layer: str, fn):
        stack = self._stack
        calls, inclusive, layer_self = self.calls, self.inclusive, self.layer_self
        edges, counts = self.edges, self.counts
        calls[span] = 0
        inclusive[span] = 0.0
        active = [0]
        counter, measure = MEASURES.get(span, (None, None))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            active[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[0] -= 1
                calls[span] += 1
                if not active[0]:
                    inclusive[span] += elapsed
                own = elapsed - frame[1]
                parent[1] += elapsed
                layer_self[layer] += own
                edge = edges.get((parent[0], span))
                if edge is None:
                    edges[parent[0], span] = [1, elapsed, own]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
                    edge[2] += own
            if measure is not None:
                counts[counter] += measure(args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        """The aggregated spans, heaviest self time first."""
        rows = [
            {"caller": caller, "callee": callee, "calls": n,
             "total_s": total, "self_s": own}
            for (caller, callee), (n, total, own) in self.edges.items()
        ]
        rows.sort(key=lambda row: -row["self_s"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"layer_self_s": self.layer_self, "counts": self.counts,
                       "edges": rows}, handle, indent=1)
