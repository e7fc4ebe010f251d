"""Agents' knowledge and the predicates asked of a pair of agents.

A knowledge state factors the agent's whole sentence language by fact:
the sentence fact.w is known exactly when w is in the fact's suffix
language. Scenario holds the static configuration: the full fact set,
the two sides' own facts, and which communication model applies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from .langs import EMPTY, LETTER, Lang, contains_cone, star
from .sentences import Sentence, check_agent, check_fact


class ScenarioError(ValueError):
    """A scenario that breaks its own invariants."""


class UnknownFactError(ValueError):
    """A sentence about a fact outside the scenario's fact set."""


class ModelKind(enum.Enum):
    """How much the listener takes from a message: only that it was said,
    or also its content."""

    COMMUNICATION = "communication"
    UNDERSTANDING = "understanding"


def model_kind(model: ModelKind | str) -> ModelKind:
    """The ModelKind itself or the one its value names; ScenarioError, which
    lists the models, for anything else."""
    if isinstance(model, ModelKind):
        return model
    try:
        return ModelKind(model)
    except ValueError:
        names = ", ".join(repr(m.value) for m in ModelKind)
        raise ScenarioError(f"model must be one of {names}, got {model!r}") from None


@dataclass(frozen=True)
class Scenario:
    """The full fact set, each side's own facts, and the model."""

    facts: tuple[str, ...]
    side_a: frozenset[str]
    side_b: frozenset[str]
    model: ModelKind

    @classmethod
    def make(cls, facts: Iterable[str], side_a: Iterable[str],
             side_b: Iterable[str], model: ModelKind | str) -> "Scenario":
        """Normalize plain iterables and strings into a validated scenario."""
        return cls(tuple(facts), frozenset(side_a), frozenset(side_b), model)

    def __post_init__(self):
        seen = set()
        for fact in self.facts:
            check_fact(fact)
            if fact in seen:
                raise ScenarioError(f"duplicate fact {fact!r}")
            seen.add(fact)
        for label, side in (("side_a", self.side_a), ("side_b", self.side_b)):
            stray = sorted(side - seen)
            if stray:
                raise ScenarioError(
                    f"{label} facts not in the fact set: {', '.join(stray)}"
                )
        # a model's value stands for the model, as in `make` and `step`
        object.__setattr__(self, "model", model_kind(self.model))

    def side(self, agent: int) -> frozenset[str]:
        check_agent(agent)
        return self.side_a if agent == 1 else self.side_b

    def describe(self) -> str:
        def group(facts):
            return "{" + ",".join(f for f in self.facts if f in facts) + "}"

        return (
            f"facts={group(self.facts)} side1={group(self.side_a)} "
            f"side2={group(self.side_b)} model={self.model.value}"
        )


def validate_scenario(scenario: Scenario) -> Scenario:
    """Re-run the invariant checks and hand the scenario back."""
    Scenario(scenario.facts, scenario.side_a, scenario.side_b, scenario.model)
    return scenario


@dataclass(frozen=True)
class KnowledgeState:
    """One agent's knowledge: a suffix language per scenario fact."""

    agent: int
    langs: Mapping[str, Lang]

    def lang_for(self, fact: str) -> Lang:
        lang = self.langs.get(fact)
        if lang is None:
            raise UnknownFactError(f"fact {fact!r} is not part of the scenario")
        return lang


# built once: initial_state runs for every scenario of the check grids
OWN_CHAINS = {agent: star(LETTER[agent]) for agent in (1, 2)}


def initial_state(agent: int, scenario: Scenario) -> KnowledgeState:
    """Own facts carry every chain of the agent's own mark; the rest start empty."""
    check_agent(agent)
    own = OWN_CHAINS[agent]
    side = scenario.side(agent)
    return KnowledgeState(
        agent, {f: (own if f in side else EMPTY) for f in scenario.facts}
    )


def knows(state: KnowledgeState, sentence: Sentence) -> bool:
    """Is the sentence in the agent's language?"""
    return state.lang_for(sentence.fact).contains(sentence.suffix)


def known_facts(state: KnowledgeState) -> frozenset[str]:
    """The facts the agent knows bare, i.e. with the empty suffix."""
    return frozenset(f for f, lang in state.langs.items() if lang.accepts_empty)


def common_knowledge(state_a: KnowledgeState, state_b: KnowledgeState,
                     sentence: Sentence) -> bool:
    """Every extension of the sentence by any chain of marks is known to both.

    A bare fact is common knowledge exactly when its whole cone, every
    suffix word at all, sits inside both agents' languages for that fact.
    """
    fact, suffix = sentence.fact, sentence.suffix
    return (contains_cone(state_a.lang_for(fact), suffix)
            and contains_cone(state_b.lang_for(fact), suffix))


def language_equal(state_a: KnowledgeState, state_b: KnowledgeState) -> bool:
    """Exact equality of the two whole languages, fact by fact."""
    if set(state_a.langs) != set(state_b.langs):
        raise ValueError("states cover different fact sets")
    return all(state_a.langs[f] == state_b.langs[f] for f in state_a.langs)


def project_success(state_a: KnowledgeState, state_b: KnowledgeState,
                    scenario: Scenario) -> bool:
    """Equal languages, and side 1 knows every fact bare.

    The coverage condition is deliberately one-sided; side 2's bare
    knowledge plays no role here.
    """
    return language_equal(state_a, state_b) and known_facts(state_a) >= set(
        scenario.facts
    )

