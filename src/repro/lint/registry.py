"""Rule registry for ``repro.lint``.

Rules are classes registered under a stable id (``R001`` …); the registry
owns one singleton instance per rule and hands out deterministic, id-sorted
listings.  Registration happens at import time of :mod:`repro.lint.rules` —
a rule that is not imported does not exist, so the rule set is always the
imported code, never stale configuration.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Type

from repro.lint.model import Violation
from repro.lint.project import Project


class LintRule:
    """Abstract lint rule.

    Subclasses set :attr:`rule_id` (the registry/CLI/suppression identifier),
    a one-line :attr:`title`, and :attr:`rationale` (why the invariant exists;
    surfaced by ``--list-rules`` and the docs) — then implement :meth:`check`.
    """

    #: Registry identifier, also used in ``# repro-lint: disable=`` comments.
    rule_id: str = ""
    #: One-line human description of what the rule enforces.
    title: str = ""
    #: Why violating the invariant breaks the reproduction (one sentence).
    rationale: str = ""

    def check(self, project: Project) -> Iterator[Violation]:
        """Yield every violation of this rule in ``project``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rule_id={self.rule_id!r})"


class RuleRegistry:
    """Registry + singleton store of the lint rule set."""

    def __init__(self) -> None:
        self._classes: Dict[str, Type[LintRule]] = {}
        self._instances: Dict[str, LintRule] = {}

    def register(self, rule_class: Type[LintRule]) -> Type[LintRule]:
        """Register a rule class under its ``rule_id`` (usable as decorator)."""
        rule_id = rule_class.rule_id
        if not rule_id:
            raise ValueError(f"Rule class {rule_class.__name__} needs a rule_id")
        existing = self._classes.get(rule_id)
        if existing is not None and existing is not rule_class:
            raise ValueError(f"Rule id {rule_id!r} is already registered")
        self._classes[rule_id] = rule_class
        return rule_class

    def ids(self) -> List[str]:
        return sorted(self._classes)

    def get(self, rule_id: str) -> LintRule:
        rule_class = self._classes.get(rule_id)
        if rule_class is None:
            raise KeyError(
                f"Unknown lint rule {rule_id!r}; registered: {self.ids()}"
            )
        instance = self._instances.get(rule_id)
        if instance is None:
            instance = self._instances[rule_id] = rule_class()
        return instance

    def rules(self, only: Optional[List[str]] = None) -> List[LintRule]:
        """Rule instances in id order, optionally restricted to ``only``."""
        ids = self.ids() if only is None else sorted(only)
        return [self.get(rule_id) for rule_id in ids]


#: The process-wide rule registry (populated by importing repro.lint.rules).
RULES = RuleRegistry()


def register_rule(rule_class: Type[LintRule]) -> Type[LintRule]:
    return RULES.register(rule_class)
