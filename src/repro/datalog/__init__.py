"""Datalog: syntax, parser, bottom-up engines, canonical programs (Section 4)."""

from repro.datalog.canonical import (
    DOMAIN_PREDICATE,
    CanonicalProgram,
    canonical_program,
    spoiler_wins_via_datalog,
)
from repro.datalog.engine import (
    evaluate,
    evaluate_naive,
    evaluate_seminaive,
    goal_holds,
    goal_relation,
    seminaive_closure,
)
from repro.datalog.incremental import IncrementalEvaluation, UpdateReport
from repro.datalog.library import (
    non_two_colorability_program,
    transitive_closure_program,
)
from repro.datalog.parser import parse_program, parse_rule
from repro.datalog.syntax import Program, Rule

__all__ = [
    "Rule",
    "Program",
    "parse_program",
    "parse_rule",
    "evaluate",
    "evaluate_naive",
    "evaluate_seminaive",
    "seminaive_closure",
    "goal_holds",
    "goal_relation",
    "IncrementalEvaluation",
    "UpdateReport",
    "canonical_program",
    "CanonicalProgram",
    "spoiler_wins_via_datalog",
    "DOMAIN_PREDICATE",
    "non_two_colorability_program",
    "transitive_closure_program",
]
