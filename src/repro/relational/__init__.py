"""Relational substrate: relations, algebra, structures, homomorphisms.

This subpackage provides the database-theoretic foundation used by the rest
of the library (Section 2 of the tutorial): named-attribute relations with a
full relational algebra, finite relational structures over vocabularies, and
homomorphism search between structures.
"""

from repro.relational.algebra import (
    DEFAULT_EXECUTION,
    DEFAULT_STRATEGY,
    difference,
    division,
    intersection,
    join_all,
    natural_join,
    product,
    project,
    rename,
    select,
    semijoin,
    union,
    warm_index,
)
from repro.relational.planner import (
    EXECUTIONS,
    STRATEGIES,
    choose_build_side,
    parse_strategy,
    plan_join,
)
from repro.relational.stats import EvalStats, collect_stats, current_stats
from repro.relational.wcoj import (
    Leapfrog,
    TrieCursor,
    TrieRelation,
    leapfrog_intersect,
    leapfrog_join,
    trie_semijoin,
    variable_order,
)
from repro.relational.core import (
    core,
    homomorphically_equivalent,
    is_core,
    retract_to,
)
from repro.relational.homomorphism import (
    all_homomorphisms,
    count_homomorphisms,
    find_homomorphism,
    homomorphism_exists,
    is_homomorphism,
    is_partial_homomorphism,
)
from repro.relational.relation import Relation
from repro.relational.structure import (
    SUM_DOMAIN_LEFT,
    SUM_DOMAIN_RIGHT,
    Structure,
    Vocabulary,
    sum_structure,
)

__all__ = [
    "Relation",
    "Structure",
    "Vocabulary",
    "sum_structure",
    "SUM_DOMAIN_LEFT",
    "SUM_DOMAIN_RIGHT",
    "project",
    "select",
    "rename",
    "natural_join",
    "join_all",
    "semijoin",
    "warm_index",
    "union",
    "intersection",
    "difference",
    "product",
    "division",
    "DEFAULT_STRATEGY",
    "DEFAULT_EXECUTION",
    "STRATEGIES",
    "EXECUTIONS",
    "plan_join",
    "parse_strategy",
    "choose_build_side",
    "EvalStats",
    "collect_stats",
    "current_stats",
    "Leapfrog",
    "TrieCursor",
    "TrieRelation",
    "leapfrog_intersect",
    "leapfrog_join",
    "trie_semijoin",
    "variable_order",
    "is_homomorphism",
    "is_partial_homomorphism",
    "find_homomorphism",
    "all_homomorphisms",
    "count_homomorphisms",
    "homomorphism_exists",
    "core",
    "is_core",
    "retract_to",
    "homomorphically_equivalent",
]
