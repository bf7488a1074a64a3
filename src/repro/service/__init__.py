"""The resident query service: incremental view maintenance plus a
containment-keyed result cache.

ROADMAP item 2 made production-scale: :class:`QueryService` keeps a Datalog
program's least fixpoint materialized under EDB update streams
(:mod:`repro.datalog.incremental`) and answers conjunctive queries through
a :class:`ResultCache` keyed on the canonical form of the *minimized*
query — so syntactically different but equivalent queries (Chandra–Merlin,
Props 2.2/2.3) share one cached answer.  The maintenance plane's
per-predicate dirty sets mark stale exactly the entries whose bodies
mention a changed predicate; the next probe that reaches a stale entry
refreshes its answer from the batch's net deltas with the delta rules the
maintenance plane runs on its own views, instead of evaluating the query
again.  An entry is kept stale for one generation only.
"""

from repro.service.cache import CacheStats, ResultCache
from repro.service.core import QueryService, ServiceAnswer
from repro.service.stream import (
    QueryEvent,
    ServiceWorkload,
    UpdateEvent,
    equivalent_variant,
    service_stream,
)

__all__ = [
    "QueryService",
    "ServiceAnswer",
    "ResultCache",
    "CacheStats",
    "ServiceWorkload",
    "QueryEvent",
    "UpdateEvent",
    "service_stream",
    "equivalent_variant",
]
