"""Resilience of local languages by reduction to MinCut (Theorem 3.13).

Given an RO-epsilon-NFA ``A`` for a local language ``L`` and a bag database
``D``, the network ``N_{D,A}`` has one vertex per (database node, automaton
state) pair plus a fresh source and target:

* every fact ``v --a--> v'`` together with the unique ``a``-transition
  ``(s, a, s')`` of ``A`` gives an edge ``(v, s) -> (v', s')`` of capacity
  ``mult(fact)`` (this is the *only* finite-capacity edge of the fact, because
  ``A`` is read-once);
* every epsilon transition ``(s, eps, s')`` gives infinite-capacity edges
  ``(v, s) -> (v, s')`` for every node ``v``;
* the source has infinite-capacity edges to every ``(v, s)`` with ``s`` initial,
  and every ``(v, s)`` with ``s`` final has an infinite-capacity edge to the target.

Finite-cost cuts of ``N_{D,A}`` are exactly the contingency sets of ``D`` for
``Q_L``, with matching costs, so the resilience is the MinCut value.
"""

from __future__ import annotations

from ..flow.compiled import solve_min_cut
from ..flow.substrate import compile_product_graph
from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase, as_bag
from ..languages.core import Language
from ..languages import read_once
from .result import INFINITE, ResilienceResult, finite_value


def resilience_local(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    check_local: bool = True,
    semantics: str | None = None,
) -> ResilienceResult:
    """Compute the resilience of a local language via the MinCut reduction of Theorem 3.13.

    Args:
        language: a local language (or any epsilon-NFA-definable language when
            ``check_local`` is False and the caller guarantees locality, matching
            the combined-complexity statement of the theorem).
        database: the input database (set databases get unit multiplicities).
        check_local: verify locality first and raise :class:`NotLocalError` if it fails.
        semantics: force the reported semantics; inferred from the database type otherwise.

    Returns:
        the resilience value, a witnessing contingency set, and the compiled
        product-graph size in ``details``.
    """
    bag = as_bag(database)
    if semantics is None:
        semantics = "bag" if isinstance(database, BagGraphDatabase) else "set"

    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "local-flow", language.name or "")

    if check_local:
        automaton = read_once.read_once_automaton(language)
    else:
        automaton = read_once.read_once_automaton_unchecked(language)

    # Compile the product graph over the database's cached flow substrate —
    # facts with labels that the language never uses are simply ignored by the
    # construction.
    graph = compile_product_graph(automaton, bag.index())
    cut = solve_min_cut(graph)
    if cut.value == INFINITE:
        return ResilienceResult(INFINITE, None, semantics, "local-flow", language.name or "")
    contingency = frozenset(key for key in cut.cut_keys if isinstance(key, Fact))
    return ResilienceResult(
        finite_value(cut.value),
        contingency,
        semantics,
        "local-flow",
        language.name or "",
        details={
            "network_nodes": graph.num_nodes,
            "network_edges": graph.num_edges,
            "automaton_size": automaton.size,
        },
    )

