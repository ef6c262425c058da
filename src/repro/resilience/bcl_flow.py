"""Resilience of bipartite chain languages by reduction to MinCut (Proposition 7.6).

The construction orients every word of the BCL according to a bipartition of the
endpoint graph: *forward* words go from the source partition to the target
partition, *reversed* words the other way.  Every fact becomes a single
finite-capacity edge ``start_fact -> end_fact``; consecutive letters of a word
connect these per-fact edges with infinite-capacity edges (in word order for
forward words and in reverse order for reversed words), and the source/target
attach to the endpoint letters of the appropriate partitions.  Finite-cost cuts
then correspond exactly to contingency sets.

Preprocessing (from the proof): the empty word makes resilience infinite, and
every fact whose label is a one-letter word of the language must be removed
unconditionally.
"""

from __future__ import annotations

from ..exceptions import NotApplicableError
from ..flow.compiled import solve_min_cut
from ..flow.substrate import compile_bcl_graph
from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase, as_bag
from ..languages import chain
from ..languages.core import Language
from .result import INFINITE, ResilienceResult, finite_value


def resilience_bcl(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    semantics: str | None = None,
) -> ResilienceResult:
    """Compute the resilience of a bipartite chain language (Proposition 7.6).

    Raises:
        NotApplicableError: if the language is not a bipartite chain language.
    """
    bag = as_bag(database)
    if semantics is None:
        semantics = "bag" if isinstance(database, BagGraphDatabase) else "set"
    name = language.name or ""

    if not chain.is_bipartite_chain_language(language):
        raise NotApplicableError(f"{name} is not a bipartite chain language")
    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "bcl-flow", name)

    structure = chain.bcl_structure(language)

    # Preprocessing: facts labelled by a one-letter word must always be
    # removed.  Instead of materializing a copy of the database without them,
    # the compiler below skips their arcs over the shared per-database
    # substrate — the resulting network is identical.
    index = bag.index()
    forced_ids: set[int] = set()
    for letter in structure.single_letter_words:
        forced_ids.update(index.facts_by_label.get(letter, ()))
    forced = frozenset(index.facts_of_ids(forced_ids))
    base_cost = sum(index.multiplicities[fact_id] for fact_id in forced_ids)

    graph = compile_bcl_graph(structure, index, frozenset(forced_ids))
    cut = solve_min_cut(graph)
    if cut.value == INFINITE:  # pragma: no cover - cannot happen once epsilon/one-letter words are gone
        return ResilienceResult(INFINITE, None, semantics, "bcl-flow", name)
    contingency = forced | frozenset(key for key in cut.cut_keys if isinstance(key, Fact))
    return ResilienceResult(
        finite_value(cut.value + base_cost),
        contingency,
        semantics,
        "bcl-flow",
        name,
        details={
            "network_nodes": graph.num_nodes,
            "network_edges": graph.num_edges,
            "forced_facts": len(forced),
        },
    )
