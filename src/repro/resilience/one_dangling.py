"""Resilience of one-dangling languages (Proposition 7.9).

A one-dangling language is ``L ∪ {xy}`` with ``L`` local and at least one of
``x, y`` absent from the alphabet of ``L``.  The reduction (for the case
``y`` fresh; the other case is handled by mirroring, Proposition 6.3):

1. introduce a fresh letter ``z`` and replace the unique ``x``-transition of an
   RO-epsilon-NFA for ``L`` by ``x`` then ``z``, giving a local language ``L'``;
2. rewrite the bag database: for every node ``v`` add a node ``(v, in)``,
   redirect all ``x``-facts entering ``v`` to ``(v, in)``, add a ``z``-fact
   ``(v, in) -> v`` of multiplicity ``sum(in-x) - sum(out-y)`` (possibly
   non-positive: *extended bag semantics*), and delete all ``y``-facts;
3. then ``RES_bag(L ∪ {xy}, D) = RES_ext_bag(L', D') + kappa`` where ``kappa`` is
   the total multiplicity of ``y``-facts; extended-bag resilience reduces to
   ordinary bag resilience by unconditionally removing the non-positive facts.

The witnessing contingency set of ``D`` is reconstructed from the cut of ``D'``
following the proof of Claim 7.10(ii).

Steps 1–2 and the compilation of the product graph of ``L'`` and ``D'``
depend on the database only through ``D`` itself, so their outcome — κ, the
non-positive facts, the compiled graph and the map-back tables, together a
:class:`_Prepared` — is cached in the database's
``bag.index().substrates["one-dangling"]``, keyed by the read-once automaton
of ``L``, the letters ``x``, ``y``, ``z`` and the mirror flag.  A warm call is
then a lookup, one min-cut solve and the map-back, like a warm local or BCL
call.  The rewritten database and its index live only for the cold call; the
mirrored case reads the facts of ``D`` reversed instead of building
``bag.reverse()``, and maps the cut straight back to facts of ``D``.  Cuts and
results are never cached.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import NotApplicableError
from ..flow.compiled import CompiledFlowGraph, solve_min_cut
from ..flow.substrate import compile_product_graph
from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase, Node, as_bag
from ..languages.automata import EpsilonNFA
from ..languages.core import Language
from ..languages.dangling import one_dangling_decomposition
from ..languages.operations import fresh_letter
from ..languages import read_once
from .result import INFINITE, ResilienceResult, finite_value


@dataclass(frozen=True)
class _Prepared:
    """The database-dependent half of one Proposition 7.9 reduction.

    Facts of the rewritten database ``D'`` are in the solved orientation
    (reversed when mirrored); the map-back tables lead to facts of ``D`` as
    stored.

    Attributes:
        kappa: total multiplicity of the ``y``-facts.
        non_positive: the facts of ``D'`` with multiplicity ``<= 0``, removed
            up front.
        base_cost: their total multiplicity.
        graph: the compiled product graph of ``L'`` and the positive part of
            ``D'``.
        incoming_x: node -> ``(fact of D, its redirected copy in D')`` for the
            ``x``-facts entering the node.
        outgoing_y: node -> the ``y``-facts of ``D`` leaving the node.
        z_fact_of_node: node -> the ``z``-fact ``(node, in) -> node`` of ``D'``,
            one per node with an entering ``x``-fact or a leaving ``y``-fact.
    """

    kappa: int
    non_positive: tuple[Fact, ...]
    base_cost: int
    graph: CompiledFlowGraph
    incoming_x: dict[Node, tuple[tuple[Fact, Fact], ...]]
    outgoing_y: dict[Node, tuple[Fact, ...]]
    z_fact_of_node: dict[Node, Fact]


def _split_x_transition(automaton: EpsilonNFA, x_letter: str, z_letter: str) -> EpsilonNFA:
    """Replace the unique ``x`` transition of an RO-epsilon-NFA by ``x`` followed by ``z``."""
    x_transitions = [t for t in automaton.letter_transitions if t[1] == x_letter]
    if not x_transitions:
        # The local part does not use x at all; nothing to split.
        return automaton.with_alphabet(automaton.alphabet | {z_letter})
    if len(x_transitions) != 1:  # pragma: no cover - impossible for an RO automaton
        raise NotApplicableError("expected a read-once automaton")
    (source, _, target) = x_transitions[0]
    middle = ("split", x_letter)
    states = set(automaton.states) | {middle}
    transitions = set(automaton.transitions) - {x_transitions[0]}
    transitions.add((source, x_letter, middle))
    transitions.add((middle, z_letter, target))
    return EpsilonNFA.build(
        states, automaton.initial, automaton.final, transitions, automaton.alphabet | {z_letter}
    )


def _prepare(
    bag: BagGraphDatabase,
    local_automaton: EpsilonNFA,
    x_letter: str,
    y_letter: str,
    z_letter: str,
    mirrored: bool,
) -> _Prepared:
    """Rewrite the database (see module docstring) and compile its product graph."""
    rewritten: dict[Fact, int] = {}
    incoming_x: dict[Node, list[tuple[Fact, Fact]]] = {}
    outgoing_y: dict[Node, list[Fact]] = {}
    in_sum: dict[Node, int] = {}
    out_sum: dict[Node, int] = {}
    kappa = 0
    for fact, multiplicity in bag.multiplicity_map().items():
        oriented = Fact(fact.target, fact.label, fact.source) if mirrored else fact
        if oriented.label == y_letter:
            kappa += multiplicity
            outgoing_y.setdefault(oriented.source, []).append(fact)
            out_sum[oriented.source] = out_sum.get(oriented.source, 0) + multiplicity
        elif oriented.label == x_letter:
            redirected = Fact(oriented.source, x_letter, (oriented.target, "in"))
            rewritten[redirected] = multiplicity
            incoming_x.setdefault(oriented.target, []).append((fact, redirected))
            in_sum[oriented.target] = in_sum.get(oriented.target, 0) + multiplicity
        else:
            rewritten[oriented] = multiplicity
    z_fact_of_node: dict[Node, Fact] = {}
    for node in dict.fromkeys([*incoming_x, *outgoing_y]):
        z_fact = Fact((node, "in"), z_letter, node)
        rewritten[z_fact] = in_sum.get(node, 0) - out_sum.get(node, 0)
        z_fact_of_node[node] = z_fact

    # Extended bag semantics: facts with non-positive multiplicity can always be
    # put in the contingency set, so they are removed up front at their cost.
    non_positive = tuple(fact for fact, mult in rewritten.items() if mult <= 0)
    positive_part = BagGraphDatabase(
        {fact: mult for fact, mult in rewritten.items() if mult > 0}
    )
    primed_automaton = _split_x_transition(local_automaton, x_letter, z_letter)
    # The positive part's index (and the product substrate on it) is dropped
    # when this call returns; only the compiled graph is kept.
    graph = compile_product_graph(primed_automaton, positive_part.index())
    return _Prepared(
        kappa=kappa,
        non_positive=non_positive,
        base_cost=sum(rewritten[fact] for fact in non_positive),
        graph=graph,
        incoming_x={node: tuple(pairs) for node, pairs in incoming_x.items()},
        outgoing_y={node: tuple(facts) for node, facts in outgoing_y.items()},
        z_fact_of_node=z_fact_of_node,
    )


def resilience_one_dangling(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    semantics: str | None = None,
) -> ResilienceResult:
    """Compute the resilience of a one-dangling language (Proposition 7.9).

    The decomposition, the mirror language and the read-once automaton of
    the local part are memoized on the language instances, so a warm call
    derives none of them.

    Raises:
        NotApplicableError: if the language is not one-dangling.
    """
    bag = as_bag(database)
    if semantics is None:
        semantics = "bag" if isinstance(database, BagGraphDatabase) else "set"
    name = language.name or ""
    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "one-dangling-flow", name)
    decomposition = one_dangling_decomposition(language)
    if decomposition is None:
        raise NotApplicableError(f"{name} is not a one-dangling language")

    # The reduction needs y fresh.  Otherwise x is the fresh letter: solve the
    # mirror language on the mirrored database (Proposition 6.3).
    mirrored = decomposition.y in decomposition.local_alphabet
    if mirrored:
        decomposition = one_dangling_decomposition(language.mirror())
        if decomposition is None:  # pragma: no cover - mirror of one-dangling is one-dangling
            raise NotApplicableError("mirror of a one-dangling language should be one-dangling")
    x_letter, y_letter = decomposition.x, decomposition.y
    z_letter = fresh_letter(language.alphabet, avoid=bag.alphabet)
    local_automaton = read_once.read_once_automaton(decomposition.local_part)

    prepared_cache = bag.index().substrates.setdefault("one-dangling", {})
    key = (local_automaton, x_letter, y_letter, z_letter, mirrored)
    prepared = prepared_cache.get(key)
    if prepared is None:
        prepared = _prepare(bag, local_automaton, x_letter, y_letter, z_letter, mirrored)
        prepared_cache[key] = prepared

    cut = solve_min_cut(prepared.graph)
    if cut.value == INFINITE:  # pragma: no cover - epsilon not in L'
        return ResilienceResult(INFINITE, None, semantics, "one-dangling-flow", name)
    primed_contingency = set(prepared.non_positive)
    primed_contingency.update(key for key in cut.cut_keys if isinstance(key, Fact))
    contingency = _map_back_contingency(
        bag, prepared, primed_contingency, x_letter, z_letter, mirrored
    )
    details = {
        "kappa": prepared.kappa,
        "base_cost": prepared.base_cost,
        "network_nodes": prepared.graph.num_nodes,
        "network_edges": prepared.graph.num_edges,
        "mirrored": mirrored,
        "primed_language": f"{decomposition.local_part.name or 'L'}[x->xz]",
    }
    value = cut.value + prepared.base_cost + prepared.kappa
    return ResilienceResult(
        finite_value(value), frozenset(contingency), semantics, "one-dangling-flow", name, details=details
    )


def _map_back_contingency(
    bag: BagGraphDatabase,
    prepared: _Prepared,
    primed_contingency: set[Fact],
    x_letter: str,
    z_letter: str,
    mirrored: bool,
) -> set[Fact]:
    """Reconstruct a contingency set of the original database (proof of Claim 7.10(ii))."""
    contingency: set[Fact] = set()
    for node, z_fact in prepared.z_fact_of_node.items():
        incoming = prepared.incoming_x.get(node, ())
        if z_fact in primed_contingency:
            # Case (a): remove every x-fact entering the node.
            contingency.update(original for original, _ in incoming)
        else:
            # Case (b): remove every y-fact leaving the node, plus the x-facts
            # whose redirected copies are in the primed contingency set.
            contingency.update(prepared.outgoing_y.get(node, ()))
            contingency.update(
                original for original, redirected in incoming if redirected in primed_contingency
            )
    for fact in primed_contingency:
        if fact.label not in (x_letter, z_letter):
            original = Fact(fact.target, fact.label, fact.source) if mirrored else fact
            if original in bag:
                contingency.add(original)
    return contingency
