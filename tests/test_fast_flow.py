"""Differential suite for the array-native flow core.

Pins three claims:

* the fast :func:`~repro.flow.min_cut_compiled` and the textbook
  :func:`~repro.flow.min_cut_reference` return the same
  :class:`~repro.flow.CompiledCut` field for field on every compiled graph,
  and that cut is a *verified* minimum cut (it disconnects, and its cost
  equals the value);
* the substrate compilers emit graphs whose solutions agree with the exact
  search and whose cuts are contingency sets, in both solver modes;
* substrates are built once per database and shared across queries.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.flow import (
    INFINITY,
    bcl_substrate,
    compile_bcl_graph,
    compile_product_graph,
    default_flow_solver,
    min_cut_compiled,
    min_cut_reference,
    product_substrate,
)
from repro.graphdb import generators
from repro.languages import Language, chain, read_once
from repro.resilience import (
    resilience,
    resilience_bcl,
    resilience_exact,
    resilience_local,
    resilience_many,
    resilience_one_dangling,
    verify_contingency_set,
)
from test_flow import build, is_cut

_CAPACITIES = st.one_of(st.integers(min_value=0, max_value=7), st.just(INFINITY))


@st.composite
def graphs(draw):
    """Random compiled graphs: ∞/zero capacities, parallel edges, a possibly
    disconnected target, and possibly ``source == target``."""
    num_nodes = draw(st.integers(min_value=2, max_value=7))
    nodes = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(nodes, nodes, _CAPACITIES), max_size=22))
    keyed = [(tail, head, capacity, key) for key, (tail, head, capacity) in enumerate(edges)]
    return build(keyed, num_nodes=num_nodes, source=draw(nodes), target=draw(nodes))


class TestSolverDifferential:
    @settings(max_examples=250, deadline=None)
    @given(graphs())
    def test_solvers_agree_and_cut_is_verified_minimum(self, graph):
        fast = min_cut_compiled(graph)
        reference = min_cut_reference(graph)
        # Exact arithmetic → the residual-reachable cut is canonical: the two
        # solvers agree on every field, including cut edge order.
        assert fast == reference
        if fast.value == INFINITY:
            assert fast.cut_edges == () and fast.cut_keys == ()
            return
        assert is_cut(graph, fast.cut_edges)
        # Weak duality: a cut whose cost equals the max flow is minimum.
        capacities = [graph.arc_capacity[graph.forward_pos[edge]] for edge in fast.cut_edges]
        assert sum(capacities) == fast.value
        assert fast.cut_keys == tuple(graph.arc_key[edge] for edge in fast.cut_edges)

    @pytest.mark.parametrize("solve", [min_cut_compiled, min_cut_reference])
    def test_source_equals_target(self, solve):
        assert solve(build([(0, 2, 3, "a")], source=0, target=0)).value == math.inf

    @pytest.mark.parametrize("solve", [min_cut_compiled, min_cut_reference])
    def test_disconnected_target(self, solve):
        result = solve(build([(0, 2, 4, "a")]))
        assert result.value == 0 and result.cut_edges == ()

    @pytest.mark.parametrize("solve", [min_cut_compiled, min_cut_reference])
    def test_all_infinite_path(self, solve):
        result = solve(build([(0, 2, INFINITY, None), (2, 1, INFINITY, None)]))
        assert result.value == math.inf and result.cut_edges == ()

    @pytest.mark.parametrize("solve", [min_cut_compiled, min_cut_reference])
    def test_zero_capacity_edges_are_ignored(self, solve):
        result = solve(build([(0, 1, 0, "dead"), (0, 1, 2, "live")]))
        assert result.value == 2
        assert result.cut_keys == ("live",)

    @pytest.mark.parametrize("solve", [min_cut_compiled, min_cut_reference])
    def test_parallel_edges_accumulate(self, solve):
        result = solve(build([(0, 1, 2, "first"), (0, 1, 3, "second")]))
        assert result.value == 5
        assert result.cut_keys == ("first", "second")

    @pytest.mark.parametrize("solve", [min_cut_compiled, min_cut_reference])
    def test_integral_value_is_snapped_to_float(self, solve):
        value = solve(build([(0, 1, 7, None)])).value
        assert value == 7.0 and isinstance(value, float)


def _core_endpoints(graph):
    """Distinct endpoints of the compiled graph's edges, in its own ids."""
    endpoints = set()
    for position in graph.forward_pos:
        endpoints.add(graph.arc_head[position])
        endpoints.add(graph.arc_head[graph.arc_rev[position]])
    return endpoints


@st.composite
def edge_lists(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=9))
    nodes = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(nodes, nodes, _CAPACITIES), max_size=22))
    return num_nodes, edges, draw(nodes), draw(nodes)


class TestRenumberOnTrim:
    """``FlowGraphBuilder.build`` sizes the graph by its trimmed core."""

    @settings(max_examples=200, deadline=None)
    @given(edge_lists())
    def test_nodes_are_the_core_plus_source_and_target(self, drawn):
        num_nodes, edges, source, target = drawn
        graph = build(
            [(tail, head, capacity, key) for key, (tail, head, capacity) in enumerate(edges)],
            num_nodes=num_nodes,
            source=source,
            target=target,
        )
        # The core, computed independently on the caller's ids: nodes on a
        # source→target path of positive-capacity edges.
        live = [(tail, head) for tail, head, capacity in edges if capacity > 0]

        def reach(start, pairs):
            seen, stack = {start}, [start]
            while stack:
                node = stack.pop()
                for tail, head in pairs:
                    if tail == node and head not in seen:
                        seen.add(head)
                        stack.append(head)
            return seen

        useful = reach(source, live) & reach(target, [(h, t) for t, h in live])
        kept = [(tail, head) for tail, head in live if tail in useful and head in useful]
        assert graph.num_nodes == len(useful | {source, target})
        assert graph.num_edges == len(kept)
        assert graph.num_nodes == len(_core_endpoints(graph) | {graph.source, graph.target})
        assert len(graph.adj_start) == graph.num_nodes + 1
        assert graph.arc_key == [
            key
            for key, (tail, head, capacity) in enumerate(edges)
            if capacity > 0 and tail in useful and head in useful
        ]

    def test_product_graph_is_sized_by_its_core(self):
        language = Language.from_regex("ax*b")
        database = generators.random_labelled_graph(30, 60, "axbcd", seed=2)
        automaton = read_once.read_once_automaton(language)
        graph = compile_product_graph(automaton, database.unit_bag().index())
        id_space = 2 + len(database.nodes) * len(automaton.states)
        assert graph.num_nodes == len(_core_endpoints(graph) | {graph.source, graph.target})
        assert graph.num_nodes < id_space
        assert (graph.source, graph.target) == (0, 1)
        result = resilience_local(language, database)
        assert result.details["network_nodes"] == graph.num_nodes
        _assert_matches_exact(language, database, result)


def _random_bag(seed, alphabet="axb"):
    return generators.random_bag_database(5, 12, alphabet, seed=seed, max_multiplicity=4)


@pytest.fixture(params=["fast", "reference"])
def flow_solver(request, monkeypatch):
    monkeypatch.setenv("REPRO_FLOW_SOLVER", request.param)
    return request.param


def _assert_matches_exact(language, database, result):
    assert result.value == resilience_exact(language, database).value
    assert verify_contingency_set(language, database, result)


class TestCompiledReductionsMatchExact:
    """The compiled product graphs solve to the exact resilience, and their
    cuts map back to contingency sets, under either solver."""

    @pytest.mark.parametrize("seed", range(6))
    def test_local_product(self, seed, flow_solver):
        language = Language.from_regex("ax*b")
        bag = generators.layered_flow_database(3, 3, seed=seed)
        _assert_matches_exact(language, bag, resilience_local(language, bag))

    @pytest.mark.parametrize("seed", range(6))
    def test_bcl_product(self, seed, flow_solver):
        language = Language.from_regex("ab|bc")
        bag = _random_bag(seed, alphabet="abc")
        _assert_matches_exact(language, bag, resilience_bcl(language, bag))

    @pytest.mark.parametrize("seed", range(5))
    def test_trimmed_product(self, seed, flow_solver):
        # The compiled graph is trimmed to its useful core; values and cut
        # facts must nevertheless be those of the full reduction.
        language = Language.from_regex("ax*b")
        database = generators.random_labelled_graph(6, 14, "axbz", seed=seed)
        _assert_matches_exact(language, database, resilience_local(language, database))

    @pytest.mark.parametrize("expression", ["ax*b", "ab|bc", "abc|be"])
    @pytest.mark.parametrize("seed", range(4))
    def test_fast_and_reference_solver_results_are_identical(
        self, expression, seed, monkeypatch
    ):
        database = generators.random_labelled_graph(5, 12, "abcxe", seed=seed)
        fast = resilience(expression, database)
        monkeypatch.setenv("REPRO_FLOW_SOLVER", "reference")
        reference = resilience(expression, database)
        assert fast == reference

    @pytest.mark.parametrize("seed", range(4))
    def test_local_solver_modes_agree_with_exact(self, seed, flow_solver):
        language = Language.from_regex("ax*b")
        database = generators.random_labelled_graph(5, 10, "axb", seed=seed)
        _assert_matches_exact(language, database, resilience_local(language, database))

    def test_bcl_solver_modes_agree_with_exact(self, flow_solver):
        language = Language.from_regex("ab|bc|b")
        for seed in range(4):
            bag = _random_bag(seed, alphabet="abc")
            _assert_matches_exact(language, bag, resilience_bcl(language, bag))

    def test_one_dangling_solver_modes_agree_with_exact(self, flow_solver):
        language = Language.from_regex("abc|be")
        for seed in range(4):
            bag = _random_bag(seed, alphabet="abce")
            _assert_matches_exact(language, bag, resilience_one_dangling(language, bag))

    def test_solver_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLOW_SOLVER", "reference")
        assert default_flow_solver() == "reference"
        monkeypatch.setenv("REPRO_FLOW_SOLVER", "bogus")
        with pytest.raises(ReproError):
            default_flow_solver()
        with pytest.raises(ReproError):
            resilience("ax*b", generators.layered_flow_database(2, 2, seed=0))
        monkeypatch.delenv("REPRO_FLOW_SOLVER")
        assert default_flow_solver() == "fast"


class TestSubstrateReuse:
    def test_product_substrate_is_cached_on_the_index(self):
        bag = generators.layered_flow_database(3, 3, seed=1)
        index = bag.index()
        assert product_substrate(index) is product_substrate(index)
        assert bag.index() is index  # the substrate lives as long as the index

    def test_bcl_substrate_memoizes_letter_pairs(self):
        bag = _random_bag(0, alphabet="abc")
        substrate = bcl_substrate(bag.index())
        first = substrate.pair_arcs("a", "b")
        assert substrate.pair_arcs("a", "b") is first
        assert substrate.memoized_pairs == 1

    def test_two_queries_share_one_substrate_and_match_uncached_results(self):
        database = generators.random_labelled_graph(5, 12, "axbe", seed=2)
        shared = resilience_many(["ax*b", "ax*b|ax*e", "ax*b"], database)

        index = database.unit_bag().index()
        substrate = product_substrate(index)
        assert len(index.substrates) == 1
        # Three flow queries, two distinct classes: the substrate was built
        # once; the repeat class hit the compiled-graph cache (or, above it,
        # the result cache — either way, no rebuild).
        assert substrate.graphs_compiled >= 1
        assert substrate.graphs_compiled + substrate.graph_hits >= 2

        # Fresh, uncached databases (equal content) give identical outcomes.
        for query, result in zip(["ax*b", "ax*b|ax*e", "ax*b"], shared):
            fresh = generators.random_labelled_graph(5, 12, "axbe", seed=2)
            assert resilience(query, fresh) == result

    def test_repeated_query_class_hits_the_compiled_graph_cache(self):
        bag = generators.layered_flow_database(3, 3, seed=5)
        language = Language.from_regex("ax*b")
        first = resilience_local(language, bag)
        substrate = product_substrate(bag.index())
        compiled_before = substrate.graphs_compiled
        second = resilience_local(language, bag)
        assert second == first
        assert substrate.graphs_compiled == compiled_before
        assert substrate.graph_hits >= 1

    def test_solvers_agree_on_a_compiled_product_graph(self):
        bag = generators.layered_flow_database(3, 3, seed=7)
        automaton = read_once.read_once_automaton(Language.from_regex("ax*b"))
        graph = compile_product_graph(automaton, bag.index())
        fast = min_cut_compiled(graph)
        assert fast.value > 0
        assert fast == min_cut_reference(graph)

    def test_solvers_agree_on_a_compiled_bcl_graph(self):
        structure = chain.bcl_structure(Language.from_regex("ab|bc"))
        graph = compile_bcl_graph(structure, _random_bag(3, alphabet="abc").index())
        assert min_cut_compiled(graph) == min_cut_reference(graph)
