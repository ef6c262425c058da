"""Tests for the Theorem 3.13 MinCut reduction (local languages)."""

import pytest

from repro.exceptions import NotLocalError
from repro.flow import INFINITY, FlowGraphBuilder, compile_product_graph, min_cut_compiled
from repro.graphdb import BagGraphDatabase, GraphDatabase, generators
from repro.languages import Language
from repro.resilience import (
    resilience_exact,
    resilience_local,
    verify_contingency_set,
)
from repro.languages import read_once


class TestProductNetwork:
    @pytest.mark.parametrize("seed", range(4))
    def test_one_finite_arc_per_matched_fact(self, seed):
        # Every fact whose label the automaton reads gets exactly one finite
        # arc; the compiled graph is trimmed to its useful core, so the arcs
        # that survive are exactly those of facts on some match.
        words = {"ab", "ad", "cd"}
        language = Language.from_regex("ab|ad|cd")
        automaton = read_once.read_once_automaton(language)
        database = generators.random_labelled_graph(4, 8, "abcd", seed=seed).to_bag(1)
        graph = compile_product_graph(automaton, database.index())
        finite_keys = [
            graph.arc_key[edge]
            for edge, position in enumerate(graph.forward_pos)
            if graph.arc_capacity[position] != INFINITY
        ]
        matched = {
            fact
            for first in database.facts
            for second in database.facts
            if first.target == second.source and first.label + second.label in words
            for fact in (first, second)
        }
        assert len(finite_keys) == len(set(finite_keys))
        assert set(finite_keys) == matched

    def test_rejects_non_read_once_automaton(self):
        language = Language.from_regex("ab|ad|cd")
        database = GraphDatabase.from_edges([("u", "a", "v")]).to_bag(1)
        with pytest.raises(NotLocalError):
            compile_product_graph(language.automaton, database.index())


class TestCorrectness:
    @pytest.mark.parametrize("expression", ["ax*b", "ab|ad|cd", "abc|abd", "a|b", "axb|axc"])
    def test_agrees_with_exact_on_random_set_databases(self, expression):
        language = Language.from_regex(expression)
        alphabet = "".join(sorted(language.alphabet))
        for seed in range(5):
            database = generators.random_labelled_graph(5, 10, alphabet, seed=seed)
            flow_result = resilience_local(language, database)
            exact_result = resilience_exact(language, database)
            assert flow_result.value == exact_result.value, (expression, seed)
            assert verify_contingency_set(language, database, flow_result), (expression, seed)

    def test_agrees_with_exact_on_bag_databases(self):
        language = Language.from_regex("ab|ad|cd")
        for seed in range(5):
            bag = generators.random_bag_database(5, 10, "abcd", seed=seed, max_multiplicity=6)
            flow_result = resilience_local(language, bag)
            exact_result = resilience_exact(language, bag)
            assert flow_result.value == exact_result.value, seed
            assert verify_contingency_set(language, bag, flow_result), seed

    def test_mincut_connection_on_layered_flow(self):
        # Section 1: RES_bag(a x* b) on a flow-network database equals MinCut.
        bag = generators.layered_flow_database(3, 3, seed=4)
        result = resilience_local(Language.from_regex("ax*b"), bag)
        multiplicities = bag.multiplicities()
        node_ids = {"SRC": 0, "SNK": 1}
        for fact in multiplicities:
            node_ids.setdefault(fact.source, len(node_ids))
            node_ids.setdefault(fact.target, len(node_ids))
        builder = FlowGraphBuilder(len(node_ids))
        for fact, multiplicity in multiplicities.items():
            builder.add(node_ids[fact.source], node_ids[fact.target], multiplicity)
        assert result.value == min_cut_compiled(builder.build(0, 1)).value

    def test_raises_for_non_local_language(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        with pytest.raises(NotLocalError):
            resilience_local(Language.from_regex("aa"), database)

    def test_unchecked_combined_complexity_mode(self):
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "x", "v"), ("v", "b", "t")])
        result = resilience_local(Language.from_regex("ax*b"), database, check_local=False)
        assert result.value == 1

    def test_epsilon_language(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        result = resilience_local(Language.from_regex("ε|a"), database)
        assert result.is_infinite

    def test_query_false_gives_zero(self):
        database = GraphDatabase.from_edges([("u", "z", "v")])
        result = resilience_local(Language.from_regex("ab|ad|cd"), database)
        assert result.value == 0
        assert result.contingency_set == frozenset()

    def test_if_of_language_used_transparently(self):
        # L0 = a | aa: IF(L0) = a is local; the engine handles this (Section 3.2).
        from repro.resilience import resilience

        database = GraphDatabase.from_edges([("u", "a", "v"), ("v", "a", "w")])
        result = resilience(Language.from_regex("a|aa"), database)
        assert result.value == 2

    def test_details_contain_network_size(self):
        # The sizes are the compiled product graph's (trimmed to its useful
        # core), so a database with an actual a-x*-b path is needed for the
        # edge count to be positive.
        bag = generators.layered_flow_database(3, 3, seed=4)
        result = resilience_local(Language.from_regex("ax*b"), bag)
        assert result.value > 0
        assert result.details["network_nodes"] > 0
        assert result.details["network_edges"] > 0

    def test_details_network_empty_when_query_cannot_match(self):
        # No a-x*-b path: the trimmed product graph is empty and resilience 0.
        database = generators.random_labelled_graph(4, 6, "axb", seed=0)
        result = resilience_local(Language.from_regex("ax*b"), database)
        assert result.value == 0
        assert result.details["network_edges"] == 0
