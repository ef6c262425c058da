"""Tests for the min-cut solvers on compiled flow graphs (Dinic max-flow / min-cut).

Every case runs against both solvers: the fast blocking-flow
:func:`~repro.flow.min_cut_compiled` and the textbook
:func:`~repro.flow.min_cut_reference`.
"""

import math
import random

import pytest

from repro.flow import INFINITY, FlowGraphBuilder, min_cut_compiled, min_cut_reference

S, T, U, V, M = 0, 1, 2, 3, 4


@pytest.fixture(params=[min_cut_compiled, min_cut_reference], ids=["fast", "reference"])
def solve(request):
    return request.param


def build(edges, *, num_nodes=5, source=S, target=T):
    """Compile ``(tail, head, capacity[, key])`` tuples into a flow graph."""
    builder = FlowGraphBuilder(num_nodes)
    for tail, head, capacity, *key in edges:
        if capacity == INFINITY:
            builder.add_infinite(tail, head, *key)
        else:
            builder.add(tail, head, capacity, *key)
    return builder.build(source, target)


def diamond_graph(cap_left=3, cap_right=2):
    return build(
        [
            (S, U, cap_left, "su"),
            (S, V, cap_right, "sv"),
            (U, T, cap_right, "ut"),
            (V, T, cap_left, "vt"),
            (U, V, 1, "uv"),
        ]
    )


def is_cut(graph, cut_edges) -> bool:
    """Whether removing ``cut_edges`` disconnects the target from the source."""
    removed = set(cut_edges)
    successors = {}
    for edge, position in enumerate(graph.forward_pos):
        if edge not in removed:
            tail = graph.arc_head[graph.arc_rev[position]]
            successors.setdefault(tail, []).append(graph.arc_head[position])
    seen = {graph.source}
    stack = [graph.source]
    while stack:
        node = stack.pop()
        for head in successors.get(node, ()):
            if head not in seen:
                seen.add(head)
                stack.append(head)
    return graph.target not in seen


class TestMinCutValues:
    def test_single_edge(self, solve):
        assert solve(build([(S, T, 7)])).value == 7

    def test_two_parallel_edges(self, solve):
        assert solve(build([(S, T, 2), (S, T, 3)])).value == 5

    def test_series_takes_minimum(self, solve):
        assert solve(build([(S, M, 5), (M, T, 2)])).value == 2

    def test_diamond(self, solve):
        # Max flow: 2 along s-u-t, 2 along s-v-t, and 1 along s-u-v-t.
        assert solve(diamond_graph()).value == 5

    def test_disconnected(self, solve):
        assert solve(build([(S, U, 4)])).value == 0

    def test_infinite_cut(self, solve):
        assert solve(build([(S, M, INFINITY), (M, T, INFINITY)])).value == math.inf

    def test_infinite_edge_bypassed_by_finite_cut(self, solve):
        assert solve(build([(S, M, INFINITY), (M, T, 3)])).value == 3

    def test_bigger_layered_network(self, solve):
        edges = []
        for index in range(5):
            left, right = 2 + 2 * index, 3 + 2 * index
            edges += [(S, left, 2), (left, right, 1), (right, T, 2)]
        assert solve(build(edges, num_nodes=12)).value == 5


class TestCapacityArithmetic:
    def test_integral_capacities_stay_exact(self, solve):
        # Capacities are exact ints; the total is snapped to a float int.
        value = solve(diamond_graph()).value
        assert value == 5
        assert isinstance(value, float)

    def test_mixed_integral_and_infinite_capacities_snap(self, solve):
        value = solve(build([(S, M, INFINITY), (M, T, 4)])).value
        assert value == 4
        assert isinstance(value, float)


class TestCutEdges:
    def test_cut_edges_form_a_cut(self, solve):
        graph = diamond_graph()
        result = solve(graph)
        assert is_cut(graph, result.cut_edges)
        capacity = sum(graph.arc_capacity[graph.forward_pos[edge]] for edge in result.cut_edges)
        assert capacity == result.value

    def test_cut_keys_round_trip(self, solve):
        result = solve(build([(S, M, 5, "first"), (M, T, 2, "second")]))
        assert result.cut_keys == ("second",)

    def test_zero_capacity_edges_are_ignored(self, solve):
        graph = build([(S, T, 0)])
        assert graph.num_edges == 0
        assert solve(graph).value == 0
        assert is_cut(graph, ())

    def test_negative_capacity_edges_are_dropped(self, solve):
        # The builder drops non-positive capacities on the spot.
        graph = build([(S, T, -1), (S, T, 2)])
        assert graph.num_edges == 1
        assert solve(graph).value == 2


class TestAgainstNetworkx:
    def test_random_networks_match_networkx(self, solve):
        networkx = pytest.importorskip("networkx")

        for seed in range(8):
            rng = random.Random(seed)
            graph = networkx.DiGraph()
            edges = []
            for _ in range(20):
                left, right = rng.randrange(8), rng.randrange(8)
                if left == right:
                    continue
                capacity = rng.randint(1, 9)
                edges.append((left, right, capacity))
                if graph.has_edge(left, right):
                    graph[left][right]["capacity"] += capacity
                else:
                    graph.add_edge(left, right, capacity=capacity)
            graph.add_node(0)
            graph.add_node(7)
            expected = networkx.maximum_flow_value(graph, 0, 7)
            assert solve(build(edges, num_nodes=8, source=0, target=7)).value == expected, seed
