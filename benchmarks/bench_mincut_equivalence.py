"""E-MINCUT: the introduction's claim that RES_bag(a x* b) is MinCut."""

import pytest

from repro.flow import FlowGraphBuilder, min_cut_compiled
from repro.graphdb import generators
from repro.languages import Language
from repro.resilience import resilience_local


@pytest.mark.parametrize("seed", range(5))
def test_resilience_equals_mincut(seed):
    bag = generators.layered_flow_database(4, 3, seed=seed)
    resilience_value = resilience_local(Language.from_regex("ax*b"), bag).value
    multiplicities = bag.multiplicities()
    node_ids = {"SRC": 0, "SNK": 1}
    for fact in multiplicities:
        node_ids.setdefault(fact.source, len(node_ids))
        node_ids.setdefault(fact.target, len(node_ids))
    network = FlowGraphBuilder(len(node_ids))
    for fact, multiplicity in multiplicities.items():
        network.add(node_ids[fact.source], node_ids[fact.target], multiplicity)
    assert resilience_value == min_cut_compiled(network.build(0, 1)).value


def test_resilience_vs_direct_mincut_timing(benchmark):
    bag = generators.layered_flow_database(6, 5, seed=3)
    language = Language.from_regex("ax*b")
    value = benchmark(lambda: resilience_local(language, bag).value)
    assert value > 0
