"""Network-flow core: one compiled CSR graph representation, the per-database
substrates the reductions compile it from, and two min-cut solvers on it (the
fast blocking-flow Dinic and the textbook reference).

See ``src/repro/flow/README.md`` for the compiled-graph layout, the exactness
invariants and the substrate lifecycle.
"""

from .compiled import (
    FLOW_SOLVER_ENV,
    INFINITY,
    CompiledCut,
    CompiledFlowGraph,
    FlowGraphBuilder,
    default_flow_solver,
    min_cut_compiled,
    min_cut_reference,
    solve_min_cut,
)
from .substrate import (
    BclSubstrate,
    ProductSubstrate,
    bcl_substrate,
    compile_bcl_graph,
    compile_product_graph,
    product_substrate,
)

__all__ = [
    "FLOW_SOLVER_ENV",
    "INFINITY",
    "BclSubstrate",
    "CompiledCut",
    "CompiledFlowGraph",
    "FlowGraphBuilder",
    "ProductSubstrate",
    "bcl_substrate",
    "compile_bcl_graph",
    "compile_product_graph",
    "default_flow_solver",
    "min_cut_compiled",
    "min_cut_reference",
    "product_substrate",
    "solve_min_cut",
]
