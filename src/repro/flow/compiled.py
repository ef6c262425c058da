"""Array-native flow core: compiled residual graphs and two Dinic solvers.

All three tractable resilience algorithms of the paper reduce to MinCut, and
they all solve it on one representation: a :class:`CompiledFlowGraph` stores
the residual graph as flat ``array('l')`` columns in CSR form — dense node
ids, per-node contiguous arc ranges, explicit reverse-arc indices.  Two solvers
run on those arrays: :func:`min_cut_compiled` (the fast path, a true
blocking-flow DFS) and :func:`min_cut_reference` (textbook Dinic, the
differential reference).

Representation invariants:

* **Dense node ids.**  Nodes are ``0 .. num_nodes-1``; callers (the reduction
  compilers in :mod:`repro.flow.substrate`) assign ids arithmetically, so no
  tuples are ever hashed or sorted while solving.  :meth:`FlowGraphBuilder.build`
  then renumbers the ids of the trimmed core densely, in the callers' id
  order, so the arrays are sized by the core rather than by the id space.
* **CSR arcs.**  Residual arcs are numbered by *position*: node ``v``'s arcs
  occupy ``adj_start[v] .. adj_start[v+1] - 1`` of the flat ``arc_head`` /
  ``arc_capacity`` / ``arc_rev`` arrays, so the solver's cursors are plain
  array indices and an arc id needs no indirection to find its capacity.
  ``arc_rev[p]`` is the position of arc ``p``'s reverse arc; edge ``e``'s
  forward arc sits at ``forward_pos[e]``.
* **Exact arithmetic.**  Capacities are database multiplicities, which are
  Python ints (:class:`~repro.graphdb.database.BagGraphDatabase` rejects
  anything else), so the whole computation is exact; the final value is
  snapped to ``float``.
* **∞ sentinel.**  Infinite capacities are stored as the explicit sentinel
  ``math.inf``; an augmenting path whose bottleneck is the sentinel proves no
  finite cut exists, and the solver returns infinity without ever doing
  ``inf - inf`` arithmetic.
* **Canonical cuts.**  After any exact maximum flow, the set of nodes
  reachable from the source in the residual graph is the unique
  inclusion-minimal min-cut source side — it does not depend on augmentation
  order.  Both solvers therefore return the *same* cut edges on the same
  graph, which is what lets the serving layer force either solver and get
  byte-identical outcomes (pinned by the conformance suite and ``tools/ci.sh``).

:func:`solve_min_cut` is the reductions' entry point, honouring the
``REPRO_FLOW_SOLVER`` environment variable (``"fast"`` — the default — or
``"reference"``).
"""

from __future__ import annotations

import math
import os
from array import array
from collections import deque
from dataclasses import dataclass

from ..exceptions import ReproError

INFINITY = math.inf

#: Environment variable selecting the min-cut solver used by the resilience
#: reductions: ``"fast"`` (:func:`min_cut_compiled`, default) or
#: ``"reference"`` (:func:`min_cut_reference`).
FLOW_SOLVER_ENV = "REPRO_FLOW_SOLVER"

_SOLVERS = ("fast", "reference")


def default_flow_solver() -> str:
    """Return the solver selected by ``REPRO_FLOW_SOLVER`` (default ``"fast"``)."""
    mode = os.environ.get(FLOW_SOLVER_ENV, "fast")
    if mode not in _SOLVERS:
        raise ReproError(
            f"unknown flow solver {mode!r} in ${FLOW_SOLVER_ENV} (expected one of {_SOLVERS})"
        )
    return mode


class CompiledFlowGraph:
    """An immutable residual flow graph compiled to flat CSR arrays.

    The four index columns (``adj_start``, ``arc_head``, ``arc_rev``,
    ``forward_pos``) are ``array('l')``: a cached graph then costs 8 bytes
    per entry instead of a list slot plus an int object.  The capacities stay
    a list, because they mix exact ints with the ``math.inf`` sentinel.

    Attributes:
        num_nodes: number of dense node ids (``0 .. num_nodes-1``): the
            trimmed core plus the source and target.
        source, target: dense ids of the source and target.
        num_edges: number of *edges* (each edge owns a forward and a backward
            residual arc).
        adj_start: CSR offsets (length ``num_nodes + 1``): node ``v``'s arcs
            are positions ``adj_start[v] .. adj_start[v+1] - 1``.
        arc_head: head node of the arc at each position (length ``2 * num_edges``).
        arc_capacity: capacity at each position — exact ints for finite
            forward arcs, the ``math.inf`` sentinel for infinite ones, ``0``
            for backward arcs.
        arc_rev: position of each arc's reverse arc.
        forward_pos: position of each edge's forward arc (length ``num_edges``).
        arc_key: per-edge key (length ``num_edges``): the
            :class:`~repro.graphdb.database.Fact` a finite product arc encodes,
            ``None`` for structural (infinite) arcs.
    """

    __slots__ = (
        "num_nodes",
        "source",
        "target",
        "num_edges",
        "adj_start",
        "arc_head",
        "arc_capacity",
        "arc_rev",
        "forward_pos",
        "arc_key",
    )

    def __init__(
        self,
        num_nodes: int,
        source: int,
        target: int,
        adj_start: array,
        arc_head: array,
        arc_capacity: list,
        arc_rev: array,
        forward_pos: array,
        arc_key: list,
    ) -> None:
        self.num_nodes = num_nodes
        self.source = source
        self.target = target
        self.num_edges = len(arc_key)
        self.adj_start = adj_start
        self.arc_head = arc_head
        self.arc_capacity = arc_capacity
        self.arc_rev = arc_rev
        self.forward_pos = forward_pos
        self.arc_key = arc_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledFlowGraph({self.num_nodes} nodes, {self.num_edges} edges)"


class FlowGraphBuilder:
    """Accumulates edges into the flat arrays of a :class:`CompiledFlowGraph`.

    Callers address nodes by dense int ids (``0 .. num_nodes-1``).  Zero (and
    negative) capacity edges are dropped on the spot: they can never carry
    flow nor appear in a cut, and skipping them keeps the solver's arrays free
    of dead weight.

    During accumulation the edge at index ``e`` is stored interleaved:
    ``_raw_target[2e]`` is its head, ``_raw_target[2e + 1]`` its tail, and
    ``_raw_capacity[2e]`` / ``_raw_capacity[2e + 1]`` its forward / backward
    (always 0) capacity; :meth:`build` rearranges the arcs into CSR order.
    """

    __slots__ = ("num_nodes", "_raw_target", "_raw_capacity", "_raw_key")

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self._raw_target: list[int] = []
        self._raw_capacity: list = []
        self._raw_key: list = []

    def add(self, source: int, target: int, capacity, key=None) -> None:
        """Add one finite-capacity edge (zero-capacity edges are dropped)."""
        if capacity <= 0:
            return
        self._raw_target.append(target)
        self._raw_target.append(source)
        self._raw_capacity.append(capacity)
        self._raw_capacity.append(0)
        self._raw_key.append(key)

    def add_infinite(self, source: int, target: int, key=None) -> None:
        """Add one ∞-capacity (structural) edge."""
        self._raw_target.append(target)
        self._raw_target.append(source)
        self._raw_capacity.append(INFINITY)
        self._raw_capacity.append(0)
        self._raw_key.append(key)

    def extend_infinite(self, pairs) -> None:
        """Bulk-add ∞-capacity edges from ``(source, target)`` pairs.

        The compilers' structural wiring (epsilon transitions, source/target
        attachments) is thousands of edges per graph; three C-level extends
        beat one Python call per edge.
        """
        interleaved = [node for source, target in pairs for node in (target, source)]
        count = len(interleaved) // 2
        self._raw_target.extend(interleaved)
        self._raw_capacity.extend((INFINITY, 0) * count)
        self._raw_key.extend((None,) * count)

    def extend_raw(self, targets_interleaved, capacities_interleaved, keys) -> None:
        """Bulk-add pre-interleaved arc columns (the substrate compilers' path).

        ``targets_interleaved`` alternates forward-arc head and tail (i.e.
        ``[head_0, tail_0, head_1, tail_1, ...]``), ``capacities_interleaved``
        alternates forward capacity and the backward 0, and ``keys`` holds one
        key per edge.  The caller guarantees positive capacities.
        """
        self._raw_target.extend(targets_interleaved)
        self._raw_capacity.extend(capacities_interleaved)
        self._raw_key.extend(keys)

    def build(self, source: int, target: int) -> CompiledFlowGraph:
        """Freeze the accumulated edges into a CSR :class:`CompiledFlowGraph`.

        The graph is restricted to its *useful* core first: nodes reachable
        from the source and co-reachable to the target along forward edges
        (the flow-network analogue of automaton trimming, Definition C.3).
        Trimming never changes the max-flow value nor the canonical cut edges
        — flow decomposes into source→target paths, which live entirely inside
        the useful core, and a dropped edge is never saturated, hence never
        crosses the residual-reachability cut — it only shrinks the arrays the
        solver sweeps each phase.

        The core (plus the source and target) is then renumbered densely in
        old-id order.  Relative node order is kept, so every node's arcs sit
        in the same edge order as before and the solvers take the same steps;
        edge ids, and hence cut edges and keys, are untouched.
        """
        raw_target = self._raw_target
        raw_capacity = self._raw_capacity
        useful = self._useful(source, target)
        core = sorted(useful | {source, target})
        new_id = {node: position for position, node in enumerate(core)}
        num_nodes = len(core)
        heads: list[int] = []
        tails: list[int] = []
        capacities: list = []
        keys: list = []
        for edge, key in enumerate(self._raw_key):
            head = raw_target[2 * edge]
            tail = raw_target[2 * edge + 1]
            if head in useful and tail in useful:
                heads.append(new_id[head])
                tails.append(new_id[tail])
                capacities.append(raw_capacity[2 * edge])
                keys.append(key)
        num_edges = len(keys)
        num_arcs = 2 * num_edges
        # Counting sort into CSR position order.
        counts = [0] * (num_nodes + 1)
        for tail in tails:
            counts[tail + 1] += 1
        for head in heads:
            counts[head + 1] += 1
        adj_start = counts
        for node in range(1, num_nodes + 1):
            adj_start[node] += adj_start[node - 1]
        cursor = adj_start[:-1]
        arc_head = [0] * num_arcs
        arc_capacity: list = [0] * num_arcs
        arc_rev = [0] * num_arcs
        forward_pos = [0] * num_edges
        for edge in range(num_edges):
            tail = tails[edge]
            head = heads[edge]
            forward_at = cursor[tail]
            cursor[tail] = forward_at + 1
            backward_at = cursor[head]
            cursor[head] = backward_at + 1
            arc_head[forward_at] = head
            arc_head[backward_at] = tail
            arc_capacity[forward_at] = capacities[edge]
            arc_rev[forward_at] = backward_at
            arc_rev[backward_at] = forward_at
            forward_pos[edge] = forward_at
        return CompiledFlowGraph(
            num_nodes,
            new_id[source],
            new_id[target],
            array("l", adj_start),
            array("l", arc_head),
            arc_capacity,
            array("l", arc_rev),
            array("l", forward_pos),
            keys,
        )

    def _useful(self, source: int, target: int) -> set[int]:
        """Nodes on some source→target path of forward edges (see :meth:`build`)."""
        heads = self._raw_target[0::2]
        tails = self._raw_target[1::2]
        successors: dict[int, list[int]] = {}
        predecessors: dict[int, list[int]] = {}
        for tail, head in zip(tails, heads):
            successors.setdefault(tail, []).append(head)
            predecessors.setdefault(head, []).append(tail)

        def closure(start: int, adjacency: dict[int, list[int]]) -> set[int]:
            seen = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbour in adjacency.get(node, ()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            return seen

        return closure(source, successors) & closure(target, predecessors)


@dataclass(frozen=True)
class CompiledCut:
    """A min-cut of a :class:`CompiledFlowGraph`.

    Attributes:
        value: minimum cut cost (``math.inf`` when no finite cut exists, a
            float of the exact int total otherwise).
        cut_edges: edge ids of one minimum cut, ascending (empty when the
            value is 0 or infinite).
        cut_keys: the keys of those edges, aligned with ``cut_edges``.
    """

    value: float
    cut_edges: tuple[int, ...]
    cut_keys: tuple


_INFINITE_CUT = CompiledCut(INFINITY, (), ())


def min_cut_compiled(graph: CompiledFlowGraph) -> CompiledCut:
    """Solve MinCut on a compiled graph with an array-native blocking-flow Dinic.

    The fast path.  Returns the same :class:`CompiledCut` as
    :func:`min_cut_reference` on every graph: the residual-reachable source
    side of an exact max flow is canonical.  That side is read off the last
    level BFS, the one that fails to reach the target.
    """
    source, target = graph.source, graph.target
    if source == target:
        return _INFINITE_CUT
    num_nodes = graph.num_nodes
    # The inner loops index these columns millions of times: list indexing
    # beats array indexing (no int boxing), so copy them once per solve.
    adj_start = list(graph.adj_start)
    arc_head = list(graph.arc_head)
    arc_rev = list(graph.arc_rev)
    caps = list(graph.arc_capacity)

    total = 0
    while True:
        # BFS phase: level graph over positive-residual arcs.  Expansion stops
        # at the target's level — deeper nodes cannot lie on a shortest
        # augmenting path, so leaving them at level -1 only prunes the DFS.
        level = [-1] * num_nodes
        level[source] = 0
        queue = deque((source,))
        target_level = -1
        while queue:
            node = queue.popleft()
            next_level = level[node] + 1
            if next_level == target_level:
                break
            for position in range(adj_start[node], adj_start[node + 1]):
                if caps[position] > 0:
                    head = arc_head[position]
                    if level[head] < 0:
                        level[head] = next_level
                        if head == target:
                            target_level = next_level
                        else:
                            queue.append(head)
        if target_level < 0:
            # No augmenting path: this last BFS ran to completion, so the
            # labelled nodes are exactly the residual-reachable source side.
            return _canonical_cut(graph, [depth >= 0 for depth in level], total)

        # Blocking-flow phase: one iterative DFS whose per-node cursors are
        # absolute positions into the CSR arrays.
        cursor = adj_start[:-1]
        path: list[int] = []
        node = source
        while True:
            if node == target:
                bottleneck = INFINITY
                first_min = -1
                for index, position in enumerate(path):
                    capacity = caps[position]
                    if capacity < bottleneck:
                        bottleneck = capacity
                        first_min = index
                if bottleneck == INFINITY:
                    # An all-∞ augmenting path: no finite cut exists.  Return
                    # before touching capacities (inf - inf is undefined).
                    return _INFINITE_CUT
                for position in path:
                    caps[position] -= bottleneck
                    caps[arc_rev[position]] += bottleneck
                total += bottleneck
                # Retreat to the first saturated arc (its capacity equalled
                # the bottleneck, so the subtraction zeroed it exactly) and
                # keep extending from its tail.
                node = arc_head[arc_rev[path[first_min]]]
                del path[first_min:]
                continue
            tail = node
            position = cursor[tail]
            end = adj_start[tail + 1]
            advanced = False
            next_level = level[tail] + 1
            while position < end:
                if caps[position] > 0:
                    head = arc_head[position]
                    if level[head] == next_level:
                        path.append(position)
                        node = head
                        advanced = True
                        break
                position += 1
            cursor[tail] = position
            if advanced:
                continue
            # Dead end: prune the node from the level graph and retreat.
            if not path:
                break
            level[node] = -1
            position = path.pop()
            node = arc_head[arc_rev[position]]
            cursor[node] += 1


def min_cut_reference(graph: CompiledFlowGraph) -> CompiledCut:
    """Solve MinCut on a compiled graph with textbook Dinic: the reference.

    Each phase computes full BFS levels, then finds one augmenting path per
    DFS — restarted from the source after every push — retreating one step at
    a dead end.  Slower than :func:`min_cut_compiled` but simple enough to
    check by eye; the two solvers are differential twins on the same arrays.
    """
    source, target = graph.source, graph.target
    if source == target:
        return _INFINITE_CUT
    num_nodes = graph.num_nodes
    adj_start = graph.adj_start
    arc_head = graph.arc_head
    caps = list(graph.arc_capacity)
    total = 0
    while True:
        level = [-1] * num_nodes
        level[source] = 0
        queue = deque((source,))
        while queue:
            node = queue.popleft()
            for position in range(adj_start[node], adj_start[node + 1]):
                head = arc_head[position]
                if caps[position] > 0 and level[head] < 0:
                    level[head] = level[node] + 1
                    queue.append(head)
        if level[target] < 0:
            break
        cursor = adj_start[:-1]
        while True:
            pushed = _augment_once(graph, caps, level, cursor)
            if pushed == INFINITY:
                return _INFINITE_CUT
            if pushed == 0:
                break
            total += pushed
    return _canonical_cut(graph, _residual_reachable(graph, caps), total)


def _augment_once(graph: CompiledFlowGraph, caps: list, level: list[int], cursor: list[int]):
    """Find one augmenting path in the level graph and push flow along it.

    Returns the amount pushed (0 when no augmenting path remains,
    ``INFINITY`` — without touching ``caps`` — when an all-∞ path is found).
    """
    adj_start = graph.adj_start
    arc_head = graph.arc_head
    arc_rev = graph.arc_rev
    target = graph.target
    path: list[int] = []
    node = graph.source
    while True:
        if node == target:
            bottleneck = min(caps[position] for position in path)
            if bottleneck == INFINITY:
                return INFINITY
            for position in path:
                caps[position] -= bottleneck
                caps[arc_rev[position]] += bottleneck
            return bottleneck
        advanced = False
        while cursor[node] < adj_start[node + 1]:
            position = cursor[node]
            if caps[position] > 0 and level[node] < level[arc_head[position]]:
                path.append(position)
                node = arc_head[position]
                advanced = True
                break
            cursor[node] += 1
        if advanced:
            continue
        # Dead end: retreat one step (and make sure we do not retry this arc).
        if not path:
            return 0
        level[node] = -1
        node = arc_head[arc_rev[path.pop()]]
        cursor[node] += 1


def _residual_reachable(graph: CompiledFlowGraph, caps: list) -> bytearray:
    """Mark the nodes reachable from the source over positive residual arcs."""
    adj_start = graph.adj_start
    arc_head = graph.arc_head
    seen = bytearray(graph.num_nodes)
    seen[graph.source] = 1
    stack = [graph.source]
    while stack:
        node = stack.pop()
        for position in range(adj_start[node], adj_start[node + 1]):
            if caps[position] > 0:
                head = arc_head[position]
                if not seen[head]:
                    seen[head] = 1
                    stack.append(head)
    return seen


def _canonical_cut(graph: CompiledFlowGraph, source_side, total) -> CompiledCut:
    """Build the canonical min cut from a maximum flow's residual source side.

    ``source_side[node]`` is true exactly for the nodes still reachable from
    the source in the residual graph; the cut is the set of edges leaving
    them, which does not depend on which maximum flow was found.
    """
    arc_head = graph.arc_head
    arc_rev = graph.arc_rev
    original = graph.arc_capacity
    cut_edges = tuple(
        edge
        for edge, position in enumerate(graph.forward_pos)
        if source_side[arc_head[arc_rev[position]]]
        and not source_side[arc_head[position]]
        and original[position] > 0
    )
    return CompiledCut(
        # repro: allow[exact-float-cast] -- sanctioned result snap: the exact
        # int total is reported as a float, the resilience value format
        float(total),
        cut_edges,
        tuple(graph.arc_key[edge] for edge in cut_edges),
    )


def solve_min_cut(graph: CompiledFlowGraph) -> CompiledCut:
    """Solve a compiled graph with the solver ``REPRO_FLOW_SOLVER`` selects.

    ``"fast"`` (the default) runs :func:`min_cut_compiled`, ``"reference"``
    runs :func:`min_cut_reference`; both return identical cuts, which the
    conformance CI asserts byte for byte.
    """
    if default_flow_solver() == "reference":
        return min_cut_reference(graph)
    return min_cut_compiled(graph)
