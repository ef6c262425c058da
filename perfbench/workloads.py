"""The four fixed-work workloads: inputs, set-up, one timed pass, checks.

Every workload turns ``(seed, seconds)`` into a fixed list of calls before
anything is timed: ``seconds`` only scales the length of that list through a
nominal per-call cost, so the same arguments always do the same work and
produce the same outcomes.  No call carries a wall-clock budget, deadline or
pacing; the only budget is a deterministic ``max_nodes``.
"""

from __future__ import annotations

import asyncio
import os
import random
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.exceptions import SearchBudgetExceeded
from repro.graphdb import generators
from repro.graphdb.database import BagGraphDatabase, GraphDatabase
from repro.languages.automata import compile_automaton
from repro.languages.core import Language
from repro.languages.examples import FIGURE_1_LANGUAGES, PTIME
from repro.resilience.engine import (
    LanguageCache,
    choose_method,
    resilience,
    resilience_many,
    verify_contingency_set,
    warm_database,
)
from repro.resilience.result import ResilienceResult
from repro.service import AsyncResilienceServer, ThreadExchange
from repro.service.exchange.base import WorkloadEnvelope
from repro.service.workload import Workload as ServiceWorkload
from repro.traffic import DatabaseSpec, TrafficProfile, generate_traffic

OK = "ok"
BUDGET = "budget-exceeded"

PTIME_REGEXES = tuple(e.regex for e in FIGURE_1_LANGUAGES if e.complexity == PTIME)
HARD_REGEXES = tuple(e.regex for e in FIGURE_1_LANGUAGES if e.complexity != PTIME)


@dataclass
class Outcome:
    """One waited-on call: its pair key, status and answer."""

    key: tuple
    status: str
    method: str | None = None
    value: float | None = None
    nodes: int | None = None
    result: ResilienceResult | None = None

    def signature(self) -> tuple:
        return (self.key, self.status, self.method, self.value, self.nodes)


@dataclass
class Pass:
    """What one timed pass produced."""

    latencies: list[float]
    outcomes: list[Outcome]
    wall: float
    extras: dict = field(default_factory=dict)


def _sub_seed(seed: int, tag: str) -> int:
    return random.Random(f"{seed}:{tag}").randrange(2**31)


def sorted_facts(num_nodes: int, num_edges: int, alphabet: str, seed: int) -> list:
    """``random_labelled_graph``'s facts in a process-independent order."""
    graph = generators.random_labelled_graph(num_nodes, num_edges, alphabet, seed=seed)
    return sorted(graph.facts, key=repr)


def bag_multiplicities(num_nodes: int, num_edges: int, alphabet: str, seed: int, top: int) -> dict:
    """A random bag like ``random_bag_database``'s, reproducible across processes.

    ``random_bag_database`` draws multiplicities while iterating a frozenset
    of facts, so its bag depends on ``PYTHONHASHSEED``; here the draws follow
    the facts' sorted order instead.
    """
    rng = random.Random(seed)
    return {fact: rng.randint(1, top) for fact in sorted_facts(num_nodes, num_edges, alphabet, seed)}


def _engine_outcome(key, call) -> Outcome:
    try:
        result = call()
    except SearchBudgetExceeded as error:
        return Outcome(key, BUDGET, "exact", None, error.nodes_explored)
    return Outcome(
        key,
        OK,
        result.method,
        result.value,
        result.details.get("nodes_explored") if result.details else None,
        result,
    )


def run_calls(calls, recorder) -> Pass:
    """Time each call of a list of ``(key, thunk)`` pairs, closed loop.

    With a recorder, each call is one request whose root span is
    ``resilience.call``; its self time is the engine's own residual work.
    """
    latencies: list[float] = []
    outcomes: list[Outcome] = []
    start = perf_counter()
    for position, (key, call) in enumerate(calls):
        if recorder is not None:
            recorder.request = position
            token = recorder.open()
        began = perf_counter()
        outcome = _engine_outcome(key, call)
        latencies.append(perf_counter() - began)
        if recorder is not None:
            recorder.close("resilience.call", token)
            recorder.request = None
        outcomes.append(outcome)
    return Pass(latencies, outcomes, perf_counter() - start)


def check_answers(pairs, outcomes, reference=None) -> list[tuple]:
    """Verify each distinct pair's answer once and its repeats against it.

    ``pairs`` maps a pair key to ``(query, database)``.  Every ``ok`` answer
    must pass :func:`verify_contingency_set`; every repeat of a pair must have
    the first answer's status, method, value and search-node count; and, when
    given, ``reference`` (key -> outcome) must agree on value and cut.
    Returns ``(key, message)`` per problem.
    """
    problems: list[tuple] = []
    first: dict[tuple, Outcome] = {}
    for outcome in outcomes:
        seen = first.setdefault(outcome.key, outcome)
        if seen is not outcome and seen.signature() != outcome.signature():
            problems.append((outcome.key, f"repeat differs: {seen.signature()} vs {outcome.signature()}"))
    for key, outcome in first.items():
        if outcome.status != OK:
            continue
        query, database = pairs[key]
        if not verify_contingency_set(query, database, outcome.result):
            problems.append((key, "contingency set fails verification"))
        if reference is not None:
            expected = reference[key].result
            if (expected.value, expected.contingency_set) != (outcome.value, outcome.result.contingency_set):
                problems.append((key, f"reference solver gives {expected.value}, fast path {outcome.value}"))
    return problems


class BenchWorkload:
    """Hooks every workload has; the engine workloads need no tear-down."""

    #: Whether the traced pass must run on its own fresh set-up (cold caches).
    trace_needs_fresh_state = False

    def close(self, state) -> None:
        pass

    def warm(self, state) -> None:
        """Untimed work between set-up and the timed pass."""


# --------------------------------------------------------------------------- flow-12k


class Flow12k(BenchWorkload):
    """The 9 PTIME Figure-1 regexes on two ~12k-fact set and two bag databases."""

    name = "flow-12k"
    cache_state = "analysis-warm, result-cold (flow substrates warm)"
    setup_repeats = 3
    #: Calls per round and the nominal seconds one round takes on 2 CPUs.
    FAST_REPEATS, SLOW_REPEATS, ROUND_SECONDS = 3, 1, 6.0
    #: Two databases per semantics, so the p50 does not hinge on the cost
    #: order of a handful of pairs.
    COPIES = 2

    def __init__(self, seed: int, seconds: int) -> None:
        self.rounds = max(2, round(seconds / self.ROUND_SECONDS))
        alphabet = "abcdefxy"
        self.set_facts = [
            sorted_facts(2000, 12000, alphabet, _sub_seed(seed, f"set{copy}")) for copy in range(self.COPIES)
        ]
        self.bag_multiplicities = [
            bag_multiplicities(2000, 12000, alphabet, _sub_seed(seed, f"bag{copy}"), 10)
            for copy in range(self.COPIES)
        ]
        self.order_seed = _sub_seed(seed, "order")

    def setup(self):
        databases = {}
        for copy in range(self.COPIES):
            databases[f"set{copy}"] = GraphDatabase(self.set_facts[copy])
            databases[f"bag{copy}"] = BagGraphDatabase(self.bag_multiplicities[copy])
        for database in databases.values():
            warm_database(database)
        languages = {regex: Language.from_regex(regex) for regex in PTIME_REGEXES}
        methods = {regex: choose_method(language) for regex, language in languages.items()}
        return {"databases": databases, "languages": languages, "methods": methods}

    def pairs(self, state):
        return {
            (regex, db_name): (state["languages"][regex], database)
            for db_name, database in state["databases"].items()
            for regex in PTIME_REGEXES
        }

    def round_keys(self, state) -> list[tuple]:
        keys = []
        for (regex, db_name) in self.pairs(state):
            slow = state["methods"][regex] == "one-dangling-flow"
            keys += [(regex, db_name)] * (self.SLOW_REPEATS if slow else self.FAST_REPEATS)
        random.Random(self.order_seed).shuffle(keys)
        return keys

    def warm(self, state) -> None:
        """Untimed round: builds substrates and compiled graphs, and answers
        every distinct pair once with the reference min-cut solver."""
        pairs = self.pairs(state)
        previous = os.environ.get("REPRO_FLOW_SOLVER")
        os.environ["REPRO_FLOW_SOLVER"] = "reference"
        try:
            state["reference"] = {
                key: _engine_outcome(key, lambda q=query, d=database: resilience(q, d))
                for key, (query, database) in pairs.items()
            }
        finally:
            if previous is None:
                del os.environ["REPRO_FLOW_SOLVER"]
            else:
                os.environ["REPRO_FLOW_SOLVER"] = previous

    def run(self, state, recorder) -> Pass:
        pairs = self.pairs(state)
        calls = []
        for _ in range(self.rounds):
            for key in self.round_keys(state):
                query, database = pairs[key]
                calls.append((key, lambda q=query, d=database: resilience(q, d)))
        return run_calls(calls, recorder)

    def check(self, state, result: Pass) -> list[tuple]:
        return check_answers(self.pairs(state), result.outcomes, state["reference"])

    def describe(self, state) -> dict:
        keys = self.round_keys(state)
        shares: dict[str, float] = {}
        for regex, _ in keys:
            method = state["methods"][regex]
            shares[method] = shares.get(method, 0) + 1 / len(keys)
        fast = sum(share for method, share in shares.items() if method != "one-dangling-flow")
        return {
            "rounds": self.rounds,
            "calls_per_round": len(keys),
            "method_shares": {method: round(share, 4) for method, share in sorted(shares.items())},
            "fast_class_share": round(fast, 4),
            "facts": {
                "set": [len(facts) for facts in self.set_facts],
                "bag": [len(bag) for bag in self.bag_multiplicities],
            },
        }


# --------------------------------------------------------------------------- exact-hard


class ExactHard(BenchWorkload):
    """The 13 NP-hard and unclassified Figure-1 regexes under one node budget."""

    name = "exact-hard"
    cache_state = "analysis-warm, result-cold"
    setup_repeats = 5
    NODES, FACTS, MAX_NODES = 18, 56, 400
    #: Nominal seconds per database (13 calls).
    DATABASE_SECONDS = 0.03

    def __init__(self, seed: int, seconds: int) -> None:
        count = max(60, round(seconds / self.DATABASE_SECONDS))
        self.databases = []
        for position in range(count):
            db_seed = _sub_seed(seed, f"db{position}")
            if position % 2 == 0:
                self.databases.append(("set", sorted_facts(self.NODES, self.FACTS, "abcdefx", db_seed)))
            else:
                self.databases.append(
                    ("bag", bag_multiplicities(self.NODES, self.FACTS, "abcdefx", db_seed, 3))
                )

    def setup(self):
        databases = [
            GraphDatabase(facts) if kind == "set" else BagGraphDatabase(facts)
            for kind, facts in self.databases
        ]
        for database in databases:
            warm_database(database)
        languages = {regex: Language.from_regex(regex) for regex in HARD_REGEXES}
        for language in languages.values():
            language.infix_free()
        return {"databases": databases, "languages": languages}

    def pairs(self, state):
        return {
            (regex, position): (state["languages"][regex], database)
            for position, database in enumerate(state["databases"])
            for regex in HARD_REGEXES
        }

    def run(self, state, recorder) -> Pass:
        calls = [
            (key, lambda q=query, d=database: resilience(q, d, exact_max_nodes=self.MAX_NODES))
            for key, (query, database) in self.pairs(state).items()
        ]
        return run_calls(calls, recorder)

    def check(self, state, result: Pass) -> list[tuple]:
        return check_answers(self.pairs(state), result.outcomes)

    def describe(self, state) -> dict:
        return {
            "databases": len(self.databases),
            "database_size": {"nodes": self.NODES, "facts": self.FACTS},
            "max_nodes": self.MAX_NODES,
        }


# --------------------------------------------------------------------------- analysis-cold


def random_regex(rng: random.Random, alphabet: str, depth: int) -> tuple[str, bool, int]:
    """A random regex AST of at most ``depth`` operator levels.

    Returns ``(text, nullable, precedence)`` with precedence 0 for a union,
    1 for a concatenation and 2 for a letter or a star.
    """
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(alphabet), False, 2
    kind = rng.choice(("concat", "concat", "union", "star"))
    if kind == "star":
        text, _, precedence = random_regex(rng, alphabet, depth - 1)
        if text.endswith("*"):
            return text, True, precedence
        return (text if precedence == 2 else f"({text})") + "*", True, 2
    left, left_nullable, left_precedence = random_regex(rng, alphabet, depth - 1)
    right, right_nullable, right_precedence = random_regex(rng, alphabet, depth - 1)
    if kind == "union":
        return f"{left}|{right}", left_nullable or right_nullable, 0
    left = left if left_precedence >= 1 else f"({left})"
    right = right if right_precedence >= 1 else f"({right})"
    return left + right, left_nullable and right_nullable, 1


def distinct_regexes(seed: int, count: int, alphabet: str = "abcd", depth: int = 3) -> list[str]:
    """``count`` distinct epsilon-free regexes over ``alphabet``, seeded."""
    rng = random.Random(seed)
    seen: set[str] = set()
    regexes: list[str] = []
    while len(regexes) < count:
        text, nullable, _ = random_regex(rng, alphabet, depth)
        if nullable or text in seen:
            continue
        seen.add(text)
        regexes.append(text)
    return regexes


class AnalysisCold(BenchWorkload):
    """Distinct seeded regexes through ``resilience_many`` on tiny databases."""

    name = "analysis-cold"
    cache_state = "cold (one fresh LanguageCache per pass, plan cache cleared)"
    setup_repeats = 31
    trace_needs_fresh_state = True
    NODES, FACTS, MAX_NODES, DATABASES = 10, 28, 1000, 128
    #: Nominal seconds per regex.
    REGEX_SECONDS = 0.003

    def __init__(self, seed: int, seconds: int) -> None:
        self.regexes = distinct_regexes(_sub_seed(seed, "regexes"), max(1000, round(seconds / self.REGEX_SECONDS)))
        # Regex i runs on database i mod 128, so no single database's shape
        # sets the cost of the exact searches.
        self.facts = [
            sorted_facts(self.NODES, self.FACTS, "abcd", _sub_seed(seed, f"db{k}")) for k in range(self.DATABASES)
        ]

    def setup(self):
        databases = [GraphDatabase(facts) for facts in self.facts]
        for database in databases:
            warm_database(database)
        return {"databases": databases, "cache": LanguageCache()}

    def pairs(self, state):
        databases = state["databases"]
        return {
            (regex,): (regex, databases[position % len(databases)])
            for position, regex in enumerate(self.regexes)
        }

    def run(self, state, recorder) -> Pass:
        compile_automaton.cache_clear()
        cache = state["cache"]
        calls = [
            (
                key,
                lambda r=regex, d=database: resilience_many([r], d, cache=cache, exact_max_nodes=self.MAX_NODES)[0],
            )
            for key, (regex, database) in self.pairs(state).items()
        ]
        result = run_calls(calls, recorder)
        result.extras["cache"] = cache.stats.as_dict()
        return result

    def check(self, state, result: Pass) -> list[tuple]:
        return check_answers(self.pairs(state), result.outcomes)

    def describe(self, state) -> dict:
        return {
            "regexes": len(self.regexes),
            "databases": len(self.facts),
            "facts": [len(facts) for facts in self.facts],
            "max_nodes": self.MAX_NODES,
        }


# --------------------------------------------------------------------------- serve-zipf


class ServeZipf(BenchWorkload):
    """A seeded zipf trace served by two closed-loop clients over one node."""

    name = "serve-zipf"
    cache_state = "cold at start of each pass (result cache warms during it)"
    setup_repeats = 7
    trace_needs_fresh_state = True
    CLIENTS, MAX_WORKERS, MAX_NODES = 2, 2, 20_000
    #: Nominal seconds per request.
    REQUEST_SECONDS = 0.0015

    def __init__(self, seed: int, seconds: int) -> None:
        requests = max(600, round(seconds / self.REQUEST_SECONDS))
        databases = (
            DatabaseSpec(num_nodes=8, num_edges=24, alphabet="abcdefxy"),
            DatabaseSpec(num_nodes=7, num_edges=20, alphabet="abcdex", bag_copies=2),
            DatabaseSpec(num_nodes=9, num_edges=26, alphabet="abcdefxy"),
            DatabaseSpec(num_nodes=6, num_edges=18, alphabet="abcdefx", bag_copies=3),
        )
        # One trace per half of the catalogue, interleaved request by request,
        # so the share of exact-class specs (budgeted, never result-cached)
        # does not depend on which query the seed makes most popular.  Flow
        # queries keep the zipf skew the result cache is built for; exact
        # queries are drawn uniformly, since their popularity changes no
        # cache hit, only which search dominates the run.
        halves = [
            generate_traffic(
                TrafficProfile(
                    seed=_sub_seed(seed, f"traffic-{tag}"),
                    requests=(requests + 1 - position) // 2,
                    zipf_s=zipf_s,
                    catalogue=catalogue,
                    databases=databases,
                    deadline_fraction=0.0,
                    budget_fraction=0.0,
                    tight_budget_fraction=0.0,
                )
            )
            for position, (tag, catalogue, zipf_s) in enumerate(
                (("flow", PTIME_REGEXES, 1.1), ("hard", HARD_REGEXES, 0.0))
            )
        ]
        self.databases = halves[0].databases
        hard = set(HARD_REGEXES)
        self.requests = []
        for position in range(requests):
            request = halves[position % 2].requests[position // 2]
            # Every spec that can reach the exact search carries the node
            # budget; flow specs stay unbudgeted so the result cache can
            # answer their repeats.
            specs = tuple(
                replace(spec, max_nodes=self.MAX_NODES) if spec.query in hard else spec
                for spec in request.workload
            )
            self.requests.append(replace(request, seq=position, workload=ServiceWorkload(specs)))

    def setup(self):
        exchange = ThreadExchange(nodes=1, max_workers=self.MAX_WORKERS)
        server = AsyncResilienceServer(exchange)
        # Pools fork lazily on the first parallel request: fork them here with
        # a two-query warm-up per database (outside the catalogue).
        for database in self.databases.values():
            envelope = WorkloadEnvelope.single(ServiceWorkload.from_queries(["a", "b"]), database)
            list(exchange.submit(envelope))
        metrics = server.metrics()
        return {"server": server, "exchange": exchange, "start": metrics}

    def close(self, state) -> None:
        state["server"].close()

    def run(self, state, recorder) -> Pass:
        server = state["server"]
        pending = iter(self.requests)
        latencies: dict[int, float] = {}
        intervals: dict[int, tuple[int, int]] = {}
        answers: dict[int, list] = {}

        async def client() -> None:
            from time import perf_counter_ns

            for request in pending:
                began = perf_counter_ns()
                stream = await server.submit(
                    request.workload,
                    priority=request.priority,
                    weight=request.weight,
                    database=self.databases[request.database_key],
                )
                outcomes = [outcome async for outcome in stream]
                ended = perf_counter_ns()
                latencies[request.seq] = (ended - began) / 1e9
                intervals[request.seq] = (began, ended)
                answers[request.seq] = sorted(outcomes, key=lambda outcome: outcome.index)

        async def main() -> None:
            await asyncio.gather(*(client() for _ in range(self.CLIENTS)))

        start = perf_counter()
        asyncio.run(main())
        wall = perf_counter() - start
        outcomes: list[Outcome] = []
        for request in self.requests:
            for served in answers[request.seq]:
                result = served.result
                outcomes.append(
                    Outcome(
                        (served.query, request.database_key),
                        served.status,
                        served.method,
                        None if result is None else result.value,
                        served.nodes_explored,
                        result,
                    )
                )
        metrics = server.metrics()
        pids = sorted(state["exchange"].worker_pids())
        return Pass(
            [latencies[request.seq] for request in self.requests],
            outcomes,
            wall,
            {
                "cache": _cache_delta(metrics.cache, state["start"].cache),
                "pool": metrics.pool,
                "chunks": metrics.pool.chunks_dispatched - state["start"].pool.chunks_dispatched,
                "worker_pids": pids,
                "worker_hwm_mb": sum(_process_hwm_mb(pid) for pid in pids),
                "intervals": [intervals[request.seq] for request in self.requests],
            },
        )

    def check(self, state, result: Pass) -> list[tuple]:
        pairs = {
            (spec.display_name(), key): (spec.query, self.databases[key])
            for request in self.requests
            for key in [request.database_key]
            for spec in request.workload
        }
        problems = [
            (outcome.key, f"status {outcome.status}")
            for outcome in result.outcomes
            if outcome.status not in (OK, BUDGET)
        ]
        return problems + check_answers(pairs, result.outcomes)

    def describe(self, state) -> dict:
        return {
            "requests": len(self.requests),
            "specs": sum(len(request.workload) for request in self.requests),
            "databases": len(self.databases),
            "clients": self.CLIENTS,
            "max_workers": self.MAX_WORKERS,
            "max_nodes": self.MAX_NODES,
        }


def _cache_delta(now, before):
    return {name: getattr(now, name) - getattr(before, name) for name in now.as_dict()}


def _process_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


WORKLOADS = {cls.name: cls for cls in (Flow12k, ExactHard, AnalysisCold, ServeZipf)}
