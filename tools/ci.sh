#!/usr/bin/env bash
# Single CI entry point: tier-1 tests plus the benchmark smoke pass.
#
#   tools/ci.sh            # run everything
#   tools/ci.sh -k mincut  # extra args are forwarded to bench_smoke.py
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

echo "ci: static analysis gate (repro.analysis, strict, empty baseline)"
python -m repro.analysis src --strict

echo "ci: static analysis negative check (a seeded violation must fail the gate)"
ANALYSIS_SCRATCH="$(mktemp -d)"
cat > "$ANALYSIS_SCRATCH/seeded.py" <<'PY'
def f():
    try:
        return 1
    except:
        pass
PY
if python -m repro.analysis "$ANALYSIS_SCRATCH" --no-baseline --strict > /dev/null; then
  echo "ci: analysis gate FAILED to flag a seeded bare-except violation" >&2
  rm -rf "$ANALYSIS_SCRATCH"
  exit 1
fi
rm -rf "$ANALYSIS_SCRATCH"
echo "ci: analysis negative check ok (seeded violation rejected)"

echo "ci: tier-1 test suite"
python -m pytest -x -q

echo "ci: leak-sanitized service/exchange/traffic suites (threads, processes, sockets, temp dirs)"
REPRO_LEAK_SANITIZER=on python -m pytest -q tests/test_server.py tests/test_async_server.py tests/test_exchange.py tests/test_traffic.py

echo "ci: parallel serving parity check (batch + streamed)"
python - <<'PY'
from repro.graphdb import generators
from repro.service import QuerySpec, ResilienceServer, Workload, resilience_serve

database = generators.random_labelled_graph(5, 14, "abcdexy", seed=3)
workload = Workload.coerce(
    ["ax*b", "ab|bc", "abc|be", "aa", "ab", "ε|a", QuerySpec("aa", max_nodes=1)] * 3
)
serial = resilience_serve(workload, database, parallel=False)
parallel = resilience_serve(workload, database, max_workers=2)
assert serial == parallel, "parallel serve diverged from serial results"
with ResilienceServer(database, max_workers=2) as server:
    batch = server.serve(workload)
    streamed = sorted(server.serve_iter(workload), key=lambda outcome: outcome.index)
    assert server.worker_pids(), "warm pool expected after serving"
assert batch == serial, "warm-pool serve diverged from serial results"
assert streamed == serial, "re-sorted serve_iter() diverged from the batch result"
print(f"ci: resilience serve parity ok ({len(serial)} outcomes, 2 workers, batch+stream)")
PY

echo "ci: flow solver differential (fast vs reference, byte-identical streams)"
python - <<'PY'
import os

from repro.graphdb import generators
from repro.service import LanguageCache, QuerySpec, ResilienceServer, Workload, resilience_serve

workload = Workload.coerce(
    ["ax*b", "ab|bc", "abc|be", "(ab)*a", "a(ba)*", "aa", "ab", "ε|a",
     QuerySpec("aa", max_nodes=1), QuerySpec("ab", semantics="set")]
)
for database in (
    generators.random_labelled_graph(5, 14, "abcxey", seed=3),
    generators.random_labelled_graph(4, 10, "abcx", seed=5).to_bag(2),
):
    os.environ.pop("REPRO_FLOW_SOLVER", None)
    fast = resilience_serve(workload, database, parallel=False, cache=LanguageCache(canonical=False))
    os.environ["REPRO_FLOW_SOLVER"] = "reference"
    reference = resilience_serve(workload, database, parallel=False, cache=LanguageCache(canonical=False))
    with ResilienceServer(database, max_workers=2, cache=LanguageCache(canonical=False)) as server:
        pooled = server.serve(workload)
    os.environ.pop("REPRO_FLOW_SOLVER", None)
    assert fast == reference, "fast flow solver diverged from the reference solver"
    assert pooled == reference, "pooled reference-solver serve diverged"
    stream_fast = "\n".join(repr(outcome) for outcome in fast)
    stream_reference = "\n".join(repr(outcome) for outcome in reference)
    assert stream_fast == stream_reference, "outcome streams are not byte-identical"
print(f"ci: flow solver differential ok ({len(workload)} queries x 2 databases, fast == reference)")
PY

echo "ci: perfbench flow-12k (fast vs reference, verified cuts, traced == untraced on 12k-fact graphs)"
python3 perfbench/run.py --workload flow-12k --seed 0 --seconds 1 --trace 1 > /dev/null
echo "ci: perfbench flow-12k ok"

echo "ci: perfbench exact-hard (verified contingency sets, traced == untraced, stable repeats)"
python3 perfbench/run.py --workload exact-hard --seed 0 --seconds 1 --trace 1 > /dev/null
echo "ci: perfbench exact-hard ok"

echo "ci: async conformance variants (single workload + 3 concurrent merged)"
python -m pytest -q tests/test_conformance.py -k "async"

echo "ci: distributed conformance variants (2/4-node fleets, HTTP nodes, mid-stream node kill)"
python -m pytest -q tests/test_conformance.py -k "distributed"

echo "ci: soak-replay conformance variant (chaos soak == uncached serial reference)"
python -m pytest -q tests/test_conformance.py -k "soak"

echo "ci: chaos soak smoke (seeded traffic, 2 nodes, one scheduled kill, replay check)"
python - <<'PY'
from repro.traffic import (
    ChaosEvent, ChaosSchedule, DatabaseSpec, SoakRunner, TrafficProfile,
    generate_traffic,
)

profile = TrafficProfile(
    seed=7,
    requests=8,
    databases=(
        DatabaseSpec(num_nodes=5, num_edges=12, alphabet="abxy"),
        DatabaseSpec(num_nodes=4, num_edges=9, alphabet="abx", bag_copies=2),
    ),
)
chaos = ChaosSchedule((
    ChaosEvent(round=1, kind="kill", after_outcomes=2),
    ChaosEvent(round=0, kind="burst", count=3),
))


def soak():
    return SoakRunner(
        generate_traffic(profile), nodes=2, max_workers=2, chaos=chaos,
        requests_per_round=4,
    ).run()


report = soak()
assert report.violations == (), report.violations
assert report.chaos["kills"] == 1 and report.chaos["heals"] == 1
assert report.recovery["max_rounds"] <= report.recovery["bound"]
assert report.parity_checked == report.requests
assert report.admission["final_in_flight"] == 0
replay = soak()
assert replay.by_status == report.by_status, "soak must replay from its seed"
print(
    f"ci: chaos soak ok ({report.requests} requests, {report.outcomes} outcomes, "
    f"1 kill, recovery {report.recovery['max_rounds']} round(s), replay identical)"
)
PY

echo "ci: HTTP chaos soak smoke (real sockets: refused window, disconnect, kill, replay check)"
python - <<'PY'
import sys
from pathlib import Path

sys.path.insert(0, str(Path("tests").resolve()))

from faults import ChaosHttpNodeLauncher
from leak_sanitizer import LeakTracker

from repro.service import HttpExchange, NodeManager, RetryPolicy
from repro.traffic import (
    ChaosEvent, ChaosSchedule, DatabaseSpec, SoakRunner, TrafficProfile,
    generate_traffic,
)

profile = TrafficProfile(
    seed=7,
    requests=8,
    databases=(
        DatabaseSpec(num_nodes=5, num_edges=12, alphabet="abxy"),
        DatabaseSpec(num_nodes=4, num_edges=9, alphabet="abx", bag_copies=2),
    ),
)
chaos = ChaosSchedule((
    ChaosEvent(round=0, kind="refused", count=2),
    ChaosEvent(round=1, kind="disconnect", after_outcomes=1),
    ChaosEvent(round=1, kind="kill", after_outcomes=2),
))


def soak(tracker=None):
    launcher = ChaosHttpNodeLauncher(
        max_workers=2,
        request_timeout=10.0,
        retry=RetryPolicy(attempts=3, base_delay=0.0),
    )
    return SoakRunner(
        generate_traffic(profile),
        exchange=HttpExchange(nodes=2, manager=NodeManager(launcher)),
        chaos=chaos,
        requests_per_round=4,
        leak_tracker=tracker,
    ).run()


report = soak(tracker=LeakTracker())
assert report.violations == (), report.violations
assert report.leaks == (), report.leaks
assert report.chaos["network_faults"] == 2 and report.chaos["kills"] == 1
assert report.recovery["max_rounds"] <= report.recovery["bound"]
assert report.parity_checked == report.requests
assert report.admission["final_in_flight"] == 0
replay = soak()
assert replay.by_status == report.by_status, "HTTP soak must replay from its seed"
print(
    f"ci: http chaos soak ok ({report.requests} requests, {report.outcomes} "
    f"outcomes, 2 network faults, 1 kill, recovery "
    f"{report.recovery['max_rounds']} round(s), replay identical, no leaks)"
)
PY

echo "ci: multi-node kill/recovery soak (routed fleet, kill + auto-replace per round)"
python - <<'PY'
import asyncio

from repro.graphdb import generators
from repro.service import AsyncResilienceServer, ThreadExchange, resilience_serve

database = generators.random_labelled_graph(5, 14, "abcdexy", seed=3)
workload = ["ax*b", "ab|bc", "abc|be", "aa", "ab", "ε|a"] * 2
reference = resilience_serve(workload, database, parallel=False)


async def soak():
    exchange = ThreadExchange(nodes=2, max_workers=2)
    async with AsyncResilienceServer(exchange, database=database) as server:

        async def collect(iterator):
            return sorted([o async for o in iterator], key=lambda o: o.index)

        kills = 0
        for round_number in range(3):
            iterators = [await server.submit(workload) for _ in range(2)]
            if round_number:
                # Kill the node that owns the database while its round is in
                # flight; the exchange must fail over (and, next round,
                # auto-replace the corpse) without losing an outcome.
                exchange.manager.kill(exchange.route_for(database))
                kills += 1
            for outcomes in await asyncio.gather(*(collect(it) for it in iterators)):
                assert outcomes == reference, f"round {round_number} diverged after kill"
        metrics = server.metrics()
        delivered = sum(metrics.outcome_counts().values())
        assert delivered == 6 * len(workload), f"outcome loss across kills: {delivered}"
        assert kills == 2 and all(metrics.to_prometheus().splitlines()), "exposition emits"
        alive = sum(1 for snapshot in metrics.nodes if snapshot.alive)
        assert alive >= 1, "a replacement node must be serving after the kills"
        print(
            f"ci: kill/recovery soak ok (6 workloads, {delivered} outcomes, "
            f"{kills} kills, {alive}/{len(metrics.nodes)} nodes alive)"
        )


asyncio.run(soak())
PY

echo "ci: async soak (3 workloads x 2 rounds, one warm pool) + metrics endpoint scrape"
python - <<'PY'
import asyncio
import json
import urllib.request

from repro.graphdb import generators
from repro.service import AsyncResilienceServer, ResilienceServer, resilience_serve

database = generators.random_labelled_graph(5, 14, "abcdexy", seed=3)
workload = ["ax*b", "ab|bc", "abc|be", "aa", "ab", "ε|a"] * 2
reference = resilience_serve(workload, database, parallel=False)


async def soak():
    async with AsyncResilienceServer(ResilienceServer(database, max_workers=2)) as server:

        async def collect(iterator):
            return sorted([o async for o in iterator], key=lambda o: o.index)

        pids = None
        for round_number in range(2):
            iterators = [await server.submit(workload) for _ in range(3)]
            for outcomes in await asyncio.gather(*(collect(it) for it in iterators)):
                assert outcomes == reference, f"round {round_number} diverged from serial"
            round_pids = server.worker_pids()
            assert round_pids, "concurrent workloads must share a real pool"
            if pids is not None:
                assert round_pids == pids, "the warm pool must not re-fork across rounds"
            pids = round_pids
        assert server.server.pool_stats().pools_created == 1, "exactly one pool forked"

        metrics = server.metrics()
        assert metrics.cache.result_hits > 0, "round 2 must hit the result-level cache"
        endpoint = server.metrics_endpoint(port=0)
        with urllib.request.urlopen(endpoint.url, timeout=10) as response:
            scraped = json.loads(response.read())
        assert scraped == json.loads(server.metrics().to_json()), (
            "scraped metrics diverged from the programmatic snapshot"
        )
        assert scraped["cache"]["result_hits"] == metrics.cache.result_hits
        assert scraped["admission"]["admitted"] == {"0": 6}
        ok = scraped["outcomes"]["ok"]
        assert ok == 6 * len(workload), f"outcome loss: {ok}"
        print(
            f"ci: async soak ok (6 workloads, {ok} outcomes, "
            f"{metrics.cache.result_hits} result hits, scrape == snapshot)"
        )


asyncio.run(soak())
PY

echo "ci: conformance suite with the reference flow solver forced"
REPRO_FLOW_SOLVER=reference python -m pytest -q tests/test_conformance.py

echo "ci: conformance suite, on-disk analysis store cold then warm"
CONFORMANCE_STORE="$(mktemp -d)"
trap 'rm -rf "$CONFORMANCE_STORE"' EXIT
REPRO_ANALYSIS_STORE="$CONFORMANCE_STORE" python -m pytest -q tests/test_conformance.py
REPRO_ANALYSIS_STORE="$CONFORMANCE_STORE" python -m pytest -q tests/test_conformance.py
python - "$CONFORMANCE_STORE" <<'PY'
import sys

from repro.graphdb import generators
from repro.resilience import AnalysisStore, LanguageCache, resilience_many

directory = sys.argv[1]
database = generators.random_labelled_graph(5, 14, "abxy", seed=3)
queries = ["ax*b", "ab|bc", "(ab)*a", "a(ba)*", "ab|ba", "aa", "ε|a"]

store = AnalysisStore(directory)
cache = LanguageCache(store=store)
results = resilience_many(queries, database, cache=cache)
stats = store.stats()
assert stats.hits > 0, f"warm pass must hit the persisted store (stats: {stats})"
assert cache.stats.classifications == 0, "warm pass must not re-classify anything"
fresh = resilience_many(queries, database)
assert results == fresh, "store-served results diverged from fresh computation"
print(f"ci: analysis store warm pass ok ({stats.hits} hits, 0 classifications)")
PY

echo "ci: warm CLI then fresh-process serve conformance"
WARM_STORE="$(mktemp -d)"
trap 'rm -rf "$CONFORMANCE_STORE" "$WARM_STORE"' EXIT
python -m repro.service.warm \
  --analysis-store "$WARM_STORE/analysis" \
  --result-store "$WARM_STORE/result" \
  --trace-seed 7 --trace-requests 16 > "$WARM_STORE/warm.json"
python - "$WARM_STORE" <<'PY'
import json
import sys
from pathlib import Path

from repro.resilience import AnalysisStore, LanguageCache, ResultStore
from repro.service import resilience_serve
from repro.traffic import TrafficProfile, generate_traffic

root = Path(sys.argv[1])
warm = json.loads((root / "warm.json").read_text())
assert warm["classifications"] > 0 and warm["results_written"] > 0, warm

# A fresh cache in a process that never classified anything: every request in
# the warmed trace must be served from the stores, outcome-identical to an
# uncached serial reference.
trace = generate_traffic(TrafficProfile(seed=7, requests=16))
analysis_store = AnalysisStore(root / "analysis")
result_store = ResultStore(root / "result")
cache = LanguageCache(store=analysis_store, result_store=result_store)
for request in trace.requests:
    database = trace.databases[request.database_key]
    warmed = resilience_serve(request.workload, database, parallel=False, cache=cache)
    reference = resilience_serve(
        request.workload, database, parallel=False,
        cache=LanguageCache(canonical=False),
    )
    assert warmed == reference, f"warmed serve diverged on {request.database_key}"
assert cache.stats.classifications == 0, "warmed serve must not classify"
assert analysis_store.stats().hits > 0 and result_store.stats().hits > 0
print(
    f"ci: warm CLI conformance ok ({analysis_store.stats().hits} analysis hits, "
    f"{result_store.stats().hits} result hits, 0 classifications)"
)
PY

echo "ci: benchmark smoke pass (includes bench_resilience_serve)"
python tools/bench_smoke.py "$@"

if [ -f BENCH_async.json ]; then
  echo "ci: async benchmark artefact check (BENCH_async.json)"
  python - <<'PY'
import json
from pathlib import Path

data = json.loads(Path("BENCH_async.json").read_text())
for key in ("admission_overhead", "merged_stream_p50_ms", "direct_serve_iter_ms", "async_submit_ms"):
    assert key in data, f"BENCH_async.json missing {key!r}"
    assert data[key] > 0, f"BENCH_async.json {key!r} not positive: {data[key]}"
# Loose smoke-safe ceiling; the strict 10% bar is asserted by
# bench_async_serve.py itself outside smoke mode.
assert data["admission_overhead"] <= 2.0, data["admission_overhead"]
mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: async bench ok ({mode}: overhead x{data['admission_overhead']:.3f}, "
    f"merged p50 {data['merged_stream_p50_ms']:.1f}ms)"
)
PY
else
  echo "ci: BENCH_async.json missing (async benchmark did not run?)" >&2
  exit 1
fi

if [ -f BENCH_distributed.json ]; then
  echo "ci: distributed benchmark artefact check (BENCH_distributed.json)"
  python - <<'PY'
import json
from pathlib import Path

data = json.loads(Path("BENCH_distributed.json").read_text())
for key in ("routing_overhead", "direct_serve_iter_ms", "routed_submit_ms", "nodes"):
    assert key in data, f"BENCH_distributed.json missing {key!r}"
    assert data[key] > 0, f"BENCH_distributed.json {key!r} not positive: {data[key]}"
# Loose smoke-safe ceiling; the strict 15% bar is asserted by
# bench_distributed.py itself outside smoke mode.
assert data["routing_overhead"] <= 2.0, data["routing_overhead"]
mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: distributed bench ok ({mode}: {data['nodes']} nodes, "
    f"routing overhead x{data['routing_overhead']:.3f})"
)
PY
else
  echo "ci: BENCH_distributed.json missing (distributed benchmark did not run?)" >&2
  exit 1
fi

if [ -f BENCH_soak.json ]; then
  echo "ci: soak benchmark artefact check (BENCH_soak.json)"
  python - <<'PY'
import json
from pathlib import Path

data = json.loads(Path("BENCH_soak.json").read_text())
for key in (
    "by_status", "latency_ms", "admission_rejects", "kills",
    "recovery_rounds_max", "throughput_rps", "violations", "leaks",
):
    assert key in data, f"BENCH_soak.json missing {key!r}"
assert data["violations"] == 0, f"soak ran with violations: {data['violations']}"
assert data["leaks"] == 0, f"soak leaked resources: {data['leaks']}"
assert data["kills"] >= 1, "the soak must include a scheduled node kill"
assert data["recovery_rounds_max"] <= data["recovery_rounds_bound"], data
assert data["throughput_rps"] > 0, data["throughput_rps"]
assert data["replay_by_status_identical"] is True, "soak replay diverged"
ok = data["latency_ms"].get("ok", {})
assert ok.get("count", 0) > 0 and ok.get("p99", 0) >= ok.get("p50", 0), ok

http = data.get("http")
assert http is not None, "BENCH_soak.json missing the paced HTTP trajectory"
for key in (
    "pace", "by_status", "network_faults", "degraded_serves", "kills",
    "recovery_rounds_max", "throughput_rps", "violations", "leaks",
):
    assert key in http, f"BENCH_soak.json http section missing {key!r}"
assert http["pace"] > 0, "the HTTP trajectory must replay paced (open-loop)"
assert http["violations"] == 0, f"http soak ran with violations: {http['violations']}"
assert http["leaks"] == 0, f"http soak leaked resources: {http['leaks']}"
assert http["network_faults"] >= 4, "all four network chaos kinds must fire"
assert http["kills"] >= 1, "the http soak must include a scheduled node kill"
assert http["recovery_rounds_max"] <= http["recovery_rounds_bound"], http
assert http["parity_checked"] == http["requests"], http
assert http["replay_by_status_identical"] is True, "http soak replay diverged"

mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: soak bench ok ({mode}: {data['requests']} requests, "
    f"{data['throughput_rps']:.0f} outcomes/s, ok p50 {ok['p50']:.0f}ms "
    f"p99 {ok['p99']:.0f}ms, recovery {data['recovery_rounds_max']} round(s); "
    f"http: {http['network_faults']} network faults, pace {http['pace']})"
)
PY
else
  echo "ci: BENCH_soak.json missing (soak benchmark did not run?)" >&2
  exit 1
fi

if [ -f BENCH_cache.json ]; then
  echo "ci: cache-tier benchmark artefact check (BENCH_cache.json)"
  python - <<'PY'
import json
from pathlib import Path

data = json.loads(Path("BENCH_cache.json").read_text())
for key in ("warm_pass", "cold", "warmed_store", "in_session", "eviction"):
    assert key in data, f"BENCH_cache.json missing {key!r}"
cold, warmed, session = data["cold"], data["warmed_store"], data["in_session"]
# The acceptance observable: a fresh process serving from warmed stores never
# classifies and reports store hits.
assert cold["classifications"] > 0, cold
assert warmed["classifications"] == 0, "warmed serve re-classified"
assert warmed["analysis_store_hits"] > 0 and warmed["result_store_hits"] > 0, warmed
assert session["classifications"] == 0, session
assert session["hit_rate"] >= warmed["hit_rate"] >= cold["hit_rate"], (
    cold["hit_rate"], warmed["hit_rate"], session["hit_rate"],
)
eviction = data["eviction"]
assert eviction["evictions"] > 0, eviction
assert eviction["final_entries"] <= 4 * eviction["max_entries"], eviction
assert eviction["by_status_identical"] is True, "bounded serve diverged"
mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: cache bench ok ({mode}: warmed hit rate {warmed['hit_rate']:.2f} "
    f"with 0 classifications, {warmed['analysis_store_hits']} analysis + "
    f"{warmed['result_store_hits']} result store hits, "
    f"{eviction['evictions']} evictions bounded at {eviction['final_entries']} entries)"
)
PY
else
  echo "ci: BENCH_cache.json missing (cache-tier benchmark did not run?)" >&2
  exit 1
fi

echo "ci: all green"
