"""Fixed-work resilience benchmark: one command for every workload.

Run from the root of a source checkout (no installation needed)::

    python3 perfbench/run.py --workload flow-12k --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --report 5 --seeds 1,2,3,4,5 --workload exact-hard

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
is the run's metadata.  A wrong answer prints the result with
``"correct": false`` and exits with code 1; a run that cannot report
honestly (too few samples beyond a percentile, outcome counts that differ
from the previous run of the same code and seed, no source tree) exits with
code 2 without printing a result.  ``--report N`` runs each workload of
``BENCHMARK.json`` (or the one named) ``N`` times in fresh processes and prints each metric's median and interquartile
spread next to its bound in ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = HERE / ".state"
SETUP_REQUEST = -1


class Refusal(Exception):
    """The run cannot report a trustworthy number."""


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: the machine-speed probe."""
    samples = []
    for _ in range(5):
        began = perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        samples.append((perf_counter() - began) * 1000)
    return statistics.median(samples)


def percentile_90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10)[8]


def source_digest() -> str:
    """Digest of the program and of the benchmark's own code."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def library_version(name: str) -> str:
    try:
        return __import__(name).__version__
    except ImportError:
        return "absent"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------------- metrics


def end_to_end(setup_times, result, correct_ok) -> dict[str, float]:
    latencies = result.latencies
    attempted = len(result.outcomes)
    return {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": attempted / result.wall,
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": percentile_90(latencies) * 1000,
        "ok_share": correct_ok / attempted,
        "peak_rss_mb": peak_rss_mb() + result.extras.get("worker_hwm_mb", 0.0),
    }


def per_layer(untraced, traced, spans, calib_ms) -> dict[str, float]:
    """Per-layer metrics of the traced pass (see README for each one's use)."""
    from tracing import closure_error, merge_intervals, overlap_ns, stage_totals

    calls = len(traced.latencies)
    timed = [span for span in spans if span[5] != SETUP_REQUEST]
    setup = [span for span in spans if span[5] == SETUP_REQUEST]
    ms, counts = stage_totals(timed)
    setup_ms, _ = stage_totals(setup)

    def per_call(value: float) -> float:
        return value / calls

    graphs = [span[6] for span in timed if span[1] == "flow.mincut" and span[6] is not None]
    exact = [o for o in traced.outcomes if o.method == "exact" and o.nodes is not None]
    cache = traced.extras.get("cache", {})
    result_base = cache.get("result_hits", 0) + cache.get("result_misses", 0)
    canonical_base = cache.get("canonical_hits", 0) + cache.get("canonical_misses", 0)

    untraced_qps = len(untraced.outcomes) / untraced.wall
    traced_qps = len(traced.outcomes) / traced.wall
    metrics = {
        "languages.parse_ms": per_call(ms["languages.parse"]),
        "languages.infix_free_ms": per_call(ms["languages.infix_free"]),
        "languages.infix_free_computes": per_call(counts["languages.infix_free"]),
        "languages.fingerprint_ms": per_call(ms["languages.fingerprint"]),
        "resilience.engine_self_ms": per_call(ms["resilience.call"]),
        "resilience.choose_method_ms": per_call(ms["resilience.choose_method"]),
        "resilience.local_flow_self_ms": per_call(ms["resilience.local_flow"]),
        "resilience.bcl_flow_self_ms": per_call(ms["resilience.bcl_flow"]),
        "resilience.one_dangling_self_ms": per_call(ms["resilience.one_dangling"]),
        "resilience.exact_ms": per_call(ms["resilience.exact"]),
        "resilience.exact_nodes": sum(o.nodes for o in exact),
        "resilience.budget_exceeded": sum(1 for o in traced.outcomes if o.status == "budget-exceeded"),
        "resilience.cache_result_hit_ratio": cache.get("result_hits", 0) / result_base if result_base else 0.0,
        "resilience.cache_result_base": result_base,
        "resilience.cache_canonical_hit_ratio": (
            cache.get("canonical_hits", 0) / canonical_base if canonical_base else 0.0
        ),
        "resilience.cache_classifications": cache.get("classifications", 0),
        "resilience.cache_evictions": cache.get("evictions", 0),
        "flow.substrate_ms": per_call(ms["flow.substrate"]),
        "flow.compile_ms": per_call(ms["flow.compile"]),
        "flow.mincut_ms": per_call(ms["flow.mincut"]),
        "flow.mincut_calls": per_call(counts["flow.mincut"]),
        "flow.graph_nodes_mean": statistics.fmean(g[0] for g in graphs) if graphs else 0.0,
        "flow.graph_edges_mean": statistics.fmean(g[1] for g in graphs) if graphs else 0.0,
        "graphdb.index_ms": setup_ms["graphdb.index"],
        "graphdb.index_builds": per_call(counts["graphdb.index"]),
        "graphdb.query_index_ms": per_call(ms["graphdb.index"]),
        "rpq.walk_searches": per_call(counts["rpq.walk_search"]),
        "rpq.walk_search_ms": per_call(ms["rpq.walk_search"]),
        "trace.overhead_share": 1 - traced_qps / untraced_qps,
        "trace.closure_error": closure_error(timed, "resilience.call"),
        "machine.calib_ms": calib_ms,
    }
    if "pool" in traced.extras:
        # Only the serving workload crosses the service layer.
        serve_spans = [span for span in timed if span[1] == "service.node_serve"]
        node_intervals = merge_intervals([(span[2], span[3]) for span in serve_spans])
        front_end = [
            (end - start - overlap_ns((start, end), node_intervals)) / 1e6
            for start, end in traced.extras["intervals"]
        ]
        metrics.update({
            "service.plan_ms": per_call(sum((s[3] - s[2]) / 1e6 for s in timed if s[1] == "service.plan")),
            "service.node_serve_ms": per_call(sum((s[3] - s[2]) / 1e6 for s in serve_spans)),
            "service.front_end_ms": statistics.fmean(front_end),
            "service.chunks_dispatched": per_call(traced.extras["chunks"]),
            "service.pools_created": traced.extras["pool"].pools_created,
            "service.worker_processes": len(traced.extras["worker_pids"]),
        })
    return metrics


def unit_of(name: str) -> str:
    for suffix, unit in (
        ("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
        ("_share", "share"), ("_ratio", "share"), ("_error", "share"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


# ----------------------------------------------------------------------------- one run


def run_once(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    from tracing import Recorder, install, uninstall
    from workloads import WORKLOADS

    calib_start = calibrate()
    workload = WORKLOADS[name](seed, seconds)

    setup_times: list[float] = []
    state = None
    for _ in range(workload.setup_repeats):
        if state is not None:
            workload.close(state)
            state = None
            gc.collect()
        began = perf_counter()
        state = workload.setup()
        setup_times.append(perf_counter() - began)
    try:
        workload.warm(state)
        untraced = workload.run(state, None)
        problems = workload.check(state, untraced)
        traced = None
        if trace:
            recorder = Recorder()
            undo = install(recorder)
            try:
                recorder.request = SETUP_REQUEST
                traced_state = workload.setup()
                recorder.request = None
                if workload.trace_needs_fresh_state:
                    run_state = traced_state
                else:
                    workload.close(traced_state)
                    run_state = state
                try:
                    traced = workload.run(run_state, recorder)
                finally:
                    if run_state is not state:
                        workload.close(run_state)
            finally:
                uninstall(undo)
            for before, after in zip(untraced.outcomes, traced.outcomes):
                if before.signature() != after.signature():
                    problems.append((before.key, f"traced pass differs: {before.signature()} vs {after.signature()}"))
            if len(untraced.outcomes) != len(traced.outcomes):
                problems.append((None, "traced pass attempted a different number of calls"))
        description = workload.describe(state)
    finally:
        workload.close(state)

    bad_keys = {key for key, _ in problems}
    correct_ok = sum(1 for o in untraced.outcomes if o.status == "ok" and o.key not in bad_keys)
    statuses: dict[str, int] = {}
    for outcome in untraced.outcomes:
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1

    latencies = untraced.latencies
    beyond = sum(1 for value in latencies if value > percentile_90(latencies))
    if beyond < 10:
        raise Refusal(f"{name}: only {beyond} samples beyond p90 (of {len(latencies)}); need >= 10")
    guard_outcomes(name, seed, seconds, statuses, untraced.outcomes)

    calib_end = calibrate()
    if trace:
        metrics = per_layer(untraced, traced, recorder.spans, (calib_start + calib_end) / 2)
    else:
        metrics = end_to_end(setup_times, untraced, correct_ok)
    failed = len(untraced.outcomes) - correct_ok - statuses.get("budget-exceeded", 0)
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": library_version("numpy"),
        "scipy": library_version("scipy"),
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "cache_state": workload.cache_state,
        "machine.calib_ms": {"start": calib_start, "end": calib_end},
        "samples": {
            "latency": len(latencies),
            "beyond_p90": beyond,
            "setup": len(setup_times),
        },
        "outcomes": statuses,
        "workload_shape": description,
        "problems": [f"{key}: {message}" for key, message in problems[:20]],
    }
    report = {
        "correct": not problems,
        "attempted": len(untraced.outcomes),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit_of(key)} for key, value in metrics.items()},
    }
    return report, meta


def guard_outcomes(name, seed, seconds, statuses, outcomes) -> None:
    """Refuse to report when this code and seed produced other outcomes before."""
    digest = hashlib.sha256(repr([o.signature() for o in outcomes]).encode()).hexdigest()
    record = {"statuses": statuses, "digest": digest}
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"{name}-{seed}-{seconds}-{source_digest()}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        if previous != record:
            raise Refusal(
                f"{name}: outcomes differ from the previous run of this code with seed "
                f"{seed}: statuses {previous['statuses']} vs {statuses}, answer digest "
                f"{previous['digest'][:12]} vs {digest[:12]}"
            )
    else:
        path.write_text(json.dumps(record))


# ----------------------------------------------------------------------------- report mode


def report(workloads: list[str], seeds: list[int], seconds: int, trace: bool) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"] + config["per_layer"]}
    status = 0
    for name in workloads:
        values: dict[str, list[float]] = {}
        for seed in seeds:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1" if trace else "0",
            ]
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if completed.returncode != 0:
                print(f"{name} seed {seed}: exit {completed.returncode}\n{completed.stderr}", file=sys.stderr)
                status = 1
                continue
            lines = completed.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for metric, payload in result["metrics"].items():
                values.setdefault(metric, []).append(payload["value"])
            calib = json.loads(lines[-2])["meta"]["machine.calib_ms"]
            values.setdefault("(machine.calib_ms)", []).append((calib["start"] + calib["end"]) / 2)
        print(f"== {name} ({len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]})")
        for metric, series in values.items():
            median = statistics.median(series)
            if len(series) >= 2:
                q1, _, q3 = statistics.quantiles(series, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(metric)
            verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
            print(
                f"  {metric:36s} median {median:12.4f}  iqr/median {spread:7.4f}  "
                f"bound {bound if bound is not None else '-':>5}  {verdict}"
            )
    return status


# ----------------------------------------------------------------------------- entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=int, metavar="N", help="steadiness report over N seeds")
    parser.add_argument("--seeds", help="comma-separated seeds for --report")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no source tree at {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.report:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(range(1, args.report + 1))
        listed = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
        names = [args.workload] if args.workload else [entry["name"] for entry in listed]
        return report(names, seeds[: args.report], args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    try:
        result, meta = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refusal as refusal:
        print(f"refusing to report: {refusal}", file=sys.stderr)
        return 2
    print(json.dumps({"meta": meta}))
    for problem in meta["problems"]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
