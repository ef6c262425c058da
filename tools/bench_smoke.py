#!/usr/bin/env python
"""Smoke-run every benchmark in fast mode so perf harnesses cannot silently rot.

Each ``benchmarks/bench_*.py`` file is executed in its own pytest process with
``--benchmark-disable`` (pytest-benchmark then calls every benchmarked callable
exactly once instead of timing it), so a full smoke pass costs seconds, not
minutes.  Any collection error, import error or assertion failure fails the
smoke run, which makes benchmark bit-rot visible in CI even though benchmarks
are not part of the tier-1 test suite.

Usage::

    python tools/bench_smoke.py            # run every benchmark
    python tools/bench_smoke.py -k mincut  # only files whose name matches
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

# Benchmarks a full (unfiltered) smoke pass must always include: these are the
# only CI coverage of their subsystem's end-to-end path (the service benchmark
# exercises the process-pool serving path; the async benchmark exercises the
# admission-controlled front-end and emits BENCH_async.json; the distributed
# benchmark exercises the fingerprint-routed exchange and emits
# BENCH_distributed.json; the soak benchmark drives the chaos soak harness
# end to end and emits BENCH_soak.json; the cache-tier benchmark proves the
# warm CLI → fresh-process serve path and emits BENCH_cache.json), so their
# absence is an error, not a silently smaller run.
REQUIRED_BENCHMARKS = frozenset(
    {
        "bench_resilience_serve.py",
        "bench_async_serve.py",
        "bench_distributed.py",
        "bench_soak.py",
        "bench_cache_tier.py",
    }
)


def smoke_command(bench_file: Path) -> list[str]:
    return [
        sys.executable,
        "-m",
        "pytest",
        "-q",
        "-p",
        "no:cacheprovider",
        "--benchmark-disable",
        str(bench_file),
    ]


def run_one(bench_file: Path, env: dict[str, str]) -> tuple[bool, float, str]:
    start = time.perf_counter()
    completed = subprocess.run(
        smoke_command(bench_file),
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    output = (completed.stdout or "") + (completed.stderr or "")
    return completed.returncode == 0, elapsed, output


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-k", "--keyword", default="", help="only run benchmark files whose name contains this"
    )
    args = parser.parse_args(argv)

    bench_files = sorted(BENCH_DIR.glob("bench_*.py"))
    if args.keyword:
        bench_files = [path for path in bench_files if args.keyword in path.name]
    if not bench_files:
        print("bench-smoke: no benchmark files matched", file=sys.stderr)
        return 2
    if not args.keyword:
        missing = REQUIRED_BENCHMARKS - {path.name for path in bench_files}
        if missing:
            print(
                "bench-smoke: required benchmark(s) missing: " + ", ".join(sorted(missing)),
                file=sys.stderr,
            )
            return 2

    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # Tell benchmarks they run in the smoke pass: timing assertions (e.g. the
    # serve speedup bar) must not turn CI red on a loaded runner.
    env["REPRO_BENCH_SMOKE"] = "1"

    failures: list[Path] = []
    for bench_file in bench_files:
        ok, elapsed, output = run_one(bench_file, env)
        status = "ok" if ok else "FAIL"
        print(f"bench-smoke: {bench_file.name:45s} {status:4s} ({elapsed:.1f}s)")
        if not ok:
            failures.append(bench_file)
            tail = output.strip().splitlines()[-25:]
            print("\n".join("    " + line for line in tail))

    print(
        f"bench-smoke: {len(bench_files) - len(failures)}/{len(bench_files)} benchmark files passed"
    )
    if failures:
        print(
            "bench-smoke: FAILED: " + ", ".join(path.name for path in failures),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
