#!/usr/bin/env python3
"""Perf regression guards over Google Benchmark JSON results.

Reads every `*.json` file that `build/bench/bench_guards
--benchmark_out=F --benchmark_out_format=json` wrote into the given
directory and fails (exit 1) when a guarded ratio regresses. A bench is
found by its name up to the first `/` (`depgraph_fast_8x8/real_time`
is `depgraph_fast_8x8`); when it ran with repetitions, its `median`
aggregate row is read. Time per operation is `real_time` in ns, memory
the `max_rss_kb` counter.

  1. Always: depgraph_fast_8x8 must finish within 10% of the
     depgraph_generic_8x8 oracle measured in the same run — i.e. the
     per-destination builder keeps its >= 10x advantage and has not
     re-quadraticized.
  2. Always: depgraph_fast_cmesh must finish within 25% of the
     depgraph_generic_cmesh oracle — the id-native sweep (the non-grid
     dialect the 8x8 mesh guard never exercises) keeps a >= 4x advantage
     on the 8x8 c=4 concentrated mesh. The measured ratio is ~7.7x; the
     looser bound reflects the smaller gap id-native closures leave over
     a 960-port/256-destination product.
  3. Always: campaign_delta_mesh16_single must finish within 20% of
     campaign_rebuild_mesh16_single — the fault-campaign delta builder
     (base-graph edge filtering) keeps a >= 5x advantage over rebuilding
     every variant's dependency graph from scratch. Measured ~35x; the
     loose bound absorbs runner noise on the small 16-variant sample.
  4. With --escape-speedup X (multicore CI only): escape_parallel_64x64
     must be at least X times faster than escape_sequential_64x64 — the
     destination-sharded escape sweep actually beats the sequential lane
     walk. Skipped by default because the ratio is
     meaningless on single-core runners, where the sharded sweep can only
     tie the sequential one.
  5. With --sweep-speedup X (multicore CI only):
     depgraph_sweep_parallel_faulted_64x64 must be at least X times faster
     than depgraph_sweep_sequential_faulted_64x64 — the destination-sharded
     dependency-graph sweep (XY on a 64x64 mesh with one failed link, which
     keeps it off the analytic build) pays for its shards and their OR
     merge. Skipped by default for the same reason as the escape guard.
     Run each side of both pairs with --benchmark_repetitions=5 (the guard
     reads the median) and in its own bench_guards process, writing its
     own result file: a pool started right behind a long sequential case
     can find its workers stacked on one CPU.
  6. With --max-ns NAME=NS (repeatable): the named benchmark's time per
     operation must not exceed the absolute ceiling — e.g.
     --max-ns verify_mesh128_xy=2000000000 pins the headline "mesh128
     verifies in under 2 s at 4 threads", and
     --max-ns campaign_context_mesh32_single=NS bounds what a fault
     variant's analysis context costs (one iteration builds 64).
  7. With --max-rss-kb NAME=KB (repeatable): the named benchmark's
     max_rss_kb (peak process RSS when it finished) must not exceed the
     ceiling — the memory gate for the mesh256-xy verify.

Usage: tools/check_bench_guard.py [bench-results-dir] [--escape-speedup X]
           [--sweep-speedup X] [--max-ns NAME=NS ...]
           [--max-rss-kb NAME=KB ...]
"""
import argparse
import json
import pathlib
import sys

FAST = "depgraph_fast_8x8"
GENERIC = "depgraph_generic_8x8"
# The fast builder must finish within this fraction of the generic oracle's
# time. The measured ratio is ~15x (fast <= 0.07 * generic); 0.10 leaves
# room for runner noise without letting a real regression through.
LIMIT_FRACTION = 0.10

FAST_CMESH = "depgraph_fast_cmesh"
GENERIC_CMESH = "depgraph_generic_cmesh"
# Measured ~7.7x on the 8x8 c=4 cmesh (fast <= 0.13 * generic); 0.25
# keeps the guard meaningful without flaking on noisy runners.
CMESH_LIMIT_FRACTION = 0.25

DELTA_CAMPAIGN = "campaign_delta_mesh16_single"
REBUILD_CAMPAIGN = "campaign_rebuild_mesh16_single"
# Measured ~35x on the 16-variant single-link mesh16 sample (delta <=
# 0.03 * rebuild); 0.20 pins the >= 5x acceptance bound without flaking.
CAMPAIGN_LIMIT_FRACTION = 0.20

ESCAPE_PARALLEL = "escape_parallel_64x64"
ESCAPE_SEQUENTIAL = "escape_sequential_64x64"

SWEEP_PARALLEL = "depgraph_sweep_parallel_faulted_64x64"
SWEEP_SEQUENTIAL = "depgraph_sweep_sequential_faulted_64x64"


NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_results(directory: pathlib.Path) -> dict[str, dict]:
    """Maps each bench name to its row: the median aggregate when the bench
    ran with repetitions, else its single iteration row."""
    rows: dict[str, dict] = {}
    source: dict[str, pathlib.Path] = {}
    for path in sorted(directory.glob("*.json")):
        benchmarks = json.loads(path.read_text()).get("benchmarks")
        if not isinstance(benchmarks, list):
            continue
        found: dict[str, dict] = {}
        for row in benchmarks:
            name = row["name"].split("/", 1)[0]
            if row.get("run_type") == "aggregate":
                if row.get("aggregate_name") == "median":
                    found[name] = row
            elif name not in found:
                found[name] = row
        for name, row in found.items():
            if name in rows:
                sys.exit(f"check_bench_guard: {name} appears in both "
                         f"{source[name]} and {path}")
            rows[name] = row
            source[name] = path
    return rows


def bench_field(results: dict[str, dict], name: str, field: str) -> float:
    row = results.get(name)
    if row is None:
        sys.exit(f"check_bench_guard: no result for {name} — run "
                 "`bench_guards --benchmark_out=F "
                 "--benchmark_out_format=json` first")
    if field == "ns_per_op":
        return float(row["real_time"]) * NS_PER_UNIT[row["time_unit"]]
    if field not in row:
        sys.exit(f"check_bench_guard: {name} has no '{field}' counter")
    return float(row[field])


def ns_per_op(results: dict[str, dict], name: str) -> float:
    return bench_field(results, name, "ns_per_op")


def parse_gate(spec: str, flag: str) -> tuple[str, float]:
    name, sep, value = spec.partition("=")
    if not sep or not name:
        sys.exit(f"check_bench_guard: {flag} expects NAME=VALUE, got "
                 f"'{spec}'")
    try:
        return name, float(value)
    except ValueError:
        sys.exit(f"check_bench_guard: {flag} value in '{spec}' is not a "
                 "number")


def check_absolute(results: dict[str, dict], name: str, ceiling: float,
                   field: str, unit: str) -> bool:
    measured = bench_field(results, name, field)
    print(f"{name}: {measured:,.0f} {unit} (ceiling {ceiling:,.0f} {unit})")
    if measured > ceiling:
        print(f"FAIL: {name} exceeds the absolute {field} ceiling")
        return False
    print(f"OK: {name} holds under the {field} ceiling")
    return True


def check_ratio(results: dict[str, dict], fast_name: str, generic_name: str,
                limit_fraction: float, fail_hint: str) -> bool:
    fast = ns_per_op(results, fast_name)
    generic = ns_per_op(results, generic_name)
    limit = limit_fraction * generic
    ratio = generic / fast if fast > 0 else float("inf")
    print(f"{fast_name}: {fast:,.0f} ns/op, {generic_name}: "
          f"{generic:,.0f} ns/op ({ratio:.1f}x, limit {limit:,.0f} ns/op)")
    if fast > limit:
        print(f"FAIL: {fast_name} exceeds {limit_fraction:.0%} of the "
              f"generic baseline — {fail_hint}")
        return False
    print(f"OK: fast builder holds its >= {1 / limit_fraction:.0f}x "
          "advantage")
    return True


def check_depgraph(results: dict[str, dict]) -> bool:
    return check_ratio(results, FAST, GENERIC, LIMIT_FRACTION,
                       "the per-destination builder re-quadraticized")


def check_cmesh(results: dict[str, dict]) -> bool:
    return check_ratio(results, FAST_CMESH, GENERIC_CMESH,
                       CMESH_LIMIT_FRACTION,
                       "the id-native sweep lost its edge on the cmesh")


def check_campaign(results: dict[str, dict]) -> bool:
    return check_ratio(results, DELTA_CAMPAIGN, REBUILD_CAMPAIGN,
                       CAMPAIGN_LIMIT_FRACTION,
                       "the fault-delta builder lost its edge over full "
                       "rebuilds")


def check_speedup(results: dict[str, dict], parallel_name: str,
                  sequential_name: str, min_speedup: float,
                  what: str) -> bool:
    parallel = ns_per_op(results, parallel_name)
    sequential = ns_per_op(results, sequential_name)
    speedup = sequential / parallel if parallel > 0 else float("inf")
    print(f"{parallel_name}: {parallel:,.0f} ns/op, "
          f"{sequential_name}: {sequential:,.0f} ns/op "
          f"({speedup:.2f}x, required >= {min_speedup:.2f}x)")
    if speedup < min_speedup:
        print(f"FAIL: the destination-sharded {what} is only "
              f"{speedup:.2f}x the sequential one — the parallel {what} "
              "regressed")
        return False
    print(f"OK: the sharded {what} beats the sequential one")
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("directory", nargs="?", default="bench-results",
                        type=pathlib.Path)
    parser.add_argument("--escape-speedup", type=float, default=None,
                        metavar="X",
                        help="additionally require escape_parallel_64x64 to "
                             "be >= X times faster than the sequential "
                             "escape bench (use on multicore runners only)")
    parser.add_argument("--sweep-speedup", type=float, default=None,
                        metavar="X",
                        help="additionally require "
                             "depgraph_sweep_parallel_faulted_64x64 to be "
                             ">= X times faster than the sequential sweep "
                             "bench (use on multicore runners only)")
    parser.add_argument("--max-ns", action="append", default=[],
                        metavar="NAME=NS",
                        help="absolute ceiling on the named benchmark's "
                             "real time per operation, in ns (repeatable)")
    parser.add_argument("--max-rss-kb", action="append", default=[],
                        metavar="NAME=KB",
                        help="absolute max_rss_kb ceiling for the named "
                             "benchmark (repeatable)")
    parser.add_argument("--skip-ratios", action="store_true",
                        help="only evaluate the --max-ns/--max-rss-kb gates "
                             "(for filtered bench runs that did not produce "
                             "the ratio-guard results)")
    args = parser.parse_args()

    results = load_results(args.directory)
    ok = True
    if not args.skip_ratios:
        ok = check_depgraph(results)
        ok = check_cmesh(results) and ok
        ok = check_campaign(results) and ok
        if args.escape_speedup is not None:
            ok = check_speedup(results, ESCAPE_PARALLEL, ESCAPE_SEQUENTIAL,
                               args.escape_speedup, "escape sweep") and ok
        if args.sweep_speedup is not None:
            ok = check_speedup(results, SWEEP_PARALLEL, SWEEP_SEQUENTIAL,
                               args.sweep_speedup,
                               "dependency-graph sweep") and ok
    for spec in args.max_ns:
        name, ceiling = parse_gate(spec, "--max-ns")
        ok = check_absolute(results, name, ceiling, "ns_per_op",
                            "ns/op") and ok
    for spec in args.max_rss_kb:
        name, ceiling = parse_gate(spec, "--max-rss-kb")
        ok = check_absolute(results, name, ceiling, "max_rss_kb",
                            "KiB") and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
