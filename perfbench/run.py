#!/usr/bin/env python3
"""The repository benchmark: cold-CLI time to verdict, plus a traced run.

Builds the Release `genoc` CLI and the per-layer driver from the checkout's
sources (into .bench_build/perfbench), then runs one workload:

  --trace 0  End-to-end. Times cold `genoc` invocations of the workload's
             command from process start to exit (wall, user+sys CPU and
             peak RSS from wait4) and cold set-up in fresh driver
             processes, checks every sample against the hand-written oracle
             in perfbench/oracle/, and reports medians.
  --trace 1  Per-layer. Interleaves cold CLI samples with fresh driver
             processes that run the path traced and untraced; reports layer
             totals, counter deltas, the unattributed remainder and the
             tracing overhead. Spans go to
             .bench_build/perfbench/spans-<workload>.json (see
             perfbench/trace_summary.py).

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --steadiness [--workload NAME|all] [--seconds S]

--steadiness runs two sets of ten runs of the same code per workload and
prints, per (workload, metric), each set's median and quartiles, the gap
between the sets and the spread within each, against BENCHMARK.json's
bound. See perfbench/README.md.
"""
import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SCRATCH = BUILD / "tmp"
GENOC = BUILD / "genoc"
LAYERS = BUILD / "perfbench_layers"

# Every pool is pinned: 0 (hardware concurrency) would tie the figures to
# the host. verify-mesh256 runs on 1 thread: its ~1,000 barrier-bound SCC
# rounds made 4-thread run medians spread 3-4x wider (README.md). Both
# campaigns use the single-fault plan (`--faults single`).
WORKLOADS = {
    "verify-mesh256": {
        "kind": "verify", "instance": "mesh256-xy", "threads": 1,
    },
    "verify-torus64-escape": {
        "kind": "verify", "instance": "torus64-xy-escape", "threads": 4,
    },
    "campaign-mesh32-single": {
        "kind": "campaign", "instance": "topology=mesh size=32x32 routing=xy",
        "threads": 4,
    },
    "campaign-torus16-single": {
        "kind": "campaign",
        "instance": "topology=torus size=16x16 routing=torus_xy escape=xy",
        "threads": 4,
    },
}

# A child that runs this long has hung; it is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
# Share of --seconds spent sampling cold set-up (the rest times the CLI).
SETUP_SHARE = 0.25
MIN_SAMPLES = 5
# Runs per set in --steadiness, as many as the acceptance check makes.
STEADINESS_RUNS = 10


class Fail(Exception):
    """A sample whose process or output disagrees with the oracle."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["TMPDIR"] = str(SCRATCH)  # compilers and children stay in the checkout
    return env


def build():
    """Configures once and builds (a no-op when up to date)."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("perfbench: no genoc sources next to perfbench/ "
                         f"(looked for {ROOT / 'src'})")
    SCRATCH.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       env=child_env())
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr, env=child_env())


def run_child(argv, stdout_path):
    """Runs argv to completion; returns (exit code, wall s, rusage)."""
    with open(stdout_path, "wb") as out, \
            open(SCRATCH / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def load_oracle(name):
    with open(HERE / "oracle" / f"{name}.json") as f:
        return json.load(f)


def expect(label, got, want):
    if got != want:
        raise Fail(f"{label}: got {got!r}, oracle says {want!r}")


def check_free_faults(got, oracle, variants):
    want = oracle["deadlock_free_faults"]
    if want == "all":
        expect("deadlock-free variants", len(got), variants)
    else:
        expect("deadlock-free fault set", sorted(got), sorted(want))


def check_cli(workload, oracle, code, json_path):
    """Checks one CLI sample's exit code and --json report."""
    expect("exit code", code, oracle["exit_code"])
    try:
        with open(json_path) as f:
            report = json.load(f)
    except (OSError, ValueError) as error:
        raise Fail(f"unparsable --json: {error}")
    if WORKLOADS[workload]["kind"] == "verify":
        expect("instances", report.get("instances_total"), 1)
        row = report["instances"][0]
        for key in ("instance", "nodes", "ports", "dep_acyclic",
                    "deadlock_free", "method"):
            expect(key, row.get(key), oracle[key])
        expect("as_expected", row.get("as_expected"), True)
    else:
        for key, field in (("links", "links"), ("variants", "variants_total"),
                           ("screened", "screened"),
                           ("deadlock_free", "deadlock_free"),
                           ("deadlocked", "deadlocked")):
            expect(key, report.get(field), oracle[key])
        free = [v["faults"] for v in report["variants"]
                if not v["screened"] and v["deadlock_free"]]
        check_free_faults(free, oracle, oracle["variants"])


def check_driver(workload, oracle, verdict):
    """Checks the per-layer driver's verdict summary."""
    if WORKLOADS[workload]["kind"] == "verify":
        for key in ("instance", "nodes", "ports", "dep_acyclic",
                    "deadlock_free", "method"):
            expect(key, verdict.get(key), oracle[key])
        expect("prescreen_clean", verdict.get("prescreen_clean"), True)
    else:
        for key in ("variants", "screened", "deadlock_free", "deadlocked"):
            expect(key, verdict.get(key), oracle[key])
        check_free_faults(verdict["deadlock_free_faults"], oracle,
                          oracle["variants"])


def cli_argv(workload, json_path):
    w = WORKLOADS[workload]
    argv = [str(GENOC), w["kind"], "--instance", w["instance"],
            "--threads", str(w["threads"])]
    if w["kind"] == "verify":
        return argv + ["--json"], None
    return argv + ["--faults", "single", "--json", str(json_path)], json_path


def driver_argv(workload, mode, seed=0, spans=None):
    w = WORKLOADS[workload]
    argv = [str(LAYERS), "--mode", mode, "--kind", w["kind"],
            "--instance", w["instance"], "--threads", str(w["threads"]),
            "--seed", str(seed)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    return argv


class Tally:
    """Attempted/failed sample counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def record(self, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.first_failure = self.first_failure or error


def cli_sample(workload, oracle, tally):
    """One cold CLI run: (wall s, cpu s, peak RSS MiB), or None on failure."""
    stdout_path = SCRATCH / "cli.out"
    json_path = SCRATCH / "campaign.json"
    if json_path.exists():
        json_path.unlink()
    argv, report = cli_argv(workload, json_path)
    code, wall, usage = run_child(argv, stdout_path)
    try:
        check_cli(workload, oracle, code, report or stdout_path)
    except (Fail, KeyError, IndexError, TypeError) as error:
        tally.record(f"{workload} CLI sample: {error}")
        return None
    tally.record(None)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def driver_sample(workload, oracle, tally, mode, seed=0, spans=None):
    """One fresh driver process; its parsed JSON line, or None on failure."""
    out_path = SCRATCH / "driver.out"
    code, _, _ = run_child(driver_argv(workload, mode, seed, spans), out_path)
    try:
        expect("driver exit code", code, 0)
        with open(out_path) as f:
            result = json.load(f)
        if mode != "setup":
            check_driver(workload, oracle, result["verdict"])
    except (Fail, ValueError, IndexError, KeyError, TypeError) as error:
        tally.record(f"{workload} driver {mode}: {error}")
        return None
    tally.record(None)
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """The highest order statistic with at least 10 samples beyond it."""
    ordered = sorted(values)
    if len(ordered) < 11:
        return ordered[-1] if ordered else 0.0
    return ordered[len(ordered) - 11]


def end_to_end(workload, seed, seconds):
    oracle = load_oracle(workload)
    tally = Tally()
    # One untimed warm-up of each binary pulls it into the page cache; it
    # is still checked against the oracle.
    cli_sample(workload, oracle, tally)
    driver_sample(workload, oracle, tally, "setup")

    # Set-up and CLI samples interleave over the whole run, each kind taken
    # when it is behind its share of the time, so a slow spell of the host
    # hits both alike rather than one block of either.
    setups, samples = [], []
    setup_time = cli_time = 0.0
    deadline = time.perf_counter() + seconds
    while (len(setups) < MIN_SAMPLES or len(samples) < MIN_SAMPLES
           or time.perf_counter() < deadline):
        start = time.perf_counter()
        if setup_time <= SETUP_SHARE * (setup_time + cli_time):
            result = driver_sample(workload, oracle, tally, "setup")
            if result is not None:
                setups.append(result["setup_s"])
            setup_time += time.perf_counter() - start
        else:
            sample = cli_sample(workload, oracle, tally)
            if sample is not None:
                samples.append(sample)
            cli_time += time.perf_counter() - start
        if tally.failed > 3:
            break

    walls = [s[0] for s in samples]
    cpus = [s[1] for s in samples]
    rss = [s[2] for s in samples]
    metrics = {
        "wall_s": (median(walls), "s"),
        "cpu_s": (median(cpus), "s"),
        "peak_rss_mb": (median(rss), "MiB"),
        "setup_s": (median(setups), "s"),
    }
    table = [
        ("wall_s", walls, "s"), ("cpu_s", cpus, "s"),
        ("peak_rss_mb", rss, "MiB"), ("setup_s", setups, "s"),
    ]
    print(f"{workload}: seed={seed}, {len(walls)} CLI samples, "
          f"{len(setups)} set-up samples, "
          f"threads={WORKLOADS[workload]['threads']}, nproc={os.cpu_count()}")
    print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}  unit")
    for name, values, unit in table:
        q1, q2, q3 = quartiles(values)
        print(f"  {name:<14}{q2:>12.6g}{q1:>12.6g}{q3:>12.6g}  {unit}")
    error_rate = tally.failed / tally.attempted
    print(f"  {'error_rate':<14}{error_rate:>12.6g}{'':>24}  ratio "
          f"({tally.failed} of {tally.attempted} samples failed)")
    return tally, metrics


def per_layer(workload, seed, seconds):
    oracle = load_oracle(workload)
    tally = Tally()
    cli_sample(workload, oracle, tally)  # warm-up, as in end_to_end

    # CLI, traced and untraced samples interleave, so host drift hits all
    # three alike and cancels in unattributed_s and trace.overhead_s.
    walls, traced, plain, rep_spans = [], [], [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep < 3 or time.perf_counter() < deadline:
        sample = cli_sample(workload, oracle, tally)
        if sample is not None:
            walls.append(sample[0])
        spans = SCRATCH / f"spans-{rep}.json"
        result = driver_sample(workload, oracle, tally, "trace",
                               seed * 1000 + rep, spans)
        if result is not None:
            traced.append(result)
            with open(spans) as f:
                rep_spans.append(json.load(f))
        result = driver_sample(workload, oracle, tally, "plain", seed)
        if result is not None:
            plain.append(result)
        rep += 1
        if tally.failed > 3:
            break

    with open(BUILD / f"spans-{workload}.json", "w") as f:
        json.dump({"workload": workload, "seed": seed,
                   "threads": WORKLOADS[workload]["threads"],
                   "repetitions": rep_spans}, f)

    def layer(name):
        return median([r["layers"].get(name, 0.0) for r in traced])

    def cpu(name):
        return median([r["cpu"].get(name, 0.0) for r in traced])

    def count(name):  # exact counts: median_low keeps them whole
        values = [r["counts"][name] for r in traced]
        return statistics.median_low(values) if values else 0

    variant_ms = [ms for r in traced for ms in r["variant_ms"]]
    variants = count("campaign.variants")
    wall = median(walls)
    roots = median([r["roots_s"] for r in traced])
    metrics = {
        "instance.context_s": (layer("instance.context"), "s"),
        "instance.network_instance_s":
            (layer("instance.network_instance"), "s"),
        "analyze.prescreen_s": (layer("analyze.prescreen"), "s"),
        "analyze.uniformity_s": (layer("analyze.uniformity"), "s"),
        "analyze.turns_s": (layer("analyze.turns"), "s"),
        "analyze.dead_ports_s": (layer("analyze.dead_ports"), "s"),
        "analyze.spec_sanity_s": (layer("analyze.spec_sanity"), "s"),
        "deadlock.depgraph_s": (layer("deadlock.depgraph"), "s"),
        "deadlock.depgraph_cpu_s": (cpu("deadlock.depgraph"), "s"),
        "graph.acyclicity_s": (layer("graph.acyclicity"), "s"),
        "graph.acyclicity_cpu_s": (cpu("graph.acyclicity"), "s"),
        "deadlock.escape_s": (layer("deadlock.escape"), "s"),
        "deadlock.escape_cpu_s": (cpu("deadlock.escape"), "s"),
        "verify.pipeline_s": (layer("verify.pipeline"), "s"),
        "deadlock.depgraph_edges": (count("deadlock.depgraph_edges"), "count"),
        "deadlock.escape_states": (count("deadlock.escape_states"), "count"),
        "pool.parallel_for_calls": (count("pool.parallel_for_calls"), "count"),
        "pool.busy_ratio":
            (median([r["busy_ratio"] for r in traced]), "ratio"),
        "routing.closure_rows": (count("routing.closure_rows"), "count"),
        "campaign.enumerate_s": (layer("campaign.enumerate"), "s"),
        "campaign.base_s": (layer("campaign.base"), "s"),
        "campaign.variant_context_s": (layer("campaign.variant_context"), "s"),
        "campaign.screen_s": (layer("campaign.screen"), "s"),
        "campaign.variant_depgraph_s":
            (layer("campaign.variant_depgraph"), "s"),
        "campaign.variant_acyclicity_s":
            (layer("campaign.variant_acyclicity"), "s"),
        "campaign.variant_escape_s": (layer("campaign.variant_escape"), "s"),
        "campaign.variant_p50_ms": (median(variant_ms), "ms"),
        "campaign.variant_tail_ms": (tail(variant_ms), "ms"),
        "campaign.variant_samples": (len(variant_ms), "count"),
        "campaign.delta_builds": (count("campaign.delta_builds"), "count"),
        "campaign.screen_ratio":
            (count("campaign.screened") / variants if variants else 0.0,
             "ratio"),
        "trace.cli_wall_s": (wall, "s"),
        "trace.traced_total_s": (median([r["path_s"] for r in traced]), "s"),
        "trace.untraced_total_s": (median([r["path_s"] for r in plain]), "s"),
        "unattributed_s": (wall - roots, "s"),
    }
    metrics["trace.overhead_s"] = (
        metrics["trace.traced_total_s"][0]
        - metrics["trace.untraced_total_s"][0], "s")

    print(f"{workload} traced run: seed={seed}, {len(traced)} traced and "
          f"{len(plain)} untraced repetitions, {len(walls)} CLI samples, "
          f"threads={WORKLOADS[workload]['threads']}, nproc={os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32}{value:>14.6g}  {unit}")
    if variant_ms:
        print(f"  (variant tail: order statistic with 10 of "
              f"{len(variant_ms)} samples beyond it)")
    print(f"  spans: {BUILD / f'spans-{workload}.json'}")
    return tally, metrics


def result_line(tally, metrics):
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def steadiness(names, seconds):
    """Two sets of ten runs of the same code, as the acceptance check."""
    spec = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    unresolved = []
    for workload in names:
        sets = []
        for s in range(2):
            values = {name: [] for name in bounds}
            for i in range(STEADINESS_RUNS):
                seed = 1000 * (s + 1) + i
                out = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", "0"],
                    check=True, capture_output=True, text=True).stdout
                result = json.loads(out.strip().splitlines()[-1])
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: incorrect")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                log(f"{workload} set {s + 1} seed {seed}: " + " ".join(
                    f"{name}={values[name][-1]:.6g}" for name in bounds))
            sets.append(values)
        print(f"{workload}", flush=True)
        print(f"  {'metric':<12}{'set':>4}{'median':>11}{'q1':>11}"
              f"{'q3':>11}{'spread':>9}{'gap':>9}{'bound':>7}  verdict")
        for name, bound in bounds.items():
            rows = []
            for s, values in enumerate(sets):
                q1, q2, q3 = quartiles(values[name])
                rows.append((q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0))
            gap = (rows[1][1] - rows[0][1]) / rows[0][1] if rows[0][1] else 0.0
            spread = max(r[3] for r in rows)
            ok = abs(gap) <= bound and spread <= bound
            verdict = "ok" if ok else "UNRESOLVED"
            if spread > bound / 3:
                verdict += " (spread above a third of the bound)"
            if not ok:
                unresolved.append((workload, name))
            for s, (q1, q2, q3, spr) in enumerate(rows):
                tail_cols = (f"{gap:>+9.3f}{bound:>7.2f}  {verdict}"
                             if s == 1 else "")
                print(f"  {name if s == 0 else '':<12}{s + 1:>4}{q2:>11.5g}"
                      f"{q1:>11.5g}{q3:>11.5g}{spr:>9.3f}{tail_cols}",
                      flush=True)
    if unresolved:
        print("unresolved: " + ", ".join(f"{w}/{m}" for w, m in unresolved))
    return 1 if unresolved else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    seconds = args.seconds
    if seconds is None:
        seconds = load_benchmark()["run_seconds"]
    if not 1 <= seconds <= 600:
        parser.error("--seconds must be in [1, 600]")

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as error:
        raise SystemExit(f"perfbench: build failed: {error}")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.steadiness:
        return steadiness(names, seconds)

    results = {}
    for workload in names:
        if args.trace:
            tally, metrics = per_layer(workload, args.seed, seconds)
        else:
            tally, metrics = end_to_end(workload, args.seed, seconds)
        if tally.first_failure:
            log(f"perfbench: {tally.first_failure}")
        results[workload] = (tally, metrics)
    if len(names) == 1:
        print(result_line(*results[names[0]]))
    else:
        print(json.dumps({w: json.loads(result_line(*r))
                          for w, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
