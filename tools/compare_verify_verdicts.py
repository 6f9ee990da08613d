#!/usr/bin/env python3
"""Diff the verdict rows of two `genoc verify ... --json` reports.

Two runs of the same instances must agree on every row field except the
measurements: `wall_ms`, `cpu_ms` and `max_rss_kb` (on the row, its stages
and its analyzer pre-screen) and the per-row artifact-cache delta, which a
concurrent sibling in a pooled `--all` sweep may share. Everything else —
verdict, method, note, cycle witness, edge and check counts, stage
outcomes, diagnostics — must be identical, row by row, in order. CI runs it
on `verify --all --json` at `--sequential` against `--threads 4`.

Usage: tools/compare_verify_verdicts.py A.json B.json
Exit 0 when the rows agree, 1 on any difference (each one is printed).
"""
import argparse
import json
import pathlib
import sys

MEASUREMENTS = {"wall_ms", "cpu_ms", "max_rss_kb"}


def strip(value):
    """The value with every measurement key removed, at any depth."""
    if isinstance(value, dict):
        return {k: strip(v) for k, v in value.items() if k not in MEASUREMENTS}
    if isinstance(value, list):
        return [strip(v) for v in value]
    return value


def rows(path):
    report = json.loads(pathlib.Path(path).read_text())
    result = []
    for row in report["instances"]:
        row = strip(row)
        row.pop("cache", None)
        result.append(row)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args()
    a, b = rows(args.a), rows(args.b)
    problems = []
    if len(a) != len(b):
        problems.append(f"{len(a)} rows in {args.a}, {len(b)} in {args.b}")
    for index, (left, right) in enumerate(zip(a, b)):
        name = left.get("instance", f"row {index}")
        for key in sorted(set(left) | set(right)):
            if left.get(key) != right.get(key):
                problems.append(f"{name}: {key}: {left.get(key)!r} != "
                                f"{right.get(key)!r}")
    for problem in problems:
        print(problem)
    if problems:
        return 1
    print(f"{len(a)} rows agree (measurements and cache deltas excluded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
