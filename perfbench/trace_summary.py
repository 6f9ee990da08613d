#!/usr/bin/env python3
"""Per-span self-time table of a perfbench traced run.

Reads the span file `python3 perfbench/run.py --trace 1` writes
(.bench_build/perfbench/spans-<workload>.json: one record list per traced
repetition) and prints, per span name, averaged over the repetitions:

  count      spans per repetition
  total_s    summed duration
  self_s     duration minus the part of the span's interval its children
             cover (children on other threads count too; overlapping
             children are merged first)

A parent's self time is its unattributed remainder. The `(path)` row is the
driver's whole path; its self time is the part no root span covers.

Campaign variants are sampled: the span file keeps the per-variant spans of
a --seed-picked sample only. Their rows are scaled by variants / sampled to
estimate the whole campaign and are marked `est.`; the parent that holds
the sampled variants gets no self time, since most of its children are not
in the file.

Usage: python3 perfbench/trace_summary.py SPANS_FILE
"""
import collections
import json
import sys

PATH_ID = 0


def covered(intervals, begin, end):
    """Length of [begin, end) covered by the union of intervals."""
    total, cursor = 0, begin
    for b, e in sorted(intervals):
        b, e = max(b, cursor), min(e, end)
        if e > b:
            total += e - b
            cursor = e
    return total


def summarize(repetition):
    """{name: [count, total_ns, self_ns or None, estimated]} of one rep."""
    spans = repetition["spans"]
    scale = (repetition["variants"] / repetition["sampled_variants"]
             if repetition["sampled_variants"] else 1.0)
    children = collections.defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    rows = collections.defaultdict(lambda: [0.0, 0.0, 0.0, False])

    path_ns = repetition["path_s"] * 1e9
    roots = [s for s in children[PATH_ID]
             if not s["name"].startswith("breakdown.")]
    row = rows["(path)"]
    row[0] += 1
    row[1] += path_ns
    row[2] += path_ns - covered(
        [(s["begin_ns"], s["end_ns"]) for s in roots], 0, path_ns)

    for span in spans:
        duration = span["end_ns"] - span["begin_ns"]
        kids = children[span["id"]]
        sampled = span["variant"] >= 0
        weight = scale if sampled else 1.0
        row = rows[span["name"]]
        row[0] += weight
        row[1] += weight * duration
        row[3] = row[3] or sampled
        if any(kid["variant"] >= 0 and span["variant"] < 0 for kid in kids):
            row[2] = None  # holds sampled variants: remainder unknown
        elif row[2] is not None:
            row[2] += weight * (duration - covered(
                [(k["begin_ns"], k["end_ns"]) for k in kids],
                span["begin_ns"], span["end_ns"]))
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        data = json.load(f)
    reps = data["repetitions"]
    if not reps:
        print("no traced repetitions in " + argv[1], file=sys.stderr)
        return 1
    merged = collections.defaultdict(lambda: [0.0, 0.0, 0.0, False])
    first_begin = {"(path)": -1}
    for rep in reps:
        for span in rep["spans"]:
            first_begin[span["name"]] = min(
                first_begin.get(span["name"], span["begin_ns"]),
                span["begin_ns"])
        for name, (count, total, self_ns, est) in summarize(rep).items():
            row = merged[name]
            row[0] += count
            row[1] += total
            row[2] = None if self_ns is None or row[2] is None \
                else row[2] + self_ns
            row[3] = row[3] or est
    n = len(reps)
    print(f"{data['workload']}: {n} traced repetitions, seed {data['seed']}, "
          f"threads {data['threads']} (per-repetition means)")
    print(f"  {'span':<32}{'count':>9}{'total_s':>12}{'self_s':>12}")
    for name in sorted(merged, key=lambda name: first_begin[name]):
        count, total, self_ns, est = merged[name]
        self_col = "-" if self_ns is None else f"{self_ns / n / 1e9:.6f}"
        print(f"  {name:<32}{count / n:>9.1f}{total / n / 1e9:>12.6f}"
              f"{self_col:>12}{'  est.' if est else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
